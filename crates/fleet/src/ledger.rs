//! The fleet's write-ahead ledger: every scheduling decision and result as
//! one JSONL line.
//!
//! The daemon appends an event *before* acting on it (assignment before the
//! frame is sent, violation before it is counted, completion before the
//! module leaves the queue), so a daemon killed at any instant leaves a
//! ledger from which `repro fleet --resume` reconstructs the exact run
//! state: completed modules are never re-run, deduplicated violations are
//! never double-counted, in-flight modules are re-queued. The ledger goes
//! through the durable sink's record layer ([`tsvd_core::record`]) in the
//! wire's envelope (tagged `ev`).
//!
//! The ledger is also where a module's trap file lives between waves
//! (§3.4.6): a done event records the file its execution exported, and the
//! assignment of module m in wave k carries m's file from the latest
//! earlier wave whose done recorded one ([`LedgerState::carried`]) — the
//! rule the in-process runner keeps from run to run. A live daemon, a
//! resumed one and the report read it from the same replay.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize as _, Serialize as _, Value};
use tsvd_core::record::{read_jsonl, JsonlFile};
use tsvd_core::sink::{normalize_pair, DurableSink, ViolationRecord};
use tsvd_core::trap_file::TrapFileData;

use crate::wire::{envelope, open_envelope};

/// Ledger format version (the `v` field of every event line).
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// Run parameters, recorded once as the first event so `--resume` needs
/// nothing but the ledger path.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StartEvent {
    /// Suite spec string (see [`crate::suites::SuiteSpec`]).
    pub suite: String,
    /// Module count of the suite.
    pub modules: usize,
    /// Number of waves (cross-process analogue of `RunOptions::runs`).
    pub waves: usize,
    /// Worker processes the run was started with.
    pub workers: usize,
    /// Pool threads per module.
    pub threads: usize,
    /// Detector time-constant scale factor.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-module wall-clock deadline, milliseconds.
    pub deadline_ms: u64,
    /// Worker deaths a module may cause before quarantine.
    pub quarantine_kill_limit: u32,
    /// Executions a module may burn on panicked/timed-out outcomes.
    pub module_attempt_limit: u32,
    /// Directory holding the per-execution worker sinks.
    pub sink_dir: PathBuf,
    /// Chaos plan (env-string form) if fault injection was on.
    #[serde(default)]
    pub chaos: Option<String>,
}

/// A module was handed to a worker.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AssignEvent {
    /// Wave of the assignment.
    pub wave: usize,
    /// Module index.
    pub index: usize,
    /// Worker slot it went to.
    pub worker: usize,
    /// That slot's incarnation.
    pub incarnation: u64,
    /// Attempt number (0-based).
    pub attempt: u32,
}

/// A violation new to the run (deduplicated by module × location pair).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ViolationEvent {
    /// Module that caught it.
    pub index: usize,
    /// Lexicographically smaller rendered location.
    pub pair_a: String,
    /// Lexicographically larger rendered location.
    pub pair_b: String,
    /// The full sink record.
    pub record: ViolationRecord,
}

/// A module execution reached a final outcome.
#[derive(Debug, Clone, PartialEq, serde::Deserialize)]
pub struct DoneEvent {
    /// Wave of the execution.
    pub wave: usize,
    /// Module index.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// Attempt that produced the final outcome.
    pub attempt: u32,
    /// `completed` / `panicked` / `timed_out`.
    pub outcome: String,
    /// Wall-clock nanoseconds of the counted execution only.
    pub wall_ns: u64,
    /// Delays injected in the counted execution.
    pub delays: u64,
    /// `OnCall`s in the counted execution.
    pub on_calls: u64,
    /// The trap file the counted execution exported, which the module's
    /// next wave imports. Ledgers written before the field existed carry
    /// none, and their resumed waves start from an empty file.
    #[serde(default)]
    pub traps: Option<TrapFileData>,
}

// Hand-written rather than derived: the vendored derive cannot leave a
// field out, and `traps` is left out of the line when there is none, so a
// done without a file reads as it did before the field existed.
impl serde::Serialize for DoneEvent {
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("wave".to_string(), self.wave.to_value());
        map.insert("index".to_string(), self.index.to_value());
        map.insert("worker".to_string(), self.worker.to_value());
        map.insert("attempt".to_string(), self.attempt.to_value());
        map.insert("outcome".to_string(), self.outcome.to_value());
        map.insert("wall_ns".to_string(), self.wall_ns.to_value());
        map.insert("delays".to_string(), self.delays.to_value());
        map.insert("on_calls".to_string(), self.on_calls.to_value());
        if let Some(traps) = &self.traps {
            map.insert("traps".to_string(), traps.to_value());
        }
        Value::Object(map)
    }
}

/// A module execution will be re-run (worker death or failed outcome).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryEvent {
    /// Wave being retried.
    pub wave: usize,
    /// Module index.
    pub index: usize,
    /// The attempt that failed.
    pub attempt: u32,
    /// Why (`worker death: ...`, `outcome panicked`, ...).
    pub reason: String,
}

/// A module was poisoned after killing too many workers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuarantineEvent {
    /// Module index.
    pub index: usize,
    /// Worker deaths it caused.
    pub kills: u32,
}

/// A worker process died or was killed by the supervisor.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeathEvent {
    /// Worker slot.
    pub worker: usize,
    /// Incarnation that died.
    pub incarnation: u64,
    /// What the supervisor observed.
    pub reason: String,
}

/// The run resolved every module of every wave.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FinishEvent {
    /// Module executions recorded done.
    pub completed: usize,
    /// Modules quarantined.
    pub quarantined: usize,
}

/// One ledger line.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// Run parameters (first line).
    Start(StartEvent),
    /// Module handed out.
    Assign(AssignEvent),
    /// New deduplicated violation.
    Violation(ViolationEvent),
    /// Final module outcome.
    Done(DoneEvent),
    /// Re-queue decision.
    Retry(RetryEvent),
    /// Module poisoned.
    Quarantine(QuarantineEvent),
    /// Worker death.
    Death(DeathEvent),
    /// Clean end of run.
    Finish(FinishEvent),
}

impl LedgerEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let (ev, body) = match self {
            LedgerEvent::Start(p) => ("start", p.to_value()),
            LedgerEvent::Assign(p) => ("assign", p.to_value()),
            LedgerEvent::Violation(p) => ("violation", p.to_value()),
            LedgerEvent::Done(p) => ("done", p.to_value()),
            LedgerEvent::Retry(p) => ("retry", p.to_value()),
            LedgerEvent::Quarantine(p) => ("quarantine", p.to_value()),
            LedgerEvent::Death(p) => ("death", p.to_value()),
            LedgerEvent::Finish(p) => ("finish", p.to_value()),
        };
        let value = envelope("ev", LEDGER_SCHEMA_VERSION, ev, body);
        serde_json::to_string(&value).unwrap_or_default()
    }

    /// Parses an event from one JSON line.
    pub fn from_json(text: &str) -> Result<LedgerEvent, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let (kind, body) = open_envelope(&value, "ev", LEDGER_SCHEMA_VERSION)?;
        let ev = match kind {
            "start" => LedgerEvent::Start(StartEvent::from_value(body).map_err(err)?),
            "assign" => LedgerEvent::Assign(AssignEvent::from_value(body).map_err(err)?),
            "violation" => LedgerEvent::Violation(ViolationEvent::from_value(body).map_err(err)?),
            "done" => LedgerEvent::Done(DoneEvent::from_value(body).map_err(err)?),
            "retry" => LedgerEvent::Retry(RetryEvent::from_value(body).map_err(err)?),
            "quarantine" => {
                LedgerEvent::Quarantine(QuarantineEvent::from_value(body).map_err(err)?)
            }
            "death" => LedgerEvent::Death(DeathEvent::from_value(body).map_err(err)?),
            "finish" => LedgerEvent::Finish(FinishEvent::from_value(body).map_err(err)?),
            other => return Err(format!("unknown ledger event `{other}`")),
        };
        Ok(ev)
    }
}

fn err(e: serde::Error) -> String {
    e.to_string()
}

/// Append-only event log (see module docs).
pub struct Ledger {
    file: JsonlFile,
}

impl Ledger {
    /// Creates a fresh ledger, removing any previous file at `path`.
    pub fn create(path: &Path) -> io::Result<Ledger> {
        let file = JsonlFile::create(path, false)?;
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(Ledger { file }),
        }
    }

    /// Reopens an existing ledger for appending (`--resume`).
    pub fn open_append(path: &Path) -> io::Result<Ledger> {
        Ok(Ledger {
            file: JsonlFile::create(path, false)?,
        })
    }

    /// Appends one event as a single `write` call (write-ahead: call this
    /// *before* acting on the event).
    pub fn append(&self, event: &LedgerEvent) -> io::Result<()> {
        self.file.append(event.to_json())
    }

    /// Loads every intact event. Unparseable lines — at most the torn tail
    /// of a killed daemon, but any corruption mid-file too — are skipped
    /// with a warning, as [`DurableSink::load`] skips them.
    pub fn load(path: &Path) -> io::Result<Vec<LedgerEvent>> {
        read_jsonl(path, LedgerEvent::from_json)
    }
}

/// Run state: what the events of a ledger add up to. The live daemon,
/// `--resume`, [`verify`] and the fleet report all read it, and
/// [`LedgerState::apply`] is its only transition.
#[derive(Debug, Default)]
pub struct LedgerState {
    /// The recorded run parameters.
    pub start: Option<StartEvent>,
    /// Final outcome per (wave, module), without its trap file: that is
    /// kept once per module, in `carry`.
    pub done: HashMap<(usize, usize), DoneEvent>,
    /// Per module, the wave of the latest done that recorded a trap file,
    /// and that file.
    pub carry: HashMap<usize, (usize, TrapFileData)>,
    /// Deduplicated violations: (module, normalized location pair).
    pub violations: HashSet<(usize, (String, String))>,
    /// Quarantined modules with their kill counts.
    pub quarantined: HashMap<usize, u32>,
    /// Worker deaths attributed to each module (from death-reason retries
    /// and quarantine events).
    pub kills: HashMap<usize, u32>,
    /// Failed-outcome executions per (wave, module) that were retried
    /// (from outcome-reason retries).
    pub failures: HashMap<(usize, usize), u32>,
    /// Next attempt number per (wave, module).
    pub attempts: HashMap<(usize, usize), u32>,
    /// Retry events seen.
    pub retries: usize,
    /// Worker deaths seen.
    pub deaths: usize,
    /// Whether a finish event closed the run.
    pub finished: bool,
}

impl LedgerState {
    /// Folds one event into the state.
    pub fn apply(&mut self, event: &LedgerEvent) {
        match event {
            LedgerEvent::Start(s) => self.start = Some(s.clone()),
            LedgerEvent::Assign(a) => {
                let next = self.attempts.entry((a.wave, a.index)).or_insert(0);
                *next = (*next).max(a.attempt + 1);
            }
            LedgerEvent::Violation(v) => {
                self.violations
                    .insert((v.index, (v.pair_a.clone(), v.pair_b.clone())));
            }
            LedgerEvent::Done(d) => {
                // A module's waves are done in order, so the last file in
                // the ledger is the latest; the done keeps none of its own.
                let mut done = d.clone();
                if let Some(traps) = done.traps.take() {
                    self.carry.insert(d.index, (d.wave, traps));
                }
                self.done.insert((d.wave, d.index), done);
            }
            LedgerEvent::Retry(r) => {
                self.retries += 1;
                // Kill attribution rides in the retry reason: a worker
                // death re-queues with a "worker death" reason, a failed
                // outcome with an "outcome" reason.
                if r.reason.starts_with(RETRY_REASON_DEATH) {
                    *self.kills.entry(r.index).or_insert(0) += 1;
                } else if r.reason.starts_with(RETRY_REASON_OUTCOME) {
                    *self.failures.entry((r.wave, r.index)).or_insert(0) += 1;
                }
            }
            LedgerEvent::Quarantine(q) => {
                self.quarantined.insert(q.index, q.kills);
                self.kills.insert(q.index, q.kills);
            }
            LedgerEvent::Death(_) => self.deaths += 1,
            LedgerEvent::Finish(_) => self.finished = true,
        }
    }

    /// Whether module `index` needs no further execution in `wave`: it is
    /// done in that wave, or quarantined.
    pub fn resolved(&self, wave: usize, index: usize) -> bool {
        self.done.contains_key(&(wave, index)) || self.quarantined.contains_key(&index)
    }

    /// The trap file module `index` imports in `wave`: the one recorded by
    /// its done of the latest earlier wave that recorded one, or `None` —
    /// always in wave 0 — when no earlier done did. Only the latest file
    /// is kept, so the answer is exact for every wave after the module's
    /// latest done: every wave the daemon can still assign it in.
    pub fn carried(&self, wave: usize, index: usize) -> Option<&TrapFileData> {
        self.carry
            .get(&index)
            .filter(|(recorded, _)| *recorded < wave)
            .map(|(_, traps)| traps)
    }

    /// Modules of `wave` not yet [`resolved`](LedgerState::resolved), in
    /// index order.
    pub fn pending(&self, wave: usize) -> impl Iterator<Item = usize> + '_ {
        let modules = self.start.as_ref().map_or(0, |s| s.modules);
        (0..modules).filter(move |&index| !self.resolved(wave, index))
    }
}

/// Replays events in file order into a [`LedgerState`].
pub fn replay(events: &[LedgerEvent]) -> LedgerState {
    let mut state = LedgerState::default();
    for event in events {
        state.apply(event);
    }
    state
}

/// Prefix of retry reasons caused by a worker death (kill attribution).
pub const RETRY_REASON_DEATH: &str = "worker death";
/// Prefix of retry reasons caused by a failed module outcome.
pub const RETRY_REASON_OUTCOME: &str = "outcome";

/// What a successful [`verify`] saw.
#[derive(Debug, Clone, Default)]
pub struct VerifySummary {
    /// Modules in the suite.
    pub modules: usize,
    /// Waves of the run.
    pub waves: usize,
    /// Done events checked.
    pub done: usize,
    /// Quarantined modules.
    pub quarantined: usize,
    /// Deduplicated ledger violations.
    pub violations: usize,
    /// Distinct (module, pair) keys found across worker sinks.
    pub sink_pairs: usize,
}

/// Parses `w{wave}_m{index}_a{attempt}.jsonl` sink file names.
pub fn parse_sink_name(name: &str) -> Option<(usize, usize, u32)> {
    let stem = name.strip_suffix(".jsonl")?;
    let mut parts = stem.split('_');
    let wave = parts.next()?.strip_prefix('w')?.parse().ok()?;
    let index = parts.next()?.strip_prefix('m')?.parse().ok()?;
    let attempt = parts.next()?.strip_prefix('a')?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((wave, index, attempt))
}

/// Every worker sink in `dir` with its module index, in sorted name order:
/// the one walk behind [`merge_sink_dir`], [`verify`] and the supervisor's
/// harvest. Other files are passed over and a missing directory holds no
/// sinks, but an unreadable sink is an error, not an empty one.
pub(crate) fn read_sink_dir(dir: &Path) -> io::Result<Vec<(usize, Vec<ViolationRecord>)>> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries?,
    };
    let mut sinks = Vec::new();
    for entry in entries {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some((_wave, index, _attempt)) = parse_sink_name(&name) {
            sinks.push((name, index));
        }
    }
    sinks.sort_unstable();
    sinks
        .into_iter()
        .map(|(name, index)| Ok((index, DurableSink::load(&dir.join(name))?)))
        .collect()
}

/// Merges every per-execution worker sink in `dir` into one violation
/// list for downstream consumers (`repro fix` reads this directly).
/// Files are visited in sorted name order and duplicate pairs are
/// dropped (a retried module writes the same violation into a fresh
/// attempt sink), so the merged list is a deterministic function of the
/// directory contents regardless of filesystem iteration order. A torn
/// line costs only itself; an unreadable sink fails the merge rather than
/// hiding its catches.
pub fn merge_sink_dir(dir: &Path) -> io::Result<Vec<ViolationRecord>> {
    let mut seen: HashSet<(String, String)> = HashSet::new();
    let mut merged = Vec::new();
    for (_index, records) in read_sink_dir(dir)? {
        for r in records {
            if seen.insert(r.pair_key()) {
                merged.push(r);
            }
        }
    }
    Ok(merged)
}

/// Checks every fleet invariant a finished (or killed) run must uphold:
///
/// 1. exactly one start event, and a finished run resolves every
///    (wave, module) exactly once — done, or quarantined;
/// 2. no (wave, module) has two done events, and no done module is ever
///    assigned again afterwards (resume must not re-run completed work);
/// 3. ledger violations are unique per (module, pair) — zero duplicates;
/// 4. the ledger reconciles **exactly** against the per-execution worker
///    sinks: every pair in any sink file appears in the ledger (zero lost,
///    even across worker kills and torn socket writes), and every ledger
///    pair appears in some sink file of that module (nothing fabricated);
/// 5. quarantine only ever happens at or above the configured kill limit.
pub fn verify(events: &[LedgerEvent], sink_dir: &Path) -> Result<VerifySummary, Vec<String>> {
    let mut errors = Vec::new();
    let starts: Vec<&StartEvent> = events
        .iter()
        .filter_map(|e| match e {
            LedgerEvent::Start(s) => Some(s),
            _ => None,
        })
        .collect();
    if starts.len() != 1 {
        errors.push(format!(
            "expected exactly 1 start event, found {}",
            starts.len()
        ));
        return Err(errors);
    }
    let start = starts[0];
    let state = replay(events);

    // (2) duplicates and assign-after-done, in event order.
    let mut done_seen: HashSet<(usize, usize)> = HashSet::new();
    for ev in events {
        match ev {
            LedgerEvent::Done(d) if !done_seen.insert((d.wave, d.index)) => {
                errors.push(format!(
                    "duplicate done event for wave {} module {}",
                    d.wave, d.index
                ));
            }
            LedgerEvent::Assign(a) if done_seen.contains(&(a.wave, a.index)) => {
                errors.push(format!(
                    "module {} wave {} assigned again after completion",
                    a.index, a.wave
                ));
            }
            _ => {}
        }
    }

    // (3) violation dedup.
    let mut vio_seen: HashSet<(usize, (String, String))> = HashSet::new();
    for ev in events {
        if let LedgerEvent::Violation(v) = ev {
            let key = (v.index, normalize_pair(&v.pair_a, &v.pair_b));
            if !vio_seen.insert(key) {
                errors.push(format!(
                    "duplicate violation event for module {}: {} / {}",
                    v.index, v.pair_a, v.pair_b
                ));
            }
        }
    }

    // (1) coverage, only meaningful once the run claims to have finished.
    if state.finished {
        for wave in 0..start.waves {
            for index in 0..start.modules {
                let resolved = state.done.contains_key(&(wave, index))
                    || state.quarantined.contains_key(&index);
                if !resolved {
                    errors.push(format!("module {index} unresolved in wave {wave}"));
                }
            }
        }
    }

    // (5) quarantine threshold.
    for ev in events {
        if let LedgerEvent::Quarantine(q) = ev {
            if q.kills < start.quarantine_kill_limit {
                errors.push(format!(
                    "module {} quarantined after only {} kill(s), limit {}",
                    q.index, q.kills, start.quarantine_kill_limit
                ));
            }
        }
    }

    // (4) exact sink reconciliation.
    let sinks = match read_sink_dir(sink_dir) {
        Ok(sinks) => sinks,
        Err(e) => {
            errors.push(format!("cannot reconcile: {e}"));
            return Err(errors);
        }
    };
    let sink_pairs: HashSet<(usize, (String, String))> = sinks
        .into_iter()
        .flat_map(|(index, records)| records.into_iter().map(move |r| (index, r.pair_key())))
        .collect();
    for key in &sink_pairs {
        if !state.violations.contains(key) {
            errors.push(format!(
                "violation lost: module {} pair {} / {} is in a worker sink but not the ledger",
                key.0, key.1 .0, key.1 .1
            ));
        }
    }
    for key in &state.violations {
        if !sink_pairs.contains(key) {
            errors.push(format!(
                "violation fabricated: module {} pair {} / {} is in the ledger but no worker sink",
                key.0, key.1 .0, key.1 .1
            ));
        }
    }

    if errors.is_empty() {
        Ok(VerifySummary {
            modules: start.modules,
            waves: start.waves,
            done: state.done.len(),
            quarantined: state.quarantined.len(),
            violations: state.violations.len(),
            sink_pairs: sink_pairs.len(),
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write as _;

    fn start_event(dir: &Path) -> StartEvent {
        StartEvent {
            suite: "std:4:1".into(),
            modules: 4,
            waves: 1,
            workers: 2,
            threads: 2,
            scale: 0.02,
            seed: 1,
            deadline_ms: 1000,
            quarantine_kill_limit: 3,
            module_attempt_limit: 2,
            sink_dir: dir.to_path_buf(),
            chaos: None,
        }
    }

    fn done_event(wave: usize, index: usize) -> DoneEvent {
        DoneEvent {
            wave,
            index,
            worker: 0,
            attempt: 0,
            outcome: "completed".into(),
            wall_ns: 1,
            delays: 0,
            on_calls: 0,
            traps: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tsvd_ledger_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn vrec(a: &str, b: &str) -> ViolationRecord {
        ViolationRecord {
            schema: 1,
            location_trapped: a.to_string(),
            location_hitter: b.to_string(),
            op_trapped: "Dictionary.set".into(),
            op_hitter: "Dictionary.get".into(),
            obj: 7,
            time_ns: 1,
            read_write: true,
        }
    }

    #[test]
    fn merge_sink_dir_dedupes_and_ignores_foreign_files() {
        let dir = temp_dir("merge_sinks");
        let write_sink = |name: &str, records: &[ViolationRecord]| {
            let sink = DurableSink::create(&dir.join(name), false).expect("create");
            for r in records {
                sink.append_record(r).expect("append");
            }
        };
        write_sink("w0_m1_a0.jsonl", &[vrec("a.rs:1:1", "a.rs:2:2")]);
        // A retry re-caught the same pair, plus a fresh one.
        write_sink(
            "w0_m1_a1.jsonl",
            &[vrec("a.rs:1:1", "a.rs:2:2"), vrec("b.rs:3:3", "b.rs:4:4")],
        );
        write_sink("w1_m2_a0.jsonl", &[vrec("c.rs:5:5", "c.rs:6:6")]);
        // Non-sink files in the directory must be skipped, not parsed.
        std::fs::write(dir.join("ledger.jsonl"), "{\"ev\": \"start\"}\n").expect("write");
        std::fs::write(dir.join("notes.txt"), "not a sink").expect("write");

        let merged = merge_sink_dir(&dir).expect("merge");
        let keys: Vec<(String, String)> = merged.iter().map(|r| r.pair_key()).collect();
        assert_eq!(
            keys,
            vec![
                normalize_pair("a.rs:1:1", "a.rs:2:2"),
                normalize_pair("b.rs:3:3", "b.rs:4:4"),
                normalize_pair("c.rs:5:5", "c.rs:6:6"),
            ],
            "sorted file order, duplicates dropped"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes a writer killed inside the `é` of a path leaves last.
    const TORN_IN_A_CHARACTER: &[u8] = b"{\"location_trapped\":\"caf\xc3";

    fn tear(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).expect("open");
        f.write_all(bytes).expect("tear");
    }

    fn violation_event(index: usize, r: &ViolationRecord) -> LedgerEvent {
        let (pair_a, pair_b) = r.pair_key();
        LedgerEvent::Violation(ViolationEvent {
            index,
            pair_a,
            pair_b,
            record: r.clone(),
        })
    }

    #[test]
    fn a_sink_torn_inside_a_character_still_reconciles() {
        let dir = temp_dir("torn_utf8_sink");
        let records = [
            vrec("café.rs:1:1", "café.rs:2:2"),
            vrec("b.rs:3:3", "b.rs:4:4"),
        ];
        let sink_path = dir.join("w0_m1_a0.jsonl");
        let sink = DurableSink::create(&sink_path, false).expect("create");
        for r in &records {
            sink.append_record(r).expect("append");
        }
        tear(&sink_path, TORN_IN_A_CHARACTER);
        assert_eq!(DurableSink::load(&sink_path).expect("load").len(), 2);
        let mut events = vec![LedgerEvent::Start(start_event(&dir))];
        events.extend(records.iter().map(|r| violation_event(1, r)));
        let summary = verify(&events, &dir).expect("both pairs reconcile");
        assert_eq!((summary.violations, summary.sink_pairs), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_ledger_torn_inside_a_character_keeps_its_intact_events() {
        let dir = temp_dir("torn_utf8_ledger");
        let path = dir.join("ledger.jsonl");
        let events = vec![
            LedgerEvent::Start(start_event(&dir)),
            violation_event(1, &vrec("café.rs:1:1", "café.rs:2:2")),
        ];
        let ledger = Ledger::create(&path).expect("create");
        for ev in &events {
            ledger.append(ev).expect("append");
        }
        tear(&path, b"{\"v\":1,\"ev\":\"violation\",\"pair_a\":\"caf\xc3");
        assert_eq!(Ledger::load(&path).expect("load"), events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resuming_after_a_torn_tail_keeps_the_first_event_written() {
        let dir = temp_dir("torn_resume");
        let path = dir.join("ledger.jsonl");
        let start = LedgerEvent::Start(start_event(&dir));
        Ledger::create(&path)
            .and_then(|ledger| ledger.append(&start))
            .expect("append");
        tear(&path, b"{\"v\":1,\"ev\":\"done\",\"wav");
        let done = LedgerEvent::Done(done_event(0, 1));
        Ledger::open_append(&path)
            .and_then(|ledger| ledger.append(&done))
            .expect("append after resume");
        assert_eq!(Ledger::load(&path).expect("load"), [start, done]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_sink_is_an_error_and_a_missing_one_is_empty() {
        let dir = temp_dir("unreadable_sink");
        DurableSink::create(&dir.join("w0_m0_a0.jsonl"), false)
            .and_then(|sink| sink.append_record(&vrec("a.rs:1:1", "a.rs:2:2")))
            .expect("append");
        // A directory squatting on a sink's name: reading it fails (EISDIR).
        let squat = dir.join("w0_m1_a0.jsonl");
        std::fs::create_dir_all(&squat).expect("mkdir");
        let errors = verify(&[LedgerEvent::Start(start_event(&dir))], &dir).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("w0_m1_a0.jsonl")),
            "the error names the file: {errors:?}"
        );
        assert!(merge_sink_dir(&dir).is_err());
        std::fs::remove_dir_all(&squat).expect("rmdir");
        assert_eq!(merge_sink_dir(&dir).expect("merge").len(), 1);
        assert!(DurableSink::load(&squat)
            .expect("no sink, no record")
            .is_empty());
        assert!(merge_sink_dir(&dir.join("no-such-dir"))
            .expect("merge")
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_round_trip_through_the_file() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("ledger.jsonl");
        let events = vec![
            LedgerEvent::Start(start_event(&dir)),
            LedgerEvent::Assign(AssignEvent {
                wave: 0,
                index: 2,
                worker: 1,
                incarnation: 0,
                attempt: 0,
            }),
            LedgerEvent::Retry(RetryEvent {
                wave: 0,
                index: 2,
                attempt: 0,
                reason: "worker death: eof".into(),
            }),
            LedgerEvent::Quarantine(QuarantineEvent { index: 2, kills: 3 }),
            LedgerEvent::Death(DeathEvent {
                worker: 1,
                incarnation: 0,
                reason: "hang timeout".into(),
            }),
            LedgerEvent::Done(done_event(0, 3)),
            LedgerEvent::Finish(FinishEvent {
                completed: 1,
                quarantined: 1,
            }),
        ];
        let ledger = Ledger::create(&path).expect("create");
        for ev in &events {
            ledger.append(ev).expect("append");
        }
        let back = Ledger::load(&path).expect("load");
        assert_eq!(back, events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_skips_torn_tail() {
        let dir = temp_dir("torn");
        let path = dir.join("ledger.jsonl");
        let ledger = Ledger::create(&path).expect("create");
        ledger
            .append(&LedgerEvent::Start(start_event(&dir)))
            .expect("append");
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"v\":1,\"ev\":\"done\",\"wav")
                .expect("tear");
        }
        let events = Ledger::load(&path).expect("load");
        assert_eq!(events.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_reconstructs_state() {
        let dir = temp_dir("replay");
        let events = vec![
            LedgerEvent::Start(start_event(&dir)),
            LedgerEvent::Assign(AssignEvent {
                wave: 0,
                index: 0,
                worker: 0,
                incarnation: 0,
                attempt: 0,
            }),
            LedgerEvent::Assign(AssignEvent {
                wave: 0,
                index: 0,
                worker: 1,
                incarnation: 0,
                attempt: 1,
            }),
            LedgerEvent::Done(done_event(0, 0)),
            LedgerEvent::Quarantine(QuarantineEvent { index: 3, kills: 3 }),
        ];
        let state = replay(&events);
        assert_eq!(state.attempts[&(0, 0)], 2);
        assert!(state.done.contains_key(&(0, 0)));
        assert_eq!(state.quarantined[&3], 3);
        assert!(!state.finished);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A trap file that says which execution exported it.
    fn file(tag: &str) -> TrapFileData {
        let mut traps = TrapFileData::default();
        traps.push(
            (format!("{tag}.rs:1:1"), format!("{tag}.rs:2:2")),
            Default::default(),
        );
        traps.ordered = vec![(format!("{tag}.rs:3:3"), format!("{tag}.rs:4:4"))];
        traps
    }

    fn done_with(wave: usize, index: usize, traps: Option<TrapFileData>) -> LedgerEvent {
        LedgerEvent::Done(DoneEvent {
            traps,
            ..done_event(wave, index)
        })
    }

    /// Three waves of two modules: module 0 records a file in waves 0 and
    /// 2 but none in wave 1, module 1 only in wave 1.
    fn carry_events(dir: &Path) -> Vec<LedgerEvent> {
        vec![
            LedgerEvent::Start(StartEvent {
                modules: 2,
                waves: 4,
                ..start_event(dir)
            }),
            done_with(0, 0, Some(file("w0m0"))),
            done_with(0, 1, None),
            done_with(1, 1, Some(file("w1m1"))),
            done_with(1, 0, None),
            done_with(2, 0, Some(file("w2m0"))),
            done_with(2, 1, None),
        ]
    }

    #[test]
    fn a_module_carries_the_file_of_its_latest_earlier_wave_that_recorded_one() {
        let dir = temp_dir("carry");
        let events = carry_events(&dir);
        let mut state = LedgerState::default();
        state.apply(&events[0]);
        assert_eq!(state.carried(0, 0), None, "wave 0 carries nothing");
        for event in &events[1..3] {
            state.apply(event);
        }
        assert_eq!(state.carried(0, 0), None, "wave 0 carries nothing");
        assert_eq!(state.carried(1, 0), Some(&file("w0m0")));
        assert_eq!(state.carried(1, 1), None, "no earlier done recorded one");
        for event in &events[3..5] {
            state.apply(event);
        }
        assert_eq!(
            state.carried(2, 0),
            Some(&file("w0m0")),
            "wave 1 recorded none: wave 0's file"
        );
        assert_eq!(state.carried(2, 1), Some(&file("w1m1")));
        for event in &events[5..] {
            state.apply(event);
        }
        assert_eq!(state.carried(3, 0), Some(&file("w2m0")), "the latest wave");
        assert_eq!(state.carried(3, 1), Some(&file("w1m1")));
        // One file per module, none in the done map.
        assert_eq!(state.carry.len(), 2);
        assert!(state.done.values().all(|d| d.traps.is_none()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_replayed_ledger_carries_what_the_live_state_carried() {
        let dir = temp_dir("carry_replay");
        let path = dir.join("ledger.jsonl");
        let events = carry_events(&dir);
        let ledger = Ledger::create(&path).expect("create");
        for ev in &events {
            ledger.append(ev).expect("append");
        }
        // The live daemon's state: each event applied as it is committed.
        let mut live = LedgerState::default();
        for ev in &events {
            live.apply(ev);
        }
        let loaded = Ledger::load(&path).expect("load");
        assert_eq!(loaded, events, "every file survives the line");
        let replayed = replay(&loaded);
        assert_eq!(live.carry, replayed.carry);
        for wave in 0..4 {
            for index in 0..2 {
                assert_eq!(live.carried(wave, index), replayed.carried(wave, index));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_done_line_written_before_traps_existed_loads_and_carries_nothing() {
        let line = r#"{"attempt":1,"delays":4,"ev":"done","index":17,"on_calls":321,"outcome":"completed","v":1,"wall_ns":98765,"wave":1,"worker":2}"#;
        let event = LedgerEvent::from_json(line).expect("parse");
        let LedgerEvent::Done(done) = &event else {
            panic!("not a done: {event:?}");
        };
        assert_eq!(done.traps, None);
        assert_eq!(event.to_json(), line, "and writes back the same line");
        let state = replay(&[event]);
        assert_eq!(state.carried(2, 17), None);
    }

    #[test]
    fn verify_flags_duplicate_done_and_assign_after_done() {
        let dir = temp_dir("verify_dup");
        let events = vec![
            LedgerEvent::Start(start_event(&dir)),
            LedgerEvent::Done(done_event(0, 0)),
            LedgerEvent::Done(done_event(0, 0)),
            LedgerEvent::Assign(AssignEvent {
                wave: 0,
                index: 0,
                worker: 0,
                incarnation: 0,
                attempt: 1,
            }),
        ];
        let errors = verify(&events, &dir).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicate done")));
        assert!(errors.iter().any(|e| e.contains("assigned again")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_flags_unresolved_modules_on_finished_runs() {
        let dir = temp_dir("verify_cov");
        let events = vec![
            LedgerEvent::Start(start_event(&dir)),
            LedgerEvent::Done(done_event(0, 0)),
            LedgerEvent::Finish(FinishEvent {
                completed: 1,
                quarantined: 0,
            }),
        ];
        let errors = verify(&events, &dir).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("unresolved")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_name_parsing() {
        assert_eq!(parse_sink_name("w1_m42_a3.jsonl"), Some((1, 42, 3)));
        assert_eq!(parse_sink_name("w1_m42.jsonl"), None);
        assert_eq!(parse_sink_name("ledger.jsonl"), None);
        assert_eq!(parse_sink_name("w1_m42_a3_x.jsonl"), None);
    }
}
