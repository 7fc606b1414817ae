//! The skeleton the CI regression gates share (`oncall_gate`,
//! `analyze_gate`, `suite_gate`): `--write PATH | --check PATH [--quick]`,
//! one baseline file per gate, and one way to compare against it. A bin
//! supplies a [`Baseline`] — how to measure, its invariants, its gated rows
//! and each row's [`Bound`] — and calls [`run`].
//!
//! Raw times are machine-dependent, so a gated time is a *ratio* to a unit
//! row of the same measurement. A measurement is a handful of interleaved
//! rounds, every row once per round, and a row's stored value is the
//! [`median`] of its per-round ratios to *that round's* unit. Ratios are
//! taken within a round because this class of machine drifts (a burst after
//! idle, then 10-35 % slower under sustained load): runs made back to back
//! share the drift, and the median drops the round a hiccup landed in.
//! What is left over is slower than a measurement, so `--check` measures
//! again before it fails anything, and fails only what failed both times.
//! A gate whose rows spread wider than that may have `--write` measure
//! several times and store one combined measurement
//! ([`Baseline::measure_for_write`]; `suite_gate`: the per-row median of
//! five).

use std::path::Path;
use std::process::ExitCode;

use serde::{Deserialize, Serialize, Value};

/// Allowed growth of a normalized ratio before `--check` fails.
pub const REGRESSION_TOLERANCE: f64 = 1.15;

/// How far a row may move from its baseline value before `--check` fails:
/// in the worse direction only, as a factor of the baseline value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Lower is better: at most this factor of the baseline.
    AtMost(f64),
    /// Higher is better: at least this factor of the baseline.
    AtLeast(f64),
}

impl Bound {
    /// `true` when `now` is worse than `was` beyond the bound.
    fn broken(self, now: f64, was: f64) -> bool {
        match self {
            Bound::AtMost(factor) => now > was * factor,
            Bound::AtLeast(factor) => now < was * factor,
        }
    }
}

/// Cores this machine offers.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// One gated number of a baseline file.
pub struct Row {
    /// Names the row in messages and matches it between two files.
    pub label: String,
    /// The row's time in units of the measurement's unit row.
    pub normalized: f64,
    /// Cores the row needs for its threads to run at once. Threads that
    /// time-share a core never contend, and the same code reads several
    /// times slower where they do, so a row compares only between machines
    /// that both have this many; `1` always compares.
    pub needs_cores: u32,
    /// How far the row may move from the baseline's.
    pub bound: Bound,
}

impl Row {
    /// A time in units of the unit row, which may grow by
    /// [`REGRESSION_TOLERANCE`].
    pub fn ratio(label: String, normalized: f64, needs_cores: u32) -> Row {
        Row {
            label,
            normalized,
            needs_cores,
            bound: Bound::AtMost(REGRESSION_TOLERANCE),
        }
    }
}

/// A gate's baseline file: what one measurement produces, persists and is
/// compared by. The file carries a `schema_version` field, which `--check`
/// reads before anything else.
pub trait Baseline: Serialize + Deserialize {
    /// The gate's name in messages (`"oncall"`).
    const NAME: &'static str;
    /// Bumped when the stored numbers change meaning. `--check` refuses a
    /// file of another version: its ratios are in another unit.
    const SCHEMA_VERSION: u32;

    /// Measures every row on this machine, logging each to stderr.
    fn measure(quick: bool) -> Self;
    /// Cores of the machine that measured this file (`0`: not recorded).
    fn nproc(&self) -> u32;
    /// Machine-independent conditions that hold on every measurement, a
    /// baseline being written included. `Ok` says what held.
    fn check_invariants(&self) -> Result<String, String>;
    /// The gated rows.
    fn rows(&self) -> Vec<Row>;

    /// The measurement `--write` stores, made with `measure`: one, unless
    /// a gate says otherwise.
    fn measure_for_write(measure: impl Fn() -> Self) -> Self {
        measure()
    }
}

fn load<B: Baseline>(path: &str) -> Result<B, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let value: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let version = value.as_object().and_then(|o| o.get("schema_version"));
    if version != Some(&Value::UInt(u64::from(B::SCHEMA_VERSION))) {
        let found = match version {
            Some(Value::UInt(v)) => v.to_string(),
            _ => "?".to_string(),
        };
        return Err(format!(
            "schema {found}, this gate writes {}: its ratios are in another unit; \
             regenerate it with --write",
            B::SCHEMA_VERSION
        ));
    }
    B::from_value(&value).map_err(|e| e.to_string())
}

/// Everything `current` fails, as `(what, message)`: `what` is
/// `"invariants"` or the label of a row outside its bound. Compares every
/// stored row both machines could run in parallel with the current one of
/// the same label; regressions only, better is fine. Says what held.
fn failures<B: Baseline>(stored: &B, current: &B) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    match current.check_invariants() {
        Ok(held) => eprintln!("invariants: {held}"),
        Err(e) => failures.push(("invariants".to_string(), e)),
    }
    let cores = stored.nproc().min(current.nproc()).max(1);
    let (compared, skipped): (Vec<Row>, Vec<Row>) = stored
        .rows()
        .into_iter()
        .partition(|row| row.needs_cores <= cores);
    if !skipped.is_empty() {
        let labels: Vec<&str> = skipped.iter().map(|row| row.label.as_str()).collect();
        let written_on = match stored.nproc() {
            0 => "an unrecorded number of".to_string(),
            n => n.to_string(),
        };
        eprintln!(
            "baseline: written on {written_on} core(s), this machine has {}: comparing rows \
             with threads <= {cores}, skipping {}",
            current.nproc(),
            labels.join(", ")
        );
    }
    let now = current.rows();
    let before = failures.len();
    for was in &compared {
        let message = match now.iter().find(|row| row.label == was.label) {
            None => format!("{} missing from current run", was.label),
            Some(row) if was.bound.broken(row.normalized, was.normalized) => {
                let allowed = match was.bound {
                    Bound::AtMost(factor) => format!("at most {factor:.2}x"),
                    Bound::AtLeast(factor) => format!("at least {factor:.2}x"),
                };
                format!(
                    "{} regressed: {:.3} (baseline {:.3}, {allowed} of it)",
                    was.label, row.normalized, was.normalized
                )
            }
            Some(_) => continue,
        };
        failures.push((was.label.clone(), message));
    }
    if failures.len() == before {
        eprintln!(
            "baseline: {} rows within their bounds of the stored values",
            compared.len()
        );
    }
    failures
}

/// A gate bin's `main`: parses the command line, measures, and writes or
/// checks. Exit 0 on success, 1 on a failed invariant, regression or file
/// error, 2 on bad usage.
pub fn run<B: Baseline>() -> ExitCode {
    let mut write_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let (mut quick, mut bad_usage) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write_path = args.next(),
            "--check" => check_path = args.next(),
            "--quick" => quick = true,
            _ => bad_usage = true,
        }
    }
    let name = B::NAME;
    let measure = || {
        eprintln!(
            "measuring ({} mode) ...",
            if quick { "quick" } else { "full" }
        );
        B::measure(quick)
    };
    match (bad_usage, write_path, check_path) {
        (false, Some(path), None) => {
            let current = B::measure_for_write(measure);
            match current.check_invariants() {
                Ok(held) => eprintln!("invariants: {held}"),
                Err(e) => {
                    eprintln!("REFUSING to write a failing baseline:\n{e}");
                    return ExitCode::FAILURE;
                }
            }
            let json = serde_json::to_string_pretty(&current).expect("bench file serializes");
            if let Err(e) = tsvd_core::save_atomic(Path::new(&path), json + "\n") {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        (false, None, Some(path)) => {
            let stored: B = match load(&path) {
                Ok(stored) => stored,
                Err(e) => {
                    eprintln!("failed to load baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // A failure must repeat: a regression is there on a second
            // measurement too, while on this class of machine a two-thread
            // row's run median sits 7 % off its long-run value now and then,
            // and a baseline is one such draw (EXPERIMENTS.md "PR 19").
            let mut failed = failures(&stored, &measure());
            if !failed.is_empty() {
                for (_, message) in &failed {
                    eprintln!("{message}");
                }
                eprintln!("measuring again to confirm ...");
                let again = failures(&stored, &measure());
                failed.retain(|(what, _)| again.iter().any(|(w, _)| w == what));
            }
            if failed.is_empty() {
                eprintln!("{name} gate: OK");
                return ExitCode::SUCCESS;
            }
            eprintln!("FAILED vs {path}, twice:");
            for (_, message) in &failed {
                eprintln!("{message}");
            }
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("usage: {name}_gate (--write PATH | --check PATH) [--quick]");
            ExitCode::from(2)
        }
    }
}
