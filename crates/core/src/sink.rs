//! Durable write-ahead sink for caught violations.
//!
//! A violation caught moments before the process dies — a crashing bug, a
//! harness abort, a CI timeout killing the run — is exactly the violation
//! worth keeping, and an in-memory [`crate::ReportSink`] loses it. The
//! durable sink appends every catch **write-ahead** as one JSON line: the
//! record reaches the file before the in-memory report is published, so the
//! on-disk log is always a superset of what any survivor observed.
//!
//! Format: JSONL — one [`ViolationRecord`] object per `\n`-terminated line,
//! appended with a single `write` call each. A crash mid-append leaves at
//! most one torn final line, which [`DurableSink::load`] skips (with a
//! warning) instead of discarding the whole file. `durable_sink_fsync`
//! additionally syncs file data after every append for power-loss
//! durability; the default trades that for speed, relying on the OS page
//! cache surviving process death.
//!
//! The contract, in three clauses: **a file exists iff a record was
//! appended** (the first append opens it, so a run that catches nothing
//! leaves nothing to open, sync or harvest, and every reader treats a
//! missing sink as an empty one); **every appended record is synced by
//! [`DurableSink::flush`]** (which costs nothing when nothing was appended
//! since the last sync); **append precedes report**.
//!
//! Creating a sink also installs (once, chained) a process-wide panic hook
//! that syncs every live sink before the panic propagates, so even
//! panic-aborts flush pending data.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::report::Violation;

/// Schema version stamped on every record this build writes. Version 1
/// introduced the field itself; records loaded from files (or wire frames)
/// written before it carry 0, the back-compat default. Readers accept any
/// version at or below their own and must treat unknown *higher* versions
/// as forward data whose known fields are still meaningful — the JSONL
/// object shape only ever grows fields.
pub const VIOLATION_SCHEMA_VERSION: u32 = 1;

/// One durable violation record — the subset of [`Violation`] that survives
/// serialization (sites become rendered location strings). Also the payload
/// the fleet wire protocol streams from workers to the daemon, which is why
/// it carries an explicit schema version.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ViolationRecord {
    /// Serialization schema version (see [`VIOLATION_SCHEMA_VERSION`]);
    /// 0 for records written before the field existed.
    #[serde(default)]
    pub schema: u32,
    /// Rendered static location of the trapped (delayed) side.
    pub location_trapped: String,
    /// Rendered static location of the side that walked into the trap.
    pub location_hitter: String,
    /// Operation name on the trapped side.
    pub op_trapped: String,
    /// Operation name on the hitter side.
    pub op_hitter: String,
    /// Object both sides accessed.
    pub obj: u64,
    /// When the collision was observed, nanoseconds.
    pub time_ns: u64,
    /// `true` if exactly one side is a read.
    pub read_write: bool,
}

impl ViolationRecord {
    /// Builds a record from a caught violation.
    pub fn from_violation(v: &Violation) -> ViolationRecord {
        ViolationRecord {
            schema: VIOLATION_SCHEMA_VERSION,
            location_trapped: v.trapped.site.to_string(),
            location_hitter: v.hitter.site.to_string(),
            op_trapped: v.trapped.op_name.to_string(),
            op_hitter: v.hitter.op_name.to_string(),
            obj: v.obj.0,
            time_ns: v.time_ns,
            read_write: v.is_read_write(),
        }
    }

    /// The unordered location pair identifying this bug, normalized
    /// lexicographically so records and in-memory reports compare equal
    /// regardless of which side was trapped.
    pub fn pair_key(&self) -> (String, String) {
        normalize_pair(&self.location_trapped, &self.location_hitter)
    }
}

/// Orders two rendered locations lexicographically — the textual analogue
/// of [`crate::near_miss::SitePair`]'s normalization, usable on loaded
/// records whose interned sites no longer exist.
pub fn normalize_pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

struct SinkFile {
    path: PathBuf,
    fsync: bool,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    /// `None` until the first append.
    file: Option<File>,
    /// A record was written since the last successful sync.
    unsynced: bool,
}

impl SinkFile {
    fn sync(&self) {
        let mut state = self.state.lock();
        if !state.unsynced {
            return;
        }
        // Best effort: a failed sync during a panic must not double-panic;
        // it stays owed to the next flush.
        if state.file.as_ref().is_some_and(|f| sync_data(f).is_ok()) {
            state.unsynced = false;
        }
    }
}

fn sync_data(file: &File) -> std::io::Result<()> {
    #[cfg(test)]
    tests::SYNCS.with(|n| n.set(n.get() + 1));
    file.sync_data()
}

/// Append-only JSONL violation log (see module docs).
pub struct DurableSink {
    inner: Arc<SinkFile>,
}

impl DurableSink {
    /// Prepares a sink at `path`: creates any missing parent directories
    /// and registers the sink with the panic-hook flush list. The file
    /// itself is opened (created, or reopened for appending) by the first
    /// append, so a path that cannot be opened surfaces there.
    pub fn create(path: &Path, fsync: bool) -> std::io::Result<DurableSink> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let inner = Arc::new(SinkFile {
            path: path.to_path_buf(),
            fsync,
            state: Mutex::default(),
        });
        register_for_panic_flush(&inner);
        Ok(DurableSink { inner })
    }

    /// Appends one violation as a single JSON line. Errors are returned,
    /// not panicked — the caller decides whether a failed append is fatal
    /// (the runtime logs and keeps detecting).
    pub fn append(&self, v: &Violation) -> std::io::Result<()> {
        self.append_record(&ViolationRecord::from_violation(v))
    }

    /// Appends an already-built record (used by tests and reconciliation).
    pub fn append_record(&self, record: &ViolationRecord) -> std::io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        line.push('\n');
        let mut state = self.inner.state.lock();
        let SinkState { file, unsynced } = &mut *state;
        let file = match file {
            Some(file) => file,
            None => file.insert(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.inner.path)?,
            ),
        };
        // One write call per record keeps appends atomic with respect to
        // other writers of this handle and bounds crash damage to one line.
        file.write_all(line.as_bytes())?;
        *unsynced = true;
        if self.inner.fsync {
            sync_data(file)?;
            *unsynced = false;
        }
        Ok(())
    }

    /// Syncs every record appended since the last sync; free otherwise.
    pub fn flush(&self) {
        self.inner.sync();
    }

    /// Reads every intact record from a sink file. A torn (unparseable)
    /// **final** line — the signature of a crash mid-append — is skipped
    /// with a warning; an unparseable line elsewhere is also skipped, so a
    /// partially corrupted log still yields its good records.
    pub fn load(path: &Path) -> std::io::Result<Vec<ViolationRecord>> {
        let text = std::fs::read_to_string(path)?;
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<ViolationRecord>(line) {
                Ok(r) => records.push(r),
                Err(e) => {
                    eprintln!(
                        "tsvd: durable sink {}: skipping unreadable line {}: {}",
                        path.display(),
                        idx + 1,
                        e
                    );
                }
            }
        }
        Ok(records)
    }
}

static FLUSH_REGISTRY: OnceLock<Mutex<Vec<Weak<SinkFile>>>> = OnceLock::new();

/// Installs (once) a chained panic hook that syncs every live sink, then
/// adds `inner` to the flush list.
fn register_for_panic_flush(inner: &Arc<SinkFile>) {
    let registry = FLUSH_REGISTRY.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(registry) = FLUSH_REGISTRY.get() {
                for weak in registry.lock().iter() {
                    if let Some(sink) = weak.upgrade() {
                        sink.sync();
                    }
                }
            }
            previous(info);
        }));
        Mutex::new(Vec::new())
    });
    let mut sinks = registry.lock();
    sinks.retain(|w| w.strong_count() > 0);
    sinks.push(Arc::downgrade(inner));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;
    use crate::report::Party;
    use crate::site::{SiteData, SiteId};

    thread_local! {
        /// `sync_data` calls made by this thread — this test, that is.
        pub(super) static SYNCS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn syncs() -> usize {
        SYNCS.with(std::cell::Cell::get)
    }

    fn site(line: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "sink_test.rs",
            line,
            column: 1,
        })
    }

    fn violation(a: u32, b: u32) -> Violation {
        Violation {
            trapped: Party {
                site: site(a),
                context: ContextId(1),
                op_name: "x.write",
                kind: OpKind::Write,
                stack: None,
            },
            hitter: Party {
                site: site(b),
                context: ContextId(2),
                op_name: "x.read",
                kind: OpKind::Read,
                stack: None,
            },
            obj: ObjId(7),
            time_ns: 42,
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tsvd_sink_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("create");
        sink.append(&violation(1, 2)).expect("append");
        sink.append(&violation(3, 4)).expect("append");
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].obj, 7);
        assert_eq!(records[0].time_ns, 42);
        assert!(records[0].read_write);
        assert_eq!(records[0].op_trapped, "x.write");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sink_that_never_appended_leaves_no_file_and_never_syncs() {
        let dir = temp_dir("lazy");
        let path = dir.join("deep/er/violations.jsonl");
        let before = syncs();
        {
            let sink = DurableSink::create(&path, true).expect("create");
            assert!(dir.join("deep/er").is_dir(), "create makes the parent");
            sink.flush();
            sink.inner.sync(); // what the panic hook calls
        }
        assert!(!path.exists(), "a file exists iff a record was appended");
        assert_eq!(syncs(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_syncs_only_what_has_not_been_synced() {
        let dir = temp_dir("dirty");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("create");
        let before = syncs();
        sink.append(&violation(1, 2)).expect("append");
        assert_eq!(
            std::fs::read_to_string(&path)
                .expect("read")
                .lines()
                .count(),
            1,
            "the first append opened the file and wrote its line"
        );
        sink.append(&violation(3, 4)).expect("append");
        assert_eq!(syncs(), before, "without fsync an append does not sync");
        sink.flush();
        assert_eq!(syncs(), before + 1, "one sync covers both appends");
        sink.flush();
        sink.flush();
        assert_eq!(syncs(), before + 1, "nothing new: flush is a no-op");
        sink.append(&violation(5, 6)).expect("append");
        sink.flush();
        assert_eq!(syncs(), before + 2);

        // With fsync every append syncs itself and leaves flush nothing.
        let eager = DurableSink::create(&dir.join("eager.jsonl"), true).expect("create");
        let before = syncs();
        eager.append(&violation(1, 2)).expect("append");
        eager.append(&violation(3, 4)).expect("append");
        eager.flush();
        assert_eq!(syncs(), before + 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unopenable_path_fails_at_the_first_append_not_at_create() {
        let dir = temp_dir("unopenable");
        // A directory squatting on the sink's own name: the parent exists,
        // so `create` has nothing to object to; the open cannot succeed.
        let path = dir.join("violations.jsonl");
        std::fs::create_dir_all(&path).expect("mkdir");
        let sink = DurableSink::create(&path, false).expect("create");
        assert!(sink.append(&violation(1, 2)).is_err());
        assert!(sink.append(&violation(1, 2)).is_err(), "and keeps failing");
        sink.flush();
        // A parent that cannot be made is still a create-time error.
        std::fs::write(dir.join("file"), "x").expect("write");
        assert!(DurableSink::create(&dir.join("file/under/v.jsonl"), false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_skips_torn_final_line() {
        let dir = temp_dir("torn");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, true).expect("create");
        sink.append(&violation(1, 2)).expect("append");
        // Simulate a crash mid-append: a truncated JSON fragment at EOF.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"location_trapped\":\"sink_te")
                .expect("tear");
        }
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 1, "the intact line must survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_reopens_existing_log() {
        let dir = temp_dir("reopen");
        let path = dir.join("violations.jsonl");
        {
            let sink = DurableSink::create(&path, false).expect("create");
            sink.append(&violation(1, 2)).expect("append");
        }
        {
            let sink = DurableSink::create(&path, false).expect("reopen");
            sink.append(&violation(3, 4)).expect("append");
        }
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 2, "reopen must append, not truncate");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_skips_torn_mid_file_frame_and_keeps_later_lines() {
        // A tear need not be final: a crashed writer's partial line gets a
        // newline appended when another handle (a respawned worker, a log
        // concatenation) continues the file. Every intact line around the
        // tear must survive.
        let dir = temp_dir("torn_mid");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("create");
        sink.append(&violation(1, 2)).expect("append");
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(b"{\"location_trapped\":\"sink_te\n")
                .expect("tear");
        }
        sink.append(&violation(3, 4)).expect("append after tear");
        sink.append(&violation(5, 6)).expect("append after tear");
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 3, "valid lines after a torn frame survive");
        assert_eq!(records[1].pair_key(), {
            let r = ViolationRecord::from_violation(&violation(3, 4));
            r.pair_key()
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_version_round_trips_and_defaults_on_old_files() {
        let dir = temp_dir("schema");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("create");
        sink.append(&violation(1, 2)).expect("append");
        // A line written by a pre-schema build: no `schema` key at all.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(
                b"{\"location_trapped\":\"old.rs:1:1\",\"location_hitter\":\"old.rs:2:2\",\
                  \"op_trapped\":\"x.write\",\"op_hitter\":\"x.read\",\"obj\":3,\
                  \"time_ns\":9,\"read_write\":true}\n",
            )
            .expect("write old-format line");
        }
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].schema, VIOLATION_SCHEMA_VERSION);
        assert_eq!(records[1].schema, 0, "pre-schema records load as version 0");
        // And the new record's version survives a full JSON round trip.
        let json = serde_json::to_string(&records[0]).expect("serialize");
        let back: ViolationRecord = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, records[0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pair_key_is_order_insensitive() {
        let a = ViolationRecord::from_violation(&violation(1, 2));
        let mut b = ViolationRecord::from_violation(&violation(1, 2));
        std::mem::swap(&mut b.location_trapped, &mut b.location_hitter);
        assert_eq!(a.pair_key(), b.pair_key());
    }

    #[test]
    fn load_missing_file_is_an_error() {
        let dir = temp_dir("missing");
        let err = DurableSink::load(&dir.join("nope.jsonl"));
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
