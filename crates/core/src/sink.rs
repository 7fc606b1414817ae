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
//! written and read through [`crate::record`]: a crash mid-append tears at
//! most the line being written, which [`DurableSink::load`] skips (with a
//! warning). [`DurableSink::create`]'s `fsync` additionally syncs file data
//! after every append for power-loss durability; `Runtime` passes `false`,
//! trading that for speed and relying on the OS page cache surviving
//! process death.
//!
//! The contract, in three clauses: **a file exists iff a record was
//! appended** (the first append opens it, so a run that catches nothing
//! leaves nothing to open, sync or harvest, and [`DurableSink::load`] reads
//! a missing sink as an empty one); **every appended record is synced by
//! [`DurableSink::flush`]** (which costs nothing when nothing was appended
//! since the last sync); **append precedes report**.
//!
//! Creating a sink also installs (once, chained) a process-wide panic hook
//! that syncs every live sink before the panic propagates, so even
//! panic-aborts flush pending data.

use std::path::Path;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

use crate::record::{read_jsonl, JsonlFile};
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

/// Append-only JSONL violation log (see module docs).
pub struct DurableSink {
    inner: Arc<JsonlFile>,
}

impl DurableSink {
    /// Prepares a sink at `path`: creates any missing parent directories
    /// and registers the sink with the panic-hook flush list. The file
    /// itself is opened (created, or reopened for appending) by the first
    /// append, so a path that cannot be opened surfaces there.
    pub fn create(path: &Path, fsync: bool) -> std::io::Result<DurableSink> {
        let inner = Arc::new(JsonlFile::create(path, fsync)?);
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
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.inner.append(line)
    }

    /// Syncs every record appended since the last sync; free otherwise.
    pub fn flush(&self) {
        self.inner.sync();
    }

    /// Reads every intact record from a sink file, skipping torn lines
    /// ([`read_jsonl`]). A missing file is an empty sink (no record was ever
    /// appended); a file that exists but cannot be read is an error.
    pub fn load(path: &Path) -> std::io::Result<Vec<ViolationRecord>> {
        match read_jsonl(path, serde_json::from_str::<ViolationRecord>) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            loaded => loaded,
        }
    }
}

static FLUSH_REGISTRY: OnceLock<Mutex<Vec<Weak<JsonlFile>>>> = OnceLock::new();

/// Installs (once) a chained panic hook that syncs every live sink, then
/// adds `inner` to the flush list.
fn register_for_panic_flush(inner: &Arc<JsonlFile>) {
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
    use std::fs::OpenOptions;

    /// `sync_data` calls made by this thread — this test, that is.
    fn syncs() -> usize {
        crate::record::SYNCS.with(std::cell::Cell::get)
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
    fn load_missing_file_is_empty_and_unreadable_file_is_an_error() {
        let dir = temp_dir("missing");
        let records = DurableSink::load(&dir.join("nope.jsonl")).expect("no file, no record");
        assert!(records.is_empty());
        // A directory squatting on the name: the read fails (EISDIR).
        std::fs::create_dir_all(dir.join("squat.jsonl")).expect("mkdir");
        assert!(DurableSink::load(&dir.join("squat.jsonl")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two records, then a writer killed inside the `é` of a path: the
    /// first byte of its two-byte encoding is the file's last.
    const TORN_IN_A_CHARACTER: &[u8] = b"{\"location_trapped\":\"caf\xc3";

    fn tear(path: &Path, bytes: &[u8]) {
        use std::io::Write;
        let mut f = OpenOptions::new().append(true).open(path).expect("open");
        f.write_all(bytes).expect("tear");
    }

    #[test]
    fn a_tear_inside_a_multi_byte_character_keeps_the_intact_records() {
        let dir = temp_dir("torn_utf8");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("create");
        sink.append(&violation(1, 2)).expect("append");
        sink.append(&violation(3, 4)).expect("append");
        tear(&path, TORN_IN_A_CHARACTER);
        let records = DurableSink::load(&path).expect("load");
        assert_eq!(records.len(), 2, "one bad byte must not drop the file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_after_a_torn_tail_keeps_the_next_record() {
        let dir = temp_dir("torn_reopen");
        let path = dir.join("violations.jsonl");
        DurableSink::create(&path, false)
            .and_then(|sink| sink.append(&violation(1, 2)))
            .expect("append");
        tear(&path, b"{\"location_trapped\":\"sink_te");
        let sink = DurableSink::create(&path, false).expect("reopen");
        sink.append(&violation(3, 4)).expect("append after tear");
        let records = DurableSink::load(&path).expect("load");
        let keys: Vec<_> = records.iter().map(ViolationRecord::pair_key).collect();
        let want: Vec<_> = [violation(1, 2), violation(3, 4)]
            .iter()
            .map(|v| ViolationRecord::from_violation(v).pair_key())
            .collect();
        assert_eq!(keys, want, "the record appended after the tear is kept");
        std::fs::remove_dir_all(&dir).ok();
    }
}
