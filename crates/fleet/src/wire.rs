//! Length-prefixed JSONL wire protocol between the fleet daemon and workers.
//!
//! Every frame is `XXXXXXXX\n<payload>` where the 8 hex digits give the
//! payload byte length and the payload is one JSON object terminated by a
//! newline — JSONL framed twice, so a receiver can both stream-parse and
//! detect torn writes: a short read against the declared length means the
//! peer died mid-frame, and the partial payload is discarded rather than
//! misparsed. The payload grows from the durable-sink format
//! ([`ViolationRecord`] rides verbatim inside [`ViolationMsg`]) and every
//! frame carries a `v` schema field so old daemons reject frames from newer
//! workers instead of guessing ([`WIRE_SCHEMA_VERSION`]).

use std::io::{Read, Write};

use serde::{Deserialize as _, Serialize as _, Value};
use tsvd_core::sink::ViolationRecord;
use tsvd_core::trap_file::TrapFileData;

/// Version stamped in every frame's `v` field. Readers accept frames at or
/// below their own version (new fields have back-compat defaults) and
/// reject higher ones.
pub const WIRE_SCHEMA_VERSION: u32 = 1;

/// Upper bound on a single frame's payload; a corrupted length prefix must
/// not make the reader allocate gigabytes.
const MAX_FRAME_BYTES: usize = 1 << 24;

/// Worker → daemon: first frame on a fresh connection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Hello {
    /// Worker slot index this process was spawned for.
    pub worker: usize,
    /// Spawn generation of the slot (increments on every respawn), so the
    /// daemon can ignore frames from a stale process it already killed.
    pub incarnation: u64,
    /// OS process id, for supervision logs.
    pub pid: u32,
}

/// Daemon → worker: run one module.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Assign {
    /// Suite wave (the cross-process analogue of a `run_suite` run index).
    pub wave: usize,
    /// Module index within the suite.
    pub index: usize,
    /// Execution attempt for this (wave, module), 0-based; retries after
    /// worker deaths or failed outcomes increment it.
    pub attempt: u32,
    /// Merged fleet-wide trap file (confidence-ranked dangerous pairs) to
    /// pre-arm before the run.
    pub traps: TrapFileData,
}

/// Worker → daemon: one caught violation, streamed before [`Done`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ViolationMsg {
    /// Wave the catch happened in.
    pub wave: usize,
    /// Module that caught it.
    pub index: usize,
    /// The durable-sink record, schema field included.
    pub record: ViolationRecord,
}

/// Worker → daemon: a module execution finished (in any outcome).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Done {
    /// Wave of the execution.
    pub wave: usize,
    /// Module index.
    pub index: usize,
    /// Attempt number this result belongs to.
    pub attempt: u32,
    /// [`crate::runner::ModuleOutcome`] as text (`completed` / `panicked` /
    /// `timed_out`).
    pub outcome: String,
    /// Wall-clock nanoseconds of the execution.
    pub wall_ns: u64,
    /// Delays injected during the execution.
    pub delays: u64,
    /// `OnCall`s observed.
    pub on_calls: u64,
    /// Dangerous pairs in the trap-file delta (near-miss summary).
    pub dangerous_pairs: u64,
    /// Trap-file delta learned by this execution, if any.
    pub traps: Option<TrapFileData>,
    /// Path of the per-execution durable sink the worker wrote.
    pub sink: String,
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker introduction.
    Hello(Hello),
    /// Module assignment.
    Assign(Assign),
    /// Worker liveness beacon (sent every heartbeat interval).
    Heartbeat,
    /// A caught violation.
    Violation(ViolationMsg),
    /// Execution result.
    Done(Done),
    /// Daemon → worker: drain and exit cleanly.
    Shutdown,
}

/// Wraps a payload's object map in the `v` (schema version) / `tag` envelope
/// shared by frames (tag `kind`) and ledger lines (tag `ev`, so a ledger
/// line can never be mistaken for a frame payload).
pub(crate) fn envelope(tag: &str, version: u32, kind: &str, body: Value) -> Value {
    let mut map = match body {
        Value::Object(m) => m,
        _ => std::collections::BTreeMap::new(),
    };
    map.insert("v".to_string(), Value::UInt(u64::from(version)));
    map.insert(tag.to_string(), Value::Str(kind.to_string()));
    Value::Object(map)
}

/// Reads the envelope back; errors on versions above `max_version`.
pub(crate) fn open_envelope<'v>(
    value: &'v Value,
    tag: &str,
    max_version: u32,
) -> Result<(&'v str, &'v Value), String> {
    let map = value.as_object().ok_or("frame is not a JSON object")?;
    let version = match map.get("v") {
        Some(Value::UInt(n)) => *n,
        _ => return Err("frame has no schema version".to_string()),
    };
    if version > u64::from(max_version) {
        return Err(format!(
            "frame schema v{version} is newer than supported v{max_version}"
        ));
    }
    match map.get(tag) {
        Some(Value::Str(kind)) => Ok((kind.as_str(), value)),
        _ => Err(format!("frame has no `{tag}` tag")),
    }
}

impl Frame {
    /// Renders the frame as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let (kind, body) = match self {
            Frame::Hello(p) => ("hello", p.to_value()),
            Frame::Assign(p) => ("assign", p.to_value()),
            Frame::Heartbeat => ("heartbeat", Value::Object(Default::default())),
            Frame::Violation(p) => ("violation", p.to_value()),
            Frame::Done(p) => ("done", p.to_value()),
            Frame::Shutdown => ("shutdown", Value::Object(Default::default())),
        };
        let value = envelope("kind", WIRE_SCHEMA_VERSION, kind, body);
        serde_json::to_string(&value).unwrap_or_default()
    }

    /// Parses a frame from one JSON line.
    pub fn from_json(text: &str) -> Result<Frame, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let (kind, body) = open_envelope(&value, "kind", WIRE_SCHEMA_VERSION)?;
        let frame = match kind {
            "hello" => Frame::Hello(Hello::from_value(body).map_err(|e| e.to_string())?),
            "assign" => Frame::Assign(Assign::from_value(body).map_err(|e| e.to_string())?),
            "heartbeat" => Frame::Heartbeat,
            "violation" => {
                Frame::Violation(ViolationMsg::from_value(body).map_err(|e| e.to_string())?)
            }
            "done" => Frame::Done(Done::from_value(body).map_err(|e| e.to_string())?),
            "shutdown" => Frame::Shutdown,
            other => return Err(format!("unknown frame kind `{other}`")),
        };
        Ok(frame)
    }
}

fn invalid(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Writes one frame. The header and payload go out in a single `write_all`
/// so an uninterrupted writer never interleaves with itself; a writer dying
/// mid-call leaves a torn frame the reader detects via the length prefix.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut payload = frame.to_json();
    payload.push('\n');
    let msg = format!("{:08x}\n{payload}", payload.len());
    w.write_all(msg.as_bytes())
}

/// Deliberately writes half a frame and stops — the chaos harness's torn
/// socket write. The declared length exceeds what ever arrives, so the
/// reader's `read_exact` fails when the writer then dies.
pub fn write_torn_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut payload = frame.to_json();
    payload.push('\n');
    let torn = &payload[..payload.len() / 2];
    let msg = format!("{:08x}\n{torn}", payload.len());
    w.write_all(msg.as_bytes())?;
    w.flush()
}

/// Reads one frame; any short read, bad length, or unparseable payload is
/// an error (the caller treats the connection as dead).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Frame> {
    let mut head = [0u8; 9];
    r.read_exact(&mut head)?;
    if head[8] != b'\n' {
        return Err(invalid("frame header missing newline"));
    }
    let text = std::str::from_utf8(&head[..8]).map_err(invalid)?;
    let len = usize::from_str_radix(text, 16).map_err(invalid)?;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(invalid(format!("unreasonable frame length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let json = std::str::from_utf8(&buf).map_err(invalid)?;
    Frame::from_json(json.trim_end()).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ViolationRecord {
        ViolationRecord {
            schema: tsvd_core::VIOLATION_SCHEMA_VERSION,
            location_trapped: "a.rs:1:1".into(),
            location_hitter: "b.rs:2:2".into(),
            op_trapped: "x.write".into(),
            op_hitter: "x.read".into(),
            obj: 7,
            time_ns: 42,
            read_write: true,
        }
    }

    #[test]
    fn frames_round_trip_through_the_stream() {
        let frames = vec![
            Frame::Hello(Hello {
                worker: 3,
                incarnation: 2,
                pid: 999,
            }),
            Frame::Assign(Assign {
                wave: 1,
                index: 40,
                attempt: 2,
                traps: TrapFileData::default(),
            }),
            Frame::Heartbeat,
            Frame::Violation(ViolationMsg {
                wave: 1,
                index: 40,
                record: record(),
            }),
            Frame::Done(Done {
                wave: 1,
                index: 40,
                attempt: 2,
                outcome: "completed".into(),
                wall_ns: 123,
                delays: 4,
                on_calls: 56,
                dangerous_pairs: 1,
                traps: None,
                sink: "/tmp/x.jsonl".into(),
            }),
            Frame::Shutdown,
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            let back = read_frame(&mut cursor).expect("read");
            assert_eq!(&back, f);
        }
    }

    #[test]
    fn torn_frame_is_a_read_error_not_a_misparse() {
        let mut buf = Vec::new();
        write_torn_frame(
            &mut buf,
            &Frame::Violation(ViolationMsg {
                wave: 0,
                index: 1,
                record: record(),
            }),
        )
        .expect("write torn");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let json = r#"{"v":99,"kind":"heartbeat"}"#;
        let err = Frame::from_json(json).unwrap_err();
        assert!(err.contains("newer"), "got: {err}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(Frame::from_json(r#"{"v":1,"kind":"martian"}"#).is_err());
    }

    #[test]
    fn garbage_length_prefix_is_rejected() {
        let mut cursor = std::io::Cursor::new(b"zzzzzzzz\n{}".to_vec());
        assert!(read_frame(&mut cursor).is_err());
        let mut cursor = std::io::Cursor::new(b"7fffffff\n{}".to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }
}
