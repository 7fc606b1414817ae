//! Pins the exact bytes of every record this workspace writes line by
//! line: one ledger line per `LedgerEvent` kind, one wire payload per
//! `Frame` kind, and one durable-sink `ViolationRecord`. A change to the
//! record layer may move how a line reaches the disk, never what it says.

use std::path::PathBuf;

use tsvd_core::sink::{DurableSink, ViolationRecord};
use tsvd_core::trap_file::{PairOrigin, TrapFileData};
use tsvd_fleet::ledger::{
    AssignEvent, DeathEvent, DoneEvent, FinishEvent, QuarantineEvent, RetryEvent, StartEvent,
    ViolationEvent,
};
use tsvd_fleet::wire::{write_frame, Assign, Done, Hello, ViolationMsg};
use tsvd_fleet::{Frame, Ledger, LedgerEvent};

fn record() -> ViolationRecord {
    ViolationRecord {
        schema: 1,
        location_trapped: "crates/café/src/lib.rs:10:5".into(),
        location_hitter: "crates/café/src/lib.rs:12:9".into(),
        op_trapped: "Dictionary.set".into(),
        op_hitter: "Dictionary.get".into(),
        obj: 7,
        time_ns: 1_234_567,
        read_write: true,
    }
}

fn traps() -> TrapFileData {
    let mut traps = TrapFileData::default();
    traps.push(("a.rs:1:1".into(), "b.rs:2:2".into()), PairOrigin::Dynamic);
    traps.push_full(
        ("c.rs:3:3".into(), "d.rs:4:4".into()),
        PairOrigin::Static,
        0.375,
        "window-scope",
    );
    traps
}

fn ledger_events() -> Vec<LedgerEvent> {
    vec![
        LedgerEvent::Start(StartEvent {
            suite: "std:25:1".into(),
            modules: 25,
            waves: 2,
            workers: 4,
            threads: 2,
            scale: 0.02,
            seed: 0x534D_414C,
            deadline_ms: 30_000,
            quarantine_kill_limit: 3,
            module_attempt_limit: 2,
            sink_dir: PathBuf::from("target/fleet/sinks"),
            chaos: Some("seed=1234".into()),
        }),
        LedgerEvent::Assign(AssignEvent {
            wave: 1,
            index: 17,
            worker: 2,
            incarnation: 3,
            attempt: 1,
        }),
        LedgerEvent::Violation(ViolationEvent {
            index: 17,
            pair_a: record().location_trapped,
            pair_b: record().location_hitter,
            record: record(),
        }),
        LedgerEvent::Done(DoneEvent {
            wave: 1,
            index: 17,
            worker: 2,
            attempt: 1,
            outcome: "completed".into(),
            wall_ns: 98_765,
            delays: 4,
            on_calls: 321,
        }),
        LedgerEvent::Retry(RetryEvent {
            wave: 0,
            index: 5,
            attempt: 0,
            reason: "worker death: eof".into(),
        }),
        LedgerEvent::Quarantine(QuarantineEvent { index: 5, kills: 3 }),
        LedgerEvent::Death(DeathEvent {
            worker: 1,
            incarnation: 0,
            reason: "hang timeout".into(),
        }),
        LedgerEvent::Finish(FinishEvent {
            completed: 49,
            quarantined: 1,
        }),
    ]
}

fn ledger_lines() -> Vec<String> {
    ledger_events().iter().map(LedgerEvent::to_json).collect()
}

fn frames() -> Vec<Frame> {
    vec![
        Frame::Hello(Hello {
            worker: 3,
            incarnation: 2,
            pid: 999,
        }),
        Frame::Assign(Assign {
            wave: 1,
            index: 40,
            attempt: 2,
            traps: traps(),
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
            outcome: "timed_out".into(),
            wall_ns: 123,
            delays: 4,
            on_calls: 56,
            dangerous_pairs: 2,
            traps: Some(traps()),
            sink: "target/fleet/sinks/w1_m40_a2.jsonl".into(),
        }),
        Frame::Shutdown,
    ]
}

fn frame_payloads() -> Vec<String> {
    frames().iter().map(Frame::to_json).collect()
}

// Files and peers written by other builds must keep reading the same, so
// these strings are fixed, not regenerated. Keys come out sorted because
// the envelope is a `BTreeMap`; `é` is written raw, not escaped.
const LEDGER: [&str; 8] = [
    r#"{"chaos":"seed=1234","deadline_ms":30000,"ev":"start","module_attempt_limit":2,"modules":25,"quarantine_kill_limit":3,"scale":0.02,"seed":1397571916,"sink_dir":"target/fleet/sinks","suite":"std:25:1","threads":2,"v":1,"waves":2,"workers":4}"#,
    r#"{"attempt":1,"ev":"assign","incarnation":3,"index":17,"v":1,"wave":1,"worker":2}"#,
    r#"{"ev":"violation","index":17,"pair_a":"crates/café/src/lib.rs:10:5","pair_b":"crates/café/src/lib.rs:12:9","record":{"location_hitter":"crates/café/src/lib.rs:12:9","location_trapped":"crates/café/src/lib.rs:10:5","obj":7,"op_hitter":"Dictionary.get","op_trapped":"Dictionary.set","read_write":true,"schema":1,"time_ns":1234567},"v":1}"#,
    r#"{"attempt":1,"delays":4,"ev":"done","index":17,"on_calls":321,"outcome":"completed","v":1,"wall_ns":98765,"wave":1,"worker":2}"#,
    r#"{"attempt":0,"ev":"retry","index":5,"reason":"worker death: eof","v":1,"wave":0}"#,
    r#"{"ev":"quarantine","index":5,"kills":3,"v":1}"#,
    r#"{"ev":"death","incarnation":0,"reason":"hang timeout","v":1,"worker":1}"#,
    r#"{"completed":49,"ev":"finish","quarantined":1,"v":1}"#,
];

const FRAMES: [&str; 6] = [
    r#"{"incarnation":2,"kind":"hello","pid":999,"v":1,"worker":3}"#,
    r#"{"attempt":2,"index":40,"kind":"assign","traps":{"confidences":[1.0,0.375],"hb_evidence":["none","window-scope"],"origins":["dynamic","static"],"pairs":[["a.rs:1:1","b.rs:2:2"],["c.rs:3:3","d.rs:4:4"]]},"v":1,"wave":1}"#,
    r#"{"kind":"heartbeat","v":1}"#,
    r#"{"index":40,"kind":"violation","record":{"location_hitter":"crates/café/src/lib.rs:12:9","location_trapped":"crates/café/src/lib.rs:10:5","obj":7,"op_hitter":"Dictionary.get","op_trapped":"Dictionary.set","read_write":true,"schema":1,"time_ns":1234567},"v":1,"wave":1}"#,
    r#"{"attempt":2,"dangerous_pairs":2,"delays":4,"index":40,"kind":"done","on_calls":56,"outcome":"timed_out","sink":"target/fleet/sinks/w1_m40_a2.jsonl","traps":{"confidences":[1.0,0.375],"hb_evidence":["none","window-scope"],"origins":["dynamic","static"],"pairs":[["a.rs:1:1","b.rs:2:2"],["c.rs:3:3","d.rs:4:4"]]},"v":1,"wall_ns":123,"wave":1}"#,
    r#"{"kind":"shutdown","v":1}"#,
];

const SINK: &str = r#"{"location_hitter":"crates/café/src/lib.rs:12:9","location_trapped":"crates/café/src/lib.rs:10:5","obj":7,"op_hitter":"Dictionary.get","op_trapped":"Dictionary.set","read_write":true,"schema":1,"time_ns":1234567}"#;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd_record_bytes_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn lines(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn ledger_lines_are_byte_identical() {
    assert_eq!(ledger_lines(), LEDGER);
    let dir = scratch("ledger");
    let path = dir.join("ledger.jsonl");
    let ledger = Ledger::create(&path).expect("create");
    for event in &ledger_events() {
        ledger.append(event).expect("append");
    }
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        lines(&LEDGER)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn frames_are_byte_identical() {
    assert_eq!(frame_payloads(), FRAMES);
    let mut stream = Vec::new();
    for frame in &frames() {
        write_frame(&mut stream, frame).expect("write");
    }
    let want: String = FRAMES
        .iter()
        .map(|p| format!("{:08x}\n{p}\n", p.len() + 1))
        .collect();
    assert_eq!(String::from_utf8(stream).expect("utf-8"), want);
}

#[test]
fn sink_record_is_byte_identical() {
    assert_eq!(serde_json::to_string(&record()).expect("json"), SINK);
    let dir = scratch("sink");
    let path = dir.join("w0_m0_a0.jsonl");
    let sink = DurableSink::create(&path, false).expect("create");
    sink.append_record(&record()).expect("append");
    sink.append_record(&record()).expect("append");
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        lines(&[SINK, SINK])
    );
    std::fs::remove_dir_all(&dir).ok();
}
