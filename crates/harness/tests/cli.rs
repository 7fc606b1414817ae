//! The `repro` command line: every subcommand reads its flags through one
//! parser, so each one refuses the same three mistakes with exit code 2 —
//! a flag it does not take, a flag missing its value, and a number that
//! does not parse — before doing any work.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run repro")
}

fn assert_usage(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("usage: repro"),
        "repro {args:?}: {stderr}"
    );
}

#[test]
fn unknown_flags_exit_2() {
    for args in [
        &["table2", "--bogus", "1"][..],
        &["chaos", "--bogus", "1"],
        &["fig8", "--bogus", "1"],
        &["analyze", "--bogus"],
        &["analyze", "--score", "a.jsonl", "b.jsonl", "--bogus"],
        &["fix", "--report", "sink.jsonl", "--bogus", "x"],
        &["fleet", "--bogus"],
        &["serve", "--bogus", "1"],
    ] {
        assert_usage(args);
    }
}

#[test]
fn flags_missing_their_value_exit_2() {
    for args in [
        &["table2", "--modules"][..],
        &["chaos", "--runs"],
        &["analyze", "--root"],
        &["analyze", "--score", "a.jsonl", "b.jsonl", "--jsonl"],
        &["fix", "--report"],
        &["fleet", "--ledger"],
        &["serve", "--socket"],
    ] {
        assert_usage(args);
    }
}

/// `fix` and `analyze --score` take no number; a wrong count of `--score`
/// operands is their third mistake.
#[test]
fn numbers_that_do_not_parse_exit_2() {
    for args in [
        &["table2", "--modules", "many"][..],
        &["chaos", "--runs", "-1"],
        &["fig8", "--scale", "fast"],
        &["analyze", "--threads", "eight"],
        &["analyze", "--score", "a.jsonl"],
        &["fleet", "--workers", "x"],
        &["fleet", "--chaos", "seed"],
        &["serve", "--worker", "first"],
    ] {
        assert_usage(args);
    }
}

/// A subcommand `repro` does not have, `ext` among them, is refused.
#[test]
fn unknown_subcommands_exit_2() {
    for args in [&["ext"][..], &["bogus", "--modules", "1"]] {
        assert_usage(args);
    }
}

/// Zero runs would pass having checked nothing; a fleet of zero workers
/// would wait a tick and fail with every module pending; a zero deadline
/// would time out every module, since every module runs watched.
#[test]
fn zero_runs_exit_2() {
    for args in [
        &["chaos", "--runs", "0"][..],
        &["fig8", "--runs", "0"],
        &["all", "--runs", "0"],
        &["fleet", "--workers", "0"],
        &["fleet", "--deadline-ms", "0"],
        &[
            "serve",
            "--socket",
            "s",
            "--suite",
            "std:4:7",
            "--deadline-ms",
            "0",
        ],
    ] {
        assert_usage(args);
    }
}

#[test]
fn serve_accepts_the_command_line_the_supervisor_writes() {
    // Every flag the supervisor passes; the socket is not there, so the
    // worker gets past its arguments and fails to connect: exit 1, not 2.
    let socket = std::env::temp_dir().join(format!("tsvd_cli_no_socket_{}", std::process::id()));
    let socket = socket.to_string_lossy();
    let out = repro(&[
        "serve",
        "--socket",
        &socket,
        "--worker",
        "0",
        "--incarnation",
        "1",
        "--suite",
        "std:4:7",
        "--sink-dir",
        "sinks",
        "--threads",
        "2",
        "--scale",
        "0.02",
        "--seed",
        "1397768524",
        "--deadline-ms",
        "30000",
        "--heartbeat-ms",
        "100",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("repro serve: connect"), "{stderr}");
}

#[test]
fn an_explicit_runs_is_honoured_by_chaos() {
    // One iteration of the storm's 24 tasks, not the default ten.
    let out = repro(&["chaos", "--runs", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("chaos ok: 24 tasks"), "{stdout}");
}
