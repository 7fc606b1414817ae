//! Wait audit: proves every timed wait in the runtime, the task substrate
//! and the workload corpus goes through `tsvd_core::clock`.
//!
//! `clock::pause` and `clock::wait_until` are the only two ways those
//! crates wait on time, so a scheduler that owns time (a run-token mode,
//! a virtual clock) has one place to take it over. This test reads the
//! non-test source of `crates/{core,tasks,workloads}/src` and fails on any
//! `thread::sleep`, `Instant`, `.wait_for(` or `.wait_until(` outside
//! `clock.rs`, naming each hit as `file:line`.
//!
//! Test code is skipped: an item under `#[cfg(test)]` runs from its
//! attribute to the line that closes it at the attribute's indentation
//! (the sources are `rustfmt`ed), and a `//` comment is not code.

use std::path::{Path, PathBuf};

const AUDITED: [&str; 3] = [
    "crates/core/src",
    "crates/tasks/src",
    "crates/workloads/src",
];

/// The forbidden patterns, each matched as whole words.
const PATTERNS: [&str; 4] = ["thread::sleep", "Instant", ".wait_for(", ".wait_until("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` if `pattern` occurs in `code` and no word character extends it
/// at an end where the pattern itself ends in one.
fn hits_pattern(code: &str, pattern: &str) -> bool {
    let first = pattern.bytes().next().is_some_and(is_word_byte);
    let last = pattern.bytes().next_back().is_some_and(is_word_byte);
    code.match_indices(pattern).any(|(at, _)| {
        let extends_before = first && code[..at].bytes().next_back().is_some_and(is_word_byte);
        let extends_after = last
            && code[at + pattern.len()..]
                .bytes()
                .next()
                .is_some_and(is_word_byte);
        !(extends_before || extends_after)
    })
}

/// The 1-based numbers and text of `src`'s non-test lines that hold a
/// forbidden pattern.
fn hits(src: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    // The indentation of the `#[cfg(test)]` whose item is being skipped.
    let mut skipping: Option<usize> = None;
    // Set on the attribute's line: the next line opens the item.
    let mut item_starts = false;
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let indent = line.len() - trimmed.len();
        if let Some(depth) = skipping {
            if item_starts {
                // An item that ends on its first line ends the skip there.
                item_starts = false;
                if trimmed.ends_with(';') || trimmed.ends_with('}') {
                    skipping = None;
                }
            } else if indent == depth && trimmed.starts_with('}') {
                skipping = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            skipping = Some(indent);
            item_starts = true;
            continue;
        }
        let code = trimmed.split("//").next().unwrap_or_default();
        if PATTERNS.iter().any(|p| hits_pattern(code, p)) {
            found.push((i + 1, line.trim().to_string()));
        }
    }
    found
}

#[test]
fn every_timed_wait_goes_through_the_clock() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in AUDITED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    assert!(files.len() > 20, "found {} source files", files.len());

    let mut clock_hits = 0;
    let mut offenders = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read source");
        let rel = path.strip_prefix(root).expect("under the root").display();
        let found = hits(&src);
        if path.ends_with("crates/core/src/clock.rs") {
            clock_hits = found.len();
            continue;
        }
        offenders.extend(
            found
                .into_iter()
                .map(|(line, text)| format!("{rel}:{line}: {text}")),
        );
    }
    // The seam itself reads `Instant` and sleeps: if the audit finds
    // nothing there, its patterns have drifted.
    assert!(clock_hits > 0, "no wait found in clock.rs: pattern drift?");
    assert!(
        offenders.is_empty(),
        "timed waits outside tsvd_core::clock (use clock::pause or clock::wait_until):\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_audit_skips_test_items_and_comments() {
    let src = "\
use std::time::Instant;
fn a() {
    // std::thread::sleep(d) in a comment is not code
    cv.wait_for(&mut g, d);
}
#[cfg(test)]
fn helper() {
    std::thread::sleep(d);
}
#[cfg(test)]
use std::time::Instant;
#[cfg(test)]
fn nothing() {}
fn b(i: Instantly) {
    std::thread::sleep(d);
}
#[cfg(test)]
mod tests {
    fn c() {
        let t = Instant::now();
    }
}
";
    let lines: Vec<usize> = hits(src).into_iter().map(|(line, _)| line).collect();
    assert_eq!(lines, [1, 4, 15]);
}
