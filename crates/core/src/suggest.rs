//! Fix-suggestion records: the durable output of `repro fix`.
//!
//! The repair pass (in `tsvd-analyze`) joins confirmed dynamic violations
//! against the static site database and emits one record per suggested
//! fix: a classified pattern, a span anchor in the source, a rendered
//! unified diff (never applied), and a confidence grade. This module owns
//! the record schema so the harness, the analyzer, and CI baselines all
//! round-trip the same shape — one JSON object per line, saved whole with
//! [`save_atomic`](crate::record::save_atomic) and read back line by line,
//! torn-tail tolerant like the violation sink it derives from.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Bumped when the suggestion record shape changes incompatibly.
pub const SUGGESTION_SCHEMA_VERSION: u32 = 1;

/// One span-anchored fix suggestion.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SuggestionRecord {
    /// Schema version ([`SUGGESTION_SCHEMA_VERSION`]).
    #[serde(default)]
    pub schema: u32,
    /// Fix pattern: `extend-existing-guard`, `adopt-safe-collection`,
    /// `order-by-join`, `channel-transfer`, `narrow-critical-section`,
    /// `wrap-in-mutex`, or `generic` when the sites miss the static
    /// database.
    pub pattern: String,
    /// One-line human summary ("wrap site B in the mutex guarding A").
    pub title: String,
    /// File the primary edit lands in (workspace-relative, `/`-separated).
    pub file: String,
    /// Anchor line of the primary edit (1-based).
    pub line: u32,
    /// First line of the suggested edit span (1-based, inclusive).
    #[serde(default)]
    pub span_start: u32,
    /// Last line of the suggested edit span (1-based, inclusive).
    #[serde(default)]
    pub span_end: u32,
    /// Normalized violation pair: first site (`file:line:column`).
    pub first: String,
    /// Normalized violation pair: second site.
    pub second: String,
    /// The shared receiver both sites touch (root binding name, or "?").
    #[serde(default)]
    pub receiver: String,
    /// Suggestion confidence in (0, 1]: the static pair's confidence
    /// scaled by the guard-evidence quality of the chosen pattern.
    pub confidence: f64,
    /// Why this pattern was chosen (guard evidence, reason, provenance).
    #[serde(default)]
    pub rationale: String,
    /// Rendered unified diff of the suggested edit; empty for `generic`
    /// degraded suggestions that have no span to anchor.
    #[serde(default)]
    pub diff: String,
}

impl SuggestionRecord {
    /// Deterministic identity for dedup and baseline joins: the pattern
    /// plus the violation pair it repairs.
    pub fn key(&self) -> (String, String, String) {
        (
            self.pattern.clone(),
            self.first.clone(),
            self.second.clone(),
        )
    }
}

/// Ranks suggestions in place: highest confidence first, ties broken by
/// content (pattern, file, anchor line, pair) so the rendered report and
/// the JSONL baseline are byte-stable across runs and merge orders.
pub fn rank(records: &mut [SuggestionRecord]) {
    records.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.pattern.cmp(&b.pattern))
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.first.cmp(&b.first))
            .then_with(|| a.second.cmp(&b.second))
    });
}

/// Serializes records as JSONL (one JSON object per line).
pub fn to_jsonl(records: &[SuggestionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        if let Ok(line) = serde_json::to_string(r) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Writes records to `path` as JSONL, crash-safely (see
/// [`save_atomic`](crate::record::save_atomic)).
pub fn save(records: &[SuggestionRecord], path: &Path) -> io::Result<()> {
    crate::record::save_atomic(path, to_jsonl(records))
}

/// Loads a suggestions JSONL file ([`crate::record::read_jsonl`]): one bad
/// line (a torn tail, a stray log line) must not poison the report. A
/// missing file is an error: a baseline that is not there is not empty.
pub fn load(path: &Path) -> io::Result<Vec<SuggestionRecord>> {
    crate::record::read_jsonl(path, serde_json::from_str::<SuggestionRecord>)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pattern: &str, conf: f64, file: &str, line: u32) -> SuggestionRecord {
        SuggestionRecord {
            schema: SUGGESTION_SCHEMA_VERSION,
            pattern: pattern.to_string(),
            title: format!("fix {pattern}"),
            file: file.to_string(),
            line,
            span_start: line,
            span_end: line,
            first: format!("{file}:{line}:5"),
            second: format!("{file}:{}:5", line + 1),
            receiver: "cache".to_string(),
            confidence: conf,
            rationale: "test".to_string(),
            diff: "--- a\n+++ b\n".to_string(),
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let dir = std::env::temp_dir().join(format!("tsvd_suggest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("suggestions.jsonl");
        let records = vec![
            rec("extend-existing-guard", 0.8, "a.rs", 10),
            rec("order-by-join", 0.5, "b.rs", 20),
        ];
        save(&records, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("tsvd_suggest_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("suggestions.jsonl");
        let mut text = to_jsonl(&[rec("wrap-in-mutex", 0.7, "a.rs", 3)]);
        text.push_str("{\"pattern\": \"torn-mid-wri");
        std::fs::write(&path, text).expect("write");
        let back = load(&path).expect("torn tail must not error");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].pattern, "wrap-in-mutex");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_orders_by_confidence_then_content() {
        let mut records = vec![
            rec("order-by-join", 0.5, "b.rs", 20),
            rec("adopt-safe-collection", 0.5, "a.rs", 10),
            rec("extend-existing-guard", 0.9, "z.rs", 99),
        ];
        rank(&mut records);
        assert_eq!(records[0].pattern, "extend-existing-guard");
        assert_eq!(records[1].pattern, "adopt-safe-collection");
        assert_eq!(records[2].pattern, "order-by-join");
        // A permutation ranks identically.
        let mut permuted = vec![records[2].clone(), records[0].clone(), records[1].clone()];
        rank(&mut permuted);
        assert_eq!(permuted, records);
    }
}
