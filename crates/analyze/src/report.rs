//! Report types: what `tsvd-analyze` hands to humans, CI, and the runtime.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};
use tsvd_core::{PairOrigin, TrapFileData};

use crate::allowlist::Allowlist;

/// Renders a site in the `file:line:column` shape [`tsvd_core::SiteId`]
/// parses, so static sites intern to the same ids dynamic runs produce.
pub fn site_text(file: &str, line: u32, column: u32) -> String {
    format!("{file}:{line}:{column}")
}

/// A raw-collection call site in concurrent code: instrumentation the
/// dynamic detector will never see.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Escape {
    /// Analysis-root-relative path.
    pub file: String,
    /// 1-based line of the raw usage.
    pub line: u32,
    /// The raw type (e.g. `HashMap`).
    pub name: String,
    /// Provenance that marked it raw (e.g. `std::collections`).
    pub via: String,
    /// Why the file counts as concurrent.
    pub evidence: String,
    /// Whether an allowlist entry covers it.
    #[serde(default)]
    pub allowed: bool,
}

/// One instrumented-collection call site, classified by the same API table
/// the wrappers use at run time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticSite {
    /// Analysis-root-relative path.
    pub file: String,
    /// 1-based line of the **method ident** (what `#[track_caller]` records).
    pub line: u32,
    /// 1-based column of the method ident.
    pub column: u32,
    /// Root receiver binding (clones resolved to their origin).
    pub receiver: String,
    /// Wrapper class (e.g. `Dictionary`).
    pub class: String,
    /// Method name (e.g. `set`).
    pub method: String,
    /// `"read"` or `"write"` per the shared API table.
    pub kind: String,
    /// Concurrency region id within the file; 0 is the top level.
    pub region: u32,
    /// Locks held at the site, as `root:mode` (`cache_lock:exclusive`).
    /// Empty when the site runs unguarded. The repair pass reads this to
    /// name the lock an extend-existing-guard fix should reuse.
    #[serde(default)]
    pub guards: Vec<String>,
}

impl StaticSite {
    /// The `file:line:column` text for this site.
    pub fn site_text(&self) -> String {
        site_text(&self.file, self.line, self.column)
    }
}

/// A statically predicted dangerous pair, in trap-file site syntax.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticPair {
    /// First site (`file:line:column`).
    pub first: String,
    /// Second site; equal to `first` for a self-racing multi-instance site.
    pub second: String,
    /// Shared root receiver.
    pub receiver: String,
    /// Wrapper class.
    pub class: String,
    /// Qualified op at the first site (e.g. `Dictionary.set`).
    pub first_op: String,
    /// Qualified op at the second site.
    pub second_op: String,
    /// Why the pair can overlap: `cross-task`, `multi-instance-task`, or
    /// `main-vs-spawned`.
    pub reason: String,
    /// Analysis confidence in (0, 1] (0.0 on pruned pairs): base(reason) ×
    /// provenance × guard-evidence × region-distance, rounded to 4
    /// decimals. See DESIGN.md for the formula.
    #[serde(default = "default_confidence")]
    pub confidence: f64,
    /// Guard evidence: `none`, `one-side-guarded`, `shared-guard`,
    /// `inconsistent-locks`, `channel-transfer`, or `both-guarded:<lock>`
    /// (pruned pairs only).
    #[serde(default = "default_guard")]
    pub guard: String,
    /// Receiver provenance: `direct` or `via-calls:<hops>`.
    #[serde(default = "default_provenance")]
    pub provenance: String,
    /// Happens-before evidence (see [`crate::hb`]): `ordered:join:<h>` /
    /// `ordered:scope` / `ordered:channel` on pruned pairs,
    /// `window-join:<h>` / `window-scope` / `channel-partial` on kept pairs
    /// with a bounded overlap window, `none` otherwise (and on records
    /// predating the field).
    #[serde(default = "default_hb_evidence")]
    pub hb_evidence: String,
}

fn default_confidence() -> f64 {
    1.0
}

fn default_guard() -> String {
    "none".to_string()
}

fn default_provenance() -> String {
    "direct".to_string()
}

fn default_hb_evidence() -> String {
    "none".to_string()
}

impl Default for StaticPair {
    fn default() -> Self {
        StaticPair {
            first: String::new(),
            second: String::new(),
            receiver: String::new(),
            class: String::new(),
            first_op: String::new(),
            second_op: String::new(),
            reason: String::new(),
            confidence: default_confidence(),
            guard: default_guard(),
            provenance: default_provenance(),
            hb_evidence: default_hb_evidence(),
        }
    }
}

/// One `.await` yield point: a task-boundary marker recorded for the async
/// frontier (no ordering edges are drawn from it yet — see [`crate::hb`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AwaitPoint {
    /// Analysis-root-relative path.
    pub file: String,
    /// 1-based line of the `await` keyword.
    pub line: u32,
    /// 1-based column of the `await` keyword.
    pub column: u32,
}

/// The full analyzer output for one tree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// How many `.rs` files were scanned.
    pub files_scanned: u32,
    /// Files that could not be read (unreadable, non-UTF-8); each carries
    /// a matching entry in [`warnings`](Self::warnings).
    #[serde(default)]
    pub files_skipped: u32,
    /// Per-file warnings accumulated during the walk.
    #[serde(default)]
    pub warnings: Vec<String>,
    /// Escape-lint findings (allowlisted ones included, flagged).
    pub escapes: Vec<Escape>,
    /// The static site database.
    pub sites: Vec<StaticSite>,
    /// Dangerous-pair candidates surviving lockset pruning.
    pub pairs: Vec<StaticPair>,
    /// Candidates the lockset analysis pruned (both sides consistently
    /// behind the same guard) or the happens-before pass proved ordered;
    /// kept for the precision scoreboard.
    #[serde(default)]
    pub pruned_pairs: Vec<StaticPair>,
    /// `.await` task-boundary markers found during the walk.
    #[serde(default)]
    pub awaits: Vec<AwaitPoint>,
}

impl AnalysisReport {
    /// Marks escapes covered by `allowlist`.
    pub fn apply_allowlist(&mut self, allowlist: &Allowlist) {
        for e in &mut self.escapes {
            e.allowed = allowlist.allows(&e.file, e.line, &e.name);
        }
    }

    /// Escapes no allowlist entry covers — the CI-blocking set.
    pub fn unallowlisted_escapes(&self) -> Vec<&Escape> {
        self.escapes.iter().filter(|e| !e.allowed).collect()
    }

    /// Converts the pair candidates into a statically-tagged trap file the
    /// runtime can import before the first dynamic run. The file carries
    /// the pairs and their origin only; confidence and HB evidence stay in
    /// the JSONL report.
    pub fn to_trap_file(&self) -> TrapFileData {
        let mut data = TrapFileData::default();
        for p in &self.pairs {
            let pair = (p.first.clone(), p.second.clone());
            if !data.pairs.contains(&pair) {
                data.push(pair, PairOrigin::Static);
            }
        }
        data
    }

    /// One JSON object per line: a `summary` record, then every escape,
    /// site, and pair, each tagged with a `record` field.
    pub fn to_jsonl(&self) -> String {
        let mut lines =
            Vec::with_capacity(1 + self.escapes.len() + self.sites.len() + self.pairs.len());
        let mut summary = BTreeMap::new();
        summary.insert("record".to_string(), Value::Str("summary".to_string()));
        summary.insert("files_scanned".to_string(), self.files_scanned.to_value());
        summary.insert(
            "escapes".to_string(),
            Value::UInt(self.escapes.len() as u64),
        );
        summary.insert("sites".to_string(), Value::UInt(self.sites.len() as u64));
        summary.insert("pairs".to_string(), Value::UInt(self.pairs.len() as u64));
        summary.insert(
            "pruned_pairs".to_string(),
            Value::UInt(self.pruned_pairs.len() as u64),
        );
        summary.insert("awaits".to_string(), Value::UInt(self.awaits.len() as u64));
        summary.insert(
            "files_skipped".to_string(),
            Value::UInt(u64::from(self.files_skipped)),
        );
        summary.insert(
            "warnings".to_string(),
            Value::UInt(self.warnings.len() as u64),
        );
        lines.push(Value::Object(summary));
        for w in &self.warnings {
            let mut map = BTreeMap::new();
            map.insert("record".to_string(), Value::Str("warning".to_string()));
            map.insert("message".to_string(), Value::Str(w.clone()));
            lines.push(Value::Object(map));
        }
        for e in &self.escapes {
            lines.push(tag("escape", e.to_value()));
        }
        for s in &self.sites {
            lines.push(tag("site", s.to_value()));
        }
        for p in &self.pairs {
            lines.push(tag("pair", p.to_value()));
        }
        for p in &self.pruned_pairs {
            lines.push(tag("pruned_pair", p.to_value()));
        }
        for a in &self.awaits {
            lines.push(tag("await", a.to_value()));
        }
        let mut out = String::new();
        for v in lines {
            out.push_str(&serde_json::to_string(&v).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Reconstructs a report from its own JSONL rendering (the inverse of
    /// [`to_jsonl`](Self::to_jsonl)). Lines that fail to parse — a torn
    /// tail, a foreign record tag like `score` — are skipped, so `repro
    /// fix --static` accepts any analyzer report CI uploaded. The summary
    /// counters are taken from the summary line when present; otherwise
    /// they are left at their defaults (the record lists still load).
    pub fn from_jsonl(text: &str) -> AnalysisReport {
        let mut report = AnalysisReport::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(Value::Object(m)) = serde_json::from_str::<Value>(line) else {
                continue;
            };
            let record = match m.get("record") {
                Some(Value::Str(s)) => s.as_str(),
                _ => continue,
            };
            let value = Value::Object(m.clone());
            match record {
                "summary" => {
                    if let Some(Value::UInt(n)) = m.get("files_scanned") {
                        report.files_scanned = *n as u32;
                    }
                    if let Some(Value::UInt(n)) = m.get("files_skipped") {
                        report.files_skipped = *n as u32;
                    }
                }
                "warning" => {
                    if let Some(Value::Str(msg)) = m.get("message") {
                        report.warnings.push(msg.clone());
                    }
                }
                "escape" => {
                    if let Ok(e) = <Escape as Deserialize>::from_value(&value) {
                        report.escapes.push(e);
                    }
                }
                "site" => {
                    if let Ok(s) = <StaticSite as Deserialize>::from_value(&value) {
                        report.sites.push(s);
                    }
                }
                "pair" => {
                    if let Ok(p) = <StaticPair as Deserialize>::from_value(&value) {
                        report.pairs.push(p);
                    }
                }
                "pruned_pair" => {
                    if let Ok(p) = <StaticPair as Deserialize>::from_value(&value) {
                        report.pruned_pairs.push(p);
                    }
                }
                "await" => {
                    if let Ok(a) = <AwaitPoint as Deserialize>::from_value(&value) {
                        report.awaits.push(a);
                    }
                }
                _ => {}
            }
        }
        report
    }

    /// The human-facing rendering printed by `repro analyze`.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let blocked = self.unallowlisted_escapes();
        out.push_str(&format!(
            "tsvd-analyze: {} files ({} skipped), {} instrumented sites, \
             {} pair candidates ({} pruned), {} escapes ({} blocking)\n",
            self.files_scanned,
            self.files_skipped,
            self.sites.len(),
            self.pairs.len(),
            self.pruned_pairs.len(),
            self.escapes.len(),
            blocked.len(),
        ));
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        for e in &self.escapes {
            out.push_str(&format!(
                "  {}{}:{}: raw `{}` via {} ({})\n",
                if e.allowed { "[allowed] " } else { "escape: " },
                e.file,
                e.line,
                e.name,
                e.via,
                e.evidence,
            ));
        }
        for p in &self.pairs {
            let hb = if p.hb_evidence == "none" {
                String::new()
            } else {
                format!(", hb {}", p.hb_evidence)
            };
            out.push_str(&format!(
                "  pair: {} <-> {} on `{}` [{} / {}] ({}, conf {:.4}, guard {}, {}{})\n",
                p.first,
                p.second,
                p.receiver,
                p.first_op,
                p.second_op,
                p.reason,
                p.confidence,
                p.guard,
                p.provenance,
                hb,
            ));
        }
        for p in &self.pruned_pairs {
            let why = if p.reason == "ordered" {
                p.hb_evidence.clone()
            } else {
                p.guard.clone()
            };
            out.push_str(&format!(
                "  pruned: {} <-> {} on `{}` ({})\n",
                p.first, p.second, p.receiver, why,
            ));
        }
        for a in &self.awaits {
            out.push_str(&format!(
                "  await: {} (task-boundary marker)\n",
                site_text(&a.file, a.line, a.column)
            ));
        }
        out
    }
}

/// Wraps a serialized record with its `record` tag.
fn tag(kind: &str, value: Value) -> Value {
    let mut map = match value {
        Value::Object(m) => m,
        other => {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), other);
            m
        }
    };
    map.insert("record".to_string(), Value::Str(kind.to_string()));
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            files_scanned: 2,
            files_skipped: 0,
            warnings: Vec::new(),
            pruned_pairs: Vec::new(),
            awaits: Vec::new(),
            escapes: vec![Escape {
                file: "a.rs".into(),
                line: 3,
                name: "HashMap".into(),
                via: "std::collections".into(),
                evidence: "calls spawn".into(),
                allowed: false,
            }],
            sites: vec![StaticSite {
                file: "a.rs".into(),
                line: 5,
                column: 7,
                receiver: "d".into(),
                class: "Dictionary".into(),
                method: "set".into(),
                kind: "write".into(),
                region: 1,
                guards: Vec::new(),
            }],
            pairs: vec![StaticPair {
                first: "a.rs:5:7".into(),
                second: "a.rs:6:7".into(),
                receiver: "d".into(),
                class: "Dictionary".into(),
                first_op: "Dictionary.set".into(),
                second_op: "Dictionary.set".into(),
                reason: "cross-task".into(),
                confidence: 0.8182,
                ..StaticPair::default()
            }],
        }
    }

    #[test]
    fn pair_without_grading_fields_deserializes_with_defaults() {
        // A PR-3 JSONL pair record has no confidence/guard/provenance.
        let v: Value = serde_json::from_str(
            r#"{"first": "a.rs:1:1", "second": "a.rs:2:2", "receiver": "d",
                "class": "Dictionary", "first_op": "Dictionary.set",
                "second_op": "Dictionary.set", "reason": "cross-task"}"#,
        )
        .expect("json");
        let p = <StaticPair as Deserialize>::from_value(&v).expect("deserialize");
        assert!((p.confidence - 1.0).abs() < 1e-9);
        assert_eq!(p.guard, "none");
        assert_eq!(p.provenance, "direct");
    }

    #[test]
    fn allowlist_marks_and_filters() {
        let mut r = sample();
        assert_eq!(r.unallowlisted_escapes().len(), 1);
        r.apply_allowlist(&Allowlist::parse(
            "[[allow]]\npath = \"a.rs\"\nreason = \"test\"\n",
        ));
        assert!(r.escapes[0].allowed);
        assert!(r.unallowlisted_escapes().is_empty());
    }

    #[test]
    fn trap_file_is_statically_tagged() {
        let tf = sample().to_trap_file();
        assert_eq!(tf.pairs.len(), 1);
        assert_eq!(tf.origin(0), PairOrigin::Static);
        assert_eq!(tf.count_origin(PairOrigin::Static), 1);
        // The textual sites must re-intern.
        assert_eq!(tf.to_pairs().len(), 1);
    }

    #[test]
    fn jsonl_has_one_tagged_record_per_line() {
        let jsonl = sample().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("\"record\": \"summary\"")
                || lines[0].contains("\"record\":\"summary\"")
        );
        for line in &lines {
            assert!(
                serde_json::from_str::<Value>(line).is_ok(),
                "bad JSON: {line}"
            );
        }
        assert!(jsonl.contains("escape"));
        assert!(jsonl.contains("pair"));
    }

    #[test]
    fn jsonl_round_trips_through_from_jsonl() {
        let original = sample();
        let mut jsonl = original.to_jsonl();
        // A foreign trailing record and a torn tail must both be ignored.
        jsonl.push_str("{\"record\": \"score\", \"precision\": 1.0}\n{\"record\": \"sit");
        let back = AnalysisReport::from_jsonl(&jsonl);
        assert_eq!(back.files_scanned, original.files_scanned);
        assert_eq!(back.escapes, original.escapes);
        assert_eq!(back.sites, original.sites);
        assert_eq!(back.pairs, original.pairs);
        assert_eq!(back.pruned_pairs, original.pruned_pairs);
    }

    #[test]
    fn human_rendering_mentions_everything() {
        let text = sample().render_human();
        assert!(text.contains("escape: a.rs:3"));
        assert!(text.contains("a.rs:5:7 <-> a.rs:6:7"));
        assert!(text.contains("2 files"));
    }

    #[test]
    fn site_text_matches_site_id_syntax() {
        let s = sample().sites[0].site_text();
        assert_eq!(s, "a.rs:5:7");
        assert!(tsvd_core::SiteId::parse(&s).is_some());
    }
}
