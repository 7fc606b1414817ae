//! The precision scoreboard: join static pair candidates against dynamic
//! run outcomes and report per-rule precision and recall.
//!
//! The TSVD paper validates its static proxy heuristics by measuring how
//! many predicted pairs the dynamic detector actually confirms (§5). This
//! module is that measurement for the reproduction: feed it the analyzer's
//! output (JSONL or trap-file JSON) and a dynamic side (a violation-sink
//! run report or a trap file written after runs), and it reports
//!
//! - per-rule precision: of the pairs each overlap rule emitted, how many
//!   a dynamic run confirmed;
//! - overall precision and recall (against the distinct dynamic pairs);
//! - pruned-pair audit: a *pruned* candidate that the dynamic detector
//!   confirmed is a true-candidate loss — the lockset pruning was wrong.
//!
//! Sites join on [`tsvd_core::sink::normalize_pair`] order, so `(a, b)`
//! and `(b, a)` count as the same pair on both sides.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize, Value};
use tsvd_core::sink::normalize_pair;
use tsvd_core::TrapFileData;

/// One static pair candidate, reduced to what scoring needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Normalized `(first, second)` site pair.
    pub key: (String, String),
    /// The rule that emitted it: an overlap reason (`cross-task`, ...) for
    /// analyzer JSONL, or the pair origin (`static`/`dynamic`) for trap
    /// files, which do not record reasons.
    pub rule: String,
}

/// Precision tally for one rule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RuleScore {
    /// Candidates the rule emitted.
    pub emitted: u32,
    /// Emitted candidates a dynamic outcome confirmed.
    pub confirmed: u32,
    /// `confirmed / emitted` (0.0 when nothing was emitted).
    pub precision: f64,
}

/// The full scoreboard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreReport {
    /// Per-rule tallies, keyed by rule name.
    pub rules: BTreeMap<String, RuleScore>,
    /// Total candidates scored.
    pub emitted: u32,
    /// Candidates confirmed by a dynamic outcome.
    pub confirmed: u32,
    /// Distinct dynamic pairs on the outcome side.
    pub dynamic_total: u32,
    /// Distinct dynamic pairs some candidate predicted.
    pub matched_dynamic: u32,
    /// `confirmed / emitted`.
    pub precision: f64,
    /// `matched_dynamic / dynamic_total`.
    pub recall: f64,
    /// Lockset-pruned candidates seen on the static side.
    pub pruned: u32,
    /// Pruned candidates a dynamic outcome confirmed anyway — each one is
    /// a true candidate the pruning wrongly removed. Should be zero.
    pub pruned_confirmed: u32,
}

/// A recorded floor for CI regression gating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Minimum acceptable overall precision.
    pub precision: f64,
    /// Minimum acceptable overall recall.
    pub recall: f64,
}

fn str_field<'a>(m: &'a BTreeMap<String, Value>, key: &str) -> Option<&'a str> {
    match m.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn trap_file_candidates(data: &TrapFileData) -> Vec<Candidate> {
    data.pairs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| Candidate {
            key: normalize_pair(a, b),
            rule: data.origin(i).as_str().to_string(),
        })
        .collect()
}

/// Loads the static side: `(kept, pruned)` candidates. Accepts analyzer
/// JSONL (`record: "pair"` / `"pruned_pair"` lines) or a trap-file JSON
/// object (everything kept; trap files never carry pruned pairs).
pub fn load_candidates(path: &Path) -> io::Result<(Vec<Candidate>, Vec<Candidate>)> {
    let text = std::fs::read_to_string(path)?;
    if let Some(data) = parse_trap_file(&text) {
        return Ok((trap_file_candidates(&data), Vec::new()));
    }
    let mut kept = Vec::new();
    let mut pruned = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(Value::Object(m)) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let record = str_field(&m, "record").unwrap_or("");
        if record != "pair" && record != "pruned_pair" {
            continue;
        }
        let (Some(first), Some(second)) = (str_field(&m, "first"), str_field(&m, "second")) else {
            continue;
        };
        let c = Candidate {
            key: normalize_pair(first, second),
            rule: str_field(&m, "reason").unwrap_or("unknown").to_string(),
        };
        if record == "pair" {
            kept.push(c);
        } else {
            pruned.push(c);
        }
    }
    Ok((kept, pruned))
}

/// Loads the dynamic side: distinct normalized pairs that actually fired.
/// Accepts a violation-sink run report (JSONL with `location_trapped` /
/// `location_hitter`, or generic `first`/`second` outcome lines) or a
/// trap-file JSON object (every recorded pair counts as an outcome).
pub fn load_outcomes(path: &Path) -> io::Result<Vec<(String, String)>> {
    let text = std::fs::read_to_string(path)?;
    let mut keys: BTreeSet<(String, String)> = BTreeSet::new();
    if let Some(data) = parse_trap_file(&text) {
        keys.extend(data.pairs.iter().map(|(a, b)| normalize_pair(a, b)));
        return Ok(keys.into_iter().collect());
    }
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(Value::Object(m)) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let pair = match (
            str_field(&m, "location_trapped"),
            str_field(&m, "location_hitter"),
        ) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => match (str_field(&m, "first"), str_field(&m, "second")) {
                (Some(a), Some(b)) => Some((a, b)),
                _ => None,
            },
        };
        if let Some((a, b)) = pair {
            keys.insert(normalize_pair(a, b));
        }
    }
    Ok(keys.into_iter().collect())
}

/// A trap file is a single JSON object with a `pairs` key; JSONL never is
/// (its first line is a tagged record).
fn parse_trap_file(text: &str) -> Option<TrapFileData> {
    let trimmed = text.trim_start();
    if !trimmed.starts_with('{') || !trimmed.contains("\"pairs\"") {
        return None;
    }
    serde_json::from_str::<TrapFileData>(text).ok()
}

fn ratio(num: u32, den: u32) -> f64 {
    if den == 0 {
        0.0
    } else {
        f64::from(num) / f64::from(den)
    }
}

/// Joins the sides and computes the scoreboard.
pub fn score(
    kept: &[Candidate],
    pruned: &[Candidate],
    outcomes: &[(String, String)],
) -> ScoreReport {
    let dynamic: BTreeSet<&(String, String)> = outcomes.iter().collect();
    let mut report = ScoreReport {
        dynamic_total: dynamic.len() as u32,
        ..ScoreReport::default()
    };
    let mut matched: BTreeSet<&(String, String)> = BTreeSet::new();
    for c in kept {
        let rule = report.rules.entry(c.rule.clone()).or_default();
        rule.emitted += 1;
        report.emitted += 1;
        if dynamic.contains(&c.key) {
            rule.confirmed += 1;
            report.confirmed += 1;
            matched.insert(&c.key);
        }
    }
    for rule in report.rules.values_mut() {
        rule.precision = ratio(rule.confirmed, rule.emitted);
    }
    report.matched_dynamic = matched.len() as u32;
    report.precision = ratio(report.confirmed, report.emitted);
    report.recall = ratio(report.matched_dynamic, report.dynamic_total);
    report.pruned = pruned.len() as u32;
    report.pruned_confirmed = pruned.iter().filter(|c| dynamic.contains(&c.key)).count() as u32;
    report
}

impl ScoreReport {
    /// Human-readable scoreboard.
    pub fn render_human(&self) -> String {
        let mut out = format!(
            "score: {} static candidates vs {} dynamic pairs: \
             precision {:.4}, recall {:.4}\n",
            self.emitted, self.dynamic_total, self.precision, self.recall
        );
        if self.dynamic_total == 0 {
            out.push_str(
                "note: dynamic side is empty (no outcomes, or every sink line was torn); \
                 recall is vacuous\n",
            );
        }
        for (name, rule) in &self.rules {
            out.push_str(&format!(
                "rule {name}: {} emitted, {} confirmed, precision {:.4}\n",
                rule.emitted, rule.confirmed, rule.precision
            ));
        }
        out.push_str(&format!(
            "pruned: {} candidates, {} confirmed dynamically{}\n",
            self.pruned,
            self.pruned_confirmed,
            if self.pruned_confirmed == 0 {
                " (no true-candidate loss)"
            } else {
                " — TRUE CANDIDATES WERE PRUNED"
            }
        ));
        out
    }

    /// One-line JSON record (for appending to analyzer JSONL output).
    pub fn to_json_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("record".to_string(), Value::Str("score".to_string()));
        m.insert("emitted".to_string(), Value::UInt(u64::from(self.emitted)));
        m.insert(
            "confirmed".to_string(),
            Value::UInt(u64::from(self.confirmed)),
        );
        m.insert(
            "dynamic_total".to_string(),
            Value::UInt(u64::from(self.dynamic_total)),
        );
        m.insert(
            "matched_dynamic".to_string(),
            Value::UInt(u64::from(self.matched_dynamic)),
        );
        m.insert("precision".to_string(), Value::Float(self.precision));
        m.insert("recall".to_string(), Value::Float(self.recall));
        m.insert("pruned".to_string(), Value::UInt(u64::from(self.pruned)));
        m.insert(
            "pruned_confirmed".to_string(),
            Value::UInt(u64::from(self.pruned_confirmed)),
        );
        let rules: BTreeMap<String, Value> = self
            .rules
            .iter()
            .map(|(name, r)| {
                let mut rm = BTreeMap::new();
                rm.insert("emitted".to_string(), Value::UInt(u64::from(r.emitted)));
                rm.insert("confirmed".to_string(), Value::UInt(u64::from(r.confirmed)));
                rm.insert("precision".to_string(), Value::Float(r.precision));
                (name.clone(), Value::Object(rm))
            })
            .collect();
        m.insert("rules".to_string(), Value::Object(rules));
        Value::Object(m)
    }

    /// Checks this scoreboard against a recorded floor. `Err` carries the
    /// regression description (for the CI gate's failure message).
    pub fn check_baseline(&self, baseline: &Baseline) -> Result<(), String> {
        const EPS: f64 = 1e-9;
        if self.precision + EPS < baseline.precision {
            return Err(format!(
                "precision regressed: {:.4} < baseline {:.4}",
                self.precision, baseline.precision
            ));
        }
        // An empty dynamic side makes recall vacuous, not zero-and-failing:
        // a sink with no outcomes (or all torn lines) means there was
        // nothing to recall, so the floor cannot meaningfully apply.
        if self.dynamic_total > 0 && self.recall + EPS < baseline.recall {
            return Err(format!(
                "recall regressed: {:.4} < baseline {:.4}",
                self.recall, baseline.recall
            ));
        }
        Ok(())
    }
}

impl Baseline {
    /// Loads a baseline JSON file (`{"precision": ..., "recall": ...}`).
    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(a: &str, b: &str, rule: &str) -> Candidate {
        Candidate {
            key: normalize_pair(a, b),
            rule: rule.to_string(),
        }
    }

    #[test]
    fn precision_and_recall_join_on_normalized_pairs() {
        let kept = vec![
            cand("a.rs:1:1", "a.rs:2:2", "cross-task"),
            cand("a.rs:3:3", "a.rs:4:4", "cross-task"),
            cand("a.rs:5:5", "a.rs:5:5", "multi-instance-task"),
        ];
        // Dynamic side reversed relative to the static pair.
        let outcomes = vec![
            normalize_pair("a.rs:2:2", "a.rs:1:1"),
            normalize_pair("b.rs:9:9", "b.rs:9:9"),
        ];
        let report = score(&kept, &[], &outcomes);
        assert_eq!(report.emitted, 3);
        assert_eq!(report.confirmed, 1);
        assert_eq!(report.dynamic_total, 2);
        assert_eq!(report.matched_dynamic, 1);
        assert!((report.precision - 1.0 / 3.0).abs() < 1e-9);
        assert!((report.recall - 0.5).abs() < 1e-9);
        assert_eq!(report.rules["cross-task"].confirmed, 1);
        assert_eq!(report.rules["multi-instance-task"].confirmed, 0);
    }

    #[test]
    fn pruned_confirmations_are_reported_as_losses() {
        let pruned = vec![cand("a.rs:1:1", "a.rs:2:2", "cross-task")];
        let outcomes = vec![normalize_pair("a.rs:1:1", "a.rs:2:2")];
        let report = score(&[], &pruned, &outcomes);
        assert_eq!(report.pruned, 1);
        assert_eq!(report.pruned_confirmed, 1);
        assert!(report.render_human().contains("TRUE CANDIDATES"));
    }

    #[test]
    fn loads_jsonl_and_trap_file_sides() {
        let dir = std::env::temp_dir().join(format!("tsvd_score_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let static_path = dir.join("static.jsonl");
        std::fs::write(
            &static_path,
            concat!(
                "{\"record\": \"summary\", \"files_scanned\": 1}\n",
                "{\"record\": \"pair\", \"first\": \"a.rs:1:1\", \"second\": \"a.rs:2:2\", \
                 \"reason\": \"cross-task\", \"confidence\": 0.8}\n",
                "{\"record\": \"pruned_pair\", \"first\": \"a.rs:3:3\", \"second\": \"a.rs:4:4\", \
                 \"reason\": \"cross-task\", \"confidence\": 0.0}\n",
            ),
        )
        .expect("write");
        let (kept, pruned) = load_candidates(&static_path).expect("load");
        assert_eq!(kept.len(), 1);
        assert_eq!(pruned.len(), 1);
        assert_eq!(kept[0].rule, "cross-task");

        let dyn_path = dir.join("run.jsonl");
        std::fs::write(
            &dyn_path,
            concat!(
                "{\"location_trapped\": \"a.rs:2:2\", \"location_hitter\": \"a.rs:1:1\"}\n",
                "{\"first\": \"c.rs:1:1\", \"second\": \"c.rs:2:2\"}\n",
                "not json\n",
            ),
        )
        .expect("write");
        let outcomes = load_outcomes(&dyn_path).expect("load");
        assert_eq!(outcomes.len(), 2);
        let report = score(&kept, &pruned, &outcomes);
        assert_eq!(report.confirmed, 1);

        let mut tf = TrapFileData::default();
        tf.push(
            ("a.rs:1:1".to_string(), "a.rs:2:2".to_string()),
            tsvd_core::PairOrigin::Static,
        );
        let tf_path = dir.join("traps.json");
        std::fs::write(&tf_path, serde_json::to_string(&tf).expect("json")).expect("write");
        let (tf_kept, tf_pruned) = load_candidates(&tf_path).expect("load");
        assert_eq!(tf_kept.len(), 1);
        assert_eq!(tf_kept[0].rule, "static");
        assert!(tf_pruned.is_empty());
        let tf_outcomes = load_outcomes(&tf_path).expect("load");
        assert_eq!(tf_outcomes, vec![normalize_pair("a.rs:1:1", "a.rs:2:2")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dynamic_sink_scores_zero_recall_without_failing() {
        // Satellite regression: an empty or all-torn sink must produce a
        // well-formed scoreboard (zero recall, no division blow-up) and
        // must not trip the recall floor — there was nothing to recall.
        let dir = std::env::temp_dir().join(format!("tsvd_score_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let dyn_path = dir.join("empty.jsonl");
        // Every line torn or non-JSON: the joiner sees zero outcomes.
        std::fs::write(
            &dyn_path,
            "{\"location_trapped\": \"a.rs:1:1\", \"location_hi\ngarbage\n\n",
        )
        .expect("write");
        let outcomes = load_outcomes(&dyn_path).expect("torn sink must load");
        assert!(outcomes.is_empty());

        let kept = vec![cand("a.rs:1:1", "a.rs:2:2", "cross-task")];
        let report = score(&kept, &[], &outcomes);
        assert_eq!(report.dynamic_total, 0);
        assert_eq!(report.recall, 0.0);
        assert_eq!(report.precision, 0.0);
        assert!(report.render_human().contains("recall is vacuous"));
        // The recall floor is vacuous with no dynamic pairs; precision
        // still gates normally.
        assert!(report
            .check_baseline(&Baseline {
                precision: 0.0,
                recall: 0.9
            })
            .is_ok());
        assert!(report
            .check_baseline(&Baseline {
                precision: 0.5,
                recall: 0.0
            })
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_gate_detects_regressions() {
        let report = ScoreReport {
            precision: 0.5,
            recall: 0.75,
            dynamic_total: 4,
            ..ScoreReport::default()
        };
        assert!(report
            .check_baseline(&Baseline {
                precision: 0.5,
                recall: 0.75
            })
            .is_ok());
        assert!(report
            .check_baseline(&Baseline {
                precision: 0.6,
                recall: 0.0
            })
            .is_err());
        assert!(report
            .check_baseline(&Baseline {
                precision: 0.0,
                recall: 0.8
            })
            .is_err());
    }
}
