//! What one workload run produced: metrics, output checks, failure counts,
//! and the one-line result the driver reads.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};

/// One output check (see `benchmark/README.md` for the list).
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (module executions, calls, files), all passes.
    pub attempted: u64,
    /// Operations that failed: panicked / timed-out / quarantined /
    /// unresolved executions, lost records, analyzer files skipped.
    pub failed: u64,
    /// Every output check that ran.
    pub checks: Vec<Check>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context for people, printed before the result line: repetitions
    /// completed, sample counts, which percentile the tail is.
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.metrics.iter().any(|(n, _)| *n == name),
            "{name} reported twice"
        );
        self.metrics.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Prints every check and every piece of context to stderr, for people.
    pub fn log(&self, tag: &str) {
        for check in &self.checks {
            let mark = if check.ok { "ok  " } else { "FAIL" };
            eprintln!("[{tag}] {mark} {}: {}", check.name, check.detail);
        }
        for (key, value) in &self.info {
            eprintln!("[{tag}] {key} = {value}");
        }
    }

    /// Every check held, nothing failed, and every value is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
    /// the latter holding exactly the end-to-end metrics (untraced run) or
    /// exactly the per-layer metrics (traced run). A metric this run did
    /// not produce is an error: better no result than a silently short one.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let wanted: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut metrics = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = self
                .value(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            metrics.push((
                name,
                json::obj([("value", Value::Float(value)), ("unit", json::text(unit))]),
            ));
        }
        Ok(json::render(&json::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted.max(1))),
            ("failed", Value::UInt(self.failed)),
            ("metrics", json::obj(metrics)),
        ])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            o.metric(m.name, 1.5 + i as f64);
        }
        let parsed = json::parse(&o.result_line(false).expect("complete")).expect("json");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = json::get(&parsed, "metrics").and_then(Value::as_object);
        assert_eq!(metrics.map(|m| m.len()), Some(END_TO_END.len()));
        assert_eq!(json::get(&parsed, "correct"), Some(&Value::Bool(true)));
        assert!(
            o.result_line(true).is_err(),
            "per-layer metrics are missing"
        );
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(o.correct());
        o.check("x", false, "1 != 2");
        assert!(!o.correct());
        let failed = Outcome {
            failed: 1,
            ..Outcome::default()
        };
        assert!(!failed.correct());
    }
}
