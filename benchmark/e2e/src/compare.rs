//! `benchmark compare A.json B.json`: is B worse than A anywhere?
//!
//! One row per (workload, metric) with both values, the direction, the
//! bound and a verdict. An end-to-end metric may worsen by at most its
//! bound, as a share of A's value; per-layer metrics have no bound and are
//! listed for reading only. Results taken with different thread counts
//! measure different workloads and are refused.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// Verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// No bound applies (a per-layer metric).
    Unbounded,
    /// One side did not report the metric.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unbounded => "-",
            Verdict::Missing => "MISSING",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for a bounded metric.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    if worsening(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Bound, for an end-to-end metric.
    pub bound: Option<f64>,
    /// A's and B's values.
    pub values: (Option<f64>, Option<f64>),
    /// The verdict.
    pub verdict: Verdict,
}

/// The value a results file holds for `metric` of `workload`; `section` is
/// `end_to_end` or `per_layer`.
pub fn value_of(results: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    let workload = json::get(json::get(results, "workloads")?, workload)?;
    json::get(json::get(workload, section)?, metric).and_then(json::as_f64)
}

/// Compares two parsed results files. `Err` when they are not comparable.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let threads = |r: &Value| {
        json::get(r, "fingerprint")
            .and_then(|f| json::get(f, "threads"))
            .and_then(json::as_f64)
    };
    match (threads(a), threads(b)) {
        (Some(x), Some(y)) if x == y => {}
        (x, y) => {
            return Err(format!(
            "REFUSED: the results were taken with different thread counts (T = {x:?} vs {y:?}); \
                 they measure different workloads"
        ))
        }
    }
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let values = (
                value_of(a, w.name, "end_to_end", m.name),
                value_of(b, w.name, "end_to_end", m.name),
            );
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                unit: m.unit,
                better: m.better,
                bound: Some(m.bound),
                values,
                verdict: match values {
                    (Some(x), Some(y)) => verdict(x, y, m.better, m.bound),
                    _ => Verdict::Missing,
                },
            });
        }
        for m in PER_LAYER {
            let values = (
                value_of(a, w.name, "per_layer", m.name),
                value_of(b, w.name, "per_layer", m.name),
            );
            // Untraced results carry no per-layer section; nothing to list.
            if values != (None, None) {
                rows.push(Row {
                    workload: w.name,
                    metric: m.name,
                    unit: m.unit,
                    better: m.better,
                    bound: None,
                    values,
                    verdict: Verdict::Unbounded,
                });
            }
        }
    }
    Ok(rows)
}

/// Renders the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<34} {:>14} {:>14} {:>8} {:<6} {:>6} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "change", "unit", "better", "bound"
    );
    let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        let change = match r.values {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.1}%", (b - a) / a.abs() * 100.0),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<13} {:<34} {:>14} {:>14} {:>8} {:<6} {:>6} {:>6}  {}\n",
            r.workload,
            r.metric,
            cell(r.values.0),
            cell(r.values.1),
            change,
            r.unit,
            r.better.as_str(),
            r.bound
                .map_or_else(|| "-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict.as_str()
        ));
    }
    out
}

/// The subcommand: prints the table; exit code 0 when every bounded
/// pairing is within its bound, 1 when one is not (or a workload of either
/// file was incorrect), 2 when the files cannot be compared.
pub fn main(args: &[String]) -> u8 {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return 2;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
    };
    let rows = match compare(&a, &b) {
        Ok(rows) => rows,
        Err(refusal) => {
            eprintln!("benchmark compare: {refusal}");
            return 2;
        }
    };
    print!("{}", render(&rows));
    let bad: Vec<&Row> = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Worse | Verdict::Missing))
        .collect();
    let incorrect = [&a, &b].iter().any(|r| {
        WORKLOADS.iter().any(|w| {
            json::get(r, "workloads")
                .and_then(|ws| json::get(ws, w.name))
                .and_then(|w| json::get(w, "correct"))
                != Some(&Value::Bool(true))
        })
    });
    if incorrect {
        println!("a workload is missing or failed its output checks in one of the files");
    }
    println!(
        "{} of {} bounded pairings out of bound",
        bad.len(),
        rows.iter().filter(|r| r.bound.is_some()).count()
    );
    u8::from(!bad.is_empty() || incorrect)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(threads: u64, ops_per_s: f64, slowdown_x: f64) -> Value {
        let e2e = json::obj([
            ("setup_s", Value::Float(1.0)),
            ("ops_per_s", Value::Float(ops_per_s)),
            ("slowdown_x", Value::Float(slowdown_x)),
            ("op_p50_us", Value::Float(10.0)),
            ("peak_rss_mb", Value::Float(50.0)),
        ]);
        let workloads = WORKLOADS.iter().map(|w| {
            (
                w.name,
                json::obj([("correct", Value::Bool(true)), ("end_to_end", e2e.clone())]),
            )
        });
        json::obj([
            (
                "fingerprint",
                json::obj([("threads", Value::UInt(threads))]),
            ),
            ("workloads", json::obj(workloads)),
        ])
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(100.0, 109.0, Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 50.0, Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 91.0, Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 89.0, Higher, 0.10), Verdict::Worse);
        assert_eq!(verdict(100.0, 500.0, Higher, 0.10), Verdict::Within);
    }

    #[test]
    fn one_row_per_workload_and_metric_and_regressions_are_flagged() {
        let a = results(2, 1000.0, 1.5);
        let same = compare(&a, &a).expect("comparable");
        assert_eq!(same.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(same.iter().all(|r| r.verdict == Verdict::Within));
        // Ten points past the throughput bound, whatever the bound is.
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "ops_per_s")
            .map_or(0.0, |m| m.bound);
        let slower = compare(&a, &results(2, 1000.0 * (0.9 - bound), 1.5)).expect("comparable");
        let worse: Vec<_> = slower
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .collect();
        assert_eq!(worse.len(), WORKLOADS.len());
        assert!(worse.iter().all(|r| r.metric == "ops_per_s"));
        assert!(render(&slower).contains("WORSE"));
    }

    #[test]
    fn different_thread_counts_are_refused() {
        let refusal = compare(&results(2, 1.0, 1.0), &results(4, 1.0, 1.0));
        assert!(refusal.is_err_and(|e| e.starts_with("REFUSED")));
        let no_fingerprint = json::obj([("workloads", json::obj::<&str>([]))]);
        assert!(compare(&no_fingerprint, &results(2, 1.0, 1.0)).is_err());
    }
}
