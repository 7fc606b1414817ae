//! `benchmark-probes`: the per-layer half of a traced run.
//!
//! `benchmark --trace 1` measures the workload through the stable API and
//! then runs this binary, the only benchmark code that reaches into crate
//! internals (`core::{phase, near_miss, trapset, …}`, `fleet::{runner, wire,
//! ledger}`, `analyze::{walk, lexer, callgraph, cache}`). Every per-layer
//! metric is measured on every run: the layers the workload exercises are
//! probed on the workload's own inputs at its own size, the others on small
//! fixed inputs, so a number never has to be invented for a workload a
//! layer has no part in. Spans are recorded here the same way as in the
//! end-to-end package — around each call into a layer's public function.

mod analyze;
mod fleet;
mod hot;
mod raw_map;
mod shares;
mod suite;
mod tasks;

use std::process::ExitCode;

use tsvd_benchmark::cli;
use tsvd_benchmark::env;
use tsvd_benchmark::json::{self, Value};
use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::trace::Tracer;

/// What every probe section needs to know.
pub struct Ctx<'a> {
    /// The workload being traced; its layers are probed at full size.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--smoke` sizes.
    pub smoke: bool,
    /// `T`.
    pub threads: usize,
    /// Span recorder.
    pub tracer: &'a Tracer,
    /// Scratch directory (also the working directory).
    pub scratch: &'a std::path::Path,
}

impl Ctx<'_> {
    /// Whether the traced workload is one of `names`.
    pub fn focus(&self, names: &[&str]) -> bool {
        names.contains(&self.workload)
    }
}

/// Nanoseconds per call of `f` over `n` calls (after `n / 8` untimed ones).
pub fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n / 8 {
        f(i);
    }
    let start = std::time::Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&args)?;
    let workload = args.workload.ok_or("benchmark-probes needs --workload")?;
    let out_dir = env::output_dir().map_err(|e| e.to_string())?;
    let scratch = env::Scratch::enter().map_err(|e| e.to_string())?;
    let tracer = Tracer::new(true);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        smoke: args.smoke,
        threads: env::threads(),
        tracer: &tracer,
        scratch: scratch.path(),
    };
    let mut out = Outcome::default();
    let witness = hot::probe(&ctx, &mut out);
    suite::probe(&ctx, &mut out, &witness)?;
    tasks::probe(&ctx, &mut out);
    fleet::probe(&ctx, &mut out)?;
    analyze::probe(&ctx, &mut out)?;
    shares::derive(&ctx, &mut out)?;
    drop(scratch);
    tracer
        .write_jsonl(&out_dir.join(format!("trace-{workload}.jsonl")), workload)
        .map_err(|e| e.to_string())?;
    let tag = format!("{workload} probes");
    tracer.log_self_times(&tag);
    out.log(&tag);
    let metrics = json::obj(
        out.metrics
            .iter()
            .map(|(name, v)| (*name, Value::Float(*v))),
    );
    println!(
        "{}",
        json::render(&json::obj([
            ("correct", Value::Bool(out.correct())),
            ("attempted", Value::UInt(out.attempted)),
            ("failed", Value::UInt(out.failed)),
            ("metrics", metrics),
        ]))
    );
    Ok(out.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark-probes: {e}");
            ExitCode::from(1)
        }
    }
}
