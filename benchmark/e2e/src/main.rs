//! `benchmark`: the one command (see `benchmark/README.md`).
//!
//! With `--workload` this process measures that workload and prints the
//! result line the driver reads. Without it, it re-executes itself once per
//! workload — so memory high-water marks and allocator state are per
//! workload — checks every output, prints every metric by name with unit,
//! direction and bound, and writes a results file with the machine's
//! fingerprint.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use tsvd_benchmark::cli::{self, Args};
use tsvd_benchmark::json::{self, Value};
use tsvd_benchmark::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::trace::Tracer;
use tsvd_benchmark::workloads::{self, analyze, fleet_pass, hot, suite_pass, Run};
use tsvd_benchmark::{compare, env};

/// Share of `--seconds` a traced run spends on the workload itself; the
/// per-layer probes get the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.6;

/// Prefix of the line that carries a run's context to the parent process.
const INFO_PREFIX: &str = "info ";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::main(&args[1..])),
        Some("manifest") => {
            println!("{}", json::render_pretty(&metrics::manifest()));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match cli::parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(name) => one_workload(name, &args),
        None => all_workloads(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// The arguments that reproduce this run for `workload` in a child.
fn child_args(workload: &str, args: &Args, trace: bool) -> Vec<String> {
    let mut out = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if args.smoke {
        out.push("--smoke".to_string());
    }
    out
}

/// Runs `program` to completion and returns its stdout; stderr passes
/// through. A non-zero exit is an error unless a result line was printed
/// (a run that failed its checks still reports its numbers).
fn run_child(program: &Path, args: &[String]) -> Result<String, String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() && !stdout.trim_end().ends_with('}') {
        return Err(format!(
            "{} {} failed: {}",
            program.display(),
            args.join(" "),
            output.status
        ));
    }
    Ok(stdout)
}

/// Measures one workload in this process. `Ok(false)`: measured, but an
/// output check failed.
fn one_workload(name: &'static str, args: &Args) -> Result<bool, String> {
    let out_dir = env::output_dir().map_err(|e| e.to_string())?;
    let scratch = env::Scratch::enter().map_err(|e| e.to_string())?;
    let tracer = Tracer::new(args.trace);
    let share = if args.trace {
        TRACED_WORKLOAD_SHARE
    } else {
        1.0
    };
    let run = Run {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds as f64 * share),
        trace: args.trace,
        smoke: args.smoke,
        threads: env::threads(),
        tracer: &tracer,
        scratch: scratch.path(),
    };
    let mut outcome = workloads::run(name, &run)?;
    drop(scratch);
    if args.trace {
        let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
        let _ = std::fs::remove_file(&trace_path);
        tracer
            .write_jsonl(&trace_path, name)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        tracer.log_self_times(name);
        merge_probes(name, args, &mut outcome)?;
    }
    outcome.log(name);
    let line = outcome.result_line(args.trace)?;
    let info = json::obj(
        outcome
            .info
            .iter()
            .map(|(key, value)| (*key, Value::Float(*value))),
    );
    println!("{INFO_PREFIX}{}", json::render(&info));
    println!("{line}");
    Ok(outcome.correct())
}

/// Runs the per-layer probes (a separate binary: they reach into crate
/// internals this package may not touch) and folds their result in.
fn merge_probes(name: &str, args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let probes = env::sibling_binary("benchmark-probes")?;
    let stdout = run_child(&probes, &child_args(name, args, true))?;
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| format!("probes result: {e}"))?;
    let count = |key: &str| {
        json::get(&result, key)
            .and_then(json::as_f64)
            .ok_or_else(|| format!("probes result has no `{key}`"))
    };
    outcome.attempted += count("attempted")? as u64;
    outcome.failed += count("failed")? as u64;
    if json::get(&result, "correct") != Some(&Value::Bool(true)) {
        outcome.check("per-layer probes' own checks", false, "see above");
    }
    let metrics = json::get(&result, "metrics")
        .and_then(Value::as_object)
        .ok_or("probes result has no `metrics`")?;
    for metric in PER_LAYER {
        if let Some(value) = metrics.get(metric.name).and_then(json::as_f64) {
            outcome.metric(metric.name, value);
        }
    }
    Ok(())
}

/// The sizes behind the numbers, for the results file.
fn sizes(smoke: bool, threads: usize) -> Value {
    let n = |v: usize| Value::UInt(v as u64);
    let hot_sizes = |sharing| {
        let shape = hot::shape(sharing, smoke);
        json::obj([
            ("dictionaries", n(shape.dicts / threads * threads)),
            ("keys_per_dictionary", n(shape.keys as usize)),
            ("call_sites", n(hot::SITES as usize)),
            ("calls_per_batch", n(hot::BATCH)),
            ("batches_per_thread_per_pass", n(shape.batches)),
            ("threads", n(threads)),
        ])
    };
    let tree = analyze::spec(smoke);
    let suite = suite_pass::options(0);
    let tree_sizes = json::obj([
        ("crates", n(tree.crates)),
        ("files", n(tree.files())),
        ("inert_helpers_per_file", n(tree.slabs_per_file)),
        ("threads", n(threads)),
    ]);
    json::obj([
        (
            "suite_pass",
            json::obj([
                ("modules", n(suite_pass::modules(smoke))),
                ("runs", n(suite.runs)),
                ("pool_threads", n(suite.threads)),
            ]),
        ),
        (
            "fleet_pass",
            json::obj([
                ("modules", n(fleet_pass::modules(smoke))),
                ("waves", n(fleet_pass::WAVES)),
                ("workers", n(threads)),
                ("pool_threads", n(suite.threads)),
            ]),
        ),
        ("hot_shared", hot_sizes(hot::Sharing::Shared)),
        ("hot_private", hot_sizes(hot::Sharing::Private)),
        ("analyze_cold", tree_sizes.clone()),
        ("analyze_edit", tree_sizes),
    ])
}

/// One child's stdout, folded into the workload's entry of the results.
fn absorb(entry: &mut Vec<(String, Value)>, stdout: &str, section: &str) -> Result<bool, String> {
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let correct = json::get(&result, "correct") == Some(&Value::Bool(true));
    let metrics = json::get(&result, "metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no `metrics`")?;
    let values = metrics.iter().filter_map(|(name, m)| {
        Some((
            name.clone(),
            Value::Float(json::get(m, "value").and_then(json::as_f64)?),
        ))
    });
    entry.push((section.to_string(), json::obj(values)));
    for key in ["attempted", "failed"] {
        if let Some(v) = json::get(&result, key) {
            entry.push((format!("{section}_{key}"), v.clone()));
        }
    }
    if let Some(info) = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(INFO_PREFIX))
    {
        entry.push((format!("{section}_info"), json::parse(info)?));
    }
    Ok(correct)
}

/// Runs every workload in a child process each, prints the table, writes
/// the results file.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let repo = std::env::current_dir().map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut entries = Vec::new();
    for w in WORKLOADS {
        let mut entry: Vec<(String, Value)> = Vec::new();
        eprintln!(
            "== {} ({} s{})",
            w.name,
            args.seconds,
            if args.smoke { ", smoke sizes" } else { "" }
        );
        let mut correct = absorb(
            &mut entry,
            &run_child(&exe, &child_args(w.name, args, false))?,
            "end_to_end",
        )?;
        if args.trace {
            eprintln!("== {} (traced)", w.name);
            correct &= absorb(
                &mut entry,
                &run_child(&exe, &child_args(w.name, args, true))?,
                "per_layer",
            )?;
        }
        entry.push(("correct".to_string(), Value::Bool(correct)));
        all_correct &= correct;
        entries.push((w.name, json::obj(entry)));
    }
    let results = json::obj([
        ("schema", Value::UInt(1)),
        ("fingerprint", env::fingerprint(&repo)),
        ("seed", Value::UInt(args.seed)),
        ("seconds_per_workload", Value::UInt(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("sizes", sizes(args.smoke, env::threads())),
        ("workloads", json::obj(entries)),
    ]);
    print_table(&results, args.trace);
    let path = match &args.out {
        Some(path) => path.clone(),
        None => env::output_dir()
            .map_err(|e| e.to_string())?
            .join("results.json"),
    };
    std::fs::write(&path, json::render_pretty(&results) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    println!(
        "output checks: {}",
        if all_correct {
            "all passed"
        } else {
            "FAILED (see above)"
        }
    );
    Ok(all_correct)
}

/// Every metric by name, with unit, direction and bound, one column per
/// workload.
fn print_table(results: &Value, traced: bool) {
    let cell = |workload: &str, section: &str, metric: &str| {
        compare::value_of(results, workload, section, metric)
            .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
    };
    let header = |title: &str| {
        print!("{title:<34} {:<6} {:>6} {:>5}", "unit", "better", "bound");
        for w in WORKLOADS {
            print!(" {:>14}", w.name);
        }
        println!();
    };
    header("end-to-end metric");
    for m in END_TO_END {
        print!(
            "{:<34} {:<6} {:>6} {:>4.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
        for w in WORKLOADS {
            print!(" {:>14}", cell(w.name, "end_to_end", m.name));
        }
        println!();
    }
    if traced {
        println!();
        header("per-layer metric");
        for m in PER_LAYER {
            print!(
                "{:<34} {:<6} {:>6} {:>5}",
                m.name,
                m.unit,
                m.better.as_str(),
                "-"
            );
            for w in WORKLOADS {
                print!(" {:>14}", cell(w.name, "per_layer", m.name));
            }
            println!();
        }
    }
    println!();
}
