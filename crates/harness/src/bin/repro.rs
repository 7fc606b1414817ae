//! `repro`: regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                       # every experiment at default scale
//! repro table2 --modules 200      # one experiment
//! repro fig8 --runs 50 --modules 75
//! repro fig9 --scale 0.01        # faster, smaller time constants
//! ```

use tsvd_harness::experiments::{
    coverage, fig8, fig9, fneg, resources, table1, table2, table3, table4, validate, ExpOpts,
};
use tsvd_harness::report::Table;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|table2|table3|table4|fig8|fig9|fneg|resources|validate|coverage|chaos|all> \
         [--modules N] [--runs N] [--seed N] [--scale F] [--threads N]\n\
         \x20      repro analyze [--root DIR] [--allowlist FILE] [--jsonl FILE] \
         [--emit-traps FILE] [--deny-escapes] [--threads N] [--cache-dir DIR] [--no-cache]\n\
         \x20      repro analyze --score STATIC DYNAMIC [--baseline FILE] [--jsonl FILE]\n\
         \x20      repro fix --report SINK [--root DIR] [--static FILE] [--jsonl FILE] \
         [--baseline FILE]\n\
         \x20      repro fleet [--modules N] [--workers N] [--waves N] [--seed N] [--scale F] \
         [--threads N] [--deadline-ms N] [--suite SPEC] [--ledger FILE] [--sink-dir DIR] \
         [--chaos SEED] [--resume LEDGER] [--compare] [--quiet]\n\
         \x20      repro serve --socket PATH --worker N --incarnation N --suite SPEC \
         --sink-dir DIR [--threads N] [--scale F] [--seed N] [--deadline-ms N] [--heartbeat-ms N]"
    );
    std::process::exit(2);
}

/// One subcommand's command line, read in one pass: `--flag VALUE` pairs,
/// bare switches and positionals. A flag the subcommand does not take, a
/// flag missing its value, the wrong number of positionals, and a value
/// that does not parse as the number asked for each exit 2 with the usage.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Flags {
    /// Reads `args` given the flags that take a value and the bare
    /// switches (each a space-separated list), and how many positionals the
    /// subcommand takes. A value is the next argument, whatever it looks like.
    fn parse(
        args: &[String],
        valued: &'static str,
        switches: &'static str,
        positionals: usize,
    ) -> Flags {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if let Some(flag) = valued.split_whitespace().find(|f| f == arg) {
                let Some(value) = args.next() else { usage() };
                flags.values.push((flag, value.clone()));
            } else if let Some(flag) = switches.split_whitespace().find(|f| f == arg) {
                flags.switches.push(flag);
            } else if arg.starts_with("--") {
                usage();
            } else {
                flags.positional.push(arg.clone());
            }
        }
        if flags.positional.len() != positionals {
            usage();
        }
        flags
    }

    /// The value of `flag`, if given (the last one, if given twice).
    fn value(&self, flag: &str) -> Option<&str> {
        let mut given = self.values.iter().rev();
        given.find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn path(&self, flag: &str) -> Option<std::path::PathBuf> {
        self.value(flag).map(std::path::PathBuf::from)
    }

    /// The value of `flag` as a number, if given.
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// `repro serve`: the fleet worker entry point. Spawned by the `repro
/// fleet` daemon; connects back over the given Unix socket and runs
/// assigned modules until told to shut down. Exit codes: 0 clean shutdown,
/// 1 lost daemon or bad arguments (the daemon treats both as a death).
fn run_serve_cmd(args: &[String]) -> ! {
    let flags = Flags::parse(
        args,
        "--socket --worker --incarnation --suite --sink-dir --threads --scale --seed \
         --deadline-ms --heartbeat-ms",
        "",
        0,
    );
    let opts = tsvd_fleet::WorkerOptions {
        socket: flags.path("--socket").unwrap_or_default(),
        worker: flags.num("--worker").unwrap_or(0),
        incarnation: flags.num("--incarnation").unwrap_or(0),
        suite: flags.value("--suite").unwrap_or_default().to_string(),
        sink_dir: flags.path("--sink-dir").unwrap_or_default(),
        threads: flags.num("--threads").unwrap_or(2),
        scale: flags.num("--scale").unwrap_or(0.02),
        seed: flags.num("--seed").unwrap_or(0),
        deadline_ms: flags.num("--deadline-ms").unwrap_or(30_000),
        heartbeat_ms: flags.num("--heartbeat-ms").unwrap_or(100),
    };
    // Every module runs watched: a zero deadline would time out them all.
    if opts.socket.as_os_str().is_empty() || opts.suite.is_empty() || opts.deadline_ms == 0 {
        usage();
    }
    match tsvd_fleet::serve_worker(&opts) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("repro serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro fleet`: run (or `--resume`) a supervised multi-process fleet and
/// verify the ledger reconciles exactly against the worker sinks. With
/// `--compare`, also run the identical suite sequentially in-process and
/// print both wall-clock times. Exit codes: 0 ok, 1 fleet failure or
/// reconciliation violation, 2 usage.
fn run_fleet_cmd(args: &[String]) -> ! {
    let flags = Flags::parse(
        args,
        "--modules --workers --waves --threads --scale --seed --deadline-ms --suite \
         --ledger --sink-dir --chaos --resume",
        "--compare --quiet",
        0,
    );
    let modules = flags.num("--modules").unwrap_or(200);
    // Zero workers would run nothing and fail a tick later, and a zero
    // deadline would time out every module: refused like a number that
    // does not parse.
    let workers = flags.num("--workers").unwrap_or(4);
    let deadline_ms = flags.num("--deadline-ms").unwrap_or(30_000);
    if workers == 0 || deadline_ms == 0 {
        usage();
    }
    let waves = flags.num("--waves").unwrap_or(2);
    let threads = flags.num("--threads").unwrap_or(2);
    let scale = flags.num("--scale").unwrap_or(0.02);
    let seed = flags.num("--seed").unwrap_or(0x534D_414C);
    let suite_arg = flags.value("--suite");
    let ledger_path = flags.path("--ledger");
    let sink_dir = flags.path("--sink-dir");
    let chaos_seed = flags.num("--chaos");
    let resume = flags.path("--resume");
    let compare = flags.switch("--compare");
    let quiet = flags.switch("--quiet");

    let spec = match suite_arg {
        Some(text) => tsvd_fleet::SuiteSpec::parse(text).unwrap_or_else(|e| {
            eprintln!("repro fleet: {e}");
            std::process::exit(2);
        }),
        None => tsvd_fleet::SuiteSpec::Std { modules, seed },
    };
    let run_dir = std::env::temp_dir().join(format!("tsvd_fleet_{}", std::process::id()));
    let ledger = match &resume {
        Some(path) => path.clone(),
        None => ledger_path.unwrap_or_else(|| run_dir.join("ledger.jsonl")),
    };
    let sinks = sink_dir.unwrap_or_else(|| {
        ledger
            .parent()
            .map(|p| p.join("sinks"))
            .unwrap_or_else(|| run_dir.join("sinks"))
    });

    let mut options = tsvd_fleet::FleetOptions::standard(spec.clone(), ledger.clone(), sinks);
    options.workers = workers;
    options.waves = waves;
    options.threads = threads;
    options.scale = scale;
    options.seed = seed;
    options.deadline_ms = deadline_ms;
    options.chaos = chaos_seed.map(tsvd_fleet::ChaosPlan::standard);
    options.resume = resume.is_some();
    options.quiet = quiet;

    let report = match tsvd_fleet::run_fleet(options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro fleet: {e}");
            std::process::exit(1);
        }
    };
    let fleet_secs = report.wall_ns as f64 / 1e9;
    println!(
        "fleet: {} module execution(s) done, {} violation pair(s), {} retr(ies), \
         {} worker death(s), {} quarantined, {fleet_secs:.1}s; workers busy {:.0}% \
         (+{:.0} us fixed per execution, {:.0} us to the next assignment)",
        report.completed,
        report.violations,
        report.retries,
        report.deaths,
        report.quarantined.len(),
        report.busy_share * 100.0,
        report.worker_fixed_us,
        report.turnaround_us,
    );

    // Reconciliation: the ledger must agree *exactly* with the union of
    // the per-execution worker sinks — chaos or not.
    let events = match tsvd_fleet::Ledger::load(&report.ledger) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("repro fleet: cannot reload ledger: {e}");
            std::process::exit(1);
        }
    };
    let state = tsvd_fleet::replay(&events);
    let recorded_sink_dir = state
        .start
        .as_ref()
        .map(|s| s.sink_dir.clone())
        .unwrap_or_default();
    match tsvd_fleet::verify(&events, &recorded_sink_dir) {
        Ok(summary) => println!(
            "ledger reconciles: {} done event(s), {} quarantined, \
             {} ledger pair(s) == {} sink pair(s)",
            summary.done, summary.quarantined, summary.violations, summary.sink_pairs
        ),
        Err(errors) => {
            for e in &errors {
                eprintln!("repro fleet: invariant violated: {e}");
            }
            std::process::exit(1);
        }
    }
    // Per wave, from the done events: what each wave's executions cost,
    // so the drop a carried trap file buys in the next wave shows.
    let mut per_wave: std::collections::BTreeMap<usize, (usize, u64, u64)> = Default::default();
    for done in state.done.values() {
        let wave = per_wave.entry(done.wave).or_default();
        wave.0 += 1;
        wave.1 += done.delays;
        wave.2 += done.wall_ns;
    }
    for (wave, (executions, delays, wall_ns)) in &per_wave {
        println!(
            "wave {wave}: {executions} execution(s), {delays} delay(s) injected, \
             {:.0} ms in modules",
            *wall_ns as f64 / 1e6
        );
    }
    println!("[ledger: {}]", report.ledger.display());

    if compare {
        let suite = spec.build();
        let run_options = tsvd_fleet::RunOptions {
            config: {
                let mut c = tsvd_core::TsvdConfig::paper().scaled(scale);
                c.seed = seed;
                c
            },
            threads,
            runs: waves,
            module_deadline: std::time::Duration::from_millis(deadline_ms),
            static_priors: None,
        };
        let outcome =
            tsvd_fleet::runner::run_suite(&suite, tsvd_fleet::DetectorKind::Tsvd, &run_options);
        let seq_secs = outcome.total_wall_ns() as f64 / 1e9;
        println!(
            "sequential baseline: {} unique bug(s), {seq_secs:.1}s wall \
             (fleet {fleet_secs:.1}s on {workers} workers, speedup {:.2}x)",
            outcome.total_bugs(),
            seq_secs / fleet_secs.max(1e-9),
        );

        // Runs-to-first-violation on both sides. Fleet side: each ledger
        // Violation event is a first catch (dedup happens before logging);
        // the wave barrier means an event logged while wave w assignments
        // are in flight belongs to wave w, so attribute by event order.
        let mut wave_now = 0usize;
        let mut fleet_firsts: Vec<usize> = Vec::new();
        for ev in &events {
            match ev {
                tsvd_fleet::LedgerEvent::Assign(a) => wave_now = wave_now.max(a.wave),
                tsvd_fleet::LedgerEvent::Violation(_) => fleet_firsts.push(wave_now + 1),
                _ => {}
            }
        }
        let mean =
            |firsts: &[usize]| firsts.iter().sum::<usize>() as f64 / (firsts.len().max(1)) as f64;
        let seq_firsts: Vec<usize> = outcome.bugs.values().copied().collect();
        println!(
            "runs to first violation: fleet mean {:.2} ({}/{} in wave 1), \
             sequential mean {:.2} ({}/{} in run 1)",
            mean(&fleet_firsts),
            fleet_firsts.iter().filter(|w| **w == 1).count(),
            fleet_firsts.len(),
            mean(&seq_firsts),
            seq_firsts.iter().filter(|r| **r == 1).count(),
            seq_firsts.len(),
        );
    }
    std::process::exit(0);
}

/// `repro analyze`: run the static front end over a source tree.
///
/// Prints the human report; optionally writes a JSONL report and a
/// statically-tagged trap file. Exit codes: 0 clean, 1 un-allowlisted
/// escapes found under `--deny-escapes`, 2 usage or I/O error.
fn run_analyze_cmd(args: &[String]) -> ! {
    if args.first().map(String::as_str) == Some("--score") {
        run_score_cmd(&args[1..]);
    }
    let flags = Flags::parse(
        args,
        "--root --allowlist --jsonl --emit-traps --cache-dir --threads",
        "--deny-escapes --no-cache",
        0,
    );
    let root = flags.path("--root").unwrap_or_else(|| ".".into());
    let allowlist_path = flags.path("--allowlist");
    let jsonl_path = flags.path("--jsonl");
    let emit_traps = flags.path("--emit-traps");
    let cache_dir = flags.path("--cache-dir");
    let no_cache = flags.switch("--no-cache");
    let threads = flags.num("--threads").unwrap_or(1);
    let deny_escapes = flags.switch("--deny-escapes");

    // Artifact cache defaults to `<root>/.tsvd-analyze-cache`; `--no-cache`
    // disables it, `--cache-dir` relocates it. Thread count and cache state
    // never change the output bytes (see tsvd_analyze::cache).
    let opts = tsvd_analyze::AnalyzeOptions {
        threads,
        cache_dir: if no_cache {
            None
        } else {
            Some(cache_dir.unwrap_or_else(|| root.join(".tsvd-analyze-cache")))
        },
    };
    let mut report = match tsvd_analyze::analyze_workspace_with(&root, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro analyze: cannot scan {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    // Default allowlist: <root>/analyze-allowlist.toml when present.
    let allowlist = match &allowlist_path {
        Some(p) => match tsvd_analyze::Allowlist::load(p) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("repro analyze: cannot read allowlist {}: {e}", p.display());
                std::process::exit(2);
            }
        },
        None => {
            let default = root.join("analyze-allowlist.toml");
            if default.is_file() {
                tsvd_analyze::Allowlist::load(&default).unwrap_or_default()
            } else {
                tsvd_analyze::Allowlist::empty()
            }
        }
    };
    report.apply_allowlist(&allowlist);

    print!("{}", report.render_human());
    if let Some(p) = &jsonl_path {
        if let Err(e) = tsvd_core::save_atomic(p, report.to_jsonl()) {
            eprintln!("repro analyze: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!("[jsonl report: {}]", p.display());
    }
    if let Some(p) = &emit_traps {
        if let Err(e) = report.to_trap_file().save(p) {
            eprintln!("repro analyze: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!(
            "[static trap file: {} ({} pairs)]",
            p.display(),
            report.pairs.len()
        );
    }
    let blocking = report.unallowlisted_escapes().len();
    if deny_escapes && blocking > 0 {
        eprintln!(
            "repro analyze: {blocking} raw-collection escape(s) not covered by the allowlist"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `repro fix --report SINK`: static fix inference over confirmed TSVs.
///
/// Joins each dynamic violation from a durable sink (a single JSONL file,
/// or a fleet sink directory of `w*_m*_a*.jsonl` files which is merged and
/// deduplicated first) against the static site database, classifies the
/// pair into a fix pattern, and prints ranked span-anchored suggestions
/// rendered as unified diffs. Suggestions are never applied. The static
/// side comes from `--static FILE` (an analyzer JSONL report) or from
/// scanning `--root DIR` (default `.`). With `--baseline FILE` the emitted
/// suggestions must match the recorded ones exactly. Exit codes: 0 ok,
/// 1 baseline mismatch, 2 usage or I/O error.
fn run_fix_cmd(args: &[String]) -> ! {
    let flags = Flags::parse(args, "--report --root --static --jsonl --baseline", "", 0);
    let Some(report_path) = flags.path("--report") else {
        usage()
    };
    let root = flags.path("--root").unwrap_or_else(|| ".".into());
    let static_path = flags.path("--static");
    let jsonl_path = flags.path("--jsonl");
    let baseline_path = flags.path("--baseline");

    // A sink that is not there reads as empty, but a report path that is
    // not there is a typo.
    let loaded = if !report_path.exists() {
        Err(format!("no sink or sink dir at {}", report_path.display()))
    } else if report_path.is_dir() {
        tsvd_fleet::merge_sink_dir(&report_path).map_err(|e| e.to_string())
    } else {
        tsvd_core::DurableSink::load(&report_path).map_err(|e| e.to_string())
    };
    let violations = loaded.unwrap_or_else(|e| {
        eprintln!("repro fix: cannot read the report: {e}");
        std::process::exit(2)
    });

    let static_report = match &static_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(text) => tsvd_analyze::AnalysisReport::from_jsonl(&text),
            Err(e) => {
                eprintln!("repro fix: cannot read static report {}: {e}", p.display());
                std::process::exit(2);
            }
        },
        None => match tsvd_analyze::analyze_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro fix: cannot scan {}: {e}", root.display());
                std::process::exit(2);
            }
        },
    };

    let suggestions = tsvd_analyze::repair::infer(&static_report, &violations, &root);
    println!(
        "fix suggestions: {} (from {} violation record(s))",
        suggestions.len(),
        violations.len()
    );
    for (rank, s) in suggestions.iter().enumerate() {
        println!(
            "\n[{}] {} (confidence {:.4}) {}:{}",
            rank + 1,
            s.pattern,
            s.confidence,
            s.file,
            s.line
        );
        println!("    {}", s.title);
        println!("    {}", s.rationale);
        if s.diff.is_empty() {
            println!("    (no diff rendered)");
        } else {
            for line in s.diff.lines() {
                println!("    {line}");
            }
        }
    }

    if let Some(p) = &jsonl_path {
        if let Err(e) = tsvd_core::suggest::save(&suggestions, p) {
            eprintln!("repro fix: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!("\n[suggestions: {}]", p.display());
    }

    let mut failed = false;
    if let Some(p) = &baseline_path {
        let expected = match tsvd_core::suggest::load(p) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("repro fix: cannot read baseline {}: {e}", p.display());
                std::process::exit(2);
            }
        };
        let render = |r: &tsvd_core::SuggestionRecord| serde_json::to_string(r).unwrap_or_default();
        let got: Vec<String> = suggestions.iter().map(render).collect();
        let want: Vec<String> = expected.iter().map(render).collect();
        if got == want {
            println!(
                "\n[baseline ok: {} suggestion(s) match exactly]",
                want.len()
            );
        } else {
            failed = true;
            eprintln!(
                "repro fix: suggestions diverge from baseline {} ({} emitted vs {} recorded)",
                p.display(),
                got.len(),
                want.len()
            );
            for idx in 0..got.len().max(want.len()) {
                let g = got.get(idx).map(String::as_str).unwrap_or("<missing>");
                let w = want.get(idx).map(String::as_str).unwrap_or("<missing>");
                if g != w {
                    eprintln!("  first mismatch at [{idx}]:\n    emitted:  {g}\n    recorded: {w}");
                    break;
                }
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// `repro analyze --score STATIC DYNAMIC`: the precision scoreboard.
///
/// Joins static pair candidates (an analyzer JSONL report or a trap file)
/// against dynamic outcomes (a run-report JSONL or a trap file) and prints
/// per-rule precision plus overall precision/recall. With `--baseline FILE`
/// the computed numbers must not regress below the recorded floor. Exit
/// codes: 0 ok, 1 baseline regression or true-candidate loss, 2 usage or
/// I/O error.
fn run_score_cmd(args: &[String]) -> ! {
    let flags = Flags::parse(args, "--baseline --jsonl", "", 2);
    let (static_path, dynamic_path) = (&flags.positional[0], &flags.positional[1]);
    let baseline_path = flags.path("--baseline");
    let jsonl_path = flags.path("--jsonl");
    let (kept, pruned) =
        match tsvd_analyze::score::load_candidates(std::path::Path::new(static_path.as_str())) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("repro analyze --score: cannot read candidates {static_path}: {e}");
                std::process::exit(2);
            }
        };
    let outcomes =
        match tsvd_analyze::score::load_outcomes(std::path::Path::new(dynamic_path.as_str())) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("repro analyze --score: cannot read outcomes {dynamic_path}: {e}");
                std::process::exit(2);
            }
        };
    let report = tsvd_analyze::score::score(&kept, &pruned, &outcomes);
    print!("{}", report.render_human());
    if let Some(p) = &jsonl_path {
        let line = serde_json::to_string(&report.to_json_value()).unwrap_or_default();
        if let Err(e) = tsvd_core::save_atomic(p, line + "\n") {
            eprintln!("repro analyze --score: cannot write {}: {e}", p.display());
            std::process::exit(2);
        }
        println!("[score report: {}]", p.display());
    }
    let mut failed = false;
    if report.pruned_confirmed > 0 {
        eprintln!(
            "repro analyze --score: {} dynamically confirmed pair(s) were pruned statically",
            report.pruned_confirmed
        );
        failed = true;
    }
    if let Some(p) = &baseline_path {
        let baseline = match tsvd_analyze::score::Baseline::load(p) {
            Ok(b) => b,
            Err(e) => {
                eprintln!(
                    "repro analyze --score: cannot read baseline {}: {e}",
                    p.display()
                );
                std::process::exit(2);
            }
        };
        if let Err(msg) = report.check_baseline(&baseline) {
            eprintln!("repro analyze --score: {msg}");
            failed = true;
        } else {
            println!(
                "[baseline ok: precision >= {:.4}, recall >= {:.4}]",
                baseline.precision, baseline.recall
            );
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Runs the chaos storm (`--runs` iterations, default 10) and exits
/// non-zero if any robustness invariant breaks.
fn run_chaos_cmd(opts: &ExpOpts, runs: Option<usize>) {
    let mut options = tsvd_harness::ChaosOptions::standard();
    options.threads = opts.threads;
    options.seed = options.seed.wrapping_add(opts.seed);
    if let Some(runs) = runs {
        options.iterations = runs;
    }
    let sink_path =
        std::env::temp_dir().join(format!("tsvd_chaos_sink_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&sink_path);
    options.config.durable_sink = Some(sink_path.clone());
    match tsvd_harness::run_chaos(&options) {
        Ok(report) => {
            println!(
                "chaos ok: {} tasks ({} panicked, {} handles dropped), \
                 {} violations, {} delays, {} degraded iteration(s), {} durable record(s)",
                report.tasks_spawned,
                report.tasks_panicked,
                report.handles_dropped,
                report.violations,
                report.delays,
                report.degraded_iterations,
                report.durable_records,
            );
            let _ = std::fs::remove_file(&sink_path);
        }
        Err(failure) => {
            eprintln!("{failure}");
            // Keep the durable sink on failure — it is the crash evidence —
            // and say where it is, so the reproducing run is debuggable.
            eprintln!("[durable sink kept: {}]", sink_path.display());
            std::process::exit(1);
        }
    }
}

/// The experiments' options, and `--runs` when it was given: `fig8` and
/// `chaos` have defaults of their own for it. Zero runs would check
/// nothing, so it is refused like a number that does not parse.
fn parse_opts(args: &[String]) -> (ExpOpts, Option<usize>) {
    let flags = Flags::parse(args, "--modules --runs --seed --scale --threads", "", 0);
    let runs = flags.num("--runs");
    if runs == Some(0) {
        usage();
    }
    let default = ExpOpts::default();
    let opts = ExpOpts {
        modules: flags.num("--modules").unwrap_or(default.modules),
        runs: runs.unwrap_or(default.runs),
        seed: flags.num("--seed").unwrap_or(default.seed),
        scale: flags.num("--scale").unwrap_or(default.scale),
        threads: flags.num("--threads").unwrap_or(default.threads),
    };
    (opts, runs)
}

fn emit(name: &str, tables: Vec<Table>) {
    for (i, t) in tables.iter().enumerate() {
        t.print();
        let file = if tables.len() == 1 {
            name.to_string()
        } else {
            format!("{name}_{}", (b'a' + i as u8) as char)
        };
        match t.save_csv(&file) {
            Ok(path) => println!("[saved {}]\n", path.display()),
            Err(e) => eprintln!("[csv save failed: {e}]"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else { usage() };
    if which == "analyze" {
        run_analyze_cmd(&args[1..]);
    }
    if which == "fix" {
        run_fix_cmd(&args[1..]);
    }
    if which == "serve" {
        run_serve_cmd(&args[1..]);
    }
    if which == "fleet" {
        run_fleet_cmd(&args[1..]);
    }
    let (opts, runs) = parse_opts(&args[1..]);
    // Figure 8 accumulates over 50 runs unless told otherwise.
    let fig8_opts = ExpOpts {
        runs: runs.unwrap_or(50),
        ..opts.with_modules(opts.modules.min(75))
    };

    let start = std::time::Instant::now();
    match which.as_str() {
        "table1" => emit(
            "table1",
            table1::run(&opts.with_modules(opts.modules.max(400))),
        ),
        "table2" => emit("table2", table2::run(&opts)),
        "table3" => emit("table3", table3::run(&opts)),
        "table4" => emit("table4", table4::run(&opts)),
        "fig8" => emit("fig8", fig8::run(&fig8_opts)),
        "fig9" => emit("fig9", fig9::run(&opts.with_modules(opts.modules.min(100)))),
        "fneg" => emit("fneg", fneg::run(&opts.with_modules(opts.modules.min(100)))),
        "resources" => emit("resources", resources::run(&opts)),
        "validate" => emit(
            "validate",
            validate::run(&opts.with_modules(opts.modules.min(100))),
        ),
        "coverage" => emit("coverage", coverage::run(&opts)),
        "chaos" => run_chaos_cmd(&opts, runs),
        "all" => {
            emit("table2", table2::run(&opts));
            emit("table3", table3::run(&opts));
            emit("table4", table4::run(&opts));
            emit(
                "table1",
                table1::run(&opts.with_modules(opts.modules.max(400))),
            );
            emit("fig8", fig8::run(&fig8_opts));
            emit("fig9", fig9::run(&opts.with_modules(opts.modules.min(100))));
            emit("fneg", fneg::run(&opts.with_modules(opts.modules.min(100))));
            emit("resources", resources::run(&opts));
            emit(
                "validate",
                validate::run(&opts.with_modules(opts.modules.min(100))),
            );
            emit("coverage", coverage::run(&opts));
        }
        _ => usage(),
    }
    eprintln!("[repro finished in {:.1}s]", start.elapsed().as_secs_f64());
}
