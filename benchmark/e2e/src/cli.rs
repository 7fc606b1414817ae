//! Command-line arguments, shared by `benchmark` and `benchmark-probes`.

use crate::metrics::{self, WORKLOADS};

/// The default seed: the repository's "Small" suite seed.
pub const DEFAULT_SEED: u64 = 0x534D_414C;

/// How long one workload measures when `--seconds` is not given; matches
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// `--smoke`: every workload and every check, sizes cut so the whole pass
/// takes under twenty seconds.
pub const SMOKE_SECONDS: u64 = 1;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload (this process measures it), or all of them (this
    /// process re-executes itself once per workload).
    pub workload: Option<&'static str>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Smoke sizes.
    pub smoke: bool,
    /// Where the all-workloads run writes its results file.
    pub out: Option<std::path::PathBuf>,
}

/// Usage text.
pub const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
       benchmark compare A.json B.json
       benchmark manifest

Without --workload every workload runs, each in a process of its own, and
the results go to <target>/benchmark/results.json (or --out).
Workloads: suite_pass fleet_pass hot_shared hot_private analyze_cold analyze_edit";

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses everything after the program name (and after `compare` was
/// ruled out).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        match flag {
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                // The driver passes `--trace 0|1`; people type a bare `--trace`.
                parsed.trace = match args.get(i).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--workload" | "--seed" | "--seconds" | "--out" => {
                let value = args.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
                i += 1;
                match flag {
                    "--workload" => {
                        let known = metrics::workload(value).ok_or_else(|| {
                            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                            format!("unknown workload `{value}`; one of {}", names.join(" "))
                        })?;
                        parsed.workload = Some(known.name);
                    }
                    "--seed" => {
                        parsed.seed =
                            parse_u64(value).ok_or_else(|| format!("bad seed `{value}`"))?;
                    }
                    "--seconds" => {
                        parsed.seconds = parse_u64(value)
                            .filter(|s| (1..=60).contains(s))
                            .ok_or_else(|| format!("--seconds must be 1..=60, got `{value}`"))?;
                    }
                    _ => parsed.out = Some(std::path::PathBuf::from(value)),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.seconds == 0 {
        parsed.seconds = if parsed.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&args(
            "--workload hot_shared --seed 7 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(a.workload, Some("hot_shared"));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 10, true, false));
        let b = parse(&args("--workload suite_pass --trace 0")).expect("parses");
        assert!(!b.trace);
        assert_eq!((b.seed, b.seconds), (DEFAULT_SEED, DEFAULT_SECONDS));
    }

    #[test]
    fn bare_trace_hex_seed_and_smoke_defaults() {
        let a = parse(&args("--trace --smoke --seed 0x10")).expect("parses");
        assert!(a.trace && a.smoke);
        assert_eq!((a.seed, a.seconds, a.workload), (16, SMOKE_SECONDS, None));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seconds 61")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
