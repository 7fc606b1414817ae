//! Detector configuration: every tunable the paper sweeps in Figure 9,
//! the ablation switches of Table 3, the delay budgets of §4, and where the
//! durable violation sink writes.
//!
//! Defaults are the paper's defaults (§5.4): `N_nm = 5`, `T_nm = 100 ms`,
//! `δ_hb = 0.5`, `k_hb = 5`, phase buffer of 16, 100 ms delays. Because the
//! algorithm depends only on the *ratios* between its time constants,
//! [`TsvdConfig::scaled`] shrinks all of them proportionally so that the full
//! evaluation fits in CI time.
//!
//! The delay watchdog has no fields here: it polls once per `beat_ns` and
//! its other limits are constants (see [`crate::watchdog`]), so it scales
//! with the time constants but not with a swept delay. Nor is there a run
//! deadline: a caller that
//! must bound a run calls [`Runtime::abandon`](crate::Runtime::abandon)
//! when its own deadline passes.

use serde::{Deserialize, Serialize};

use crate::clock::ms_to_ns;

/// Configuration for a [`Runtime`](crate::Runtime) and its strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TsvdConfig {
    // --- Delay injection (shared by all variants) -------------------------
    /// Length of one injected delay (`delay_time`), nanoseconds.
    /// Paper default: 100 ms (Fig. 9 h).
    pub delay_ns: u64,
    /// Cap on the total delay injected into any single context, nanoseconds.
    /// Prevents test timeouts (§4). `u64::MAX` disables the cap.
    pub max_delay_per_context_ns: u64,
    /// Cap on the total delay injected during one run, nanoseconds.
    pub max_delay_per_run_ns: u64,
    /// Workload pacing hint, nanoseconds: one "beat" of scenario time, and
    /// the delay watchdog's poll interval. Kept separate from `delay_ns` so
    /// sweeping the delay (Fig. 9 h) changes neither the workload nor the
    /// watchdog.
    pub beat_ns: u64,
    /// Capture a stack trace on each side of a reported violation.
    /// Costly; off by default, on in the examples.
    pub capture_stacks: bool,
    /// RNG seed for all probabilistic decisions.
    pub seed: u64,

    // --- Near-miss tracking (§3.4.2) --------------------------------------
    /// `N_nm`: accesses remembered per object. Paper default: 5 (Fig. 9 b).
    pub near_miss_history: usize,
    /// `T_nm`: physical window within which two conflicting accesses count
    /// as a near miss, nanoseconds. Paper default: 100 ms (Fig. 9 c).
    pub near_miss_window_ns: u64,
    /// Maximum number of distinct objects tracked at once (memory bound),
    /// rounded down to a power of two.
    pub max_tracked_objects: usize,

    // --- Concurrent-phase inference (§3.4.3) -------------------------------
    /// Size of the global history buffer of recent TSVD points.
    /// Paper default: 16 (Fig. 9 f).
    pub phase_buffer: usize,

    // --- Hot-path sharding (implementation, not a paper knob) ---------------
    /// Shards in the trap table (keyed by object id).
    pub trap_shards: usize,
    /// Ignored, any value: the near-miss tracker locks per object and has
    /// no stripes. The field stays only because `benchmark/` reads it.
    pub near_miss_shards: usize,
    /// Shards in the statistics coverage and per-context delay maps.
    pub stats_shards: usize,

    // --- Happens-before inference (§3.4.4) ---------------------------------
    /// `δ_hb`: causal-delay blocking threshold, as a fraction of
    /// `delay_ns`. Paper default: 0.5 (Fig. 9 d).
    pub hb_blocking_threshold: f64,
    /// `k_hb`: how many subsequent accesses of the blocked thread inherit
    /// the inferred happens-after edge. Paper default: 5 (Fig. 9 e).
    pub hb_inference_window: usize,
    /// Number of recently finished delays kept for causality attribution.
    pub hb_delay_history: usize,

    // --- Probability decay (§3.4.5) ----------------------------------------
    /// Multiplicative decay applied to a location's delay probability after
    /// each injection that catches nothing: `p ← p · (1 − decay_factor)`.
    /// 0 disables decay (the pathological configuration of Fig. 9 g).
    pub decay_factor: f64,
    /// Probability below which a location is dropped from the trap set.
    pub decay_floor: f64,

    // --- Variant-specific ---------------------------------------------------
    /// DynamicRandom: probability of injecting a delay at each TSVD point.
    /// Paper uses 0.05 (Table 2).
    pub dynamic_random_p: f64,
    /// StaticRandom/DataCollider: number of simultaneously armed sites.
    pub armed_sites: usize,
    /// TSVD-HB: accesses remembered per object for the race check.
    pub hb_access_history: usize,

    // --- Extension (beyond the paper) ---------------------------------------
    /// Adaptive delay lengthening: after a fruitless delay at a location,
    /// double that location's next delay (up to `adaptive_delay_cap` ×
    /// `delay_ns`); reset on a catch. Addresses the paper's §5.3
    /// false-negative category 3 (delays too short to bridge the racing
    /// pair). Off by default — it is an extension, not part of TSVD.
    pub adaptive_delay: bool,
    /// Maximum multiplier for adaptive delays.
    pub adaptive_delay_cap: f64,

    // --- Ablation switches (Table 3) ----------------------------------------
    /// Disable happens-before inference ("No HB-inference" row).
    pub enable_hb_inference: bool,
    /// Disable the near-miss time window ("No windowing" row): conflicting
    /// accesses by different threads anywhere in the retained history count
    /// as near misses regardless of age.
    pub enable_windowing: bool,
    /// Disable concurrent-phase detection ("No concurrent phase detection").
    pub enable_phase_detection: bool,

    // --- Trap-file import budget --------------------------------------------
    /// Maximum number of pairs armed from an imported trap file. When a
    /// file carries more candidates than the budget allows, the highest-
    /// confidence pairs are armed first (ties broken by file order), so a
    /// statically over-approximated seed spends the delay budget on the
    /// likeliest races. `usize::MAX` (the default) arms everything.
    #[serde(default = "default_trap_import_budget")]
    pub trap_import_budget: usize,

    /// Ignored, any value: `Runtime::on_call` has one path and buffers
    /// nothing. The field stays only because `benchmark/` reads it.
    #[serde(default)]
    pub batch_capacity: usize,

    // --- Robustness: durable violation sink ---------------------------------
    /// Write-ahead violation log: every caught violation is appended to this
    /// JSONL file the moment it is caught, so a later test-process crash
    /// cannot lose a confirmed TSV. The file appears with the first catch;
    /// a run that catches nothing leaves none. `None` disables the sink.
    #[serde(default)]
    pub durable_sink: Option<std::path::PathBuf>,
    /// `fsync` the durable sink after each appended violation (maximum
    /// durability; slower when violations are frequent).
    #[serde(default)]
    pub durable_sink_fsync: bool,
}

fn default_trap_import_budget() -> usize {
    usize::MAX
}

impl Default for TsvdConfig {
    fn default() -> Self {
        TsvdConfig {
            delay_ns: ms_to_ns(100),
            max_delay_per_context_ns: ms_to_ns(5_000),
            max_delay_per_run_ns: ms_to_ns(30_000),
            beat_ns: ms_to_ns(25),
            capture_stacks: false,
            seed: 0x7365_6564,
            near_miss_history: 5,
            near_miss_window_ns: ms_to_ns(100),
            max_tracked_objects: 1 << 16,
            phase_buffer: 16,
            trap_shards: 16,
            near_miss_shards: 16,
            stats_shards: 16,
            hb_blocking_threshold: 0.5,
            hb_inference_window: 5,
            hb_delay_history: 64,
            decay_factor: 0.5,
            decay_floor: 0.1,
            dynamic_random_p: 0.05,
            armed_sites: 1,
            hb_access_history: 5,
            adaptive_delay: false,
            adaptive_delay_cap: 8.0,
            enable_hb_inference: true,
            enable_windowing: true,
            enable_phase_detection: true,
            trap_import_budget: default_trap_import_budget(),
            batch_capacity: 0,
            durable_sink: None,
            durable_sink_fsync: false,
        }
    }
}

impl TsvdConfig {
    /// The paper's default configuration (100 ms delays and windows).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A configuration with all time constants multiplied by `factor`.
    ///
    /// `TsvdConfig::paper().scaled(0.02)` gives 2 ms delays and windows —
    /// the profile the harness uses so the whole evaluation runs in minutes
    /// instead of hours. Ratios (`δ_hb`) are untouched.
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |ns: u64| -> u64 {
            if ns == u64::MAX {
                return u64::MAX;
            }
            ((ns as f64) * factor).round().max(1.0) as u64
        };
        self.delay_ns = scale(self.delay_ns);
        self.near_miss_window_ns = scale(self.near_miss_window_ns);
        self.max_delay_per_context_ns = scale(self.max_delay_per_context_ns);
        self.max_delay_per_run_ns = scale(self.max_delay_per_run_ns);
        self.beat_ns = scale(self.beat_ns);
        self
    }

    /// A fast profile for unit/integration tests: 2 ms delays, generous
    /// windows, deterministic seed.
    pub fn for_testing() -> Self {
        Self::default().scaled(0.02)
    }

    /// `δ_hb · delay_time` in nanoseconds — the minimum gap in a thread's
    /// access stream that counts as evidence of blocking (§3.4.4).
    pub fn hb_gap_ns(&self) -> u64 {
        (self.hb_blocking_threshold * self.delay_ns as f64).round() as u64
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.delay_ns == 0 {
            return Err("delay_ns must be positive".into());
        }
        if self.beat_ns == 0 {
            return Err("beat_ns must be positive (it paces the watchdog)".into());
        }
        if !(0.0..=1.0).contains(&self.decay_factor) {
            return Err(format!("decay_factor {} not in [0,1]", self.decay_factor));
        }
        if !(0.0..=1.0).contains(&self.dynamic_random_p) {
            return Err(format!(
                "dynamic_random_p {} not in [0,1]",
                self.dynamic_random_p
            ));
        }
        if self.hb_blocking_threshold < 0.0 {
            return Err("hb_blocking_threshold must be non-negative".into());
        }
        if self.near_miss_history == 0 {
            return Err("near_miss_history must be at least 1".into());
        }
        if self.phase_buffer < 2 {
            return Err("phase_buffer must be at least 2".into());
        }
        if self.trap_shards == 0 || self.stats_shards == 0 {
            return Err("shard counts must be at least 1".into());
        }
        if self.adaptive_delay_cap < 1.0 {
            return Err("adaptive_delay_cap must be at least 1".into());
        }
        if self.trap_import_budget == 0 {
            return Err("trap_import_budget must be at least 1 (usize::MAX disables it)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::poll_interval;
    use std::time::Duration;

    #[test]
    fn defaults_match_paper() {
        let c = TsvdConfig::paper();
        assert_eq!(c.delay_ns, 100_000_000);
        assert_eq!(c.near_miss_history, 5);
        assert_eq!(c.near_miss_window_ns, 100_000_000);
        assert_eq!(c.phase_buffer, 16);
        assert!((c.hb_blocking_threshold - 0.5).abs() < 1e-9);
        assert_eq!(c.hb_inference_window, 5);
        assert!((c.dynamic_random_p - 0.05).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaling_preserves_ratios() {
        let c = TsvdConfig::paper().scaled(0.01);
        assert_eq!(c.delay_ns, 1_000_000);
        assert_eq!(c.near_miss_window_ns, 1_000_000);
        assert_eq!(
            c.hb_gap_ns(),
            500_000,
            "δ_hb stays a fixed fraction of the delay"
        );
    }

    #[test]
    fn scaling_never_hits_zero() {
        let c = TsvdConfig::paper().scaled(1e-12);
        assert!(c.delay_ns >= 1);
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut c = TsvdConfig::paper();
        c.decay_factor = 1.5;
        assert!(c.validate().is_err());
        c.decay_factor = 0.5;
        c.dynamic_random_p = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_sizes() {
        let mut c = TsvdConfig::paper();
        c.near_miss_history = 0;
        assert!(c.validate().is_err());
        c = TsvdConfig::paper();
        c.phase_buffer = 1;
        assert!(c.validate().is_err());
        c = TsvdConfig::paper();
        c.trap_shards = 0;
        assert!(c.validate().is_err());
        c = TsvdConfig::paper();
        c.near_miss_shards = 0;
        assert!(c.validate().is_ok(), "ignored, so never invalid");
        for capacity in [0, 1, 256, usize::MAX] {
            c = TsvdConfig::paper();
            c.batch_capacity = capacity;
            assert!(c.validate().is_ok(), "ignored, so never invalid");
        }
        c = TsvdConfig::paper();
        c.stats_shards = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_watchdog() {
        // The watchdog polls once per beat: a zero beat would spin it.
        let mut c = TsvdConfig::paper();
        c.beat_ns = 0;
        assert!(c.validate().is_err());
        c.beat_ns = 1;
        assert!(c.validate().is_ok());
        assert!(poll_interval(&c) > Duration::ZERO);
    }

    #[test]
    fn scaling_covers_watchdog_constants() {
        assert_eq!(
            poll_interval(&TsvdConfig::paper()),
            Duration::from_millis(25)
        );
        assert_eq!(
            poll_interval(&TsvdConfig::paper().scaled(0.02)),
            Duration::from_micros(500)
        );
        assert_eq!(
            poll_interval(&TsvdConfig::paper().scaled(0.01)),
            Duration::from_micros(250)
        );
        // Sweeping the delay (Fig. 9 h) leaves the poll where it was.
        for delay_ms in [1, 100, 200] {
            let mut c = TsvdConfig::paper().scaled(0.02);
            c.delay_ns = ms_to_ns(delay_ms) / 50;
            assert_eq!(poll_interval(&c), Duration::from_micros(500));
        }
    }

    #[test]
    fn config_without_robustness_fields_still_deserializes() {
        // Configs persisted before the import-budget/sink fields existed must
        // load with the defaults instead of erroring.
        let mut value = serde::Serialize::to_value(&TsvdConfig::paper());
        match &mut value {
            serde::Value::Object(map) => {
                for key in [
                    "trap_import_budget",
                    "batch_capacity",
                    "durable_sink",
                    "durable_sink_fsync",
                ] {
                    map.remove(key);
                }
            }
            other => panic!("expected object, got {other:?}"),
        }
        let back = <TsvdConfig as serde::Deserialize>::from_value(&value).expect("deserialize");
        assert!(back.durable_sink.is_none());
        assert_eq!(back.trap_import_budget, usize::MAX);
        assert_eq!(back.batch_capacity, 0);
        // ...and one persisted while `batch_capacity` still selected a path
        // loads too: the value is kept and read by nothing.
        match &mut value {
            serde::Value::Object(map) => {
                map.insert("batch_capacity".into(), serde::Value::UInt(256));
            }
            other => panic!("expected object, got {other:?}"),
        }
        let back = <TsvdConfig as serde::Deserialize>::from_value(&value).expect("deserialize");
        assert_eq!(back.batch_capacity, 256);
        assert!(back.validate().is_ok());
    }

    /// `serde_json::to_string(&TsvdConfig::paper())` as written while the
    /// watchdog still had five fields of its own.
    const PAPER_WITH_WATCHDOG_FIELDS: &str =
        "{\"adaptive_delay\":false,\"adaptive_delay_cap\":8.0,\
         \"armed_sites\":1,\"batch_capacity\":0,\"beat_ns\":25000000,\
         \"capture_stacks\":false,\"decay_factor\":0.5,\"decay_floor\":0.1,\
         \"delay_ns\":100000000,\"durable_sink\":null,\
         \"durable_sink_fsync\":false,\"dynamic_random_p\":0.05,\
         \"enable_hb_inference\":true,\"enable_phase_detection\":true,\
         \"enable_windowing\":true,\"hb_access_history\":5,\
         \"hb_blocking_threshold\":0.5,\"hb_delay_history\":64,\
         \"hb_inference_window\":5,\"max_delay_per_context_ns\":5000000000,\
         \"max_delay_per_run_ns\":30000000000,\
         \"max_tracked_objects\":65536,\"near_miss_history\":5,\
         \"near_miss_shards\":16,\"near_miss_window_ns\":100000000,\
         \"phase_buffer\":16,\"run_deadline_ns\":18446744073709551615,\
         \"seed\":1936024932,\"stats_shards\":16,\
         \"trap_import_budget\":18446744073709551615,\"trap_shards\":16,\
         \"watchdog\":true,\"watchdog_grace_polls\":2,\
         \"watchdog_max_cancellations\":16,\"watchdog_poll_ns\":25000000}";

    #[test]
    fn config_written_with_the_watchdog_fields_still_loads() {
        let keys = |json: &str| {
            let value: serde::Value = serde_json::from_str(json).expect("parse");
            value.as_object().map_or(0, |map| map.len())
        };
        let paper = serde_json::to_string(&TsvdConfig::paper()).expect("serialize");
        assert_eq!(keys(PAPER_WITH_WATCHDOG_FIELDS), 35);
        assert_eq!(keys(&paper), 30);
        // The five retired keys are skipped, and every kept one is read.
        let back: TsvdConfig =
            serde_json::from_str(PAPER_WITH_WATCHDOG_FIELDS).expect("unknown keys are skipped");
        assert!(back.validate().is_ok());
        assert_eq!(serde_json::to_string(&back).expect("serialize"), paper);
    }

    #[test]
    fn validate_rejects_zero_import_budget() {
        let mut c = TsvdConfig::paper();
        c.trap_import_budget = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_serde_round_trip() {
        let c = TsvdConfig::paper();
        let json = serde_json::to_string(&c).expect("serialize");
        let back: TsvdConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.delay_ns, c.delay_ns);
        assert_eq!(back.phase_buffer, c.phase_buffer);
    }
}
