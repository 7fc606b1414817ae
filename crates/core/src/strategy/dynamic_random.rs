//! DynamicRandom (§3.2): the simplest baseline.
//!
//! Every TSVD point is an eligible delay location; each dynamic execution
//! delays with a small fixed probability (the paper uses 0.05 in Table 2)
//! for a random duration. Dynamic sampling over-delays hot paths and wastes
//! most delays in sequential phases — which is exactly what Table 2 shows.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::Access;
use crate::config::TsvdConfig;
use crate::strategy::Strategy;

/// The DynamicRandom strategy.
pub struct DynamicRandom {
    probability: f64,
    delay_ns: u64,
    rng: Mutex<SmallRng>,
}

impl DynamicRandom {
    /// Creates the strategy from `config` (`dynamic_random_p`, `delay_ns`).
    pub fn new(config: &TsvdConfig) -> Self {
        DynamicRandom {
            probability: config.dynamic_random_p,
            delay_ns: config.delay_ns,
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed)),
        }
    }
}

impl Strategy for DynamicRandom {
    fn name(&self) -> &'static str {
        "dynamic-random"
    }

    fn on_access(&self, _access: &Access, _concurrent: bool) -> Option<u64> {
        let mut rng = self.rng.lock();
        if rng.gen::<f64>() < self.probability {
            // "The thread sleeps for a random amount of time" (§3.2).
            Some(rng.gen_range(self.delay_ns / 2..=self.delay_ns))
        } else {
            None
        }
    }

    fn on_delay_complete(&self, _access: &Access, _start_ns: u64, _end_ns: u64, _caught: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;

    fn access() -> Access {
        Access {
            context: ContextId(1),
            obj: ObjId(1),
            site: crate::site!(),
            op_name: "t.op",
            kind: OpKind::Write,
            time_ns: 0,
        }
    }

    #[test]
    fn fires_at_roughly_configured_rate() {
        let mut cfg = TsvdConfig::for_testing();
        cfg.dynamic_random_p = 0.2;
        let s = DynamicRandom::new(&cfg);
        let fires = (0..10_000)
            .filter(|_| s.on_access(&access(), true).is_some())
            .count();
        assert!(
            (1_500..2_500).contains(&fires),
            "expected ~2000 fires out of 10000, got {fires}"
        );
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut cfg = TsvdConfig::for_testing();
        cfg.dynamic_random_p = 0.0;
        let s = DynamicRandom::new(&cfg);
        assert!((0..1_000).all(|_| s.on_access(&access(), true).is_none()));
    }

    #[test]
    fn delay_length_is_bounded() {
        let mut cfg = TsvdConfig::for_testing();
        cfg.dynamic_random_p = 1.0;
        let s = DynamicRandom::new(&cfg);
        for _ in 0..100 {
            let d = s.on_access(&access(), true).expect("p = 1 always fires");
            assert!(d >= cfg.delay_ns / 2 && d <= cfg.delay_ns);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut cfg = TsvdConfig::for_testing();
        cfg.dynamic_random_p = 0.5;
        let a = DynamicRandom::new(&cfg);
        let b = DynamicRandom::new(&cfg);
        let seq_a: Vec<Option<u64>> = (0..50).map(|_| a.on_access(&access(), true)).collect();
        let seq_b: Vec<Option<u64>> = (0..50).map(|_| b.on_access(&access(), true)).collect();
        assert_eq!(seq_a, seq_b);
    }
}
