//! SplitMix64: the workspace's deterministic, dependency-free RNG.
//!
//! One u64 of state, full-period, and a two-line step function, so two
//! processes derive the same stream from a shared seed. It drives fault
//! injection (the harness's chaos storms, the fleet's worker kills, stalls
//! and torn frames), the fleet's backoff jitter, and the seeded tests:
//! `strategy_sim`, the property loops under each crate's `tests/`, and the
//! unit tests' generated inputs.
//!
//! The detectors' own random decisions do not draw from it. `DynamicRandom`'s
//! delay coin and length, `StaticRandom`'s armed-site pick and `DelayPlan`'s
//! `P_loc` draw use the vendored `rand::rngs::SmallRng` (xoshiro256**), and
//! so does the rare pair's per-run close-or-far draw in
//! `tsvd_workloads::scenarios::hard`. Those streams stay where they are
//! because tests pin them: the `strategy_sim` digest hashes every delay
//! decision over 256 seeded event streams, and the corpus pin holds each
//! scenario's calls and sites. Moving them here would change every decision
//! and re-pin both without adding anything either pin can check. `tsvd-vc`'s
//! property tests use `SmallRng` too, because that crate sits below this
//! one.

/// Deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniformly distributed bits.
    #[allow(clippy::should_implement_trait)] // not an Iterator: never exhausts
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `p`/1000 — the unit fault-injection rates
    /// are specified in.
    pub fn per_mille(&mut self, p: u32) -> bool {
        self.next() % 1000 < u64::from(p)
    }

    /// A value in `[0, bound)`; 0 when `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// One stateless splitmix64 step: hashes `x` to an unrelated u64. Lets two
/// processes agree on a decision keyed by structured input (worker id,
/// attempt ordinal, ...) without sharing generator state.
pub fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn per_mille_extremes() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            assert!(!rng.per_mille(0));
            assert!(rng.per_mille(1000));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..100 {
            assert!(rng.below(10) < 10);
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn mix_is_stateless_and_stable() {
        assert_eq!(mix(123), mix(123));
        assert_ne!(mix(123), mix(124));
    }
}
