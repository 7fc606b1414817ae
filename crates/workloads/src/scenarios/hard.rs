//! Hard bugs: the §5.3 false-negative categories.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tsvd_collections::{Dictionary, List};

use crate::module::{Module, ModuleCtx};

/// FN category 1: the two racing operations execute close to each other
/// only under rare schedules (a resource usage vs. its deallocation). In
/// most runs a long gap separates them, so near-miss tracking never arms
/// the pair; across many runs the rare schedule eventually shows up.
///
/// `close_one_in`: on average one run in this many takes the close
/// schedule (seeded, per-run counter → deterministic sequence).
pub fn rare_pair(seed: u64, close_one_in: u32, iters: u32) -> Module {
    let run_counter = Arc::new(AtomicU64::new(0));
    Module::hard("rare-pair", 2, "List", move |ctx: &ModuleCtx| {
        let run = run_counter.fetch_add(1, Ordering::Relaxed);
        let mut rng = SmallRng::seed_from_u64(seed ^ run.wrapping_mul(0x9E37_79B9));
        let close = rng.gen_range(0..close_one_in.max(1)) == 0;
        let resource: List<u64> = List::new(&ctx.runtime);
        resource.add(1);
        let r = resource.clone();
        let user = ctx.paced(iters, move |i| r.add(u64::from(i))); // Resource usage.
                                                                   // Usually the deallocation happens long after the usage — far
                                                                   // outside the near-miss window.
        let p = ctx.pace;
        let gap = if close { p } else { p * (40 * iters) };
        let deallocator = ctx.pool.spawn(move || {
            tsvd_core::clock::pause(gap);
            for _ in 0..iters {
                resource.clear(); // Resource deallocation.
                tsvd_core::clock::pause(p);
            }
        });
        ctx.join_all([user, deallocator]);
    })
}

/// FN category 3 driver and §3.4.6 "multiple testing runs": both racy
/// operations execute exactly *once* per run. The near miss observed in
/// run 1 is also the only chance to catch the bug, so run 1 always misses;
/// a second run seeded from the trap file delays the first occurrence and
/// catches it.
pub fn single_shot() -> Module {
    Module::hard("single-shot", 1, "Dictionary", |ctx: &ModuleCtx| {
        let settings: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        let s = settings.clone();
        let init = ctx.pool.spawn(move || s.set(1, 42)); // Executes once per run.
        let p = ctx.pace;
        let probe = ctx.pool.spawn(move || {
            tsvd_core::clock::pause(p / 2);
            let _ = settings.contains_key(&1); // Executes once per run.
        });
        ctx.join_all([init, probe]);
    })
}

/// FN category 3 proper: the pair arms (the accesses stray into the
/// near-miss window), but the slow side's period exceeds the delay length,
/// so a base-length trap usually expires before the partner arrives. The
/// paper saw these bugs surface only "after a couple of more runs", and so
/// does this detector: stock TSVD catches the pair in run 2, trapping it
/// from run 1's trap file (EXPERIMENTS.md: 2 of 24 in run 1, 22 in run 2).
pub fn slow_partner(fast_iters: u32) -> Module {
    Module::hard("slow-partner", 1, "Dictionary", move |ctx: &ModuleCtx| {
        let shared: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        let beat = ctx.beat;
        let periods = fast_iters.clamp(4, 12);
        // Both workers tick every beat doing private work (a dense access
        // stream, so no long gaps exist for HB inference to misread) and
        // write the shared dictionary on *drifting* periods (10 vs 9
        // beats). Their first shared ops coincide and arm the pair, but
        // afterwards the phase between shared ops sweeps 0..4.5 beats:
        // most traps (4 beats) expire before the partner's next op,
        // where a delay twice as long would cover every phase — the
        // §5.3 category-3 shape ("the injected delay was not long enough
        // to trigger the bug").
        ctx.join_all([(10, 1), (9, 2)].map(|(period, key): (u32, u64)| {
            let (s, rt) = (shared.clone(), ctx.runtime.clone());
            ctx.pool.spawn(move || {
                let private: Dictionary<u64, u64> = Dictionary::new(&rt);
                for t in 0..periods * 10 {
                    private.set(u64::from(t % 4), u64::from(t)); // Filler.
                    if t % period == 0 {
                        s.set(key, u64::from(t)); // Drifting shared write.
                    }
                    tsvd_core::clock::pause(beat);
                }
            })
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Expectation;
    use tsvd_core::{Runtime, TsvdConfig};

    #[test]
    fn rare_pair_schedule_sequence_is_deterministic() {
        // Two modules with the same seed take the same close/far decisions.
        // 64 runs, not 20: with a 1-in-8 close rate, "at least one close"
        // must not hinge on the first few draws of one particular stream.
        let decisions = |seed: u64| -> Vec<bool> {
            (0..64u64)
                .map(|run| {
                    let mut rng = SmallRng::seed_from_u64(seed ^ run.wrapping_mul(0x9E37_79B9));
                    rng.gen_range(0..8u32) == 0
                })
                .collect()
        };
        assert_eq!(decisions(7), decisions(7));
        assert!(decisions(7).iter().any(|&c| c), "some run must be close");
        assert!(!decisions(7).iter().all(|&c| c), "most runs must be far");
    }

    #[test]
    fn hard_scenarios_run_under_noop() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 2);
        rare_pair(3, 1, 2).run(&ctx); // close_one_in = 1 → always close → fast.
        single_shot().run(&ctx);
    }

    #[test]
    fn single_shot_is_flagged_not_first_run_catchable() {
        let m = single_shot();
        assert_eq!(
            m.expectation(),
            Expectation::Buggy {
                pairs: 1,
                first_run_catchable: false
            }
        );
    }
}
