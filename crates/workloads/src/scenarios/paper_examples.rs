//! The bugs the paper presents in code.

use tsvd_collections::{Cache, Dictionary, List};
use tsvd_tasks::parallel_for_each;

use crate::module::{Module, ModuleCtx};
use crate::scenarios::{busy_work, Filler};

/// Fig. 1: one thread `dict.Add(key1, v)`, another
/// `dict.ContainsKey(key2)`. Write-read on different keys of one
/// dictionary — the "different keys are safe" misconception.
pub fn dict_racy(iters: u32) -> Module {
    Module::racy("dict-racy", 2, 1, "Dictionary", move |ctx: &ModuleCtx| {
        let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        let d = dict.clone();
        let writer = ctx.paced_filled(iters, move |i| d.add(u64::from(i), busy_work(1)));
        let reader = ctx.paced_filled(iters, move |i| dict.contains_key(&(1_000 + u64::from(i))));
        ctx.join_all([writer, reader]);
    })
}

/// Fig. 3/4: the `getSqrt` memoization cache. Each call checks the cache,
/// computes in a background task on a miss, and stores the result after the
/// await — so two concurrent calls race `Cache.put` against both
/// `Cache.put` and `Cache.contains_key`.
pub fn getsqrt_cache(iters: u32) -> Module {
    fn get_sqrt(ctx: &ModuleCtx, cache: &Cache<u64, u64>, x: u64) -> u64 {
        if cache.contains_key(&x) {
            return cache.get(&x).unwrap_or_default(); // Fetch from cache.
        }
        let p = ctx.pace;
        let t = ctx.pool.spawn_fast(move || {
            tsvd_core::clock::pause(p); // Background work.
            busy_work(2) ^ x
        });
        let s = t.join(); // Resume when done.
        cache.put(x, s); // Save to cache.
        s
    }

    Module::racy("getsqrt-cache", 3, 2, "Cache", move |ctx: &ModuleCtx| {
        let cache: Cache<u64, u64> = Cache::new(&ctx.runtime);
        for round in 0..iters {
            // Two logical requests race through getSqrt concurrently.
            let a = u64::from(round) * 2;
            let [sqrt_a, sqrt_b] = [a, a + 1].map(|x| {
                let (mc, c) = (ctx.clone(), cache.clone());
                ctx.pool.spawn(move || get_sqrt(&mc, &c, x))
            });
            let _ = sqrt_a.join() + sqrt_b.join(); // Blocks (Fig. 3 l.15–16).
        }
    })
}

/// Fig. 10 (a): a device manager's listener creates one async task per
/// client message; each task writes `GlobalStatus[clientID] = s` — two
/// near-simultaneous messages corrupt the status dictionary.
pub fn device_manager(messages: u32) -> Module {
    Module::racy(
        "device-manager",
        2,
        1,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let global_status: Dictionary<u32, u64> = Dictionary::new(&ctx.runtime);
            let p = ctx.pace;
            let mut handles = Vec::new();
            for msg in 0..messages {
                let (status, rt) = (global_status.clone(), ctx.runtime.clone());
                handles.push(ctx.pool.spawn(move || {
                    // Message parsing/bookkeeping before the status update.
                    let filler = Filler::new(&rt);
                    filler.tick(msg);
                    filler.tick(msg + 1);
                    tsvd_core::clock::pause(p);
                    status.set(msg % 4, u64::from(msg)); // GlobalStatus[clientID] = s.
                }));
                // The listener keeps listening between messages.
                tsvd_core::clock::pause(p / 2);
            }
            ctx.join_all(handles);
        },
    )
}

/// Fig. 10 (b): network-validation startup verifies every host's
/// configuration with `Parallel.ForEach`, each iteration writing
/// `configureCache[host] = cl` — a concurrent-write TSV.
pub fn network_validation(hosts: u32) -> Module {
    Module::racy(
        "network-validation",
        1,
        1,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let configure_cache: Dictionary<u32, u64> = Dictionary::new(&ctx.runtime);
            let (p, rt) = (ctx.pace, ctx.runtime.clone());
            parallel_for_each(&ctx.pool, 0..hosts, move |host| {
                let filler = Filler::new(&rt);
                filler.tick(host);
                filler.tick(host + 1);
                tsvd_core::clock::pause(p); // GetConfigLevel(host).
                configure_cache.set(host, busy_work(1)); // configureCache[host] = cl.
            });
        },
    )
}

/// §5.6 production incident: two threads sorting one unprotected list at
/// the same time; the undetermined result propagated and took the service
/// down for hours.
pub fn list_sort_race(rounds: u32) -> Module {
    Module::racy("list-sort-race", 2, 1, "List", move |ctx: &ModuleCtx| {
        let list: List<u64> = List::new(&ctx.runtime);
        for i in 0..16 {
            list.add(busy_work(i % 7));
        }
        // One closure per sorter: two `sort` sites, as the incident's two
        // threads had.
        let l = list.clone();
        let sorter_a = ctx.paced_filled(rounds, move |_| l.sort());
        let sorter_b = ctx.paced_filled(rounds, move |_| list.sort());
        ctx.join_all([sorter_a, sorter_b]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Runtime, TsvdConfig};

    fn run_clean(m: &Module) {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 2);
        m.run(&ctx);
    }

    #[test]
    fn all_paper_examples_run_under_noop() {
        for m in [
            dict_racy(4),
            getsqrt_cache(2),
            device_manager(4),
            network_validation(4),
            list_sort_race(3),
        ] {
            run_clean(&m);
            assert!(m.expectation().planted_pairs() >= 1);
            assert!(m.uses_async());
        }
    }

    #[test]
    fn getsqrt_caches_results() {
        // Functional check: the cache ends up populated.
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt.clone(), 2);
        getsqrt_cache(2).run(&ctx);
        assert!(rt.stats().on_calls() > 0);
    }
}
