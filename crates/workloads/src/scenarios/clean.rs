//! Modules with no possible TSV. Any report on these is a false positive;
//! each pattern stresses a different detector weakness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tsvd_collections::{Dictionary, HashSet, List, SortedList, Stack};
use tsvd_tasks::TsvdMutex;

use crate::module::{Expectation, Module, ModuleCtx};
use crate::scenarios::busy_work;

/// Plain single-threaded CRUD over several collections — the bulk of any
/// real test corpus. Exercises instrumentation overhead with zero
/// concurrency.
pub fn crud(iters: u32) -> Module {
    Module::new(
        "crud",
        4,
        Expectation::Clean,
        false,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
            let list: List<u64> = List::new(&ctx.runtime);
            let set: HashSet<u64> = HashSet::new(&ctx.runtime);
            let sorted: SortedList<u64, u64> = SortedList::new(&ctx.runtime);
            for i in 0..u64::from(iters) {
                dict.set(i % 16, i);
                list.add(i);
                set.add(i % 8);
                sorted.set(i % 4, i);
                let _ = dict.get(&(i % 16));
                let _ = list.len();
                let _ = set.contains(&(i % 8));
                let _ = sorted.first();
                if i % 4 == 3 {
                    // Stand-in for the I/O and assertions of a real test.
                    tsvd_core::clock::pause(ctx.pace);
                }
            }
            dict.clear();
            list.clear();
        },
    )
}

/// Two tasks write one dictionary, but every access is consistently
/// guarded by the same lock — the Fig. 6 pattern TSVD's HB inference
/// learns to prune, and the pattern TSVD-HB orders exactly.
pub fn locked_pair(iters: u32) -> Module {
    Module::clean("locked-pair", 2, "Dictionary", move |ctx: &ModuleCtx| {
        let lock = Arc::new(TsvdMutex::with_runtime((), ctx.runtime.clone()));
        let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        ctx.join_all((0..2u64).map(|w| {
            let (lock, d) = (lock.clone(), dict.clone());
            ctx.paced(iters, move |i| {
                let _g = lock.lock();
                d.set(w, u64::from(i)); // Always under the lock.
            })
        }));
    })
}

/// The writes are ordered by *ad-hoc synchronization* (an atomic flag spin)
/// that no synchronization-monitoring detector models — the "numerous
/// concurrent libraries, volatile variables, and others" problem of §2.3.
/// TSVD-HB believes the accesses are concurrent and wastes delays. TSVD's
/// delay-propagation inference retires the in-round pair, the first task's
/// `set` against the second's, after one delay: the second task spins
/// through that delay, and the gap before its one access is measured from
/// when it started on its worker. The trap file carries the inferred edge,
/// so run 2 pays nothing for it. What still sleeps is the cross-round pair,
/// the second task's `set` against its own of the next round: that is
/// ordered only through the parent's join, which TSVD does not see by
/// design, and only decay retires it.
pub fn adhoc_sync(iters: u32) -> Module {
    Module::clean("adhoc-sync", 2, "Dictionary", move |ctx: &ModuleCtx| {
        let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        let p = ctx.pace;
        for round in 0..iters {
            let flag = Arc::new(AtomicBool::new(false));
            let (d, f) = (dict.clone(), flag.clone());
            let first = ctx.pool.spawn(move || {
                d.set(1, u64::from(round));
                f.store(true, Ordering::Release); // Hand-rolled signal.
            });
            let d = dict.clone();
            let second = ctx.pool.spawn(move || {
                while !flag.load(Ordering::Acquire) {
                    tsvd_core::clock::pause(p / 10); // Hand-rolled wait.
                }
                d.set(2, u64::from(round)); // Ordered, but invisibly so.
            });
            ctx.join_all([first, second]);
        }
    })
}

/// Sequential phases: a single-threaded initialization writes the
/// dictionary, a concurrent middle phase only *reads* it, and a
/// single-threaded cleanup writes again. Near misses across phase
/// boundaries can never become violations — the case concurrent-phase
/// inference (§3.4.3) exists for.
pub fn sequential_phases(readers: u32, iters: u32) -> Module {
    Module::clean(
        "sequential-phases",
        3,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
            // Initialization phase (sequential writes).
            for i in 0..16 {
                dict.set(i, busy_work(2));
            }
            // Concurrent phase (reads only — allowed by the contract).
            ctx.join_all((0..readers.max(2)).map(|_| {
                let d = dict.clone();
                ctx.paced(iters, move |i| d.get(&u64::from(i % 16)))
            }));
            // Cleanup phase (sequential writes again).
            dict.clear();
        },
    )
}

/// Structured fork/join: the parent writes, forks children that work on
/// *private* collections, joins them all, then writes again. Everything is
/// ordered by fork/join edges.
pub fn fork_join_clean(children: u32, iters: u32) -> Module {
    Module::clean("fork-join-clean", 2, "Stack", move |ctx: &ModuleCtx| {
        let shared: Stack<u64> = Stack::new(&ctx.runtime);
        shared.push(0); // Parent write before the fork.
        let handles: Vec<_> = (0..children.max(1))
            .map(|c| {
                let rt = ctx.runtime.clone();
                ctx.pool.spawn(move || {
                    let private: Stack<u64> = Stack::new(&rt);
                    for i in 0..iters {
                        private.push(u64::from(c) << 32 | u64::from(i));
                    }
                    private.len()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join()).sum();
        shared.push(total as u64); // Parent write after all joins.
    })
}

/// Async-heavy chatter: a swarm of short-lived tasks, each working on its
/// own private collection. No TSV is possible, but the fork/join firehose
/// and the dense access stream are exactly the traffic pattern of §2.3
/// where "the number of data accesses no longer dominates synchronization
/// operations" — the workload that makes vector-clock HB *analysis*
/// expensive while TSVD's synchronization-blind design stays cheap.
pub fn async_chatter(tasks: u32, accesses: u32) -> Module {
    Module::clean("async-chatter", 5, "Dictionary", move |ctx: &ModuleCtx| {
        let handles: Vec<_> = (0..tasks)
            .map(|t| {
                let rt = ctx.runtime.clone();
                ctx.pool.spawn(move || {
                    let private: Dictionary<u64, u64> = Dictionary::new(&rt);
                    for i in 0..u64::from(accesses) {
                        private.set(i % 8, i ^ u64::from(t));
                        let _ = private.get(&(i % 8));
                    }
                    private.len()
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join()).sum();
        assert!(total >= tasks as usize);
    })
}

/// A staged pipeline: stage-1 workers write a hand-off table, everyone
/// joins, and long afterwards stage-2 workers write it again. The
/// conflicting accesses are separated by far more than `T_nm`, so windowed
/// near-miss tracking ignores them — but the "No windowing" ablation
/// (Table 3) pairs them up from the retained history and pays delays that
/// can never catch anything. This is the module shape behind the paper's
/// "windowing is the most important factor in reducing overhead".
pub fn staged_pipeline(objects: u32, stage_gap_beats: u32) -> Module {
    Module::clean(
        "staged-pipeline",
        2,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let tables: Vec<Dictionary<u64, u64>> = (0..objects.max(1))
                .map(|_| Dictionary::new(&ctx.runtime))
                .collect();
            let run_stage = |stage: u64| {
                ctx.join_all(tables.iter().map(|t| {
                    let t = t.clone();
                    ctx.pool.spawn(move || {
                        t.set(stage, busy_work(2));
                        let _ = t.len();
                    })
                }));
            };
            run_stage(1);
            // The inter-stage gap: far beyond the near-miss window.
            tsvd_core::clock::pause(ctx.beat * stage_gap_beats.max(8));
            run_stage(2);
        },
    )
}

/// Concurrent read-only traffic on a shared collection: reads never
/// conflict, so this is clean by the contract itself.
pub fn read_only(readers: u32, iters: u32) -> Module {
    Module::clean("read-only", 1, "SortedList", move |ctx: &ModuleCtx| {
        let table: SortedList<u64, u64> = SortedList::new(&ctx.runtime);
        for i in 0..32 {
            table.set(i, i * i);
        }
        ctx.join_all((0..readers.max(2)).map(|_| {
            let t = table.clone();
            ctx.paced(iters, move |i| {
                let _ = t.get(&u64::from(i % 32));
                t.contains_key(&u64::from(i % 7))
            })
        }));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Runtime, TsvdConfig};

    #[test]
    fn all_clean_scenarios_run_and_are_clean() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 2);
        for m in [
            crud(8),
            locked_pair(3),
            adhoc_sync(2),
            sequential_phases(2, 3),
            fork_join_clean(2, 4),
            read_only(2, 3),
            async_chatter(8, 16),
            staged_pipeline(2, 8),
        ] {
            m.run(&ctx);
            assert_eq!(m.expectation(), Expectation::Clean);
        }
    }

    #[test]
    fn crud_is_single_threaded() {
        assert!(!crud(4).uses_async());
    }

    #[test]
    fn locked_pair_under_tsvd_reports_nothing() {
        // The lock makes a violation impossible; TSVD must stay silent
        // (no-false-positive guarantee).
        let rt = Runtime::tsvd(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt.clone(), 2);
        locked_pair(6).run(&ctx);
        assert_eq!(rt.reports().unique_bugs(), 0);
    }
}
