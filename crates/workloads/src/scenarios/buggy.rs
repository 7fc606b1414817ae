//! Generic planted-TSV patterns matching the Table 1 bug characteristics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tsvd_collections::{
    BitArray, Dictionary, HashSet, LinkedDeque, List, Queue, SortedList, Stack, StringBuilder,
};
use tsvd_tasks::TsvdMutex;

use crate::module::{Module, ModuleCtx};
use crate::scenarios::busy_work;

/// N workers all executing the *same* `List.add` line — the
/// two-threads-at-one-location shape behind 34 % of the paper's bugs.
pub fn same_location(workers: u32, iters: u32) -> Module {
    Module::racy("same-location", 1, 1, "List", move |ctx: &ModuleCtx| {
        let list: List<u64> = List::new(&ctx.runtime);
        ctx.join_all((0..workers.max(2)).map(|w| {
            let l = list.clone();
            ctx.paced_filled(iters, move |i| l.add(u64::from(w) << 32 | u64::from(i)))
        }));
    })
}

/// Many readers against one occasional writer: the read-write conflict
/// shape behind 48 % of the paper's bugs (often "locking writes but not
/// reads").
pub fn read_write(readers: u32, iters: u32) -> Module {
    Module::racy("read-write", 2, 1, "Dictionary", move |ctx: &ModuleCtx| {
        let dict: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        dict.set(1, 1);
        let mut tasks: Vec<_> = (0..readers.max(1))
            .map(|_| {
                let d = dict.clone();
                ctx.paced_filled(iters, move |_| d.get(&1))
            })
            .collect();
        // The writer skips the lock the readers never had.
        tasks.push(ctx.paced_filled(iters, move |i| dict.set(1, u64::from(i))));
        ctx.join_all(tasks);
    })
}

/// Producer/consumer on a thread-unsafe queue: enqueue races dequeue.
pub fn queue_drain(items: u32) -> Module {
    Module::racy("queue-drain", 2, 1, "Queue", move |ctx: &ModuleCtx| {
        let queue: Queue<u64> = Queue::new(&ctx.runtime);
        let q = queue.clone();
        let producer = ctx.paced_filled(items, move |i| q.enqueue(u64::from(i)));
        let p = ctx.pace;
        let consumer = ctx.pool.spawn(move || {
            let mut drained = 0;
            let mut idle_rounds = 0;
            while drained < items && idle_rounds < 4 * items {
                match queue.dequeue() {
                    Some(_) => drained += 1,
                    None => idle_rounds += 1,
                }
                tsvd_core::clock::pause(p);
            }
        });
        ctx.join_all([producer, consumer]);
    })
}

/// Two tasks appending to one log `StringBuilder`.
pub fn string_log(iters: u32) -> Module {
    Module::racy(
        "string-log",
        1,
        1,
        "StringBuilder",
        move |ctx: &ModuleCtx| {
            let log = StringBuilder::new(&ctx.runtime);
            ctx.join_all(["worker-a", "worker-b"].map(|tag| {
                let l = log.clone();
                ctx.paced_filled(iters, move |i| {
                    l.append(tag);
                    busy_work(i % 3)
                })
            }));
        },
    )
}

/// A hot loop over a *private* dictionary (pure instrumentation traffic)
/// plus a cold shared dictionary with a real race. Dynamic sampling burns
/// its delay budget on the hot path; static/trap-set approaches find the
/// cold bug.
pub fn hot_loop(hot_iters: u32, cold_iters: u32) -> Module {
    Module::racy("hot-loop", 3, 1, "Dictionary", move |ctx: &ModuleCtx| {
        let shared: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
        let p = ctx.pace;
        let hot_done = Arc::new(AtomicBool::new(false));
        let (s, rt, done) = (shared.clone(), ctx.runtime.clone(), hot_done.clone());
        let hot = ctx.pool.spawn(move || {
            let private: Dictionary<u64, u64> = Dictionary::new(&rt);
            for i in 0..hot_iters {
                private.set(u64::from(i % 64), u64::from(i));
                if i % 8 == 0 {
                    tsvd_core::clock::pause(p / 4);
                }
            }
            for i in 0..cold_iters {
                s.set(7, u64::from(i)); // The cold, racy write.
                tsvd_core::clock::pause(p);
            }
            done.store(true, Ordering::Release);
        });
        // The cold worker is a background refresher: it keeps updating
        // the shared entry until the hot worker finishes, so the racy
        // writes genuinely overlap the hot worker's cold section.
        let cold = ctx.pool.spawn(move || {
            let mut i = 0u64;
            while !hot_done.load(Ordering::Acquire) && i < 10_000 {
                shared.set(7, 1_000 + i);
                tsvd_core::clock::pause(p * 2);
                i += 1;
            }
        });
        ctx.join_all([hot, cold]);
    })
}

/// Both tasks take a lock for part of their work, then write an
/// *unprotected* list. The incidental lock edges make the unprotected
/// writes look happens-before ordered to a vector-clock analysis in many
/// schedules — the "spurious HB edge" way TSVD-HB loses bugs — while
/// TSVD's near-miss tracking is undistracted.
pub fn lock_then_unprotected(iters: u32) -> Module {
    Module::racy(
        "lock-then-unprotected",
        2,
        1,
        "List",
        move |ctx: &ModuleCtx| {
            let protected = Arc::new(TsvdMutex::with_runtime(0u64, ctx.runtime.clone()));
            let unprotected: List<u64> = List::new(&ctx.runtime);
            ctx.join_all((0..2u64).map(|w| {
                let (m, l) = (protected.clone(), unprotected.clone());
                ctx.paced_filled(iters, move |i| {
                    *m.lock() += 1; // Correctly protected counter.
                    l.add(w << 32 | u64::from(i)); // Unprotected!
                })
            }));
        },
    )
}

/// Workers register ids in a shared `HashSet` while a monitor polls
/// membership — an add/contains read-write race.
pub fn set_membership(iters: u32) -> Module {
    Module::racy("set-membership", 2, 1, "HashSet", move |ctx: &ModuleCtx| {
        let registry: HashSet<u64> = HashSet::new(&ctx.runtime);
        let r = registry.clone();
        let registrar = ctx.paced_filled(iters, move |i| r.add(u64::from(i)));
        let monitor = ctx.paced(iters, move |i| registry.contains(&u64::from(i)));
        ctx.join_all([registrar, monitor]);
    })
}

/// A hand-rolled work-stealing deque: the owner pushes/pops at the back
/// while a thief pops the front — write-write on a thread-unsafe deque.
pub fn deque_workers(iters: u32) -> Module {
    Module::racy(
        "deque-workers",
        2,
        1,
        "LinkedDeque",
        move |ctx: &ModuleCtx| {
            let deque: LinkedDeque<u64> = LinkedDeque::new(&ctx.runtime);
            let d = deque.clone();
            let owner = ctx.paced_filled(iters, move |i| {
                d.push_back(u64::from(i));
                if i % 3 == 2 {
                    let _ = d.pop_back();
                }
            });
            // Steal without synchronization.
            let thief = ctx.paced(iters, move |_| deque.pop_front());
            ctx.join_all([owner, thief]);
        },
    )
}

/// Feature flags in a shared `BitArray`: a writer toggles bits while a
/// health checker counts them.
pub fn bitmap_flags(iters: u32) -> Module {
    Module::racy("bitmap-flags", 1, 1, "BitArray", move |ctx: &ModuleCtx| {
        let flags = BitArray::new(&ctx.runtime);
        flags.resize(128);
        let f = flags.clone();
        let toggler = ctx.paced_filled(iters, move |i| f.flip(usize::from(i as u16 % 128)));
        let checker = ctx.paced(iters, move |_| flags.count_ones());
        ctx.join_all([toggler, checker]);
    })
}

/// A leaderboard in a shared `SortedList`: score updates race the
/// first/last queries of a display task.
pub fn sorted_index(iters: u32) -> Module {
    Module::racy(
        "sorted-index",
        2,
        1,
        "SortedList",
        move |ctx: &ModuleCtx| {
            let board: SortedList<u64, u64> = SortedList::new(&ctx.runtime);
            let b = board.clone();
            let scorer =
                ctx.paced_filled(iters, move |i| b.set(busy_work(i % 5) % 32, u64::from(i)));
            let display = ctx.paced(iters, move |_| {
                let _ = board.first();
                board.last()
            });
            ctx.join_all([scorer, display]);
        },
    )
}

/// An undo stack shared by two editors: concurrent push/pop — write-write.
pub fn stack_undo(iters: u32) -> Module {
    Module::racy("stack-undo", 1, 1, "Stack", move |ctx: &ModuleCtx| {
        let undo: Stack<u64> = Stack::new(&ctx.runtime);
        ctx.join_all((0..2u64).map(|w| {
            let s = undo.clone();
            ctx.paced_filled(iters, move |i| {
                if (u64::from(i) + w) % 2 == 0 {
                    s.push(w << 32 | u64::from(i));
                } else {
                    let _ = s.pop();
                }
            })
        }));
    })
}

/// An async pipeline built from `then` continuations: stage 1 parses,
/// stage 2 enriches, stage 3 publishes into a shared results dictionary.
/// The publishes of concurrently processed requests race — the
/// post-`await` continuation shape of Fig. 3/4, via `ContinueWith`.
pub fn pipeline_continuations(requests: u32) -> Module {
    Module::racy(
        "pipeline-continuations",
        2,
        1,
        "Dictionary",
        move |ctx: &ModuleCtx| {
            let results: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
            let p = ctx.pace;
            let mut finals = Vec::new();
            for req in 0..requests {
                let r = results.clone();
                let parse = ctx.pool.spawn(move || {
                    tsvd_core::clock::pause(p); // Parse the request.
                    u64::from(req) * 3
                });
                let enrich = parse.then(&ctx.pool, move |v| {
                    tsvd_core::clock::pause(p); // Enrich with metadata.
                    v + 1
                });
                let publish = enrich.then(&ctx.pool, move |v| {
                    r.set(v % 8, v); // Publish: unsynchronized shared write.
                    v
                });
                finals.push(publish);
                tsvd_core::clock::pause(p / 2);
            }
            for f in finals {
                let _ = f.join();
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Runtime, TsvdConfig};

    #[test]
    fn all_buggy_scenarios_run_under_noop() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 2);
        for m in [
            same_location(3, 4),
            read_write(2, 4),
            queue_drain(4),
            string_log(4),
            hot_loop(32, 3),
            lock_then_unprotected(4),
            set_membership(4),
            deque_workers(4),
            bitmap_flags(4),
            sorted_index(4),
            stack_undo(4),
            pipeline_continuations(4),
        ] {
            m.run(&ctx);
            assert_eq!(m.expectation().planted_pairs(), 1);
        }
    }

    #[test]
    fn queue_drain_terminates_even_if_consumer_outruns_producer() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 1); // Single worker: maximal skew.
        queue_drain(3).run(&ctx);
    }
}
