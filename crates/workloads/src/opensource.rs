//! The nine open-source projects of Table 4, as scenario analogs.
//!
//! Each module reproduces the *bug pattern* of the cited GitHub issue/PR —
//! the data structure, the access shape, and the original project's test
//! style — which is what "TSVD detects and triggers all the TSVs in at
//! most 2 runs" exercises. LoC and test counts are carried as metadata so
//! the Table 4 report can print the paper's columns.

use tsvd_collections::{Dictionary, List, StringBuilder};

use crate::module::{Module, ModuleCtx};

/// Metadata for one Table 4 row.
#[derive(Debug, Clone, Copy)]
pub struct ProjectInfo {
    /// Project name as in Table 4.
    pub name: &'static str,
    /// Lines of code (paper's column, carried as metadata).
    pub loc_k: f64,
    /// Number of tests in the project.
    pub tests: u32,
    /// Runs the paper needed to find the TSVs.
    pub paper_runs: u32,
    /// TSVs the paper reports.
    pub paper_tsvs: u32,
}

impl ProjectInfo {
    /// The row with its module: named after the project, with one planted
    /// pair per TSV the paper reports.
    fn with_module(
        self,
        structure: &'static str,
        body: impl Fn(&ModuleCtx) + Send + Sync + 'static,
    ) -> Project {
        let pairs = self.paper_tsvs as usize;
        let module = Module::racy(self.name, self.tests, pairs, structure, body);
        Project { info: self, module }
    }
}

/// A Table 4 project: metadata plus the reproduction module.
pub struct Project {
    /// Row metadata.
    pub info: ProjectInfo,
    /// The module that reproduces the project's bug pattern.
    pub module: Module,
}

fn cache_race(info: ProjectInfo, keys: u32, iters: u32) -> Project {
    // The common open-source shape: a static type/config cache written from
    // concurrently running tests (Sequelocity's TypeCacher,
    // System.Linq.Dynamic's ClassFactory, DateTimeExtensions' locale data).
    // Each round is one unit test with a fresh cache — the pattern executes
    // many times per test run, which is what lets TSVD convert a round-k
    // near miss into a round-k+1 trap ("most instructions execute more than
    // once", §3.4.6).
    info.with_module("Dictionary", move |ctx: &ModuleCtx| {
        // 2 unit tests x 3 cache constructions each: the check-then-
        // insert pattern repeats, so a pair armed by one construction's
        // near miss traps the next construction's insert.
        for _construction in 0..2 * 3 {
            let type_cache: Dictionary<u32, u64> = Dictionary::new(&ctx.runtime);
            ctx.join_all((0..2).map(|worker| {
                let c = type_cache.clone();
                ctx.paced(iters, move |i| {
                    let key = (worker * 131 + i) % keys.max(1);
                    if !c.contains_key(&key) {
                        c.set(key, u64::from(key) * 3); // Unlocked insert.
                    }
                    c.get(&key)
                })
            }));
        }
    })
}

/// Builds all nine Table 4 projects.
pub fn projects() -> Vec<Project> {
    vec![
        // Broadcast processor drops telemetry: a shared List of telemetry
        // items appended by the broadcaster while the flush path swaps/reads
        // it.
        ProjectInfo {
            name: "ApplicationInsights",
            loc_k: 67.5,
            tests: 934,
            paper_runs: 2,
            paper_tsvs: 1,
        }
        .with_module("List", |ctx: &ModuleCtx| {
            let telemetry: List<u64> = List::new(&ctx.runtime);
            let t = telemetry.clone();
            let broadcast = ctx.paced(8, move |i| t.add(u64::from(i)));
            let p = ctx.pace;
            let flusher = ctx.pool.spawn(move || {
                for _ in 0..4 {
                    let _ = telemetry.to_vec();
                    telemetry.clear(); // Drops items added in between.
                    tsvd_core::clock::pause(p * 2);
                }
            });
            ctx.join_all([broadcast, flusher]);
        }),
        cache_race(
            ProjectInfo {
                name: "DateTimeExtensions",
                loc_k: 3.2,
                tests: 169,
                paper_runs: 1,
                paper_tsvs: 3,
            },
            4,
            8,
        ),
        // SelfReferenceEquivalencyAssertionOptions.GetEqualityStrategy: a
        // strategy memo dictionary read and written without a lock.
        cache_race(
            ProjectInfo {
                name: "FluentAssertions",
                loc_k: 78.3,
                tests: 3076,
                paper_runs: 1,
                paper_tsvs: 2,
            },
            3,
            8,
        ),
        // Watcher bookkeeping map mutated from the watch callback while the
        // dispose path clears it.
        ProjectInfo {
            name: "K8s-client",
            loc_k: 332.3,
            tests: 76,
            paper_runs: 2,
            paper_tsvs: 1,
        }
        .with_module("Dictionary", |ctx: &ModuleCtx| {
            let watchers: Dictionary<u32, u64> = Dictionary::new(&ctx.runtime);
            let w = watchers.clone();
            let watch = ctx.paced(6, move |i| w.set(i, u64::from(i)));
            let p = ctx.pace;
            let dispose = ctx.pool.spawn(move || {
                tsvd_core::clock::pause(p * 3);
                watchers.clear();
            });
            ctx.join_all([watch, dispose]);
        }),
        // MessageBroker's internal subscription list is not thread safe:
        // concurrent subscribe / unsubscribe / dispatch.
        ProjectInfo {
            name: "Radical",
            loc_k: 96.9,
            tests: 965,
            paper_runs: 1,
            paper_tsvs: 3,
        }
        .with_module("List", |ctx: &ModuleCtx| {
            let subscriptions: List<u64> = List::new(&ctx.runtime);
            let (s1, s2) = (subscriptions.clone(), subscriptions.clone());
            ctx.join_all([
                ctx.paced(8, move |i| s1.add(u64::from(i))),
                ctx.paced(4, move |_| s2.remove_at(0)),
                ctx.paced(8, move |_| subscriptions.to_vec()), // Iterate subscribers.
            ]);
        }),
        cache_race(
            ProjectInfo {
                name: "Sequelocity",
                loc_k: 6.6,
                tests: 209,
                paper_runs: 1,
                paper_tsvs: 3,
            },
            4,
            8,
        ),
        // Gauge updates: concurrent set on the same metric key — a
        // same-location write-write pair.
        ProjectInfo {
            name: "Statsd",
            loc_k: 2.5,
            tests: 34,
            paper_runs: 2,
            paper_tsvs: 1,
        }
        .with_module("Dictionary", |ctx: &ModuleCtx| {
            let gauges: Dictionary<u32, u64> = Dictionary::new(&ctx.runtime);
            ctx.join_all((0..2).map(|w| {
                let g = gauges.clone();
                ctx.paced(6, move |i| g.set(1, w * 100 + u64::from(i))) // Same gauge, same line.
            }));
        }),
        cache_race(
            ProjectInfo {
                name: "System.Linq.Dynamic",
                loc_k: 1.2,
                tests: 7,
                paper_runs: 1,
                paper_tsvs: 1,
            },
            1,
            4,
        ),
        // ConnectionStringBuffer singleton: check-then-append on a shared
        // buffer. TSVD found one extra TSV beyond the report.
        ProjectInfo {
            name: "Thunderstruck",
            loc_k: 1.1,
            tests: 52,
            paper_runs: 1,
            paper_tsvs: 2,
        }
        .with_module("StringBuilder", |ctx: &ModuleCtx| {
            // 2 unit tests x 3 singleton constructions each: the lazy-init
            // pattern repeats within a test, so the pair armed by one
            // construction traps the next one's append.
            for _construction in 0..2 * 3 {
                let buffer = StringBuilder::new(&ctx.runtime);
                ctx.join_all((0..2).map(|_| {
                    let b = buffer.clone();
                    ctx.paced(4, move |_| {
                        if b.is_empty() {
                            b.append("Server=db0;"); // Init race.
                        }
                        b.to_string()
                    })
                }));
            }
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::{Runtime, TsvdConfig};

    #[test]
    fn nine_projects_matching_table4() {
        let ps = projects();
        assert_eq!(ps.len(), 9);
        let total_tsvs: u32 = ps.iter().map(|p| p.info.paper_tsvs).sum();
        assert_eq!(total_tsvs, 17, "Table 4 reports 17 TSVs in total");
        assert!(ps.iter().all(|p| p.info.paper_runs <= 2));
    }

    #[test]
    fn all_projects_run_under_noop() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 2);
        for p in projects() {
            p.module.run(&ctx);
            assert!(p.module.expectation().planted_pairs() >= 1);
        }
    }
}
