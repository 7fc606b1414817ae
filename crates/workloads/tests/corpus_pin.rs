//! Pins the corpus: what every scenario constructor and Table 4 project
//! does in one run, so a rewrite of a module body cannot silently change
//! the operations it races, the tasks it forks and joins, or the sites it
//! covers.
//!
//! Each module runs once at a small fixed size on a fresh
//! `Runtime::noop(TsvdConfig::for_testing())` with 2 pool threads. A pin
//! holds the module's metadata, `stats().on_calls()`, `sync_events()` and
//! `sites_covered()`. Where a count depends on the schedule, the pin is the
//! range the code guarantees, and the row says why.

use std::ops::RangeInclusive;

use tsvd_core::{Runtime, TsvdConfig};
use tsvd_workloads::opensource::{projects, Project};
use tsvd_workloads::scenarios::{buggy, clean, hard, paper_examples};
use tsvd_workloads::{Expectation, Module, ModuleCtx};

/// `(tests, expectation, uses_async, structure)`.
type Meta = (u32, Expectation, bool, &'static str);

/// What one run of `module` must read.
struct Pin {
    module: Module,
    meta: Meta,
    on_calls: RangeInclusive<u64>,
    sync_events: u64,
    sites: RangeInclusive<usize>,
    /// Why a range is pinned instead of a count; `None` when all are exact.
    schedule_dependent: Option<&'static str>,
}

/// A module whose every count is fixed by its code.
fn exact(module: Module, meta: Meta, (on_calls, sync_events, sites): (u64, u64, usize)) -> Pin {
    Pin {
        module,
        meta,
        on_calls: on_calls..=on_calls,
        sync_events,
        sites: sites..=sites,
        schedule_dependent: None,
    }
}

/// A module with a schedule-dependent count.
fn ranged(
    module: Module,
    meta: Meta,
    on_calls: RangeInclusive<u64>,
    sync_events: u64,
    sites: RangeInclusive<usize>,
    why: &'static str,
) -> Pin {
    Pin {
        module,
        meta,
        on_calls,
        sync_events,
        sites,
        schedule_dependent: Some(why),
    }
}

const fn buggy(pairs: usize) -> Expectation {
    Expectation::Buggy {
        pairs,
        first_run_catchable: true,
    }
}

const RACY: Expectation = buggy(1);
const HARD: Expectation = Expectation::Buggy {
    pairs: 1,
    first_run_catchable: false,
};
const CLEAN: Expectation = Expectation::Clean;

const CACHE_RACE: &str = "check-then-insert: each of the 6 caches gets a key \
                          inserted by every worker that finds it missing, once or twice";

fn pins() -> Vec<Pin> {
    let Ok([insights, datetime, fluent, k8s, radical, sequelocity, statsd, linq, thunderstruck]) =
        <[Project; 9]>::try_from(projects())
    else {
        panic!("Table 4 has nine projects");
    };
    vec![
        exact(
            buggy::same_location(3, 4),
            (1, RACY, true, "List"),
            (36, 9, 3),
        ),
        exact(
            buggy::read_write(2, 4),
            (2, RACY, true, "Dictionary"),
            (37, 9, 5),
        ),
        ranged(
            buggy::queue_drain(4),
            (2, RACY, true, "Queue"),
            16..=32,
            6,
            4..=4,
            "the consumer dequeues until it has 4 items or has idled 16 \
             rounds: 4..=20 calls beside the producer's 12",
        ),
        exact(
            buggy::string_log(4),
            (1, RACY, true, "StringBuilder"),
            (24, 6, 3),
        ),
        ranged(
            buggy::hot_loop(32, 3),
            (3, RACY, true, "Dictionary"),
            35..=10_035,
            6,
            2..=3,
            "the cold refresher writes until the hot worker is done, at most \
             10 000 times, and may not start before it is",
        ),
        exact(
            buggy::lock_then_unprotected(4),
            (2, RACY, true, "List"),
            (24, 22, 3),
        ),
        exact(
            buggy::set_membership(4),
            (2, RACY, true, "HashSet"),
            (16, 6, 4),
        ),
        exact(
            buggy::deque_workers(4),
            (2, RACY, true, "LinkedDeque"),
            (17, 6, 5),
        ),
        exact(
            buggy::bitmap_flags(4),
            (1, RACY, true, "BitArray"),
            (17, 6, 5),
        ),
        exact(
            buggy::sorted_index(4),
            (2, RACY, true, "SortedList"),
            (20, 6, 5),
        ),
        exact(buggy::stack_undo(4), (1, RACY, true, "Stack"), (24, 6, 4)),
        exact(
            buggy::pipeline_continuations(4),
            (2, RACY, true, "Dictionary"),
            (4, 36, 1),
        ),
        exact(clean::crud(8), (4, CLEAN, false, "Dictionary"), (66, 0, 10)),
        exact(
            clean::locked_pair(3),
            (2, CLEAN, true, "Dictionary"),
            (6, 18, 1),
        ),
        exact(
            clean::adhoc_sync(2),
            (2, CLEAN, true, "Dictionary"),
            (4, 12, 2),
        ),
        exact(
            clean::sequential_phases(2, 3),
            (3, CLEAN, true, "Dictionary"),
            (23, 6, 3),
        ),
        exact(
            clean::fork_join_clean(2, 4),
            (2, CLEAN, true, "Stack"),
            (12, 6, 4),
        ),
        exact(
            clean::read_only(2, 3),
            (1, CLEAN, true, "SortedList"),
            (44, 6, 3),
        ),
        exact(
            clean::async_chatter(8, 16),
            (5, CLEAN, true, "Dictionary"),
            (264, 24, 3),
        ),
        exact(
            clean::staged_pipeline(2, 8),
            (2, CLEAN, true, "Dictionary"),
            (8, 12, 2),
        ),
        exact(hard::rare_pair(3, 1, 2), (2, HARD, true, "List"), (5, 6, 3)),
        exact(
            hard::single_shot(),
            (1, HARD, true, "Dictionary"),
            (2, 6, 2),
        ),
        exact(
            hard::slow_partner(4),
            (1, HARD, true, "Dictionary"),
            (89, 6, 2),
        ),
        exact(
            paper_examples::dict_racy(4),
            (2, RACY, true, "Dictionary"),
            (24, 6, 4),
        ),
        exact(
            paper_examples::getsqrt_cache(2),
            (3, buggy(2), true, "Cache"),
            (8, 24, 2),
        ),
        exact(
            paper_examples::device_manager(4),
            (2, RACY, true, "Dictionary"),
            (20, 12, 3),
        ),
        exact(
            paper_examples::network_validation(4),
            (1, RACY, true, "Dictionary"),
            (20, 12, 3),
        ),
        exact(
            paper_examples::list_sort_race(3),
            (2, RACY, true, "List"),
            (34, 6, 5),
        ),
        exact(insights.module, (934, RACY, true, "List"), (16, 6, 3)),
        // 6 caches x 2 workers x 8 rounds of contains_key + get, and 4 keys.
        ranged(
            datetime.module,
            (169, buggy(3), true, "Dictionary"),
            216..=240,
            36,
            3..=3,
            CACHE_RACE,
        ),
        // The same with 3 keys.
        ranged(
            fluent.module,
            (3076, buggy(2), true, "Dictionary"),
            210..=228,
            36,
            3..=3,
            CACHE_RACE,
        ),
        exact(k8s.module, (76, RACY, true, "Dictionary"), (7, 6, 2)),
        exact(radical.module, (965, buggy(3), true, "List"), (20, 9, 3)),
        ranged(
            sequelocity.module,
            (209, buggy(3), true, "Dictionary"),
            216..=240,
            36,
            3..=3,
            CACHE_RACE,
        ),
        exact(statsd.module, (34, RACY, true, "Dictionary"), (12, 6, 1)),
        // 6 caches x 2 workers x 4 rounds, and 1 key.
        ranged(
            linq.module,
            (7, RACY, true, "Dictionary"),
            102..=108,
            36,
            3..=3,
            CACHE_RACE,
        ),
        ranged(
            thunderstruck.module,
            (52, buggy(2), true, "StringBuilder"),
            102..=108,
            36,
            3..=3,
            "each of the 6 buffers is appended to by every task that finds \
             it empty: once or twice",
        ),
    ]
}

#[test]
fn every_constructor_runs_what_it_was_pinned_with() {
    let mut wrong = Vec::new();
    for pin in pins() {
        let m = &pin.module;
        let meta = (m.tests(), m.expectation(), m.uses_async(), m.structure());
        let rt = Runtime::noop(TsvdConfig::for_testing());
        m.run(&ModuleCtx::new(rt.clone(), 2));
        let s = rt.stats();
        let (calls, sync, sites) = (s.on_calls(), s.sync_events(), s.sites_covered());
        if meta != pin.meta
            || !pin.on_calls.contains(&calls)
            || sync != pin.sync_events
            || !pin.sites.contains(&sites)
        {
            wrong.push(format!(
                "{}: read {meta:?}, calls {calls}, sync {sync}, sites {sites}; pinned {:?}, \
                 calls {:?}, sync {}, sites {:?}{}",
                m.name(),
                pin.meta,
                pin.on_calls,
                pin.sync_events,
                pin.sites,
                pin.schedule_dependent
                    .map(|why| format!(" ({why})"))
                    .unwrap_or_default(),
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
