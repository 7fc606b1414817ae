//! The detector's one clock and its one way to wait.
//!
//! All timing *logic* in the detector (near-miss windows, happens-before
//! inference, probability decay, delay accounting) operates on plain
//! nanosecond stamps, so its unit tests pass synthetic stamps; only the
//! runtime reads the process-monotonic [`now_ns`].
//!
//! Every timed wait in `tsvd-core`, `tsvd-tasks` and the workload corpus
//! goes through this module as well: [`pause`] is the plain sleep (a
//! scenario's pause, a paced task's step), and [`wait_until`] is the
//! condvar wait to a [`now_ns`] deadline (a trap owner's delay, the
//! watchdog's poll, a join's poll). Nothing else in those crates reads
//! `Instant` or sleeps, which the root `tests/wait_audit.rs` enforces. What stays
//! on real time on purpose, outside this seam: the fleet's heartbeats and
//! supervision, the fleet fixtures that must outlast a real deadline,
//! `harness::chaos`, and the untimed blocks (a channel `recv`, a
//! `TsvdMutex::lock`), which wait for another thread rather than a time.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, MutexGuard};

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Returns the current process-monotonic time in nanoseconds since an
/// arbitrary fixed origin.
pub fn now_ns() -> u64 {
    u64::try_from(origin().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Converts milliseconds to nanoseconds.
pub const fn ms_to_ns(ms: u64) -> u64 {
    ms * 1_000_000
}

/// The [`now_ns`] stamp `d` from now (saturating).
#[inline]
pub fn deadline_after(d: Duration) -> u64 {
    now_ns().saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Sleeps the calling thread for `d`.
pub fn pause(d: Duration) {
    std::thread::sleep(d);
}

/// Waits on `cv` until `done` holds of the guarded state or [`now_ns`]
/// reaches `deadline_ns`, whichever comes first, and returns whether
/// `done` held. `done` is re-checked after every wakeup, so a notify that
/// leaves it false, or a spurious wakeup, keeps the wait going to the
/// deadline; a deadline already past returns `done`'s value at once.
// Inlined, so each caller compiles to the loop it held before the seam:
// out of line, the re-laid code read `hot_private` `slowdown_x` +14 %, and
// inlined +4–7 % (EXPERIMENTS.md, "One wait seam").
#[inline]
pub fn wait_until<T>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    deadline_ns: u64,
    done: impl Fn(&T) -> bool,
) -> bool {
    let deadline = origin() + Duration::from_nanos(deadline_ns);
    while !done(guard) {
        if cv.wait_until(guard, deadline).timed_out() {
            return done(guard);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn ms_conversion() {
        assert_eq!(ms_to_ns(1), 1_000_000);
        assert_eq!(ms_to_ns(100), 100_000_000);
    }

    #[test]
    fn deadline_after_saturates() {
        let before = now_ns();
        assert!(deadline_after(Duration::from_millis(5)) >= before + ms_to_ns(5));
        assert_eq!(deadline_after(Duration::MAX), u64::MAX);
    }

    /// A flag behind a mutex and the condvar that announces its changes.
    type Flag = Arc<(Mutex<bool>, Condvar)>;

    fn flag() -> Flag {
        Arc::new((Mutex::new(false), Condvar::new()))
    }

    /// Sets `flag` to `value` and notifies every waiter, `after` from now.
    fn notify_later(flag: &Flag, after: Duration, value: bool) -> std::thread::JoinHandle<()> {
        let flag = flag.clone();
        std::thread::spawn(move || {
            pause(after);
            *flag.0.lock() = value;
            flag.1.notify_all();
        })
    }

    #[test]
    fn a_predicate_that_already_holds_returns_at_once() {
        let flag = flag();
        *flag.0.lock() = true;
        let mut st = flag.0.lock();
        // Nothing notifies and the deadline is an hour out: one check of
        // the predicate, and no wait.
        let checks = std::cell::Cell::new(0);
        assert!(wait_until(
            &flag.1,
            &mut st,
            deadline_after(Duration::from_secs(3600)),
            |set| {
                checks.set(checks.get() + 1);
                *set
            }
        ));
        assert_eq!(checks.get(), 1);
    }

    #[test]
    fn a_notify_that_leaves_the_predicate_false_waits_to_the_deadline() {
        let flag = flag();
        let start = now_ns();
        let deadline = start + ms_to_ns(30);
        let notifier = notify_later(&flag, Duration::from_millis(2), false);
        let held = {
            let mut st = flag.0.lock();
            wait_until(&flag.1, &mut st, deadline, |set| *set)
        };
        notifier.join().expect("notifier no panic");
        assert!(!held);
        assert!(now_ns() >= deadline, "returned before the deadline");
    }

    #[test]
    fn a_notify_that_makes_the_predicate_true_returns_true_early() {
        let flag = flag();
        let start = now_ns();
        let notifier = notify_later(&flag, Duration::from_millis(2), true);
        let held = {
            let mut st = flag.0.lock();
            wait_until(
                &flag.1,
                &mut st,
                deadline_after(Duration::from_secs(3600)),
                |set| *set,
            )
        };
        notifier.join().expect("notifier no panic");
        assert!(held);
        assert!(
            now_ns() - start >= ms_to_ns(2),
            "returned before the notify"
        );
    }

    #[test]
    fn a_deadline_already_past_returns_the_predicate_without_blocking() {
        let flag = flag();
        let mut st = flag.0.lock();
        assert!(!wait_until(&flag.1, &mut st, 0, |set| *set));
        *st = true;
        assert!(wait_until(&flag.1, &mut st, 0, |set| *set));
    }
}
