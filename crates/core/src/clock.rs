//! The detector's one clock.
//!
//! All timing *logic* in the detector (near-miss windows, happens-before
//! inference, probability decay, delay accounting) operates on plain
//! nanosecond stamps, so its unit tests pass synthetic stamps; only the
//! runtime reads the process-monotonic [`now_ns`].

use std::sync::OnceLock;
use std::time::Instant;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_conversion() {
        assert_eq!(ms_to_ns(1), 1_000_000);
        assert_eq!(ms_to_ns(100), 100_000_000);
    }
}
