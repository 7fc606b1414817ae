//! Order statistics for timing samples.

/// Percentiles a tail may be reported at, lowest first, in tenths of a
/// percent so that ranks are exact integers.
const TAIL_LADDER_PERMILLE: &[usize] = &[500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile before it is worth reporting:
/// with fewer, the value is set by a handful of outliers and does not repeat.
const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a workload that produced no sample is a bug in
/// the benchmark, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of a percentile among `n` samples.
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile `value` is.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was selected from.
    pub samples: usize,
}

/// The highest ladder percentile with at least ten samples beyond it; the
/// median when even that has fewer (under twenty samples in all).
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let permille = TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .filter(|&p| n - rank(p, n) >= MIN_BEYOND)
        .max()
        .unwrap_or(TAIL_LADDER_PERMILLE[0]);
    Tail {
        percentile: permille as f64 / 10.0,
        value: sorted[rank(permille, n) - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn nearest_rank_positions() {
        assert_eq!(
            (rank(500, 100), rank(900, 100), rank(999, 100)),
            (50, 90, 100)
        );
        assert_eq!(
            (rank(990, 1), rank(500, 3), rank(999, 10_000)),
            (1, 2, 9990)
        );
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even the median has ten beyond it.
        assert_eq!(tail(&samples(19)).percentile, 50.0);
        // 40 samples: p75 leaves exactly ten beyond, p90 only four.
        let t = tail(&samples(40));
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
        assert_eq!(tail(&samples(100)).percentile, 90.0);
        assert_eq!(tail(&samples(200)).percentile, 95.0);
        assert_eq!(tail(&samples(1000)).percentile, 99.0);
        assert_eq!(tail(&samples(10_000)).percentile, 99.9);
    }
}
