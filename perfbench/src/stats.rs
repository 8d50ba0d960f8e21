//! Summary statistics shared by every workload: the percentile rule, medians
//! and the goodput / failure arithmetic.

/// Percentile ladder, highest first. A timing reports its median plus the
/// highest rung that still has at least [`MIN_BEYOND`] samples above it.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A timing distribution reduced to the numbers the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub median: f64,
    /// The tail percentile that was reported (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// Value at `tail_pct` (nearest rank).
    pub tail: f64,
}

/// Nearest-rank index of percentile `p` in a sorted sample of length `n`,
/// in integer arithmetic (per mille), so `p = 99.9` of 10 000 samples is
/// exactly rank 9 990.
fn rank_index(p: f64, n: usize) -> usize {
    let permille = (p * 10.0).round() as usize;
    let rank = (permille * n).div_ceil(1000);
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(p, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it; the median when even p50 has fewer (tiny samples).
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an already sorted slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank_index(p, sorted.len())]
}

/// Sorts a copy and summarizes it. Non-finite samples are a bug upstream.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        median: percentile_sorted(&sorted, 50.0),
        tail_pct,
        tail: percentile_sorted(&sorted, tail_pct),
    }
}

/// Median of a sample (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The rate a run sustains: the 90th percentile (nearest rank) of its
/// per-fit or per-second rates. On a host whose speed drifts, a slow spell
/// that covers part of the run moves it less than it moves the median.
pub fn sustained(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, 90.0)
}

/// One finished (or failed) request, as the load generator records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Seconds from the request's due time to its last response byte.
    pub latency_s: f64,
    /// True for a 2xx answer whose body passed its oracle.
    pub ok: bool,
}

/// Requests per second that succeeded within `limit_s`. A failed, refused or
/// timed-out request misses the limit whatever its latency.
pub fn goodput(outcomes: &[Outcome], limit_s: f64, phase_s: f64) -> f64 {
    let good = outcomes
        .iter()
        .filter(|o| o.ok && o.latency_s <= limit_s)
        .count();
    good as f64 / phase_s
}

/// Share of attempted requests that failed (0 when nothing was attempted).
pub fn fail_frac(attempted: usize, failed: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p99.9 needs 10 000 samples, p99 1 000, p95 200, p90 100, p75 40.
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in 21..5_000 {
            let p = tail_percentile(n);
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
        let rates: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(sustained(&rates), 9.0);
    }

    #[test]
    fn goodput_counts_only_successes_within_the_limit() {
        let outcomes = [
            Outcome {
                latency_s: 0.001,
                ok: true,
            },
            Outcome {
                latency_s: 0.010,
                ok: true,
            },
            Outcome {
                latency_s: 0.011,
                ok: true,
            },
            Outcome {
                latency_s: 0.001,
                ok: false,
            },
        ];
        // Two of four are good; the fast failure still misses.
        assert_eq!(goodput(&outcomes, 0.010, 2.0), 1.0);
        assert_eq!(fail_frac(4, 1), 0.25);
        assert_eq!(fail_frac(0, 0), 0.0);
    }
}
