//! Order statistics for caller-observed latencies.

/// Samples required beyond a reported tail percentile.
const TAIL_MARGIN: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// rank `ceil(p/100 · n)`.
fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_index(sorted.len(), p)]
}

/// Zero-based index of the nearest-rank `p`-th percentile among `n`.
fn rank_index(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: u32) -> usize {
    n - 1 - rank_index(n, p)
}

/// The highest whole percentile, at most `want`, with at least
/// [`TAIL_MARGIN`] samples beyond it; the median when even p50 has
/// fewer (the caller states the sample count next to it).
fn tail_percentile(n: usize, want: u32) -> u32 {
    (50..=want)
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MARGIN)
        .unwrap_or(50)
}

/// Median of unsorted samples (mean of the middle pair for even `n`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Latency summary of one run: median and tail with the percentile the
/// tail actually is.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: u32,
    pub tail: f64,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len(), 99);
        Latency {
            n: v.len(),
            p50: percentile(&v, 50),
            tail_pct,
            tail: percentile(&v, tail_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(tail_percentile(999, 99), 98);
        assert!(beyond(999, 98) >= TAIL_MARGIN);
        assert!(beyond(999, 99) < TAIL_MARGIN);
    }

    #[test]
    fn tail_always_keeps_ten_beyond_when_possible() {
        for n in 21..3000 {
            let p = tail_percentile(n, 99);
            assert!(beyond(n, p) >= TAIL_MARGIN, "n={n} p={p}");
            if p < 99 {
                assert!(
                    beyond(n, p + 1) < TAIL_MARGIN,
                    "n={n}: p{} also fits",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn small_runs_fall_back_to_the_median() {
        assert_eq!(tail_percentile(5, 99), 50);
        assert_eq!(tail_percentile(60, 99), 83);
        assert_eq!(beyond(60, 83), 10);
    }

    #[test]
    fn nearest_rank_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_reports_the_percentile_it_used() {
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i % 100)).collect();
        let l = Latency::of(&samples);
        assert_eq!((l.n, l.tail_pct), (200, 95));
        assert_eq!(l.p50, 49.0);
        assert_eq!(l.tail, 94.0);
    }
}
