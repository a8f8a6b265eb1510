//! Order statistics for the benchmark's timings.
//!
//! Every tail percentile follows one rule: report the highest quantile,
//! up to the one asked for, that still leaves at least [`TAIL_SAMPLES`]
//! samples beyond it, and report it together with the sample count.

/// Samples that must lie beyond a reported tail quantile.
pub const TAIL_SAMPLES: usize = 10;

/// A reported quantile: which one, its value and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile actually reported, in `(0, 1)`.
    pub q: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Samples it was taken over.
    pub n: usize,
}

/// The highest quantile no greater than `want` that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when `n` is too
/// small to support any tail.
pub fn supported_quantile(n: usize, want: f64) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    Some(want.min(1.0 - TAIL_SAMPLES as f64 / n as f64))
}

/// The 1-based nearest rank of quantile `q` among `n` samples. The
/// product is rounded before taking the ceiling so that `q = 1 - k/n`
/// lands on rank `n - k` despite floating-point error.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64 * 1e9).round() / 1e9;
    (r.ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Quantile of ascending whole-unit samples (the service reports
/// latencies in whole microseconds), read as a histogram of unit-wide
/// bins `[v, v + 1)` and interpolated within the bin that holds the
/// quantile's rank. Unlike a nearest-rank read of integer data, the
/// result moves continuously with the distribution.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn binned(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let target = (q * sorted.len() as f64).min(sorted.len() as f64 - 0.5);
    let idx = (target as usize).min(sorted.len() - 1);
    let v = sorted[idx];
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    f64::from(v) + (target - below as f64) / at as f64
}

/// Median and supported tail of ascending float samples.
pub fn median_and_tail(sorted: &[f64], want: f64) -> Option<(Quantile, Quantile)> {
    let q = supported_quantile(sorted.len(), want)?;
    let n = sorted.len();
    Some((
        Quantile {
            q: 0.5,
            value: nearest_rank(sorted, 0.5),
            n,
        },
        Quantile {
            q,
            value: nearest_rank(sorted, q),
            n,
        },
    ))
}

/// Median and supported tail of ascending whole-unit samples.
pub fn binned_median_and_tail(sorted: &[u32], want: f64) -> Option<(Quantile, Quantile)> {
    let q = supported_quantile(sorted.len(), want)?;
    let n = sorted.len();
    Some((
        Quantile {
            q: 0.5,
            value: binned(sorted, 0.5),
            n,
        },
        Quantile {
            q,
            value: binned(sorted, q),
            n,
        },
    ))
}

/// Median of unordered values (mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(supported_quantile(10, 0.99), None);
        assert_eq!(supported_quantile(1000, 0.99), Some(0.99));
        assert_eq!(supported_quantile(1_000_000, 0.99), Some(0.99));
        let q = supported_quantile(500, 0.99).expect("500 samples support a tail");
        assert!((q - 0.98).abs() < 1e-12);
        for n in [11, 50, 333, 999, 1000, 1001, 123_457] {
            let q = supported_quantile(n, 0.99).expect("n > 10");
            let r = rank(n, q);
            assert!(n - r >= TAIL_SAMPLES, "n={n} q={q} leaves {}", n - r);
            if q < 0.99 {
                assert_eq!(
                    n - r,
                    TAIL_SAMPLES,
                    "n={n}: the tail sits right at the limit"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        let (p50, tail) = median_and_tail(&s, 0.99).expect("100 samples");
        assert_eq!((p50.value, p50.n), (50.0, 100));
        assert!((tail.q - 0.9).abs() < 1e-12, "100 samples support p90 only");
        assert_eq!(tail.value, 90.0);
    }

    #[test]
    fn binned_quantile_interpolates_within_ties() {
        // 40 samples of 3 µs and 60 of 4 µs: the median's rank 50 sits a
        // sixth of the way into the 4 µs bin.
        let mut s = vec![3u32; 40];
        s.extend(vec![4u32; 60]);
        assert!((binned(&s, 0.5) - (4.0 + 10.0 / 60.0)).abs() < 1e-12);
        assert!((binned(&s, 0.2) - 3.5).abs() < 1e-12);
        let all_same = vec![7u32; 1000];
        let v = binned(&all_same, 0.99);
        assert!((7.0..8.0).contains(&v));
        assert_eq!(binned(&[5], 0.99), 5.5);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
