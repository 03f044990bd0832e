//! Order statistics the harness reports: median, quartiles, nearest-rank
//! percentiles with the "a refused operation is +∞" rule.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// On an empty slice — every metric has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method: position
/// `i·(n+1)/4`, linear interpolation, clamped to the sample range), so a
/// spread computed here equals the one the acceptance driver computes.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        let (lo, hi) = (v[j - 1], v[j]);
        // Infinite samples (failed operations) must not turn into NaN.
        if lo == hi || delta == 0.0 {
            lo
        } else {
            lo + (hi - lo) * delta
        }
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is judged against. 0 for a constant (or zero-median)
/// series, +∞ when the quartiles differ and the median is infinite.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if q1 == q3 || m == 0.0 {
        0.0
    } else if m.is_infinite() {
        f64::INFINITY
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile (`p` in (0, 100]): the smallest sample with at
/// least `p` percent of the samples at or below it. Refused or failed
/// operations enter as `f64::INFINITY`, so they miss every latency limit
/// and push the percentile out once more than `100 − p` percent fail.
pub fn percentile_nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn nearest_rank_p90_and_the_infinity_rule() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 90.0), 90.0);
        assert_eq!(percentile_nearest_rank(&[7.0], 90.0), 7.0);
        // One to three operations: p90 is the slowest one.
        assert_eq!(percentile_nearest_rank(&[1.0, 9.0, 4.0], 90.0), 9.0);

        // 103 submissions, 3 refused: ten samples lie beyond rank 93, three
        // of them infinite, and the p90 itself stays finite ...
        let mut lat: Vec<f64> = (1..=100).map(f64::from).collect();
        lat.extend([f64::INFINITY; 3]);
        assert_eq!(percentile_nearest_rank(&lat, 90.0), 93.0);
        // ... until more than a tenth of the operations are refused.
        lat.truncate(92);
        lat.extend([f64::INFINITY; 11]);
        assert_eq!(percentile_nearest_rank(&lat, 90.0), f64::INFINITY);
    }

    /// Failed runs enter the run-to-run statistics as +∞ and never leave
    /// them as NaN.
    #[test]
    fn infinite_samples_stay_ordered() {
        const INF: f64 = f64::INFINITY;
        assert_eq!(median(&[1.0, INF, INF]), INF);
        assert_eq!(quartiles(&[INF, INF, INF]), (INF, INF));
        assert_eq!(quartiles(&[1.0, 2.0, INF]), (1.0, INF));
        assert_eq!(spread(&[INF, INF, INF]), 0.0);
        assert_eq!(spread(&[1.0, 2.0, INF]), INF);
        assert_eq!(spread(&[1.0, INF, INF]), INF);
    }
}
