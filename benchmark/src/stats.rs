//! Order statistics: medians, quartiles and the tail percentile rule.

/// Ascending copy of `v` (total order, so a stray NaN sorts last
/// instead of panicking the run).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of an ascending slice (mean of the two middle values when the
/// count is even); `0.0` for an empty one.
pub fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    median_sorted(&sorted(v))
}

/// First quartile, median, third quartile — the same cut points Python's
/// `statistics.quantiles(v, n=4)` returns (exclusive method), so a
/// spread computed here equals the one the acceptance driver computes.
/// Fewer than two samples give the one value (or zero) three times.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median (`0.0` when
/// the median is zero).
pub fn iqr_frac(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail percentile of an ascending sample: the 99th when at least
/// ten samples lie beyond it, otherwise the highest percentile that
/// still has ten samples beyond it, and never below the median (with few
/// samples it is the first sample above the middle). Returns
/// the value and the percentile actually used (in `[50, 99]`).
pub fn tail_percentile(s: &[f64]) -> (f64, f64) {
    let n = s.len();
    if n == 0 {
        return (0.0, 50.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank
        .min(n.saturating_sub(10))
        .max(n / 2 + 1)
        .clamp(1, n);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Median and tail percentile of an unsorted latency sample, as
/// `(p50, tail, percentile used)`.
pub fn latency_summary(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let (tail, pct) = tail_percentile(&s);
    (median_sorted(&s), tail, pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1 000 samples: the true p99, with exactly ten beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big), (990.0, 99.0));
        // 256 samples: rank 246 is the highest with ten beyond it.
        let mid: Vec<f64> = (1..=256).map(f64::from).collect();
        let (v, pct) = tail_percentile(&mid);
        assert_eq!(v, 246.0);
        assert!((pct - 100.0 * 246.0 / 256.0).abs() < 1e-12);
        // 41 samples: rank 31.
        let small: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(tail_percentile(&small).0, 31.0);
        // Too few for any tail: the first sample above the middle.
        let tiny: Vec<f64> = (1..=12).map(f64::from).collect();
        let (v, pct) = tail_percentile(&tiny);
        assert_eq!(v, 7.0);
        assert!(v >= median_sorted(&tiny) && pct > 50.0);
        assert_eq!(tail_percentile(&[]), (0.0, 50.0));
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
