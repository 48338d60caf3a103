//! Order statistics over timing samples.

/// First quartile, median and third quartile of `values`, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`,
/// so spreads computed here and by external tooling agree. `None` for
/// an empty sample.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let q = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// The highest of p99, p95 and p90 that leaves at least ten of `n`
/// samples beyond it, or `None` when even p90 would not (n < 100). A
/// tail percentile with fewer samples beyond it is one or two outliers,
/// not a tail.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// Nearest-rank `p`th percentile of `values` (`None` when empty).
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&[5.0], 90), Some(5.0));
        assert_eq!(percentile(&[], 90), None);
    }
}
