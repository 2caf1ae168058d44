//! Order statistics for repeated measurements and latency samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
///
/// # Panics
///
/// Panics if `xs` has fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() as i64 + 1;
    let at = |i: i64| {
        // Python clamps the rank before taking the fraction, so the ends
        // extrapolate from the outermost pair.
        let j = (i * m / 4).clamp(1, s.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The `q` quantile of `count` samples by the nearest-rank rule, refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it. `value_at(k)`
/// returns the sample of 0-based rank `k`.
pub fn percentile(
    count: u64,
    q: f64,
    value_at: impl FnOnce(u64) -> f64,
) -> Result<Percentile, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("quantile {q} is outside (0, 1)"));
    }
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let beyond = count.saturating_sub(rank);
    if count == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {count} samples has {beyond} beyond it; {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: value_at(rank - 1),
        samples: count,
        beyond,
    })
}

/// [`percentile`] over sorted samples.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Result<Percentile, String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    percentile(sorted.len() as u64, q, |k| sorted[k as usize] as f64)
}

/// A percentile together with its sample counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples it was taken over.
    pub samples: u64,
    /// Samples strictly beyond its rank.
    pub beyond: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<u64> = (1..=1000).collect();
        let p99 = percentile_sorted(&xs, 0.99).expect("1000 samples carry a p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
        let short: Vec<u64> = (1..=999).collect();
        let err = percentile_sorted(&short, 0.99).expect_err("only 9 beyond p99");
        assert!(
            err.contains("999 samples") && err.contains("9 beyond"),
            "{err}"
        );
        let p50 = percentile_sorted(&short, 0.5).expect("median is well covered");
        assert_eq!((p50.value, p50.beyond), (500.0, 499));
    }

    #[test]
    fn percentile_refuses_empty_and_degenerate_quantiles() {
        assert!(percentile_sorted(&[], 0.5).is_err());
        let xs: Vec<u64> = (0..100).collect();
        assert!(percentile_sorted(&xs, 0.0).is_err());
        assert!(percentile_sorted(&xs, 1.0).is_err());
    }
}
