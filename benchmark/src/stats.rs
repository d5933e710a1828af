//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The summary a timing is reported as: the median, plus the highest
/// percentile of the ladder 90 / 99 / 99.9 that still has at least ten
/// samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// The 90th percentile (NaN below two samples).
    pub p90: f64,
    /// The 99th percentile.
    pub p99: f64,
    /// Which percentile `tail` is (`None` under 100 samples: no rung of
    /// the ladder has ten samples beyond it).
    pub tail_percentile: Option<f64>,
    /// The value at `tail_percentile`.
    pub tail: f64,
}

/// The highest rung of 90 / 99 / 99.9 with ≥ 10 of `count` samples
/// beyond it.
pub fn tail_percentile(count: usize) -> Option<f64> {
    // One sample in `one_in` lies beyond the rung; whole numbers, because
    // `100.0 - 99.9` is not exactly 0.1.
    [(99.9, 1000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|(_, one_in)| count / one_in >= 10)
        .map(|(p, _)| p)
}

/// Summarises `samples` (any order; NaNs are a caller bug).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| quantile_sorted(&sorted, p / 100.0);
    let tail_percentile = tail_percentile(sorted.len());
    Summary {
        count: sorted.len(),
        p50: at(50.0),
        p90: at(90.0),
        p99: at(99.0),
        tail_percentile,
        tail: tail_percentile.map_or(f64::NAN, at),
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Distance between the first and the third quartile of `samples` as a
/// share of their median, the quartiles taken as Python's
/// `statistics.quantiles(values, n=4)` takes them (the driver's measure
/// of a metric's spread). NaN under two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quantile_sorted(&sorted, 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), (8.25 - 2.75) / 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartile_spread(&[3.0, 1.0, 2.0]), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartile_spread(&[10.0, 20.0]), 1.0);
        assert!(quartile_spread(&[5.0]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_picks_the_tail_value() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail_percentile, Some(99.0));
        assert!((s.tail - 990.01).abs() < 1e-9, "p99 of 1..=1000 is {}", s.tail);
        assert!(summarize(&samples[..50]).tail.is_nan());
    }
}
