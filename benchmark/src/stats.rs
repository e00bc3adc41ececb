//! Order statistics and the regression verdict shared by `run` and
//! `compare`.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, with the cut
/// points of Python's `statistics.quantiles(xs, n=4)` (its default
/// "exclusive" method), so the spreads printed here match the ones an
/// outside checker computes from the same values. One sample gives
/// three equal cut points.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest of p50, p90, p99 and p99.9 that still has at least ten
/// of `n` samples beyond it — the tail a sample count can support
/// (20 samples → p50, 8000 → p99). `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Outcome of comparing one metric between a baseline and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate is better by more than the bound and the
    /// baseline's spread.
    Better,
    /// The candidate is worse by more than the bound and the baseline's
    /// spread.
    Worse,
    /// Within the bound or within the baseline's spread.
    Same,
    /// The baseline's own spread is wider than the bound, so the bound
    /// cannot be judged.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `candidate` against `baseline` for a metric whose regression
/// bound is `bound` (a share of the baseline median) and where
/// `lower_is_better` gives the direction. A change counts only when it
/// exceeds both the bound and the baseline's interquartile range; a
/// baseline whose IQR is wider than the bound leaves the metric
/// unresolved (so a resolved change beyond the bound is also beyond the
/// IQR).
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(baseline: &[f64], candidate: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (q1, base, q3) = quartiles(baseline);
    let cand = median(candidate);
    let scale = base.abs().max(f64::MIN_POSITIVE);
    if (q3 - q1) / scale > bound {
        return Verdict::Unresolved;
    }
    let diff = cand - base;
    if diff.abs() <= bound * scale {
        return Verdict::Same;
    }
    if (diff < 0.0) == lower_is_better {
        Verdict::Better
    } else {
        Verdict::Worse
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn quantile_interpolates_linearly() {
        let xs = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.5), 20.0);
        assert_eq!(quantile(&xs, 0.99), 39.6);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(8000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn verdict_needs_both_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        // 5% slower with a 10% bound: same.
        assert_eq!(verdict(&base, &[105.0; 5], 0.10, true), Verdict::Same);
        // 20% slower: worse; 20% faster: better.
        assert_eq!(verdict(&base, &[120.0; 5], 0.10, true), Verdict::Worse);
        assert_eq!(verdict(&base, &[80.0; 5], 0.10, true), Verdict::Better);
        // Direction flips for higher-is-better metrics.
        assert_eq!(verdict(&base, &[120.0; 5], 0.10, false), Verdict::Better);
        // A baseline IQR (15% here) wider than the bound cannot be
        // judged; under a wider bound the same change is within it.
        let wide = [90.0, 95.0, 100.0, 105.0, 110.0];
        assert_eq!(verdict(&wide, &[200.0; 5], 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(&wide, &[111.0; 5], 0.25, true), Verdict::Same);
    }
}
