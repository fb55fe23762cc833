//! Order statistics and the regression rule — the pure maths the
//! benchmark's verdicts rest on.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with
/// at least `p` percent of the samples at or below it. With fewer than
/// ten samples beyond it the figure is not a supported tail estimate —
/// callers state the sample count next to it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples a percentile needs beyond it before it counts as a tail
/// estimate (the choosing-metrics rule: "the highest percentile that has
/// at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile when at least [`MIN_BEYOND`] samples lie beyond
/// it, otherwise the median: with a handful of samples "p90" is the
/// slowest one, which measures the host's worst moment, not the program
/// (on the shared reference host the slowest of five 4 s sessions spread
/// 20–28 % between runs of the same code).
pub fn tail_or_median(values: &[f64], p: f64) -> f64 {
    if samples_beyond(values.len(), p) >= MIN_BEYOND {
        percentile(values, p)
    } else {
        median(values)
    }
}

/// `stat` of each stratum, averaged. A workload that cycles through
/// several protocols has a latency distribution with one mode per
/// protocol, and a percentile of the pooled samples sits on the boundary
/// between two modes: on `small_mixed` the pooled median read 40.2 or
/// 47.8 ms depending on which side of it a few sessions fell, while each
/// protocol's own median repeated within 0.2 %. So percentiles are taken
/// per protocol and averaged over the cycle — the latency of "a session
/// of the mix". With one stratum this is `stat` itself. `NaN` if any
/// stratum is empty.
pub fn mean_over_strata(strata: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    strata.iter().map(|s| stat(s)).sum::<f64>() / strata.len() as f64
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(n.min(1), n)
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// driver measures spread with that function, so `--repeat` must agree
/// with it to the digit. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the driver compares against a metric's bound. `None` with
/// fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, CPU, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The spelling BENCHMARK.json uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of the base's median the candidate's median is worse
/// (positive) or better (negative), in the metric's own direction.
pub fn worsening(base_median: f64, cand_median: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => cand_median - base_median,
        Better::Higher => base_median - cand_median,
    };
    delta / base_median.abs()
}

/// Outcome of comparing one metric on one workload between two sets of
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is within the bound of the base's.
    Within,
    /// Worse than the base by more than the bound.
    Regression,
    /// Within the bound, but the base's own run-to-run spread exceeds the
    /// bound and the candidate's runs are not all better than the base's:
    /// the data cannot tell "unchanged" from "changed".
    Unresolved,
}

/// The section-6/8 rule of the choosing-metrics guide: a median worse by
/// more than `bound` is a regression; otherwise the pair is unresolved
/// when the base's spread exceeds the bound, unless every candidate run
/// beats every base run.
pub fn compare(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worsening(median(base), median(cand), better);
    if worse > bound {
        return Verdict::Regression;
    }
    let noisy = spread(base).is_some_and(|s| s > bound);
    if noisy && !all_better(base, cand, better) {
        return Verdict::Unresolved;
    }
    Verdict::Within
}

fn all_better(base: &[f64], cand: &[f64], better: Better) -> bool {
    let (bmin, bmax) = min_max(base);
    let (cmin, cmax) = min_max(cand);
    match better {
        Better::Lower => cmax < bmin,
        Better::Higher => cmin > bmax,
    }
}

/// `(min, max)` of `values`; `(NaN, NaN)` when empty.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::NAN, f64::NAN), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Five samples: p90 is the slowest one.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_or_median(&v, 90.0), 90.0);
        // 99 samples leave nine beyond p90; five leave none: the median.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_or_median(&v[..99], 90.0), 50.0);
        assert_eq!(samples_beyond(5, 90.0), 0);
        assert_eq!(tail_or_median(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 3.0);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn strata_are_summarised_one_by_one() {
        // Pooled median of these is 2.0 or 10.0 depending on one sample;
        // the per-stratum medians are 2 and 10 whatever the mix.
        let strata = [vec![1.0, 2.0, 3.0], vec![9.0, 10.0, 11.0]];
        assert_eq!(mean_over_strata(&strata, median), 6.0);
        assert_eq!(mean_over_strata(&strata[..1], median), 2.0);
        assert!(mean_over_strata(&[vec![1.0], vec![]], median).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            Some((1.25, 5.75))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn compare_applies_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0];
        // 12% slower against a 10% bound.
        assert_eq!(
            compare(&base, &[11.2, 11.2, 11.2, 11.2], Better::Lower, 0.10),
            Verdict::Regression
        );
        assert_eq!(
            compare(&base, &[10.3, 10.2, 10.4, 10.3], Better::Lower, 0.10),
            Verdict::Within
        );
        // A base whose own spread exceeds the bound cannot certify "unchanged"...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            compare(&noisy, &[10.0, 10.0, 10.0], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every base run.
        assert_eq!(
            compare(&noisy, &[7.0, 7.5, 7.2], Better::Lower, 0.05),
            Verdict::Within
        );
    }
}
