//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! and failure counting. Every reported timing goes through here.

/// Median of `values` (mean of the middle two for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `n - 1` cut points dividing `values` into `n` groups, computed
/// like Python's `statistics.quantiles(values, n=n)` (the default
/// "exclusive" method), so the spread this program reports matches the
/// spread the acceptance check computes. Needs at least two values.
#[must_use]
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let data = sorted(values);
    let ld = data.len();
    assert!(n >= 1 && ld >= 2, "quantiles need n >= 1 and two values");
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// Interquartile range as a share of the median: the run-to-run spread
/// figure the bounds in `BENCHMARK.json` are compared with.
#[must_use]
pub fn iqr_frac(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    (q[2] - q[0]) / median(values)
}

/// One pass's time as the sum, over the operations in `ops`, of each
/// operation's median across passes (`passes[p][op]` is operation
/// `op`'s wall time in pass `p`). A noisy spell that slows a few
/// operations of one pass does not move it, where it would move that
/// pass's total.
#[must_use]
pub fn sum_of_medians(passes: &[Vec<f64>], ops: std::ops::Range<usize>) -> f64 {
    ops.map(|op| median(&passes.iter().map(|p| p[op]).collect::<Vec<_>>()))
        .sum()
}

/// The nearest-rank `pct`-th percentile of `values`.
#[must_use]
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), pct).clamp(1, s.len()) - 1]
}

/// 1-based nearest rank of the `pct`-th percentile among `count`
/// samples. The small slack keeps `99.9 / 100 * 10000` at rank 9990
/// despite float rounding.
fn rank(count: usize, pct: f64) -> usize {
    (pct / 100.0 * count as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Whether at least ten samples lie beyond the `pct`-th percentile of
/// `count` samples: below that a tail percentile is one or two
/// outliers, not a distribution.
#[must_use]
pub fn tail_is_resolved(count: usize, pct: f64) -> bool {
    count >= rank(count, pct) + 10
}

/// The highest of the usual reporting percentiles that has at least
/// ten samples beyond it, with its value; `None` below twenty samples.
#[must_use]
pub fn highest_resolved_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| tail_is_resolved(values.len(), p))
        .map(|p| (p, percentile(values, p)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed in one run. A failure is an
/// operation that errored, was refused (a 503 counts), or returned a
/// wrong answer; the first few reasons are kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// The first reported failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Marks an already counted operation as failed (an answer found
    /// wrong after the timed window, when the reference is computed).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    /// `failed / attempted`, zero before anything was attempted.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when `got == want`, otherwise the mismatch as a failure reason.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&ten, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quantiles(&[5.0, 4.0, 3.0, 2.0, 1.0], 4),
            vec![1.5, 3.0, 4.5]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[1.0, 2.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30], n=10)[:2] == [4.0, 8.0]
        assert_eq!(quantiles(&[10.0, 20.0, 30.0], 10)[..2], [4.0, 8.0]);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_medians_discounts_one_slow_operation() {
        let passes = vec![vec![1.0, 2.0], vec![1.0, 9.0], vec![1.2, 2.2]];
        assert!((sum_of_medians(&passes, 0..2) - (1.0 + 2.2)).abs() < 1e-12);
        assert_eq!(sum_of_medians(&passes, 1..2), 2.2);
        assert_eq!(sum_of_medians(&passes, 0..0), 0.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        let n = |count: usize| -> Vec<f64> { (0..count).map(|i| i as f64).collect() };
        assert_eq!(highest_resolved_percentile(&n(19)), None);
        assert_eq!(highest_resolved_percentile(&n(20)).map(|p| p.0), Some(50.0));
        assert_eq!(
            highest_resolved_percentile(&n(199)).map(|p| p.0),
            Some(90.0)
        );
        assert_eq!(
            highest_resolved_percentile(&n(200)).map(|p| p.0),
            Some(95.0)
        );
        assert_eq!(
            highest_resolved_percentile(&n(999)).map(|p| p.0),
            Some(95.0)
        );
        assert_eq!(
            highest_resolved_percentile(&n(1000)).map(|p| p.0),
            Some(99.0)
        );
        assert_eq!(
            highest_resolved_percentile(&n(10_000)).map(|p| p.0),
            Some(99.9)
        );
        assert!(tail_is_resolved(1000, 99.0) && !tail_is_resolved(999, 99.0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        t.record(Ok(()));
        t.record(Err("status 503".into()));
        t.record(Ok(()));
        t.record(expect_eq("opt", 13, 14));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_frac(), 0.5);
        assert_eq!(t.reasons, vec!["status 503", "opt: got 13, want 14"]);
        t.fail("answer differs".into());
        assert_eq!((t.attempted, t.failed), (4, 3));
    }
}
