//! Order statistics and the regression-bound arithmetic every reported
//! number goes through. Pure functions, unit-tested below, so a ledger
//! diff can be checked by hand.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Linear interpolation at rank `p * (n - 1)` of `n` sorted values
/// read through `at`. Empty input reads 0 so a layer that did no work
/// reports no time.
fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    at(lo) + (at(hi) - at(lo)) * (rank - lo as f64)
}

/// Linear-interpolated percentile of a **sorted** slice, `p` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    interpolate(sorted.len(), p, |i| sorted[i])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// Percentile of an unsorted slice of integer samples (latencies in
/// nanoseconds); sorts in place.
pub fn percentile_u64(samples: &mut [u64], p: f64) -> f64 {
    samples.sort_unstable();
    interpolate(samples.len(), p, |i| samples[i] as f64)
}

/// Median, minimum, maximum and count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            median: percentile_sorted(&s, 0.5),
            min: s.first().copied().unwrap_or(0.0),
            max: s.last().copied().unwrap_or(0.0),
            n: s.len(),
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old`: positive is
/// worse, negative is better, whatever the metric's direction.
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// Outcome of comparing one metric on one workload across two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every repeat of the new ledger reads better than every repeat
    /// of the old one.
    Better,
    /// Within the bound.
    Ok,
    /// Within the bound, but every repeat of the new ledger reads worse
    /// than every repeat of the old one: a slowdown the bound is too
    /// wide to call a regression. Reported, not failed.
    Worse,
    /// The repeats' min-max ranges overlap by more than the bound, so
    /// the two medians cannot be told apart at this bound.
    Unresolved,
    /// Worse than the bound allows.
    Regression,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Ok => "ok",
            Verdict::Worse => "worse, inside the bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// The compare rule: disjoint ranges decide by themselves; overlapping
/// ranges are "unresolved" once the overlap is wider than the bound,
/// and otherwise the medians decide.
pub fn judge(old: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    let worse = worsening(old.median, new.median, better);
    let overlap = (old.max.min(new.max) - old.min.max(new.min)).max(0.0);
    let disjoint = old.max < new.min || new.max < old.min;
    if disjoint {
        return if worse < 0.0 {
            Verdict::Better
        } else if worse > bound {
            Verdict::Regression
        } else {
            Verdict::Worse
        };
    }
    if old.median != 0.0 && overlap / old.median.abs() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_handle_small_inputs() {
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert!((percentile_sorted(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let mut ns = [40u64, 10, 30, 20];
        assert_eq!(percentile_u64(&mut ns, 0.5), 25.0);
        assert_eq!(percentile_u64(&mut [], 0.5), 0.0);
    }

    #[test]
    fn summary_reports_median_range_and_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            s,
            Summary {
                median: 2.0,
                min: 1.0,
                max: 3.0,
                n: 3
            }
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    fn s(min: f64, median: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn judge_separates_regression_noise_and_gain() {
        let old = s(99.0, 100.0, 101.0);
        // 20 % slower on a lower-is-better metric, ranges disjoint.
        assert_eq!(
            judge(&old, &s(119.0, 120.0, 121.0), Better::Lower, 0.10),
            Verdict::Regression
        );
        // 5 % slower, disjoint, inside a 10 % bound: said, not failed.
        assert_eq!(
            judge(&old, &s(104.0, 105.0, 106.0), Better::Lower, 0.10),
            Verdict::Worse
        );
        // 0.5 % slower with overlapping ranges is nothing.
        assert_eq!(
            judge(&old, &s(99.5, 100.5, 101.5), Better::Lower, 0.10),
            Verdict::Ok
        );
        // Every new repeat faster than every old one.
        assert_eq!(
            judge(&old, &s(79.0, 80.0, 81.0), Better::Lower, 0.10),
            Verdict::Better
        );
        // Same numbers read the other way for a throughput.
        assert_eq!(
            judge(&old, &s(79.0, 80.0, 81.0), Better::Higher, 0.10),
            Verdict::Regression
        );
        // Wide overlapping ranges: 30 of 100 overlap > 10 % bound.
        assert_eq!(
            judge(
                &s(80.0, 100.0, 120.0),
                &s(90.0, 115.0, 140.0),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // Narrow overlap, medians 15 % apart: resolved as a regression.
        assert_eq!(
            judge(
                &s(95.0, 100.0, 110.0),
                &s(108.0, 115.0, 120.0),
                Better::Lower,
                0.10
            ),
            Verdict::Regression
        );
    }
}
