//! Sample summaries, failure accounting and metric-name rules.
//!
//! Everything here is pure arithmetic over numbers the workloads collect,
//! so it is unit-tested on its own.

/// Tail percentiles tried for a timing, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one outlier decides the figure.
pub const MIN_BEYOND_TAIL: usize = 10;

/// 1-based nearest rank of the `p` percentile among `n` samples. The
/// epsilon keeps `99.9 × 1000 / 100` from rounding up past 999.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest tail percentile with at least [`MIN_BEYOND_TAIL`] samples
/// beyond it, or `None` when `n` is too small for any of them.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND_TAIL)
}

/// Median, tail and sample count of one timing series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (nearest-rank p50); 0 with no samples.
    pub p50: f64,
    /// The selected tail percentile's value (the median when none fits).
    pub tail: f64,
    /// Which percentile `tail` is; `None` when too few samples.
    pub tail_p: Option<f64>,
    /// Samples summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` (any order).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary {
                p50: 0.0,
                tail: 0.0,
                tail_p: None,
                n: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0);
        let tail_p = tail_percentile(sorted.len());
        Summary {
            p50,
            tail: tail_p.map_or(p50, |p| percentile(&sorted, p)),
            tail_p,
            n: sorted.len(),
        }
    }

    /// The nearest-rank `p` percentile when at least [`MIN_BEYOND_TAIL`]
    /// samples lie beyond it.
    #[must_use]
    pub fn at(samples: &[f64], p: f64) -> Option<f64> {
        if beyond(samples.len(), p) < MIN_BEYOND_TAIL {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(percentile(&sorted, p))
    }
}

/// Attempted and failed operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Outcomes {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed over attempted; 0 when nothing was attempted.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The metric-name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn summary_reports_values_and_sample_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, Some(99.0));
        assert_eq!(s.tail, 990.0);
        assert_eq!(Summary::at(&samples, 99.0), Some(990.0));
        assert_eq!(Summary::at(&samples[..999], 99.0), None);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail, few.tail_p, few.n), (2.0, 2.0, None, 3));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.fail_ratio(), 0.0);
        for ok in [true, false, true, true] {
            o.record(ok);
        }
        assert_eq!((o.attempted, o.failed), (4, 1));
        assert_eq!(o.fail_ratio(), 0.25);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in ["setup_s", "view.rank_us", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "p99%", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
