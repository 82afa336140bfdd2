//! Percentiles that say how many samples they rest on.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_SUPPORT`] samples beyond it, together with
//! the sample count, so a "p99" is never read off a handful of points.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Candidate tail quantiles, lowest first.
const TAIL_QUANTILES: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
/// Returns 0 for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Median, p90 and the best-supported tail of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (read it with `n`: below 1000 samples fewer than
    /// ten lie beyond it).
    pub p99: f64,
    /// The highest of p90 / p99 / p99.9 / p99.99 with at least
    /// [`TAIL_SUPPORT`] samples beyond it (0 when even p90 lacks them).
    pub tail_q: f64,
    /// The value at `tail_q` (0 when `tail_q` is 0).
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order; sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let tail_q = TAIL_QUANTILES
            .iter()
            .copied()
            .rev()
            .find(|&q| beyond(n, q) >= TAIL_SUPPORT)
            .unwrap_or(0.0);
        Summary {
            n,
            p50: nearest_rank(samples, 0.5),
            p90: nearest_rank(samples, 0.9),
            p99: nearest_rank(samples, 0.99),
            tail_q,
            tail: if tail_q > 0.0 {
                nearest_rank(samples, tail_q)
            } else {
                0.0
            },
        }
    }

    /// One line naming the sample count and the supported tail, e.g.
    /// `n=1000 p50=1.2 p90=3.4 p99=5.6`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = if self.tail_q > 0.0 {
            format!(" p{}={:.4}{unit}", quantile_label(self.tail_q), self.tail)
        } else {
            format!(" (no tail: fewer than {TAIL_SUPPORT} samples beyond p90)")
        };
        format!(
            "n={} p50={:.4}{unit} p90={:.4}{unit}{tail}",
            self.n, self.p50, self.p90
        )
    }
}

/// `0.99` → `"99"`, `0.999` → `"99.9"`.
pub fn quantile_label(q: f64) -> String {
    let pct = format!("{:.2}", q * 100.0);
    pct.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The median of `values` (0 when empty) — how per-round figures
/// combine into a run's figure.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn summary_states_its_sample_count() {
        let s = Summary::of(&mut ramp(250));
        assert_eq!(s.n, 250);
        assert!(s.describe("ms").starts_with("n=250 "));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie above p99, only 1 above p99.9.
        let s = Summary::of(&mut ramp(1000));
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        assert!(s.describe("").contains("p99=990"));
        // 999 samples: 9 above p99 is too few, so p90 is the tail.
        assert_eq!(Summary::of(&mut ramp(999)).tail_q, 0.9);
        // 100_000 samples support p99.99 (10 beyond).
        assert_eq!(Summary::of(&mut ramp(100_000)).tail_q, 0.9999);
        // 50 samples cannot support even p90 (5 beyond).
        let tiny = Summary::of(&mut ramp(50));
        assert_eq!(tiny.tail_q, 0.0);
        assert!(tiny.describe("").contains("no tail"));
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_stalled_round() {
        assert_eq!(median(&[1.0, 2.0, 100.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_labels_read_naturally() {
        assert_eq!(quantile_label(0.99), "99");
        assert_eq!(quantile_label(0.999), "99.9");
        assert_eq!(quantile_label(0.9), "90");
    }
}
