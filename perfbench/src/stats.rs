//! Order statistics over latency samples.
//!
//! Every reported timing is a median or a percentile over many short
//! samples spread across the whole run, never one long timing: on a
//! shared host the clock rate drifts within seconds, and a median over
//! the run absorbs what a single sample cannot.

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The value at percentile `p` (0–100) of `samples`, by the
/// nearest-rank rule on the sorted samples. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// [`percentile`] over samples already sorted ascending (non-empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small slack keeps `99.9 % of 10 000` at rank 9 990 despite the
/// binary rounding of `0.999`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The median of `samples` (the mean of the middle two for even
/// counts). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Samples strictly above percentile `p` of `n` samples under the
/// nearest-rank rule.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p).min(n)
}

/// The highest percentile of [`PERCENTILE_LADDER`] that has at least
/// ten samples beyond it among `n` samples: the tail a run of `n`
/// samples can report without resting on a handful of outliers.
/// `None` when even the median lacks ten samples beyond it.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Latency samples stamped with when they were taken, so a percentile
/// can be computed per time window and the median taken across
/// windows — one noisy second then moves one window, not the result.
#[derive(Debug, Default, Clone)]
pub struct Windowed {
    /// `(seconds since the run started, value)`.
    samples: Vec<(f64, f64)>,
}

impl Windowed {
    pub fn push(&mut self, at_s: f64, value: f64) {
        self.samples.push((at_s, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, v)| v).collect()
    }

    /// Percentile `p` of each `window_s`-second window holding at
    /// least `min_samples` samples, in time order.
    pub fn per_window(&self, window_s: f64, p: f64, min_samples: usize) -> Vec<f64> {
        let mut buckets: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for &(at, v) in &self.samples {
            buckets.entry((at / window_s) as u64).or_default().push(v);
        }
        buckets
            .values()
            .filter(|b| b.len() >= min_samples)
            .filter_map(|b| percentile(b, p))
            .collect()
    }

    /// The median over `window_s`-second windows of each window's
    /// percentile `p`; windows with fewer than `min_samples` samples are
    /// skipped. Falls back to the percentile over all samples when no
    /// window qualifies.
    pub fn median_of_windows(&self, window_s: f64, p: f64, min_samples: usize) -> Option<f64> {
        let per_window = self.per_window(window_s, p, min_samples);
        if per_window.is_empty() {
            percentile(&self.values(), p)
        } else {
            median(&per_window)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn reportable_percentile_needs_ten_samples_beyond() {
        // 19 samples: the median has 9 beyond it — nothing reportable.
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        // p90 of 100 samples leaves exactly 10 beyond.
        assert_eq!(highest_reportable_percentile(99), Some(50.0));
        assert_eq!(highest_reportable_percentile(100), Some(90.0));
        assert_eq!(highest_reportable_percentile(999), Some(90.0));
        assert_eq!(highest_reportable_percentile(1_000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        assert_eq!(highest_reportable_percentile(100_000), Some(99.99));
        for n in [20, 100, 1_000, 10_000, 54_321] {
            let p = highest_reportable_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut w = Windowed::default();
        for s in 0..5 {
            for i in 0..100 {
                let slow = if s == 2 { 50.0 } else { 1.0 };
                w.push(s as f64 + i as f64 / 100.0, slow + i as f64 / 1000.0);
            }
        }
        let p99 = w.median_of_windows(1.0, 99.0, 50).unwrap();
        assert!(p99 < 2.0, "{p99}");
        assert!(percentile(&w.values(), 99.0).unwrap() > 49.0);
    }
}
