//! Percentiles and the rule for which tail percentile a sample supports.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentile levels a tail may be reported at, highest first.
pub const TAIL_LEVELS: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest level in [`TAIL_LEVELS`] that is at most `cap` and leaves
/// at least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not.
pub fn tail_level(n: usize, cap: f64) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| p <= cap && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// A sample of one timing, kept whole so any percentile can be read.
#[derive(Debug, Default, Clone)]
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }
}

/// A timing kept in groups: one per program of a batch deck, or a single
/// group. Its median pools the groups. Its tail is the geometric mean of
/// each group's own tail: the deck's programs differ in size tenfold, so a
/// pooled percentile would pick a program by rank (a pooled p75 of three
/// programs is the largest one's p25) instead of measuring a tail.
#[derive(Debug, Default, Clone)]
pub struct Groups(Vec<Sample>);

impl Groups {
    pub fn push(&mut self, group: usize, v: f64) {
        if self.0.len() <= group {
            self.0.resize_with(group + 1, Sample::default);
        }
        self.0[group].push(v);
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(Sample::len).sum()
    }

    /// Samples in the smallest group.
    pub fn min_group_len(&self) -> usize {
        self.0.iter().map(Sample::len).min().unwrap_or(0)
    }

    pub fn pooled_pct(&self, p: f64) -> f64 {
        let mut all: Vec<f64> = self.0.iter().flat_map(|s| s.0.iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, p)
    }

    /// Geometric mean over the groups of each group's `p`-th percentile.
    pub fn tail(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let logs: f64 = self.0.iter().map(|s| s.pct(p).ln()).sum();
        (logs / self.0.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_level(1000, 99.0), Some(99.0));
        assert_eq!(tail_level(999, 99.0), Some(95.0));
        // 100 samples: p90 leaves 10, p95 only 5.
        assert_eq!(tail_level(100, 99.0), Some(90.0));
        // 40 samples: p75 leaves 10.
        assert_eq!(tail_level(40, 99.0), Some(75.0));
        assert_eq!(tail_level(39, 99.0), Some(50.0));
        assert_eq!(tail_level(19, 99.0), None);
    }

    #[test]
    fn grouped_tail_is_the_geometric_mean_of_group_tails() {
        let mut g = Groups::default();
        for v in 1..=100 {
            g.push(0, f64::from(v));
            g.push(1, f64::from(v) * 4.0);
        }
        // p75 of each group: 75 and 300; their geometric mean is 150.
        assert!((g.tail(75.0) - 150.0).abs() < 1e-9);
        // The median pools both groups.
        assert_eq!(g.pooled_pct(50.0), 80.0);
        assert_eq!((g.len(), g.min_group_len()), (200, 100));
        // One group: the tail is that group's percentile.
        let mut one = Groups::default();
        (1..=100).for_each(|v| one.push(0, f64::from(v)));
        assert!((one.tail(90.0) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn tail_respects_the_cap() {
        assert_eq!(tail_level(100_000, 75.0), Some(75.0));
        assert_eq!(tail_level(100_000, 90.0), Some(90.0));
    }
}
