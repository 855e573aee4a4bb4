//! Host speed, measured alongside the workload.
//!
//! The machines this benchmark runs on are shared: over tens of seconds
//! the same core runs the same code up to ~1.6x slower, in wall and CPU
//! time alike. A fixed kernel of the benchmark's own (sort and count
//! pseudo-random integers, about a millisecond) is timed between
//! operations, outside every measured interval, and each end-to-end time
//! is reported at a fixed reference speed: `raw * REFERENCE_MS /
//! kernel_ms`, where `kernel_ms` is the median of the kernel samples
//! nearest the operation. The raw times are printed beside them.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::percentile;

/// The kernel's time on a quiet host of the kind the benchmark was tuned
/// on (2 vCPUs at 2.0 GHz); only ratios to it matter.
pub const REFERENCE_MS: f64 = 1.0;

/// Kernel samples combined for one operation.
const NEAREST: usize = 5;

/// Run the kernel once; returns its wall time in ms.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut v: Vec<u64> = (0..32_768u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
        .collect();
    v.sort_unstable();
    let mut counts = vec![0u32; 1024];
    for x in &v {
        counts[(x % 1021) as usize] += 1;
    }
    black_box((&v, &counts));
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken during a run, in time order.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    samples: Vec<(Instant, f64)>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        let ms = kernel_ms();
        self.samples.push((Instant::now(), ms));
    }

    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    pub fn last_at(&self) -> Option<Instant> {
        self.samples.last().map(|(t, _)| *t)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time of the samples nearest `t`.
    pub fn kernel_at(&self, t: Instant) -> f64 {
        if self.samples.is_empty() {
            return REFERENCE_MS;
        }
        let i = self.samples.partition_point(|(at, _)| *at < t);
        let lo = i.saturating_sub(NEAREST / 2 + 1);
        let hi = (lo + NEAREST).min(self.samples.len());
        let lo = hi.saturating_sub(NEAREST);
        let mut near: Vec<f64> = self.samples[lo..hi].iter().map(|(_, ms)| *ms).collect();
        near.sort_by(f64::total_cmp);
        percentile(&near, 50.0)
    }

    /// Multiply a raw time at `t` by this to state it at reference speed.
    pub fn scale_at(&self, t: Instant) -> f64 {
        REFERENCE_MS / self.kernel_at(t)
    }

    /// Median of all samples (for the report).
    pub fn median_ms(&self) -> f64 {
        let mut all: Vec<f64> = self.samples.iter().map(|(_, ms)| *ms).collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, 50.0)
    }

    pub fn range_ms(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((f64::INFINITY, 0.0), |(lo, hi), (_, ms)| {
                (lo.min(*ms), hi.max(*ms))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn kernel_takes_measurable_time() {
        let ms = kernel_ms();
        assert!(ms > 0.0 && ms < 1000.0);
    }

    #[test]
    fn scale_uses_the_median_of_the_nearest_samples() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut h = HostSpeed::default();
        // A slow phase (1.0 ms) then a fast one (0.5 ms), one outlier each.
        for (s, ms) in [
            (0, 1.0),
            (1, 1.0),
            (2, 9.0),
            (3, 1.0),
            (4, 1.0),
            (10, 0.5),
            (11, 0.5),
            (12, 0.1),
            (13, 0.5),
            (14, 0.5),
        ] {
            h.samples.push((at(s), ms));
        }
        assert_eq!(h.kernel_at(at(2)), 1.0);
        assert_eq!(h.kernel_at(at(12)), 0.5);
        assert_eq!(h.scale_at(at(0)), REFERENCE_MS / 1.0);
        assert_eq!(h.scale_at(at(20)), REFERENCE_MS / 0.5);
        assert_eq!(HostSpeed::default().scale_at(t0), 1.0);
    }
}
