//! Open-loop schedule: operation `k` is due at `start + k / rate`, whether
//! or not earlier operations have finished. Latency is timed from the due
//! time, so a stall also charges the wait it imposes on every operation
//! queued behind it; how late the generator itself sends is reported apart.

use std::time::{Duration, Instant};

/// A send is late when it leaves more than this after its due time.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, rate_per_s: f64) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval * u32::try_from(k).expect("schedule index fits in u32")
    }

    /// Sleep until operation `k` is due; returns its due time at once when
    /// the generator is already behind.
    pub fn wait(&self, k: u64) -> Instant {
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        due
    }
}

/// One open-loop operation's timing, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// From due time to completion.
    pub latency_ms: f64,
    /// From due time to the actual send.
    pub late_ms: f64,
}

impl Timing {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> Timing {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Timing {
            latency_ms: ms(done.saturating_duration_since(due)),
            late_ms: ms(sent.saturating_duration_since(due)),
        }
    }

    pub fn is_late(&self) -> bool {
        self.late_ms > LATE_AFTER.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_replies() {
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 200.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1) - t0, Duration::from_millis(5));
        assert_eq!(s.due(400) - t0, Duration::from_secs(2));
    }

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        // 100/s; operation 0 takes 35 ms, so 1..=3 are sent when it ends.
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 100.0);
        let ms = Duration::from_millis;
        let stall_end = t0 + ms(35);
        let first = Timing::new(s.due(0), t0, stall_end);
        assert!((first.latency_ms - 35.0).abs() < 1e-9 && !first.is_late());
        let queued: Vec<Timing> = (1..=3)
            .map(|k| Timing::new(s.due(k), stall_end, stall_end + ms(1)))
            .collect();
        let lates: Vec<f64> = queued.iter().map(|t| t.late_ms.round()).collect();
        assert_eq!(lates, vec![25.0, 15.0, 5.0]);
        assert!(queued.iter().all(Timing::is_late));
        // Latency counts the wait: due at 10 ms, done at 36 ms.
        assert!((queued[0].latency_ms - 26.0).abs() < 1e-9);
        // Back on schedule: sent on time, not late.
        let on_time = Timing::new(s.due(4), s.due(4), s.due(4) + ms(1));
        assert!(!on_time.is_late());
    }

    #[test]
    fn wait_sleeps_until_due_and_not_when_behind() {
        let t0 = Instant::now();
        let s = OpenLoop::new(t0, 250.0);
        let due = s.wait(2);
        assert!(Instant::now() >= due && due - t0 == Duration::from_millis(8));
        let behind = OpenLoop::new(t0 - Duration::from_secs(1), 250.0);
        let before = Instant::now();
        behind.wait(1);
        assert!(before.elapsed() < Duration::from_millis(5));
    }
}
