//! Open-loop load: a fixed-rate schedule over staggered streams, and the
//! accounting that charges every window from the moment it was due.
//!
//! A window's clock starts when the schedule says it is due, not when the
//! generator got round to sending it, so a stall delays every window
//! behind it and shows. A window the service refuses is never retried; it
//! counts as a miss.

use perspectron::faults::{mix, XorShift64};

/// Which window is due when.
#[derive(Debug, Clone)]
pub struct Schedule {
    period_ns: u64,
    rounds: u64,
    /// `(offset within a period, stream)`, sorted by offset.
    order: Vec<(u64, u32)>,
}

impl Schedule {
    /// `streams` streams, each sending one window every
    /// `streams / rate_per_s` seconds at its own seed-drawn offset within
    /// the period, for as many whole periods as fit in `seconds`.
    pub fn new(streams: usize, rate_per_s: f64, seconds: f64, seed: u64) -> Self {
        assert!(streams > 0 && rate_per_s > 0.0, "empty schedule");
        let period_ns = (streams as f64 / rate_per_s * 1e9).round() as u64;
        let rounds = (seconds * 1e9 / period_ns as f64).floor().max(1.0) as u64;
        let mut rng = XorShift64::new(mix(seed ^ 0x57a6_6e72));
        let mut order: Vec<(u64, u32)> = (0..streams as u32)
            .map(|s| (rng.next() % period_ns, s))
            .collect();
        order.sort_unstable();
        Self {
            period_ns,
            rounds,
            order,
        }
    }

    /// Windows each stream sends.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The `i`-th window in due order: `(stream, due time in ns after the
    /// schedule's start)`.
    pub fn window(&self, i: usize) -> (u32, u64) {
        let n = self.order.len();
        let (offset, stream) = self.order[i % n];
        (stream, (i / n) as u64 * self.period_ns + offset)
    }
}

/// What became of the windows an open-loop generator owed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    due: u64,
    refused: u64,
    /// Lateness of every accepted window: send time minus due time, ns.
    late_ns: Vec<u64>,
}

impl Tally {
    /// Records a window sent at `sent_ns` that was due at `due_ns` and
    /// accepted by the service.
    pub fn accepted(&mut self, due_ns: u64, sent_ns: u64) {
        self.due += 1;
        self.late_ns.push(sent_ns.saturating_sub(due_ns));
    }

    /// Records a window the service refused.
    pub fn refused(&mut self) {
        self.due += 1;
        self.refused += 1;
    }

    /// Windows due so far.
    pub fn due(&self) -> u64 {
        self.due
    }

    /// Windows refused so far.
    pub fn refused_count(&self) -> u64 {
        self.refused
    }

    /// Lateness of the accepted windows, ascending, in ns.
    pub fn sorted_late_ns(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.late_ns.iter().map(|&x| x as f64).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Windows that missed a `limit_us` latency limit: every refusal,
    /// every window sent later than the limit after it was due, and every
    /// window the service took longer than the limit to score
    /// (`service_latency_us`, measured by the service from the submit
    /// call). The two latency sources are not paired per window, so a
    /// window that is both late and slow counts twice; the total is
    /// capped at the windows due.
    pub fn slo_misses(&self, service_latency_us: &[u32], limit_us: u32) -> u64 {
        let limit_ns = u64::from(limit_us) * 1000;
        let late = self.late_ns.iter().filter(|&&l| l > limit_ns).count() as u64;
        let slow = service_latency_us.iter().filter(|&&l| l > limit_us).count() as u64;
        (self.refused + late + slow).min(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_runs_at_the_rate_and_staggers_streams() {
        let s = Schedule::new(1024, 100_000.0, 0.5, 7);
        // 1024 streams at 100K windows/s: one round every 10.24 ms.
        assert_eq!(s.rounds(), (0.5e9 / 10_240_000.0) as u64);
        let mut last = 0;
        let mut seen = vec![0u64; 1024];
        for i in 0..1024 * s.rounds() as usize {
            let (stream, due) = s.window(i);
            assert!(due >= last, "windows come out in due order");
            last = due;
            seen[stream as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == s.rounds()));
        // The offsets depend on the seed; the rate does not.
        let other = Schedule::new(1024, 100_000.0, 0.5, 8);
        assert_eq!(other.rounds(), s.rounds());
        assert_ne!(other.window(0), s.window(0));
        assert_eq!(
            Schedule::new(1024, 100_000.0, 0.5, 7).window(77),
            s.window(77)
        );
    }

    #[test]
    fn a_refusal_is_a_miss_and_lateness_runs_from_the_due_time() {
        let mut t = Tally::default();
        t.accepted(1_000, 1_200); // 0.2 µs late
        t.accepted(2_000, 2_000 + 1_500_000); // 1.5 ms late: misses 1 ms
        t.refused();
        assert_eq!(t.due(), 3);
        assert_eq!(t.refused_count(), 1);
        assert_eq!(t.sorted_late_ns(), vec![200.0, 1_500_000.0]);
        // Service latencies all within the limit: the late window and the
        // refused one miss.
        assert_eq!(t.slo_misses(&[40, 900], 1_000), 2);
        // A slow score misses too, even when sent on time.
        assert_eq!(t.slo_misses(&[40, 1_001], 1_000), 3);
        // Never more misses than windows due.
        assert_eq!(t.slo_misses(&[5_000, 5_000, 5_000], 1_000), 3);
    }

    #[test]
    fn an_all_refused_run_misses_everything() {
        let mut t = Tally::default();
        for _ in 0..5 {
            t.refused();
        }
        assert_eq!(t.slo_misses(&[], 1_000), 5);
    }
}
