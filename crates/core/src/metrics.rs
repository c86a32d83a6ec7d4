//! Allocation-free metrics capture for experiment runs.
//!
//! The campaign harness (`gossipopt_scenarios`) and the experiment runners
//! need per-tick telemetry — best-so-far quality, live population,
//! delivered messages, wire bytes — without perturbing the hot loop. This
//! module provides a **preallocated ring buffer** tap: every buffer is
//! sized up front from a [`MetricsSpec`], recording a sample is a couple of
//! stores into existing capacity, and when a run outlives the capacity the
//! ring keeps the **most recent** `capacity` samples (the steady-state tail
//! is what convergence analysis wants; the full history is available by
//! sizing the ring to `budget / sample_every`).
//!
//! The tap is observer-only: it draws no randomness and sends no messages,
//! so enabling it cannot shift a seeded trajectory (the committed
//! fingerprints are unchanged whether or not a tap is attached).

use serde::{Deserialize, Serialize};

/// One sampled observation of the running network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Simulated tick of the sample (cycle ticks, or event-kernel
    /// tick-periods).
    pub tick: u64,
    /// Global solution quality `min_p f(g_p) − f*` at the sample (can be
    /// negative when a byzantine fault injected a lying optimum).
    pub best_quality: f64,
    /// Live nodes at the sample.
    pub alive: usize,
    /// Cumulative messages delivered by the kernel up to the sample.
    pub delivered: u64,
    /// Cumulative wire bytes sent up to the sample (see
    /// `Msg::wire_bytes`), net of frame savings: read from the kernel's
    /// wire ledger, so like `RunReport::payload_bytes` it is **exact under
    /// churn** — crashed senders' traffic stays counted.
    pub wire_bytes: u64,
}

/// Declarative tap configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsSpec {
    /// Record a sample every this many ticks (must be positive).
    pub sample_every: u64,
    /// Ring capacity: the number of most-recent samples retained (must be
    /// positive). Memory is `capacity * size_of::<MetricSample>()`,
    /// allocated once.
    pub capacity: usize,
}

impl Default for MetricsSpec {
    fn default() -> Self {
        MetricsSpec {
            sample_every: 10,
            capacity: 512,
        }
    }
}

impl MetricsSpec {
    /// Validate the spec (positive cadence and capacity).
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_every == 0 {
            return Err("metrics.sample_every must be positive".into());
        }
        if self.capacity == 0 {
            return Err("metrics.capacity must be positive".into());
        }
        Ok(())
    }
}

/// Preallocated ring-buffer tap recording [`MetricSample`]s.
///
/// `record` never allocates after construction: the ring overwrites its
/// oldest slot once full. `total_recorded` keeps the true sample count so
/// reports can state whether the series was truncated.
///
/// ```
/// use gossipopt_core::metrics::{MetricSample, MetricsRing, MetricsSpec};
///
/// let mut ring = MetricsRing::new(MetricsSpec { sample_every: 10, capacity: 3 });
/// for tick in 0..=40 {
///     if ring.wants(tick) {
///         ring.record(MetricSample {
///             tick,
///             best_quality: 1.0 / (tick + 1) as f64,
///             alive: 100,
///             delivered: tick * 7,
///             wire_bytes: tick * 64,
///         });
///     }
/// }
/// // 5 samples were taken; the ring retains the most recent 3, in order.
/// assert_eq!(ring.total_recorded(), 5);
/// let ticks: Vec<u64> = ring.to_series().iter().map(|s| s.tick).collect();
/// assert_eq!(ticks, [20, 30, 40]);
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRing {
    every: u64,
    buf: Vec<MetricSample>,
    /// Index of the slot the next sample will be written to.
    head: usize,
    /// Number of valid samples in `buf` (≤ capacity).
    len: usize,
    /// Samples recorded over the whole run (can exceed capacity).
    total: u64,
}

impl MetricsRing {
    /// Allocate a ring for `spec` (panics on a zero cadence/capacity; use
    /// [`MetricsSpec::validate`] to reject those at parse time).
    pub fn new(spec: MetricsSpec) -> Self {
        assert!(spec.sample_every > 0, "sample_every must be positive");
        assert!(spec.capacity > 0, "capacity must be positive");
        MetricsRing {
            every: spec.sample_every,
            buf: Vec::with_capacity(spec.capacity),
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Does the configured cadence want a sample at `tick`?
    #[inline]
    pub fn wants(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.every)
    }

    /// Record one sample (overwrites the oldest once the ring is full).
    #[inline]
    pub fn record(&mut self, sample: MetricSample) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(sample);
            self.head = self.buf.len() % self.buf.capacity();
            self.len = self.buf.len();
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.buf.len();
        }
        self.total += 1;
    }

    /// Samples recorded over the whole run (may exceed what the ring holds).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Copy the retained samples out in chronological order.
    pub fn to_series(&self) -> Vec<MetricSample> {
        let mut out = Vec::with_capacity(self.len);
        if self.len < self.buf.capacity() {
            out.extend_from_slice(&self.buf);
        } else {
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> MetricSample {
        MetricSample {
            tick,
            best_quality: tick as f64,
            alive: 1,
            delivered: tick,
            wire_bytes: 2 * tick,
        }
    }

    #[test]
    fn cadence_filters_ticks() {
        let ring = MetricsRing::new(MetricsSpec {
            sample_every: 5,
            capacity: 4,
        });
        assert!(ring.wants(5) && ring.wants(10) && ring.wants(0));
        assert!(!ring.wants(1) && !ring.wants(9));
    }

    #[test]
    fn partial_ring_keeps_everything_in_order() {
        let mut ring = MetricsRing::new(MetricsSpec {
            sample_every: 1,
            capacity: 8,
        });
        for t in 1..=5 {
            ring.record(sample(t));
        }
        let s = ring.to_series();
        assert_eq!(
            s.iter().map(|s| s.tick).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        assert_eq!(ring.total_recorded(), 5);
    }

    #[test]
    fn full_ring_keeps_most_recent_in_order() {
        let mut ring = MetricsRing::new(MetricsSpec {
            sample_every: 1,
            capacity: 4,
        });
        for t in 1..=11 {
            ring.record(sample(t));
        }
        let s = ring.to_series();
        assert_eq!(s.iter().map(|s| s.tick).collect::<Vec<_>>(), [8, 9, 10, 11]);
        assert_eq!(ring.total_recorded(), 11);
    }

    #[test]
    fn record_never_grows_the_buffer() {
        let mut ring = MetricsRing::new(MetricsSpec {
            sample_every: 1,
            capacity: 3,
        });
        let cap = ring.buf.capacity();
        for t in 0..100 {
            ring.record(sample(t));
        }
        assert_eq!(ring.buf.capacity(), cap, "ring must stay preallocated");
        assert_eq!(ring.to_series().len(), 3);
    }

    #[test]
    fn spec_validation_rejects_zeroes() {
        assert!(MetricsSpec {
            sample_every: 0,
            capacity: 1
        }
        .validate()
        .is_err());
        assert!(MetricsSpec {
            sample_every: 1,
            capacity: 0
        }
        .validate()
        .is_err());
        assert!(MetricsSpec::default().validate().is_ok());
    }

    #[test]
    fn sample_round_trips_through_json() {
        let s = sample(42);
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricSample = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn cadence_not_dividing_budget_samples_only_full_periods() {
        // budget 47, sample_every 10: samples land on 0,10,20,30,40 — the
        // trailing partial period past tick 40 contributes nothing.
        let mut ring = MetricsRing::new(MetricsSpec {
            sample_every: 10,
            capacity: 64,
        });
        for tick in 0..47 {
            if ring.wants(tick) {
                ring.record(sample(tick));
            }
        }
        let ticks: Vec<u64> = ring.to_series().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, [0, 10, 20, 30, 40]);
        assert_eq!(ring.total_recorded(), 5);
    }

    proptest::proptest! {
        /// Wraparound invariant: after `n > c` samples, a capacity-`c`
        /// ring retains exactly the last `c` samples, in order, while
        /// `total_recorded` still reports the true count.
        #[test]
        fn wraparound_retains_exactly_the_last_capacity_samples(
            capacity in 1usize..32,
            overshoot in 1u64..100,
        ) {
            let n = capacity as u64 + overshoot;
            let mut ring = MetricsRing::new(MetricsSpec {
                sample_every: 1,
                capacity,
            });
            for t in 0..n {
                ring.record(sample(t));
            }
            let ticks: Vec<u64> =
                ring.to_series().iter().map(|s| s.tick).collect();
            let expected: Vec<u64> = (n - capacity as u64..n).collect();
            proptest::prop_assert_eq!(ticks, expected);
            proptest::prop_assert_eq!(ring.total_recorded(), n);
        }

        /// Under-capacity rings keep every sample in order regardless of
        /// the sampling cadence.
        #[test]
        fn partial_ring_is_lossless_for_any_cadence(
            every in 1u64..20,
            budget in 0u64..200,
            capacity in 256usize..300,
        ) {
            let mut ring = MetricsRing::new(MetricsSpec {
                sample_every: every,
                capacity,
            });
            let mut expected = Vec::new();
            for tick in 0..budget {
                if ring.wants(tick) {
                    ring.record(sample(tick));
                    expected.push(tick);
                }
            }
            let ticks: Vec<u64> =
                ring.to_series().iter().map(|s| s.tick).collect();
            proptest::prop_assert_eq!(&ticks, &expected);
            // The cadence may not divide the budget: the count is the
            // ceiling of budget / every, never rounded up past it.
            let want = budget.div_ceil(every);
            proptest::prop_assert_eq!(ring.total_recorded(), want);
        }
    }
}
