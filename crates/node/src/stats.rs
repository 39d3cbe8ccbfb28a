//! Per-stage occupancy and in-flight-depth instrumentation.
//!
//! Each thread of the node keeps the [`StageStats`] of the stages it runs —
//! the proposer thread its own and the encode's, the validators thread one
//! per validator — and accounts each moment of a stage's life to exactly one
//! bucket: *busy* (doing its work), *wait* (blocked receiving — starved by
//! the upstream stage; the validators thread charges its time on an empty
//! wire to every validator it serves), *stall* (blocked sending —
//! backpressured by the downstream stage) or *injected* (deliberate
//! wire-latency sleeps). A validator stage samples how many heights it
//! holds in flight at each submit, so a stage that keeps running ahead of
//! its verdicts shows without guesswork.

/// Counters for one pipeline stage.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    /// Units processed (blocks for the block stages, transactions for
    /// ingest).
    pub items: u64,
    /// Microseconds spent doing the stage's own work.
    pub busy_micros: u64,
    /// Microseconds blocked receiving from the upstream stage.
    pub wait_micros: u64,
    /// Microseconds blocked sending to the downstream stage (backpressure).
    pub stall_micros: u64,
    /// Microseconds of deliberately injected wire latency (validator stages
    /// only).
    pub injected_micros: u64,
    /// Deepest queue observed: for a validator stage, the most heights it
    /// held in flight at once (sampled at each submit).
    pub max_queue_depth: usize,
}

impl StageStats {
    /// Fraction of `wall_micros` this stage spent busy.
    pub fn occupancy(&self, wall_micros: u64) -> f64 {
        if wall_micros == 0 {
            0.0
        } else {
            self.busy_micros as f64 / wall_micros as f64
        }
    }

    /// Fraction of `wall_micros` this stage spent backpressured.
    pub fn stall_share(&self, wall_micros: u64) -> f64 {
        if wall_micros == 0 {
            0.0
        } else {
            self.stall_micros as f64 / wall_micros as f64
        }
    }

    /// Records a queue-depth sample.
    pub fn sample_depth(&mut self, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }
}

/// Microseconds elapsed since `start`, saturating into `u64`.
pub(crate) fn micros_since(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_and_stall_shares() {
        let stats = StageStats {
            items: 10,
            busy_micros: 250,
            wait_micros: 500,
            stall_micros: 250,
            injected_micros: 0,
            max_queue_depth: 3,
        };
        assert!((stats.occupancy(1000) - 0.25).abs() < 1e-12);
        assert!((stats.stall_share(1000) - 0.25).abs() < 1e-12);
        assert_eq!(stats.occupancy(0), 0.0);
    }

    #[test]
    fn depth_sampling_keeps_the_max() {
        let mut stats = StageStats::default();
        for d in [1, 4, 2] {
            stats.sample_depth(d);
        }
        assert_eq!(stats.max_queue_depth, 4);
    }
}
