//! Virtual-time model of single-block validation (Figures 7(a), 7(b), 8).
//!
//! The validator's wall time for one block decomposes into the preparation
//! cost (scheduling), the slowest lane's execution time, and the applier's
//! serial verification — with the applier pipelined against execution, so
//! only its excess over the execution makespan shows up.

use blockpilot_core::scheduler::Schedule;
use bp_block::BlockProfile;
use bp_types::Gas;

use crate::CostModel;

/// Result of one simulated single-block validation.
#[derive(Clone, Copy, Debug)]
pub struct ValidatorSimResult {
    /// Total virtual time: prepare + max(lane makespan, applier) (gas-time).
    pub makespan: Gas,
    /// Serial-execution time of the block (total gas).
    pub serial_gas: Gas,
    /// serial_gas / makespan.
    pub speedup: f64,
    /// Fraction of transactions in the largest dependency subgraph.
    pub largest_subgraph_ratio: f64,
}

/// Computes the virtual-time cost of validating one block with the given
/// (already computed) schedule.
pub fn simulate_validator(
    schedule: &Schedule,
    profile: &BlockProfile,
    model: &CostModel,
) -> ValidatorSimResult {
    let n: usize = schedule.lanes.iter().map(Vec::len).sum();
    let serial_gas: Gas = profile.entries.iter().map(|e| e.gas_used).sum();
    let prepare = model.prepare_per_tx * n as u64;
    let lane_makespan: Gas = schedule
        .lanes
        .iter()
        .map(|lane| {
            lane.iter()
                .map(|&i| profile.entries[i].gas_used + model.per_tx_dispatch)
                .sum::<Gas>()
        })
        .max()
        .unwrap_or(0);
    let applier = model.applier_per_tx * n as u64;
    // The applier consumes lane results as they stream in; it only extends
    // the critical path by whatever exceeds the execution makespan, plus the
    // final transaction's verification.
    let exec_and_apply = lane_makespan.max(applier) + model.applier_per_tx.min(applier);
    let makespan = prepare + exec_and_apply;
    ValidatorSimResult {
        makespan,
        serial_gas,
        speedup: if makespan == 0 {
            1.0
        } else {
            serial_gas as f64 / makespan as f64
        },
        largest_subgraph_ratio: schedule.largest_subgraph_ratio(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
    use bp_block::TxProfile;
    use bp_types::{AccessKey, Address, RwSet, U256};

    fn entry(writes: &[u64], gas: Gas) -> TxProfile {
        let mut rw = RwSet::new();
        for &w in writes {
            rw.record_write(AccessKey::Balance(Address::from_index(w)), U256::ONE);
        }
        TxProfile::from_rw(&rw, gas)
    }

    fn model() -> CostModel {
        CostModel {
            per_tx_dispatch: 0,
            commit_sync: 0,
            commit_admit: 0,
            state_contention_permille: 0,
            prepare_per_tx: 0,
            applier_per_tx: 0,
            block_switch: 0,
            applier_switch: 0,
        }
    }

    #[test]
    fn independent_txs_scale_linearly_with_zero_overhead() {
        let profile = BlockProfile {
            entries: (0..8).map(|i| entry(&[i + 1], 100)).collect(),
        };
        let schedule = Scheduler::new(ConflictGranularity::Account).schedule(&profile, 4);
        let r = simulate_validator(&schedule, &profile, &model());
        assert_eq!(r.serial_gas, 800);
        assert_eq!(r.makespan, 200); // 8 txs over 4 lanes
        assert!((r.speedup - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fully_conflicting_block_gets_no_speedup() {
        let profile = BlockProfile {
            entries: (0..6).map(|_| entry(&[1], 100)).collect(),
        };
        let schedule = Scheduler::new(ConflictGranularity::Account).schedule(&profile, 4);
        let r = simulate_validator(&schedule, &profile, &model());
        assert_eq!(r.makespan, 600);
        assert!((r.speedup - 1.0).abs() < 1e-9);
        assert!((r.largest_subgraph_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overheads_reduce_speedup() {
        let profile = BlockProfile {
            entries: (0..8).map(|i| entry(&[i + 1], 10_000)).collect(),
        };
        let schedule = Scheduler::new(ConflictGranularity::Account).schedule(&profile, 8);
        let zero = simulate_validator(&schedule, &profile, &model());
        let real = simulate_validator(&schedule, &profile, &CostModel::default());
        assert!(real.speedup < zero.speedup);
        assert!(real.makespan > zero.makespan);
    }

    #[test]
    fn applier_bottleneck_caps_wide_blocks() {
        // 64 tiny transactions, 64 lanes: execution is instant but the
        // applier's serial pass dominates.
        let profile = BlockProfile {
            entries: (0..64).map(|i| entry(&[i + 1], 10)).collect(),
        };
        let schedule = Scheduler::new(ConflictGranularity::Account).schedule(&profile, 64);
        let m = CostModel {
            applier_per_tx: 1_000,
            per_tx_dispatch: 0,
            prepare_per_tx: 0,
            commit_sync: 0,
            commit_admit: 0,
            state_contention_permille: 0,
            block_switch: 0,
            applier_switch: 0,
        };
        let r = simulate_validator(&schedule, &profile, &m);
        assert!(r.makespan >= 64_000);
    }

    #[test]
    fn empty_block() {
        let profile = BlockProfile::default();
        let schedule = Scheduler::new(ConflictGranularity::Account).schedule(&profile, 4);
        let r = simulate_validator(&schedule, &profile, &CostModel::default());
        assert_eq!(r.makespan, 0);
        assert_eq!(r.speedup, 1.0);
    }
}
