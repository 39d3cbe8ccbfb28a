//! Virtual-time model of the multi-block validator pipeline (Figure 9).
//!
//! `B` blocks (the paper simulates same-height replicas) share one worker
//! pool. Lanes from *all* in-flight blocks are list-scheduled onto the
//! workers; a worker that picks up a lane belonging to a different block
//! than its previous lane pays a context-switch penalty (§5.6: "workers
//! \[need\] to shift between different contexts to handle distinct blocks
//! and send out relevant information"), and a single streaming applier
//! works through every block's verification stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use blockpilot_core::scheduler::Schedule;
use bp_block::BlockProfile;
use bp_types::Gas;

use crate::CostModel;

/// Result of one simulated multi-block run.
#[derive(Clone, Copy, Debug)]
pub struct MultiBlockSimResult {
    /// Virtual time until the last block finished validation.
    pub makespan: Gas,
    /// Sum of all blocks' serial execution times.
    pub serial_gas: Gas,
    /// serial_gas / makespan — the paper's multi-block speedup (relative to
    /// serial execution of all blocks).
    pub speedup: f64,
    /// Number of context switches workers performed.
    pub switches: u64,
}

/// Simulates validating `blocks` concurrently on `workers` workers.
///
/// Each element pairs a block's schedule with its profile. Blocks are
/// assumed independent (same height), matching the paper's §5.6 setup.
pub fn simulate_multiblock(
    blocks: &[(Schedule, &BlockProfile)],
    workers: usize,
    model: &CostModel,
) -> MultiBlockSimResult {
    assert!(workers > 0);
    // Build the global lane list: (block id, lane gas including dispatch).
    struct Lane {
        block: usize,
        gas: Gas,
    }
    let mut lanes: Vec<Lane> = Vec::new();
    let mut block_exec_remaining: Vec<usize> = vec![0; blocks.len()];
    let mut serial_gas: Gas = 0;
    for (b, (schedule, profile)) in blocks.iter().enumerate() {
        serial_gas += profile.entries.iter().map(|e| e.gas_used).sum::<Gas>();
        for lane in schedule.lanes.iter().filter(|l| !l.is_empty()) {
            let gas: Gas = lane
                .iter()
                .map(|&i| profile.entries[i].gas_used + model.per_tx_dispatch)
                .sum();
            lanes.push(Lane { block: b, gas });
            block_exec_remaining[b] += 1;
        }
    }
    // LPT across all blocks, ties broken by block id for determinism.
    lanes.sort_by(|a, b| b.gas.cmp(&a.gas).then(a.block.cmp(&b.block)));

    // Workers: min-heap of (available time, worker id); remember each
    // worker's last block for the switch penalty.
    let mut heap: BinaryHeap<Reverse<(Gas, usize)>> =
        (0..workers).map(|w| Reverse((0, w))).collect();
    let mut last_block: Vec<Option<usize>> = vec![None; workers];
    let mut block_exec_finish: Vec<Gas> = vec![0; blocks.len()];
    let mut switches: u64 = 0;

    for lane in &lanes {
        let Reverse((avail, w)) = heap.pop().expect("workers > 0");
        let mut start = avail;
        if last_block[w] != Some(lane.block) {
            if last_block[w].is_some() {
                switches += 1;
            }
            start += model.block_switch;
            last_block[w] = Some(lane.block);
        }
        let finish = start + lane.gas;
        block_exec_finish[lane.block] = block_exec_finish[lane.block].max(finish);
        heap.push(Reverse((finish, w)));
    }

    // With B blocks in flight the applier interleaves B result streams: a
    // `(B-1)/B` fraction of results arrive from a different block than the
    // previous one and pay the cross-context cost.
    let b_count = blocks.len().max(1) as u64;
    let applier_tx_cost = model.applier_per_tx + model.applier_switch * (b_count - 1) / b_count;
    // The applier streams: it consumes results from every in-flight block
    // while lanes still execute, so the run ends when both the slowest lane
    // has finished (plus its block's preparation) and the single applier has
    // worked through every block's verification stream.
    let mut exec_makespan: Gas = 0;
    let mut total_applier: Gas = 0;
    for (b, (_, profile)) in blocks.iter().enumerate() {
        let n = profile.entries.len() as u64;
        exec_makespan = exec_makespan.max(block_exec_finish[b] + model.prepare_per_tx * n);
        total_applier += applier_tx_cost * n;
    }
    let makespan = exec_makespan.max(total_applier);

    MultiBlockSimResult {
        makespan,
        serial_gas,
        speedup: if makespan == 0 {
            1.0
        } else {
            serial_gas as f64 / makespan as f64
        },
        switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
    use bp_block::TxProfile;
    use bp_types::{AccessKey, Address, RwSet, U256};

    fn profile(n: usize, conflict_groups: usize, gas: Gas) -> BlockProfile {
        let entries = (0..n)
            .map(|i| {
                let mut rw = RwSet::new();
                rw.record_write(
                    AccessKey::Balance(Address::from_index((i % conflict_groups) as u64 + 1)),
                    U256::ONE,
                );
                TxProfile::from_rw(&rw, gas)
            })
            .collect();
        BlockProfile { entries }
    }

    fn sched(p: &BlockProfile, lanes: usize) -> Schedule {
        Scheduler::new(ConflictGranularity::Account).schedule(p, lanes)
    }

    #[test]
    fn one_block_equals_validator_model_roughly() {
        let p = profile(16, 4, 10_000);
        let s = sched(&p, 16);
        let m = CostModel {
            block_switch: 0,
            ..CostModel::default()
        };
        let r = simulate_multiblock(&[(s, &p)], 16, &m);
        // 4 conflict groups of 4 txs: lane makespan = 4 * (10000+1500).
        assert!(r.makespan >= 46_000);
        assert_eq!(r.serial_gas, 160_000);
    }

    #[test]
    fn more_blocks_improve_utilization() {
        // A block whose critical path uses only 4 of 16 workers: adding a
        // second and fourth block fills the idle workers.
        let p = profile(32, 4, 30_000);
        let model = CostModel::default();
        let mk = |count: usize| {
            let blocks: Vec<_> = (0..count).map(|_| (sched(&p, 16), &p)).collect();
            simulate_multiblock(&blocks, 16, &model)
        };
        let one = mk(1);
        let two = mk(2);
        let four = mk(4);
        assert!(
            two.speedup > one.speedup,
            "{} vs {}",
            two.speedup,
            one.speedup
        );
        assert!(
            four.speedup > two.speedup,
            "{} vs {}",
            four.speedup,
            two.speedup
        );
    }

    #[test]
    fn oversubscription_declines_once_applier_binds() {
        // Small transactions make the applier the binding resource; its
        // cross-block interleaving cost then grows with the block count and
        // the speedup declines past the saturation point.
        let p = profile(64, 8, 4_000);
        let model = CostModel {
            block_switch: 20_000,
            applier_per_tx: 800,
            applier_switch: 2_400,
            ..CostModel::default()
        };
        let mk = |count: usize| {
            let blocks: Vec<_> = (0..count).map(|_| (sched(&p, 16), &p)).collect();
            simulate_multiblock(&blocks, 16, &model)
        };
        let four = mk(4);
        let eight = mk(8);
        assert!(
            eight.speedup < four.speedup,
            "8 blocks {} vs 4 blocks {}",
            eight.speedup,
            four.speedup
        );
        assert!(eight.switches > four.switches);
    }

    #[test]
    fn deterministic() {
        let p = profile(20, 5, 7_000);
        let blocks: Vec<_> = (0..3).map(|_| (sched(&p, 8), &p)).collect();
        let a = simulate_multiblock(&blocks, 8, &CostModel::default());
        let b = simulate_multiblock(&blocks, 8, &CostModel::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.switches, b.switches);
    }

    #[test]
    fn empty_input() {
        let r = simulate_multiblock(&[], 4, &CostModel::default());
        assert_eq!(r.makespan, 0);
        assert_eq!(r.speedup, 1.0);
    }
}
