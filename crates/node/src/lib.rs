//! # bp-node — the full-loop BlockPilot node service
//!
//! Every other crate benchmarks one stage in isolation; this crate wires
//! them into the long-running service the paper actually describes: a
//! transaction feed filling a capacity-bounded [`bp_txpool::TxPool`], a
//! [`BlockSource`] — the proposer ([`blockpilot_core::OccWsiProposer`])
//! packing blocks against its own chain of post-states, or a racer that
//! also seals same-height siblings — which encodes what it sealed, and `K`
//! validator nodes — each a full [`blockpilot_core::Validator`] with its
//! four-stage pipeline, settling every height by a lowest-hash fork choice,
//! the first optionally backed by a persistent [`bp_store::Store`] that a
//! later run resumes from. It runs on three threads of its own, whatever
//! `K` is — ingest, proposer and one that serves every validator — joined by
//! **one bounded channel**, so backpressure reaches the proposer instead of
//! a queue growing without bound; the parallel work under them runs on the
//! process's crew. It is the one proposer → validator loop in the tree.
//!
//! The point of the assembly is the paper's Figure-1 overlap in wall-clock:
//! the proposer packs height `N+1` while the wire, validation and
//! persistence of height `N` are still in flight, held back only by the
//! bounded channel. [`run_node`] reports per-stage occupancy,
//! stall shares and in-flight depths ([`StageStats`]) plus sustained
//! committed-tx/s, and can gate the run on a serial replay of the committed
//! chain ([`serial_replay_root`]) so the overlap can never silently
//! diverge from serial semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod service;
mod stats;

pub use config::{NodeConfig, NodeMode};
pub use service::{
    run_node, serial_replay_root, BlockSource, Equivalence, NodeReport, RunningNode, CHANNEL_DEPTH,
};
pub use stats::StageStats;

/// The scenarios of the retired virtual-tick network simulator, run through
/// the product loop: a lone validator, a racer that never races, and a node
/// killed mid-chain and reopened on its store.
#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use blockpilot_core::{PipelineConfig, Validator};
    use bp_store::GroupCommitConfig;
    use bp_testkit::within;
    use bp_workload::{WorkloadConfig, WorkloadGen};

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 100,
            tokens: 3,
            amm_pairs: 1,
            txs_per_block: 24,
            tx_jitter: 4,
            ..WorkloadConfig::default()
        }
    }

    fn pipeline() -> PipelineConfig {
        PipelineConfig {
            workers: 2,
            ..PipelineConfig::default()
        }
    }

    fn config(validators: usize, blocks: u64) -> NodeConfig {
        NodeConfig {
            blocks,
            validators,
            pipeline: pipeline(),
            latency_us: 1..30,
            workload: workload(),
            // At most 256 transactions a block, each at least a transfer's
            // 21 000 gas: small blocks keep the test fast.
            gas_limit: 256 * 21_000,
            ..NodeConfig::default()
        }
    }

    /// Every validator on one head, no failure, serial replay equal.
    fn assert_converged(report: &NodeReport) {
        assert!(report.healthy(), "{report:?}");
        for pair in report.heads.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn single_node_network() {
        within(|| {
            let report =
                RunningNode::spawn_with(config(1, 3), BlockSource::Racer { every: 2 }).join();
            assert_converged(&report);
            assert_eq!(report.heads.len(), 1);
            assert_eq!(report.committed_blocks, 3);
            // Height 2 raced: its sibling is the lone validator's one uncle.
            assert_eq!(report.uncles, vec![1]);
        })
    }

    #[test]
    fn forkless_network_has_no_uncles() {
        within(|| {
            let report =
                RunningNode::spawn_with(config(2, 3), BlockSource::Racer { every: 0 }).join();
            assert_converged(&report);
            assert_eq!(report.committed_blocks, 3);
            assert_eq!(report.uncles, vec![0, 0]);
            // A racer that never races sends one block a height.
            assert_eq!((report.proposer.items, report.codec.items), (3, 3));
        })
    }

    /// A racing three-validator node on a store is stopped once it has
    /// committed at least three heights, then reopened on the same directory
    /// for two more. Validator 0 recovers exactly its durable head; the
    /// others catch up on the recovered chain; the new heights race again.
    #[test]
    fn restarted_node_recovers_and_converges() {
        within(|| {
            let dir = bp_store::store::test_dir("node-restart-racing");
            let source = BlockSource::Racer { every: 2 };
            let config = NodeConfig {
                store_dir: Some(dir.clone()),
                ..config(3, 2)
            };

            let node = RunningNode::spawn_with(
                NodeConfig {
                    blocks: 10_000,
                    ..config.clone()
                },
                source,
            );
            while node.committed_height() < 3 {
                std::thread::sleep(Duration::from_millis(5));
            }
            node.stop();
            let first = node.join();
            assert_converged(&first);
            let stored = first.heads[0].1;
            assert!((3..10_000).contains(&stored), "stopped at {stored}");

            let second = RunningNode::spawn_with(config, source).join();
            assert_converged(&second);
            assert_eq!(second.first_height, stored + 1);
            assert_eq!(
                (second.committed_blocks, second.heads[0].1),
                (2, stored + 2)
            );
            // Catch-up replays canonical blocks only; one of the two new
            // heights is even, so raced.
            assert_eq!(second.uncles, vec![1, 1, 1]);
            assert_eq!(second.validators[0].items, 2);
            for v in &second.validators[1..] {
                assert_eq!(v.items, stored + 2);
            }
            let replayed = second.equivalence.as_ref().map(|eq| eq.blocks);
            assert_eq!(replayed, Some(stored + 2));

            // Reopened cold, the store lands on the same head and root.
            let genesis = WorkloadGen::new(workload()).genesis_state();
            let reopened = Validator::with_store_profile(
                pipeline(),
                genesis,
                &dir,
                GroupCommitConfig::default(),
            )
            .expect("store reopens");
            assert_eq!(reopened.head(), Some(second.heads[0]));
            assert_eq!(reopened.head_state_root(), Some(second.final_root));
            std::fs::remove_dir_all(&dir).ok();
        })
    }

    /// A first life that commits exactly one height leaves a store whose
    /// recovery replays one block on genesis; the second life starts at
    /// height 2 and a fresh validator catches up on that single block.
    #[test]
    fn restart_at_first_height_replays_genesis_only() {
        within(|| {
            let dir = bp_store::store::test_dir("node-restart-early");
            let config = NodeConfig {
                store_dir: Some(dir.clone()),
                ..config(2, 2)
            };
            let first = run_node(NodeConfig {
                blocks: 1,
                validators: 1,
                ..config.clone()
            });
            assert_converged(&first);
            assert_eq!(first.heads[0].1, 1);

            let second = run_node(config);
            assert_converged(&second);
            assert_eq!(second.first_height, 2);
            assert_eq!(second.heads[0].1, 3);
            assert_eq!(
                (second.validators[0].items, second.validators[1].items),
                (2, 3)
            );
            assert_eq!(second.equivalence.as_ref().map(|eq| eq.blocks), Some(3));
            std::fs::remove_dir_all(&dir).ok();
        })
    }
}
