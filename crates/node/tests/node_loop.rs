//! End-to-end tests of the streaming node loop: serial-replay equivalence,
//! backpressure through the bounded channel, clean mid-stream shutdown with store
//! agreement, multi-validator convergence, racing same-height siblings, and
//! a node restarted on its store. Each test runs under the watchdog: a node
//! that never reaches its height (a proposer whose seals every validator
//! rejects spins two cores) fails the test instead of hanging it.

use std::path::Path;
use std::time::Duration;

use blockpilot_core::{PipelineConfig, Validator};
use bp_node::{run_node, BlockSource, NodeConfig, NodeReport, RunningNode, CHANNEL_DEPTH};
use bp_store::GroupCommitConfig;
use bp_testkit::within;
use bp_workload::{WorkloadConfig, WorkloadGen};

fn small_workload() -> WorkloadConfig {
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

fn small_config() -> NodeConfig {
    NodeConfig {
        blocks: 5,
        proposer_threads: 2,
        pipeline: pipeline(),
        validators: 2,
        workload: small_workload(),
        // At most 256 transactions a block, each at least a transfer's
        // 21 000 gas: small blocks keep the test fast.
        gas_limit: 256 * 21_000,
        ..NodeConfig::default()
    }
}

/// One fsync batch per four heights.
const BATCHED: GroupCommitConfig = GroupCommitConfig { max_blocks: 4 };

/// Reopens the store at `dir` cold: replay must land on exactly the run's
/// head and root, and the store's durable head must be that head.
fn assert_store_holds(dir: &Path, report: &NodeReport) -> Validator {
    let genesis = WorkloadGen::new(small_workload()).genesis_state();
    let reopened =
        Validator::with_store_profile(pipeline(), genesis, dir, GroupCommitConfig::default())
            .expect("store reopens");
    assert_eq!(reopened.head(), Some(report.heads[0]));
    assert_eq!(reopened.head_state_root(), Some(report.final_root));
    let stored_head = reopened
        .with_store_ref(|store| store.head())
        .expect("store-backed");
    assert_eq!(stored_head, Some(report.heads[0].0));
    reopened
}

/// Spawns a node with far more heights than it will run, lets it commit
/// `height`, then stops it.
fn run_until(config: NodeConfig, height: u64) -> NodeReport {
    let node = RunningNode::spawn(NodeConfig {
        blocks: 10_000,
        ..config
    });
    while node.committed_height() < height {
        std::thread::sleep(Duration::from_millis(5));
    }
    node.stop();
    let report = node.join();
    assert!(report.committed_blocks >= height);
    assert!(report.committed_blocks < 10_000, "stop was ignored");
    report
}

#[test]
fn pipelined_loop_commits_and_matches_serial_replay() {
    within(|| {
        let report = run_node(small_config());
        assert_eq!(report.first_height, 1);
        assert_eq!(report.committed_blocks, 5);
        assert!(report.committed_txs > 0);
        assert_eq!(report.validation_failures, 0);
        // One candidate a height: nothing to lose a fork choice.
        assert_eq!(report.uncles, vec![0, 0]);
        let eq = report.equivalence.as_ref().expect("gate ran");
        assert!(
            eq.ok,
            "serial {:?} != node {:?}",
            eq.serial_root, eq.node_root
        );
        assert!(report.healthy());
    })
}

/// Slow validators: the proposer must fill the bounded channel, stall on
/// backpressure, and resume as the drain frees slots — without losing or
/// reordering any block.
#[test]
fn bounded_channels_stall_the_proposer_then_drain() {
    within(|| {
        // The channel holds `depth` heights and the validators thread one in
        // hand and fewer than `depth` in flight; the run is more than twice
        // that, so the bound must bite.
        let blocks = 4 * (CHANNEL_DEPTH as u64 + 1);
        let report = run_node(NodeConfig {
            // 3 ms injected latency per block delivery makes the wire the slow
            // stage; the proposer packs far faster and must hit the bound.
            latency_us: 3000..3001,
            blocks,
            ..small_config()
        });
        assert_eq!(report.committed_blocks, blocks);
        assert!(report.healthy());
        assert!(
            report.proposer.stall_micros > 0,
            "proposer never felt backpressure: {:?}",
            report.proposer
        );
        // Injected latency is accounted separately from useful work.
        for v in &report.validators {
            assert!(v.injected_micros >= blocks * 3000);
        }
        // The wire ran ahead of the verdicts, and a stage never holds more
        // heights in flight than the constant: the gauge the benchmark reads.
        assert!(
            (1..=CHANNEL_DEPTH).contains(&report.codec.max_queue_depth),
            "{:?}",
            report.codec
        );
    })
}

/// Stop mid-stream: every block already in flight drains to all validators,
/// heads agree, and the persisted store reopens to exactly the in-memory
/// head (no lost or duplicated blocks) — also under group commit (one fsync
/// batch per few heights), where the shutdown flush has to make the open
/// batch durable.
#[test]
fn clean_shutdown_drains_in_flight_blocks_and_store_agrees() {
    within(|| {
        for group_commit in [GroupCommitConfig::default(), BATCHED] {
            let dir = bp_store::store::test_dir("node-shutdown");
            let report = run_until(
                NodeConfig {
                    store_dir: Some(dir.clone()),
                    group_commit,
                    ..small_config()
                },
                6,
            );
            // Heads agree, no validation failure, equivalent to serial replay.
            assert!(report.healthy());
            assert_eq!(report.heads[0].1, report.committed_blocks);
            assert_store_holds(&dir, &report);
            std::fs::remove_dir_all(&dir).ok();
        }
    })
}

/// A racing source seals a sibling every second height. Three validators on
/// jittered links receive both siblings of a raced height in the order the
/// seed drew, validate them side by side, commit the same winner, count the
/// other as an uncle, and end on the serial replay's root.
#[test]
fn racing_siblings_converge() {
    within(|| {
        let report = RunningNode::spawn_with(
            NodeConfig {
                validators: 3,
                latency_us: 100..1500,
                blocks: 8,
                ..small_config()
            },
            BlockSource::Racer { every: 2 },
        )
        .join();
        // Heads equal, no failure, serial replay equal.
        assert!(report.healthy(), "{report:?}");
        assert_eq!(report.committed_blocks, 8);
        assert_eq!(report.uncles, vec![4, 4, 4]);
        // Eight heights, four of them with a sibling: twelve blocks out.
        assert_eq!((report.proposer.items, report.codec.items), (12, 12));
    })
}

/// Kill and reopen: a first life on a store is stopped mid-stream, after
/// one height or after six, with and without group commit. A second life
/// on the same directory resumes one height above the stored head;
/// validator 0 recovers the chain from disk and validator 1, fresh from
/// genesis, catches up on it before the new heights. Both end on one head,
/// the serial replay of the whole chain agrees, and the store reopens cold
/// onto that head with its root on disk.
#[test]
fn a_node_restarted_on_its_store_resumes_and_catches_up() {
    within(|| {
        let one = GroupCommitConfig::default();
        for (stop_at, group_commit) in [(1, one), (6, one), (1, BATCHED), (6, BATCHED)] {
            let dir = bp_store::store::test_dir("node-restart");
            let config = NodeConfig {
                store_dir: Some(dir.clone()),
                group_commit,
                ..small_config()
            };
            let first = run_until(
                NodeConfig {
                    validators: 1,
                    ..config.clone()
                },
                stop_at,
            );
            assert!(first.healthy());
            let stored = first.heads[0].1;

            let second = run_node(NodeConfig {
                blocks: 4,
                ..config
            });
            // Heads equal, no failure, serial replay equal.
            assert!(second.healthy(), "{second:?}");
            assert_eq!(second.first_height, stored + 1);
            assert_eq!(
                (second.committed_blocks, second.heads[0].1),
                (4, stored + 4)
            );
            assert!(second.committed_txs > 0);
            // Validator 1 caught up on the stored chain, then took this run's.
            assert_eq!(second.validators[0].items, 4);
            assert_eq!(second.validators[1].items, stored + 4);
            let replayed = second.equivalence.as_ref().map(|eq| eq.blocks);
            assert_eq!(
                replayed,
                Some(stored + 4),
                "the gate replays the whole chain"
            );
            // Ingest continued every sender's nonce from the stored head: no
            // height of this run lost its transactions as stale-nonce discards.
            let reopened = assert_store_holds(&dir, &second);
            for height in second.first_height..=second.heads[0].1 {
                let block = reopened.canonical_block(height).expect("stored");
                assert!(block.tx_count() > 0, "height {height} is empty");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    })
}

#[test]
fn four_validators_with_jittered_links_converge() {
    within(|| {
        let report = run_node(NodeConfig {
            validators: 4,
            latency_us: 100..1500,
            blocks: 4,
            ..small_config()
        });
        assert_eq!(report.committed_blocks, 4);
        assert_eq!(report.validators.len(), 4);
        assert!(report.healthy());
        // All four heads are literally identical.
        for pair in report.heads.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    })
}
