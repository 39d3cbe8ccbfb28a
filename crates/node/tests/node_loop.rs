//! End-to-end tests of the streaming node loop: equivalence across modes,
//! bounded-channel backpressure, clean mid-stream shutdown with store
//! agreement, and multi-validator convergence.

use blockpilot_core::{PipelineConfig, Validator};
use bp_node::{run_node, NodeConfig, NodeMode, RunningNode, CHANNEL_DEPTH};
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

fn small_config() -> NodeConfig {
    NodeConfig {
        blocks: 5,
        proposer_threads: 2,
        pipeline: PipelineConfig {
            workers: 2,
            ..PipelineConfig::default()
        },
        validators: 2,
        workload: small_workload(),
        pool_capacity: 256,
        ..NodeConfig::default()
    }
}

#[test]
fn pipelined_loop_commits_and_matches_serial_replay() {
    let report = run_node(small_config());
    assert_eq!(report.committed_blocks, 5);
    assert!(report.committed_txs > 0);
    assert_eq!(report.validation_failures, 0);
    let eq = report.equivalence.as_ref().expect("gate ran");
    assert!(
        eq.ok,
        "serial {:?} != node {:?}",
        eq.serial_root, eq.node_root
    );
    assert!(report.healthy());
}

#[test]
fn lock_step_loop_matches_serial_replay() {
    let report = run_node(NodeConfig {
        mode: NodeMode::LockStep,
        ..small_config()
    });
    assert_eq!(report.committed_blocks, 5);
    assert!(report.healthy());
    // Lock-step pacing shows up as proposer stall time (waiting on commits).
    assert!(report.proposer.stall_micros > 0);
}

/// Slow validators: the proposer must fill the bounded channels, stall on
/// backpressure, and resume as the drain frees slots — without losing or
/// reordering any block.
#[test]
fn bounded_channels_stall_the_proposer_then_drain() {
    // Two channels and the two stages behind them hold 2 * (depth + 1)
    // blocks between them; the run is twice that, so the bound must bite.
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
    // Bounded channels can never report a depth beyond their capacity.
    assert!(report.proposer.max_queue_depth <= CHANNEL_DEPTH);
    assert!(report.codec.max_queue_depth <= CHANNEL_DEPTH);
}

/// Stop mid-stream: every block already in flight drains to all validators,
/// heads agree, and the persisted store reopens to exactly the in-memory
/// head (no lost or duplicated blocks) — also under group commit (one fsync
/// batch per few heights), where the shutdown flush has to make the open
/// batch durable.
#[test]
fn clean_shutdown_drains_in_flight_blocks_and_store_agrees() {
    let batched = bp_store::GroupCommitConfig {
        max_blocks: 4,
        max_bytes: 64 << 20,
    };
    for group_commit in [None, Some(batched)] {
        let dir = bp_store::store::test_dir("node-shutdown");
        let node = RunningNode::spawn(NodeConfig {
            blocks: 10_000, // far more than we let it run
            store_dir: Some(dir.clone()),
            group_commit,
            ..small_config()
        });
        // Let it commit a few heights, then pull the plug.
        while node.committed_height() < 6 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        node.stop();
        let report = node.join();
        assert!(report.committed_blocks >= 6);
        assert!(report.committed_blocks < 10_000, "stop was ignored");
        // Heads agree, no validation failure, equivalent to serial replay.
        assert!(report.healthy());

        // Reopen the store cold: replay must land on the same head and root.
        let genesis = WorkloadGen::new(small_workload()).genesis_state();
        let reopened = Validator::with_store_at(
            PipelineConfig {
                workers: 2,
                ..PipelineConfig::default()
            },
            genesis,
            &dir,
        )
        .expect("store reopens");
        let (head_hash, head_height) = reopened.head().expect("reopened head");
        assert_eq!(head_height, report.committed_blocks);
        assert_eq!((head_hash, head_height), report.heads[0]);
        assert_eq!(reopened.head_state_root().unwrap(), report.final_root);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn four_validators_with_jittered_links_converge() {
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
}
