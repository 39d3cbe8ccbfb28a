//! Real-thread multi-block pipeline: several same-height blocks in flight
//! at once over one shared crew (the paper's §5.6 setup on actual
//! threads rather than virtual time), plus forked chains across heights.

use std::sync::Arc;

use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Proposal, Validator,
};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::BlockHash;
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

fn propose(
    gen: &mut WorkloadGen,
    base: &Arc<WorldState>,
    parent: BlockHash,
    height: u64,
    seed: u64,
) -> Proposal {
    let txs = gen.next_block_txs();
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx);
    }
    let engine = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env: blockpilot::evm::BlockEnv {
            number: seed,
            ..gen.block_env(height)
        },
        ..OccWsiConfig::default()
    });
    engine.propose(&pool, Arc::clone(base), parent, height)
}

fn validator_on(genesis: &WorldState, workers: usize) -> Validator {
    let config = PipelineConfig {
        workers,
        granularity: ConflictGranularity::Account,
    };
    Validator::new(config, genesis.clone())
}

fn workload() -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        accounts: 120,
        tokens: 3,
        amm_pairs: 1,
        txs_per_block: 25,
        tx_jitter: 0,
        ..WorkloadConfig::default()
    })
}

#[test]
fn four_same_height_blocks_validate_concurrently() {
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = validator_on(&base, 4);
    let parent = validator.genesis_hash();

    // Four distinct proposals at height 1 (different tx subsets because the
    // generator advances; different proposer seeds).
    let proposals: Vec<Proposal> = (0..4)
        .map(|i| propose(&mut gen, &base, parent, 1, 100 + i))
        .collect();
    let hashes: std::collections::HashSet<BlockHash> =
        proposals.iter().map(|p| p.block.hash()).collect();
    assert_eq!(hashes.len(), 4, "blocks must be distinct");

    // Submit all four before waiting on any: they share the crew.
    let handles: Vec<_> = proposals
        .iter()
        .map(|p| validator.receive_block(p.block.clone()))
        .collect();
    for (handle, proposal) in handles.into_iter().zip(&proposals) {
        let outcome = handle.wait();
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(
            outcome.post_state.expect("valid").state_root(),
            proposal.post_state.state_root()
        );
    }
}

#[test]
fn forked_tree_validates_across_heights() {
    // Build a small block tree:
    //           g
    //         /   \
    //        a1    b1        (height 1)
    //        |     |
    //        a2    b2        (height 2, each on its own parent)
    // Submit leaves first, then roots; every block must validate.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = validator_on(&base, 3);
    let parent = validator.genesis_hash();

    let a1 = propose(&mut gen, &base, parent, 1, 1);
    let b1 = propose(&mut gen, &base, parent, 1, 2);
    let a1_state = Arc::new(a1.post_state.clone());
    let b1_state = Arc::new(b1.post_state.clone());
    let a2 = propose(&mut gen, &a1_state, a1.block.hash(), 2, 1);
    let b2 = propose(&mut gen, &b1_state, b1.block.hash(), 2, 2);

    let h_a2 = validator.receive_block(a2.block.clone());
    let h_b2 = validator.receive_block(b2.block.clone());
    let h_a1 = validator.receive_block(a1.block.clone());
    let h_b1 = validator.receive_block(b1.block.clone());

    for (name, handle) in [("a1", h_a1), ("b1", h_b1), ("a2", h_a2), ("b2", h_b2)] {
        let outcome = handle.wait();
        assert!(outcome.is_valid(), "{name}: {:?}", outcome.result);
    }
}

#[test]
fn pipeline_throughput_scales_with_submission_batching() {
    // Not a wall-clock assertion (single-core runner) — this checks that a
    // burst of B blocks completes with every verdict delivered exactly once
    // and no cross-block state bleed.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = validator_on(&base, 4);
    let parent = validator.genesis_hash();

    let proposals: Vec<Proposal> = (0..6)
        .map(|i| propose(&mut gen, &base, parent, 1, 500 + i))
        .collect();
    let handles: Vec<_> = proposals
        .iter()
        .map(|p| validator.receive_block(p.block.clone()))
        .collect();
    let mut roots = Vec::new();
    for handle in handles {
        let outcome = handle.wait();
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        roots.push(outcome.post_state.expect("valid").state_root());
    }
    // Each block produced its own post-state, matching its proposer.
    for (root, proposal) in roots.iter().zip(&proposals) {
        assert_eq!(*root, proposal.post_state.state_root());
    }
}
