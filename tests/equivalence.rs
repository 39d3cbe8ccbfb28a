//! Cross-executor equivalence: for seeded random workloads, every execution
//! strategy in the repository must land on the serial oracle's MPT root.
//!
//! This is the repository's strongest invariant: OCC-WSI proposals replay
//! serially to their own root; subgraph-parallel validation equals serial.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Validator,
};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::BlockHash;
use blockpilot::workload::{TxMix, WorkloadConfig, WorkloadGen};

fn config_for_seed(seed: u64, mix: TxMix) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        accounts: 120,
        txs_per_block: 35,
        tx_jitter: 5,
        mix,
        ..WorkloadConfig::default()
    }
}

fn mixes() -> Vec<TxMix> {
    vec![
        TxMix {
            transfer: 1.0,
            token: 0.0,
            amm: 0.0,
            blind: 0.0,
            mint: 0.0,
        },
        TxMix {
            transfer: 0.3,
            token: 0.3,
            amm: 0.3,
            blind: 0.1,
            mint: 0.0,
        },
        TxMix {
            transfer: 0.0,
            token: 0.0,
            amm: 1.0,
            blind: 0.0,
            mint: 0.0,
        },
    ]
}

#[test]
fn occ_wsi_proposals_are_serializable_on_random_workloads() {
    for (i, mix) in mixes().into_iter().enumerate() {
        let gen_cfg = config_for_seed(77 + i as u64, mix);
        let mut gen = WorkloadGen::new(gen_cfg);
        let base = Arc::new(gen.genesis_state());
        let env = gen.block_env(1);
        let txs = gen.next_block_txs();
        let expected = txs.len();

        let pool = TxPool::new();
        for tx in &txs {
            pool.add(tx.clone());
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads: 4,
            env,
            ..OccWsiConfig::default()
        });
        let proposal = proposer.propose(&pool, Arc::clone(&base), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), expected, "mix {i}: txs lost");

        // Serializability witness: replaying the committed order serially
        // reproduces the proposer's root exactly.
        let replay = execute_block_serially(&base, &env, &proposal.block.transactions)
            .expect("committed order replays");
        assert_eq!(
            replay.post_state.state_root(),
            proposal.block.header.state_root,
            "mix {i}: OCC-WSI commit order is not serializable"
        );
    }
}

#[test]
fn pipeline_validation_equals_serial_on_random_workloads() {
    for (i, mix) in mixes().into_iter().enumerate() {
        let gen_cfg = config_for_seed(99 + i as u64, mix);
        let mut gen = WorkloadGen::new(gen_cfg);
        let base = Arc::new(gen.genesis_state());
        let env = gen.block_env(1);
        let txs = gen.next_block_txs();

        // Seal a block with the serial oracle, then have the pipeline
        // re-execute it in parallel lanes.
        let pool = TxPool::new();
        for tx in &txs {
            pool.add(tx.clone());
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            env,
            ..OccWsiConfig::default()
        });
        let validator = Validator::new(
            PipelineConfig {
                workers: 4,
                granularity: ConflictGranularity::Account,
            },
            WorldState::clone(&base),
        );
        let parent = validator.genesis_hash();
        let proposal = proposer.propose(&pool, Arc::clone(&base), parent, 1);
        let outcome = validator.receive_block(proposal.block.clone()).wait();
        assert!(outcome.is_valid(), "mix {i}: {:?}", outcome.result);
        assert_eq!(
            outcome.post_state.expect("valid").state_root(),
            proposal.post_state.state_root(),
            "mix {i}: pipeline root diverged"
        );
    }
}
