//! Quickstart: propose a block in parallel with OCC-WSI, then validate it
//! through the four-stage pipeline.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use blockpilot::core::{ConflictGranularity, OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::evm::Transaction;
use blockpilot::state::WorldState;
use blockpilot::types::{Address, U256};

fn main() {
    // 1. A genesis world with ten funded accounts.
    let mut genesis = WorldState::new();
    for i in 1..=10u64 {
        genesis.set_balance(Address::from_index(i), U256::from(1_000_000u64));
    }
    println!("genesis state root: {:?}", genesis.state_root());

    // 2. A validator node (owns the chain store and the pipeline).
    let validator = Validator::new(
        PipelineConfig {
            workers: 4,
            granularity: ConflictGranularity::Account,
        },
        genesis.clone(),
    );

    // 3. A proposer node: submit ten transfers and pack a block with the
    //    OCC-WSI parallel executor (Algorithm 1).
    let proposer = Proposer::new(OccWsiConfig {
        threads: 4,
        ..OccWsiConfig::default()
    });
    for i in 1..=10u64 {
        proposer.submit_transaction(Transaction::transfer(
            Address::from_index(i),
            Address::from_index(i % 10 + 1),
            U256::from(100u64),
            0,
            i, // gas price = selection priority
        ));
    }
    let proposal = proposer.propose_block(Arc::new(genesis), validator.genesis_hash(), 1);
    println!(
        "proposed block   : {} txs, {} gas, {} aborts during packing",
        proposal.block.tx_count(),
        proposal.block.header.gas_used,
        proposal.stats.aborts,
    );
    println!(
        "block profile    : {} read/write-set entries",
        proposal.block.profile.len()
    );

    // 4. The validator re-executes the block in parallel lanes and checks
    //    every footprint against the profile, then the MPT state root.
    let outcome = validator.validate_and_commit(proposal.block);
    println!(
        "validation       : {} (prepare {:?}, execute {:?}, validate {:?})",
        if outcome.is_valid() {
            "VALID"
        } else {
            "REJECTED"
        },
        outcome.timings.prepare,
        outcome.timings.execute,
        outcome.timings.validate,
    );
    let (head, height) = validator.head().expect("committed");
    println!("canonical head   : height {height}, hash {head:?}");
    assert!(outcome.is_valid());
}
