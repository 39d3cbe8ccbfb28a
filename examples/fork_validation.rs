//! Forks: two proposers publish competing blocks at the same height; the
//! validator pipeline executes both **concurrently** (the paper's Figure 5
//! overlap), commits one as canonical and keeps the other, with its state,
//! as an uncle.
//!
//! Run with `cargo run --release --example fork_validation`.

use std::sync::Arc;

use blockpilot::core::{ConflictGranularity, OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::evm::{BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::types::{Address, U256};

fn main() {
    let mut genesis = WorldState::new();
    for i in 1..=20u64 {
        genesis.set_balance(Address::from_index(i), U256::from(1_000_000u64));
    }
    let genesis_state = Arc::new(genesis.clone());
    let validator = Validator::new(
        PipelineConfig {
            workers: 4,
            granularity: ConflictGranularity::Account,
        },
        genesis,
    );

    // Two proposers pick different transaction subsets for height 1 (and
    // stamp different proposer seeds via the block env number).
    let make_proposal = |senders: std::ops::Range<u64>, seed: u64| {
        let proposer = Proposer::new(OccWsiConfig {
            threads: 4,
            env: BlockEnv {
                number: seed,
                ..BlockEnv::default()
            },
            ..OccWsiConfig::default()
        });
        for i in senders {
            proposer.submit_transaction(Transaction::transfer(
                Address::from_index(i),
                Address::from_index(i + 100),
                U256::from(10u64),
                0,
                i,
            ));
        }
        proposer.propose_block(Arc::clone(&genesis_state), validator.genesis_hash(), 1)
    };
    let block_a = make_proposal(1..11, 1).block;
    let block_b = make_proposal(11..21, 1).block;
    println!(
        "proposer A block: {:?} ({} txs)",
        block_a.hash(),
        block_a.tx_count()
    );
    println!(
        "proposer B block: {:?} ({} txs)",
        block_b.hash(),
        block_b.tx_count()
    );
    let (hash_a, hash_b) = (block_a.hash(), block_b.hash());
    assert_ne!(hash_a, hash_b);

    // The validator receives both — they validate concurrently in the
    // pipeline because they share the same parent state (same height).
    let handle_a = validator.receive_block(block_a);
    let handle_b = validator.receive_block(block_b);
    let outcome_a = handle_a.wait();
    let outcome_b = handle_b.wait();
    println!(
        "validation: A = {}, B = {}",
        if outcome_a.is_valid() {
            "VALID"
        } else {
            "REJECTED"
        },
        if outcome_b.is_valid() {
            "VALID"
        } else {
            "REJECTED"
        },
    );
    assert!(outcome_a.is_valid() && outcome_b.is_valid());

    // Consensus picks A; B becomes an uncle (it still earned validation —
    // this is exactly why validators execute more blocks than proposers,
    // §3.4, and why the multi-block pipeline exists). Marking canonical is
    // the local equivalent of the fork-choice decision arriving from
    // consensus: A's verdict is in and its parent is the canonical genesis,
    // so it commits without executing again.
    assert!(validator.commit_canonical(hash_a));
    let uncle = validator.canonical_at(1) != Some(hash_b) && validator.state_of(&hash_b).is_some();
    println!(
        "canonical head : height {}, A canonical at height 1: {}, B an uncle with its state: {}",
        validator.head().expect("head").1,
        validator.canonical_at(1) == Some(hash_a),
        uncle,
    );
    assert_eq!(validator.canonical_at(1), Some(hash_a));
    assert!(validator.state_of(&hash_a).is_some() && uncle);
}
