//! Kill-and-reopen recovery: a store-backed validator grows a chain, is
//! dropped without ceremony ("power cut"), and a fresh process reopens the
//! same directory — cold-start replay recovers the exact durable head and
//! the node keeps extending the chain.
//!
//! Run with `cargo run --release --example restart_recovery`.

use std::sync::Arc;

use blockpilot::evm::{BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::store::Store;
use blockpilot::txpool::TxPool;
use blockpilot::types::{Address, U256};
use blockpilot::{ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Validator};

fn genesis_world() -> WorldState {
    let mut w = WorldState::new();
    for i in 1..=60u64 {
        w.set_balance(Address::from_index(i), U256::from(1_000_000_000u64));
    }
    w
}

fn config() -> PipelineConfig {
    PipelineConfig {
        workers: 2,
        granularity: ConflictGranularity::Account,
    }
}

/// Proposes and commits `heights` blocks of simple transfers.
fn grow_chain(validator: &Validator, heights: u64, start_nonce: u64) {
    for h in 1..=heights {
        let (parent, parent_height) = validator.head().expect("head exists");
        let base = validator.state_of(&parent).expect("head state");
        let pool = TxPool::new();
        for i in 1..=6u64 {
            pool.add(Transaction::transfer(
                Address::from_index(i),
                Address::from_index(i + 100),
                U256::from(7u64),
                start_nonce + h - 1,
                i,
            ));
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            env: BlockEnv {
                number: parent_height + 1,
                ..BlockEnv::default()
            },
            ..OccWsiConfig::default()
        });
        let proposal = proposer.propose(&pool, Arc::clone(&base), parent, parent_height + 1);
        let outcome = validator.validate_and_commit(proposal.block);
        assert!(outcome.is_valid(), "{:?}", outcome.result);
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("blockpilot-restart-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale dir");
    }
    let world = genesis_world();

    println!("store directory: {}", dir.display());
    println!("\n--- first life -------------------------------------------------");
    let (head, height, root) = {
        let validator = Validator::with_store(config(), world.clone(), Store::open(&dir).unwrap())
            .expect("fresh store-backed validator");
        grow_chain(&validator, 4, 0);
        let (head, height) = validator.head().unwrap();
        let root = validator.head_state_root().unwrap();
        println!("grew chain to height {height}");
        println!("head        : {head:?}");
        println!("state root  : {root:?}");
        let log = std::fs::metadata(dir.join("chain.log")).expect("the chain log");
        let blocks = validator.with_store_ref(|s| s.block_count()).unwrap();
        println!("on disk     : {blocks} blocks in one {} B log", log.len());
        (head, height, root)
        // validator dropped here: nothing is flushed on drop — everything
        // that matters was made durable by each commit's marker.
    };

    println!("\n--- power cut, process gone, memory lost ----------------------");

    println!("\n--- second life ------------------------------------------------");
    let recovered = Validator::with_store(config(), world, Store::open(&dir).unwrap())
        .expect("cold-start recovery");
    let (rhead, rheight) = recovered.head().unwrap();
    println!("recovered head  : {rhead:?} at height {rheight}");
    assert_eq!((rhead, rheight), (head, height), "exact durable head");
    assert_eq!(recovered.head_state_root(), Some(root));
    println!("replayed head state root matches: {root:?}");

    grow_chain(&recovered, 2, 4);
    let (_, final_height) = recovered.head().unwrap();
    println!("chain extended to height {final_height} after recovery");

    std::fs::remove_dir_all(&dir).ok();
    println!("\nCold-start replay re-executed the stored canonical chain through");
    println!("the normal validation pipeline: the node resumed exactly at its");
    println!("last durable commit, with no torn blocks.");
}
