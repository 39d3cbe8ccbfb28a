//! The hotspot problem (§5.5): a DeFi-style block where every swap hits one
//! AMM pair, throttling parallelism — visible directly in the dependency
//! schedule the validator builds.
//!
//! Run with `cargo run --release --example dex_hotspot`.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{ConflictGranularity, OccWsiConfig, Proposer, Scheduler};
use blockpilot::evm::{contracts, BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::types::{Address, BlockHash, U256};

fn main() {
    let amm = Address::from_index(500);
    let mut genesis = WorldState::new();
    genesis.set_code(amm, contracts::amm_pair());
    genesis.set_storage(
        amm,
        contracts::amm_reserve_slot(0),
        U256::from(10_000_000u64),
    );
    genesis.set_storage(
        amm,
        contracts::amm_reserve_slot(1),
        U256::from(10_000_000u64),
    );
    for i in 1..=40u64 {
        genesis.set_balance(Address::from_index(i), U256::from(1_000_000_000u64));
    }
    let genesis = Arc::new(genesis);

    // Compare two blocks: all-transfers (embarrassingly parallel) vs
    // half-swaps (hotspot-bound).
    for (name, swap_share) in [("transfer-only", 0.0f64), ("50% DEX swaps", 0.5)] {
        let proposer = Proposer::new(OccWsiConfig {
            threads: 8,
            ..OccWsiConfig::default()
        });
        for i in 1..=40u64 {
            let tx = if (i as f64) <= 40.0 * swap_share {
                Transaction {
                    sender: Address::from_index(i),
                    to: Some(amm),
                    value: U256::ZERO,
                    nonce: 0,
                    gas_limit: 300_000,
                    gas_price: 1,
                    data: contracts::amm_swap_calldata((i % 2) as u8, U256::from(1000 + i)),
                }
            } else {
                Transaction::transfer(
                    Address::from_index(i),
                    Address::from_index(i + 100),
                    U256::from(5u64),
                    0,
                    1,
                )
            };
            proposer.submit_transaction(tx);
        }
        let proposal = proposer.propose_block(Arc::clone(&genesis), BlockHash::ZERO, 1);

        // The validator-side dependency analysis over the block profile.
        let schedule =
            Scheduler::new(ConflictGranularity::Account).schedule(&proposal.block.profile, 16);
        println!("--- {name} ---");
        println!("  txs                  : {}", proposal.block.tx_count());
        println!("  proposer aborts      : {}", proposal.stats.aborts);
        println!("  dependency subgraphs : {}", schedule.subgraphs.len());
        println!(
            "  largest subgraph     : {:.0}% of the block",
            100.0 * schedule.largest_subgraph_ratio()
        );

        // Sanity: the block replays serially to the same root.
        let serial =
            execute_block_serially(&genesis, &BlockEnv::default(), &proposal.block.transactions)
                .expect("replayable");
        assert_eq!(
            serial.post_state.state_root(),
            proposal.block.header.state_root
        );
        println!("  serial replay        : state root matches\n");
    }
    println!("Swaps on one pair serialize (they all read+write both reserve slots),");
    println!("so the hotspot block's largest subgraph swallows the swap share: the");
    println!("validator replays that share on one lane (the paper's Figure 8).");
}
