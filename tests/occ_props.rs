//! Property tests: OCC-WSI serializability over randomized transaction sets.
//!
//! For arbitrary mixes of transfers, counter bumps and token moves — senders
//! uniform or skewed, or every transaction on one hot key — the proposer at
//! 1 to 16 threads must commit blocks whose serial replay reproduces the
//! sealed receipts, state root and gas, lose no transaction, and keep
//! per-sender nonces in order.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{OccWsiConfig, OccWsiProposer, Proposal, Proposer};
use blockpilot::evm::{contracts, BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::{Address, BlockHash, U256};
use bp_testkit::prelude::*;

#[derive(Clone, Debug)]
enum Action {
    Transfer { from: u8, to: u8, amount: u16 },
    Counter { from: u8 },
    Token { from: u8, to: u8, amount: u16 },
}

/// Zipf-flavoured sender index: half the draws collapse onto accounts 0–2,
/// the rest spread over all twelve.
fn skewed_sender() -> BoxedStrategy<u8> {
    prop_oneof![0u8..3, 0u8..12].boxed()
}

fn mix_of(sender: BoxedStrategy<u8>) -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (sender.clone(), 0u8..12, 1u16..500).prop_map(|(from, to, amount)| Action::Transfer {
                from,
                to,
                amount
            }),
            sender.clone().prop_map(|from| Action::Counter { from }),
            (sender, 0u8..12, 1u16..500).prop_map(|(from, to, amount)| Action::Token {
                from,
                to,
                amount
            }),
        ],
        1..30,
    )
}

/// Single-hot-key workload: every transaction bumps the same counter slot.
fn arb_hot_key_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        skewed_sender().prop_map(|from| Action::Counter { from }),
        1..24,
    )
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop_oneof![
        2 => mix_of((0u8..12).boxed()),
        1 => mix_of(skewed_sender()),
        1 => arb_hot_key_actions(),
    ]
}

/// Block gas limit of the drained-chain property: room for a handful of
/// calls, so a pool of up to thirty transactions seals several blocks.
const CHAIN_GAS_LIMIT: u64 = 250_000;

fn addr(i: u8) -> Address {
    Address::from_index(100 + i as u64)
}

fn world() -> WorldState {
    let mut w = WorldState::new();
    let counter = Address::from_index(500);
    let token = Address::from_index(501);
    w.set_code(counter, contracts::counter());
    w.set_code(token, contracts::token());
    for i in 0..12u8 {
        w.set_balance(addr(i), U256::from(1_000_000_000u64));
        w.set_storage(
            token,
            contracts::token_balance_slot(&addr(i)),
            U256::from(1_000_000u64),
        );
    }
    w
}

fn build_txs(actions: &[Action]) -> Vec<Transaction> {
    let counter = Address::from_index(500);
    let token = Address::from_index(501);
    let mut nonces = [0u64; 12];
    actions
        .iter()
        .enumerate()
        .map(|(i, action)| {
            let (from, to, gas_limit, data, value) = match action {
                Action::Transfer { from, to, amount } => (
                    *from,
                    addr(*to),
                    21_000,
                    Vec::new(),
                    U256::from(*amount as u64),
                ),
                Action::Counter { from } => (*from, counter, 200_000, Vec::new(), U256::ZERO),
                Action::Token { from, to, amount } => (
                    *from,
                    token,
                    300_000,
                    contracts::token_transfer_calldata(&addr(*to), U256::from(*amount as u64)),
                    U256::ZERO,
                ),
            };
            let nonce = nonces[from as usize];
            nonces[from as usize] += 1;
            Transaction {
                sender: addr(from),
                to: Some(to),
                value,
                nonce,
                gas_limit,
                gas_price: 1 + (i as u64 % 7),
                data,
            }
        })
        .collect()
}

/// The sealed block replays serially on `state`, the state it was proposed
/// on, to the same receipts, state root and gas.
fn check_against_oracle(state: &WorldState, proposal: &Proposal) -> Result<(), TestCaseError> {
    let replay = execute_block_serially(state, &BlockEnv::default(), &proposal.block.transactions)
        .expect("commit order must replay");
    prop_assert_eq!(&replay.receipts, &proposal.receipts);
    prop_assert_eq!(
        replay.post_state.state_root(),
        proposal.block.header.state_root
    );
    prop_assert_eq!(replay.gas_used, proposal.block.header.gas_used);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn occ_wsi_is_serializable(actions in arb_actions(), threads in 1usize..=16) {
        let base = Arc::new(world());
        let txs = build_txs(&actions);
        let expected = txs.len();
        let pool = TxPool::new();
        for tx in &txs {
            pool.add(tx.clone());
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads,
            ..OccWsiConfig::default()
        });
        let proposal = proposer.propose(&pool, Arc::clone(&base), BlockHash::ZERO, 1);

        // Nothing lost, nothing invented.
        prop_assert_eq!(proposal.block.tx_count(), expected);
        prop_assert!(pool.is_empty());

        // The committed order is a valid serial schedule with the same root.
        check_against_oracle(&base, &proposal)?;

        // Per-sender nonce order is preserved inside the block.
        let mut last: std::collections::HashMap<Address, u64> = Default::default();
        for tx in &proposal.block.transactions {
            if let Some(prev) = last.get(&tx.sender) {
                prop_assert!(tx.nonce > *prev, "nonce inversion for {:?}", tx.sender);
            }
            last.insert(tx.sender, tx.nonce);
        }
    }

    /// A pool drained over several blocks through the `Proposer` façade
    /// (the gas limit fits only a few transactions a block): every sealed
    /// block replays serially, on the pre-state it was proposed on, to the
    /// same receipts, root and gas.
    #[test]
    fn drained_chain_matches_the_serial_oracle(
        actions in arb_actions(),
        threads in 1usize..=16,
    ) {
        let txs = build_txs(&actions);
        let proposer = Proposer::new(OccWsiConfig {
            threads,
            gas_limit: CHAIN_GAS_LIMIT,
            ..OccWsiConfig::default()
        });
        proposer.submit_transactions(txs.iter().cloned());
        let mut state = Arc::new(world());
        let mut committed = 0;
        let mut height = 0;
        while !proposer.pool().is_empty() {
            height += 1;
            let proposal = proposer.propose_block(Arc::clone(&state), BlockHash::ZERO, height);
            prop_assert!(
                proposal.block.tx_count() > 0,
                "pool stuck with {} pending",
                proposer.pool().len()
            );
            check_against_oracle(&state, &proposal)?;
            prop_assert!(proposal.block.header.gas_used <= CHAIN_GAS_LIMIT);
            // Every execution committed, aborted or discarded its transaction.
            prop_assert!(
                proposal.stats.executions >= proposal.stats.committed + proposal.stats.aborts
            );
            prop_assert_eq!(proposal.stats.committed, proposal.block.tx_count() as u64);
            committed += proposal.block.tx_count();
            state = Arc::new(proposal.post_state);
        }
        prop_assert_eq!(committed, txs.len(), "every transaction must land");
    }
}
