//! Property test: OCC-WSI serializability over randomized transaction sets.
//!
//! For arbitrary mixes of transfers, counter bumps and token moves with
//! arbitrary senders/recipients, the multi-threaded proposer must commit a
//! block whose serial replay reproduces its sealed state root, lose no
//! transaction, and keep per-sender nonces dense.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{OccWsiConfig, OccWsiProposer};
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

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..12, 0u8..12, 1u16..500).prop_map(|(from, to, amount)| Action::Transfer {
                from,
                to,
                amount
            }),
            (0u8..12).prop_map(|from| Action::Counter { from }),
            (0u8..12, 0u8..12, 1u16..500).prop_map(|(from, to, amount)| Action::Token {
                from,
                to,
                amount
            }),
        ],
        1..25,
    )
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn occ_wsi_is_serializable(actions in arb_actions(), threads in 1usize..5) {
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
        let replay = execute_block_serially(
            &base,
            &BlockEnv::default(),
            &proposal.block.transactions,
        )
        .expect("commit order must replay");
        prop_assert_eq!(
            replay.post_state.state_root(),
            proposal.block.header.state_root
        );
        prop_assert_eq!(replay.gas_used, proposal.block.header.gas_used);

        // Per-sender nonce order is preserved inside the block.
        let mut last: std::collections::HashMap<Address, u64> = Default::default();
        for tx in &proposal.block.transactions {
            if let Some(prev) = last.get(&tx.sender) {
                prop_assert!(tx.nonce > *prev, "nonce inversion for {:?}", tx.sender);
            }
            last.insert(tx.sender, tx.nonce);
        }
    }
}
