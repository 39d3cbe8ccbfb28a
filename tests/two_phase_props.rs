//! Property test: the proposer's commit is serial-replay equivalent.
//!
//! Each commit validates its read set and publishes its write set in one
//! critical section, and workers execute outside it against snapshots taken
//! at the last committed version. For arbitrary mixes of transfers, counter
//! bumps and token moves at 1–16 worker threads, the block it seals must
//! replay serially to the exact sealed state root, and it must hold every
//! transaction that was offered. (The file keeps the name it had when the
//! commit ran in two phases.)

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
            (0u8..10, 0u8..10, 1u16..400).prop_map(|(from, to, amount)| Action::Transfer {
                from,
                to,
                amount
            }),
            (0u8..10).prop_map(|from| Action::Counter { from }),
            (0u8..10, 0u8..10, 1u16..400).prop_map(|(from, to, amount)| Action::Token {
                from,
                to,
                amount
            }),
        ],
        1..30,
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
    for i in 0..10u8 {
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
    let mut nonces = [0u64; 10];
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

fn propose(
    base: &Arc<WorldState>,
    txs: &[Transaction],
    threads: usize,
) -> blockpilot::core::Proposal {
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx.clone());
    }
    let proposer = OccWsiProposer::new(OccWsiConfig {
        threads,
        ..OccWsiConfig::default()
    });
    let proposal = proposer.propose(&pool, Arc::clone(base), BlockHash::ZERO, 1);
    assert!(pool.is_empty(), "pool must drain");
    proposal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The commit path is serializable at any thread count: the sealed
    /// block replays serially to the exact sealed state root.
    #[test]
    fn two_phase_is_serial_replay_equivalent(
        actions in arb_actions(),
        threads in 1usize..=16,
    ) {
        let base = Arc::new(world());
        let txs = build_txs(&actions);
        let proposal = propose(&base, &txs, threads);

        prop_assert_eq!(proposal.block.tx_count(), txs.len());
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
        prop_assert_eq!(proposal.stats.committed, txs.len() as u64);
    }
}
