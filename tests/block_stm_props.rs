//! Property tests: the Block-STM proposer is serial-replay equivalent.
//!
//! The Block-STM engine executes the preset candidate order optimistically
//! over a multi-version store, suspends dependents on ESTIMATE markers and
//! commits behind a decrease-only validation watermark. Whatever it seals
//! must be indistinguishable from a serial node: every sealed block replays
//! serially — on the exact pre-state it was proposed on — to the same
//! receipts, state root and gas total, at any thread count from 1 to 16,
//! on Zipf-skewed mixes and on a single-hot-key workload.
//!
//! Because the pending pool releases one transaction per sender per block
//! (nonce gating), workloads with sender reuse drain across several
//! blocks; the properties quantify over the whole chain of sealed blocks.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{OccWsiConfig, Proposal, Proposer, ProposerAlgo};
use blockpilot::evm::{contracts, BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::types::{Address, BlockHash, U256};
use bp_testkit::prelude::*;

#[derive(Clone, Debug)]
enum Action {
    Transfer { from: u8, to: u8, amount: u16 },
    Counter { from: u8 },
    Token { from: u8, to: u8, amount: u16 },
}

/// Zipf-flavoured sender index: half the draws collapse onto accounts 0–2,
/// the rest spread over all ten.
fn arb_sender() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..3, 0u8..10]
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (arb_sender(), 0u8..10, 1u16..400)
                .prop_map(|(from, to, amount)| { Action::Transfer { from, to, amount } }),
            arb_sender().prop_map(|from| Action::Counter { from }),
            (arb_sender(), 0u8..10, 1u16..400).prop_map(|(from, to, amount)| Action::Token {
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
        arb_sender().prop_map(|from| Action::Counter { from }),
        1..24,
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

/// Drains `txs` through a proposer of the given engine, checking each
/// sealed block against the serial oracle on its own pre-state. Returns
/// the sealed proposals in chain order.
fn propose_chain(
    base: &Arc<WorldState>,
    txs: &[Transaction],
    threads: usize,
    algo: ProposerAlgo,
) -> Vec<Proposal> {
    let proposer = Proposer::new(OccWsiConfig {
        threads,
        algo,
        ..OccWsiConfig::default()
    });
    proposer.submit_transactions(txs.iter().cloned());
    let mut state = Arc::new(base.snapshot());
    let mut chain = Vec::new();
    let mut height = 1u64;
    while !proposer.pool().is_empty() {
        let proposal = proposer.propose_block(Arc::clone(&state), BlockHash::ZERO, height);
        assert!(
            proposal.block.tx_count() > 0,
            "pool stuck with {} pending",
            proposer.pool().len()
        );
        let replay =
            execute_block_serially(&state, &BlockEnv::default(), &proposal.block.transactions)
                .expect("sealed blocks replay");
        assert_eq!(replay.receipts, proposal.receipts, "receipts diverge");
        assert_eq!(
            replay.post_state.state_root(),
            proposal.block.header.state_root,
            "state root diverges"
        );
        assert_eq!(replay.gas_used, proposal.block.header.gas_used);
        state = Arc::new(proposal.post_state.snapshot());
        height += 1;
        chain.push(proposal);
    }
    chain
}

fn committed_hashes(chain: &[Proposal]) -> Vec<blockpilot::types::TxHash> {
    let mut hashes: Vec<_> = chain
        .iter()
        .flat_map(|p| p.block.transactions.iter().map(|tx| tx.hash()))
        .collect();
    hashes.sort();
    hashes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every block the Block-STM engine seals — across the whole drain —
    /// replays serially to the same receipts, root and gas, at any thread
    /// count.
    #[test]
    fn block_stm_is_serial_replay_equivalent(
        actions in arb_actions(),
        threads in 1usize..=16,
    ) {
        let base = Arc::new(world());
        let txs = build_txs(&actions);
        let chain = propose_chain(&base, &txs, threads, ProposerAlgo::BlockStm);
        let committed: usize = chain.iter().map(|p| p.block.tx_count()).sum();
        prop_assert_eq!(committed, txs.len(), "every candidate must land");
        for proposal in &chain {
            // Abort accounting must reconcile within each block.
            prop_assert_eq!(
                proposal.stats.aborts,
                proposal.stats.first_aborts + proposal.stats.retry_aborts
            );
        }
    }

    /// The single-hot-key regime — the ESTIMATE-chain worst case — stays
    /// serial-replay equivalent at every thread count.
    #[test]
    fn block_stm_survives_a_hot_key(
        actions in arb_hot_key_actions(),
        threads in 1usize..=16,
    ) {
        let base = Arc::new(world());
        let txs = build_txs(&actions);
        let chain = propose_chain(&base, &txs, threads, ProposerAlgo::BlockStm);
        let committed: usize = chain.iter().map(|p| p.block.tx_count()).sum();
        prop_assert_eq!(committed, txs.len());
    }

    /// Both engines commit the same transaction *set* for the same pool
    /// (each is separately serial-replay equivalent; orders may differ, so
    /// the sets — not the roots — are the invariant).
    #[test]
    fn engines_commit_the_same_transaction_set(
        actions in arb_actions(),
        threads in 1usize..=8,
    ) {
        let base = Arc::new(world());
        let txs = build_txs(&actions);
        let occ = propose_chain(&base, &txs, threads, ProposerAlgo::OccWsi);
        let stm = propose_chain(&base, &txs, threads, ProposerAlgo::BlockStm);
        prop_assert_eq!(committed_hashes(&occ), committed_hashes(&stm));
    }
}
