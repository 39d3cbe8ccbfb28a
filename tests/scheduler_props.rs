//! Property tests for the validator scheduler over randomly generated
//! footprints — the lane invariants that make parallel replay safe — and
//! for the restructured pipeline over randomly generated transfer blocks:
//! subgraph-granular dispatch replays identically to serial execution at
//! any pool width, and the early-abort protocol never fires on an honest
//! block.

use std::collections::HashMap;
use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::block::{BlockProfile, TxProfile};
use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Proposal, Scheduler,
    Validator,
};
use blockpilot::evm::{BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::{AccessKey, Address, BlockHash, RwSet, H256, U256};
use bp_testkit::prelude::*;

/// A compact footprint description: which abstract keys each tx reads and
/// writes, plus its gas.
#[derive(Clone, Debug)]
struct TxDesc {
    reads: Vec<u8>,
    writes: Vec<u8>,
    gas: u64,
}

fn key(id: u8) -> AccessKey {
    // Spread keys over balances and storage slots, so that two different
    // slots of one contract conflict at account level: even ids are
    // balances, odd ids are storage slots grouped four-per-contract.
    if id.is_multiple_of(2) {
        AccessKey::Balance(Address::from_index(id as u64))
    } else {
        AccessKey::Storage(
            Address::from_index(1000 + (id / 8) as u64),
            H256::from_low_u64(id as u64),
        )
    }
}

fn profile(descs: &[TxDesc]) -> BlockProfile {
    let entries = descs
        .iter()
        .map(|d| {
            let mut rw = RwSet::new();
            for &r in &d.reads {
                rw.record_read(key(r), 0);
            }
            for &w in &d.writes {
                rw.record_write(key(w), U256::ONE);
            }
            TxProfile::from_owned_rw(rw, Default::default(), d.gas)
        })
        .collect();
    BlockProfile { entries }
}

fn arb_descs() -> impl Strategy<Value = Vec<TxDesc>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u8..24, 0..4),
            prop::collection::vec(0u8..24, 0..3),
            1_000u64..200_000,
        )
            .prop_map(|(reads, writes, gas)| TxDesc { reads, writes, gas }),
        0..60,
    )
}

fn conflicts(a: &TxProfile, b: &TxProfile) -> bool {
    a.rw().conflicts_with_account_level(&b.rw())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lanes_partition_the_block(descs in arb_descs(), lanes in 1usize..9) {
        let p = profile(&descs);
        let s = Scheduler::new(ConflictGranularity::Account).schedule(&p, lanes);
        let mut seen = vec![false; descs.len()];
        for lane in &s.lanes {
            for &i in lane {
                prop_assert!(!seen[i], "tx {i} scheduled twice");
                seen[i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|b| b), "some tx unscheduled");
    }

    #[test]
    fn no_conflicts_cross_lanes(descs in arb_descs(), lanes in 1usize..9) {
        let p = profile(&descs);
        let s = Scheduler::new(ConflictGranularity::Account).schedule(&p, lanes);
        for (la, lane_a) in s.lanes.iter().enumerate() {
            for lane_b in s.lanes.iter().skip(la + 1) {
                for &i in lane_a {
                    for &j in lane_b {
                        prop_assert!(
                            !conflicts(&p.entries[i], &p.entries[j]),
                            "txs {i} and {j} conflict across lanes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_preserve_block_order(descs in arb_descs(), lanes in 1usize..9) {
        let p = profile(&descs);
        let s = Scheduler::new(ConflictGranularity::Account).schedule(&p, lanes);
        for lane in &s.lanes {
            for w in lane.windows(2) {
                prop_assert!(w[0] < w[1], "lane out of block order");
            }
        }
    }

    #[test]
    fn subgraphs_are_conflict_closed(descs in arb_descs()) {
        // Every conflicting pair must share a subgraph: the pipeline
        // dispatches each subgraph as one job.
        let p = profile(&descs);
        let s = Scheduler::new(ConflictGranularity::Account).schedule(&p, 4);
        let mut component = vec![usize::MAX; descs.len()];
        for (c, sg) in s.subgraphs.iter().enumerate() {
            for &i in &sg.txs {
                component[i] = c;
            }
        }
        for i in 0..descs.len() {
            for j in i + 1..descs.len() {
                if conflicts(&p.entries[i], &p.entries[j]) {
                    prop_assert_eq!(
                        component[i], component[j],
                        "conflicting txs {} and {} in different subgraphs", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_is_deterministic(descs in arb_descs(), lanes in 1usize..9) {
        let p = profile(&descs);
        let a = Scheduler::new(ConflictGranularity::Account).schedule(&p, lanes);
        let b = Scheduler::new(ConflictGranularity::Account).schedule(&p, lanes);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Restructured-pipeline properties: real execution over generated blocks
// ---------------------------------------------------------------------------

/// Funded account universe for the generated transfer blocks.
const FUNDED: u64 = 24;

/// One raw transfer: uniform samples mapped onto Zipf-skewed endpoints.
#[derive(Clone, Debug)]
struct TransferDesc {
    from_raw: u16,
    to_raw: u16,
    amount: u64,
}

/// Maps a uniform sample onto a skewed account index in `1..=FUNDED`:
/// cubing the unit sample concentrates mass on the low (hot) accounts, so
/// generated blocks carry Zipf-like conflict chains through a few popular
/// senders/recipients — the shape that stresses subgraph dispatch.
fn zipf_index(raw: u16) -> u64 {
    let u = raw as f64 / (u16::MAX as f64 + 1.0);
    (u * u * u * FUNDED as f64) as u64 + 1
}

fn arb_transfers() -> impl Strategy<Value = Vec<TransferDesc>> {
    prop::collection::vec(
        (any::<u16>(), any::<u16>(), 0u64..1_000).prop_map(|(from_raw, to_raw, amount)| {
            TransferDesc {
                from_raw,
                to_raw,
                amount,
            }
        }),
        0..48,
    )
}

/// Builds the funded pre-state and the nonce-consistent transaction list
/// for a batch of raw transfers. Priority (gas price) descends in
/// generation order so the pool replays the generated order.
fn transfer_block(descs: &[TransferDesc]) -> (Arc<WorldState>, Vec<Transaction>) {
    let mut world = WorldState::new();
    for i in 1..=FUNDED {
        world.set_balance(Address::from_index(i), U256::from(1_000_000_000u64));
    }
    let mut nonces: HashMap<Address, u64> = HashMap::new();
    let n = descs.len() as u64;
    let txs = descs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let from = Address::from_index(zipf_index(d.from_raw));
            let to = Address::from_index(zipf_index(d.to_raw));
            let nonce = nonces.entry(from).or_insert(0);
            let tx = Transaction::transfer(from, to, U256::from(d.amount), *nonce, n - i as u64);
            *nonce += 1;
            tx
        })
        .collect();
    (Arc::new(world), txs)
}

/// Proposes the transfers as one block on `parent` (height 1).
fn propose_transfers(base: &Arc<WorldState>, txs: &[Transaction], parent: BlockHash) -> Proposal {
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx.clone());
    }
    let engine = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env: BlockEnv {
            number: 1,
            ..BlockEnv::default()
        },
        ..OccWsiConfig::default()
    });
    engine.propose(&pool, Arc::clone(base), parent, 1)
}

proptest! {
    // Each case runs real threads; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn subgraph_dispatch_replays_serial_execution_at_any_width(
        descs in arb_transfers(),
        workers in 1usize..=16,
    ) {
        // Whatever the pool width or conflict skew, the pipeline must
        // reproduce the serial oracle's state bit for bit — the lock-free
        // slots and subgraph jobs reorder execution, never its effect — and
        // the cancellation protocol (per-tx footprint checks on the
        // workers' clocks, first mismatch wins) must be invisible on an
        // honest block.
        let (base, txs) = transfer_block(&descs);
        let validator = Validator::new(
            PipelineConfig {
                workers,
                granularity: ConflictGranularity::Account,
            },
            WorldState::clone(&base),
        );
        let proposal = propose_transfers(&base, &txs, validator.genesis_hash());
        let env = BlockEnv { number: 1, ..BlockEnv::default() };
        let serial = execute_block_serially(&base, &env, &proposal.block.transactions)
            .expect("proposed blocks replay serially");

        let n = proposal.block.transactions.len();
        let outcome = validator.receive_block(proposal.block.clone()).wait();
        prop_assert!(outcome.is_valid(), "{:?}", outcome.result);
        prop_assert_eq!(outcome.executed_txs, n);
        prop_assert!(!outcome.aborted_early);
        prop_assert_eq!(
            outcome.post_state.expect("valid").state_root(),
            serial.post_state.state_root()
        );
    }
}
