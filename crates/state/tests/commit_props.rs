//! Property tests for the level-order commit: a batch's new nodes, hashed
//! level by level across the whole batch (and, in a world commit, across
//! all the dirty storage tries, then the account trie), must be
//! byte-for-byte what hashing them one mutation at a time gives — same root
//! as the from-scratch `rebuild_root` oracle, same commit-node set — for
//! any dirty fraction. A commit that fans out into crew tasks must equal the
//! one-thread commit the same way.

use std::collections::HashMap;
use std::sync::Arc;

use bp_concurrent::Crew;
use bp_state::trie::Trie;
use bp_state::world::FAN_OUT_MIN;
use bp_state::WorldState;
use bp_testkit::prelude::*;
use bp_types::{Address, Rng, H256, U256};

/// A batch of trie updates: `Some` inserts, `None` removes. Keys collide
/// freely across batches (that's the interesting case) but are deduped
/// within one batch — `apply_batch` requires distinct keys.
fn arb_batch() -> impl Strategy<Value = Vec<(Vec<u8>, Option<Vec<u8>>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 1..6),
            prop::option::of(prop::collection::vec(any::<u8>(), 1..12)),
        ),
        0..80,
    )
    .prop_map(|pairs| {
        let mut seen: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
        for (k, v) in pairs {
            seen.insert(k, v);
        }
        seen.into_iter().collect()
    })
}

fn sorted_nodes(mut nodes: Vec<(H256, Vec<u8>)>) -> Vec<(H256, Vec<u8>)> {
    nodes.sort();
    nodes
}

proptest! {
    /// `apply_batch` equals the one-by-one serial mutation sequence: same
    /// root, same per-reference commit-node set, and the same answers to
    /// point reads.
    #[test]
    fn apply_batch_equals_serial_mutation(
        base in arb_batch(),
        batch in arb_batch(),
    ) {
        let mut serial = Trie::new();
        for (k, v) in &base {
            match v {
                Some(v) => serial.insert(k, v.clone()),
                None => {
                    serial.remove(k);
                }
            }
        }
        let mut batched = serial.clone();

        for (k, v) in &batch {
            match v {
                Some(v) => serial.insert(k, v.clone()),
                None => {
                    serial.remove(k);
                }
            }
        }
        batched.apply_batch(batch.clone());

        prop_assert_eq!(batched.root_hash(), serial.root_hash());
        let (b_root, b_nodes) = batched.commit_nodes();
        let (s_root, s_nodes) = serial.commit_nodes();
        prop_assert_eq!(b_root, s_root);
        prop_assert_eq!(sorted_nodes(b_nodes), sorted_nodes(s_nodes));
        for (k, _) in &batch {
            prop_assert_eq!(batched.get(k), serial.get(k));
        }
    }

    /// Two successive batches still match a cold serial build of the final
    /// contents — a batch leaves nothing pending for the next to trip on.
    #[test]
    fn repeated_batches_match_cold_build(
        first in arb_batch(),
        second in arb_batch(),
    ) {
        let mut warm = Trie::new();
        warm.apply_batch(first.clone());
        let _ = warm.commit_nodes();
        warm.apply_batch(second.clone());

        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (k, v) in first.into_iter().chain(second) {
            match v {
                Some(v) => {
                    model.insert(k, v);
                }
                None => {
                    model.remove(&k);
                }
            }
        }
        let mut cold = Trie::new();
        for (k, v) in &model {
            cold.insert(k, v.clone());
        }

        let (w_root, w_nodes) = warm.commit_nodes();
        let (c_root, c_nodes) = cold.commit_nodes();
        prop_assert_eq!(w_root, c_root);
        prop_assert_eq!(sorted_nodes(w_nodes), sorted_nodes(c_nodes));
    }
}

/// World-level mutations: a population of accounts, then a dirty subset
/// (balance/nonce/storage writes, some accounts zeroed back to empty).
#[derive(Clone, Debug)]
struct WorldOps {
    accounts: u64,
    dirty: Vec<(u64, u64, Option<u64>)>, // (account index, balance, storage slot)
}

fn arb_world_ops() -> impl Strategy<Value = WorldOps> {
    (
        4u64..200,
        prop::collection::vec(
            (any::<u64>(), any::<u64>(), prop::option::of(0u64..8)),
            1..60,
        ),
    )
        .prop_map(|(accounts, raw)| WorldOps {
            accounts,
            dirty: raw
                .into_iter()
                .map(|(i, bal, slot)| (i % (accounts * 2), bal, slot))
                .collect(),
        })
}

fn apply_ops(world: &mut WorldState, ops: &WorldOps) {
    for &(idx, balance, slot) in &ops.dirty {
        let addr = Address::from_index(idx + 1);
        world.set_balance(addr, U256::from(balance));
        if let Some(slot) = slot {
            let key = H256::from_low_u64(slot);
            world.set_storage(addr, key, U256::from(balance / 2));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The world's commit — every dirty storage trie patched and hashed
    /// level by level together, then the account trie — equals the
    /// from-scratch `rebuild_root` oracle and a world that commits after
    /// every single write (each of its commits a batch of one key a trie,
    /// hashed node by node up its one path), with identical node sets.
    #[test]
    fn world_commit_equals_one_write_at_a_time_and_oracle(ops in arb_world_ops()) {
        let mut stepwise = WorldState::new();
        for i in 1..=ops.accounts {
            stepwise.set_balance(Address::from_index(i), U256::from(1_000 + i));
        }
        // Prime the incremental memo, then dirty a subset on top of it.
        let _ = stepwise.commit_tries();
        let mut batched = stepwise.clone();

        for step in 0..ops.dirty.len() {
            let one = WorldOps { accounts: ops.accounts, dirty: ops.dirty[step..=step].to_vec() };
            apply_ops(&mut stepwise, &one);
            let _ = stepwise.state_root();
        }
        apply_ops(&mut batched, &ops);

        let (s_root, s_nodes) = stepwise.commit_tries();
        let (b_root, b_nodes) = batched.commit_tries();
        prop_assert_eq!(b_root, s_root);
        prop_assert_eq!(b_root, batched.rebuild_root());
        prop_assert_eq!(sorted_nodes(b_nodes), sorted_nodes(s_nodes));
    }
}

/// One batch of a commit chain: `count` account writes at accounts `seed`
/// picks among twice the population (so some are new), each with `slots`
/// storage writes (none: an account-only batch), some of them zeros that
/// delete; every seventh account's balance goes to zero.
#[derive(Clone, Debug)]
struct DirtyBatch {
    count: u64,
    slots: u64,
    seed: u64,
}

fn arb_chain() -> impl Strategy<Value = (u64, Vec<DirtyBatch>)> {
    let most = 2 * FAN_OUT_MIN as u64 + 80;
    (
        40u64..400,
        prop::collection::vec(
            (
                1u64..most,
                prop_oneof![Just(0u64), Just(2), Just(8)],
                any::<u64>(),
            ),
            1..4,
        ),
    )
        .prop_map(|(accounts, batches)| {
            let batches = batches
                .into_iter()
                .map(|(count, slots, seed)| DirtyBatch { count, slots, seed })
                .collect();
            (accounts, batches)
        })
}

fn apply_batch(world: &mut WorldState, accounts: u64, batch: &DirtyBatch) {
    let mut rng = Rng::seed_from_u64(batch.seed);
    for i in 0..batch.count {
        let addr = Address::from_index(1 + rng.gen_range(0..accounts * 2));
        let balance = match i % 7 {
            6 => 0,
            _ => rng.gen_range(1..1_000_000u64),
        };
        world.set_balance(addr, U256::from(balance));
        for _ in 0..batch.slots {
            let slot = H256::from_low_u64(rng.gen_range(0..16));
            world.set_storage(addr, slot, U256::from(rng.gen_range(0..4u64)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A chain of commits on a crew with idle helpers — each batch at or
    /// above [`FAN_OUT_MIN`] dirty accounts split into shards of account
    /// subtrees with their storage tries, the genesis commit too — equals
    /// the same chain committed on a crew with no helper, which never fans
    /// out: same roots, the `rebuild_root` oracle's, and the same node sets.
    /// Each child is forked and committed while its parent's commit may
    /// still be hashing on another thread, so its commit waits on a pending
    /// one.
    #[test]
    fn sharded_commit_equals_one_thread_commit_and_oracle(chain in arb_chain()) {
        let (accounts, batches) = chain;
        let fanned = Crew::new(3);
        let one_thread = Crew::new(0);
        let mut genesis = WorldState::new();
        for i in 1..=accounts {
            genesis.set_balance(Address::from_index(i), U256::from(1_000 + i));
            if i % 5 == 0 {
                genesis.set_storage(Address::from_index(i), H256::from_low_u64(1), U256::from(i));
            }
        }
        let mut sharded = Arc::new(genesis.clone());
        let mut serial = Arc::new(genesis);
        for batch in &batches {
            let hashing = {
                let (parent, fanned) = (Arc::clone(&sharded), fanned.clone());
                std::thread::spawn(move || fanned.install(|| parent.state_root()))
            };
            let mut child = sharded.snapshot();
            apply_batch(&mut child, accounts, batch);
            let (s_root, s_nodes) = fanned.install(|| child.commit_tries());
            let parent_root = hashing.join().expect("the parent's commit");

            prop_assert_eq!(parent_root, one_thread.install(|| serial.state_root()));
            prop_assert_eq!(parent_root, sharded.rebuild_root());
            let mut serial_child = serial.snapshot();
            apply_batch(&mut serial_child, accounts, batch);
            let (o_root, o_nodes) = one_thread.install(|| serial_child.commit_tries());
            prop_assert_eq!(s_root, o_root);
            prop_assert_eq!(s_root, child.rebuild_root());
            prop_assert_eq!(sorted_nodes(s_nodes), sorted_nodes(o_nodes));
            sharded = Arc::new(child);
            serial = Arc::new(serial_child);
        }
    }
}
