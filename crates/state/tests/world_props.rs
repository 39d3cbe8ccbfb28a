//! Property tests for the world state: the MPT commitment is a pure
//! function of contents, and write-set application has the algebraic
//! properties OCC-WSI relies on (disjoint write sets commute).

use std::sync::Arc;

use bp_state::WorldState;
use bp_testkit::prelude::*;
use bp_types::{AccessKey, Address, WriteSet, H256, U256};

#[derive(Clone, Debug)]
enum Mutation {
    Balance(u8, u64),
    Nonce(u8, u32),
    Storage(u8, u8, u64),
}

fn arb_mutations() -> impl Strategy<Value = Vec<Mutation>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u64>()).prop_map(|(a, v)| Mutation::Balance(a, v)),
            (any::<u8>(), any::<u32>()).prop_map(|(a, v)| Mutation::Nonce(a, v)),
            (any::<u8>(), 0u8..8, any::<u64>()).prop_map(|(a, s, v)| Mutation::Storage(a, s, v)),
        ],
        0..40,
    )
}

fn apply(world: &mut WorldState, m: &Mutation) {
    match *m {
        Mutation::Balance(a, v) => world.set_balance(Address::from_index(a as u64), U256::from(v)),
        Mutation::Nonce(a, v) => world.set_nonce(Address::from_index(a as u64), v as u64),
        Mutation::Storage(a, s, v) => world.set_storage(
            Address::from_index(a as u64),
            H256::from_low_u64(s as u64),
            U256::from(v),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn state_root_depends_only_on_content(muts in arb_mutations(), seed in any::<u64>()) {
        let mut a = WorldState::new();
        for m in &muts {
            apply(&mut a, m);
        }
        // Apply the same final content in a shuffled order (with duplicated
        // intermediate writes, last-write-wins must hold).
        let mut order: Vec<usize> = (0..muts.len()).collect();
        let n = order.len().max(1);
        for i in (1..order.len()).rev() {
            let j = (seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64) % n as u64)
                as usize % (i + 1);
            order.swap(i, j);
        }
        // Shuffling changes which write wins per key, so instead rebuild
        // from a's observable content: roots must match exactly.
        let mut b = WorldState::new();
        for (addr, acct) in a.accounts() {
            b.set_balance(*addr, acct.balance);
            b.set_nonce(*addr, acct.nonce);
            for (slot, value) in &acct.storage {
                b.set_storage(*addr, *slot, *value);
            }
            if !acct.code.is_empty() {
                b.set_code(*addr, (*acct.code).clone());
            }
        }
        prop_assert_eq!(a.state_root(), b.state_root());
        let _ = order;
    }

    #[test]
    fn disjoint_write_sets_commute(muts_a in arb_mutations(), muts_b in arb_mutations()) {
        // Build two write sets over disjoint address spaces.
        let mut ws_a: WriteSet = Default::default();
        for m in &muts_a {
            match *m {
                Mutation::Balance(a, v) => {
                    ws_a.insert(AccessKey::Balance(Address::from_index(a as u64)), U256::from(v));
                }
                Mutation::Nonce(a, v) => {
                    ws_a.insert(AccessKey::Nonce(Address::from_index(a as u64)), U256::from(v as u64));
                }
                Mutation::Storage(a, s, v) => {
                    ws_a.insert(
                        AccessKey::Storage(
                            Address::from_index(a as u64),
                            H256::from_low_u64(s as u64),
                        ),
                        U256::from(v),
                    );
                }
            }
        }
        let mut ws_b: WriteSet = Default::default();
        for m in &muts_b {
            // Offset B's addresses out of A's range (u8 space + 1000).
            match *m {
                Mutation::Balance(a, v) => {
                    ws_b.insert(
                        AccessKey::Balance(Address::from_index(1000 + a as u64)),
                        U256::from(v),
                    );
                }
                Mutation::Nonce(a, v) => {
                    ws_b.insert(
                        AccessKey::Nonce(Address::from_index(1000 + a as u64)),
                        U256::from(v as u64),
                    );
                }
                Mutation::Storage(a, s, v) => {
                    ws_b.insert(
                        AccessKey::Storage(
                            Address::from_index(1000 + a as u64),
                            H256::from_low_u64(s as u64),
                        ),
                        U256::from(v),
                    );
                }
            }
        }

        let mut ab = WorldState::new();
        ab.apply_writes(&ws_a);
        ab.apply_writes(&ws_b);
        let mut ba = WorldState::new();
        ba.apply_writes(&ws_b);
        ba.apply_writes(&ws_a);
        prop_assert_eq!(ab.state_root(), ba.state_root());
    }

    #[test]
    fn read_key_reflects_writes(muts in arb_mutations()) {
        let mut world = WorldState::new();
        let mut ws: WriteSet = Default::default();
        for m in &muts {
            match *m {
                Mutation::Balance(a, v) => {
                    ws.insert(AccessKey::Balance(Address::from_index(a as u64)), U256::from(v));
                }
                Mutation::Nonce(a, v) => {
                    ws.insert(AccessKey::Nonce(Address::from_index(a as u64)), U256::from(v as u64));
                }
                Mutation::Storage(a, s, v) => {
                    ws.insert(
                        AccessKey::Storage(
                            Address::from_index(a as u64),
                            H256::from_low_u64(s as u64),
                        ),
                        U256::from(v),
                    );
                }
            }
        }
        world.apply_writes(&ws);
        for (key, value) in &ws {
            prop_assert_eq!(world.read_key(key), *value, "key {:?}", key);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental commitment equivalence
// ---------------------------------------------------------------------------

/// Richer op stream for the incremental-commitment properties: zero writes
/// (slot deletion), zeroed balances/nonces (EIP-161 account emptying), code
/// installs, CoW snapshots, and mid-sequence commits that advance the
/// incremental memo.
#[derive(Clone, Debug)]
enum Op {
    Balance(u8, u8),
    Nonce(u8, u8),
    Storage(u8, u8, u8),
    Code(u8, u8),
    Commit,
    Fork,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Tiny address/slot/value spaces so deletions, emptyings, and rewrites
    // of the same key are common.
    prop::collection::vec(
        prop_oneof![
            (0u8..12, 0u8..4).prop_map(|(a, v)| Op::Balance(a, v)),
            (0u8..12, 0u8..4).prop_map(|(a, v)| Op::Nonce(a, v)),
            (0u8..12, 0u8..6, 0u8..4).prop_map(|(a, s, v)| Op::Storage(a, s, v)),
            (0u8..12, 0u8..3).prop_map(|(a, v)| Op::Code(a, v)),
            Just(Op::Commit),
            Just(Op::Fork),
        ],
        0..60,
    )
}

fn apply_op(world: &mut WorldState, op: &Op) {
    let addr = |a: u8| Address::from_index(a as u64);
    match *op {
        Op::Balance(a, v) => world.set_balance(addr(a), U256::from(v as u64)),
        Op::Nonce(a, v) => world.set_nonce(addr(a), v as u64),
        Op::Storage(a, s, v) => {
            world.set_storage(addr(a), H256::from_low_u64(s as u64), U256::from(v as u64))
        }
        Op::Code(a, v) => world.set_code(addr(a), vec![v; v as usize]),
        Op::Commit | Op::Fork => {}
    }
}

/// A fresh world with identical contents and no incremental memo.
fn fresh_copy(world: &WorldState) -> WorldState {
    let mut fresh = WorldState::new();
    for (a, acct) in world.accounts() {
        fresh.set_balance(*a, acct.balance);
        fresh.set_nonce(*a, acct.nonce);
        fresh.set_code(*a, Arc::clone(&acct.code));
        for (slot, value) in acct.storage.iter() {
            fresh.set_storage(*a, *slot, *value);
        }
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_root_always_matches_from_scratch(ops in arb_ops()) {
        let mut world = WorldState::new();
        for op in &ops {
            apply_op(&mut world, op);
            if matches!(op, Op::Commit) {
                // Advance the incremental memo mid-sequence; the root must
                // match a from-scratch rebuild at every commit point.
                prop_assert_eq!(world.state_root(), world.rebuild_root());
            }
        }
        let incremental = world.state_root();
        prop_assert_eq!(incremental, world.rebuild_root());
        prop_assert_eq!(incremental, fresh_copy(&world).state_root());
    }

    #[test]
    fn incremental_commit_tries_roundtrip(ops in arb_ops()) {
        use bp_state::empty_root;

        let mut world = WorldState::new();
        for op in &ops {
            apply_op(&mut world, op);
            if matches!(op, Op::Commit) {
                let _ = world.commit_tries();
            }
        }
        let (root, nodes) = world.commit_tries();
        prop_assert_eq!(root, world.state_root());

        // Same nodes as a memo-less world with identical contents.
        let (fresh_root, fresh_nodes) = fresh_copy(&world).commit_tries();
        prop_assert_eq!(root, fresh_root);
        let mut a = nodes.clone();
        let mut b = fresh_nodes;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);

        // And the emitted nodes hold every root a reader starts from: the
        // account trie's, and each account's storage trie's.
        let hashes: std::collections::HashSet<_> = nodes.iter().map(|(hash, _)| *hash).collect();
        prop_assert!(root == empty_root() || hashes.contains(&root));
        for (_, acct) in world.accounts() {
            let slots = acct
                .storage
                .iter()
                .filter(|(_, v)| !v.is_zero())
                .map(|(k, v)| (*k, *v))
                .collect();
            let storage_root = bp_state::storage_root(&slots);
            prop_assert!(storage_root == empty_root() || hashes.contains(&storage_root));
        }
    }

    #[test]
    fn snapshots_commit_independently(ops in arb_ops()) {
        // Split the op stream at every Fork: ops before run on both
        // lineages, ops after only on the original. The snapshot's root must
        // stay that of the shared prefix.
        let mut world = WorldState::new();
        let mut snapshots: Vec<(WorldState, bp_types::H256)> = Vec::new();
        for op in &ops {
            if matches!(op, Op::Fork) {
                let snap = world.snapshot();
                let root = snap.state_root();
                snapshots.push((snap, root));
            }
            apply_op(&mut world, op);
        }
        let final_root = world.state_root();
        prop_assert_eq!(final_root, world.rebuild_root());
        for (snap, root_at_fork) in snapshots {
            prop_assert_eq!(snap.state_root(), root_at_fork);
            prop_assert_eq!(snap.state_root(), snap.rebuild_root());
        }
    }
}
