//! End-to-end equivalence: a `WorldState` reading through a snapshot-tree
//! stack (diff layers over the flat base) must be observationally identical
//! to a fully resident `WorldState` fed the same writes — identical state
//! roots after every block, identical point reads after every rebase, even
//! as the tree flattens old layers into its base mid-run.
//!
//! This mirrors the validator's storage profile: execute a block on a
//! base-backed world, distill its delta via the touched keys, stack the
//! delta as a diff layer, and rebase the world onto the new root's reader.

use std::collections::HashSet;
use std::sync::Arc;

use bp_snap::{test_dir, SnapTree};
use bp_state::WorldState;
use bp_types::{AccessKey, Address, Rng, H256, U256};

fn genesis(n: u64) -> WorldState {
    let mut w = WorldState::new();
    for i in 0..n {
        let a = Address::from_index(i);
        w.set_balance(a, U256::from(1_000_000u64 + i));
        if i % 3 == 0 {
            w.set_storage(a, H256::from_low_u64(i % 5), U256::from(i + 1));
        }
    }
    w
}

/// Applies one random "block" of writes to both worlds, returning the
/// touched access keys (what the validator would distill a delta from).
fn mutate_block(
    rng: &mut Rng,
    resident: &mut WorldState,
    layered: &mut WorldState,
) -> HashSet<AccessKey> {
    let mut keys = HashSet::new();
    for _ in 0..rng.gen_range(2..8u64) {
        let addr = Address::from_index(rng.gen_range(0..24u64));
        match rng.gen_range(0..8u64) {
            0 | 1 => {
                let v = U256::from(rng.gen_range(0..1_000_000u64));
                resident.set_balance(addr, v);
                layered.set_balance(addr, v);
                keys.insert(AccessKey::Balance(addr));
            }
            2 => {
                let n = rng.gen_range(0..100u64);
                resident.set_nonce(addr, n);
                layered.set_nonce(addr, n);
                keys.insert(AccessKey::Nonce(addr));
            }
            3 => {
                let code = vec![rng.gen_range(..); rng.gen_range(1..=24usize)];
                resident.set_code(addr, code.clone());
                layered.set_code(addr, code);
                keys.insert(AccessKey::Code(addr));
            }
            4 => {
                // Zero write: must clear the slot on both sides identically.
                let slot = H256::from_low_u64(rng.gen_range(0..5u64));
                resident.set_storage(addr, slot, U256::ZERO);
                layered.set_storage(addr, slot, U256::ZERO);
                keys.insert(AccessKey::Storage(addr, slot));
            }
            _ => {
                let slot = H256::from_low_u64(rng.gen_range(0..5u64));
                let v = U256::from(rng.gen_range(1..=5000u64));
                resident.set_storage(addr, slot, v);
                layered.set_storage(addr, slot, v);
                keys.insert(AccessKey::Storage(addr, slot));
            }
        }
    }
    keys
}

fn assert_reads_equal(resident: &WorldState, layered: &WorldState, ctx: &str) {
    for i in 0..24u64 {
        let a = Address::from_index(i);
        assert_eq!(
            resident.balance(&a),
            layered.balance(&a),
            "{ctx}: balance {i}"
        );
        assert_eq!(resident.nonce(&a), layered.nonce(&a), "{ctx}: nonce {i}");
        assert_eq!(resident.code(&a), layered.code(&a), "{ctx}: code {i}");
        for s in 0..5u64 {
            let slot = H256::from_low_u64(s);
            assert_eq!(
                resident.storage(&a, &slot),
                layered.storage(&a, &slot),
                "{ctx}: slot {s} of {i}"
            );
        }
    }
}

fn run(seed: u64, dir: Option<&std::path::Path>, blocks: u64, window: usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut resident = genesis(16);
    let genesis_root = resident.state_root();

    let tree = match dir {
        Some(d) => SnapTree::open(d).unwrap(),
        None => SnapTree::memory(),
    };
    tree.seed(&resident.full_delta(), genesis_root, 0).unwrap();

    // The layered world starts as a clone, then sheds its residents in
    // favor of reads through the snapshot stack.
    let mut layered = resident.snapshot();
    layered.rebase(Arc::new(tree.reader(genesis_root).unwrap()));
    assert_eq!(layered.state_root(), genesis_root);

    let mut head = genesis_root;
    for b in 1..=blocks {
        let ctx = format!("seed {seed} block {b}");
        let keys = mutate_block(&mut rng, &mut resident, &mut layered);
        let resident_root = resident.state_root();
        let layered_root = layered.state_root();
        assert_eq!(resident_root, layered_root, "{ctx}: state roots diverged");

        // Stack the block's distilled delta and move the read base forward,
        // exactly as the validator's persist path does.
        let delta = layered.delta_for_keys(keys.iter());
        tree.add_layer(layered_root, head, b, delta).unwrap();
        head = layered_root;
        layered.rebase(Arc::new(tree.reader(head).unwrap()));

        assert_eq!(layered.state_root(), resident_root, "{ctx}: after rebase");
        assert_reads_equal(&resident, &layered, &ctx);

        // Keep the window tight so folds happen repeatedly mid-run.
        if b % 3 == 0 {
            tree.retain(head, window).unwrap();
            assert!(tree.has_root(head) || tree.base_root() == head, "{ctx}");
            assert_reads_equal(&resident, &layered, &format!("{ctx}: after fold"));
        }
    }
    assert!(
        tree.layer_count() <= window.max(blocks as usize % 3 + window),
        "window kept the layer stack bounded"
    );
}

#[test]
fn layered_world_matches_resident_in_memory() {
    for seed in [5, 0xACE] {
        run(seed, None, 24, 2);
    }
}

#[test]
fn layered_world_matches_resident_on_disk() {
    let dir = test_dir("layered-world");
    run(0xD15C, Some(&dir), 24, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}
