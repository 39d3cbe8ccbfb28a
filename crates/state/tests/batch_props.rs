//! Property tests for the one-descent batch apply: a batch must leave the
//! trie exactly where applying its updates one `insert`/`remove` at a time
//! leaves it — same root, same per-reference node list, same contents —
//! whatever shapes the batch runs into.
//!
//! The generators are built to run into the awkward ones: keys over a
//! five-byte alphabet share long prefixes and are prefixes of one another
//! (branch values, extensions, a root-valued key), values are one byte (whole
//! subtrees inlined under 32 bytes), forty bytes (hashed) or empty (deletes),
//! and the dedicated cases force a branch to fold into a leaf or an extension
//! and an extension to fork at every nibble of its path.

use std::collections::{BTreeMap, HashMap};

use bp_crypto::{keccak256, rlp};
use bp_state::trie::Trie;
use bp_state::WorldState;
use bp_testkit::prelude::*;
use bp_types::{Address, H256, U256};

type Batch = Vec<(Vec<u8>, Option<Vec<u8>>)>;

fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![Just(0x00u8), Just(0x01), Just(0x10), Just(0x11), Just(0xf0)],
        0..5,
    )
}

/// `None` and the empty value both delete.
fn arb_update() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![
        3 => any::<u8>().prop_map(|b| Some(vec![b])),
        3 => any::<u8>().prop_map(|b| Some(vec![b; 40])),
        1 => Just(Some(Vec::new())),
        2 => Just(None),
    ]
}

/// Distinct keys, in whatever order the hash map hands them out.
fn arb_batch(max: usize) -> impl Strategy<Value = Batch> {
    prop::collection::vec((arb_key(), arb_update()), 0..max).prop_map(|pairs| {
        pairs
            .into_iter()
            .collect::<HashMap<_, _>>()
            .into_iter()
            .collect()
    })
}

fn one_by_one(trie: &mut Trie, batch: &Batch) {
    for (key, update) in batch {
        match update {
            Some(value) => trie.insert(key, value.clone()),
            None => {
                trie.remove(key);
            }
        }
    }
}

fn sorted_nodes(trie: &Trie) -> (H256, Vec<(H256, Vec<u8>)>) {
    let (root, mut nodes) = trie.commit_nodes();
    nodes.sort();
    (root, nodes)
}

/// Kinds of node in a trie, counted off its emitted encodings (inlined
/// children included): (branches, extensions, leaves, inlined nodes).
fn shape(trie: &Trie) -> (usize, usize, usize, usize) {
    fn count(item: &rlp::reference::Item, inlined: bool, out: &mut (usize, usize, usize, usize)) {
        let list = item.as_list().expect("a node is a list");
        out.3 += usize::from(inlined);
        if list.len() == 17 {
            out.0 += 1;
            for child in &list[..16] {
                if child.as_list().is_ok() {
                    count(child, true, out);
                }
            }
        } else if list[0].as_bytes().expect("hex-prefix path")[0] & 0x20 != 0 {
            out.2 += 1;
        } else {
            out.1 += 1;
            if list[1].as_list().is_ok() {
                count(&list[1], true, out);
            }
        }
    }
    let mut out = (0, 0, 0, 0);
    for (_, encoding) in trie.commit_nodes().1 {
        count(
            &rlp::reference::decode(&encoding).expect("node decodes"),
            false,
            &mut out,
        );
    }
    out
}

/// The checks every case ends on: `batched` (a batch applied to a clone of
/// `base`) against `base` with the same updates applied one by one.
fn assert_equivalent(base: &Trie, batch: &Batch, batched: &Trie) -> Result<(), TestCaseError> {
    let mut serial = base.clone();
    one_by_one(&mut serial, batch);
    prop_assert_eq!(batched.root_hash(), serial.root_hash());
    prop_assert_eq!(sorted_nodes(batched), sorted_nodes(&serial));
    prop_assert_eq!(batched.iter(), serial.iter());
    for (key, _) in batch {
        prop_assert_eq!(batched.get(key), serial.get(key));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense, prefix-heavy key sets: every batch against a warm base, and —
    /// when the base comes out empty — as a cold build.
    #[test]
    fn batch_equals_one_by_one(
        base in arb_batch(40),
        batch in arb_batch(40),
    ) {
        let mut trie = Trie::new();
        one_by_one(&mut trie, &base);
        let snapshot_root = trie.root_hash();
        let mut batched = trie.clone();
        batched.apply_batch(batch.clone());
        assert_equivalent(&trie, &batch, &batched)?;
        // The clone the batch started from is untouched.
        prop_assert_eq!(trie.root_hash(), snapshot_root);
        let mut rebuilt = Trie::new();
        one_by_one(&mut rebuilt, &base);
        prop_assert_eq!(sorted_nodes(&trie), sorted_nodes(&rebuilt));
    }

    /// A cold build: the whole content as one batch on an empty trie equals
    /// the sorted map it came from.
    #[test]
    fn cold_build_equals_one_by_one(batch in arb_batch(80)) {
        let mut batched = Trie::new();
        batched.apply_batch(batch.clone());
        assert_equivalent(&Trie::new(), &batch, &batched)?;
        let model: BTreeMap<Vec<u8>, Vec<u8>> = batch
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.clone().filter(|v| !v.is_empty())?)))
            .collect();
        prop_assert_eq!(batched.iter(), model.into_iter().collect::<Vec<_>>());
    }

    /// Removals that leave a branch with one child: the survivor is a leaf
    /// (the branch folds into a leaf) or a subtree of two or more keys (it
    /// folds into an extension), under a prefix of any length, with and
    /// without a value on the branch, alone or beside unrelated updates.
    #[test]
    fn removals_fold_branches(
        prefix in arb_key(),
        survivor in 0u8..3,
        below in prop::collection::vec(1u8..4, 0..3),
        value_on_branch in any::<bool>(),
        noise in arb_batch(6),
    ) {
        // Three siblings under `prefix`, at nibbles 2, 5 and 9; the survivor
        // may have keys of its own below it.
        let sibling = |n: u8| [prefix.clone(), vec![[0x20, 0x50, 0x90][n as usize]]].concat();
        let long = vec![0xabu8; 40];
        let mut base = Trie::new();
        for n in 0..3 {
            base.insert(&sibling(n), long.clone());
        }
        for tail in &below {
            base.insert(&[sibling(survivor), vec![*tail]].concat(), long.clone());
        }
        if value_on_branch {
            base.insert(&prefix, vec![1]);
        }
        let mut batch: HashMap<Vec<u8>, Option<Vec<u8>>> = noise.into_iter().collect();
        for n in (0..3).filter(|n| *n != survivor) {
            batch.insert(sibling(n), None);
        }
        if !below.is_empty() {
            // Its own key goes too: what survives is the subtree below it.
            batch.insert(sibling(survivor), Some(Vec::new()));
        }
        let batch: Batch = batch.into_iter().collect();
        let mut batched = base.clone();
        batched.apply_batch(batch.clone());
        assert_equivalent(&base, &batch, &batched)?;
    }

    /// Inserts that fork an extension at each nibble of its path, end a key
    /// inside it, or fork it twice in one batch.
    #[test]
    fn inserts_fork_extensions(
        prefix in arb_key(),
        run in prop::collection::vec(any::<u8>(), 1..4),
        cut in any::<prop::sample::Index>(),
        second_cut in any::<prop::sample::Index>(),
        end_inside in any::<bool>(),
        remove_below in any::<bool>(),
    ) {
        // Two keys that share `prefix ++ run`: an extension over that run.
        let shared = [prefix.clone(), run.clone()].concat();
        let long = vec![0xcdu8; 40];
        let mut base = Trie::new();
        base.insert(&[shared.clone(), vec![0x13]].concat(), long.clone());
        base.insert(&[shared.clone(), vec![0x17]].concat(), long.clone());
        prop_assert!(shape(&base).1 >= 1, "the base must hold an extension");
        // A key that leaves the run at nibble `at` of it.
        let leaving = |at: usize| {
            let mut key = shared.clone();
            let byte = prefix.len() + at / 2;
            key[byte] ^= if at.is_multiple_of(2) { 0x80 } else { 0x08 };
            key.truncate(byte + 1);
            key
        };
        let mut batch: HashMap<Vec<u8>, Option<Vec<u8>>> = HashMap::new();
        batch.insert(leaving(cut.index(run.len() * 2)), Some(long.clone()));
        batch.insert(leaving(second_cut.index(run.len() * 2)), Some(vec![7]));
        if end_inside {
            batch.insert([prefix.clone(), run[..run.len() - 1].to_vec()].concat(), Some(vec![9]));
        }
        if remove_below {
            batch.insert([shared.clone(), vec![0x13]].concat(), None);
        }
        let batch: Batch = batch.into_iter().collect();
        let mut batched = base.clone();
        batched.apply_batch(batch.clone());
        assert_equivalent(&base, &batch, &batched)?;
        if !remove_below {
            prop_assert!(shape(&batched).0 > shape(&base).0, "a fork adds a branch");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hashed 32-byte keys in the numbers of a block and more, on a trie
    /// whose root is a full branch: levels of hundreds of nodes, hashed
    /// eight at a time and in chunks, equal the one-by-one build.
    #[test]
    fn hashed_key_batches_equal_one_by_one(
        seeds in prop::collection::vec(any::<u16>(), 150..400),
        rewrite in prop::collection::vec((any::<u16>(), arb_update()), 150..700),
    ) {
        let key = |i: u16| keccak256(&i.to_be_bytes()).0.to_vec();
        let base: Batch = seeds
            .iter()
            .map(|&i| (i, Some(vec![i as u8; 40])))
            .collect::<HashMap<_, _>>()
            .into_iter()
            .map(|(i, v)| (key(i), v))
            .collect();
        let batch: Batch = rewrite
            .into_iter()
            .collect::<HashMap<_, _>>()
            .into_iter()
            .map(|(i, v)| (key(i), v))
            .collect();
        let mut trie = Trie::new();
        trie.apply_batch(base.clone());
        assert_equivalent(&Trie::new(), &base, &trie)?;
        let mut batched = trie.clone();
        batched.apply_batch(batch.clone());
        assert_equivalent(&trie, &batch, &batched)?;
    }

    /// Storage-trie batches: a block's slot writes to one contract (zeros
    /// delete) go through the same descent, and the commit emits the
    /// one-by-one `keccak(slot) → rlp(value)` trie, whatever else it hashes
    /// beside it.
    #[test]
    fn storage_batches_equal_one_by_one(
        first in prop::collection::vec((0u64..48, any::<u64>()), 1..60),
        second in prop::collection::vec((0u64..48, prop_oneof![Just(0u64), any::<u64>()]), 1..60),
        bystanders in 0u64..300,
    ) {
        let contract = Address::from_index(7);
        let mut world = WorldState::new();
        world.set_code(contract, vec![0x00]);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for round in [&first, &second] {
            for &(slot, value) in round {
                world.set_storage(contract, H256::from_low_u64(slot), U256::from(value));
                model.insert(slot, value);
            }
            for i in 0..bystanders {
                world.set_balance(Address::from_index(100 + i), U256::from(i + round.len() as u64));
            }
            let (root, mut nodes) = world.commit_tries();
            prop_assert_eq!(root, world.rebuild_root());
            nodes.sort();
            let mut storage = Trie::new();
            for (&slot, &value) in model.iter().filter(|(_, v)| **v != 0) {
                storage.insert(
                    keccak256(H256::from_low_u64(slot).as_bytes()).as_bytes(),
                    rlp::encode_bytes(&U256::from(value).to_be_bytes_trimmed()),
                );
            }
            // Every node of the one-by-one trie, its root included, is one
            // the commit emitted.
            for node in storage.commit_nodes().1 {
                prop_assert!(nodes.binary_search(&node).is_ok());
            }
        }
    }
}

/// The shapes the generators are built to reach, pinned on fixed inputs so
/// that a generator drifting away from them shows.
#[test]
fn forced_shapes_are_reached() {
    let long = vec![0x77u8; 40];
    // A branch of two leaves folds into one leaf …
    let mut trie = Trie::new();
    trie.insert(b"\x10\x20", long.clone());
    trie.insert(b"\x10\x50", long.clone());
    assert_eq!(shape(&trie), (1, 1, 2, 0));
    trie.apply_batch(vec![(b"\x10\x50".to_vec(), None)]);
    assert_eq!(shape(&trie), (0, 0, 1, 0));
    // … and a branch over a leaf and a subtree folds into an extension.
    let mut trie = Trie::new();
    for key in [&b"\x10\x20"[..], b"\x10\x50\x01", b"\x10\x50\x02"] {
        trie.insert(key, long.clone());
    }
    assert_eq!(shape(&trie), (2, 2, 3, 0));
    trie.apply_batch(vec![(b"\x10\x20".to_vec(), None)]);
    assert_eq!(shape(&trie), (1, 1, 2, 0));
    // One-byte values under short keys are inlined, a root-valued key sits
    // on the root branch, and an empty value deletes.
    let mut trie = Trie::new();
    trie.apply_batch(vec![
        (vec![], Some(vec![1])),
        (vec![0x01], Some(vec![2])),
        (vec![0x11], Some(vec![3])),
        (vec![0xf0], Some(Vec::new())),
    ]);
    assert_eq!(trie.get(&[]), Some(&[1u8][..]));
    assert_eq!(trie.get(&[0xf0]), None);
    let (branches, _, leaves, inlined) = shape(&trie);
    assert_eq!((branches, leaves, inlined), (1, 2, 2));
}
