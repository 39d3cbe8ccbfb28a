//! Property tests: the MPT behaves like a sorted map and its root is a
//! content commitment (order-independent, removal-consistent).

use std::collections::BTreeMap;

use bp_state::trie::Trie;
use bp_testkit::prelude::*;

fn arb_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    prop::collection::vec(
        (
            prop::collection::vec(any::<u8>(), 1..8),
            prop::collection::vec(any::<u8>(), 1..16),
        ),
        0..40,
    )
}

fn build(pairs: &[(Vec<u8>, Vec<u8>)]) -> (Trie, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut trie = Trie::new();
    let mut model = BTreeMap::new();
    for (k, v) in pairs {
        trie.insert(k, v.clone());
        model.insert(k.clone(), v.clone());
    }
    (trie, model)
}

proptest! {
    #[test]
    fn trie_matches_btreemap_model(pairs in arb_pairs(), probes in arb_pairs()) {
        let (trie, model) = build(&pairs);
        for (k, _) in pairs.iter().chain(probes.iter()) {
            prop_assert_eq!(trie.get(k), model.get(k).map(|v| v.as_slice()));
        }
    }

    #[test]
    fn root_independent_of_insertion_order(pairs in arb_pairs(), seed in any::<u64>()) {
        let (t1, model) = build(&pairs);
        // Shuffle deterministically; later duplicates must override earlier
        // ones, so replay from the model (unique keys) instead.
        let mut entries: Vec<_> = model.into_iter().collect();
        let n = entries.len().max(1);
        for i in (1..entries.len()).rev() {
            let j = (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64) % n as u64) as usize % (i + 1);
            entries.swap(i, j);
        }
        let mut t2 = Trie::new();
        for (k, v) in entries {
            t2.insert(&k, v);
        }
        prop_assert_eq!(t1.root_hash(), t2.root_hash());
    }

    #[test]
    fn removal_equals_never_inserted(pairs in arb_pairs(), extra in prop::collection::vec(any::<u8>(), 1..8), value in prop::collection::vec(any::<u8>(), 1..8)) {
        let (mut with_extra, model) = build(&pairs);
        let was_present = model.contains_key(&extra);
        with_extra.insert(&extra, value);
        with_extra.remove(&extra);
        // Removing a key that the base pairs never contained must reproduce
        // the bare trie exactly.
        if !was_present {
            let (bare, _) = build(&pairs);
            prop_assert_eq!(with_extra.root_hash(), bare.root_hash());
        } else {
            prop_assert_eq!(with_extra.get(&extra), None);
        }
    }

    #[test]
    fn iter_is_the_model(pairs in arb_pairs()) {
        let (trie, model) = build(&pairs);
        let got = trie.iter();
        prop_assert_eq!(got.len(), model.len());
        for (k, v) in got {
            prop_assert_eq!(model.get(&k).map(|x| x.as_slice()), Some(v.as_slice()));
        }
    }

    #[test]
    fn distinct_contents_distinct_roots(pairs in arb_pairs(), k in prop::collection::vec(any::<u8>(), 1..8), v1 in prop::collection::vec(any::<u8>(), 1..8), v2 in prop::collection::vec(any::<u8>(), 1..8)) {
        prop_assume!(v1 != v2);
        let (mut a, _) = build(&pairs);
        let (mut b, _) = build(&pairs);
        a.insert(&k, v1);
        b.insert(&k, v2);
        prop_assert_ne!(a.root_hash(), b.root_hash());
    }
}

// ---------------------------------------------------------------------------
// Memoized commitment equivalence
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn memoized_roots_and_commits_match_cold_build(
        pairs in arb_pairs(),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        // Interleave mutations with root_hash/commit_nodes/clone so the
        // per-node memo is warm in as many states as possible; the final
        // root and emitted node set must match a cold build of the same
        // contents.
        let mut trie = Trie::new();
        let mut model = BTreeMap::new();
        for (i, (k, v)) in pairs.iter().enumerate() {
            trie.insert(k, v.clone());
            model.insert(k.clone(), v.clone());
            if i % 3 == 0 {
                let _ = trie.root_hash();
            }
            if i % 7 == 0 {
                let _ = trie.commit_nodes();
            }
        }
        let snapshot = trie.clone();
        let snapshot_root = trie.root_hash();
        if !pairs.is_empty() {
            for idx in &removals {
                let (k, _) = &pairs[idx.index(pairs.len())];
                trie.remove(k);
                model.remove(k);
            }
        }

        let mut cold = Trie::new();
        for (k, v) in &model {
            cold.insert(k, v.clone());
        }
        prop_assert_eq!(trie.root_hash(), cold.root_hash());

        let (warm_root, mut warm_nodes) = trie.commit_nodes();
        let (cold_root, mut cold_nodes) = cold.commit_nodes();
        prop_assert_eq!(warm_root, cold_root);
        warm_nodes.sort();
        cold_nodes.sort();
        prop_assert_eq!(warm_nodes, cold_nodes);

        // The pre-removal clone is untouched by the removals (structural
        // sharing never leaks mutations).
        prop_assert_eq!(snapshot.root_hash(), snapshot_root);
    }
}

// ---------------------------------------------------------------------------
// A batch on a trie held alone, and on one another trie shares
// ---------------------------------------------------------------------------

/// Keys of one to four bytes from a six-byte alphabet: they share long
/// prefixes, so a few dozen of them make extensions, branches with values,
/// and branches that a removal or two collapse into a leaf or an extension.
fn arb_key() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: [u8; 6] = [0x00, 0x01, 0x10, 0x11, 0x1f, 0xf1];
    prop::collection::vec((0..6usize).prop_map(|i| ALPHABET[i]), 1..5)
}

/// Values short enough to be inlined in their parent, and long enough to be
/// hashed.
fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..40)
}

/// One update of a batch, drawn before the keys it picks from are known.
#[derive(Clone, Debug)]
enum Step {
    Rewrite(prop::sample::Index, Vec<u8>),
    Remove(prop::sample::Index),
    Insert(Vec<u8>, Vec<u8>),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (any::<prop::sample::Index>(), arb_value()).prop_map(|(i, v)| Step::Rewrite(i, v)),
        3 => any::<prop::sample::Index>().prop_map(Step::Remove),
        1 => (arb_key(), arb_value()).prop_map(|(k, v)| Step::Insert(k, v)),
    ]
}

/// The trie of `model`, built in one batch.
fn trie_of(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Trie {
    let mut trie = Trie::new();
    trie.apply_batch(
        model
            .iter()
            .map(|(k, v)| (k.clone(), Some(v.clone())))
            .collect(),
    );
    trie
}

fn sorted(mut nodes: Vec<(bp_types::H256, Vec<u8>)>) -> Vec<(bp_types::H256, Vec<u8>)> {
    nodes.sort();
    nodes
}

proptest! {
    /// A batch edits in place the nodes of a trie nobody else holds, and
    /// copies those of a trie a clone shares: the two give the same root
    /// and the same node set, round after round, and the clone kept
    /// before each batch is what it was.
    #[test]
    fn a_batch_on_an_owned_trie_equals_one_on_a_shared_trie(
        base in prop::collection::vec((arb_key(), arb_value()), 0..40),
        rounds in prop::collection::vec(prop::collection::vec(arb_step(), 0..24), 1..5),
    ) {
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = base.into_iter().collect();
        // Never cloned: every batch edits it in place.
        let mut owned = trie_of(&model);
        // Cloned before every batch, the batch going to the clone.
        let mut kept = trie_of(&model);
        for steps in &rounds {
            let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
            let pick = |i: &prop::sample::Index| keys[i.index(keys.len())].clone();
            let batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = steps
                .iter()
                .filter_map(|step| match step {
                    Step::Rewrite(i, v) if !keys.is_empty() => Some((pick(i), Some(v.clone()))),
                    Step::Remove(i) if !keys.is_empty() => Some((pick(i), None)),
                    Step::Insert(k, v) => Some((k.clone(), Some(v.clone()))),
                    _ => None,
                })
                .collect();
            for (k, v) in &batch {
                match v {
                    Some(v) => model.insert(k.clone(), v.clone()),
                    None => model.remove(k),
                };
            }

            let before = kept.commit_nodes();
            let mut shared = kept.clone();
            shared.apply_batch(batch.clone());
            owned.apply_batch(batch);
            prop_assert_eq!(kept.commit_nodes(), before);

            let (root, nodes) = owned.commit_nodes();
            let (shared_root, shared_nodes) = shared.commit_nodes();
            prop_assert_eq!(root, shared_root);
            prop_assert_eq!(sorted(nodes), sorted(shared_nodes));
            prop_assert_eq!(root, trie_of(&model).root_hash());
            prop_assert_eq!(owned.iter(), model.clone().into_iter().collect::<Vec<_>>());
            kept = shared;
        }
    }
}
