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
