//! Property tests for the persistent map under the world state: it is
//! observationally a `std::collections::HashMap`, and a clone is a snapshot —
//! whatever either side does afterwards, the other reads what it read before.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use bp_state::PMap;
use bp_testkit::prelude::*;
use bp_types::FxBuildHasher;

/// A key whose hash the test controls: only `hashed` is fed to the hasher,
/// so keys differing in `id` alone collide in all 64 bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    hashed: u64,
    id: u8,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hashed);
    }
}

/// The key space: a few ordinary hashes, a family agreeing in the low 20
/// hash bits (four levels of shared path), each in three colliding copies.
fn key_space() -> Vec<Key> {
    let hash = |hashed: u64| FxBuildHasher::default().hash_one(Key { hashed, id: 0 });
    let mask = (1u64 << 20) - 1;
    let target = hash(0) & mask;
    let deep = (0u64..).filter(|h| hash(*h) & mask == target).take(6);
    (1000..1016u64)
        .chain(deep)
        .flat_map(|hashed| (0..3).map(move |id| Key { hashed, id }))
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, u16),
    Remove(usize),
    Bump(usize),
    /// Keep a clone of the current fork aside; it must never change.
    Snapshot,
    /// Continue on a clone of the current fork; the old one stays live.
    Fork,
    /// Switch to another live fork.
    Switch(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0usize..66, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            4 => (0usize..66).prop_map(Op::Remove),
            1 => (0usize..66).prop_map(Op::Bump),
            1 => Just(Op::Snapshot),
            1 => Just(Op::Fork),
            1 => (0usize..4).prop_map(Op::Switch),
        ],
        0..300,
    )
}

type Pair = (PMap<Key, u16>, HashMap<Key, u16>);

fn assert_same((map, model): &Pair) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    let seen: HashMap<Key, u16> = map.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(map.iter().len(), model.len());
    prop_assert_eq!(&seen, model);
    for (k, v) in model {
        prop_assert_eq!(map.get(k), Some(v));
    }
    // Equality is by content, whatever history built the other side.
    let rebuilt: PMap<Key, u16> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert!(&rebuilt == map);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn behaves_like_std_hashmap_across_snapshots_and_forks(ops in arb_ops()) {
        let keys = key_space();
        prop_assert_eq!(keys.len(), 66);
        let mut forks: Vec<Pair> = vec![(PMap::new(), HashMap::new())];
        let mut snapshots: Vec<Pair> = Vec::new();
        let mut current = 0;
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let (map, model) = &mut forks[current];
                    prop_assert_eq!(map.insert(keys[k], v), model.insert(keys[k], v));
                }
                Op::Remove(k) => {
                    let (map, model) = &mut forks[current];
                    prop_assert_eq!(map.remove(&keys[k]), model.remove(&keys[k]));
                }
                Op::Bump(k) => {
                    let (map, model) = &mut forks[current];
                    let slot = map.get_or_insert_with(keys[k], || 7);
                    *slot = slot.wrapping_add(1);
                    let slot = model.entry(keys[k]).or_insert(7);
                    *slot = slot.wrapping_add(1);
                }
                Op::Snapshot => snapshots.push(forks[current].clone()),
                Op::Fork => {
                    let fork = forks[current].clone();
                    forks.push(fork);
                    current = forks.len() - 1;
                }
                Op::Switch(to) => current = to % forks.len(),
            }
            let (map, model) = &forks[current];
            prop_assert_eq!(map.len(), model.len());
        }
        for pair in forks.iter().chain(&snapshots) {
            assert_same(pair)?;
        }
    }
}
