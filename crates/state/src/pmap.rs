//! A persistent hash map: the container under [`crate::WorldState`].
//!
//! [`PMap`] is a hash-array-mapped trie. Each branch node consumes five bits
//! of the key's hash and is a dense, reference-counted array of its occupied
//! slots; the 32-bit occupancy bitmap that indexes the array travels beside
//! the pointer to it, in the parent, so a lookup touches one cache line per
//! level. A slot is one entry or the next level. Two properties make this the
//! right shape for per-block state:
//!
//! * **`clone()` is one reference-count bump.** A clone shares every node
//!   with its source; nothing is copied until one side writes.
//! * **A write copies only the path it walks.** At each level a node some
//!   other map still points at is copied (32 slots at most) and the copy is
//!   edited; a node this map owns alone is edited in place. So the first
//!   write after a clone copies `O(log₃₂ n)` nodes, later writes under the
//!   same nodes copy nothing, and a map that was never cloned — a genesis
//!   world being built — never copies a path: adding a slot reallocates the
//!   one node that gains it, as a `Vec` would.
//!
//! Keys are placed by their Fx hash ([`bp_types::FxHasher`]), never by their
//! raw bytes: addresses and slot numbers are counters, mapping-slot keys are
//! keccak outputs, and only a hash gives both families a balanced trie. The
//! hasher is fixed, so a map's shape is a function of its contents alone
//! (removal folds back what insertion split), and iteration order with it.
//! Like [`bp_types::FxHashMap`] this is not collision-resistant against
//! crafted keys; keys whose 64-bit hashes are equal share a linear bucket
//! below the last level.

use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

use bp_types::FxBuildHasher;

/// Hash bits consumed per level.
const BITS: u32 = 5;
/// Mask for one level's index.
const MASK: u64 = (1 << BITS) - 1;

/// A persistent (structurally shared, copy-on-write) hash map.
pub struct PMap<K, V> {
    root: Option<Branch<K, V>>,
    len: usize,
}

/// A branch node, as its parent holds it. `slots` has one element per set bit
/// of `bitmap`, in bit order. Never found below the level that consumes the
/// last hash bits.
struct Branch<K, V> {
    bitmap: u32,
    slots: Arc<[Slot<K, V>]>,
}

enum Slot<K, V> {
    Leaf(K, V),
    Branch(Branch<K, V>),
    /// Two or more entries whose 64-bit hashes are all equal.
    Bucket(Arc<[(K, V)]>),
}

impl<K, V> Clone for Branch<K, V> {
    fn clone(&self) -> Self {
        Branch {
            bitmap: self.bitmap,
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<K: Clone, V: Clone> Clone for Slot<K, V> {
    fn clone(&self) -> Self {
        match self {
            Slot::Leaf(k, v) => Slot::Leaf(k.clone(), v.clone()),
            Slot::Branch(child) => Slot::Branch(child.clone()),
            Slot::Bucket(entries) => Slot::Bucket(Arc::clone(entries)),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Node arrays allocated (fresh, regrown or copied) on this thread.
    static NODES_CREATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Node arrays allocated on this thread so far — structural tests take
/// differences.
#[cfg(test)]
pub(crate) fn nodes_created() -> usize {
    NODES_CREATED.with(|c| c.get())
}

#[inline]
fn count_node() {
    #[cfg(test)]
    NODES_CREATED.with(|c| c.set(c.get() + 1));
}

/// A fresh node holding `items`.
fn new_node<T, const N: usize>(items: [T; N]) -> Arc<[T]> {
    count_node();
    Arc::new(items)
}

/// A copy of `node` with `removed` elements at `at` replaced by `new`.
fn spliced<T: Clone>(node: &[T], at: usize, removed: usize, new: Option<T>) -> Arc<[T]> {
    count_node();
    let (head, tail) = (&node[..at], &node[at + removed..]);
    head.iter()
        .cloned()
        .chain(new)
        .chain(tail.iter().cloned())
        .collect()
}

/// `node` for editing: as it is if no other map shares it, else a copy of it
/// put in its place — the path copy.
fn unshared<T: Clone>(node: &mut Arc<[T]>) -> &mut [T] {
    // No `Weak` is ever made of a node, and nobody can clone the handle we
    // hold exclusively, so a count of one means sole owner; a count that a
    // concurrent drop is about to lower only costs a copy that was not needed.
    if Arc::strong_count(node) != 1 {
        *node = spliced(node, 0, 0, None);
    }
    Arc::get_mut(node).expect("sole owner: checked or copied above")
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    FxBuildHasher::default().hash_one(key)
}

/// The bit of a branch bitmap that `hash` selects at `shift`.
#[inline]
fn bit_at(hash: u64, shift: u32) -> u32 {
    1 << ((hash >> shift) & MASK)
}

/// Position in the dense slot array of the slot that `bit` selects.
#[inline]
fn slot_index(bitmap: u32, bit: u32) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

impl<K, V> PMap<K, V> {
    /// An empty map. Allocates nothing.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all entries, in an order fixed by the contents.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: Vec::new(),
            slots: self.root.as_ref().map_or([].iter(), |r| r.slots.iter()),
            bucket: [].iter(),
            remaining: self.len,
        }
    }

    /// Iterates over all keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Hash + Eq, V> PMap<K, V> {
    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = hash_of(key);
        let mut branch = self.root.as_ref()?;
        let mut shift = 0;
        loop {
            let bit = bit_at(hash, shift);
            if branch.bitmap & bit == 0 {
                return None;
            }
            match &branch.slots[slot_index(branch.bitmap, bit)] {
                Slot::Leaf(k, v) => return (k == key).then_some(v),
                Slot::Branch(child) => {
                    branch = child;
                    shift += BITS;
                }
                Slot::Bucket(entries) => {
                    return entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
            }
        }
    }

    /// True iff `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut value = Some(value);
        let (slot, inserted) = self.entry(key, || value.take().expect("taken once"));
        if inserted {
            None
        } else {
            Some(std::mem::replace(
                slot,
                value.take().expect("not taken: nothing was inserted"),
            ))
        }
    }

    /// The value under `key` for mutation, first storing `default()` there if
    /// the key was absent. Unshares the path to the entry either way.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        self.entry(key, default).0
    }

    /// [`PMap::get_or_insert_with`], also telling whether it inserted.
    fn entry(&mut self, key: K, default: impl FnOnce() -> V) -> (&mut V, bool) {
        let hash = hash_of(&key);
        let root = self.root.get_or_insert_with(|| Branch {
            bitmap: 0,
            slots: new_node([]),
        });
        let (value, inserted) = branch_entry(root, hash, 0, key, default);
        self.len += inserted as usize;
        (value, inserted)
    }

    /// Removes `key`, returning its value if it had one. An absent key
    /// leaves every node shared as it was.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let removed = branch_remove(self.root.as_mut()?, hash_of(key), 0, key);
        self.len -= 1;
        if self.len == 0 {
            self.root = None;
        }
        Some(removed)
    }
}

/// Descends from `branch` to the entry for `key`, unsharing each node on the
/// way and creating the entry from `default` if absent.
fn branch_entry<K: Hash + Eq + Clone, V: Clone>(
    branch: &mut Branch<K, V>,
    hash: u64,
    shift: u32,
    key: K,
    default: impl FnOnce() -> V,
) -> (&mut V, bool) {
    let bit = bit_at(hash, shift);
    let at = slot_index(branch.bitmap, bit);
    if branch.bitmap & bit == 0 {
        branch.slots = spliced(&branch.slots, at, 0, Some(Slot::Leaf(key, default())));
        branch.bitmap |= bit;
        let slots = Arc::get_mut(&mut branch.slots).expect("just created");
        let Slot::Leaf(_, value) = &mut slots[at] else {
            unreachable!("a leaf was just stored here")
        };
        return (value, true);
    }
    let slots = unshared(&mut branch.slots);
    // An entry with another key lives here: push both one level down.
    if let Slot::Leaf(other, other_value) = &slots[at] {
        if *other != key {
            let other = (other.clone(), other_value.clone(), hash_of(other));
            slots[at] = split(other, (key.clone(), default(), hash), shift + BITS);
            return (present_mut(&mut slots[at], hash, shift + BITS, &key), true);
        }
    }
    match &mut slots[at] {
        Slot::Leaf(_, value) => (value, false),
        Slot::Branch(child) => branch_entry(child, hash, shift + BITS, key, default),
        Slot::Bucket(entries) => match entries.iter().position(|(k, _)| *k == key) {
            Some(i) => (&mut unshared(entries)[i].1, false),
            None => {
                let i = entries.len();
                *entries = spliced(entries, i, 0, Some((key, default())));
                let entries = Arc::get_mut(entries).expect("just created");
                (&mut entries[i].1, true)
            }
        },
    }
}

/// The smallest subtree at `shift` holding two entries with distinct keys.
fn split<K, V>(a: (K, V, u64), b: (K, V, u64), shift: u32) -> Slot<K, V> {
    if shift >= u64::BITS {
        return Slot::Bucket(new_node([(a.0, a.1), (b.0, b.1)]));
    }
    let (bit_a, bit_b) = (bit_at(a.2, shift), bit_at(b.2, shift));
    if bit_a == bit_b {
        return Slot::Branch(Branch {
            bitmap: bit_a,
            slots: new_node([split(a, b, shift + BITS)]),
        });
    }
    let (first, second) = if bit_a < bit_b { (a, b) } else { (b, a) };
    Slot::Branch(Branch {
        bitmap: bit_a | bit_b,
        slots: new_node([Slot::Leaf(first.0, first.1), Slot::Leaf(second.0, second.1)]),
    })
}

/// The value under `key`, known to be present, in the subtree [`split`] just
/// created in `slot` — which no other map shares yet.
fn present_mut<'a, K: Eq, V>(
    mut slot: &'a mut Slot<K, V>,
    hash: u64,
    mut shift: u32,
    key: &K,
) -> &'a mut V {
    const FRESH: &str = "freshly created, not yet shared";
    loop {
        match slot {
            Slot::Leaf(_, value) => return value,
            Slot::Branch(child) => {
                let at = slot_index(child.bitmap, bit_at(hash, shift));
                slot = &mut Arc::get_mut(&mut child.slots).expect(FRESH)[at];
                shift += BITS;
            }
            Slot::Bucket(entries) => {
                return Arc::get_mut(entries)
                    .expect(FRESH)
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .expect("split placed the key here")
            }
        }
    }
}

/// Removes `key`, known to be present, from under `branch`, unsharing each
/// node on the way, then folds a child left with a single entry back into its
/// parent's slot so the shape stays what insertion alone would have built.
fn branch_remove<K: Hash + Eq + Clone, V: Clone>(
    branch: &mut Branch<K, V>,
    hash: u64,
    shift: u32,
    key: &K,
) -> V {
    let bit = bit_at(hash, shift);
    let at = slot_index(branch.bitmap, bit);
    if let Slot::Leaf(_, value) = &branch.slots[at] {
        let value = value.clone();
        branch.slots = spliced(&branch.slots, at, 1, None);
        branch.bitmap &= !bit;
        return value;
    }
    let slots = unshared(&mut branch.slots);
    let removed = match &mut slots[at] {
        Slot::Leaf(..) => unreachable!("handled above"),
        Slot::Branch(child) => branch_remove(child, hash, shift + BITS, key),
        Slot::Bucket(entries) => {
            let i = entries
                .iter()
                .position(|(k, _)| k == key)
                .expect("caller checked the key is present");
            let value = entries[i].1.clone();
            *entries = spliced(entries, i, 1, None);
            value
        }
    };
    let only_entry = match &slots[at] {
        // A lone branch or bucket under a branch is a chain toward a deeper
        // split and stays.
        Slot::Branch(child) => match &*child.slots {
            [Slot::Leaf(k, v)] => Some((k.clone(), v.clone())),
            _ => None,
        },
        Slot::Bucket(entries) => match &**entries {
            [only] => Some(only.clone()),
            _ => None,
        },
        Slot::Leaf(..) => None,
    };
    if let Some((k, v)) = only_entry {
        slots[at] = Slot::Leaf(k, v);
    }
    removed
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares every node with `self` until either writes.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K: Hash + Eq, V: PartialEq> PartialEq for PMap<K, V> {
    /// Equal contents. Maps that still share their root compare in O(1).
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&self.root, &other.root) {
            (Some(a), Some(b)) if Arc::ptr_eq(&a.slots, &b.slots) => true,
            _ => self.iter().all(|(k, v)| other.get(k) == Some(v)),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// Borrowing iterator over a [`PMap`]: depth-first, slots in bitmap order.
pub struct Iter<'a, K, V> {
    /// Unfinished slot runs of the ancestors of the node being walked.
    stack: Vec<std::slice::Iter<'a, Slot<K, V>>>,
    slots: std::slice::Iter<'a, Slot<K, V>>,
    bucket: std::slice::Iter<'a, (K, V)>,
    remaining: usize,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.bucket.next() {
                self.remaining -= 1;
                return Some((k, v));
            }
            match self.slots.next() {
                Some(Slot::Leaf(k, v)) => {
                    self.remaining -= 1;
                    return Some((k, v));
                }
                Some(Slot::Branch(child)) => {
                    let parent = std::mem::replace(&mut self.slots, child.slots.iter());
                    self.stack.push(parent);
                }
                Some(Slot::Bucket(entries)) => self.bucket = entries.iter(),
                None => self.slots = self.stack.pop()?,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

#[cfg(test)]
impl<K, V> PMap<K, V> {
    /// Nodes of `self` that are not the very same allocation as the node at
    /// the same position of `other` — i.e. what `self` does not share with
    /// `other`. A subtree reached through a shared node is shared whole.
    pub(crate) fn unshared_nodes(&self, other: &Self) -> usize {
        fn walk<K, V>(a: &Branch<K, V>, b: Option<&Branch<K, V>>) -> usize {
            if b.is_some_and(|b| Arc::ptr_eq(&a.slots, &b.slots)) {
                return 0;
            }
            let mut unshared = 1;
            for bit in (0..32).map(|i| 1u32 << i).filter(|bit| a.bitmap & bit != 0) {
                let twin = b
                    .filter(|b| b.bitmap & bit != 0)
                    .map(|b| &b.slots[slot_index(b.bitmap, bit)]);
                unshared += match (&a.slots[slot_index(a.bitmap, bit)], twin) {
                    (Slot::Leaf(..), _) => 0,
                    (Slot::Branch(child), Some(Slot::Branch(twin))) => walk(child, Some(twin)),
                    (Slot::Branch(child), _) => walk(child, None),
                    (Slot::Bucket(entries), Some(Slot::Bucket(twin))) => {
                        !Arc::ptr_eq(entries, twin) as usize
                    }
                    (Slot::Bucket(_), _) => 1,
                };
            }
            unshared
        }
        self.root
            .as_ref()
            .map_or(0, |root| walk(root, other.root.as_ref()))
    }

    /// Length of the longest root-to-entry path, in nodes.
    pub(crate) fn depth(&self) -> usize {
        fn walk<K, V>(branch: &Branch<K, V>) -> usize {
            let below = branch.slots.iter().map(|slot| match slot {
                Slot::Leaf(..) => 0,
                Slot::Branch(child) => walk(child),
                Slot::Bucket(_) => 1,
            });
            1 + below.max().unwrap_or(0)
        }
        self.root.as_ref().map_or(0, walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::Rng;
    use std::collections::HashMap;
    use std::hash::Hasher;

    /// A key whose hash is chosen by the test: `Hash` feeds only `hashed`, so
    /// two keys with equal `hashed` and different `id` collide in all 64 bits.
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

    /// `count` values of `hashed` whose hashes agree in their low `bits` bits.
    fn colliding_prefix(bits: u32, count: usize) -> Vec<u64> {
        let mask = (1u64 << bits) - 1;
        let target = hash_of(&Key { hashed: 0, id: 0 }) & mask;
        (0u64..)
            .filter(|&hashed| hash_of(&Key { hashed, id: 0 }) & mask == target)
            .take(count)
            .collect()
    }

    fn assert_same(map: &PMap<Key, u64>, model: &HashMap<Key, u64>) {
        assert_eq!(map.len(), model.len());
        assert_eq!(map.is_empty(), model.is_empty());
        assert_eq!(map.iter().len(), model.len());
        let seen: HashMap<Key, u64> = map.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(&seen, model, "iteration yields each entry exactly once");
        for (k, v) in model {
            assert_eq!(map.get(k), Some(v));
        }
    }

    #[test]
    fn empty_map() {
        let map: PMap<u64, u64> = PMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.iter().count(), 0);
        assert_eq!(map, PMap::default());
    }

    #[test]
    fn insert_get_overwrite_remove() {
        let mut map = PMap::new();
        assert_eq!(map.insert(1u64, 10u64), None);
        assert_eq!(map.insert(2, 20), None);
        assert_eq!(map.insert(1, 11), Some(10));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1), Some(&11));
        assert!(map.contains_key(&2));
        *map.get_or_insert_with(2, || unreachable!()) += 1;
        *map.get_or_insert_with(3, || 30) += 1;
        assert_eq!(map.get(&2), Some(&21));
        assert_eq!(map.get(&3), Some(&31));
        assert_eq!(map.remove(&1), Some(11));
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove(&2), Some(21));
        assert_eq!(map.remove(&3), Some(31));
        assert!(map.is_empty());
        assert_eq!(map.depth(), 0, "an emptied map drops its root");
    }

    /// The model test: seeded random insert / overwrite / remove / snapshot /
    /// fork sequences against `std::collections::HashMap`, over a key space
    /// salted with shared hash prefixes (deep paths) and full 64-bit
    /// collisions (buckets).
    #[test]
    fn matches_std_hashmap_over_random_histories() {
        let mut hashes: Vec<u64> = (0..40).collect();
        hashes.extend(colliding_prefix(15, 12));
        hashes.extend(colliding_prefix(25, 6));
        let keys: Vec<Key> = hashes
            .iter()
            .flat_map(|&hashed| (0..3).map(move |id| Key { hashed, id }))
            .collect();

        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(seed);
            // Forks alive at once, each with its model; retired snapshots
            // must keep reading what they read when taken.
            let mut forks: Vec<(PMap<Key, u64>, HashMap<Key, u64>)> =
                vec![(PMap::new(), HashMap::new())];
            let mut snapshots: Vec<(PMap<Key, u64>, HashMap<Key, u64>)> = Vec::new();
            for step in 0..600 {
                let which = rng.gen_range(0..forks.len());
                let key = keys[rng.gen_range(0..keys.len())];
                match rng.gen_range(0..16) {
                    0..=7 => {
                        let (map, model) = &mut forks[which];
                        assert_eq!(map.insert(key, step), model.insert(key, step));
                    }
                    8..=12 => {
                        let (map, model) = &mut forks[which];
                        assert_eq!(map.remove(&key), model.remove(&key));
                    }
                    13 => {
                        let (map, model) = &mut forks[which];
                        *map.get_or_insert_with(key, || 7) += 1;
                        *model.entry(key).or_insert(7) += 1;
                    }
                    14 => snapshots.push(forks[which].clone()),
                    _ => {
                        if forks.len() < 4 {
                            let fork = forks[which].clone();
                            forks.push(fork);
                        }
                    }
                }
                let (map, model) = &forks[which];
                assert_eq!(map.get(&key), model.get(&key));
                assert_eq!(map.len(), model.len());
            }
            for (map, model) in forks.iter().chain(&snapshots) {
                assert_same(map, model);
                // Shape is a function of contents: a map built fresh from the
                // same entries is equal, and as deep.
                let rebuilt: PMap<Key, u64> = model.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(&rebuilt, map);
                assert_eq!(rebuilt.depth(), map.depth());
            }
        }
    }

    #[test]
    fn full_hash_collisions_share_a_bucket() {
        let mut map = PMap::new();
        for id in 0..5u8 {
            map.insert(Key { hashed: 99, id }, id as u64);
        }
        map.insert(Key { hashed: 100, id: 0 }, 1000);
        assert_eq!(map.len(), 6);
        // 13 branch levels consume the 64 hash bits; the bucket sits below.
        assert_eq!(map.depth(), 14);
        for id in 0..5u8 {
            assert_eq!(map.get(&Key { hashed: 99, id }), Some(&(id as u64)));
        }
        assert_eq!(map.get(&Key { hashed: 99, id: 9 }), None);
        // Removing down to one entry folds the whole chain back into the root.
        for id in 1..5u8 {
            assert_eq!(map.remove(&Key { hashed: 99, id }), Some(id as u64));
        }
        assert_eq!(map.depth(), 1);
        assert_eq!(map.get(&Key { hashed: 99, id: 0 }), Some(&0));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn equality_is_by_content() {
        let a: PMap<u64, u64> = (0..500).map(|i| (i, i * 2)).collect();
        let b: PMap<u64, u64> = (0..500).rev().map(|i| (i, i * 2)).collect();
        assert_eq!(a, b);
        let mut c = a.clone();
        assert_eq!(a, c);
        c.insert(7, 0);
        assert_ne!(a, c);
        c.insert(7, 14);
        assert_eq!(a, c);
        c.remove(&499);
        assert_ne!(a, c);
    }

    #[test]
    fn clone_shares_and_a_write_copies_one_path() {
        let base: PMap<u64, u64> = (0..100_000).map(|i| (i, i)).collect();
        let depth = base.depth();
        // Most entries sit 4 deep (32⁴ ≈ 10⁶ slots for 10⁵ keys); the few
        // pairs that share 30 hash bits set the maximum.
        assert!((4..=8).contains(&depth), "got {depth}");

        let before = nodes_created();
        let mut fork = base.clone();
        assert_eq!(nodes_created(), before, "clone creates no node");
        assert_eq!(fork.unshared_nodes(&base), 0);

        fork.insert(4242, 1);
        let copied = nodes_created() - before;
        assert!(copied <= depth, "one path at most: {copied} > {depth}");
        assert_eq!(fork.unshared_nodes(&base), copied);
        assert_eq!(base.get(&4242), Some(&4242));
        assert_eq!(fork.get(&4242), Some(&1));

        // The path is now the fork's own: a second write under it is in place.
        let before = nodes_created();
        fork.insert(4242, 2);
        assert_eq!(nodes_created(), before);

        // A new key adds at most one node (a split) beyond the copied path,
        // and a miss on remove copies nothing.
        let before = nodes_created();
        fork.insert(1_000_000, 5);
        assert!(nodes_created() - before <= depth + 1);
        let before = nodes_created();
        assert_eq!(fork.remove(&2_000_000), None);
        assert_eq!(nodes_created(), before);
        assert_eq!(base.len(), 100_000);
        assert_eq!(fork.len(), 100_001);
    }

    #[test]
    fn building_an_unshared_map_never_path_copies() {
        // An insert into a map nobody shares allocates one node at most —
        // the one that gains a slot, regrown, or the ones a split adds, which
        // are all still there at the end — never the path above it. A build
        // that copied paths would allocate `depth` (here 3-5) per insert.
        let inserts = 20_000;
        let before = nodes_created();
        let map: PMap<u64, u64> = (0..inserts as u64).map(|i| (i, i)).collect();
        let created = nodes_created() - before;
        assert!(created <= inserts + map.unshared_nodes(&PMap::new()));
        // Overwrites are in place.
        let before = nodes_created();
        let mut map = map;
        for i in 0..inserts as u64 {
            map.insert(i, i + 1);
        }
        assert_eq!(nodes_created(), before);
    }

    #[test]
    fn map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PMap<bp_types::Address, Arc<Vec<u8>>>>();
    }
}
