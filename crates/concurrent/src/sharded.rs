//! A lock-striped concurrent hash map.

use core::hash::{BuildHasher, Hash};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::sync::RwLock;
use bp_types::FxBuildHasher;

/// A concurrent map striped over `2^shard_bits` independent
/// `RwLock<HashMap>` shards.
///
/// Readers of different keys proceed in parallel; writers only contend when
/// their keys land in the same shard. This is the backing store for the
/// OCC-WSI multi-version state, where the access pattern is many point
/// reads from all worker threads and point writes from the one committer.
///
/// Keys are hashed with the Fx hasher by default: they are state keys and
/// transaction hashes of one block under construction, hashed several times
/// per transaction inside the proposer's commit path, where SipHash cost
/// more than the map operation it served. The shard is picked from the
/// hash's upper half, the bucket inside the shard's table from its lower
/// bits, so the keys of one shard still spread over that table.
pub struct ShardedMap<K, V, S = FxBuildHasher> {
    shards: Vec<RwLock<HashMap<K, V, S>>>,
    mask: usize,
    hasher: S,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Creates a map with a shard count suited to `threads` workers (at least
    /// 4× the thread count, rounded up to a power of two, capped at 256).
    pub fn for_threads(threads: usize) -> Self {
        let want = (threads.max(1) * 4).next_power_of_two().min(256);
        Self::with_shards(want)
    }

    /// Creates a map with exactly `shards` shards (rounded up to a power of
    /// two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            mask: n - 1,
            hasher: FxBuildHasher::default(),
        }
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> ShardedMap<K, V, S> {
    #[inline]
    fn shard_for(&self, key: &K) -> &RwLock<HashMap<K, V, S>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h >> 32) as usize & self.mask]
    }

    /// Returns a clone of the value for `key`.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard_for(key).read().get(key).cloned()
    }

    /// Applies `f` to the value for `key` under the shard read lock, avoiding
    /// a clone for large values.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.shard_for(key).read().get(key))
    }

    /// Inserts, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).write().insert(key, value)
    }

    /// Read-modify-write of one entry under the shard write lock; returns
    /// whatever `f` returns. `f` sees the value as an `Option` it may fill,
    /// change or empty. The shard's table is probed once: a present value is
    /// lent to `f` in place (which is what `V: Default` is for) instead of
    /// being removed and inserted again.
    pub fn update<R>(&self, key: K, f: impl FnOnce(&mut Option<V>) -> R) -> R
    where
        V: Default,
    {
        let mut guard = self.shard_for(&key).write();
        match guard.entry(key) {
            Entry::Occupied(mut entry) => {
                let mut slot = Some(std::mem::take(entry.get_mut()));
                let out = f(&mut slot);
                match slot {
                    Some(value) => *entry.get_mut() = value,
                    None => drop(entry.remove()),
                }
                out
            }
            Entry::Vacant(entry) => {
                let mut slot = None;
                let out = f(&mut slot);
                if let Some(value) = slot {
                    entry.insert(value);
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_ops() {
        let m: ShardedMap<u64, String> = ShardedMap::for_threads(1);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(1, "b".into()), Some("a".into()));
        assert_eq!(m.get(&1), Some("b".into()));
        assert_eq!(m.get(&2), None);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shards(5);
        assert_eq!(m.shards.len(), 8);
        let m: ShardedMap<u64, u64> = ShardedMap::for_threads(16);
        assert_eq!(m.shards.len(), 64);
        let m: ShardedMap<u64, u64> = ShardedMap::for_threads(1000);
        assert_eq!(m.shards.len(), 256);
    }

    #[test]
    fn update_can_insert_mutate_remove() {
        let m: ShardedMap<u64, u64> = ShardedMap::for_threads(1);
        m.update(7, |slot| {
            assert!(slot.is_none());
            *slot = Some(1);
        });
        assert_eq!(m.get(&7), Some(1));
        m.update(7, |slot| {
            *slot.as_mut().unwrap() += 10;
        });
        assert_eq!(m.get(&7), Some(11));
        m.update(7, |slot| {
            *slot = None;
        });
        assert!(m.get(&7).is_none());
    }

    #[test]
    fn with_borrows_without_clone() {
        let m: ShardedMap<u64, Vec<u8>> = ShardedMap::for_threads(1);
        m.insert(1, vec![1, 2, 3]);
        let sum: u32 = m.with(&1, |v| v.unwrap().iter().map(|&b| b as u32).sum());
        assert_eq!(sum, 6);
        let missing = m.with(&2, |v| v.is_none());
        assert!(missing);
    }

    #[test]
    fn inserts_across_shards_read_back() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_shards(4);
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(i * 2));
            assert_eq!(m.with(&i, |v| v.copied()), Some(i * 2));
        }
        assert_eq!(m.get(&100), None);
    }

    #[test]
    fn concurrent_counters_are_exact() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::for_threads(8));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..1000u64 {
                    let key = (t * 1000 + i) % 64; // heavy sharing across threads
                    m.update(key, |slot| {
                        *slot = Some(slot.unwrap_or(0) + 1);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..64).map(|key| m.get(&key).unwrap_or(0)).sum();
        assert_eq!(total, 8000);
    }
}
