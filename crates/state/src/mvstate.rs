//! Multi-version state for the OCC-WSI proposer.
//!
//! Algorithm 1 executes every transaction against a *snapshot*
//! `State(version)`: the pre-block world overlaid with the writes of all
//! transactions committed at versions `1..=version`. [`MultiVersionState`]
//! keeps, per [`AccessKey`], the sorted version chain of committed values, so
//! any snapshot can be served without copying the world and concurrent
//! readers never block committers of unrelated keys.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bp_concurrent::ShardedMap;
use bp_types::{AccessKey, Address, FxHashMap, WriteSet, U256};

use crate::world::WorldState;

/// The pre-block world (version 0) plus per-key version chains for writes
/// committed during block formation.
pub struct MultiVersionState {
    base: Arc<WorldState>,
    // Version chains, ascending by version. Chains are short in practice (a
    // key is rewritten a handful of times per block), so a Vec beats a tree.
    versions: ShardedMap<AccessKey, Vec<(u64, U256)>>,
    // Code installed by in-block contract creations.
    code: ShardedMap<Address, Arc<Vec<u8>>>,
    // The last committed version. [`MultiVersionState::commit`] stores it
    // only after that version's writes and code are in place.
    version: AtomicU64,
}

impl MultiVersionState {
    /// Wraps `base` as version 0, sized for `threads` workers.
    pub fn new(base: Arc<WorldState>, threads: usize) -> Self {
        MultiVersionState {
            base,
            versions: ShardedMap::for_threads(threads),
            code: ShardedMap::for_threads(threads),
            version: AtomicU64::new(0),
        }
    }

    /// The last committed version (0 before the first commit): the version a
    /// new snapshot is taken at. The acquire pairs with the release in
    /// [`MultiVersionState::commit`], so a snapshot at this version sees
    /// every write of every version it covers.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The version of the last commit that wrote `key`, or 0 if none did:
    /// a snapshot at `v` missed a write to `key` exactly when this is `> v`.
    pub fn last_version(&self, key: &AccessKey) -> u64 {
        self.versions.with(key, |chain| {
            chain.and_then(|c| c.last()).map_or(0, |(v, _)| *v)
        })
    }

    /// Commits one transaction at the next version and returns that version:
    /// appends each write to its key's chain, installs the code it deployed,
    /// and only then reveals the version to [`MultiVersionState::version`].
    ///
    /// Callers serialize their commits (the proposer's admission lock); no
    /// other commit may run between this one's load and store of the version.
    pub fn commit(&self, writes: &WriteSet, deployed: &FxHashMap<Address, Arc<Vec<u8>>>) -> u64 {
        // Relaxed: the caller's lock orders the previous commit's store
        // before this load.
        let version = self.version.load(Ordering::Relaxed) + 1;
        for (key, value) in writes {
            self.versions.update(*key, |slot| {
                let chain = slot.get_or_insert_with(Vec::new);
                debug_assert!(chain.last().is_none_or(|(v, _)| *v < version));
                chain.push((version, *value));
            });
        }
        for (addr, code) in deployed {
            self.code.insert(*addr, Arc::clone(code));
        }
        self.version.store(version, Ordering::Release);
        version
    }

    /// The version-0 world, handed back once the block is packed: the
    /// caller's own handle on it again, the only one if it gave that up.
    pub fn into_base(self) -> Arc<WorldState> {
        self.base
    }

    /// Reads `key` as of snapshot `version`: the newest committed value with
    /// version ≤ `version`, falling back to the base world. Returns the value
    /// and the version it was committed at (0 for base reads).
    pub fn read_at(&self, key: &AccessKey, version: u64) -> (U256, u64) {
        let hit = self.versions.with(key, |chain| {
            chain.and_then(|c| c.iter().rev().find(|(v, _)| *v <= version).copied())
        });
        match hit {
            Some((v, value)) => (value, v),
            None => (self.base.read_key(key), 0),
        }
    }

    /// Code of `addr` as visible in this block (base code unless a creation
    /// installed new code).
    pub fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        self.code.get(addr).unwrap_or_else(|| self.base.code(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::H256;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn bal(i: u64) -> AccessKey {
        AccessKey::Balance(addr(i))
    }

    fn mv_with_base() -> MultiVersionState {
        let mut base = WorldState::new();
        base.set_balance(addr(1), U256::from(100u64));
        base.set_storage(addr(2), H256::from_low_u64(1), U256::from(7u64));
        MultiVersionState::new(Arc::new(base), 4)
    }

    /// Commits `key = value` alone, with no code.
    fn commit_one(mv: &MultiVersionState, key: AccessKey, value: u64) -> u64 {
        let mut w: WriteSet = Default::default();
        w.insert(key, U256::from(value));
        mv.commit(&w, &Default::default())
    }

    #[test]
    fn base_reads_report_version_zero() {
        let mv = mv_with_base();
        assert_eq!(mv.version(), 0);
        assert_eq!(mv.read_at(&bal(1), 0), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(1), 99), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(9), 5), (U256::ZERO, 0));
    }

    #[test]
    fn snapshot_sees_only_older_versions() {
        let mv = mv_with_base();
        assert_eq!(commit_one(&mv, bal(1), 50), 1);
        assert_eq!(commit_one(&mv, bal(9), 1), 2);
        assert_eq!(commit_one(&mv, bal(1), 30), 3);
        assert_eq!(mv.version(), 3);

        assert_eq!(mv.read_at(&bal(1), 0), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(1), 1), (U256::from(50u64), 1));
        assert_eq!(mv.read_at(&bal(1), 2), (U256::from(50u64), 1));
        assert_eq!(mv.read_at(&bal(1), 3), (U256::from(30u64), 3));
        assert_eq!(mv.read_at(&bal(1), mv.version()), (U256::from(30u64), 3));
    }

    #[test]
    fn in_order_commits_build_dense_chains() {
        let mv = mv_with_base();
        for v in 1..=6u64 {
            // Every other commit also writes a second key.
            let mut w: WriteSet = Default::default();
            w.insert(bal(1), U256::from(v * 10));
            if v % 2 == 0 {
                w.insert(bal(3), U256::from(v));
            }
            assert_eq!(mv.commit(&w, &Default::default()), v);
        }
        for v in 1..=6u64 {
            assert_eq!(mv.read_at(&bal(1), v), (U256::from(v * 10), v));
            let even = v - v % 2;
            assert_eq!(mv.read_at(&bal(3), v), (U256::from(even), even));
        }
        assert_eq!(mv.read_at(&bal(1), mv.version()), (U256::from(60u64), 6));
    }

    #[test]
    fn last_version_decides_staleness() {
        let mv = mv_with_base();
        // An unwritten key carries version 0 and is never stale.
        assert_eq!(mv.last_version(&bal(1)), 0);
        commit_one(&mv, bal(2), 1);
        commit_one(&mv, bal(1), 1);
        commit_one(&mv, bal(2), 2);
        assert_eq!(mv.last_version(&bal(1)), 2);
        assert_eq!(mv.last_version(&bal(2)), 3);
        assert_eq!(mv.last_version(&bal(9)), 0);
        // A snapshot at `v` is stale for a key exactly when the key's last
        // commit is newer than `v`.
        for v in 0..=4u64 {
            assert_eq!(mv.last_version(&bal(1)) > v, v < 2, "bal(1) at {v}");
            assert_eq!(mv.last_version(&bal(2)) > v, v < 3, "bal(2) at {v}");
            assert!(mv.last_version(&bal(9)) <= v);
        }
    }

    #[test]
    fn code_overlay() {
        let mv = mv_with_base();
        assert!(mv.code(&addr(5)).is_empty());
        let mut deployed: FxHashMap<Address, Arc<Vec<u8>>> = Default::default();
        deployed.insert(addr(5), Arc::new(vec![1, 2, 3]));
        assert_eq!(mv.commit(&WriteSet::default(), &deployed), 1);
        assert_eq!(*mv.code(&addr(5)), vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_commit_and_read() {
        use std::thread;
        let mv = Arc::new(mv_with_base());
        let writer = {
            let mv = Arc::clone(&mv);
            thread::spawn(move || {
                for v in 1..=100u64 {
                    assert_eq!(commit_one(&mv, bal(1), v), v);
                }
            })
        };
        // Concurrent snapshot reads must always see a consistent value: the
        // balance at snapshot v is either the base or some committed version
        // ≤ v.
        for _ in 0..1000 {
            let (value, version) = mv.read_at(&bal(1), 50);
            assert!(version <= 50);
            if version == 0 {
                assert_eq!(value, U256::from(100u64));
            } else {
                assert_eq!(value, U256::from(version));
            }
        }
        writer.join().unwrap();
        assert_eq!(mv.read_at(&bal(1), 50), (U256::from(50u64), 50));
    }
}
