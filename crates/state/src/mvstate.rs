//! Multi-version state for the OCC-WSI proposer.
//!
//! Algorithm 1 executes every transaction against a *snapshot*
//! `State(version)`: the pre-block world overlaid with the writes of all
//! transactions committed at versions `1..=version`. [`MultiVersionState`]
//! keeps, per [`AccessKey`], the sorted version chain of committed values, so
//! any snapshot can be served without copying the world and concurrent
//! readers never block committers of unrelated keys.

use std::sync::Arc;

use bp_concurrent::{ShardedMap, VersionGate};
use bp_types::{AccessKey, Address, WriteSet, U256};

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
    // Versions may be allocated (Phase A of the proposer's commit) before
    // their write sets are published (Phase B). Snapshot readers that land on
    // a pending version wait on this gate instead of taking any global lock.
    gate: Arc<VersionGate>,
}

impl MultiVersionState {
    /// Wraps `base` as version 0, sized for `threads` workers. `gate` tracks
    /// which versions are still pending publication: snapshots taken at a
    /// pending version block in [`MultiVersionState::wait_visible`] until the
    /// version opens, and a version nobody registered never blocks.
    pub fn new(base: Arc<WorldState>, threads: usize, gate: Arc<VersionGate>) -> Self {
        MultiVersionState {
            base,
            versions: ShardedMap::for_threads(threads),
            code: ShardedMap::for_threads(threads),
            gate,
        }
    }

    /// Blocks until every version `≤ version` is fully published.
    pub fn wait_visible(&self, version: u64) {
        self.gate.wait_visible(version);
    }

    /// The version-0 world.
    pub fn base(&self) -> &Arc<WorldState> {
        &self.base
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

    /// The latest committed value of `key` regardless of snapshot.
    pub fn read_latest(&self, key: &AccessKey) -> (U256, u64) {
        self.read_at(key, u64::MAX)
    }

    /// Publishes one committed write set at `version`.
    pub fn commit_writes(&self, writes: &WriteSet, version: u64) {
        for (key, value) in writes {
            self.versions.update(*key, |slot| {
                let chain = slot.get_or_insert_with(Vec::new);
                // Insert keeping ascending version order; commits arrive
                // nearly sorted so this is O(1) amortized.
                let pos = chain.partition_point(|(v, _)| *v < version);
                chain.insert(pos, (version, *value));
            });
        }
    }

    /// Code of `addr` as visible in this block (base code unless a creation
    /// installed new code).
    pub fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        self.code.get(addr).unwrap_or_else(|| self.base.code(addr))
    }

    /// Installs code created during the block.
    pub fn install_code(&self, addr: Address, code: Arc<Vec<u8>>) {
        self.code.insert(addr, code);
    }

    /// The base world with `writes` applied as one batch and the code
    /// installed during the block: a copy-on-write snapshot, so the cost is
    /// O(written keys), not O(world size). `writes` is the caller's fold of
    /// the block's write sets in commit order, later versions over earlier.
    pub fn with_writes(&self, writes: &WriteSet) -> WorldState {
        let mut world = self.base.snapshot();
        world.apply_writes(writes);
        for (addr, code) in self.code.snapshot() {
            world.set_code(addr, (*code).clone());
        }
        world
    }

    /// Number of keys with at least one committed in-block write.
    pub fn written_key_count(&self) -> usize {
        self.versions.len()
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
        MultiVersionState::new(Arc::new(base), 4, Arc::new(VersionGate::new()))
    }

    #[test]
    fn base_reads_report_version_zero() {
        let mv = mv_with_base();
        assert_eq!(mv.read_at(&bal(1), 0), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(1), 99), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(9), 5), (U256::ZERO, 0));
    }

    #[test]
    fn snapshot_sees_only_older_versions() {
        let mv = mv_with_base();
        let mut w1: WriteSet = Default::default();
        w1.insert(bal(1), U256::from(50u64));
        mv.commit_writes(&w1, 1);
        let mut w3: WriteSet = Default::default();
        w3.insert(bal(1), U256::from(30u64));
        mv.commit_writes(&w3, 3);

        assert_eq!(mv.read_at(&bal(1), 0), (U256::from(100u64), 0));
        assert_eq!(mv.read_at(&bal(1), 1), (U256::from(50u64), 1));
        assert_eq!(mv.read_at(&bal(1), 2), (U256::from(50u64), 1));
        assert_eq!(mv.read_at(&bal(1), 3), (U256::from(30u64), 3));
        assert_eq!(mv.read_latest(&bal(1)), (U256::from(30u64), 3));
    }

    #[test]
    fn out_of_order_commits_keep_chain_sorted() {
        let mv = mv_with_base();
        for v in [5u64, 2, 9, 1] {
            let mut w: WriteSet = Default::default();
            w.insert(bal(1), U256::from(v * 10));
            mv.commit_writes(&w, v);
        }
        assert_eq!(mv.read_at(&bal(1), 1).0, U256::from(10u64));
        assert_eq!(mv.read_at(&bal(1), 4).0, U256::from(20u64));
        assert_eq!(mv.read_at(&bal(1), 7).0, U256::from(50u64));
        assert_eq!(mv.read_at(&bal(1), 100).0, U256::from(90u64));
    }

    #[test]
    fn with_writes_applies_the_fold_over_the_base() {
        let mv = mv_with_base();
        let slot = AccessKey::Storage(addr(2), H256::from_low_u64(1));
        let mut w: WriteSet = Default::default();
        w.insert(bal(1), U256::from(42u64));
        w.insert(slot, U256::from(8u64));
        mv.commit_writes(&w, 1);
        let mut w2: WriteSet = Default::default();
        w2.insert(bal(1), U256::from(43u64));
        mv.commit_writes(&w2, 2);

        // The caller's fold in commit order, later versions over earlier:
        // what the version chains answer at the last version.
        w.extend(w2);
        for (key, value) in &w {
            assert_eq!(mv.read_latest(key).0, *value);
        }
        let sealed = mv.with_writes(&w);
        assert_eq!(sealed.balance(&addr(1)), U256::from(43u64));
        assert_eq!(
            sealed.storage(&addr(2), &H256::from_low_u64(1)),
            U256::from(8u64)
        );

        // No writes: back to the base.
        let untouched = mv.with_writes(&WriteSet::default());
        assert_eq!(untouched.state_root(), mv.base().state_root());
    }

    #[test]
    fn code_overlay() {
        let mv = mv_with_base();
        assert!(mv.code(&addr(5)).is_empty());
        mv.install_code(addr(5), Arc::new(vec![1, 2, 3]));
        assert_eq!(*mv.code(&addr(5)), vec![1, 2, 3]);
        let world = mv.with_writes(&WriteSet::default());
        assert_eq!(*world.code(&addr(5)), vec![1, 2, 3]);
    }

    #[test]
    fn gated_snapshot_waits_for_pending_publication() {
        use std::thread;

        let gate = Arc::new(VersionGate::new());
        let mut base = WorldState::new();
        base.set_balance(addr(1), U256::from(100u64));
        let mv = Arc::new(MultiVersionState::new(Arc::new(base), 2, Arc::clone(&gate)));

        // Version 1 is allocated (registered) but not yet published.
        gate.register(1);
        let reader = {
            let mv = Arc::clone(&mv);
            thread::spawn(move || {
                mv.wait_visible(1);
                mv.read_at(&bal(1), 1)
            })
        };
        // Publish, then open: the reader must observe the committed value.
        let mut w: WriteSet = Default::default();
        w.insert(bal(1), U256::from(55u64));
        mv.commit_writes(&w, 1);
        gate.open(1);
        assert_eq!(reader.join().unwrap(), (U256::from(55u64), 1));
        // Reads below the pending window never block.
        mv.wait_visible(0);
    }

    #[test]
    fn concurrent_commit_and_read() {
        use std::thread;
        let mv = Arc::new(mv_with_base());
        let writer = {
            let mv = Arc::clone(&mv);
            thread::spawn(move || {
                for v in 1..=100u64 {
                    let mut w: WriteSet = Default::default();
                    w.insert(bal(1), U256::from(v));
                    mv.commit_writes(&w, v);
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
