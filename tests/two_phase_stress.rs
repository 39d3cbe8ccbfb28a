//! Stress test: snapshot readers never observe a partially published
//! write set.
//!
//! The two-phase commit publishes multi-key write sets *outside* the
//! admission lock; the version gate is what keeps that sound — a snapshot
//! at version `v` blocks until every version ≤ `v` has finished
//! publishing. This test drives the same register → publish → open
//! protocol the proposer uses from several writer threads, with every
//! version writing the *same* multi-key set, while reader threads
//! continuously take gated snapshots and check that all keys agree on a
//! single version. A torn (half-published) write set would show up as two
//! keys reporting different versions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use blockpilot::concurrent::{VersionAllocator, VersionGate};
use blockpilot::state::{MultiVersionState, WorldState};
use blockpilot::types::{AccessKey, Address, RwSet, H256, U256};

const WRITERS: usize = 4;
const READERS: usize = 3;
const TOTAL_VERSIONS: u64 = 400;
const KEYS: u64 = 8;

fn slot(k: u64) -> AccessKey {
    AccessKey::Storage(Address::from_index(1), H256::from_low_u64(k))
}

#[test]
fn snapshot_readers_never_observe_partial_write_sets() {
    let gate = Arc::new(VersionGate::new());
    let mv = MultiVersionState::new(Arc::new(WorldState::new()), WRITERS, Arc::clone(&gate));
    let versions = VersionAllocator::new();
    let admit = Mutex::new(());
    let observed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| loop {
                // Phase A: under the admission lock, register the version
                // with the gate *before* it becomes discoverable.
                let version = {
                    let _admit = admit.lock().unwrap();
                    if versions.current() >= TOTAL_VERSIONS {
                        break;
                    }
                    gate.register(versions.current() + 1);
                    versions.allocate()
                };
                // Phase B: publish the multi-key write set off-lock, then
                // open the gate. Every key carries the version number, so
                // a consistent snapshot sees one value everywhere.
                let mut rw = RwSet::new();
                for k in 0..KEYS {
                    rw.record_write(slot(k), U256::from(version));
                }
                mv.commit_writes(&rw.writes, version);
                gate.open(version);
            });
        }

        for _ in 0..READERS {
            s.spawn(|| loop {
                let version = versions.current();
                if version == 0 {
                    std::hint::spin_loop();
                    continue;
                }
                // A gated snapshot must block until every version ≤
                // `version` is fully published.
                mv.wait_visible(version);
                let (first_value, first_at) = mv.read_at(&slot(0), version);
                for k in 1..KEYS {
                    let (value, at) = mv.read_at(&slot(k), version);
                    assert_eq!(
                        (value, at),
                        (first_value, first_at),
                        "torn write set at snapshot {version}: slot 0 is \
                         version {first_at}, slot {k} is version {at}"
                    );
                }
                // Each key's newest write ≤ `version` is `version` itself
                // (every version writes every key).
                assert_eq!(first_at, version, "snapshot {version} saw a stale set");
                assert_eq!(first_value, U256::from(version));
                observed.fetch_max(version, Ordering::Relaxed);
                if version >= TOTAL_VERSIONS {
                    break;
                }
            });
        }
    });

    assert_eq!(versions.current(), TOTAL_VERSIONS);
    assert_eq!(gate.pending(), 0, "every registered version must open");
    assert_eq!(observed.load(Ordering::Relaxed), TOTAL_VERSIONS);
    // The version chains end on the last version in every slot.
    for k in 0..KEYS {
        assert_eq!(
            mv.read_latest(&slot(k)),
            (U256::from(TOTAL_VERSIONS), TOTAL_VERSIONS)
        );
    }
}
