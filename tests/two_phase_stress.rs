//! Stress test: snapshot readers never observe a partially published
//! write set.
//!
//! The proposer commits under one lock through
//! [`MultiVersionState::commit`], which appends a write set to its keys'
//! version chains and only then reveals the new version; workers take their
//! snapshots at [`MultiVersionState::version`] without waiting. This test
//! drives that same commit from several writer threads under one lock, with
//! every version writing the *same* multi-key set, while reader threads
//! continuously snapshot at the revealed version and check that all keys
//! agree on that one version. A version revealed before its write set is
//! in place would show up as two keys reporting different versions. (The
//! file keeps the name it had when the commit ran in two phases.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use blockpilot::state::{MultiVersionState, WorldState};
use blockpilot::types::{AccessKey, Address, WriteSet, H256, U256};

const WRITERS: usize = 4;
const READERS: usize = 3;
const TOTAL_VERSIONS: u64 = 4000;
const KEYS: u64 = 16;

fn slot(k: u64) -> AccessKey {
    AccessKey::Storage(Address::from_index(1), H256::from_low_u64(k))
}

#[test]
fn snapshot_readers_never_observe_partial_write_sets() {
    let mv = MultiVersionState::new(Arc::new(WorldState::new()), WRITERS);
    let admit = Mutex::new(());
    let observed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| loop {
                // Every key carries the version number, so a consistent
                // snapshot sees one value everywhere.
                let _admit = admit.lock().unwrap();
                let version = mv.version() + 1;
                if version > TOTAL_VERSIONS {
                    break;
                }
                let writes: WriteSet = (0..KEYS).map(|k| (slot(k), U256::from(version))).collect();
                assert_eq!(mv.commit(&writes, &Default::default()), version);
            });
        }

        for _ in 0..READERS {
            s.spawn(|| loop {
                let version = mv.version();
                if version == 0 {
                    std::hint::spin_loop();
                    continue;
                }
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

    assert_eq!(mv.version(), TOTAL_VERSIONS);
    assert_eq!(observed.load(Ordering::Relaxed), TOTAL_VERSIONS);
    // The version chains end on the last version in every slot.
    for k in 0..KEYS {
        assert_eq!(
            mv.read_at(&slot(k), mv.version()),
            (U256::from(TOTAL_VERSIONS), TOTAL_VERSIONS)
        );
    }
}
