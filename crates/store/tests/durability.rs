//! Crash-injection tests on the chain log: cut it at every byte of what a
//! crash can leave unfinished and assert `Store::open` recovers the last
//! durable head — and that damage to what a marker covers is reported, not
//! recovered around.

use std::path::{Path, PathBuf};

use bp_block::{genesis_header, Block, BlockProfile};
use bp_state::WorldState;
use bp_store::store::test_dir;
use bp_store::{GroupCommitConfig, Store, StoreError};
use bp_types::{Address, U256};

fn genesis_world() -> WorldState {
    let mut w = WorldState::new();
    for i in 1..=8u64 {
        w.set_balance(Address::from_index(i), U256::from(1_000_000u64));
    }
    w
}

fn genesis_block(state: &WorldState) -> Block {
    Block {
        header: genesis_header(state.state_root()),
        transactions: vec![],
        profile: BlockProfile::new(),
    }
}

fn child_block(parent: &Block, state: &mut WorldState, seq: u64) -> Block {
    state.set_balance(Address::from_index(900 + seq), U256::from(seq + 1));
    let mut header = genesis_header(state.state_root());
    header.parent_hash = parent.hash();
    header.height = parent.height() + 1;
    header.proposer_seed = seq;
    Block {
        header,
        transactions: vec![],
        profile: BlockProfile::new(),
    }
}

fn log_path(dir: &Path) -> PathBuf {
    dir.join("chain.log")
}

fn log_len(dir: &Path) -> usize {
    std::fs::metadata(log_path(dir)).unwrap().len() as usize
}

/// Opens a store on a copy of `dir`'s log with its bytes replaced by
/// `damage(bytes)`.
fn open_damaged(
    dir: &Path,
    config: &GroupCommitConfig,
    damage: impl FnOnce(&mut Vec<u8>),
) -> Result<Store, StoreError> {
    let mut bytes = std::fs::read(log_path(dir)).unwrap();
    damage(&mut bytes);
    let scratch = test_dir("crash-copy");
    std::fs::write(log_path(&scratch), &bytes).unwrap();
    let opened = Store::open_with(&scratch, *config);
    std::fs::remove_dir_all(&scratch).unwrap();
    opened
}

/// A crash at any byte of the last group — its block record or its commit
/// marker — recovers the previous marker's head, never a torn block.
#[test]
fn truncating_last_block_record_recovers_previous_head() {
    let dir = test_dir("crash-blocks");
    let mut world = genesis_world();
    let gblock = genesis_block(&world);
    let mut store = Store::open(&dir).unwrap();
    store.initialize(&world, &gblock).unwrap();

    let b1 = child_block(&gblock, &mut world, 1);
    store.put_block(&b1).unwrap();
    store.commit(b1.hash()).unwrap();
    let len_at_b1 = log_len(&dir);

    let b2 = child_block(&b1, &mut world, 2);
    store.put_block(&b2).unwrap();
    store.commit(b2.hash()).unwrap();
    let len_at_b2 = log_len(&dir);
    drop(store);

    let config = GroupCommitConfig::default();
    for cut in len_at_b1..len_at_b2 {
        let recovered = open_damaged(&dir, &config, |bytes| bytes.truncate(cut))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        assert_eq!(recovered.head(), Some(b1.hash()), "cut at byte {cut}");
        assert!(!recovered.has_block(&b2.hash()), "torn b2 visible at {cut}");
        assert_eq!(
            recovered.get_block(&b1.hash()).unwrap().as_ref(),
            Some(&b1),
            "durable b1 damaged at {cut}"
        );
    }

    // The untruncated log keeps the newest group.
    let full = Store::open(&dir).unwrap();
    assert_eq!(full.head(), Some(b2.hash()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The group-commit crash contract, byte by byte. Two boundaries bracket a
/// coalesced group (b3, b4 committed, never flushed): a crash that leaves
/// any prefix of the group's records — or any of its bytes garbled, as a
/// write torn across pages can — recovers the b2 boundary and never exposes
/// b3 or b4.
#[test]
fn crash_inside_coalesced_batch_rolls_back_to_boundary() {
    let dir = test_dir("crash-group-commit");
    let config = GroupCommitConfig {
        max_blocks: 100, // only the explicit flush closes a group
        max_bytes: u64::MAX,
    };
    let mut world = genesis_world();
    let gblock = genesis_block(&world);
    let mut store = Store::open_with(&dir, config).unwrap();
    store.initialize(&world, &gblock).unwrap();

    let mut parent = gblock;
    let mut blocks = Vec::new();
    let mut boundary = 0;
    for seq in 1..=4 {
        let b = child_block(&parent, &mut world, seq);
        store.put_block(&b).unwrap();
        store.commit(b.hash()).unwrap();
        if seq == 2 {
            store.flush().unwrap(); // durable boundary: head b2
            boundary = log_len(&dir);
        }
        blocks.push(b.clone());
        parent = b;
    }
    assert_eq!(store.pending_commits(), 2, "b3 and b4 stayed deferred");
    assert_eq!(
        store.head(),
        Some(blocks[3].hash()),
        "in-memory head ran ahead"
    );
    let after = log_len(&dir);
    assert!(after > boundary, "the group appended its records");
    drop(store); // crash: the group was never synced or marked

    let expect_boundary = |recovered: Store, what: String| {
        assert_eq!(recovered.head(), Some(blocks[1].hash()), "{what}");
        assert!(!recovered.has_block(&blocks[2].hash()), "{what}");
        assert!(!recovered.has_block(&blocks[3].hash()), "{what}");
    };
    for cut in boundary..=after {
        let recovered = open_damaged(&dir, &config, |bytes| bytes.truncate(cut))
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        expect_boundary(recovered, format!("cut {cut}"));
    }
    for at in boundary..after {
        let recovered = open_damaged(&dir, &config, |bytes| bytes[at] ^= 0x5A)
            .unwrap_or_else(|e| panic!("garbled byte {at}: recovery failed: {e}"));
        expect_boundary(recovered, format!("garbled byte {at}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One flipped byte anywhere a later marker covers — the genesis record,
/// a block, an earlier marker — is `Corrupt`, never a shorter chain. Only
/// the newest marker is the commit point itself: damage there is a torn
/// write of that marker and rolls its group back.
#[test]
fn a_flipped_byte_in_a_committed_record_is_corrupt() {
    let dir = test_dir("crash-flip");
    let mut world = genesis_world();
    let gblock = genesis_block(&world);
    let mut store = Store::open(&dir).unwrap();
    store.initialize(&world, &gblock).unwrap();
    let b1 = child_block(&gblock, &mut world, 1);
    store.put_block(&b1).unwrap();
    store.commit(b1.hash()).unwrap();
    let b2 = child_block(&b1, &mut world, 2);
    store.put_block(&b2).unwrap();
    let last_marker = log_len(&dir);
    store.commit(b2.hash()).unwrap();
    let len = log_len(&dir);
    drop(store);

    let config = GroupCommitConfig::default();
    for at in 0..last_marker {
        match open_damaged(&dir, &config, |bytes| bytes[at] ^= 0x01) {
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("flip at {at}: {e}"),
            Ok(store) => panic!("flip at {at} recovered head {:?}", store.head()),
        }
    }
    for at in last_marker..len {
        let recovered = open_damaged(&dir, &config, |bytes| bytes[at] ^= 0x01)
            .unwrap_or_else(|e| panic!("flip in the last marker at {at}: {e}"));
        assert_eq!(recovered.head(), Some(b1.hash()), "flip at {at}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Records that each verify but are not what the marker covers — two
/// swapped, or one missing — are `Corrupt`: the marker names its own offset
/// and the digest of its group's checksums, in order.
#[test]
fn a_reordered_or_missing_record_is_corrupt() {
    let dir = test_dir("crash-reorder");
    let config = GroupCommitConfig {
        max_blocks: 100,
        max_bytes: u64::MAX,
    };
    let mut world = genesis_world();
    let gblock = genesis_block(&world);
    let mut store = Store::open_with(&dir, config).unwrap();
    store.initialize(&world, &gblock).unwrap();
    let start = log_len(&dir);
    let b1 = child_block(&gblock, &mut world, 1);
    store.put_block(&b1).unwrap();
    let mid = log_len(&dir);
    let b2 = child_block(&b1, &mut world, 2);
    store.put_block(&b2).unwrap();
    let end = log_len(&dir);
    store.commit(b2.hash()).unwrap();
    store.flush().unwrap();
    drop(store);
    assert_eq!(mid - start, end - mid, "the two records are the same size");

    let swapped = open_damaged(&dir, &config, |bytes| {
        let first = bytes[start..mid].to_vec();
        bytes.copy_within(mid..end, start);
        bytes[start + (end - mid)..end].copy_from_slice(&first);
    });
    assert!(matches!(swapped, Err(StoreError::Corrupt(_))));
    let missing = open_damaged(&dir, &config, |bytes| {
        bytes.drain(start..mid);
    });
    assert!(matches!(missing, Err(StoreError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).unwrap();
}
