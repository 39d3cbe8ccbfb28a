//! The [`Store`] facade: one directory, one log.
//!
//! ```text
//! <dir>/chain.log   genesis record, block records, commit markers (see [`crate::log`])
//! ```
//!
//! Records accumulate in the log; a group boundary makes them durable:
//! the group is synced, then its commit marker is appended and synced, so a
//! marker is never on disk before the records it covers. [`Store::open`]
//! recovers to the last marker and cuts off whatever follows it — a crash
//! at any byte rolls back to the last completed group, never a torn block.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bp_block::{decode_block, encode_block, Block};
use bp_state::WorldState;
use bp_types::{BlockHash, H256};

use crate::log::{self, Commit};
use crate::snapshot::{decode_world, encode_world};
use crate::StoreError;

const LOG_FILE: &str = "chain.log";
/// Files of the retired multi-file layout; a directory holding one of them
/// and no log is refused rather than initialized over.
const OLD_FORMAT: [&str; 2] = ["blocks.log", "manifest.0"];

/// Bounds for coalescing consecutive [`Store::commit`]s into one group. A
/// group closes (and durably lands) as soon as *either* bound is reached,
/// or on an explicit [`Store::flush`]. Commits inside a group only advance
/// the in-memory head; the boundary makes them all durable, and a crash
/// mid-group rolls the store back to the last boundary.
///
/// The default is a group of one: every commit is durable on return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Close the group after this many commits (1, the default, is a
    /// durable commit per block; 0 is treated as 1).
    pub max_blocks: usize,
    /// Close the group once the bytes appended since the last boundary reach
    /// this bound, so a burst of heavy blocks cannot grow the at-risk window
    /// unboundedly.
    pub max_bytes: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_blocks: 1,
            max_bytes: 4 << 20,
        }
    }
}

/// A node's persistent chain: the genesis state and the blocks, in one
/// append-only log.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    file: File,
    /// Bytes appended, synced or not.
    len: u64,
    /// hash → (payload offset, payload length) of every stored block.
    index: HashMap<BlockHash, (u64, u32)>,
    /// Checksums of the records appended since the last marker.
    group: Vec<H256>,
    /// Where the open group starts.
    group_start: u64,
    head: Option<BlockHash>,
    genesis_state: Option<WorldState>,
    bounds: GroupCommitConfig,
    /// Commits since the last boundary.
    pending_commits: usize,
}

/// What a scan of the log vouches for.
#[derive(Default)]
struct Recovered {
    index: HashMap<BlockHash, (u64, u32)>,
    head: Option<BlockHash>,
    genesis_state: Option<WorldState>,
    /// End of the last commit marker: everything after it is cut off.
    len: u64,
}

impl Store {
    /// Opens the store in `dir`, every commit durable on return. See
    /// [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, GroupCommitConfig::default())
    }

    /// Opens the store in `dir` (created if absent): scans the log, keeps
    /// everything up to the last commit marker and truncates the rest.
    /// Commits then close a group at `bounds`.
    ///
    /// A record that fails its checksum is a torn tail when no marker
    /// follows it, and [`StoreError::Corrupt`] when one does: a marker is
    /// only written once what it covers is durable. A directory of the
    /// retired multi-file layout is refused.
    pub fn open_with(
        dir: impl AsRef<Path>,
        bounds: GroupCommitConfig,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(LOG_FILE);
        if !path.exists() {
            if let Some(old) = OLD_FORMAT.iter().find(|f| dir.join(f).exists()) {
                return Err(StoreError::Corrupt(format!(
                    "{} holds {old} of the retired multi-file layout and no {LOG_FILE}",
                    dir.display()
                )));
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let data = std::fs::read(&path)?;
        let recovered = recover(&data)?;
        if (data.len() as u64) > recovered.len {
            file.set_len(recovered.len)?;
            file.sync_all()?;
        }
        Ok(Store {
            dir,
            file,
            len: recovered.len,
            index: recovered.index,
            group: Vec::new(),
            group_start: recovered.len,
            head: recovered.head,
            genesis_state: recovered.genesis_state,
            bounds,
            pending_commits: 0,
        })
    }

    /// True once [`Store::initialize`] has run (possibly in a prior life).
    pub fn is_initialized(&self) -> bool {
        self.genesis_state.is_some() && self.head.is_some()
    }

    /// Anchors a fresh store: appends the genesis state and the genesis
    /// block and makes them durable with the genesis block as head.
    pub fn initialize(
        &mut self,
        genesis_state: &WorldState,
        genesis_block: &Block,
    ) -> Result<(), StoreError> {
        if self.is_initialized() || self.len > 0 {
            return Err(StoreError::Corrupt("store already initialized".into()));
        }
        self.append(log::GENESIS, &encode_world(genesis_state))?;
        self.genesis_state = Some(genesis_state.clone());
        self.put_block(genesis_block)?;
        self.commit(genesis_block.hash())?;
        // Genesis must be durable before the store is usable, even under
        // group commit, and so must the log's directory entry.
        self.flush()?;
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// The genesis world-state snapshot, if initialized.
    pub fn genesis_state(&self) -> Option<&WorldState> {
        self.genesis_state.as_ref()
    }

    /// Appends a block to the log (durable at the next group boundary).
    /// Re-appending a stored block is a no-op.
    pub fn put_block(&mut self, block: &Block) -> Result<(), StoreError> {
        let hash = block.hash();
        if self.index.contains_key(&hash) {
            return Ok(());
        }
        let payload = encode_block(block);
        let at = self.append(log::BLOCK, &payload)?;
        self.index.insert(hash, (at, payload.len() as u32));
        Ok(())
    }

    /// Reads a block back by hash.
    pub fn get_block(&self, hash: &BlockHash) -> Result<Option<Block>, StoreError> {
        let Some(raw) = self.get_block_raw(hash)? else {
            return Ok(None);
        };
        let block = decode_block(&raw)
            .map_err(|e| StoreError::Corrupt(format!("block {hash:?} undecodable: {e}")))?;
        Ok(Some(block))
    }

    /// The raw stored encoding of a block.
    pub fn get_block_raw(&self, hash: &BlockHash) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(&(offset, len)) = self.index.get(hash) else {
            return Ok(None);
        };
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact_at(&mut payload, offset)?;
        Ok(Some(payload))
    }

    /// True iff `hash` is stored.
    pub fn has_block(&self, hash: &BlockHash) -> bool {
        self.index.contains_key(hash)
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Commits `head`. It is durable on return when this closes the group
    /// (always, for a group of one); otherwise only the
    /// in-memory head advances, and `Ok(())` means "durable at the next
    /// boundary or [`Store::flush`]". A crash mid-group rolls back to the
    /// previous boundary's head.
    pub fn commit(&mut self, head: BlockHash) -> Result<(), StoreError> {
        if !self.has_block(&head) {
            return Err(StoreError::MissingBlock(head));
        }
        self.head = Some(head);
        self.pending_commits += 1;
        if self.pending_commits < self.bounds.max_blocks.max(1)
            && self.len - self.group_start < self.bounds.max_bytes
        {
            return Ok(());
        }
        self.close_group()
    }

    /// Closes the open group, making every commit in it durable. A no-op
    /// when nothing is pending. Call on shutdown (and before handing the
    /// directory to another process).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending_commits == 0 {
            return Ok(());
        }
        self.close_group()
    }

    /// Commits since the last group boundary.
    pub fn pending_commits(&self) -> usize {
        self.pending_commits
    }

    /// The group boundary: sync the group, then append its marker and sync
    /// that. The order is the crash contract — a marker on disk vouches that
    /// every record before it is durable.
    fn close_group(&mut self) -> Result<(), StoreError> {
        let head = self.head.expect("pending commits imply a head");
        self.file.sync_data()?;
        let marker = Commit {
            head,
            offset: self.len,
            group: log::group_digest(&self.group),
        };
        self.append(log::COMMIT, &marker.encode())?;
        self.pending_commits = 0;
        self.file.sync_data()?;
        Ok(())
    }

    /// Writes one record at the end of the log; returns its payload offset.
    /// The write is positioned, so a failed one is overwritten by the next;
    /// a written marker closes the in-memory group with the log's, so a
    /// failed sync after it leaves the two in step.
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<u64, StoreError> {
        let mut record = Vec::with_capacity(log::FRAME_OVERHEAD + payload.len());
        let checksum = log::frame(kind, payload, &mut record);
        self.file.write_all_at(&record, self.len)?;
        let payload_at = self.len + log::HEADER as u64;
        self.len += record.len() as u64;
        if kind == log::COMMIT {
            self.group.clear();
            self.group_start = self.len;
        } else {
            self.group.push(checksum);
        }
        Ok(payload_at)
    }

    /// The committed canonical head (ahead of the durable one while a group
    /// is open).
    pub fn head(&self) -> Option<BlockHash> {
        self.head
    }

    /// The committed canonical chain, genesis first, reconstructed by
    /// walking parent hashes down from the head.
    pub fn canonical_chain(&self) -> Result<Vec<Block>, StoreError> {
        let Some(head) = self.head else {
            return Ok(Vec::new());
        };
        let mut chain = Vec::new();
        let mut cursor = head;
        loop {
            let block = self
                .get_block(&cursor)?
                .ok_or(StoreError::MissingBlock(cursor))?;
            let parent = block.header.parent_hash;
            let height = block.height();
            chain.push(block);
            if height == 0 {
                break;
            }
            cursor = parent;
        }
        chain.reverse();
        Ok(chain)
    }
}

/// Scans the log from the start: every group up to the last commit marker
/// must verify, and nothing after that marker counts.
fn recover(data: &[u8]) -> Result<Recovered, StoreError> {
    let corrupt =
        |at: usize, what: String| StoreError::Corrupt(format!("chain log at {at}: {what}"));
    let mut durable = Recovered::default();
    let mut blocks = Vec::new();
    let mut genesis = None;
    let mut group = Vec::new();
    let mut at = 0;
    while let Some(record) = log::read(data, at) {
        match record.kind {
            log::GENESIS if at == 0 => genesis = Some(decode_world(record.payload)?),
            log::BLOCK => {
                let block = decode_block(record.payload)
                    .map_err(|e| corrupt(at, format!("undecodable block: {e}")))?;
                let span = (record.payload_at as u64, record.payload.len() as u32);
                blocks.push((block.hash(), span));
            }
            log::COMMIT => {
                let marker = Commit::decode(record.payload)
                    .ok_or_else(|| corrupt(at, "malformed commit marker".into()))?;
                if marker.offset != at as u64 || marker.group != log::group_digest(&group) {
                    return Err(corrupt(at, "commit marker does not match its group".into()));
                }
                durable.index.extend(blocks.drain(..));
                durable.genesis_state = durable.genesis_state.or(genesis.take());
                if !durable.index.contains_key(&marker.head) {
                    return Err(corrupt(at, "commit marker names no stored block".into()));
                }
                durable.head = Some(marker.head);
                durable.len = record.end as u64;
                group.clear();
                at = record.end;
                continue;
            }
            kind => return Err(corrupt(at, format!("unexpected record kind {kind}"))),
        }
        group.push(record.checksum);
        at = record.end;
    }
    // The scan stopped on a record that is cut short or fails its checksum:
    // a torn tail, unless a marker after it shows it was durable.
    if let Some(marker) = (at + 1..data.len()).find(|&q| log::is_commit_at(data, q)) {
        return Err(corrupt(
            at,
            format!("record fails its checksum, but the commit marker at {marker} covers it"),
        ));
    }
    Ok(durable)
}

/// A fresh scratch directory for tests and benches (recreated if left over
/// from a previous run).
#[doc(hidden)]
pub fn test_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bp-store-{label}-{}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_block::{genesis_header, BlockProfile};
    use bp_types::{Address, U256};

    fn genesis_world(n: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=n {
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

    /// A child block over `parent` whose state adds one balance write.
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

    #[test]
    fn fresh_store_is_uninitialized() {
        let dir = test_dir("store-fresh");
        let store = Store::open(&dir).unwrap();
        assert!(!store.is_initialized());
        assert_eq!(store.head(), None);
        assert!(store.canonical_chain().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn initialize_then_reopen_recovers_genesis() {
        let dir = test_dir("store-init");
        let world = genesis_world(5);
        let gblock = genesis_block(&world);
        {
            let mut store = Store::open(&dir).unwrap();
            store.initialize(&world, &gblock).unwrap();
            assert!(store.is_initialized());
            let err = store.initialize(&world, &gblock).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)));
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(gblock.hash()));
        assert_eq!(
            store.genesis_state().unwrap().state_root(),
            world.state_root()
        );
        assert_eq!(store.canonical_chain().unwrap(), vec![gblock]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_get_roundtrip() {
        let dir = test_dir("store-roundtrip");
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let b1 = child_block(&gblock, &mut world, 1);
        let mut store = Store::open(&dir).unwrap();
        store.put_block(&gblock).unwrap();
        store.put_block(&b1).unwrap();
        // Read back before anything is durable, from the same file.
        assert_eq!(store.get_block(&gblock.hash()).unwrap(), Some(gblock));
        assert_eq!(store.get_block(&b1.hash()).unwrap(), Some(b1));
        assert_eq!(store.get_block(&H256::from_low_u64(999)).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_append_is_idempotent() {
        let dir = test_dir("store-dup");
        let world = genesis_world(5);
        let gblock = genesis_block(&world);
        let mut store = Store::open(&dir).unwrap();
        store.initialize(&world, &gblock).unwrap();
        let len = store.len;
        store.put_block(&gblock).unwrap();
        assert_eq!((store.len, store.block_count()), (len, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_writes_do_not_survive_reopen() {
        let dir = test_dir("store-uncommitted");
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let orphan = {
            let mut store = Store::open(&dir).unwrap();
            store.initialize(&world, &gblock).unwrap();
            let b1 = child_block(&gblock, &mut world, 1);
            store.put_block(&b1).unwrap();
            // No commit(): the block stays in the unmarked tail.
            b1
        };
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(gblock.hash()));
        assert!(!store.has_block(&orphan.hash()));
        // The tail was cut off, not just ignored.
        assert_eq!(
            std::fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            store.len
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_of_commits_reopens_to_latest_head() {
        let dir = test_dir("store-chain");
        let mut world = genesis_world(8);
        let gblock = genesis_block(&world);
        let mut blocks = vec![gblock.clone()];
        {
            let mut store = Store::open(&dir).unwrap();
            store.initialize(&world, &gblock).unwrap();
            let mut parent = gblock.clone();
            for seq in 1..=4 {
                let b = child_block(&parent, &mut world, seq);
                store.put_block(&b).unwrap();
                store.commit(b.hash()).unwrap();
                blocks.push(b.clone());
                parent = b;
            }
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(blocks.last().unwrap().hash()));
        assert_eq!(store.canonical_chain().unwrap(), blocks);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_directory_holds_one_log_of_the_appended_records() {
        let dir = test_dir("store-one-log");
        let mut world = genesis_world(6);
        let gblock = genesis_block(&world);
        let mut store = Store::open(&dir).unwrap();
        store.initialize(&world, &gblock).unwrap();
        let b1 = child_block(&gblock, &mut world, 1);
        store.put_block(&b1).unwrap();
        store.commit(b1.hash()).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1);
        let expected = log::frame_len(encode_world(&genesis_world(6)).len())
            + log::frame_len(encode_block(&gblock).len())
            + log::frame_len(encode_block(&b1).len())
            + 2 * log::frame_len(log::COMMIT_LEN);
        assert_eq!(
            std::fs::metadata(dir.join(LOG_FILE)).unwrap().len(),
            expected
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_old_format_directory_is_refused() {
        for old in OLD_FORMAT {
            let dir = test_dir("store-old-format");
            std::fs::write(dir.join(old), b"a store of the retired layout").unwrap();
            let err = Store::open(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{old}: {err}");
            // Refused, not initialized over: nothing was created.
            assert!(!dir.join(LOG_FILE).exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Reopens a copy of `dir` and returns the durable head — what a crash
    /// right now would recover to.
    fn durable_head(dir: &Path) -> Option<BlockHash> {
        let scratch = test_dir("store-gc-probe");
        std::fs::copy(dir.join(LOG_FILE), scratch.join(LOG_FILE)).unwrap();
        let head = Store::open(&scratch).unwrap().head();
        std::fs::remove_dir_all(&scratch).unwrap();
        head
    }

    #[test]
    fn group_commit_coalesces_until_block_bound() {
        let dir = test_dir("store-gc-blocks");
        let config = GroupCommitConfig {
            max_blocks: 3,
            max_bytes: u64::MAX,
        };
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let mut store = Store::open_with(&dir, config).unwrap();
        // initialize flushes: genesis is durable even under group commit.
        store.initialize(&world, &gblock).unwrap();
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir), Some(gblock.hash()));

        let mut parent = gblock.clone();
        let mut hashes = Vec::new();
        for seq in 1..=4u64 {
            let b = child_block(&parent, &mut world, seq);
            store.put_block(&b).unwrap();
            store.commit(b.hash()).unwrap();
            hashes.push(b.hash());
            parent = b;
        }
        // b1, b2 deferred; b3 closed the group; b4 opened a new one.
        assert_eq!(store.pending_commits(), 1);
        assert_eq!(store.head(), Some(hashes[3]), "in-memory head runs ahead");
        assert_eq!(
            durable_head(&dir),
            Some(hashes[2]),
            "durable head is the last group boundary"
        );

        store.flush().unwrap();
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir), Some(hashes[3]));
        // Idempotent when nothing is pending.
        let len = store.len;
        store.flush().unwrap();
        assert_eq!(store.len, len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_byte_bound_closes_the_batch() {
        let dir = test_dir("store-gc-bytes");
        let config = GroupCommitConfig {
            max_blocks: usize::MAX,
            max_bytes: 1, // any appended byte closes the group
        };
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let mut store = Store::open_with(&dir, config).unwrap();
        store.initialize(&world, &gblock).unwrap();
        let b1 = child_block(&gblock, &mut world, 1);
        store.put_block(&b1).unwrap();
        store.commit(b1.hash()).unwrap();
        // The block's own bytes tripped the bound: nothing stays pending.
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir), Some(b1.hash()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_requires_known_head_block() {
        let dir = test_dir("store-badhead");
        let mut store = Store::open(&dir).unwrap();
        let err = store.commit(H256::from_low_u64(7)).unwrap_err();
        assert!(matches!(err, StoreError::MissingBlock(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
