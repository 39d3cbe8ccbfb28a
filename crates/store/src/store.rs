//! The [`Store`] facade: one directory holding a node's durable chain.
//!
//! ```text
//! <dir>/blocks.log   append-only length-prefixed RLP blocks
//! <dir>/nodes.log    append-only MPT node put/delete records
//! <dir>/genesis.bin  checksummed genesis world-state snapshot
//! <dir>/manifest.0   ┐ dual-slot crash-safe manifest
//! <dir>/manifest.1   ┘ (head, durable lengths, retained roots)
//! ```
//!
//! Writes accumulate in the logs; [`Store::commit`] makes them durable
//! (fsync data, then swap the manifest). [`Store::open`] recovers to the
//! newest manifest consistent with the data files, so a crash at any byte
//! boundary rolls back to the last completed commit — never a torn block or
//! dangling root.

use std::path::{Path, PathBuf};

use bp_block::Block;
use bp_snap::SnapTree;
use bp_state::{StateDelta, Trie, WorldState};
use bp_types::{BlockHash, H256};

use crate::backend::FileBackend;
use crate::blocklog::BlockLog;
use crate::manifest::{self, ManifestData};
use crate::nodestore::NodeStore;
use crate::snapshot::{decode_world, encode_world};
use crate::StoreError;

const BLOCKS_FILE: &str = "blocks.log";
const NODES_FILE: &str = "nodes.log";
const GENESIS_FILE: &str = "genesis.bin";
const SNAP_DIR: &str = "snap";

/// Bounds for coalescing consecutive [`Store::commit`]s into one fsync
/// batch. A batch closes (and durably lands) as soon as *either* bound is
/// reached, or on an explicit [`Store::flush`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Close the batch after this many deferred commits (1 degenerates to
    /// per-commit fsync; 0 is treated as 1).
    pub max_blocks: usize,
    /// Close the batch once the bytes appended since the last boundary
    /// (block log + node log + snapshot layer journal) reach this bound, so
    /// a burst of heavy blocks cannot grow the at-risk window unboundedly.
    pub max_bytes: u64,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_blocks: 8,
            max_bytes: 4 << 20,
        }
    }
}

/// Tunables for a [`Store`].
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// Keep only the newest `K` retained state roots: each
    /// [`Store::commit`] prunes trie roots (and flattens snapshot diff
    /// layers) past the window, oldest first. `None` (the default) keeps
    /// everything.
    pub retention_window: Option<usize>,
    /// Maintain a persistent [`SnapTree`] (layered flat state) under
    /// `<dir>/snap`, giving execution a disk-backed read path that does not
    /// require the whole state resident in memory.
    pub snapshots: bool,
    /// Coalesce consecutive commits into one fsync batch. `None` (the
    /// default) keeps the classic commit-per-block durability: every
    /// [`Store::commit`] fsyncs and swaps the manifest. With a config set,
    /// commits inside a batch only advance the in-memory head; the batch
    /// boundary runs the full durable path, and a crash mid-batch rolls the
    /// store back to the last boundary (never a torn record).
    pub group_commit: Option<GroupCommitConfig>,
}

/// A node's persistent block/state store.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    blocks: BlockLog,
    nodes: NodeStore<FileBackend>,
    head: Option<BlockHash>,
    genesis_state: Option<WorldState>,
    next_slot: usize,
    next_generation: u64,
    config: StoreConfig,
    snaps: Option<SnapTree>,
    /// Commits deferred since the last durable batch boundary (always 0
    /// without group commit).
    pending_commits: usize,
    /// Total log bytes (blocks + nodes + snap journal) at the last durable
    /// boundary; the difference to the current totals sizes the open batch.
    batch_base_bytes: u64,
}

impl Store {
    /// Opens the store in `dir` with default configuration (no retention
    /// window, no snapshot tree). See [`Store::open_with`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, StoreConfig::default())
    }

    /// Opens the store in `dir` (created if absent), replaying the manifest:
    /// data logs are truncated to their committed lengths and node refcounts
    /// rebuilt by walking every retained root. With `config.snapshots` the
    /// layered flat state under `<dir>/snap` is recovered alongside.
    pub fn open_with(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let blocks_path = dir.join(BLOCKS_FILE);
        let nodes_path = dir.join(NODES_FILE);
        let blocks_actual = file_len(&blocks_path)?;
        let nodes_actual = file_len(&nodes_path)?;
        let (active, next_slot, next_generation) =
            manifest::load(&dir, blocks_actual, nodes_actual);
        if active.is_none() && next_generation > 1 {
            return Err(StoreError::Corrupt(
                "manifests present but none consistent with the data files".into(),
            ));
        }
        let (head, blocks_len, nodes_len, roots) = match &active {
            Some(m) => (m.head, m.blocks_len, m.nodes_len, m.roots.clone()),
            None => (None, 0, 0, Vec::new()),
        };
        let blocks = BlockLog::open(&blocks_path, blocks_len)?;
        let backend = FileBackend::open(&nodes_path, nodes_len)?;
        let nodes = NodeStore::rebuild(backend, roots)?;
        if let Some(h) = head {
            if !blocks.contains(&h) {
                return Err(StoreError::MissingBlock(h));
            }
        }
        let genesis_state = match std::fs::read(dir.join(GENESIS_FILE)) {
            Ok(bytes) => Some(decode_world(&bytes)?),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let snaps = if config.snapshots {
            let snaps = SnapTree::open(&dir.join(SNAP_DIR))?;
            if config.group_commit.is_some() {
                snaps.set_deferred_sync(true);
            }
            Some(snaps)
        } else {
            None
        };
        let batch_base_bytes =
            blocks_len + nodes_len + snaps.as_ref().map(|s| s.journal_len()).unwrap_or(0);
        Ok(Store {
            dir,
            blocks,
            nodes,
            head,
            genesis_state,
            next_slot,
            next_generation,
            config,
            snaps,
            pending_commits: 0,
            batch_base_bytes,
        })
    }

    /// True once [`Store::initialize`] has run (possibly in a prior life).
    pub fn is_initialized(&self) -> bool {
        self.genesis_state.is_some() && self.head.is_some()
    }

    /// Anchors a fresh store: durably snapshots the genesis state, persists
    /// the genesis block and its state's trie nodes, and commits the
    /// manifest with the genesis block as head.
    pub fn initialize(
        &mut self,
        genesis_state: &WorldState,
        genesis_block: &Block,
    ) -> Result<(), StoreError> {
        if self.is_initialized() {
            return Err(StoreError::Corrupt("store already initialized".into()));
        }
        let snapshot_path = self.dir.join(GENESIS_FILE);
        std::fs::write(&snapshot_path, encode_world(genesis_state))?;
        std::fs::File::open(&snapshot_path)?.sync_all()?;
        std::fs::File::open(&self.dir)?.sync_all()?;
        self.genesis_state = Some(genesis_state.clone());
        self.put_block(genesis_block)?;
        let (root, nodes) = genesis_state.commit_tries();
        debug_assert_eq!(root, genesis_block.header.state_root);
        self.commit_root(root, &nodes)?;
        if let Some(snaps) = &self.snaps {
            snaps.seed(&genesis_state.full_delta(), root, 0)?;
        }
        // Genesis must be durable before the store is usable, even under
        // group commit.
        self.commit(genesis_block.hash())?;
        self.flush()
    }

    /// The genesis world-state snapshot, if initialized.
    pub fn genesis_state(&self) -> Option<&WorldState> {
        self.genesis_state.as_ref()
    }

    /// Appends a block to the log (durable after the next
    /// [`Store::commit`]).
    pub fn put_block(&mut self, block: &Block) -> Result<(), StoreError> {
        self.blocks.append(block)
    }

    /// Reads a block back by hash.
    pub fn get_block(&self, hash: &BlockHash) -> Result<Option<Block>, StoreError> {
        self.blocks.get(hash)
    }

    /// The raw stored encoding of a block.
    pub fn get_block_raw(&self, hash: &BlockHash) -> Result<Option<Vec<u8>>, StoreError> {
        self.blocks.get_raw(hash)
    }

    /// True iff `hash` is in the block log.
    pub fn has_block(&self, hash: &BlockHash) -> bool {
        self.blocks.contains(hash)
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.block_count()
    }

    /// Retains a state root's trie nodes (see
    /// [`NodeStore::commit_root`]); durable after the next
    /// [`Store::commit`].
    pub fn commit_root(&mut self, root: H256, nodes: &[(H256, Vec<u8>)]) -> Result<(), StoreError> {
        self.nodes.commit_root(root, nodes)
    }

    /// Releases one retention of `root`, deleting nodes no retained root
    /// still reaches.
    pub fn prune(&mut self, root: H256) -> Result<(), StoreError> {
        self.nodes.prune(root)
    }

    /// The crash-safe commit: fsync both logs, then atomically swap in a
    /// manifest recording `head`, the durable lengths, and the retained
    /// roots. On return the state up to `head` survives any crash.
    ///
    /// With a [`StoreConfig::retention_window`] set, roots older than the
    /// newest `K` are pruned first (trie nodes released, snapshot diff
    /// layers flattened into the flat base), so the manifest that lands
    /// already reflects the bounded retained set.
    ///
    /// With [`StoreConfig::group_commit`] set, the commit is *deferred*
    /// unless it closes the batch: the in-memory head advances but nothing
    /// is fsynced, and `Ok(())` means "will be durable at the next boundary
    /// or [`Store::flush`]". A crash mid-batch rolls back to the previous
    /// boundary's head.
    pub fn commit(&mut self, head: BlockHash) -> Result<(), StoreError> {
        if !self.blocks.contains(&head) {
            return Err(StoreError::MissingBlock(head));
        }
        if let Some(gc) = self.config.group_commit {
            self.pending_commits += 1;
            self.head = Some(head);
            let batch_bytes = self.total_log_bytes().saturating_sub(self.batch_base_bytes);
            if self.pending_commits < gc.max_blocks.max(1) && batch_bytes < gc.max_bytes {
                return Ok(());
            }
        }
        self.commit_boundary(head)
    }

    /// Closes any open group-commit batch, making every deferred commit
    /// durable. A no-op when nothing is pending. Call on shutdown (and
    /// before handing the directory to another process).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending_commits == 0 {
            return Ok(());
        }
        let head = self.head.expect("pending commits imply a head");
        self.commit_boundary(head)
    }

    /// Commits deferred in the currently open batch (0 without group
    /// commit).
    pub fn pending_commits(&self) -> usize {
        self.pending_commits
    }

    /// All appended log bytes, synced or not: block log + node log + snap
    /// layer journal.
    fn total_log_bytes(&self) -> u64 {
        self.blocks.pending_len()
            + self.nodes.backend().pending_len()
            + self.snaps.as_ref().map(|s| s.journal_len()).unwrap_or(0)
    }

    /// The full durable path: retention prune, data fsyncs (snap journal
    /// first, then the logs), manifest swap. Ordering matters — every byte
    /// the manifest's lengths describe must be durable before the
    /// generation swap publishes them.
    fn commit_boundary(&mut self, head: BlockHash) -> Result<(), StoreError> {
        if let Some(window) = self.config.retention_window {
            let window = window.max(1);
            while self.nodes.roots().len() > window {
                let oldest = self.nodes.roots()[0];
                self.nodes.prune(oldest)?;
            }
            if let Some(snaps) = &self.snaps {
                let head_root = self
                    .blocks
                    .get(&head)?
                    .ok_or(StoreError::MissingBlock(head))?
                    .header
                    .state_root;
                if snaps.has_root(head_root) {
                    snaps.retain(head_root, window)?;
                }
            }
        }
        if let Some(snaps) = &self.snaps {
            if self.config.group_commit.is_some() {
                // Deferred layer appends: fsync the journal and swap the
                // snap meta before the store manifest lands, so the snap
                // tree is never *behind* the manifest it supports. (Ahead
                // is benign: layers above the head reattach on replay.)
                snaps.sync()?;
            }
        }
        let blocks_len = self.blocks.sync()?;
        let nodes_len = self.nodes.sync()?;
        let data = ManifestData {
            generation: self.next_generation,
            head: Some(head),
            blocks_len,
            nodes_len,
            roots: self.nodes.roots().to_vec(),
        };
        manifest::write_slot(&self.dir, self.next_slot, &data)?;
        self.head = Some(head);
        self.next_slot = 1 - self.next_slot;
        self.next_generation += 1;
        self.pending_commits = 0;
        self.batch_base_bytes = self.total_log_bytes();
        Ok(())
    }

    /// The committed canonical head.
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

    /// Materializes the trie at a retained `root` from stored nodes.
    pub fn open_trie(&self, root: H256) -> Result<Trie, StoreError> {
        self.nodes.open_trie(root)
    }

    /// True iff `root` is currently retained.
    pub fn contains_root(&self, root: &H256) -> bool {
        self.nodes.contains_root(root)
    }

    /// The retained root multiset.
    pub fn roots(&self) -> &[H256] {
        self.nodes.roots()
    }

    /// Number of distinct stored trie nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.node_count()
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The layered flat-state tree, when [`StoreConfig::snapshots`] is on.
    /// The handle is cheap to clone and internally synchronized.
    pub fn snapshots(&self) -> Option<&SnapTree> {
        self.snaps.as_ref()
    }

    /// Registers one block's diff layer in the snapshot tree: `root` is the
    /// block's post-state root stacked on `parent` (the previous block's
    /// root). No-op `Ok(false)` when snapshots are off or the root is
    /// already covered (replays, empty blocks).
    pub fn snap_add_layer(
        &mut self,
        root: H256,
        parent: H256,
        height: u64,
        delta: StateDelta,
    ) -> Result<bool, StoreError> {
        match &self.snaps {
            Some(snaps) => Ok(snaps.add_layer(root, parent, height, delta)?),
            None => Ok(false),
        }
    }

    /// Rebuilds the snapshot tree from scratch: `delta` must be the full
    /// state at `root` (height 0 for genesis). Recovery calls this before
    /// replaying the chain, since replayed flattens must move forward in
    /// height from a fresh base.
    pub fn reset_snapshots(
        &mut self,
        delta: &StateDelta,
        root: H256,
        height: u64,
    ) -> Result<(), StoreError> {
        if let Some(snaps) = &self.snaps {
            snaps.reset(delta, root, height)?;
        }
        Ok(())
    }
}

fn file_len(path: &Path) -> Result<u64, StoreError> {
    match std::fs::metadata(path) {
        Ok(m) => Ok(m.len()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
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
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(gblock.hash()));
        assert_eq!(
            store.genesis_state().unwrap().state_root(),
            world.state_root()
        );
        let chain = store.canonical_chain().unwrap();
        assert_eq!(chain, vec![gblock]);
        assert!(store.contains_root(&world.state_root()));
        let trie = store.open_trie(world.state_root()).unwrap();
        assert_eq!(trie.root_hash(), world.state_root());
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
            let (root, nodes) = world.commit_tries();
            store.commit_root(root, &nodes).unwrap();
            // No commit(): block + nodes stay in the unsynced tail.
            b1
        };
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(gblock.hash()));
        assert!(!store.has_block(&orphan.hash()));
        assert!(!store.contains_root(&orphan.header.state_root));
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
                let (root, nodes) = world.commit_tries();
                store.commit_root(root, &nodes).unwrap();
                store.commit(b.hash()).unwrap();
                blocks.push(b.clone());
                parent = b;
            }
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.head(), Some(blocks.last().unwrap().hash()));
        assert_eq!(store.canonical_chain().unwrap(), blocks);
        // Every committed root still resolves.
        for root in store.roots().to_vec() {
            assert_eq!(store.open_trie(root).unwrap().root_hash(), root);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_survives_reopen() {
        let dir = test_dir("store-prune");
        let mut world = genesis_world(8);
        let gblock = genesis_block(&world);
        let genesis_root = world.state_root();
        {
            let mut store = Store::open(&dir).unwrap();
            store.initialize(&world, &gblock).unwrap();
            let b1 = child_block(&gblock, &mut world, 1);
            store.put_block(&b1).unwrap();
            let (root, nodes) = world.commit_tries();
            store.commit_root(root, &nodes).unwrap();
            store.prune(genesis_root).unwrap();
            store.commit(b1.hash()).unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert!(!store.contains_root(&genesis_root));
        assert!(store.contains_root(&world.state_root()));
        assert_eq!(
            store.open_trie(world.state_root()).unwrap().root_hash(),
            world.state_root()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_window_bounds_roots_and_snap_layers() {
        use bp_state::{BaseAccount, StateReader};
        use std::sync::Arc;
        let dir = test_dir("store-retention");
        let mut world = genesis_world(6);
        let gblock = genesis_block(&world);
        let config = StoreConfig {
            retention_window: Some(3),
            snapshots: true,
            group_commit: None,
        };
        let head;
        let head_root;
        {
            let mut store = Store::open_with(&dir, config.clone()).unwrap();
            store.initialize(&world, &gblock).unwrap();
            assert_eq!(store.snapshots().unwrap().base_root(), world.state_root());
            let mut parent = gblock.clone();
            let mut parent_root = world.state_root();
            for seq in 1..=8u64 {
                let b = child_block(&parent, &mut world, seq);
                let root = world.state_root();
                // The block's net effect: one fresh balance write.
                let mut delta = StateDelta::default();
                delta.accounts.insert(
                    Address::from_index(900 + seq),
                    Some(BaseAccount {
                        nonce: 0,
                        balance: U256::from(seq + 1),
                        code: Arc::new(Vec::new()),
                    }),
                );
                store.put_block(&b).unwrap();
                let (_, nodes) = world.commit_tries();
                store.commit_root(root, &nodes).unwrap();
                store.snap_add_layer(root, parent_root, seq, delta).unwrap();
                store.commit(b.hash()).unwrap();
                assert!(store.roots().len() <= 3);
                assert!(store.snapshots().unwrap().layer_count() <= 3);
                parent = b;
                parent_root = root;
            }
            head = parent.hash();
            head_root = parent_root;
            // The snap base advanced past genesis as layers flattened.
            assert!(store.snapshots().unwrap().base_height() >= 5);
        }
        let store = Store::open_with(&dir, config).unwrap();
        assert_eq!(store.head(), Some(head));
        assert_eq!(store.roots().len(), 3);
        assert!(store.contains_root(&head_root));
        let snaps = store.snapshots().unwrap();
        assert!(snaps.has_root(head_root));
        let reader = snaps.reader(head_root).unwrap();
        for seq in 1..=8u64 {
            assert_eq!(
                reader
                    .base_account(&Address::from_index(900 + seq))
                    .unwrap()
                    .balance,
                U256::from(seq + 1)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopens `dir` with `config` and returns the durable head — what a
    /// crash right now would recover to.
    fn durable_head(dir: &Path, config: &StoreConfig) -> Option<BlockHash> {
        let scratch = test_dir("store-gc-probe");
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), scratch.join(entry.file_name())).unwrap();
            }
        }
        let head = Store::open_with(&scratch, config.clone()).unwrap().head();
        std::fs::remove_dir_all(&scratch).unwrap();
        head
    }

    #[test]
    fn group_commit_coalesces_until_block_bound() {
        let dir = test_dir("store-gc-blocks");
        let config = StoreConfig {
            group_commit: Some(GroupCommitConfig {
                max_blocks: 3,
                max_bytes: u64::MAX,
            }),
            ..StoreConfig::default()
        };
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let mut store = Store::open_with(&dir, config.clone()).unwrap();
        // initialize flushes: genesis is durable even under group commit.
        store.initialize(&world, &gblock).unwrap();
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir, &config), Some(gblock.hash()));

        let mut parent = gblock.clone();
        let mut hashes = Vec::new();
        for seq in 1..=4u64 {
            let b = child_block(&parent, &mut world, seq);
            store.put_block(&b).unwrap();
            let (root, nodes) = world.commit_tries();
            store.commit_root(root, &nodes).unwrap();
            store.commit(b.hash()).unwrap();
            hashes.push(b.hash());
            parent = b;
        }
        // b1, b2 deferred; b3 closed the batch; b4 opened a new one.
        assert_eq!(store.pending_commits(), 1);
        assert_eq!(store.head(), Some(hashes[3]), "in-memory head runs ahead");
        assert_eq!(
            durable_head(&dir, &config),
            Some(hashes[2]),
            "durable head is the last batch boundary"
        );

        store.flush().unwrap();
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir, &config), Some(hashes[3]));
        // Idempotent when nothing is pending.
        store.flush().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_byte_bound_closes_the_batch() {
        let dir = test_dir("store-gc-bytes");
        let config = StoreConfig {
            group_commit: Some(GroupCommitConfig {
                max_blocks: usize::MAX,
                max_bytes: 1, // any appended byte closes the batch
            }),
            ..StoreConfig::default()
        };
        let mut world = genesis_world(5);
        let gblock = genesis_block(&world);
        let mut store = Store::open_with(&dir, config.clone()).unwrap();
        store.initialize(&world, &gblock).unwrap();
        let b1 = child_block(&gblock, &mut world, 1);
        store.put_block(&b1).unwrap();
        let (root, nodes) = world.commit_tries();
        store.commit_root(root, &nodes).unwrap();
        store.commit(b1.hash()).unwrap();
        // The block's own bytes tripped the bound: nothing stays pending.
        assert_eq!(store.pending_commits(), 0);
        assert_eq!(durable_head(&dir, &config), Some(b1.hash()));
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
