//! The snapshot diff-layer tree: cheap per-block [`DiffLayer`]s stacked
//! over the [`FlatBase`], with crash-safe flattening past a retention
//! window.
//!
//! ```text
//!        L7a   L7b        ← same-height siblings (proposer/validator forks)
//!          \   /
//!           L6
//!           |
//!           L5             ← retained layers (in memory + layer journal)
//!           |
//!        FlatBase          ← disk-backed flat records, root of height 4
//! ```
//!
//! Every accepted block adds one layer keyed by its post-state root;
//! [`SnapTree::retain`] folds layers beyond the window into the base
//! (oldest first, so later writes win) and garbage-collects forks left
//! dangling below the new base. [`SnapTree::reader`] resolves a root into a
//! [`SnapReader`] whose probes walk that root's layer chain newest-first
//! before falling through to the base — O(depth) per miss.
//!
//! Crash safety: a layer append is journal-write → fsync → meta swap; a
//! flatten is base-append → fsync → journal rewrite (new generation) →
//! fsync → meta swap → stale-file removal. At any crash point the newest
//! meta whose recorded lengths fit the actual files reconstructs a
//! consistent (base, layers) pair — at worst the tree reverts to the
//! previous durable commit, never to a corrupt read.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use bp_state::{BaseAccount, StateDelta, StateReader};
use bp_types::{Address, H256, U256};

use crate::base::FlatBase;
use crate::journal::{decode_journal, encode_record, LayerRecord};
use crate::meta::{self, SnapMeta};
use crate::SnapError;

/// One block's net effect on its parent state, addressable by root.
#[derive(Debug)]
pub struct DiffLayer {
    /// Post-state root of the block this layer represents.
    pub root: H256,
    /// Root this layer stacks on (another layer or the base).
    pub parent: H256,
    /// Block height of `root`.
    pub height: u64,
    /// The writes: `None` account/slot entries are deletions; zero slot
    /// values are treated as deletions to match flat-state semantics.
    pub delta: StateDelta,
}

/// Durable-side state: meta slot rotation and the open journal handle.
struct Persist {
    dir: PathBuf,
    slot: usize,
    generation: u64,
    layer_gen: u64,
    layers_len: u64,
    journal: File,
}

struct TreeInner {
    base: FlatBase,
    layers: HashMap<H256, Arc<DiffLayer>>,
    persist: Option<Persist>,
    /// With deferred sync on, [`SnapTree::add_layer`] appends to the journal
    /// without fsyncing it or swapping the meta; [`SnapTree::sync`] makes the
    /// accumulated tail durable in one batch. A crash between syncs reverts
    /// to the last synced journal length (the meta still records it), exactly
    /// like an unsynced store-log tail.
    deferred_sync: bool,
}

/// The snapshot tree. Cheap to clone (shares the inner tree); all methods
/// take `&self` and synchronize internally.
#[derive(Clone)]
pub struct SnapTree {
    inner: Arc<RwLock<TreeInner>>,
}

impl std::fmt::Debug for SnapTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().unwrap();
        f.debug_struct("SnapTree")
            .field("base_root", &inner.base.root())
            .field("base_height", &inner.base.height())
            .field("layers", &inner.layers.len())
            .finish()
    }
}

impl SnapTree {
    /// An empty in-memory tree (no durability) at the empty root.
    pub fn memory() -> Self {
        SnapTree {
            inner: Arc::new(RwLock::new(TreeInner {
                base: FlatBase::memory(),
                layers: HashMap::new(),
                persist: None,
                deferred_sync: false,
            })),
        }
    }

    /// Opens (or creates) a persistent tree under `dir`, recovering the
    /// newest durable (base, layers) pair: the authoritative meta picks the
    /// flat file and journal generations, torn tails past the recorded
    /// lengths are truncated, and journal records re-attach in multiple
    /// passes (orphans whose parents folded away are dropped).
    pub fn open(dir: &Path) -> Result<Self, SnapError> {
        std::fs::create_dir_all(dir)?;
        let (active, slot, generation) = meta::load(dir);
        let m = active.unwrap_or(SnapMeta {
            generation: 0,
            file_gen: 0,
            flat_len: 0,
            layer_gen: 0,
            layers_len: 0,
            root: bp_state::empty_root(),
            height: 0,
        });
        let base = FlatBase::open_file(dir, m.file_gen, m.flat_len, m.root, m.height)?;

        let jpath = meta::layers_path(dir, m.layer_gen);
        let journal = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&jpath)?;
        let actual = journal.metadata()?.len();
        if actual < m.layers_len {
            return Err(SnapError::Corrupt(format!(
                "layer journal shorter than durable length: {actual} < {}",
                m.layers_len
            )));
        }
        if actual > m.layers_len {
            journal.set_len(m.layers_len)?;
            journal.sync_data()?;
        }
        let bytes = std::fs::read(&jpath)?;
        let records = decode_journal(&bytes)?;

        let mut layers: HashMap<H256, Arc<DiffLayer>> = HashMap::new();
        let mut pending = records;
        loop {
            let before = pending.len();
            pending.retain(|r| {
                if r.root == base.root() || layers.contains_key(&r.root) {
                    return false; // duplicate — drop
                }
                if r.parent == base.root() || layers.contains_key(&r.parent) {
                    layers.insert(
                        r.root,
                        Arc::new(DiffLayer {
                            root: r.root,
                            parent: r.parent,
                            height: r.height,
                            delta: r.delta.clone(),
                        }),
                    );
                    return false;
                }
                true // parent not attached yet — retry next pass
            });
            if pending.len() == before {
                break; // remaining records are orphans below the fold point
            }
        }

        let tree = SnapTree {
            inner: Arc::new(RwLock::new(TreeInner {
                base,
                layers,
                persist: Some(Persist {
                    dir: dir.to_path_buf(),
                    slot,
                    generation,
                    layer_gen: m.layer_gen,
                    layers_len: m.layers_len,
                    journal,
                }),
                deferred_sync: false,
            })),
        };
        {
            let inner = tree.inner.read().unwrap();
            cleanup_stale(&inner)?;
        }
        Ok(tree)
    }

    /// Folds `delta` directly into the base (no layer), advancing it to
    /// `root` at `height`. Used to bootstrap the genesis state.
    pub fn seed(&self, delta: &StateDelta, root: H256, height: u64) -> Result<(), SnapError> {
        let mut inner = self.inner.write().unwrap();
        inner.base.apply(delta, root, height)?;
        if inner.persist.is_some() {
            write_meta(&mut inner)?;
        }
        Ok(())
    }

    /// Discards every layer and rebuilds the base from scratch out of
    /// `delta` (a full-state delta over empty). Recovery uses this before
    /// replaying the chain: replayed folds must move forward in height, so
    /// the base restarts from genesis on a fresh file generation.
    pub fn reset(&self, delta: &StateDelta, root: H256, height: u64) -> Result<(), SnapError> {
        let mut inner = self.inner.write().unwrap();
        inner.layers.clear();
        match &inner.persist {
            None => {
                let mut base = FlatBase::memory();
                base.apply(delta, root, height)?;
                inner.base = base;
                Ok(())
            }
            Some(p) => {
                let dir = p.dir.clone();
                let new_gen = inner.base.file_gen() + 1;
                let mut base = FlatBase::open_file(&dir, new_gen, 0, bp_state::empty_root(), 0)?;
                base.apply(delta, root, height)?;
                inner.base = base;
                let p = inner.persist.as_mut().unwrap();
                p.layer_gen += 1;
                let jpath = meta::layers_path(&dir, p.layer_gen);
                let journal = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(&jpath)?;
                journal.set_len(0)?;
                journal.sync_data()?;
                p.journal = journal;
                p.layers_len = 0;
                write_meta(&mut inner)?;
                cleanup_stale(&inner)?;
                Ok(())
            }
        }
    }

    /// Stacks one layer for a block with post-state `root` on `parent`.
    /// Idempotent: re-adding a known root (or the base root itself, which
    /// covers empty blocks whose root equals their parent's) returns
    /// `Ok(false)`. The parent must be the base root or a known layer.
    pub fn add_layer(
        &self,
        root: H256,
        parent: H256,
        height: u64,
        delta: StateDelta,
    ) -> Result<bool, SnapError> {
        let mut inner = self.inner.write().unwrap();
        if root == inner.base.root() || inner.layers.contains_key(&root) {
            return Ok(false);
        }
        if parent != inner.base.root() && !inner.layers.contains_key(&parent) {
            return Err(SnapError::UnknownRoot(parent));
        }
        let record = LayerRecord {
            root,
            parent,
            height,
            delta,
        };
        let deferred = inner.deferred_sync;
        if inner.persist.is_some() {
            let encoded = encode_record(&record);
            let p = inner.persist.as_mut().unwrap();
            p.journal.write_all(&encoded)?;
            if !deferred {
                p.journal.sync_data()?;
            }
            p.layers_len += encoded.len() as u64;
        }
        inner.layers.insert(
            root,
            Arc::new(DiffLayer {
                root,
                parent,
                height,
                delta: record.delta,
            }),
        );
        if inner.persist.is_some() && !deferred {
            write_meta(&mut inner)?;
        }
        Ok(true)
    }

    /// Switches deferred-sync mode: layer appends go to the journal without
    /// an fsync or meta swap, and [`SnapTree::sync`] batches them durable.
    /// The group-commit store enables this so per-block layer appends stay
    /// buffered until the batch boundary.
    pub fn set_deferred_sync(&self, on: bool) {
        self.inner.write().unwrap().deferred_sync = on;
    }

    /// Makes every buffered layer append durable: fsync the journal, then
    /// swap the meta to record the new length. A no-op for in-memory trees.
    /// Callers coalescing commits must invoke this *before* publishing any
    /// external pointer (e.g. the store manifest) to state the layers are
    /// part of.
    pub fn sync(&self) -> Result<(), SnapError> {
        let mut inner = self.inner.write().unwrap();
        if inner.persist.is_some() {
            inner.persist.as_mut().unwrap().journal.sync_data()?;
            write_meta(&mut inner)?;
        }
        Ok(())
    }

    /// Bytes appended to the layer journal (including a not-yet-synced
    /// deferred tail). 0 for in-memory trees.
    pub fn journal_len(&self) -> u64 {
        self.inner
            .read()
            .unwrap()
            .persist
            .as_ref()
            .map(|p| p.layers_len)
            .unwrap_or(0)
    }

    /// Keeps the newest `keep` layers on the chain ending at `head` and
    /// flattens everything older into the base (oldest first, so later
    /// writes win). Forks left hanging below the new base are
    /// garbage-collected, the journal is rewritten into a fresh generation,
    /// and the base self-compacts when dead bytes dominate. Returns how
    /// many layers were folded.
    pub fn retain(&self, head: H256, keep: usize) -> Result<usize, SnapError> {
        let mut inner = self.inner.write().unwrap();
        let chain = chain_of(&inner, head)?;
        if chain.len() <= keep {
            return Ok(0);
        }
        let fold: Vec<Arc<DiffLayer>> = chain[keep..].to_vec();
        let mut merged = StateDelta::default();
        for layer in fold.iter().rev() {
            merged.fold(&layer.delta);
        }
        let newest = &fold[0];
        let (new_root, new_height) = (newest.root, newest.height);
        inner.base.apply(&merged, new_root, new_height)?;
        for layer in &fold {
            inner.layers.remove(&layer.root);
        }
        gc_unreachable(&mut inner);
        if inner.base.wants_compaction() {
            inner.base.compact()?;
        }
        if inner.persist.is_some() {
            rewrite_journal(&mut inner)?;
            write_meta(&mut inner)?;
            cleanup_stale(&inner)?;
        }
        Ok(fold.len())
    }

    /// A read view of the state at `root`: the layer chain from `root` down
    /// to the base is pinned at creation (flattening cannot invalidate
    /// probes through it), base misses go to the live base under a read
    /// lock. A reader is only guaranteed consistent while its root stays
    /// within the retention window: once the base folds *past* the root (or
    /// the root's fork is pruned), keys absent from the pinned chain read
    /// newer base values.
    pub fn reader(&self, root: H256) -> Result<SnapReader, SnapError> {
        let inner = self.inner.read().unwrap();
        let chain = chain_of(&inner, root)?;
        Ok(SnapReader {
            tree: Arc::clone(&self.inner),
            chain,
            root,
        })
    }

    /// True when `root` is resolvable (the base root or a live layer).
    pub fn has_root(&self, root: H256) -> bool {
        let inner = self.inner.read().unwrap();
        root == inner.base.root() || inner.layers.contains_key(&root)
    }

    /// Number of live diff layers.
    pub fn layer_count(&self) -> usize {
        self.inner.read().unwrap().layers.len()
    }

    /// The flat base's current root.
    pub fn base_root(&self) -> H256 {
        self.inner.read().unwrap().base.root()
    }

    /// The flat base's current height.
    pub fn base_height(&self) -> u64 {
        self.inner.read().unwrap().base.height()
    }

    /// Durable byte length of the flat log (0 in memory mode).
    pub fn flat_len(&self) -> u64 {
        self.inner.read().unwrap().base.flat_len()
    }
}

/// The layer chain from `root` (exclusive of the base) down to the base
/// root, newest first. Empty when `root` *is* the base root.
fn chain_of(inner: &TreeInner, root: H256) -> Result<Vec<Arc<DiffLayer>>, SnapError> {
    let mut chain = Vec::new();
    let mut cursor = root;
    while cursor != inner.base.root() {
        match inner.layers.get(&cursor) {
            Some(layer) => {
                cursor = layer.parent;
                chain.push(Arc::clone(layer));
            }
            None => return Err(SnapError::UnknownRoot(root)),
        }
    }
    Ok(chain)
}

/// Drops layers no longer anchored (transitively) to the base root.
fn gc_unreachable(inner: &mut TreeInner) {
    let base_root = inner.base.root();
    let mut reachable: HashSet<H256> = HashSet::new();
    loop {
        let mut changed = false;
        for (root, layer) in &inner.layers {
            if !reachable.contains(root)
                && (layer.parent == base_root || reachable.contains(&layer.parent))
            {
                reachable.insert(*root);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    inner.layers.retain(|root, _| reachable.contains(root));
}

/// Writes the retained layer set into `layers.<gen+1>.log` (height order,
/// so parents precede children on replay) and swings the journal handle.
/// Durable once the caller writes the meta.
fn rewrite_journal(inner: &mut TreeInner) -> Result<(), SnapError> {
    let mut retained: Vec<&Arc<DiffLayer>> = inner.layers.values().collect();
    retained.sort_by_key(|l| (l.height, l.root));
    let mut bytes = Vec::new();
    for layer in retained {
        bytes.extend_from_slice(&encode_record(&LayerRecord {
            root: layer.root,
            parent: layer.parent,
            height: layer.height,
            delta: layer.delta.clone(),
        }));
    }
    let p = inner
        .persist
        .as_mut()
        .expect("rewrite requires persistence");
    p.layer_gen += 1;
    let jpath = meta::layers_path(&p.dir, p.layer_gen);
    let journal = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(&jpath)?;
    journal.set_len(0)?;
    let mut journal = journal;
    journal.write_all(&bytes)?;
    journal.sync_data()?;
    p.journal = journal;
    p.layers_len = bytes.len() as u64;
    Ok(())
}

/// Durably records the current (base, journal) pair in the next meta slot.
fn write_meta(inner: &mut TreeInner) -> Result<(), SnapError> {
    let (file_gen, flat_len, root, height) = (
        inner.base.file_gen(),
        inner.base.flat_len(),
        inner.base.root(),
        inner.base.height(),
    );
    let p = inner
        .persist
        .as_mut()
        .expect("meta write requires persistence");
    let m = SnapMeta {
        generation: p.generation,
        file_gen,
        flat_len,
        layer_gen: p.layer_gen,
        layers_len: p.layers_len,
        root,
        height,
    };
    meta::write_slot(&p.dir, p.slot, &m)?;
    p.slot = 1 - p.slot;
    p.generation += 1;
    Ok(())
}

/// Deletes flat-file and journal generations other than the current ones.
/// Call only after the current pair is durably recorded in the meta.
fn cleanup_stale(inner: &TreeInner) -> Result<(), SnapError> {
    let p = match &inner.persist {
        Some(p) => p,
        None => return Ok(()),
    };
    inner.base.remove_stale_files()?;
    for entry in std::fs::read_dir(&p.dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(gen) = name
            .strip_prefix("layers.")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            if gen != p.layer_gen {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    Ok(())
}

/// A [`StateReader`] for one root: probes the pinned layer chain newest
/// first, then the flat base. Zero slot values and `None` entries read as
/// absent, matching [`bp_state::MapReader`] semantics exactly.
pub struct SnapReader {
    tree: Arc<RwLock<TreeInner>>,
    chain: Vec<Arc<DiffLayer>>,
    root: H256,
}

impl SnapReader {
    /// The root this reader resolves.
    pub fn root(&self) -> H256 {
        self.root
    }

    /// How many layers a worst-case miss probes before the base.
    pub fn depth(&self) -> usize {
        self.chain.len()
    }
}

impl std::fmt::Debug for SnapReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapReader")
            .field("root", &self.root)
            .field("depth", &self.chain.len())
            .finish()
    }
}

impl StateReader for SnapReader {
    fn base_account(&self, addr: &Address) -> Option<BaseAccount> {
        for layer in &self.chain {
            if let Some(entry) = layer.delta.accounts.get(addr) {
                return entry.clone();
            }
        }
        let inner = self.tree.read().unwrap();
        inner
            .base
            .account(addr)
            .expect("flat base read failed (io)")
    }

    fn base_storage(&self, addr: &Address, slot: &H256) -> Option<U256> {
        for layer in &self.chain {
            if let Some(entry) = layer.delta.storage.get(addr).and_then(|s| s.get(slot)) {
                return entry.filter(|v| !v.is_zero());
            }
        }
        let inner = self.tree.read().unwrap();
        inner
            .base
            .slot(addr, slot)
            .expect("flat base read failed (io)")
    }

    fn base_storage_entries(&self, addr: &Address) -> Vec<(H256, U256)> {
        let mut merged: HashMap<H256, U256> = {
            let inner = self.tree.read().unwrap();
            inner
                .base
                .storage_entries(addr)
                .expect("flat base read failed (io)")
                .into_iter()
                .collect()
        };
        // Oldest layer first, so newer writes win.
        for layer in self.chain.iter().rev() {
            if let Some(slots) = layer.delta.storage.get(addr) {
                for (slot, value) in slots {
                    match value {
                        Some(v) if !v.is_zero() => {
                            merged.insert(*slot, *v);
                        }
                        _ => {
                            merged.remove(slot);
                        }
                    }
                }
            }
        }
        merged.into_iter().collect()
    }

    fn base_accounts(&self) -> Vec<Address> {
        let mut addrs: HashSet<Address> = {
            let inner = self.tree.read().unwrap();
            inner.base.addresses().into_iter().collect()
        };
        for layer in &self.chain {
            addrs.extend(layer.delta.accounts.keys().copied());
            addrs.extend(layer.delta.storage.keys().copied());
        }
        addrs.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use bp_state::MapReader;

    fn acct(n: u64) -> Option<BaseAccount> {
        Some(BaseAccount {
            nonce: n,
            balance: U256::from(1000 + n),
            code: Arc::new(Vec::new()),
        })
    }

    fn delta_set(addr: u64, nonce: u64, slot: u64, value: u64) -> StateDelta {
        let mut d = StateDelta::default();
        d.accounts.insert(Address::from_index(addr), acct(nonce));
        d.storage
            .entry(Address::from_index(addr))
            .or_default()
            .insert(H256::from_low_u64(slot), Some(U256::from(value)));
        d
    }

    fn root(n: u64) -> H256 {
        H256::from_low_u64(0xB10C_0000 + n)
    }

    #[test]
    fn layers_stack_and_probe_newest_first() {
        let tree = SnapTree::memory();
        let base_root = tree.base_root();
        tree.add_layer(root(1), base_root, 1, delta_set(1, 1, 7, 10))
            .unwrap();
        tree.add_layer(root(2), root(1), 2, delta_set(1, 2, 7, 20))
            .unwrap();
        let r1 = tree.reader(root(1)).unwrap();
        let r2 = tree.reader(root(2)).unwrap();
        let a = Address::from_index(1);
        let s = H256::from_low_u64(7);
        assert_eq!(r1.base_account(&a).unwrap().nonce, 1);
        assert_eq!(r2.base_account(&a).unwrap().nonce, 2);
        assert_eq!(r1.base_storage(&a, &s), Some(U256::from(10u64)));
        assert_eq!(r2.base_storage(&a, &s), Some(U256::from(20u64)));
        assert!(tree.reader(H256::from_low_u64(999)).is_err());
    }

    #[test]
    fn sibling_forks_diverge_and_prune() {
        let tree = SnapTree::memory();
        let base_root = tree.base_root();
        tree.add_layer(root(1), base_root, 1, delta_set(1, 1, 7, 10))
            .unwrap();
        // Two same-height siblings over layer 1.
        tree.add_layer(root(21), root(1), 2, delta_set(1, 2, 7, 21))
            .unwrap();
        tree.add_layer(root(22), root(1), 2, delta_set(1, 2, 7, 22))
            .unwrap();
        tree.add_layer(root(3), root(21), 3, delta_set(2, 1, 1, 3))
            .unwrap();
        assert_eq!(tree.layer_count(), 4);
        // Flatten to keep just one layer along the canonical chain; the
        // loser sibling (root 22) hangs below the new base and is pruned.
        let folded = tree.retain(root(3), 1).unwrap();
        assert_eq!(folded, 2);
        assert_eq!(tree.base_root(), root(21));
        assert_eq!(tree.layer_count(), 1);
        assert!(!tree.has_root(root(22)));
        let r = tree.reader(root(3)).unwrap();
        let a = Address::from_index(1);
        assert_eq!(
            r.base_storage(&a, &H256::from_low_u64(7)),
            Some(U256::from(21u64))
        );
    }

    #[test]
    fn folded_reads_match_map_reader_oracle() {
        let tree = SnapTree::memory();
        let mut oracle = MapReader::new();
        let mut parent = tree.base_root();
        for h in 1..=8u64 {
            let d = delta_set(h % 3, h, h % 4, 100 + h);
            oracle.apply(&d);
            tree.add_layer(root(h), parent, h, d).unwrap();
            parent = root(h);
        }
        tree.retain(root(8), 2).unwrap();
        let r = tree.reader(root(8)).unwrap();
        for addr in oracle.base_accounts() {
            assert_eq!(r.base_account(&addr), oracle.base_account(&addr));
            let mut got = r.base_storage_entries(&addr);
            let mut want = oracle.base_storage_entries(&addr);
            got.sort();
            want.sort();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_block_layer_is_idempotent_noop() {
        let tree = SnapTree::memory();
        let base_root = tree.base_root();
        tree.add_layer(root(1), base_root, 1, delta_set(1, 1, 7, 10))
            .unwrap();
        // Empty block: root == parent.
        assert!(!tree
            .add_layer(root(1), root(1), 2, StateDelta::default())
            .unwrap());
        // Replay of a known block.
        assert!(!tree
            .add_layer(root(1), base_root, 1, delta_set(1, 1, 7, 10))
            .unwrap());
        assert_eq!(tree.layer_count(), 1);
        // Unknown parent is an error.
        assert!(tree
            .add_layer(root(9), H256::from_low_u64(777), 9, StateDelta::default())
            .is_err());
    }

    #[test]
    fn persistent_tree_reopens_where_it_left_off() {
        let dir = test_dir("snaptree-reopen");
        let a = Address::from_index(1);
        let s = H256::from_low_u64(7);
        {
            let tree = SnapTree::open(&dir).unwrap();
            let mut parent = tree.base_root();
            for h in 1..=6u64 {
                tree.add_layer(root(h), parent, h, delta_set(1, h, 7, 10 * h))
                    .unwrap();
                parent = root(h);
            }
            tree.retain(root(6), 2).unwrap();
            assert_eq!(tree.base_root(), root(4));
        }
        {
            let tree = SnapTree::open(&dir).unwrap();
            assert_eq!(tree.base_root(), root(4));
            assert_eq!(tree.base_height(), 4);
            assert_eq!(tree.layer_count(), 2);
            let r = tree.reader(root(6)).unwrap();
            assert_eq!(r.base_account(&a).unwrap().nonce, 6);
            assert_eq!(r.base_storage(&a, &s), Some(U256::from(60u64)));
            let r4 = tree.reader(root(4)).unwrap();
            assert_eq!(r4.base_account(&a).unwrap().nonce, 4);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_rebuilds_base_on_fresh_generation() {
        let dir = test_dir("snaptree-reset");
        let tree = SnapTree::open(&dir).unwrap();
        let mut parent = tree.base_root();
        for h in 1..=4u64 {
            tree.add_layer(root(h), parent, h, delta_set(1, h, 7, h))
                .unwrap();
            parent = root(h);
        }
        tree.retain(root(4), 0).unwrap();
        assert_eq!(tree.base_height(), 4);
        let genesis = delta_set(9, 1, 1, 1);
        tree.reset(&genesis, root(100), 0).unwrap();
        assert_eq!(tree.base_root(), root(100));
        assert_eq!(tree.base_height(), 0);
        assert_eq!(tree.layer_count(), 0);
        let reopened = SnapTree::open(&dir).unwrap();
        assert_eq!(reopened.base_root(), root(100));
        let r = reopened.reader(root(100)).unwrap();
        assert_eq!(r.base_account(&Address::from_index(9)).unwrap().nonce, 1);
        assert_eq!(r.base_account(&Address::from_index(1)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_slot_write_reads_as_absent() {
        let tree = SnapTree::memory();
        let base_root = tree.base_root();
        tree.add_layer(root(1), base_root, 1, delta_set(1, 1, 7, 10))
            .unwrap();
        let mut d = StateDelta::default();
        d.storage
            .entry(Address::from_index(1))
            .or_default()
            .insert(H256::from_low_u64(7), Some(U256::ZERO));
        tree.add_layer(root(2), root(1), 2, d).unwrap();
        let r = tree.reader(root(2)).unwrap();
        let a = Address::from_index(1);
        assert_eq!(r.base_storage(&a, &H256::from_low_u64(7)), None);
        assert!(r.base_storage_entries(&a).is_empty());
        // And the zero survives a fold into the base.
        tree.retain(root(2), 0).unwrap();
        let r = tree.reader(root(2)).unwrap();
        assert_eq!(r.base_storage(&a, &H256::from_low_u64(7)), None);
    }
}
