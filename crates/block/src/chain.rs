//! A fork-aware chain store.
//!
//! Validators in a Byzantine network receive *multiple* blocks per height
//! (§3.4) — all of them are kept, one per height eventually becomes
//! canonical, and the rest are uncles. The store answers the questions the
//! validator pipeline asks: "which blocks exist at height h?", "is the parent
//! of this block validated?", "what is the canonical head?".

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bp_types::{BlockHash, Height};

use crate::Block;

/// All known blocks, indexed by hash and by height, with a canonical chain.
#[derive(Default)]
pub struct ChainStore {
    blocks: HashMap<BlockHash, Arc<Block>>,
    by_height: BTreeMap<Height, Vec<BlockHash>>,
    canonical: BTreeMap<Height, BlockHash>,
}

impl ChainStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block (idempotent). Returns its hash.
    pub fn insert(&mut self, block: Block) -> BlockHash {
        self.insert_shared(Arc::new(block))
    }

    /// Inserts a block the caller goes on sharing (a validator hands the
    /// same allocation to its pipeline): a refcount, not a copy of the
    /// block's transactions and profile maps. Idempotent; returns the hash.
    pub fn insert_shared(&mut self, block: Arc<Block>) -> BlockHash {
        let hash = block.hash();
        let height = block.height();
        if self.blocks.insert(hash, block).is_none() {
            self.by_height.entry(height).or_default().push(hash);
        }
        hash
    }

    /// Looks a block up by hash.
    pub fn get(&self, hash: &BlockHash) -> Option<&Block> {
        self.blocks.get(hash).map(|block| &**block)
    }

    /// All blocks known at `height` (competing forks included).
    pub fn at_height(&self, height: Height) -> Vec<&Block> {
        self.by_height
            .get(&height)
            .map(|hashes| hashes.iter().filter_map(|h| self.get(h)).collect())
            .unwrap_or_default()
    }

    /// Marks `hash` canonical at its height. Returns false if the block is
    /// unknown or does not extend the canonical chain (its parent must be
    /// canonical at height−1, except at the genesis height).
    pub fn set_canonical(&mut self, hash: BlockHash) -> bool {
        let Some(block) = self.blocks.get(&hash) else {
            return false;
        };
        let height = block.height();
        if height > 0 {
            let parent_ok = self
                .canonical
                .get(&(height - 1))
                .is_some_and(|p| *p == block.header.parent_hash);
            if !parent_ok {
                return false;
            }
        }
        // Adopting a different block at this height orphans any canonical
        // descendants.
        let to_remove: Vec<Height> = self.canonical.range(height..).map(|(h, _)| *h).collect();
        for h in to_remove {
            self.canonical.remove(&h);
        }
        self.canonical.insert(height, hash);
        true
    }

    /// The canonical block at `height`, if decided.
    pub fn canonical_at(&self, height: Height) -> Option<&Block> {
        self.canonical.get(&height).and_then(|h| self.get(h))
    }

    /// The canonical head (highest decided height).
    pub fn head(&self) -> Option<&Block> {
        self.canonical
            .iter()
            .next_back()
            .and_then(|(_, h)| self.get(h))
    }

    /// Non-canonical blocks at a decided height — Ethereum's *uncles*.
    pub fn uncles_at(&self, height: Height) -> Vec<&Block> {
        let canonical = self.canonical.get(&height);
        self.at_height(height)
            .into_iter()
            .filter(|b| Some(&b.hash()) != canonical)
            .collect()
    }

    /// Total number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True iff no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{genesis_header, BlockProfile};
    use bp_types::H256;

    fn block(parent: BlockHash, height: Height, seed: u64) -> Block {
        let mut header = genesis_header(H256::from_low_u64(height));
        header.parent_hash = parent;
        header.height = height;
        header.proposer_seed = seed;
        Block {
            header,
            transactions: vec![],
            profile: BlockProfile::new(),
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut store = ChainStore::new();
        let g = block(BlockHash::ZERO, 0, 0);
        let gh = store.insert(g.clone());
        assert_eq!(store.get(&gh).unwrap().height(), 0);
        assert_eq!(store.len(), 1);
        // Idempotent insert.
        store.insert(g);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn multiple_blocks_per_height() {
        let mut store = ChainStore::new();
        let g = block(BlockHash::ZERO, 0, 0);
        let gh = store.insert(g);
        let a = block(gh, 1, 1);
        let b = block(gh, 1, 2);
        store.insert(a);
        store.insert(b);
        assert_eq!(store.at_height(1).len(), 2);
    }

    #[test]
    fn canonical_chain_and_uncles() {
        let mut store = ChainStore::new();
        let g = block(BlockHash::ZERO, 0, 0);
        let gh = store.insert(g);
        assert!(store.set_canonical(gh));
        let a = block(gh, 1, 1);
        let b = block(gh, 1, 2);
        let ah = store.insert(a);
        let bh = store.insert(b);
        assert!(store.set_canonical(ah));
        assert_eq!(store.head().unwrap().hash(), ah);
        let uncles = store.uncles_at(1);
        assert_eq!(uncles.len(), 1);
        assert_eq!(uncles[0].hash(), bh);
    }

    #[test]
    fn canonical_requires_canonical_parent() {
        let mut store = ChainStore::new();
        let g = block(BlockHash::ZERO, 0, 0);
        let gh = store.insert(g);
        assert!(store.set_canonical(gh));
        // A block whose parent is not canonical cannot be adopted.
        let stray = block(H256::from_low_u64(99), 1, 7);
        let sh = store.insert(stray);
        assert!(!store.set_canonical(sh));
        // Unknown hash rejected.
        assert!(!store.set_canonical(H256::from_low_u64(1234)));
    }

    #[test]
    fn reorg_drops_descendants() {
        let mut store = ChainStore::new();
        let gh = store.insert(block(BlockHash::ZERO, 0, 0));
        store.set_canonical(gh);
        let ah = store.insert(block(gh, 1, 1));
        store.set_canonical(ah);
        let a2h = store.insert(block(ah, 2, 1));
        store.set_canonical(a2h);
        assert_eq!(store.head().unwrap().height(), 2);
        // Switch height 1 to the competing block: height 2 is orphaned.
        let bh = store.insert(block(gh, 1, 2));
        assert!(store.set_canonical(bh));
        assert_eq!(store.head().unwrap().hash(), bh);
        assert!(store.canonical_at(2).is_none());
    }
}
