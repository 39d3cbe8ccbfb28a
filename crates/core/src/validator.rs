//! High-level validator node: the pipeline and its one index of the blocks
//! it knows, optionally backed by a persistent [`bp_store::Store`].

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

use bp_block::{genesis_header, Block, BlockProfile};
use bp_concurrent::sync::Mutex;
use bp_state::WorldState;
use bp_store::{GroupCommitConfig, Store, StoreError};
use bp_types::{BlockHash, Height, H256};

use crate::pipeline::{PipelineConfig, Starter, ValidationHandle, ValidationOutcome};

/// Stored blocks a cold-start replay holds in the pipeline before it waits
/// for the oldest verdict: enough that a block executes while its parent's
/// root hashes and its grandparent commits.
const REPLAY_WINDOW: usize = 4;

/// A validator node.
///
/// Receives blocks from the network (possibly several per height), validates
/// them through the four-stage pipeline, and commits the canonical chain.
/// One index holds every block it published — same-height siblings and
/// forks alike — with its post-state, and the canonical chain by height; a
/// rejected block leaves it with its state. With [`Validator::with_store`]
/// every canonical commit is additionally made durable, and a restarted
/// node rebuilds its chain and state by replaying the stored canonical
/// chain from the genesis snapshot.
pub struct Validator {
    pub(crate) pipeline: Arc<Starter>,
    genesis: BlockHash,
    store: Option<Mutex<Store>>,
}

impl Validator {
    /// Boots a validator from a genesis state (in-memory only).
    pub fn new(config: PipelineConfig, genesis_state: WorldState) -> Self {
        let (validator, _) = Self::build(config, genesis_state);
        validator
    }

    /// Opens (or creates) a store at `dir` and boots on it (see
    /// [`Validator::with_store`] for the recovery semantics), coalescing
    /// durable commits into fsync batches at `group_commit`'s bounds (see
    /// [`bp_store::GroupCommitConfig`]). Deferred commits are flushed by
    /// [`Validator::into_store`]; a crash mid-batch rolls the store back to
    /// the last batch boundary, from which recovery replays as usual.
    pub fn with_store_profile(
        config: PipelineConfig,
        genesis_state: WorldState,
        dir: impl AsRef<Path>,
        group_commit: GroupCommitConfig,
    ) -> Result<Self, StoreError> {
        let store = Store::open_with(dir, group_commit)?;
        Self::with_store(config, genesis_state, store)
    }

    /// Boots a validator bound to a persistent store.
    ///
    /// * A fresh store is initialized from `genesis_state` (durable genesis
    ///   snapshot + genesis block).
    /// * An initialized store triggers **cold-start replay**: the genesis
    ///   snapshot anchors the pipeline and every stored canonical block is
    ///   re-validated — a few in flight at a time, committed in height order
    ///   — leaving the validator exactly where the last durable commit left
    ///   it: the stored head and its state. The first stored block that
    ///   fails replay is named in a [`StoreError::Corrupt`].
    ///   `genesis_state` must match the stored snapshot.
    pub fn with_store(
        config: PipelineConfig,
        genesis_state: WorldState,
        store: Store,
    ) -> Result<Self, StoreError> {
        let mut store = store;
        let recovering = store.is_initialized();
        let genesis_state = if recovering {
            let snapshot = store.genesis_state().expect("initialized store").clone();
            if snapshot.state_root() != genesis_state.state_root() {
                return Err(StoreError::Corrupt(
                    "genesis state does not match the stored snapshot".into(),
                ));
            }
            snapshot
        } else {
            genesis_state
        };
        let (mut validator, genesis_block) = Self::build(config, genesis_state.clone());

        if !recovering {
            store.initialize(&genesis_state, &genesis_block)?;
        } else if store.head() == Some(genesis_block.hash()) {
            // Stored chain is just the genesis: nothing to replay.
        } else if !store.has_block(&genesis_block.hash()) {
            return Err(StoreError::Corrupt(
                "stored chain was built from a different genesis block".into(),
            ));
        }

        // Cold-start replay: re-execute the stored canonical chain through
        // the pipeline, `REPLAY_WINDOW` blocks in flight, verdicts committed
        // in height order. The store is attached afterwards, so replay only
        // rebuilds the in-memory view.
        let mut inflight = VecDeque::with_capacity(REPLAY_WINDOW);
        let blocks = store.canonical_chain()?.into_iter();
        for block in blocks.filter(|b| b.height() > 0) {
            let (hash, height) = (block.hash(), block.height());
            inflight.push_back((hash, height, validator.receive_block(block)));
            if inflight.len() == REPLAY_WINDOW {
                validator.commit_replayed(inflight.pop_front().expect("a full window"))?;
            }
        }
        while let Some(replayed) = inflight.pop_front() {
            validator.commit_replayed(replayed)?;
        }
        validator.store = Some(Mutex::new(store));
        Ok(validator)
    }

    /// Waits for the verdict on one block of the cold-start replay and
    /// commits it; a stored block that fails is named in the error.
    fn commit_replayed(
        &self,
        (hash, height, handle): (BlockHash, Height, ValidationHandle),
    ) -> Result<(), StoreError> {
        let outcome = handle.wait();
        if !outcome.is_valid() {
            return Err(StoreError::Corrupt(format!(
                "stored block {hash:?} at height {height} failed replay: {:?}",
                outcome.result
            )));
        }
        if !self.commit_canonical(hash) {
            return Err(StoreError::Corrupt(format!(
                "stored block {hash:?} at height {height} does not extend the canonical chain"
            )));
        }
        Ok(())
    }

    /// Shared construction: genesis block, pipeline and index.
    fn build(config: PipelineConfig, genesis_state: WorldState) -> (Self, Block) {
        let header = genesis_header(genesis_state.state_root());
        let genesis_block = Block {
            header,
            transactions: vec![],
            profile: BlockProfile::new(),
        };
        let genesis = genesis_block.hash();
        let pipeline = Starter::new(config, genesis_block.clone(), genesis_state);
        (
            Validator {
                pipeline,
                genesis,
                store: None,
            },
            genesis_block,
        )
    }

    /// Hash of the genesis block.
    pub fn genesis_hash(&self) -> BlockHash {
        self.genesis
    }

    /// Receives a block from the network and starts pipeline validation.
    /// Multiple blocks at the same height validate concurrently.
    pub fn receive_block(&self, block: Block) -> ValidationHandle {
        self.pipeline.submit(block)
    }

    /// Validates a block and, when valid, marks it canonical at its height
    /// (the block-commitment phase from the chain's perspective).
    pub fn validate_and_commit(&self, block: Block) -> ValidationOutcome {
        let hash = block.hash();
        let outcome = self.receive_block(block).wait();
        if outcome.is_valid() {
            self.commit_canonical(hash);
        }
        outcome
    }

    /// The canonical head block hash and height.
    pub fn head(&self) -> Option<(BlockHash, Height)> {
        let idx = self.pipeline.index.lock();
        idx.canonical.last().map(|(hash, b)| (*hash, b.height()))
    }

    /// The state root of the canonical head.
    pub fn head_state_root(&self) -> Option<H256> {
        let idx = self.pipeline.index.lock();
        idx.canonical.last().map(|(_, b)| b.header.state_root)
    }

    /// Marks an already-validated block canonical at its height (the local
    /// effect of a fork-choice decision arriving from consensus), dropping
    /// the canonical blocks above it, and, on a store-backed validator,
    /// commits it to the store, whose head then follows the canonical head.
    /// Returns false, with the head unmoved and nothing persisted, if the
    /// block is unknown, has no valid verdict (rejected, or still in the
    /// pipeline), or its parent is not the canonical block one height below.
    ///
    /// A storage failure panics: the durable view would silently diverge
    /// otherwise, so it is unrecoverable by design, as in fsync-gated
    /// databases.
    pub fn commit_canonical(&self, hash: BlockHash) -> bool {
        let Some(store) = &self.store else {
            return self.pipeline.index.lock().adopt(&hash).is_some();
        };
        // The store lock is held across the index update, so the store
        // commits heads in the order the chain adopts them; the index lock
        // is not held across the write.
        let mut store = store.lock();
        let Some(block) = self.pipeline.index.lock().adopt(&hash) else {
            return false;
        };
        store
            .put_block(&block)
            .and_then(|()| store.commit(hash))
            .expect("persistent store commit failed");
        true
    }

    /// The canonical block hash at `height`, if decided.
    pub fn canonical_at(&self, height: Height) -> Option<BlockHash> {
        let idx = self.pipeline.index.lock();
        idx.canonical.get(height as usize).map(|(hash, _)| *hash)
    }

    /// A clone of the canonical block at `height`. The node loop's
    /// equivalence gate uses this to replay the committed chain serially
    /// from genesis and compare final state roots.
    pub fn canonical_block(&self, height: Height) -> Option<Block> {
        let idx = self.pipeline.index.lock();
        idx.canonical
            .get(height as usize)
            .map(|(_, b)| Block::clone(b))
    }

    /// The post-state of `hash`: the genesis state, or a block's once its
    /// verdict is valid. A post-state whose root is still being checked, or
    /// was rejected, is never handed out.
    pub fn state_of(&self, hash: &BlockHash) -> Option<Arc<WorldState>> {
        let idx = self.pipeline.index.lock();
        idx.settled(hash).map(|p| Arc::clone(&p.state))
    }

    /// Runs `f` against the persistent store, if this validator has one.
    pub fn with_store_ref<R>(&self, f: impl FnOnce(&Store) -> R) -> Option<R> {
        self.store.as_ref().map(|store| f(&store.lock()))
    }

    /// Tears the validator down, returning its store (if any) with all
    /// committed state durable — the handle a restarted node reopens from.
    /// Under group commit this closes the open batch first, so deferred
    /// commits land before the handle changes hands.
    pub fn into_store(self) -> Option<Store> {
        self.store.map(|store| {
            let mut store = store.into_inner();
            store.flush().expect("final store flush failed");
            store
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal};
    use crate::pipeline::ValidationError;
    use bp_concurrent::crew::Crew;
    use bp_evm::{BlockEnv, Transaction};
    use bp_store::store::test_dir;
    use bp_txpool::TxPool;
    use bp_types::{Address, U256};

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn genesis_world(n: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=n {
            w.set_balance(addr(i), U256::from(1_000_000_000u64));
        }
        w
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            workers: 2,
            ..Default::default()
        }
    }

    /// Proposes a block of transfers at `height` on `base`, whose block is
    /// `parent`.
    fn propose_on(
        base: Arc<WorldState>,
        parent: BlockHash,
        height: Height,
        nonce: u64,
    ) -> Proposal {
        let pool = TxPool::new();
        for i in 1..=6u64 {
            pool.add(Transaction::transfer(
                addr(i),
                addr(i + 50),
                U256::from(5u64),
                nonce,
                i,
            ));
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            env: BlockEnv {
                number: height,
                ..BlockEnv::default()
            },
            ..Default::default()
        });
        proposer.propose(&pool, base, parent, height)
    }

    /// Proposes and commits `heights` blocks of transfers on `validator`.
    fn grow_chain(validator: &Validator, heights: u64, start_nonce: u64) {
        for h in 1..=heights {
            let (parent, parent_height) = validator.head().expect("head exists");
            let base = validator.state_of(&parent).expect("head state");
            let proposal = propose_on(base, parent, parent_height + 1, start_nonce + h - 1);
            let outcome = validator.validate_and_commit(proposal.block);
            assert!(outcome.is_valid(), "{:?}", outcome.result);
        }
    }

    #[test]
    fn commit_canonical_refuses_a_block_without_a_valid_verdict() {
        let dir = test_dir("validator-commit-unvalidated");
        let world = genesis_world(60);
        // No helper: a block's tasks run only in a wait for a verdict.
        let crew = Crew::new(0);
        let stored = crew.install(|| {
            Validator::with_store_profile(
                config(),
                world.clone(),
                &dir,
                GroupCommitConfig::default(),
            )
        });
        let fresh = crew.install(|| Validator::new(config(), world.clone()));
        for validator in [fresh, stored.unwrap()] {
            let genesis = validator.genesis_hash();
            let honest = propose_on(Arc::new(world.clone()), genesis, 1, 0).block;
            // Every variant extends the head.
            for rejected in rejected_variants(&honest) {
                let hash = rejected.hash();
                assert!(!validator.receive_block(rejected).wait().is_valid());
                assert!(!validator.commit_canonical(hash));
                assert_eq!(validator.head(), Some((genesis, 0)));
            }
            validator.with_store_ref(|s| {
                assert_eq!(s.head(), Some(genesis), "nothing was persisted");
                assert_eq!(s.block_count(), 1);
            });
            // Published at preparation, still in the pipeline: refused
            // until its verdict is in.
            let hash = honest.hash();
            let handle = validator.receive_block(honest);
            assert!(!validator.commit_canonical(hash));
            assert_eq!(validator.head(), Some((genesis, 0)));
            // The refusals cost nothing: the honest block still commits.
            assert!(handle.wait().is_valid());
            assert!(validator.commit_canonical(hash));
            assert_eq!(validator.head(), Some((hash, 1)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `honest` with a wrong root, a wrong gas and a lying profile: one
    /// fails at validation, one at the root, one in execution.
    fn rejected_variants(honest: &Block) -> [Block; 3] {
        let mut wrong_root = honest.clone();
        wrong_root.header.state_root = H256::from_low_u64(0xBAD);
        let mut wrong_gas = honest.clone();
        wrong_gas.header.gas_used += 1;
        let mut wrong_profile = honest.clone();
        wrong_profile.header.proposer_seed += 1; // a hash of its own
        let entry = &mut wrong_profile.profile.entries[0];
        let key = *entry.writes.keys().next().unwrap();
        entry.writes.insert(key, U256::from(123_456u64));
        [wrong_root, wrong_gas, wrong_profile]
    }

    #[test]
    fn a_rejected_block_that_extends_the_head_leaves_no_index_entry() {
        let world = genesis_world(60);
        let validator = Validator::new(config(), world.clone());
        let genesis = validator.genesis_hash();
        let honest = propose_on(Arc::new(world), genesis, 1, 0).block;
        for rejected in rejected_variants(&honest) {
            let hash = rejected.hash();
            assert!(!validator.receive_block(rejected).wait().is_valid());
            let idx = validator.pipeline.index.lock();
            assert!(!idx.states.contains_key(&hash), "its block and state went");
            assert_eq!(idx.states.len(), 1, "only the genesis is indexed");
            assert_eq!(idx.canonical.len(), 1, "the chain is the genesis");
        }
        assert_eq!(validator.canonical_at(1), None);
    }

    #[test]
    fn a_block_submitted_again_executes_once() {
        let world = genesis_world(60);
        for crew in [Crew::new(0), Crew::global().clone()] {
            let validator = crew.install(|| Validator::new(config(), world.clone()));
            let b = propose_on(Arc::new(world.clone()), validator.genesis_hash(), 1, 0);
            let hash = b.block.hash();
            assert!(validator.validate_and_commit(b.block.clone()).is_valid());
            // Settled: answered at once, from the entry, which stays.
            let again = validator.receive_block(b.block.clone());
            assert!(validator.state_of(&hash).is_some());
            let again = again.wait();
            assert_eq!(again.result, Ok(()));
            assert_eq!(again.executed_txs, 0);
            let post = again.post_state.expect("the settled post-state");
            assert!(Arc::ptr_eq(&post, &validator.state_of(&hash).unwrap()));
            assert_eq!(validator.head(), Some((hash, 1)));
            // In the pipeline — published, or parked on a parent that is not
            // in yet — a second submission shares the first one's verdict.
            let child = propose_on(Arc::clone(&post), hash, 2, 1);
            let grandchild =
                propose_on(Arc::new(child.post_state.clone()), child.block.hash(), 3, 2);
            let parked = [0, 1].map(|_| validator.receive_block(grandchild.block.clone()));
            let published = [0, 1].map(|_| validator.receive_block(child.block.clone()));
            for handles in [published, parked] {
                let [first, second] = handles.map(|h| h.wait());
                assert!(first.is_valid(), "{:?}", first.result);
                assert_eq!(first.executed_txs, 6);
                // With no helper nothing ran before the second submission,
                // so it shares the first one's verdict; with helpers the
                // block may have settled first, and its entry answers.
                let answered_by_the_entry = crew.helpers() > 0 && second.executed_txs == 0;
                assert!(second.executed_txs == 6 || answered_by_the_entry);
                assert!(Arc::ptr_eq(
                    first.post_state.as_ref().unwrap(),
                    second.post_state.as_ref().unwrap()
                ));
            }
        }
    }

    #[test]
    fn a_valid_block_whose_parent_is_not_canonical_below_is_refused() {
        let world = genesis_world(60);
        let validator = Validator::new(config(), world.clone());
        let genesis = validator.genesis_hash();
        let a1 = propose_on(Arc::new(world.clone()), genesis, 1, 0);
        let s1 = Arc::new(a1.post_state.clone());
        let mut b1 = a1.block.clone();
        b1.header.proposer_seed += 1; // a sibling with a hash of its own
        let b2 = propose_on(Arc::clone(&s1), b1.hash(), 2, 1).block;
        // Two heights up, on a parent not committed at all.
        let a2 = propose_on(s1, a1.block.hash(), 2, 1);
        let a3 = propose_on(Arc::new(a2.post_state.clone()), a2.block.hash(), 3, 2).block;
        for block in [&a1.block, &b1, &b2, &a2.block, &a3] {
            assert!(validator.receive_block(block.clone()).wait().is_valid());
        }
        assert!(validator.commit_canonical(a1.block.hash()));
        for refused in [&b2, &a3] {
            assert!(validator.state_of(&refused.hash()).is_some());
            assert!(!validator.commit_canonical(refused.hash()));
            assert_eq!(validator.head(), Some((a1.block.hash(), 1)));
        }
        // Nothing is canonical below the genesis.
        assert!(!validator.commit_canonical(genesis));
        assert_eq!(validator.canonical_at(0), Some(genesis));
    }

    #[test]
    fn a_reorg_at_a_height_drops_the_canonical_descendants() {
        let world = genesis_world(60);
        let validator = Validator::new(config(), world.clone());
        let genesis = validator.genesis_hash();
        let a1 = propose_on(Arc::new(world.clone()), genesis, 1, 0);
        let a2 = propose_on(Arc::new(a1.post_state.clone()), a1.block.hash(), 2, 1);
        let a3 = propose_on(Arc::new(a2.post_state.clone()), a2.block.hash(), 3, 2);
        let mut b1 = a1.block.clone();
        b1.header.proposer_seed += 1; // a sibling with a hash of its own
        let b2 = propose_on(Arc::new(a1.post_state.clone()), b1.hash(), 2, 1);
        for p in [&a1, &a2, &a3] {
            assert!(validator.validate_and_commit(p.block.clone()).is_valid());
        }
        assert_eq!(validator.head(), Some((a3.block.hash(), 3)));
        for block in [&b1, &b2.block] {
            assert!(validator.receive_block(block.clone()).wait().is_valid());
        }
        // Switch height 1 to the sibling: heights 2 and 3 are orphaned.
        assert!(validator.commit_canonical(b1.hash()));
        assert_eq!(validator.head(), Some((b1.hash(), 1)));
        assert_eq!(validator.canonical_at(2), None);
        assert_eq!(validator.canonical_block(3), None);
        // The orphans stay known and keep their state, but no longer extend
        // the chain; the sibling's own child does.
        assert!(validator.state_of(&a2.block.hash()).is_some());
        assert!(!validator.commit_canonical(a2.block.hash()));
        assert!(validator.commit_canonical(b2.block.hash()));
        assert_eq!(validator.head(), Some((b2.block.hash(), 2)));
        assert_eq!(
            validator.head_state_root(),
            Some(b2.block.header.state_root)
        );
        assert_eq!(validator.canonical_at(1), Some(b1.hash()));
    }

    #[test]
    fn a_rejected_root_is_neither_observable_nor_committable() {
        let world = genesis_world(60);
        let validator = Validator::new(config(), world.clone());
        let genesis = validator.genesis_hash();
        let mut b1 = propose_on(Arc::new(world), genesis, 1, 0);
        b1.block.header.state_root = H256::from_low_u64(0xBAD);
        let b2 = propose_on(Arc::new(b1.post_state.clone()), b1.block.hash(), 2, 1);
        let b3 = propose_on(Arc::new(b2.post_state.clone()), b2.block.hash(), 3, 2);
        let hashes = [b1.block.hash(), b2.block.hash(), b3.block.hash()];
        let unobservable = |when: &str| {
            for hash in &hashes {
                assert!(validator.state_of(hash).is_none(), "{when}");
                assert!(!validator.commit_canonical(*hash), "{when}");
            }
            assert_eq!(validator.head(), Some((genesis, 0)), "{when}");
        };
        let h1 = validator.receive_block(b1.block);
        let h2 = validator.receive_block(b2.block);
        let h3 = validator.receive_block(b3.block);
        // While the descendants run on the rejected block's post-state...
        unobservable("in flight");
        assert_eq!(h1.wait().result, Err(ValidationError::StateRootMismatch));
        // ...when its verdict is in and theirs may not be...
        unobservable("after the root verdict");
        assert_eq!(h2.wait().result, Err(ValidationError::ParentInvalid));
        assert_eq!(h3.wait().result, Err(ValidationError::ParentInvalid));
        // ...and for good.
        unobservable("after every verdict");
    }

    #[test]
    fn store_backed_validator_recovers_head_and_state() {
        let dir = test_dir("validator-recovery");
        let world = genesis_world(60);
        let (head, height, root) = {
            let validator =
                Validator::with_store(config(), world.clone(), Store::open(&dir).unwrap()).unwrap();
            grow_chain(&validator, 3, 0);
            let (head, height) = validator.head().unwrap();
            let root = validator.head_state_root().unwrap();
            // All committed state is durable; drop the validator (crash-like
            // from the chain's perspective — nothing extra flushed on drop).
            (head, height, root)
        };
        let recovered =
            Validator::with_store(config(), world.clone(), Store::open(&dir).unwrap()).unwrap();
        assert_eq!(recovered.head(), Some((head, height)));
        assert_eq!(recovered.head_state_root(), Some(root));
        // The pipeline can keep extending the recovered chain.
        grow_chain(&recovered, 1, 3);
        assert_eq!(recovered.head().unwrap().1, height + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_start_replay_names_the_first_stored_block_that_fails() {
        let dir = test_dir("validator-replay-failure");
        let world = genesis_world(60);
        let validator = Validator::with_store_profile(
            config(),
            world.clone(),
            &dir,
            GroupCommitConfig::default(),
        )
        .unwrap();
        grow_chain(&validator, 2, 0);
        let (head, height) = validator.head().unwrap();
        let base = validator.state_of(&head).unwrap();
        let mut store = validator.into_store().unwrap();
        // A stored block with a wrong root, and two descendants that replay
        // in flight behind it and fail too.
        let mut bad = propose_on(base, head, height + 1, 2);
        bad.block.header.state_root = H256::from_low_u64(0xBAD);
        let mut chain = vec![bad];
        for h in 1..=2 {
            let parent = chain.last().unwrap();
            let (base, hash) = (Arc::new(parent.post_state.clone()), parent.block.hash());
            chain.push(propose_on(base, hash, height + 1 + h, 2 + h));
        }
        for proposal in &chain {
            store.put_block(&proposal.block).unwrap();
            store.commit(proposal.block.hash()).unwrap();
        }
        drop(store);
        let err = match Validator::with_store(config(), world, Store::open(&dir).unwrap()) {
            Ok(_) => panic!("a stored block that fails replay must be refused"),
            Err(StoreError::Corrupt(message)) => message,
            Err(other) => panic!("{other:?}"),
        };
        let named = format!("{:?} at height {}", chain[0].block.hash(), height + 1);
        assert!(err.contains(&named), "{err}");
        assert!(err.contains("StateRootMismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_genesis_is_rejected_on_recovery() {
        let dir = test_dir("validator-genesis-mismatch");
        {
            let validator =
                Validator::with_store(config(), genesis_world(10), Store::open(&dir).unwrap())
                    .unwrap();
            grow_chain(&validator, 1, 0);
        }
        let err =
            match Validator::with_store(config(), genesis_world(11), Store::open(&dir).unwrap()) {
                Ok(_) => panic!("mismatched genesis must be rejected"),
                Err(e) => e,
            };
        assert!(matches!(err, StoreError::Corrupt(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_stored_head_follows_the_canonical_head_across_reorgs() {
        let dir = test_dir("validator-reorg");
        let world = genesis_world(60);
        let validator = Validator::with_store_profile(
            config(),
            world.clone(),
            &dir,
            GroupCommitConfig::default(),
        )
        .unwrap();
        let a = propose_on(Arc::new(world.clone()), validator.genesis_hash(), 1, 0).block;
        let mut b = a.clone();
        b.header.proposer_seed += 1; // a sibling with a hash of its own
        for block in [&a, &b] {
            assert!(validator.receive_block(block.clone()).wait().is_valid());
        }
        for hash in [a.hash(), b.hash(), a.hash()] {
            assert!(validator.commit_canonical(hash));
            assert_eq!(validator.with_store_ref(|s| s.head()), Some(Some(hash)));
        }
        drop(validator);
        let reopened =
            Validator::with_store_profile(config(), world, &dir, GroupCommitConfig::default())
                .unwrap();
        assert_eq!(reopened.head(), Some((a.hash(), 1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
