//! High-level validator node: the pipeline plus a fork-aware chain store,
//! optionally backed by a persistent [`bp_store::Store`].

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;

use bp_block::{genesis_header, Block, BlockProfile, ChainStore};
use bp_concurrent::sync::Mutex;
use bp_state::WorldState;
use bp_store::{GroupCommitConfig, Store, StoreConfig, StoreError};
use bp_types::{BlockHash, Height, H256};

use crate::pipeline::{PipelineConfig, ValidationHandle, ValidationOutcome, ValidatorPipeline};

/// How many recently committed state roots a persistent validator retains on
/// disk. Older roots are pruned as new heads commit; the window is deep
/// enough that a reorg within it never loses a needed state.
pub const ROOT_RETENTION: usize = 8;

/// Persistence context for a store-backed validator.
struct StoreCtx {
    store: Store,
    /// Canonical blocks already durable — persisting them again would
    /// double-retain their roots.
    persisted: HashSet<BlockHash>,
    /// Persisted roots in commit order, pruned beyond [`ROOT_RETENTION`].
    recent_roots: VecDeque<(Height, H256)>,
}

/// A validator node.
///
/// Receives blocks from the network (possibly several per height), validates
/// them through the four-stage pipeline, tracks every fork in a
/// [`ChainStore`], and commits the canonical chain. With
/// [`Validator::with_store`] every canonical commit is additionally made
/// durable, and a restarted node rebuilds its chain and state by replaying
/// the stored canonical chain from the genesis snapshot.
pub struct Validator {
    pipeline: ValidatorPipeline,
    chain: Mutex<ChainStore>,
    genesis: BlockHash,
    store: Option<Mutex<StoreCtx>>,
}

impl Validator {
    /// Boots a validator from a genesis state (in-memory only).
    pub fn new(config: PipelineConfig, genesis_state: WorldState) -> Self {
        let (validator, _) = Self::build(config, genesis_state);
        validator
    }

    /// Opens (or creates) a store at `dir` with the validator's standard
    /// persistence profile — a [`ROOT_RETENTION`]-deep retention window and
    /// the layered flat-state snapshot tree — and boots on it. Retention and
    /// flattening then run inside [`Store::commit`]; see
    /// [`Validator::with_store`] for the recovery semantics.
    pub fn with_store_at(
        config: PipelineConfig,
        genesis_state: WorldState,
        dir: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        Self::with_store_profile(config, genesis_state, dir, None)
    }

    /// Like [`Validator::with_store_at`], additionally coalescing durable
    /// commits into fsync batches when `group_commit` is set (see
    /// [`bp_store::GroupCommitConfig`]). Deferred commits are flushed by
    /// [`Validator::into_store`]; a crash mid-batch rolls the store back to
    /// the last batch boundary, from which recovery replays as usual.
    pub fn with_store_profile(
        config: PipelineConfig,
        genesis_state: WorldState,
        dir: impl AsRef<Path>,
        group_commit: Option<GroupCommitConfig>,
    ) -> Result<Self, StoreError> {
        let store = Store::open_with(
            dir,
            StoreConfig {
                retention_window: Some(ROOT_RETENTION),
                snapshots: true,
                group_commit,
            },
        )?;
        Self::with_store(config, genesis_state, store)
    }

    /// Boots a validator bound to a persistent store.
    ///
    /// * A fresh store is initialized from `genesis_state` (durable genesis
    ///   snapshot + genesis block).
    /// * An initialized store triggers **cold-start replay**: the genesis
    ///   snapshot anchors the pipeline and every stored canonical block is
    ///   re-validated in order, leaving the validator exactly where the last
    ///   durable commit left it — the stored head, with its state resolvable
    ///   from disk. `genesis_state` must match the stored snapshot.
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

        let chain_blocks = store.canonical_chain()?;
        let persisted: HashSet<BlockHash> = chain_blocks.iter().map(|b| b.hash()).collect();
        let recent_roots: VecDeque<(Height, H256)> = chain_blocks
            .iter()
            .rev()
            .take(ROOT_RETENTION)
            .rev()
            .map(|b| (b.height(), b.header.state_root))
            .collect();
        validator.store = Some(Mutex::new(StoreCtx {
            store,
            persisted,
            recent_roots,
        }));

        // Cold-start replay: re-execute the stored canonical chain through
        // the pipeline. Persistence is skipped (every hash is in
        // `persisted`), so replay only rebuilds the in-memory view.
        for block in chain_blocks.into_iter().filter(|b| b.height() > 0) {
            let hash = block.hash();
            let height = block.height();
            let outcome = validator.receive_block(block).wait();
            if !outcome.is_valid() {
                return Err(StoreError::Corrupt(format!(
                    "stored block {hash:?} at height {height} failed replay: {:?}",
                    outcome.result
                )));
            }
            if !validator.commit_canonical(hash) {
                return Err(StoreError::Corrupt(format!(
                    "stored block {hash:?} at height {height} does not extend the canonical chain"
                )));
            }
        }

        // Layered flat-state catch-up: if the snapshot tree cannot resolve
        // the recovered head (snapshots were just enabled on an older store,
        // or the snap files were lost), rebuild it wholesale from the
        // replayed head state. Replayed flattens must move forward in
        // height, which a fresh base guarantees.
        let (head_hash, head_height) = validator.head().expect("canonical head exists");
        let head_root = validator
            .head_state_root()
            .expect("canonical head has a state root");
        {
            let mut ctx = validator
                .store
                .as_ref()
                .expect("store attached above")
                .lock();
            let needs_reset = ctx
                .store
                .snapshots()
                .map(|snaps| !snaps.has_root(head_root))
                .unwrap_or(false);
            if needs_reset {
                let state = validator
                    .pipeline
                    .state_of(&head_hash)
                    .expect("recovered head has a validated state");
                ctx.store
                    .reset_snapshots(&state.full_delta(), head_root, head_height)?;
            }
        }
        Ok(validator)
    }

    /// Shared construction: genesis block, chain store, pipeline.
    fn build(config: PipelineConfig, genesis_state: WorldState) -> (Self, Block) {
        let header = genesis_header(genesis_state.state_root());
        let genesis_block = Block {
            header,
            transactions: vec![],
            profile: BlockProfile::new(),
        };
        let genesis = genesis_block.hash();
        let mut chain = ChainStore::new();
        chain.insert(genesis_block.clone());
        chain.set_canonical(genesis);
        let pipeline = ValidatorPipeline::new(config);
        pipeline.register_state(genesis, Arc::new(genesis_state));
        (
            Validator {
                pipeline,
                chain: Mutex::new(chain),
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

    /// Receives a block from the network: stores it (fork-aware) and starts
    /// pipeline validation. Multiple blocks at the same height validate
    /// concurrently.
    pub fn receive_block(&self, block: Block) -> ValidationHandle {
        let block = Arc::new(block);
        self.chain.lock().insert_shared(Arc::clone(&block));
        self.pipeline.submit_shared(block)
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
        let chain = self.chain.lock();
        chain.head().map(|b| (b.hash(), b.height()))
    }

    /// The state root of the canonical head.
    pub fn head_state_root(&self) -> Option<H256> {
        self.chain.lock().head().map(|b| b.header.state_root)
    }

    /// Number of blocks known at `height` (canonical + uncles).
    pub fn blocks_at(&self, height: Height) -> usize {
        self.chain.lock().at_height(height).len()
    }

    /// Number of uncle blocks at a decided height.
    pub fn uncles_at(&self, height: Height) -> usize {
        self.chain.lock().uncles_at(height).len()
    }

    /// Marks an already-validated block canonical at its height (the local
    /// effect of a fork-choice decision arriving from consensus) and, on a
    /// store-backed validator, durably persists it. Returns false, with the
    /// head unmoved and nothing persisted, if the block is unknown, has no
    /// valid verdict (rejected, or still in the pipeline), or does not
    /// extend the canonical chain.
    pub fn commit_canonical(&self, hash: BlockHash) -> bool {
        let Some(state) = self.pipeline.state_of(&hash) else {
            return false;
        };
        let accepted = self.chain.lock().set_canonical(hash);
        if accepted {
            self.persist(hash, &state);
        }
        accepted
    }

    /// The canonical block hash at `height`, if decided.
    pub fn canonical_at(&self, height: Height) -> Option<BlockHash> {
        self.chain.lock().canonical_at(height).map(|b| b.hash())
    }

    /// A clone of the canonical block at `height`. The node loop's
    /// equivalence gate uses this to replay the committed chain serially
    /// from genesis and compare final state roots.
    pub fn canonical_block(&self, height: Height) -> Option<Block> {
        self.chain.lock().canonical_at(height).cloned()
    }

    /// Direct access to the pipeline (e.g. for multi-block benchmarks).
    pub fn pipeline(&self) -> &ValidatorPipeline {
        &self.pipeline
    }

    /// Runs `f` against the persistent store, if this validator has one.
    pub fn with_store_ref<R>(&self, f: impl FnOnce(&Store) -> R) -> Option<R> {
        self.store.as_ref().map(|ctx| f(&ctx.lock().store))
    }

    /// Tears the validator down, returning its store (if any) with all
    /// committed state durable — the handle a restarted node reopens from.
    /// Under group commit this closes the open batch first, so deferred
    /// commits land before the handle changes hands.
    pub fn into_store(self) -> Option<Store> {
        self.store.map(|ctx| {
            let mut store = ctx.into_inner().store;
            store.flush().expect("final store flush failed");
            store
        })
    }

    /// Durably records a newly canonical block: block bytes, its post-state
    /// trie nodes, its snapshot diff layer, a retention-window prune, then
    /// the manifest swap. A storage failure here is unrecoverable by design
    /// (the durable view would silently diverge), so it panics like
    /// fsync-gated databases do.
    fn persist(&self, hash: BlockHash, state: &WorldState) {
        let Some(ctx) = &self.store else {
            return;
        };
        let mut ctx = ctx.lock();
        if ctx.persisted.contains(&hash) {
            return;
        }
        let (block, parent_root) = {
            let chain = self.chain.lock();
            let block = chain
                .get(&hash)
                .cloned()
                .expect("canonical block is in the chain store");
            let parent_root = chain
                .get(&block.header.parent_hash)
                .map(|p| p.header.state_root);
            (block, parent_root)
        };
        let (root, nodes) = state.commit_tries();
        debug_assert_eq!(root, block.header.state_root);
        let height = block.height();
        let result: Result<(), StoreError> = (|| {
            ctx.store.put_block(&block)?;
            ctx.store.commit_root(root, &nodes)?;
            if ctx.store.snapshots().is_some() {
                // Stack the block's diff layer on its parent's root. The
                // delta is distilled here, from the post-state and the keys
                // validation recorded; an empty block (root == parent root)
                // no-ops inside the tree.
                let parent_root =
                    parent_root.expect("persisted non-genesis block has a stored parent");
                let delta = self.pipeline.delta_of(&hash).unwrap_or_default();
                ctx.store.snap_add_layer(root, parent_root, height, delta)?;
            }
            if ctx.store.config().retention_window.is_none() {
                // Legacy path for stores opened without a window: the
                // validator prunes manually. Configured stores prune (and
                // flatten snapshots) inside `commit` instead.
                ctx.recent_roots.push_back((height, root));
                while ctx.recent_roots.len() > ROOT_RETENTION {
                    let (_, old) = ctx.recent_roots.pop_front().expect("len checked");
                    ctx.store.prune(old)?;
                }
            }
            ctx.store.commit(hash)
        })();
        result.expect("persistent store commit failed");
        ctx.persisted.insert(hash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal};
    use crate::pipeline::ValidationError;
    use bp_evm::{BlockEnv, Transaction};
    use bp_state::StateReader;
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
            let base = validator.pipeline().state_of(&parent).expect("head state");
            let proposal = propose_on(base, parent, parent_height + 1, start_nonce + h - 1);
            let outcome = validator.validate_and_commit(proposal.block);
            assert!(outcome.is_valid(), "{:?}", outcome.result);
        }
    }

    #[test]
    fn commit_canonical_refuses_a_block_without_a_valid_verdict() {
        let dir = test_dir("validator-commit-unvalidated");
        let world = genesis_world(60);
        let stored = Validator::with_store_at(config(), world.clone(), &dir).unwrap();
        for validator in [Validator::new(config(), world.clone()), stored] {
            let genesis = validator.genesis_hash();
            let honest = propose_on(Arc::new(world.clone()), genesis, 1, 0).block;
            // Every variant extends the head, which is all the chain store
            // asks of a canonical block.
            let mut wrong_root = honest.clone();
            wrong_root.header.state_root = H256::from_low_u64(0xBAD);
            let mut wrong_gas = honest.clone();
            wrong_gas.header.gas_used += 1;
            let mut wrong_profile = honest.clone();
            wrong_profile.header.proposer_seed += 1; // a hash of its own
            let entry = &mut wrong_profile.profile.entries[0];
            let key = *entry.writes.keys().next().unwrap();
            entry.writes.insert(key, U256::from(123_456u64));
            for rejected in [wrong_root, wrong_gas, wrong_profile] {
                let hash = rejected.hash();
                assert!(!validator.receive_block(rejected).wait().is_valid());
                assert!(!validator.commit_canonical(hash));
                assert_eq!(validator.head(), Some((genesis, 0)));
            }
            // Known to the chain store, never seen by the pipeline.
            let mut unsubmitted = honest.clone();
            unsubmitted.header.proposer_seed += 2;
            let hash = unsubmitted.hash();
            validator.chain.lock().insert(unsubmitted);
            assert!(!validator.commit_canonical(hash));
            assert_eq!(validator.head(), Some((genesis, 0)));
            validator.with_store_ref(|s| {
                assert_eq!(s.head(), Some(genesis), "nothing was persisted");
                assert_eq!(s.block_count(), 1);
            });
            // The refusals cost nothing: the honest block still commits.
            let hash = honest.hash();
            assert!(validator.validate_and_commit(honest).is_valid());
            assert_eq!(validator.head(), Some((hash, 1)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
                assert!(validator.pipeline().state_of(hash).is_none(), "{when}");
                assert!(validator.pipeline().delta_of(hash).is_none(), "{when}");
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
        // The recovered head state is resolvable from disk and the pipeline
        // can keep extending the chain.
        recovered
            .with_store_ref(|s| {
                assert_eq!(s.open_trie(root).unwrap().root_hash(), root);
            })
            .unwrap();
        grow_chain(&recovered, 1, 3);
        assert_eq!(recovered.head().unwrap().1, height + 1);
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
    fn snapshot_store_tracks_head_and_recovers() {
        let dir = test_dir("validator-snap");
        let world = genesis_world(60);
        let (head_root, height) = {
            let validator = Validator::with_store_at(config(), world.clone(), &dir).unwrap();
            grow_chain(&validator, ROOT_RETENTION as u64 + 3, 0);
            let (head, height) = validator.head().unwrap();
            let root = validator.head_state_root().unwrap();
            let head_state = validator.pipeline().state_of(&head).unwrap();
            validator
                .with_store_ref(|s| {
                    // Windowed retention bounds the trie roots; the snapshot
                    // tree follows the head, flattening old diff layers into
                    // its base as blocks leave the window.
                    assert!(s.roots().len() <= ROOT_RETENTION);
                    let snaps = s.snapshots().expect("snapshots enabled");
                    assert!(snaps.has_root(root));
                    assert!(snaps.layer_count() <= ROOT_RETENTION);
                    assert!(snaps.base_height() >= height - ROOT_RETENTION as u64);
                    let reader = snaps.reader(root).unwrap();
                    for i in [1u64, 6, 51, 56] {
                        let snap_balance = reader
                            .base_account(&addr(i))
                            .map(|a| a.balance)
                            .unwrap_or(U256::ZERO);
                        assert_eq!(snap_balance, head_state.balance(&addr(i)));
                    }
                })
                .unwrap();
            (root, height)
        };
        // Reopen: replay restores the pipeline and the snapshot tree resumes
        // at the durable head it journalled before the manifest swap.
        let recovered = Validator::with_store_at(config(), world, &dir).unwrap();
        assert_eq!(recovered.head_state_root(), Some(head_root));
        recovered
            .with_store_ref(|s| {
                assert!(s
                    .snapshots()
                    .expect("snapshots enabled")
                    .has_root(head_root));
            })
            .unwrap();
        grow_chain(&recovered, 1, ROOT_RETENTION as u64 + 3);
        assert_eq!(recovered.head().unwrap().1, height + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn root_retention_prunes_old_roots() {
        let dir = test_dir("validator-retention");
        let world = genesis_world(60);
        let validator =
            Validator::with_store(config(), world.clone(), Store::open(&dir).unwrap()).unwrap();
        let genesis_root = world.state_root();
        grow_chain(&validator, ROOT_RETENTION as u64 + 2, 0);
        validator
            .with_store_ref(|s| {
                assert_eq!(s.roots().len(), ROOT_RETENTION);
                assert!(!s.contains_root(&genesis_root));
            })
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
