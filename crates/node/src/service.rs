//! The streaming node loop: txpool → block source → validator pipeline(s) →
//! store, over one bounded channel with backpressure.
//!
//! Three threads of the node's own, whatever the number of validators `K`;
//! every parallel piece under them (the proposer's workers, each validator's
//! pipeline, a large state root) runs on the process's crew:
//!
//! ```text
//!  ingest ──add_batch──▶ TxPool (capacity-bounded)
//!                          │ turn (engine workers)
//!                        proposer: seal + encode ──[(height, Arc<[u8]>s)]──▶ validators: 0 (+ store) … K−1
//!                                                  sync_channel(CHANNEL_DEPTH)
//! ```
//!
//! * The one channel is **bounded** at [`CHANNEL_DEPTH`]: a slow validators
//!   thread fills it and the proposer's send blocks — that blocked time is
//!   accounted as *stall* in the proposer's [`StageStats`], so the report
//!   names the bottleneck.
//! * The [`BlockSource`] seals every candidate of a height; a message
//!   carries one height. The proposer chains height `N+1` on its own
//!   post-state immediately; validation, persistence and the wire all run
//!   behind it, and only the bounded channel holds it back.
//! * The proposer encodes each block **once**, right after sealing it, and
//!   every validator decodes the same shared `Arc<[u8]>`s — refcount bumps,
//!   not copies. The encode is accounted to the `codec` [`StageStats`].
//! * The validators thread holds all `K` [`ValidatorStage`]s. It hands each
//!   message to every stage in turn, after that link's seeded delay; when the
//!   wire is empty it settles every stage's in-flight heights before it
//!   blocks. A stage settles a height once all its candidates have a
//!   verdict: it commits the lowest-hash valid candidate that extends its
//!   head and counts the other valid ones as uncles.
//! * Nobody polls the pool. The ingest stage parks on it until there is room
//!   for a chunk of what it holds, the proposer until it holds a
//!   transaction; the pool wakes each from the turn or the batch that makes
//!   its condition true. Both waits time out every millisecond, only so that
//!   a stop request is seen.
//! * A store that already holds a chain resumes it: validator 0 recovers the
//!   head before the proposer starts one height above it, and every other
//!   stage first validates the recovered chain.
//! * Shutdown is by disconnect: the proposer finishing (or
//!   [`RunningNode::stop`]) drops the channel's one sender, and the
//!   validators thread settles what it already received, so every proposed
//!   block is validated, committed and (for validator 0 with a store)
//!   persisted — no lost or duplicated blocks mid-stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blockpilot_core::{
    OccWsiConfig, OccWsiProposer, Proposal, Proposer, ValidationHandle, Validator,
};
use bp_block::wire::{decode_block, encode_block_into};
use bp_block::Block;
use bp_evm::BlockEnv;
use bp_state::WorldState;
use bp_txpool::TxPool;
use bp_types::{Address, BlockHash, Gas, Height, Rng, H256};
use bp_workload::WorkloadGen;

use crate::config::NodeConfig;
use crate::stats::{micros_since, StageStats};

/// Capacity of the one bounded channel (proposer → validators), and the
/// number of heights a validator stage keeps in flight in its pipeline. Two
/// is one height being worked on and one ready behind it; a modeled sweep
/// over depths 1, 2 and 8 came out identical (EXPERIMENTS.md, "retired
/// arms"): the loop runs at the pace of its slowest stage whatever the
/// buffers hold.
pub const CHANNEL_DEPTH: usize = 2;

/// The most room the ingest stage waits for before it offers what it holds:
/// enough that it is woken about twice a block rather than at every commit,
/// small enough that the pool never runs far below its cap.
const INGEST_CHUNK: usize = 64;

/// The pool's admission cap: the ingest stage's backpressure bound. A
/// block's size is bounded by its gas limit.
const POOL_CAPACITY: usize = 1024;

/// How long a stage parked on the pool sleeps before it looks at the stop
/// flag again. The pool wakes it as soon as its condition holds; the timeout
/// bounds shutdown latency, not throughput.
const STOP_CHECK: Duration = Duration::from_millis(1);

/// Seed of the per-link latency draws and of the order a racing source sends
/// siblings in: a run is reproducible.
const SEED: u64 = 0xB10C_1207;

/// Where a running node's blocks come from: the seam between the loop and
/// whoever proposes, chosen at [`RunningNode::spawn_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSource {
    /// One block a height, packed from the pool by the OCC-WSI proposer.
    Proposer,
    /// The proposer's block and, every `every`-th height, a racing sibling
    /// on the same parent: the same transactions under another coinbase, so
    /// the pool's bookkeeping is right whichever one wins. The two go out in
    /// a seeded random order, and the next height chains on the fork-choice
    /// winner, the lower hash.
    Racer {
        /// Sibling period in heights (0 = never).
        every: u64,
    },
}

impl BlockSource {
    fn races_at(self, height: Height) -> bool {
        matches!(self, BlockSource::Racer { every } if every != 0 && height.is_multiple_of(every))
    }
}

/// Seals `block`'s transactions again on the same parent, under a coinbase
/// of its own: a valid sibling with another state root, hence another hash.
fn seal_sibling(
    block: &Block,
    parent_state: Arc<WorldState>,
    gas_limit: Gas,
    env: BlockEnv,
) -> Proposal {
    let coinbase = Address::from_index(0x51B1);
    let racer = Proposer::new(OccWsiConfig {
        threads: 1,
        gas_limit,
        env: BlockEnv { coinbase, ..env },
    });
    racer.submit_transactions(block.transactions.iter().cloned());
    let sibling = racer.propose_block(parent_state, block.header.parent_hash, block.height());
    debug_assert_eq!(sibling.block.tx_count(), block.tx_count());
    sibling
}

/// Seeded per-link latency sampler.
///
/// Each link gets an independent, individually deterministic RNG derived
/// from the base seed, so a link's delay sequence does not depend on the
/// order links are drawn in.
struct LinkDelays {
    rngs: Vec<Rng>,
    range: std::ops::Range<u64>,
}

impl LinkDelays {
    /// A sampler for `links` independent links drawing from `range`.
    fn new(links: usize, range: std::ops::Range<u64>, seed: u64) -> Self {
        let rngs = (0..links as u64)
            .map(|i| Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1)))
            .collect();
        LinkDelays { rngs, range }
    }

    /// The next delay on `link`. An empty range (e.g. `0..0`) means "no
    /// injected latency" and always yields the range start.
    fn next_delay(&mut self, link: usize) -> u64 {
        if self.range.is_empty() {
            return self.range.start;
        }
        self.rngs[link].gen_range(self.range.clone())
    }
}

/// One height's wire message: every candidate's encoding.
type Wire = (Height, Arc<[Arc<[u8]>]>);

/// Per-validator outcome returned by the validators thread.
struct ValidatorOutcome {
    stats: StageStats,
    head: (BlockHash, Height),
    head_root: H256,
    /// Canonical chain (heights 1..=head) — collected by validator 0 only,
    /// for the equivalence gate and tx accounting.
    chain: Vec<Block>,
    validation_failures: u64,
    uncles: u64,
}

/// A submitted block awaiting its verdict.
struct Candidate {
    hash: BlockHash,
    parent: BlockHash,
    handle: ValidationHandle,
}

/// One validator's end of the wire: decodes each message, submits its
/// candidates and settles heights in arrival order. The pipeline releases
/// height N+1 into execution while N's root still hashes, so the stage
/// submits a height that is already on the wire ahead of the previous
/// verdict — up to [`CHANNEL_DEPTH`] heights await theirs at once; siblings
/// of one height validate side by side. Commits still land strictly in
/// height order (FIFO drain).
struct ValidatorStage {
    validator: Validator,
    /// The canonical head: what the next height's winner must extend.
    head: BlockHash,
    /// The highest height settled, committed or failed: the stage's progress.
    settled: Height,
    inflight: VecDeque<(Height, Vec<Candidate>)>,
    stats: StageStats,
    failures: u64,
    uncles: u64,
}

impl ValidatorStage {
    fn new(validator: Validator) -> Self {
        // `Validator::new` starts on genesis, a store's recovery on its head.
        let (head, settled) = validator.head().expect("a validator starts on a head");
        ValidatorStage {
            validator,
            head,
            settled,
            inflight: VecDeque::new(),
            stats: StageStats::default(),
            failures: 0,
            uncles: 0,
        }
    }

    /// Handles one wire message for `height`. Bytes that do not decode are a
    /// peer's fault, not this node's: each such candidate is counted as a
    /// validation failure, the height is still settled in order with
    /// whatever did decode, and the stage carries on with the next message.
    fn on_wire(&mut self, height: Height, candidates: &[Arc<[u8]>]) {
        let t = Instant::now();
        let mut submitted = Vec::with_capacity(candidates.len());
        for bytes in candidates {
            match decode_block(bytes) {
                Ok(block) => {
                    debug_assert!(
                        encode_block_into(&block, Vec::new()) == **bytes,
                        "the decoder accepted a non-canonical spelling of a block"
                    );
                    submitted.push(self.receive(block));
                }
                Err(_) => self.failures += 1,
            }
        }
        self.stats.busy_micros += micros_since(t);
        self.submit(height, submitted);
    }

    /// Validates and commits blocks this validator has not seen, each as a
    /// height of its own: the chain a node resumed on its store recovered.
    fn catch_up(&mut self, chain: &[Block]) {
        for block in chain {
            let t = Instant::now();
            let candidate = self.receive(block.clone());
            self.stats.busy_micros += micros_since(t);
            self.submit(block.height(), vec![candidate]);
        }
    }

    fn receive(&self, block: Block) -> Candidate {
        Candidate {
            hash: block.hash(),
            parent: block.header.parent_hash,
            handle: self.validator.receive_block(block),
        }
    }

    /// Puts `height` in flight, samples how many heights are, then settles
    /// the oldest until fewer than [`CHANNEL_DEPTH`] are left.
    fn submit(&mut self, height: Height, candidates: Vec<Candidate>) {
        self.inflight.push_back((height, candidates));
        self.stats.sample_depth(self.inflight.len());
        while self.inflight.len() >= CHANNEL_DEPTH {
            self.drain_one();
        }
    }

    /// Settles the oldest in-flight height. Once every candidate has its
    /// verdict, the fork choice commits the lowest-hash valid one that
    /// extends the head; the other valid ones are uncles, the rest failures.
    /// A height with one honest candidate commits it.
    fn drain_one(&mut self) {
        let Some((height, candidates)) = self.inflight.pop_front() else {
            return;
        };
        let t = Instant::now();
        let offered = candidates.len() as u64;
        let mut valid: Vec<(BlockHash, BlockHash)> = candidates
            .into_iter()
            .filter_map(|c| c.handle.wait().is_valid().then_some((c.hash, c.parent)))
            .collect();
        self.failures += offered - valid.len() as u64;
        valid.sort_unstable();
        let winner = valid
            .iter()
            .find(|&&(hash, parent)| parent == self.head && self.validator.commit_canonical(hash));
        match winner {
            Some(&(hash, _)) => {
                self.head = hash;
                self.stats.items += 1;
                self.uncles += valid.len() as u64 - 1;
            }
            None => self.failures += valid.len() as u64,
        }
        self.stats.busy_micros += micros_since(t);
        // Even a failed height is settled, so that progress is seen past a
        // broken block.
        self.settled = height;
    }

    /// Settles every in-flight height, oldest first.
    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.drain_one();
        }
    }

    /// Ends the stage: its outcome, with the canonical chain when `chain`
    /// is set. Closes any open group-commit batch of its store, so deferred
    /// commits are durable before the run is reported done.
    fn finish(self, chain: bool) -> ValidatorOutcome {
        let validator = self.validator;
        // A validator starts on a head, and a commit only moves it.
        let head = validator.head().expect("a validator keeps a head");
        let head_root = validator.head_state_root().expect("a head has a root");
        let chain = if chain {
            (1..=head.1)
                .filter_map(|h| validator.canonical_block(h))
                .collect()
        } else {
            Vec::new()
        };
        let _ = validator.into_store();
        ValidatorOutcome {
            stats: self.stats,
            head,
            head_root,
            chain,
            validation_failures: self.failures,
            uncles: self.uncles,
        }
    }
}

/// Publishes the lowest height every stage has settled.
fn publish(stages: &[ValidatorStage], committed: &AtomicU64) {
    let lowest = stages.iter().map(|s| s.settled).min().unwrap_or(0);
    committed.store(lowest, Ordering::Release);
}

/// The validators thread's loop: hands each message on `wire` to every stage
/// in turn, after that link's delay, until the proposer hangs up, then
/// settles what is left. Submits ahead only of what is already on the wire:
/// when it is empty, every stage settles its in-flight heights before the
/// thread blocks, and the time blocked is every stage's wait.
fn serve(
    stages: &mut [ValidatorStage],
    wire: &Receiver<Wire>,
    delays: &mut LinkDelays,
    committed: &AtomicU64,
) {
    loop {
        let (height, candidates) = match wire.try_recv() {
            Ok(message) => message,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                stages.iter_mut().for_each(ValidatorStage::drain);
                publish(stages, committed);
                let t = Instant::now();
                let Ok(message) = wire.recv() else {
                    break; // the proposer hung up
                };
                let waited = micros_since(t);
                for stage in stages.iter_mut() {
                    stage.stats.wait_micros += waited;
                }
                message
            }
        };
        for (k, stage) in stages.iter_mut().enumerate() {
            let delay = delays.next_delay(k);
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
                stage.stats.injected_micros += delay;
            }
            stage.on_wire(height, &candidates);
        }
        publish(stages, committed);
    }
    stages.iter_mut().for_each(ValidatorStage::drain);
    publish(stages, committed);
}

/// Result of the serial-replay equivalence gate.
#[derive(Clone, Debug)]
pub struct Equivalence {
    /// Blocks replayed from height 1: the whole canonical chain, or the
    /// blocks before the first one serial replay rejected.
    pub blocks: u64,
    /// State root the serial replay from genesis reached.
    pub serial_root: H256,
    /// Final state root committed by the (pipelined) validators.
    pub node_root: H256,
    /// True iff every block replayed and the two roots agree.
    pub ok: bool,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct NodeReport {
    /// First height this run proposed: 1, or one above the head a
    /// store-backed node resumed.
    pub first_height: Height,
    /// Heights committed by every validator in this run.
    pub committed_blocks: u64,
    /// Transactions in this run's heights of the canonical chain.
    pub committed_txs: u64,
    /// Wall time of the whole loop, first propose to last commit.
    pub wall_micros: u64,
    /// Sustained throughput: committed transactions per wall-clock second.
    pub committed_tx_per_sec: f64,
    /// Ingest-stage counters (items = transactions admitted).
    pub ingest: StageStats,
    /// Proposer-stage counters (items = blocks sealed; stall = send
    /// backpressure).
    pub proposer: StageStats,
    /// Encode counters, kept by the proposer thread (items = blocks
    /// encoded). Its `max_queue_depth` is validator 0's: the most heights
    /// that stage held in flight at once, the gauge of how far the wire ran
    /// ahead of the verdicts.
    pub codec: StageStats,
    /// Per-validator counters (items = heights committed, a resumed node's
    /// catch-up included).
    pub validators: Vec<StageStats>,
    /// Proposer engine aborts summed over all heights.
    pub proposer_aborts: u64,
    /// Blocks that failed validation (always 0 in a healthy run).
    pub validation_failures: u64,
    /// Per validator, valid blocks that lost the fork choice at their height
    /// (0 under [`BlockSource::Proposer`]).
    pub uncles: Vec<u64>,
    /// Head state root agreed by all validators.
    pub final_root: H256,
    /// Head (hash, height) per validator.
    pub heads: Vec<(BlockHash, Height)>,
    /// Serial-replay gate result (`None` when disabled).
    pub equivalence: Option<Equivalence>,
}

impl NodeReport {
    /// True iff every validator converged to the same head and the
    /// equivalence gate (when run) passed.
    pub fn healthy(&self) -> bool {
        let heads_agree = self.heads.windows(2).all(|w| w[0] == w[1]);
        heads_agree
            && self.validation_failures == 0
            && self.equivalence.as_ref().is_none_or(|e| e.ok)
    }
}

/// A node service in flight. Obtain with [`RunningNode::spawn`] or
/// [`RunningNode::spawn_with`], end with [`RunningNode::join`] (runs to the
/// configured height) or [`RunningNode::stop`] + `join` (clean mid-stream
/// shutdown).
pub struct RunningNode {
    stop: Arc<AtomicBool>,
    /// The lowest height every validator has settled: stored (`Release`)
    /// by the validators thread, loaded (`Acquire`) by `committed_height`.
    committed: Arc<AtomicU64>,
    config: NodeConfig,
    genesis_state: WorldState,
    first_height: Height,
    started: Instant,
    ingest: JoinHandle<StageStats>,
    /// The proposer's and the encode's counters, and the engine's aborts.
    proposer: JoinHandle<(StageStats, StageStats, u64)>,
    validators: JoinHandle<Vec<ValidatorOutcome>>,
}

impl RunningNode {
    /// Spawns the node's three threads and starts the loop on the OCC-WSI
    /// proposer.
    pub fn spawn(config: NodeConfig) -> Self {
        Self::spawn_with(config, BlockSource::Proposer)
    }

    /// Spawns the node's three threads — ingest, proposer, validators — and
    /// starts the loop on `source`.
    pub fn spawn_with(config: NodeConfig, source: BlockSource) -> Self {
        assert!(config.validators > 0, "need at least one validator");
        assert!(config.blocks > 0, "need at least one height");

        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(TxPool::with_capacity_limit(POOL_CAPACITY));

        let workload = WorkloadGen::new(config.workload.clone());
        let genesis_state = workload.genesis_state();
        // Hash once, so that every clone below shares the committed tries.
        genesis_state.state_root();

        // Validator 0 opens its store before anything is proposed: a store
        // that already holds a chain decides where this run starts.
        let mut stages: Vec<ValidatorStage> = (0..config.validators)
            .map(|k| match (&config.store_dir, k) {
                (Some(dir), 0) => Validator::with_store_profile(
                    config.pipeline.clone(),
                    genesis_state.clone(),
                    dir,
                    config.group_commit,
                )
                .expect("node store opens"),
                _ => Validator::new(config.pipeline.clone(), genesis_state.clone()),
            })
            .map(ValidatorStage::new)
            .collect();
        let head = (stages[0].head, stages[0].settled);
        // The validator keeps the state of the head it recovered or started on.
        let head_state = stages[0]
            .validator
            .state_of(&head.0)
            .expect("a head has a validated state");
        // Validator 0 recovered this chain from its store; the others start
        // from genesis and validate it first.
        let recovered: Vec<Block> = (1..=head.1)
            .filter_map(|h| stages[0].validator.canonical_block(h))
            .collect();
        let committed = Arc::new(AtomicU64::new(0));
        publish(&stages, &committed);
        let first_height = head.1 + 1;

        let (wire_tx, wire_rx) = sync_channel(CHANNEL_DEPTH);

        let started = Instant::now();

        // --- Ingest -------------------------------------------------------
        let ingest = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let mut gen = WorkloadGen::new(config.workload.clone());
            if first_height > 1 {
                gen.resume_nonces(&head_state);
            }
            std::thread::spawn(move || {
                let mut stats = StageStats::default();
                let mut batch: Vec<_> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let t = Instant::now();
                    if batch.is_empty() {
                        batch = gen.next_block_txs();
                    }
                    // What the pool refuses stays in `batch`, in order (no
                    // nonce gaps), and is offered again. Admission hashes
                    // the transactions: that is this stage's work too.
                    stats.items += pool.add_batch(&mut batch) as u64;
                    stats.busy_micros += micros_since(t);
                    if !batch.is_empty() {
                        // Pool full: backpressure from the proposer. Park
                        // until its workers have freed a chunk's worth.
                        let t = Instant::now();
                        pool.wait_for_room(batch.len().min(INGEST_CHUNK), STOP_CHECK);
                        stats.stall_micros += micros_since(t);
                    }
                }
                stats
            })
        };

        // --- Proposer: seal, encode, send ---------------------------------
        let proposer = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            let envs = WorkloadGen::new(config.workload.clone());
            std::thread::spawn(move || {
                let mut stats = StageStats::default();
                let mut codec = StageStats::default();
                let mut aborts = 0u64;
                let mut order = Rng::seed_from_u64(SEED);
                let mut scratch: Vec<u8> = Vec::new();
                let mut parent_hash = head.0;
                let mut parent_state = head_state;
                for height in first_height..first_height + config.blocks {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Wait for ingest to put something in the pool.
                    let t = Instant::now();
                    let mut filled = false;
                    while !filled && !stop.load(Ordering::Acquire) {
                        filled = pool.wait_for_len(1, STOP_CHECK);
                    }
                    stats.wait_micros += micros_since(t);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }

                    let engine_config = OccWsiConfig {
                        threads: config.proposer_threads,
                        gas_limit: config.gas_limit,
                        env: envs.block_env(height),
                    };
                    // A racing height seals a sibling on the same parent, so
                    // it keeps a handle on it; otherwise the proposer hands
                    // over its only one, and the block is sealed into the
                    // parent in place.
                    let racer_parent = source.races_at(height).then(|| Arc::clone(&parent_state));
                    let t = Instant::now();
                    let proposal = OccWsiProposer::new(engine_config).propose(
                        &pool,
                        parent_state,
                        parent_hash,
                        height,
                    );
                    stats.busy_micros += micros_since(t);
                    stats.items += 1;
                    aborts += proposal.stats.aborts;
                    parent_hash = proposal.block.hash();
                    let mut blocks = vec![proposal.block];
                    let mut post_state = proposal.post_state;

                    if let Some(racer_parent) = racer_parent {
                        let t = Instant::now();
                        let sibling = seal_sibling(
                            &blocks[0],
                            racer_parent,
                            config.gas_limit,
                            envs.block_env(height),
                        );
                        // Chain on the fork-choice winner, as every
                        // validator will.
                        if sibling.block.hash() < parent_hash {
                            parent_hash = sibling.block.hash();
                            post_state = sibling.post_state;
                        }
                        blocks.push(sibling.block);
                        if order.gen_range(0..2u32) == 1 {
                            blocks.swap(0, 1);
                        }
                        stats.busy_micros += micros_since(t);
                        stats.items += 1;
                    }

                    // Chain on our own proposal: the next height packs
                    // against this post-state while the validators are
                    // still digesting this height. Nobody else reads the
                    // proposer's chain of states, so this is the only handle
                    // on it, and no earlier state is left to free.
                    parent_state = Arc::new(post_state);

                    // One encode, K receivers: the bytes go out shared.
                    let t = Instant::now();
                    let candidates: Arc<[Arc<[u8]>]> = blocks
                        .iter()
                        .map(|block| {
                            scratch = encode_block_into(block, std::mem::take(&mut scratch));
                            Arc::from(&scratch[..])
                        })
                        .collect();
                    codec.busy_micros += micros_since(t);
                    codec.items += blocks.len() as u64;

                    let t = Instant::now();
                    if wire_tx.send((height, candidates)).is_err() {
                        break; // the validators thread is gone
                    }
                    stats.stall_micros += micros_since(t);
                }
                // Dropping `wire_tx` here lets the validators drain.
                (stats, codec, aborts)
            })
        };

        // --- Validators ---------------------------------------------------
        let validators = {
            let committed = Arc::clone(&committed);
            let mut delays = LinkDelays::new(config.validators, config.latency_us.clone(), SEED);
            std::thread::spawn(move || {
                for stage in &mut stages[1..] {
                    stage.catch_up(&recovered);
                }
                serve(&mut stages, &wire_rx, &mut delays, &committed);
                stages
                    .into_iter()
                    .enumerate()
                    .map(|(k, stage)| stage.finish(k == 0))
                    .collect()
            })
        };

        RunningNode {
            stop,
            committed,
            config,
            genesis_state,
            first_height,
            started,
            ingest,
            proposer,
            validators,
        }
    }

    /// Requests a clean mid-stream shutdown: the proposer stops at the next
    /// height boundary and the validators drain what was already in flight.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Lowest height committed by all validators so far.
    pub fn committed_height(&self) -> Height {
        self.committed.load(Ordering::Acquire)
    }

    /// Waits for the loop to finish (or drain, after [`RunningNode::stop`])
    /// and assembles the report. A thread that panicked raises its own
    /// panic again here, once every other thread has ended.
    pub fn join(self) -> NodeReport {
        let RunningNode {
            stop,
            committed: _,
            config,
            genesis_state,
            first_height,
            started,
            ingest,
            proposer,
            validators,
        } = self;

        let proposer = proposer.join();
        let outcomes = validators.join();
        let wall_micros = micros_since(started);
        // Validators are drained: nothing consumes the pool anymore.
        stop.store(true, Ordering::Release);
        let ingest_stats = joined(ingest.join());
        let (proposer_stats, mut codec_stats, proposer_aborts) = joined(proposer);
        let mut outcomes = joined(outcomes);
        // The benchmark reads its wire depth here: heights validator 0 held
        // in flight at once, the queue the wire's messages wait in.
        codec_stats.max_queue_depth = outcomes[0].stats.max_queue_depth;

        let heads: Vec<(BlockHash, Height)> = outcomes.iter().map(|o| o.head).collect();
        let final_root = outcomes[0].head_root;
        // This run's heights only: a resumed node's stored chain came before.
        let resumed = first_height - 1;
        let lowest = heads.iter().map(|&(_, h)| h).min().unwrap_or(0);
        let committed_blocks = lowest.saturating_sub(resumed);
        let chain = std::mem::take(&mut outcomes[0].chain);
        let committed_txs: u64 = chain
            .iter()
            .skip(resumed as usize)
            .map(|b| b.tx_count() as u64)
            .sum();
        let validation_failures = outcomes.iter().map(|o| o.validation_failures).sum();

        let equivalence = config.check_equivalence.then(|| {
            let (serial_root, replayed) = replay_serially(&genesis_state, &chain);
            Equivalence {
                blocks: replayed as u64,
                serial_root,
                node_root: final_root,
                ok: replayed == chain.len() && serial_root == final_root,
            }
        });

        let committed_tx_per_sec = if wall_micros == 0 {
            0.0
        } else {
            committed_txs as f64 * 1e6 / wall_micros as f64
        };

        NodeReport {
            first_height,
            committed_blocks,
            committed_txs,
            wall_micros,
            committed_tx_per_sec,
            ingest: ingest_stats,
            proposer: proposer_stats,
            codec: codec_stats,
            uncles: outcomes.iter().map(|o| o.uncles).collect(),
            validators: outcomes.into_iter().map(|o| o.stats).collect(),
            proposer_aborts,
            validation_failures,
            final_root,
            heads,
            equivalence,
        }
    }
}

/// What a node thread returned, or its own panic raised again.
fn joined<T>(result: std::thread::Result<T>) -> T {
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Replays `chain` serially from `genesis` and returns the final state
/// root — the oracle the pipelined loop must agree with.
pub fn serial_replay_root(genesis: &WorldState, chain: &[Block]) -> H256 {
    let (root, replayed) = replay_serially(genesis, chain);
    (replayed == chain.len())
        .then_some(root)
        .expect("committed chain replays serially")
}

/// Replays `chain` serially from `genesis` up to the first block serial
/// replay rejects: the state root it reached, and how many blocks replayed.
fn replay_serially(genesis: &WorldState, chain: &[Block]) -> (H256, usize) {
    let mut state = genesis.snapshot();
    let mut replayed = 0;
    for block in chain {
        let env = BlockEnv {
            coinbase: block.header.coinbase,
            number: block.header.height,
            timestamp: block.header.timestamp,
            gas_limit: block.header.gas_limit,
        };
        match bp_baseline::execute_block_serially(&state, &env, &block.transactions) {
            Ok(outcome) => state = outcome.post_state,
            Err(_) => break,
        }
        replayed += 1;
    }
    (state.state_root(), replayed)
}

/// Runs the loop to completion: [`RunningNode::spawn`] + [`RunningNode::join`].
pub fn run_node(config: NodeConfig) -> NodeReport {
    RunningNode::spawn(config).join()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpilot_core::PipelineConfig;
    use bp_block::wire::encode_block;
    use bp_workload::WorkloadConfig;

    /// Three chained blocks of a small workload, as wire bytes, the genesis
    /// state they build on, and a sibling of the first block that lost the
    /// fork choice to it.
    fn chain_bytes() -> (WorldState, Vec<Vec<u8>>, Vec<u8>) {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            accounts: 60,
            tokens: 2,
            amm_pairs: 1,
            txs_per_block: 12,
            tx_jitter: 0,
            ..WorkloadConfig::default()
        });
        let genesis = gen.genesis_state();
        let validator = Validator::new(PipelineConfig::default(), genesis.clone());
        let mut parent_hash = validator.genesis_hash();
        let mut parent_state = Arc::new(genesis.clone());
        let pool = TxPool::new();
        let mut chain = Vec::new();
        let mut loser = Vec::new();
        for height in 1..=3 {
            for tx in gen.next_block_txs() {
                pool.add(tx);
            }
            let env = gen.block_env(height);
            let mut proposal = OccWsiProposer::new(OccWsiConfig {
                threads: 2,
                env,
                ..OccWsiConfig::default()
            })
            .propose(&pool, Arc::clone(&parent_state), parent_hash, height);
            if height == 1 {
                let mut sibling = seal_sibling(&proposal.block, parent_state, 30_000_000, env);
                if sibling.block.hash() < proposal.block.hash() {
                    std::mem::swap(&mut sibling, &mut proposal);
                }
                loser = encode_block(&sibling.block);
            }
            parent_hash = proposal.block.hash();
            parent_state = Arc::new(proposal.post_state);
            chain.push(encode_block(&proposal.block));
        }
        (genesis, chain, loser)
    }

    /// One height's wire message holding each of `candidates`.
    fn wire(candidates: &[&[u8]]) -> Vec<Arc<[u8]>> {
        candidates.iter().map(|&bytes| Arc::from(bytes)).collect()
    }

    #[test]
    fn undecodable_wire_bytes_are_a_counted_failure_not_a_panic() {
        let (genesis, chain, _) = chain_bytes();
        let validator = Validator::new(PipelineConfig::default(), genesis);
        let mut stage = ValidatorStage::new(validator);

        // Garbage of every kind the decoder tells apart: nothing, noise,
        // a truncated block, a block with a byte too many.
        let mut long = chain[0].clone();
        long.push(0);
        let garbage: [&[u8]; 4] = [&[], b"not a block", &chain[0][..chain[0].len() / 2], &long];
        for (i, bytes) in garbage.into_iter().enumerate() {
            stage.on_wire(1, &wire(&[bytes]));
            assert_eq!(stage.failures, i as u64 + 1);
        }
        // The height is settled, so progress moves on past it, and the
        // stage still validates what follows.
        assert_eq!(stage.settled, 1);
        stage.on_wire(1, &wire(&[&chain[0]]));
        stage.on_wire(2, &wire(&[&chain[1]]));
        // A block that decodes but was tampered with fails validation
        // and is counted the same way, after the blocks ahead of it.
        let mut tampered = decode_block(&chain[2]).expect("an honest block");
        tampered.header.state_root = H256::from_low_u64(7);
        stage.on_wire(3, &wire(&[&encode_block(&tampered)]));
        stage.on_wire(3, &wire(&[b"\xc0"]));
        stage.drain();
        assert_eq!(stage.stats.items, 2);
        assert_eq!(stage.failures, 6);
        assert_eq!(stage.settled, 3);
        assert_eq!(stage.validator.head().map(|(_, h)| h), Some(2));
    }

    /// Two valid siblings A and B at height 1, then A's child, A being the
    /// lower hash. The stage must commit A, stay on it (no reorg onto B when
    /// B's verdict lands) and extend it.
    #[test]
    fn siblings_at_one_height_commit_the_fork_choice_winner() {
        let (genesis, chain, loser) = chain_bytes();
        let a = decode_block(&chain[0]).expect("an honest block").hash();
        let b = decode_block(&loser).expect("an honest sibling").hash();
        assert!(a < b);
        let validator = Validator::new(PipelineConfig::default(), genesis);
        let mut stage = ValidatorStage::new(validator);
        // The loser comes first on the wire: arrival order decides nothing.
        stage.on_wire(1, &wire(&[&loser, &chain[0]]));
        stage.on_wire(2, &wire(&[&chain[1]]));
        stage.drain();
        assert_eq!(stage.validator.canonical_at(1), Some(a));
        assert_eq!(stage.validator.head().map(|(_, h)| h), Some(2));
        assert_eq!((stage.stats.items, stage.uncles, stage.failures), (2, 1, 0));
    }

    /// Two stages behind one wire, driven by the validators thread's own
    /// loop after validator 1 caught up on what validator 0 already had:
    /// each commits every height in order, the published height is the
    /// lower of the two, and the time the thread sat on an empty wire is
    /// charged to both stages alike.
    #[test]
    fn one_thread_serves_every_stage_in_height_order() {
        let (genesis, chain, _) = chain_bytes();
        let mut stages: Vec<ValidatorStage> = (0..2)
            .map(|_| {
                ValidatorStage::new(Validator::new(PipelineConfig::default(), genesis.clone()))
            })
            .collect();
        let committed = AtomicU64::new(0);
        let first = decode_block(&chain[0]).expect("an honest block");
        stages[0].catch_up(std::slice::from_ref(&first));
        stages[0].drain();
        publish(&stages, &committed);
        assert_eq!((stages[0].settled, stages[1].settled), (1, 0));
        assert_eq!(committed.load(Ordering::Acquire), 0);
        stages[1].catch_up(&[first]);

        // The proposer's end sends heights 2 and 3, each only once the
        // thread has published every height before it — the last thing it
        // does before it blocks on the empty wire — and a pause later.
        let (wire_tx, wire_rx) = sync_channel(CHANNEL_DEPTH);
        let (chain, published) = (&chain, &committed);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for (height, bytes) in (2..).zip(&chain[1..]) {
                    while published.load(Ordering::Acquire) < height - 1 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    let sent = wire_tx.send((height, wire(&[bytes]).into()));
                    sent.expect("the thread receives");
                }
            });
            let mut delays = LinkDelays::new(2, 0..0, SEED);
            serve(&mut stages, &wire_rx, &mut delays, published);
        });

        for stage in &stages {
            assert_eq!(
                (stage.stats.items, stage.settled, stage.failures),
                (3, 3, 0)
            );
            assert_eq!(stage.validator.head().map(|(_, h)| h), Some(3));
        }
        assert_eq!(committed.load(Ordering::Acquire), 3);
        let waits: Vec<u64> = stages.iter().map(|s| s.stats.wait_micros).collect();
        assert!(waits[0] > 0 && waits[0] == waits[1], "{waits:?}");
    }

    /// A committed chain whose second block no longer replays: the gate's
    /// replay stops there, on the first block's root, instead of panicking.
    #[test]
    fn serial_replay_stops_at_the_first_rejected_block() {
        let (genesis, chain, _) = chain_bytes();
        let mut chain: Vec<Block> = chain
            .iter()
            .map(|bytes| decode_block(bytes).expect("an honest block"))
            .collect();
        assert_eq!(replay_serially(&genesis, &chain).1, 3);
        chain[1].transactions[0].nonce += 1;
        let root_1 = chain[0].header.state_root;
        assert_eq!(replay_serially(&genesis, &chain), (root_1, 1));
    }

    #[test]
    fn link_delays_are_deterministic_and_order_independent() {
        let mut a = LinkDelays::new(3, 10..20, 42);
        let mut b = LinkDelays::new(3, 10..20, 42);
        // Draw in different link orders: per-link sequences must agree.
        let a_seq: Vec<u64> = (0..6).map(|i| a.next_delay(i % 3)).collect();
        let mut b_seq = vec![0u64; 6];
        for link in (0..3).rev() {
            for round in 0..2 {
                b_seq[round * 3 + link] = b.next_delay(link);
            }
        }
        assert_eq!(a_seq, b_seq);
        assert!(a_seq.iter().all(|&d| (10..20).contains(&d)));
        // Empty range: latency injection off.
        let mut off = LinkDelays::new(1, 0..0, 7);
        assert_eq!(off.next_delay(0), 0);
    }
}
