//! The streaming node loop: txpool → block source → wire codec → validator
//! pipeline(s) → store, over bounded channels with backpressure.
//!
//! Stage layout (one OS thread each):
//!
//! ```text
//!  ingest ──add_batch──▶ TxPool (capacity-bounded)
//!                          │ turn (engine workers)
//!                        source ──[Block]──▶ codec ──[Arc<[u8]>]──▶ validator 0 (+ store)
//!                                 bounded          bounded      └──▶ validator k
//! ```
//!
//! * Every inter-stage channel is **bounded** at [`CHANNEL_DEPTH`]: a slow
//!   stage fills its input queue and the sender blocks — that blocked time
//!   is accounted as *stall* in the sender's [`StageStats`], so the report
//!   names the bottleneck.
//! * The [`BlockSource`] seals every candidate of a height; a message on
//!   every channel carries one height. The source chains height `N+1` on its
//!   own post-state immediately; validation, persistence and the wire all
//!   run behind it, and only the bounded channels hold it back.
//! * The codec stage encodes each block **once** and hands the bytes to all
//!   `K` validator wires as shared `Arc<[u8]>`s — refcount bumps, not
//!   copies — keeping serialization off the proposer's critical path.
//! * A validator stage settles a height once all its candidates have a
//!   verdict: it commits the lowest-hash valid candidate that extends its
//!   head and counts the other valid ones as uncles.
//! * Nobody polls the pool. The ingest stage parks on it until there is room
//!   for a chunk of what it holds, the proposer until it holds a
//!   transaction; the pool wakes each from the turn or the batch that makes
//!   its condition true. Both waits time out every millisecond, only so that
//!   a stop request is seen.
//! * A store that already holds a chain resumes it: validator 0 recovers the
//!   head before the source starts one height above it, and every other
//!   validator first validates the recovered chain.
//! * Shutdown is by channel disconnect: the source finishing (or
//!   [`RunningNode::stop`]) drops the head of the chain of senders and each
//!   stage drains what it already received, so every proposed block is
//!   validated, committed and (for validator 0 with a store) persisted —
//!   no lost or duplicated blocks mid-stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blockpilot_core::{
    OccWsiConfig, OccWsiProposer, Proposal, Proposer, ValidationHandle, Validator,
};
use bp_block::wire::{decode_block, encode_block_into};
use bp_block::Block;
use bp_concurrent::channel::bounded;
use bp_concurrent::sync::Mutex;
use bp_evm::BlockEnv;
use bp_state::WorldState;
use bp_txpool::TxPool;
use bp_types::{Address, BlockHash, Gas, Height, Rng, H256};
use bp_workload::WorkloadGen;

use crate::config::NodeConfig;
use crate::stats::{micros_since, StageStats};

/// Capacity of each bounded inter-stage channel (source → codec and codec →
/// each validator), and the number of heights a validator stage keeps in
/// flight in its pipeline. Two is one height being worked on and one ready
/// behind it; a modeled sweep over depths 1, 2 and 8 came out identical
/// (EXPERIMENTS.md, "retired arms"): the loop runs at the pace of its slowest
/// stage whatever the buffers hold.
pub const CHANNEL_DEPTH: usize = 2;

/// The most room the ingest stage waits for before it offers what it holds:
/// enough that it is woken about twice a block rather than at every commit,
/// small enough that the pool never runs far below its cap.
const INGEST_CHUNK: usize = 64;

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
        max_txs: 0,
    });
    racer.submit_transactions(block.transactions.iter().cloned());
    let sibling = racer.propose_block(parent_state, block.header.parent_hash, block.height());
    debug_assert_eq!(sibling.block.tx_count(), block.tx_count());
    sibling
}

/// Seeded per-link latency sampler.
///
/// Each link gets an independent, individually deterministic RNG derived
/// from the base seed, so delay sequences do not depend on the order links
/// are polled in: every validator thread builds the same sampler and draws
/// only its own link.
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

/// Highest height each validator has settled, for progress tracking
/// ([`RunningNode::committed_height`]).
struct CommitBoard {
    heights: Mutex<Vec<Height>>,
}

impl CommitBoard {
    fn new(validators: usize) -> Self {
        CommitBoard {
            heights: Mutex::new(vec![0; validators]),
        }
    }

    fn record(&self, validator: usize, height: Height) {
        let mut heights = self.heights.lock();
        heights[validator] = heights[validator].max(height);
    }

    fn min(&self) -> Height {
        *self.heights.lock().iter().min().expect("non-empty")
    }
}

/// One height's wire message: every candidate's encoding.
type Wire = (Height, Arc<[Arc<[u8]>]>);

/// Per-validator outcome returned by its stage thread.
struct ValidatorOutcome {
    stats: StageStats,
    head: Option<(BlockHash, Height)>,
    head_root: Option<H256>,
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
    k: usize,
    validator: Validator,
    board: Arc<CommitBoard>,
    /// The canonical head: what the next height's winner must extend.
    head: BlockHash,
    inflight: VecDeque<(Height, Vec<Candidate>)>,
    stats: StageStats,
    failures: u64,
    uncles: u64,
}

impl ValidatorStage {
    fn new(k: usize, validator: Validator, board: Arc<CommitBoard>) -> Self {
        let (head, _) = validator.head().expect("a validator starts on a head");
        ValidatorStage {
            k,
            validator,
            board,
            head,
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

    fn submit(&mut self, height: Height, candidates: Vec<Candidate>) {
        self.inflight.push_back((height, candidates));
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
        // Record even failed heights, so that progress is seen past a broken
        // block.
        self.board.record(self.k, height);
    }

    /// Settles every in-flight height, oldest first.
    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.drain_one();
        }
    }
}

/// Result of the serial-replay equivalence gate.
#[derive(Clone, Debug)]
pub struct Equivalence {
    /// Blocks replayed: the whole canonical chain, from height 1.
    pub blocks: u64,
    /// Final state root of the serial replay from genesis.
    pub serial_root: H256,
    /// Final state root committed by the (pipelined) validators.
    pub node_root: H256,
    /// True iff the two roots agree.
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
    /// Codec-stage counters (items = blocks encoded).
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
    board: Arc<CommitBoard>,
    config: NodeConfig,
    genesis_state: WorldState,
    first_height: Height,
    started: Instant,
    ingest: JoinHandle<StageStats>,
    proposer: JoinHandle<(StageStats, u64)>,
    codec: JoinHandle<StageStats>,
    validators: Vec<JoinHandle<ValidatorOutcome>>,
}

impl RunningNode {
    /// Spawns every stage thread and starts the loop on the OCC-WSI
    /// proposer.
    pub fn spawn(config: NodeConfig) -> Self {
        Self::spawn_with(config, BlockSource::Proposer)
    }

    /// Spawns every stage thread and starts the loop on `source`.
    pub fn spawn_with(config: NodeConfig, source: BlockSource) -> Self {
        assert!(config.validators > 0, "need at least one validator");
        assert!(config.blocks > 0, "need at least one height");

        let stop = Arc::new(AtomicBool::new(false));
        let board = Arc::new(CommitBoard::new(config.validators));
        let pool = Arc::new(TxPool::with_capacity_limit(config.pool_capacity));

        let workload = WorkloadGen::new(config.workload.clone());
        let genesis_state = workload.genesis_state();
        // Hash once, so that every clone below shares the committed tries.
        genesis_state.state_root();

        // Validator 0 opens its store before anything is proposed: a store
        // that already holds a chain decides where this run starts.
        let nodes: Vec<Validator> = (0..config.validators)
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
            .collect();
        let head = nodes[0].head().expect("a validator starts on a head");
        let head_state = nodes[0]
            .pipeline()
            .state_of(&head.0)
            .expect("a head has a validated state");
        // Validator 0 recovered this chain from its store; the others start
        // from genesis and validate it first.
        let recovered: Arc<[Block]> = (1..=head.1)
            .filter_map(|h| nodes[0].canonical_block(h))
            .collect();
        board.record(0, head.1);
        let first_height = head.1 + 1;

        // Stage channels: source → codec, codec → each validator.
        let (codec_tx, codec_rx) = bounded::<Vec<Block>>(CHANNEL_DEPTH);
        let mut wire_txs = Vec::with_capacity(config.validators);
        let mut wire_rxs = Vec::with_capacity(config.validators);
        for _ in 0..config.validators {
            let (tx, rx) = bounded::<Wire>(CHANNEL_DEPTH);
            wire_txs.push(tx);
            wire_rxs.push(rx);
        }

        let started = Instant::now();

        // --- Ingest stage -------------------------------------------------
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

        // --- Proposer stage ----------------------------------------------
        let proposer = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            let envs = WorkloadGen::new(config.workload.clone());
            std::thread::spawn(move || {
                let mut stats = StageStats::default();
                let mut aborts = 0u64;
                let mut order = Rng::seed_from_u64(SEED);
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
                        max_txs: 0,
                    };
                    let t = Instant::now();
                    let proposal = OccWsiProposer::new(engine_config).propose(
                        &pool,
                        Arc::clone(&parent_state),
                        parent_hash,
                        height,
                    );
                    stats.busy_micros += micros_since(t);
                    stats.items += 1;
                    aborts += proposal.stats.aborts;
                    let mut blocks = vec![proposal.block];
                    let mut post_state = proposal.post_state;

                    if source.races_at(height) {
                        let t = Instant::now();
                        let sibling = seal_sibling(
                            &blocks[0],
                            Arc::clone(&parent_state),
                            config.gas_limit,
                            envs.block_env(height),
                        );
                        // Chain on the fork-choice winner, as every
                        // validator will.
                        if sibling.block.hash() < blocks[0].hash() {
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
                    // against this post-state while everything downstream
                    // is still digesting this height.
                    parent_hash = blocks.iter().map(Block::hash).min().expect("a block");
                    parent_state = Arc::new(post_state);

                    let t = Instant::now();
                    if codec_tx.send(blocks).is_err() {
                        break; // downstream gone (stop + drain)
                    }
                    stats.stall_micros += micros_since(t);
                    stats.sample_depth(codec_tx.len());
                }
                // Dropping codec_tx here starts the drain cascade.
                (stats, aborts)
            })
        };

        // --- Codec stage --------------------------------------------------
        let codec = {
            std::thread::spawn(move || {
                let mut stats = StageStats::default();
                let mut scratch: Vec<u8> = Vec::new();
                loop {
                    let t = Instant::now();
                    let Ok(blocks) = codec_rx.recv() else {
                        break; // source done: drain complete
                    };
                    stats.wait_micros += micros_since(t);

                    let t = Instant::now();
                    let height = blocks[0].height();
                    let mut encoded = Vec::with_capacity(blocks.len());
                    for block in &blocks {
                        scratch = encode_block_into(block, scratch);
                        encoded.push(Arc::<[u8]>::from(&scratch[..]));
                    }
                    // One encode, K receivers: the bytes go out shared —
                    // cloning is a refcount bump, not a copy.
                    let candidates: Arc<[Arc<[u8]>]> = encoded.into();
                    stats.busy_micros += micros_since(t);
                    stats.items += blocks.len() as u64;

                    let t = Instant::now();
                    for wire in &wire_txs {
                        if wire.send((height, Arc::clone(&candidates))).is_err() {
                            break;
                        }
                    }
                    stats.stall_micros += micros_since(t);
                    let deepest = wire_txs.iter().map(|w| w.len()).max().unwrap_or(0);
                    stats.sample_depth(deepest);
                }
                stats
            })
        };

        // --- Validator stages --------------------------------------------
        let validators = nodes
            .into_iter()
            .zip(wire_rxs)
            .enumerate()
            .map(|(k, (validator, wire_rx))| {
                let board = Arc::clone(&board);
                let config = config.clone();
                let recovered = Arc::clone(&recovered);
                std::thread::spawn(move || {
                    let mut delays = LinkDelays::new(config.validators, config.latency_us, SEED);
                    let mut stage = ValidatorStage::new(k, validator, board);
                    if k > 0 {
                        stage.catch_up(&recovered);
                    }
                    loop {
                        // Submit ahead only of what is already on the wire:
                        // a verdict does not wait for the next arrival.
                        if wire_rx.is_empty() {
                            stage.drain();
                        }
                        let t = Instant::now();
                        let Ok((height, candidates)) = wire_rx.recv() else {
                            break; // wire disconnected: drain complete
                        };
                        stage.stats.wait_micros += micros_since(t);

                        let delay = delays.next_delay(k);
                        if delay > 0 {
                            std::thread::sleep(Duration::from_micros(delay));
                            stage.stats.injected_micros += delay;
                        }
                        stage.on_wire(height, &candidates);
                    }
                    stage.drain();
                    let ValidatorStage {
                        validator,
                        stats,
                        failures,
                        uncles,
                        ..
                    } = stage;
                    let head = validator.head();
                    let head_root = validator.head_state_root();
                    let chain = if k == 0 {
                        let top = head.map(|(_, h)| h).unwrap_or(0);
                        (1..=top)
                            .filter_map(|h| validator.canonical_block(h))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // Close any open group-commit batch: deferred commits
                    // must be durable before the run is reported done.
                    let _ = validator.into_store();
                    ValidatorOutcome {
                        stats,
                        head,
                        head_root,
                        chain,
                        validation_failures: failures,
                        uncles,
                    }
                })
            })
            .collect();

        RunningNode {
            stop,
            board,
            config,
            genesis_state,
            first_height,
            started,
            ingest,
            proposer,
            codec,
            validators,
        }
    }

    /// Requests a clean mid-stream shutdown: the proposer stops at the next
    /// height boundary and every stage drains what was already in flight.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Lowest height committed by all validators so far.
    pub fn committed_height(&self) -> Height {
        self.board.min()
    }

    /// Waits for the loop to finish (or drain, after [`RunningNode::stop`])
    /// and assembles the report. A stage thread that panicked raises its own
    /// panic again here, once every other stage has ended.
    pub fn join(self) -> NodeReport {
        let RunningNode {
            stop,
            board: _,
            config,
            genesis_state,
            first_height,
            started,
            ingest,
            proposer,
            codec,
            validators,
        } = self;

        let proposer = proposer.join();
        let codec = codec.join();
        let outcomes: Vec<_> = validators.into_iter().map(JoinHandle::join).collect();
        let wall_micros = micros_since(started);
        // Validators are drained: nothing consumes the pool anymore.
        stop.store(true, Ordering::Release);
        let ingest_stats = joined(ingest.join());
        let (proposer_stats, proposer_aborts) = joined(proposer);
        let codec_stats = joined(codec);
        let mut outcomes: Vec<ValidatorOutcome> = outcomes.into_iter().map(joined).collect();

        let heads: Vec<(BlockHash, Height)> = outcomes
            .iter()
            .map(|o| o.head.expect("validator has a head"))
            .collect();
        let final_root = outcomes[0].head_root.expect("head has a root");
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
            let serial_root = serial_replay_root(&genesis_state, &chain);
            Equivalence {
                blocks: chain.len() as u64,
                serial_root,
                node_root: final_root,
                ok: serial_root == final_root,
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

/// What a stage thread returned, or its own panic raised again.
fn joined<T>(result: std::thread::Result<T>) -> T {
    result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Replays `chain` serially from `genesis` and returns the final state
/// root — the oracle the pipelined loop must agree with.
pub fn serial_replay_root(genesis: &WorldState, chain: &[Block]) -> H256 {
    let mut state = genesis.snapshot();
    for block in chain {
        let env = bp_evm::BlockEnv {
            coinbase: block.header.coinbase,
            number: block.header.height,
            timestamp: block.header.timestamp,
            gas_limit: block.header.gas_limit,
        };
        let outcome = bp_baseline::execute_block_serially(&state, &env, &block.transactions)
            .expect("committed chain replays serially");
        state = outcome.post_state;
    }
    state.state_root()
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
        let board = Arc::new(CommitBoard::new(1));
        let validator = Validator::new(PipelineConfig::default(), genesis);
        let mut stage = ValidatorStage::new(0, validator, Arc::clone(&board));

        // Garbage of every kind the decoder tells apart: nothing, noise,
        // a truncated block, a block with a byte too many.
        let mut long = chain[0].clone();
        long.push(0);
        let garbage: [&[u8]; 4] = [&[], b"not a block", &chain[0][..chain[0].len() / 2], &long];
        for (i, bytes) in garbage.into_iter().enumerate() {
            stage.on_wire(1, &wire(&[bytes]));
            assert_eq!(stage.failures, i as u64 + 1);
        }
        // The height is recorded, so progress moves on past it, and the
        // stage still validates what follows.
        assert_eq!(board.min(), 1);
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
        assert_eq!(board.min(), 3);
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
        let mut stage = ValidatorStage::new(0, validator, Arc::new(CommitBoard::new(1)));
        // The loser comes first on the wire: arrival order decides nothing.
        stage.on_wire(1, &wire(&[&loser, &chain[0]]));
        stage.on_wire(2, &wire(&[&chain[1]]));
        stage.drain();
        assert_eq!(stage.validator.canonical_at(1), Some(a));
        assert_eq!(stage.validator.head().map(|(_, h)| h), Some(2));
        assert_eq!((stage.stats.items, stage.uncles, stage.failures), (2, 1, 0));
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
