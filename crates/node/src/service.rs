//! The streaming node loop: txpool → proposer → wire codec → validator
//! pipeline(s) → store, over bounded channels with backpressure.
//!
//! Stage layout (one OS thread each):
//!
//! ```text
//!  ingest ──add_batch──▶ TxPool (capacity-bounded)
//!                          │ turn (engine workers)
//!                        proposer ──Block──▶ codec ──Arc<[u8]>──▶ validator 0 (+ store)
//!                          ▲        bounded         bounded  └──▶ validator k
//!                          │ lock-step only: wait for commits
//!                        CommitBoard ◀── commit_canonical ──┘
//! ```
//!
//! * Every inter-stage channel is **bounded** at [`CHANNEL_DEPTH`]: a slow
//!   stage fills its input queue and the sender blocks — that blocked time
//!   is accounted as *stall* in the sender's [`StageStats`], so the report
//!   names the bottleneck.
//! * In [`NodeMode::Pipelined`] the proposer chains height `N+1` on its own
//!   proposal post-state immediately; validation, persistence and the wire
//!   all run behind it. In [`NodeMode::LockStep`] it additionally waits for
//!   every validator to commit height `N` first.
//! * The codec stage encodes each block **once** and hands the bytes to all
//!   `K` validator wires as a shared `Arc<[u8]>` — refcount bumps, not
//!   copies — keeping serialization off the proposer's critical path.
//! * Nobody polls the pool. The ingest stage parks on it until there is room
//!   for a chunk of what it holds, the proposer until it holds a block's
//!   minimum; the pool wakes each from the turn or the batch that makes its
//!   condition true. Both waits time out every millisecond, only so that a
//!   stop request is seen.
//! * Shutdown is by channel disconnect: the proposer finishing (or
//!   [`RunningNode::stop`]) drops the head of the chain of senders and each
//!   stage drains what it already received, so every proposed block is
//!   validated, committed and (for validator 0 with a store) persisted —
//!   no lost or duplicated blocks mid-stream.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blockpilot_core::{OccWsiConfig, OccWsiProposer, ValidationHandle, Validator};
use bp_block::wire::{decode_block, encode_block_into};
use bp_block::{genesis_header, Block, BlockProfile};
use bp_concurrent::channel::bounded;
use bp_concurrent::sync::{Condvar, Mutex};
use bp_net::LinkDelays;
use bp_state::WorldState;
use bp_txpool::TxPool;
use bp_types::{BlockHash, Height, H256};
use bp_workload::WorkloadGen;

use crate::config::{NodeConfig, NodeMode};
use crate::stats::{micros_since, StageStats};

/// Capacity of each bounded inter-stage channel (proposer → codec and codec →
/// each validator), and the number of blocks a validator stage keeps in
/// flight in its pipeline. Two is one block being worked on and one ready
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

/// Highest height each validator has committed, for lock-step pacing and
/// progress tracking.
struct CommitBoard {
    heights: Mutex<Vec<Height>>,
    advanced: Condvar,
}

impl CommitBoard {
    fn new(validators: usize) -> Self {
        CommitBoard {
            heights: Mutex::new(vec![0; validators]),
            advanced: Condvar::new(),
        }
    }

    fn record(&self, validator: usize, height: Height) {
        let mut heights = self.heights.lock();
        heights[validator] = heights[validator].max(height);
        drop(heights);
        self.advanced.notify_all();
    }

    /// Blocks until every validator has committed at least `height`.
    fn wait_all_at(&self, height: Height) {
        let mut heights = self.heights.lock();
        while heights.iter().any(|&h| h < height) {
            self.advanced.wait(&mut heights);
        }
    }

    fn min(&self) -> Height {
        *self.heights.lock().iter().min().expect("non-empty")
    }
}

/// Per-validator outcome returned by its stage thread.
struct ValidatorOutcome {
    stats: StageStats,
    head: Option<(BlockHash, Height)>,
    head_root: Option<H256>,
    /// Canonical chain (heights 1..=head) — collected by validator 0 only,
    /// for the equivalence gate and tx accounting.
    chain: Vec<Block>,
    validation_failures: u64,
}

/// One validator's end of the wire: decodes each message, submits the block
/// and drains verdicts in arrival order. The pipeline releases height N+1
/// into execution while N's root still hashes, so the stage submits a block
/// that is already on the wire ahead of the previous verdict — up to
/// [`CHANNEL_DEPTH`] blocks await theirs at once. Commits still land
/// strictly in height order (FIFO drain).
struct ValidatorStage {
    k: usize,
    validator: Validator,
    board: Arc<CommitBoard>,
    inflight: VecDeque<(Height, BlockHash, ValidationHandle)>,
    stats: StageStats,
    failures: u64,
}

impl ValidatorStage {
    fn new(k: usize, validator: Validator, board: Arc<CommitBoard>) -> Self {
        ValidatorStage {
            k,
            validator,
            board,
            inflight: VecDeque::new(),
            stats: StageStats::default(),
            failures: 0,
        }
    }

    /// Handles one wire message for `height`. Bytes that do not decode are a
    /// peer's fault, not this node's: the height is counted as a validation
    /// failure and recorded like any other failed block — after the blocks
    /// ahead of it, so heights still land in order — and the stage carries
    /// on with the next message.
    fn on_wire(&mut self, height: Height, bytes: &[u8]) {
        let t = Instant::now();
        let submitted = decode_block(bytes).map(|block| {
            debug_assert!(
                encode_block_into(&block, Vec::new()) == bytes,
                "the decoder accepted a non-canonical spelling of a block"
            );
            let hash = block.hash();
            (hash, self.validator.receive_block(block))
        });
        self.stats.busy_micros += micros_since(t);
        match submitted {
            Ok((hash, handle)) => {
                self.inflight.push_back((height, hash, handle));
                while self.inflight.len() >= CHANNEL_DEPTH {
                    self.drain_one();
                }
            }
            Err(_) => {
                self.drain();
                self.failures += 1;
                self.board.record(self.k, height);
            }
        }
    }

    /// Waits for the oldest in-flight verdict and commits the block if valid.
    fn drain_one(&mut self) {
        let Some((height, hash, handle)) = self.inflight.pop_front() else {
            return;
        };
        let t = Instant::now();
        let outcome = handle.wait();
        if outcome.is_valid() && self.validator.commit_canonical(hash) {
            self.stats.items += 1;
        } else {
            self.failures += 1;
        }
        self.stats.busy_micros += micros_since(t);
        // Record even failed heights so lock-step pacing cannot deadlock on
        // a broken block.
        self.board.record(self.k, height);
    }

    /// Drains every in-flight verdict, oldest first.
    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.drain_one();
        }
    }
}

/// Result of the serial-replay equivalence gate.
#[derive(Clone, Debug)]
pub struct Equivalence {
    /// Blocks replayed.
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
    /// Pacing mode the run used.
    pub mode: NodeMode,
    /// Heights committed by every validator.
    pub committed_blocks: u64,
    /// Transactions in the committed canonical chain.
    pub committed_txs: u64,
    /// Wall time of the whole loop, first propose to last commit.
    pub wall_micros: u64,
    /// Sustained throughput: committed transactions per wall-clock second.
    pub committed_tx_per_sec: f64,
    /// Ingest-stage counters (items = transactions admitted).
    pub ingest: StageStats,
    /// Proposer-stage counters (items = blocks proposed; stall = send
    /// backpressure + lock-step waiting).
    pub proposer: StageStats,
    /// Codec-stage counters (items = blocks encoded).
    pub codec: StageStats,
    /// Per-validator counters (items = blocks committed).
    pub validators: Vec<StageStats>,
    /// Proposer engine aborts summed over all heights.
    pub proposer_aborts: u64,
    /// Blocks that failed validation (always 0 in a healthy run).
    pub validation_failures: u64,
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

/// A node service in flight. Obtain with [`RunningNode::spawn`], end with
/// [`RunningNode::join`] (runs to the configured height) or
/// [`RunningNode::stop`] + `join` (clean mid-stream shutdown).
pub struct RunningNode {
    stop: Arc<AtomicBool>,
    board: Arc<CommitBoard>,
    config: NodeConfig,
    genesis_state: WorldState,
    started: Instant,
    ingest: JoinHandle<StageStats>,
    proposer: JoinHandle<(StageStats, u64)>,
    codec: JoinHandle<StageStats>,
    validators: Vec<JoinHandle<ValidatorOutcome>>,
}

impl RunningNode {
    /// Spawns every stage thread and starts the loop.
    pub fn spawn(config: NodeConfig) -> Self {
        assert!(config.validators > 0, "need at least one validator");
        assert!(config.blocks > 0, "need at least one height");

        let stop = Arc::new(AtomicBool::new(false));
        let board = Arc::new(CommitBoard::new(config.validators));
        let pool = Arc::new(TxPool::with_capacity_limit(config.pool_capacity));

        let workload = WorkloadGen::new(config.workload.clone());
        let genesis_state = workload.genesis_state();
        let genesis_hash = Block {
            header: genesis_header(genesis_state.state_root()),
            transactions: vec![],
            profile: BlockProfile::new(),
        }
        .hash();

        // Stage channels: proposer → codec, codec → each validator.
        let (codec_tx, codec_rx) = bounded::<Block>(CHANNEL_DEPTH);
        let mut wire_txs = Vec::with_capacity(config.validators);
        let mut wire_rxs = Vec::with_capacity(config.validators);
        for _ in 0..config.validators {
            let (tx, rx) = bounded::<(Height, Arc<[u8]>)>(CHANNEL_DEPTH);
            wire_txs.push(tx);
            wire_rxs.push(rx);
        }

        let started = Instant::now();

        // --- Ingest stage -------------------------------------------------
        let ingest = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let mut gen = WorkloadGen::new(config.workload.clone());
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
            let board = Arc::clone(&board);
            let config = config.clone();
            let envs = WorkloadGen::new(config.workload.clone());
            let parent_state = Arc::new(genesis_state.clone());
            std::thread::spawn(move || {
                let mut stats = StageStats::default();
                let mut aborts = 0u64;
                let mut parent_hash = genesis_hash;
                let mut parent_state = parent_state;
                for height in 1..=config.blocks {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Wait for ingest to fill the pool far enough.
                    let t = Instant::now();
                    let mut filled = false;
                    while !filled && !stop.load(Ordering::Acquire) {
                        filled = pool.wait_for_len(config.min_pool_txs, STOP_CHECK);
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

                    // Chain on our own proposal: the next height packs
                    // against this post-state while everything downstream
                    // is still digesting this block.
                    parent_hash = proposal.block.hash();
                    parent_state = Arc::new(proposal.post_state);

                    let t = Instant::now();
                    if codec_tx.send(proposal.block).is_err() {
                        break; // downstream gone (stop + drain)
                    }
                    stats.stall_micros += micros_since(t);
                    stats.sample_depth(codec_tx.len());

                    if config.mode == NodeMode::LockStep {
                        let t = Instant::now();
                        board.wait_all_at(height);
                        stats.stall_micros += micros_since(t);
                    }
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
                    let Ok(block) = codec_rx.recv() else {
                        break; // proposer done: drain complete
                    };
                    stats.wait_micros += micros_since(t);

                    let t = Instant::now();
                    let height = block.height();
                    scratch = encode_block_into(&block, scratch);
                    // One encode, K receivers: the bytes go out as a shared
                    // Arc<[u8]> — cloning is a refcount bump, not a copy.
                    let bytes: Arc<[u8]> = Arc::from(&scratch[..]);
                    stats.busy_micros += micros_since(t);
                    stats.items += 1;

                    let t = Instant::now();
                    for wire in &wire_txs {
                        if wire.send((height, Arc::clone(&bytes))).is_err() {
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
        let validators = wire_rxs
            .into_iter()
            .enumerate()
            .map(|(k, wire_rx)| {
                let board = Arc::clone(&board);
                let config = config.clone();
                let genesis_state = genesis_state.clone();
                std::thread::spawn(move || {
                    let validator = match (&config.store_dir, k) {
                        (Some(dir), 0) => Validator::with_store_profile(
                            config.pipeline,
                            genesis_state,
                            dir,
                            config.group_commit,
                        )
                        .expect("node store opens"),
                        _ => Validator::new(config.pipeline, genesis_state),
                    };
                    // Per-link latency: every validator thread builds the
                    // same seeded sampler and draws only its own link, so
                    // sequences match a single shared sampler.
                    let mut delays =
                        LinkDelays::new(config.validators, config.latency_us, config.seed);
                    let mut stage = ValidatorStage::new(k, validator, board);
                    loop {
                        // Submit ahead only of what is already on the wire:
                        // a verdict does not wait for the next arrival, which
                        // in lock-step waits for this commit.
                        if wire_rx.is_empty() {
                            stage.drain();
                        }
                        let t = Instant::now();
                        let Ok((height, bytes)) = wire_rx.recv() else {
                            break; // wire disconnected: drain complete
                        };
                        stage.stats.wait_micros += micros_since(t);

                        let delay = delays.next_delay(k);
                        if delay > 0 {
                            std::thread::sleep(Duration::from_micros(delay));
                            stage.stats.injected_micros += delay;
                        }
                        stage.on_wire(height, &bytes);
                    }
                    stage.drain();
                    let ValidatorStage {
                        validator,
                        stats,
                        failures,
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
                    }
                })
            })
            .collect();

        RunningNode {
            stop,
            board,
            config,
            genesis_state,
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
    /// and assembles the report.
    pub fn join(self) -> NodeReport {
        let RunningNode {
            stop,
            board: _,
            config,
            genesis_state,
            started,
            ingest,
            proposer,
            codec,
            validators,
        } = self;

        let (proposer_stats, proposer_aborts) = proposer.join().expect("proposer thread");
        let codec_stats = codec.join().expect("codec thread");
        let mut outcomes: Vec<ValidatorOutcome> = validators
            .into_iter()
            .map(|v| v.join().expect("validator thread"))
            .collect();
        let wall_micros = micros_since(started);
        // Validators are drained: nothing consumes the pool anymore.
        stop.store(true, Ordering::Release);
        let ingest_stats = ingest.join().expect("ingest thread");

        let heads: Vec<(BlockHash, Height)> = outcomes
            .iter()
            .map(|o| o.head.expect("validator has a head"))
            .collect();
        let final_root = outcomes[0].head_root.expect("head has a root");
        let committed_blocks = heads.iter().map(|&(_, h)| h).min().unwrap_or(0);
        let chain = std::mem::take(&mut outcomes[0].chain);
        let committed_txs: u64 = chain.iter().map(|b| b.tx_count() as u64).sum();
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
            mode: config.mode,
            committed_blocks,
            committed_txs,
            wall_micros,
            committed_tx_per_sec,
            ingest: ingest_stats,
            proposer: proposer_stats,
            codec: codec_stats,
            validators: outcomes.into_iter().map(|o| o.stats).collect(),
            proposer_aborts,
            validation_failures,
            final_root,
            heads,
            equivalence,
        }
    }
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

    /// Three chained blocks of a small workload, as wire bytes, and the
    /// genesis state they build on.
    fn chain_bytes() -> (WorldState, Vec<Vec<u8>>) {
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
        for height in 1..=3 {
            for tx in gen.next_block_txs() {
                pool.add(tx);
            }
            let proposal = OccWsiProposer::new(OccWsiConfig {
                threads: 2,
                env: gen.block_env(height),
                ..OccWsiConfig::default()
            })
            .propose(&pool, parent_state, parent_hash, height);
            parent_hash = proposal.block.hash();
            parent_state = Arc::new(proposal.post_state);
            chain.push(encode_block(&proposal.block));
        }
        (genesis, chain)
    }

    #[test]
    fn undecodable_wire_bytes_are_a_counted_failure_not_a_panic() {
        let (genesis, chain) = chain_bytes();
        let board = Arc::new(CommitBoard::new(1));
        let validator = Validator::new(PipelineConfig::default(), genesis);
        let mut stage = ValidatorStage::new(0, validator, Arc::clone(&board));

        // Garbage of every kind the decoder tells apart: nothing, noise,
        // a truncated block, a block with a byte too many.
        let mut long = chain[0].clone();
        long.push(0);
        let garbage: [&[u8]; 4] = [&[], b"not a block", &chain[0][..chain[0].len() / 2], &long];
        for (i, bytes) in garbage.into_iter().enumerate() {
            stage.on_wire(1, bytes);
            assert_eq!(stage.failures, i as u64 + 1);
        }
        // The height is recorded, so lock-step pacing moves on...
        assert_eq!(board.min(), 1);
        board.wait_all_at(1);
        // ...and the stage still validates what follows.
        stage.on_wire(1, &chain[0]);
        stage.on_wire(2, &chain[1]);
        // A block that decodes but was tampered with fails validation
        // and is counted the same way, after the blocks ahead of it.
        let mut tampered = decode_block(&chain[2]).expect("an honest block");
        tampered.header.state_root = H256::from_low_u64(7);
        stage.on_wire(3, &encode_block(&tampered));
        stage.on_wire(3, b"\xc0");
        stage.drain();
        assert_eq!(stage.stats.items, 2);
        assert_eq!(stage.failures, 6);
        assert_eq!(board.min(), 3);
        assert_eq!(stage.validator.head().map(|(_, h)| h), Some(2));
    }
}
