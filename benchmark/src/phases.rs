//! The three phases every workload runs through, each driving the product
//! through its public API only and timing the calls from outside.
//!
//! * `node`   — the real service, `bp_node::run_node`, pipelined, no injected
//!   delay: sustained committed tx/s.
//! * `path`   — one block at a time through the same layers, nothing
//!   overlapped: the unloaded critical path, untraced (pass A) or with a span
//!   per call and isolated probes between blocks (pass B).
//! * `replay` — a fresh validator fed pass A's encoded chain with several
//!   blocks in flight: a syncing validator (the paper's Fig. 9 pipeline).
//!   In memory for the end-to-end metric; traced runs replay a prefix a second
//!   time into a validator on an on-disk store, closed and reopened afterwards:
//!   the persistence cost, per-layer only because it follows the host's disk.

use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blockpilot_core::{
    OccWsiConfig, PipelineConfig, Proposer, Scheduler, ValidationHandle, Validator,
};
use bp_block::wire::{decode_block, encode_block_into};
use bp_node::{serial_replay_root, NodeConfig, NodeMode, NodeReport, RunningNode};
use bp_state::WorldState;
use bp_types::{BlockHash, Height, H256};
use bp_workload::WorkloadGen;

use crate::workloads::Workload;

// Thread shape, fixed for the 2-core host the bounds were measured on and
// recorded in every result. Every other product setting is the product's
// default, so the benchmark follows the default path as it changes.
pub const PROPOSER_THREADS: usize = 2;
pub const PIPELINE_WORKERS: usize = 2;
pub const VALIDATORS: usize = 1;

/// Blocks a replaying validator holds in flight before it waits for the
/// oldest verdict.
pub const REPLAY_WINDOW: usize = 4;
/// Replays per run, each on a fresh validator; the median is reported.
pub const REPLAY_REPS: usize = 3;
/// Leading blocks of `path` and `replay` left out of the statistics while the
/// analysis cache and trie memo fill (a quarter of the phase when it is
/// shorter than four times this).
pub const WARMUP_BLOCKS: usize = 32;

pub fn warmup_of(blocks: usize) -> usize {
    WARMUP_BLOCKS.min(blocks / 4)
}

pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        workers: PIPELINE_WORKERS,
        ..Default::default()
    }
}

/// The `node` phase's configuration (also printed in the result header).
pub fn node_config(wl: &Workload, seed: u64, blocks: u64) -> NodeConfig {
    NodeConfig {
        mode: NodeMode::Pipelined,
        blocks,
        proposer_threads: PROPOSER_THREADS,
        gas_limit: wl.node_gas_limit,
        pipeline: pipeline_config(),
        validators: VALIDATORS,
        // In-process wires, zero injected delay: processor and disk time only.
        latency_us: 0..0,
        workload: wl.config(seed),
        check_equivalence: true,
        ..Default::default()
    }
}

/// A directory for the on-disk store of a traced run, inside the benchmark's
/// own directory, removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root })
    }

    pub fn store(&self) -> PathBuf {
        self.root.join("store")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Touches `mb` MB of fresh memory and hands it straight back to the kernel,
/// so that the pages the first phase is about to fault in are ones the host
/// already backs. Under this hypervisor the first touch of a page the host
/// has not backed costs ~22 µs against ~2 µs for a recently freed one, and
/// which kind a process gets depends on what ran before it: unwarmed, the
/// first phase reads 8 k tx/s after a pause and 19 k back to back.
pub fn warm_memory(mb: usize) {
    const PAGE: usize = 4096;
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(PAGE) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// Blocks offered to a validator and blocks that did not end valid and
/// committed (or a whole-chain check that failed, counted as one).
#[derive(Clone, Copy, Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------------
// node
// ---------------------------------------------------------------------------

pub struct NodeRun {
    pub report: NodeReport,
    /// Committed transactions per second of each window of the run, the
    /// first window (warm-up) left out.
    pub window_tx_s: Vec<f64>,
    pub ops: Ops,
}

/// Throughput phases are cut into this many windows of equal block count and
/// report the median window: one stall (a neighbour on the host, a burst of
/// page faults) slows one window, not the result.
pub const WINDOWS: usize = 16;

/// How often the harness reads the node's committed height.
const POLL: Duration = Duration::from_millis(1);
/// A node that commits nothing for this long is stuck; stop watching it.
const STUCK: Duration = Duration::from_secs(60);

/// `bp_node::run_node`, with the committed height read from outside while it
/// runs so that throughput can be taken per window.
pub fn node_phase(wl: &Workload, seed: u64, blocks: u64) -> NodeRun {
    let node = RunningNode::spawn(node_config(wl, seed, blocks));
    let window = (blocks / WINDOWS as u64).max(1);
    let started = Instant::now();
    // (height, seconds since start) each time another window is committed.
    let mut marks: Vec<(Height, f64)> = Vec::with_capacity(WINDOWS + 1);
    let mut last_progress = (0, started);
    loop {
        let height = node.committed_height();
        let now = Instant::now();
        if height / window > marks.last().map_or(0, |&(h, _)| h / window) {
            marks.push((height, (now - started).as_secs_f64()));
        }
        if height > last_progress.0 {
            last_progress = (height, now);
        }
        if height >= blocks || now - last_progress.1 > STUCK {
            break;
        }
        std::thread::sleep(POLL);
    }
    let report = node.join();

    let txs_per_block = report.committed_txs as f64 / report.committed_blocks.max(1) as f64;
    let window_tx_s = marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 * txs_per_block / (w[1].1 - w[0].1))
        .collect();
    let mut failed = blocks.saturating_sub(report.committed_blocks) + report.validation_failures;
    if !report.healthy() {
        // Heads disagree or the serial replay of the committed chain ends on
        // another root: the whole chain is wrong even if every block passed.
        failed = failed.max(1);
    }
    NodeRun {
        ops: Ops {
            attempted: blocks,
            failed,
        },
        window_tx_s,
        report,
    }
}

// ---------------------------------------------------------------------------
// set-up
// ---------------------------------------------------------------------------

struct SetUp {
    gen: WorkloadGen,
    genesis: WorldState,
    validator: Validator,
    seconds: f64,
}

/// Everything before the first timed block of `path`: generator, genesis
/// world and its root, and an in-memory validator on it.
fn set_up(wl: &Workload, seed: u64) -> SetUp {
    let started = Instant::now();
    let gen = WorkloadGen::new(wl.config(seed));
    let genesis = gen.genesis_state();
    // Hash once here so the validators cloning it share the committed tries.
    genesis.state_root();
    let validator = Validator::new(pipeline_config(), genesis.clone());
    SetUp {
        gen,
        genesis,
        validator,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// Set-up is timed this many times per run when that is cheap, and the
/// median reported: a 40 ms set-up timed four times reads ±15 %.
const SETUP_SAMPLES: usize = 15;
/// Set-ups beyond the second must fit in this much time in total, so a set-up
/// of seconds (100 000 accounts) is timed twice and no more.
const EXTRA_SETUP_BUDGET_S: f64 = 1.0;

/// Set-up times beyond `first`, the one `path` took: always one more, then
/// as many as fit the budget.
pub fn extra_setups(wl: &Workload, seed: u64, first: f64) -> Vec<f64> {
    let mut samples = vec![set_up(wl, seed).seconds];
    let started = Instant::now();
    while 1 + samples.len() < SETUP_SAMPLES
        && started.elapsed().as_secs_f64() + first <= EXTRA_SETUP_BUDGET_S
    {
        samples.push(set_up(wl, seed).seconds);
    }
    samples
}

/// A fresh validator on `genesis`: in memory, or on the store at `store_dir`
/// (created there, or reopened if it exists).
fn open_validator(genesis: &WorldState, store_dir: Option<&Path>) -> Result<Validator, String> {
    match store_dir {
        None => Ok(Validator::new(pipeline_config(), genesis.clone())),
        Some(dir) => Validator::with_store_profile(
            pipeline_config(),
            genesis.clone(),
            dir,
            // The node's default group-commit setting, whatever it becomes.
            NodeConfig::default().group_commit,
        )
        .map_err(|e| format!("store at {}: {e}", dir.display())),
    }
}

// ---------------------------------------------------------------------------
// tracing
// ---------------------------------------------------------------------------

/// One timed call. `parent` is empty for top-level spans: `block`, and the
/// probes, which run between blocks.
pub struct Span {
    pub height: Height,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Spans and counts of one traced pass, kept in memory until the run ends.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Counts and times the product's calls returned, recorded at the same
    /// boundaries as the spans.
    pub values: Vec<(Height, &'static str, f64)>,
}

/// Spans and values recorded per block; sizes the vectors up front so that
/// recording never reallocates inside a timed block.
const SPANS_PER_BLOCK: usize = 11;
const VALUES_PER_BLOCK: usize = 16;

impl Trace {
    fn for_blocks(blocks: usize) -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(blocks * SPANS_PER_BLOCK),
            values: Vec::with_capacity(blocks * VALUES_PER_BLOCK),
        }
    }

    fn push(
        &mut self,
        height: Height,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            height,
            name,
            parent,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
        });
    }

    fn value(&mut self, height: Height, name: &'static str, value: f64) {
        self.values.push((height, name, value));
    }
}

/// Runs `f`, recording a span around it when tracing.
fn timed<R>(
    trace: Option<&mut Trace>,
    height: Height,
    name: &'static str,
    parent: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        None => f(),
        Some(trace) => {
            let start = Instant::now();
            let result = f();
            trace.push(height, name, parent, start, Instant::now());
            result
        }
    }
}

// ---------------------------------------------------------------------------
// path
// ---------------------------------------------------------------------------

pub struct PathRun {
    pub setup_s: f64,
    pub warmup: usize,
    /// Time of each block after warm-up, `add_batch` start to
    /// `commit_canonical` return.
    pub block_ms: Vec<f64>,
    /// Transactions in those blocks.
    pub txs: u64,
    /// The encoded chain, warm-up included, and the genesis world it starts
    /// from: the input of `replay`.
    pub wire: Vec<Vec<u8>>,
    pub genesis: WorldState,
    pub ops: Ops,
    pub trace: Option<Trace>,
}

pub fn path_phase(
    wl: &Workload,
    seed: u64,
    blocks: usize,
    traced: bool,
) -> Result<PathRun, String> {
    let SetUp {
        mut gen,
        genesis,
        validator,
        seconds: setup_s,
    } = set_up(wl, seed);
    let warmup = warmup_of(blocks);
    let scheduler = Scheduler::new(pipeline_config().granularity);

    let mut trace = traced.then(|| Trace::for_blocks(blocks));
    let mut block_ms = Vec::with_capacity(blocks);
    let mut txs_measured = 0u64;
    let mut wire = Vec::with_capacity(blocks);
    let mut ops = Ops::default();
    let mut parent_state = Arc::new(genesis.clone());
    let mut parent_hash = validator.genesis_hash();
    let mut buf = Vec::new();

    for height in 1..=blocks as Height {
        let mut txs = gen.next_block_txs();
        let offered = txs.len();
        let env = gen.block_env(height);

        let block_start = Instant::now();
        // A proposer per block, as the node service builds its engine per
        // height: the facade takes the block environment at construction.
        let proposer = Proposer::new(OccWsiConfig {
            threads: PROPOSER_THREADS,
            env,
            ..Default::default()
        });
        timed(trace.as_mut(), height, "txpool.add", "block", || {
            proposer.pool().add_batch(&mut txs)
        });
        let proposal = timed(trace.as_mut(), height, "proposer.propose", "block", || {
            proposer.propose_block(Arc::clone(&parent_state), parent_hash, height)
        });
        buf = timed(trace.as_mut(), height, "codec.encode", "block", || {
            encode_block_into(&proposal.block, std::mem::take(&mut buf))
        });
        let block = timed(trace.as_mut(), height, "codec.decode", "block", || {
            decode_block(&buf)
        })
        .map_err(|e| format!("height {height}: own encoding does not decode: {e:?}"))?;
        let (hash, outcome) = timed(
            trace.as_mut(),
            height,
            "validator.validate",
            "block",
            || {
                let hash = block.hash();
                (hash, validator.receive_block(block).wait())
            },
        );
        let committed = timed(trace.as_mut(), height, "validator.commit", "block", || {
            outcome.is_valid() && validator.commit_canonical(hash)
        });
        let block_end = Instant::now();

        ops.attempted += 1;
        ops.failed += u64::from(!committed);
        let block_txs = proposal.block.tx_count();
        if height as usize > warmup {
            block_ms.push((block_end - block_start).as_secs_f64() * 1e3);
            txs_measured += block_txs as u64;
        }
        wire.push(buf.clone());

        if let Some(trace) = &mut trace {
            trace.push(height, "block", "", block_start, block_end);
            let stats = &proposal.stats;
            let timings = &outcome.timings;
            for (name, value) in [
                ("txpool.rejected", (offered - block_txs.min(offered)) as f64),
                ("proposer.pack_us", stats.wall_micros as f64),
                ("proposer.aborts", stats.aborts as f64),
                ("proposer.executions", stats.executions as f64),
                ("proposer.committed", stats.committed as f64),
                ("codec.bytes", buf.len() as f64),
                ("block.txs", block_txs as f64),
                ("validator.prepare_us", timings.prepare.as_secs_f64() * 1e6),
                (
                    "validator.queue_wait_us",
                    timings.queue_wait.as_secs_f64() * 1e6,
                ),
                ("validator.execute_us", timings.execute.as_secs_f64() * 1e6),
                ("validator.apply_us", timings.validate.as_secs_f64() * 1e6),
                (
                    "validator.early_aborts",
                    f64::from(u8::from(outcome.aborted_early)),
                ),
            ] {
                trace.value(height, name, value);
            }

            // Isolated probes, between blocks: each layer's work on this
            // block alone, serially, with nothing else running. The serial
            // executor starts by snapshotting the pre-state, so the snapshot
            // is timed on its own and taken off the EVM's time in the report.
            drop(timed(Some(trace), height, "state.snapshot", "", || {
                parent_state.snapshot()
            }));
            let serial = timed(Some(trace), height, "evm.exec", "", || {
                bp_baseline::execute_block_serially(
                    &parent_state,
                    &env,
                    &proposal.block.transactions,
                )
            })
            .map_err(|(i, e)| format!("height {height}: tx {i} fails serially: {e:?}"))?;
            timed(Some(trace), height, "state.root", "", || {
                serial.post_state.state_root()
            });
            let schedule = timed(Some(trace), height, "scheduler.schedule", "", || {
                scheduler.schedule(&proposal.block.profile, PIPELINE_WORKERS)
            });
            let dirty: HashSet<_> = proposal
                .block
                .profile
                .entries
                .iter()
                .flat_map(|e| e.writes.keys().map(|k| k.address()))
                .collect();
            for (name, value) in [
                ("evm.gas", serial.gas_used as f64),
                ("state.dirty_accounts", dirty.len() as f64),
                ("scheduler.subgraphs", schedule.subgraphs.len() as f64),
                (
                    "scheduler.largest_subgraph_ratio",
                    schedule.largest_subgraph_ratio(),
                ),
            ] {
                trace.value(height, name, value);
            }
        }

        parent_hash = hash;
        parent_state = Arc::new(proposal.post_state);
    }

    // Whole-chain gate: the head must be the last block, on the root a
    // serial replay of the committed chain gives.
    let chain: Vec<_> = (1..=blocks as Height)
        .filter_map(|h| validator.canonical_block(h))
        .collect();
    let chain_ok = validator.head() == Some((parent_hash, blocks as Height))
        && chain.len() == blocks
        && validator.head_state_root() == Some(serial_replay_root(&genesis, &chain));
    ops.failed += u64::from(!chain_ok);

    Ok(PathRun {
        setup_s,
        warmup,
        block_ms,
        txs: txs_measured,
        wire,
        genesis,
        ops,
        trace,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

pub struct ReplayRun {
    /// Committed transactions per second of each window after warm-up.
    pub window_tx_s: Vec<f64>,
    /// Time of each `commit_canonical` call after warm-up, in µs.
    pub commit_us: Vec<f64>,
    pub blocks: usize,
    pub ops: Ops,
    /// The on-disk store after the replay, when it ran on one.
    pub store: Option<StoreAfter>,
}

/// A store closed after a replay and reopened the way a restarted node would.
pub struct StoreAfter {
    /// Creating the store for the genesis world and a validator on it.
    pub create_s: f64,
    /// What the replay added to the store directory, after the final flush.
    pub bytes: u64,
    pub reopen_s: f64,
    /// The reopened validator is on the committed head and root.
    pub head_ok: bool,
}

/// Feeds `wire` (a chain `path_phase` built on `genesis`, or a prefix of it)
/// to a fresh validator as fast as it accepts it: decode, submit, at most
/// [`REPLAY_WINDOW`] blocks in flight, commits in height order. With
/// `store_dir` the validator is on a new on-disk store there (product-default
/// group commit), which is then closed and reopened.
pub fn replay_phase(
    genesis: &WorldState,
    wire: &[Vec<u8>],
    store_dir: Option<&Path>,
) -> Result<ReplayRun, String> {
    let started = Instant::now();
    let validator = open_validator(genesis, store_dir)?;
    let create_s = started.elapsed().as_secs_f64();
    let created_bytes = store_dir.map_or(0, dir_bytes);
    let warmup = warmup_of(wire.len());
    let mut ops = Ops::default();
    // Transactions of each block in flight; when each block committed and
    // how long the commit call took.
    let mut inflight: VecDeque<(BlockHash, usize, ValidationHandle)> = VecDeque::new();
    let mut commits: Vec<(usize, Instant, Duration)> = Vec::with_capacity(wire.len());
    let mut drain_one = |inflight: &mut VecDeque<(BlockHash, usize, ValidationHandle)>| {
        if let Some((hash, txs, handle)) = inflight.pop_front() {
            let valid = handle.wait().is_valid();
            let started = Instant::now();
            let committed = valid && validator.commit_canonical(hash);
            let now = Instant::now();
            commits.push((txs, now, now - started));
            ops.attempted += 1;
            ops.failed += u64::from(!committed);
        }
    };

    // The chain was checked against a serial replay when it was built, so
    // its last header names the root this validator must end on.
    let mut expect_root = H256::ZERO;
    for bytes in wire {
        let block = decode_block(bytes).map_err(|e| format!("replayed block: {e:?}"))?;
        let hash = block.hash();
        let txs = block.tx_count();
        expect_root = block.header.state_root;
        inflight.push_back((hash, txs, validator.receive_block(block)));
        while inflight.len() >= REPLAY_WINDOW {
            drain_one(&mut inflight);
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight);
    }
    let head = validator.head();
    let head_ok = head.map(|(_, h)| h) == Some(wire.len() as Height)
        && validator.head_state_root() == Some(expect_root);
    ops.failed += u64::from(!head_ok);
    // Close the store (flushing any open commit batch), then reopen it: it
    // must land on the committed head.
    drop(validator.into_store());
    let store = match store_dir {
        None => None,
        Some(dir) => {
            let bytes = dir_bytes(dir).saturating_sub(created_bytes);
            let started = Instant::now();
            let reopened = open_validator(genesis, Some(dir))?;
            let reopen_s = started.elapsed().as_secs_f64();
            let head_ok =
                reopened.head() == head && reopened.head_state_root() == Some(expect_root);
            ops.failed += u64::from(!head_ok);
            Some(StoreAfter {
                create_s,
                bytes,
                reopen_s,
                head_ok,
            })
        }
    };

    let measured = &commits[warmup.min(commits.len())..];
    let window = (measured.len() / WINDOWS).max(1);
    let window_tx_s = measured
        .chunks(window)
        .collect::<Vec<_>>()
        .windows(2)
        .map(|pair| {
            // From the last commit of one chunk to the last of the next.
            let (from, to) = (
                pair[0].last().expect("chunk"),
                pair[1].last().expect("chunk"),
            );
            let txs: usize = pair[1].iter().map(|&(txs, ..)| txs).sum();
            txs as f64 / (to.1 - from.1).as_secs_f64()
        })
        .collect();
    let commit_us = measured
        .iter()
        .map(|&(.., took)| took.as_secs_f64() * 1e6)
        .collect();

    Ok(ReplayRun {
        window_tx_s,
        commit_us,
        blocks: wire.len(),
        ops,
        store,
    })
}
