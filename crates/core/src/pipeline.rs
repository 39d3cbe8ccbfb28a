//! The validator pipeline (§4.3): preparation → transaction execution →
//! block validation → block commitment.
//!
//! * **Preparation** — cheap header commitments (`tx_root`, profile length)
//!   are checked first so malformed blocks are rejected before a single
//!   transaction executes; the scheduler then splits the block into
//!   dependency subgraphs from its profile.
//! * **Transaction execution** — a shared *worker pool* executes jobs from
//!   *any* in-flight block: two blocks at the same height overlap fully,
//!   exactly as in the paper's Figure 5. Under the default
//!   [`DispatchPolicy::Subgraph`] every dependency subgraph is its own pool
//!   job (enqueued heaviest-first), so the pool load-balances dynamically
//!   across subgraphs and blocks; [`DispatchPolicy::StaticLanes`] keeps the
//!   old gas-LPT pre-packing as the A/B baseline. Each result is published
//!   into a lock-free single-writer slot ([`ResultSlots`]) — no mutex on the
//!   per-transaction result path. Footprint verification (Algorithm 2) is
//!   *overlapped*: each worker checks its transaction against the block
//!   profile right after executing it, and the first mismatch trips a
//!   per-block cancellation flag so the block's remaining jobs stop early.
//! * **Block validation** — an *applier pool* drains the result slots in
//!   block order, applies writes, credits aggregated fees, and compares the
//!   resulting MPT root with the proposed header. Independent blocks (same
//!   height, or different forks) validate on different applier threads
//!   concurrently.
//! * **Block commitment** — a validated block's post-state is indexed by its
//!   hash; blocks at the next height that were parked waiting for this
//!   parent are released, which is precisely the paper's rule that a block
//!   may not enter validation before its predecessor has cleared it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bp_block::{receipts_root, tx_root, Block};
use bp_concurrent::{ResultSlots, RootLatch};
use bp_evm::{
    execute_transaction_in, AnalysisCache, BlockEnv, CacheStats, Receipt, StateView, Transaction,
    TxError,
};
use bp_state::{StateDelta, WorldState};
use bp_types::{AccessKey, Address, BlockHash, FxHashMap, Gas, U256};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::scheduler::{ConflictGranularity, Scheduler};

/// How prepared blocks are handed to the worker pool (kept switchable for
/// A/B benchmarking; see `validator_baseline` in `bp-bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Every dependency subgraph is its own pool job, enqueued
    /// heaviest-first: the pool load-balances dynamically across subgraphs
    /// and in-flight blocks.
    #[default]
    Subgraph,
    /// Subgraphs are pre-packed into `workers` gas-LPT lanes at preparation
    /// and each lane is one job. Kept as the baseline: a straggler lane
    /// cannot be rebalanced once packed.
    StaticLanes,
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Worker-pool size (the paper evaluates 2–16).
    pub workers: usize,
    /// Conflict granularity for the preparation phase.
    pub granularity: ConflictGranularity,
    /// Execution-job granularity (subgraph-dynamic vs static lanes).
    pub dispatch: DispatchPolicy,
    /// Applier-pool size: how many blocks can be in block validation
    /// simultaneously.
    pub appliers: usize,
    /// Deferred-root apply: split block validation into "publish writes +
    /// schedule root". The applier indexes the post-state and releases the
    /// next height into execution *before* hashing the state root; the root
    /// check settles a per-height [`RootLatch`] that the verdict (and thus
    /// commit publication and every descendant's verdict) still waits on.
    /// Correctness gates are unchanged — only the wait moves off the
    /// execution path.
    pub deferred_root: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 4,
            granularity: ConflictGranularity::Account,
            dispatch: DispatchPolicy::Subgraph,
            appliers: 2,
            deferred_root: false,
        }
    }
}

/// Why a block was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// A transaction's replayed footprint diverged from the block profile.
    ProfileMismatch {
        /// Index of the offending transaction.
        index: usize,
    },
    /// A transaction was outright invalid on replay (nonce/funds).
    TxRejected {
        /// Index of the offending transaction.
        index: usize,
    },
    /// Replayed cumulative gas differs from the header.
    GasMismatch {
        /// Header value.
        expected: Gas,
        /// Replayed value.
        got: Gas,
    },
    /// The transaction-list commitment does not match the header.
    TxRootMismatch,
    /// The receipt commitment does not match the header.
    ReceiptsRootMismatch,
    /// The final MPT root does not match the header.
    StateRootMismatch,
    /// The parent block failed validation, so this block can never validate.
    ParentInvalid,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::ProfileMismatch { index } => {
                write!(f, "tx {index}: footprint does not match block profile")
            }
            ValidationError::TxRejected { index } => write!(f, "tx {index}: invalid on replay"),
            ValidationError::GasMismatch { expected, got } => {
                write!(f, "gas used {got} != header {expected}")
            }
            ValidationError::TxRootMismatch => write!(f, "tx root mismatch"),
            ValidationError::ReceiptsRootMismatch => write!(f, "receipts root mismatch"),
            ValidationError::StateRootMismatch => write!(f, "state root mismatch"),
            ValidationError::ParentInvalid => write!(f, "parent block invalid"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Wall-clock spent in each pipeline stage for one block.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Preparation (header checks + scheduling).
    pub prepare: Duration,
    /// Channel queueing: job enqueue → first job start.
    pub queue_wait: Duration,
    /// Transaction execution (first job start → last job end).
    pub execute: Duration,
    /// Block validation (applier).
    pub validate: Duration,
}

/// The pipeline's verdict on one block.
#[derive(Clone, Debug)]
pub struct ValidationOutcome {
    /// The validated block.
    pub block_hash: BlockHash,
    /// Its height.
    pub height: u64,
    /// `Ok` iff the block is valid.
    pub result: Result<(), ValidationError>,
    /// Post-state for valid blocks.
    pub post_state: Option<Arc<WorldState>>,
    /// Receipts replayed by this validator (valid blocks only).
    pub receipts: Vec<Receipt>,
    /// Per-stage timings.
    pub timings: StageTimings,
    /// How many transactions actually executed (header-check rejections
    /// execute zero; early-aborted blocks execute fewer than the block
    /// carries).
    pub executed_txs: usize,
    /// True iff the per-block cancellation flag tripped and remaining
    /// execution jobs were cut short.
    pub aborted_early: bool,
    /// Code-analysis cache hits observed over this block's validation
    /// window. The cache is shared pipeline-wide, so when blocks overlap in
    /// flight the attribution is approximate — the sum over all outcomes is
    /// exact.
    pub analysis_hits: u64,
    /// Code-analysis cache misses (fresh analyses) over the same window.
    pub analysis_misses: u64,
}

impl ValidationOutcome {
    /// True iff the block validated.
    pub fn is_valid(&self) -> bool {
        self.result.is_ok()
    }
}

/// A handle to one submitted block's eventual outcome.
pub struct ValidationHandle {
    rx: Receiver<ValidationOutcome>,
}

impl ValidationHandle {
    /// Blocks until the pipeline has a verdict.
    pub fn wait(self) -> ValidationOutcome {
        self.rx.recv().expect("pipeline dropped without verdict")
    }
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct TxOutcome {
    rw: bp_types::RwSet,
    receipt: Receipt,
    deployed: Vec<(Address, Arc<Vec<u8>>)>,
}

/// Abort-record encoding: `(index << 1) | kind`, taken with `fetch_min` so
/// concurrent detections resolve to the lowest offending index (kind breaks
/// ties at equal index in favour of `TxRejected`, matching the serial
/// applier's old check order).
const ABORT_NONE: u64 = u64::MAX;
const ABORT_KIND_REJECTED: u64 = 0;
const ABORT_KIND_PROFILE: u64 = 1;

struct BlockTask {
    block: Arc<Block>,
    base: Arc<WorldState>,
    env: BlockEnv,
    /// Set when a preparation-phase header check failed: the block skipped
    /// execution entirely and the applier reports this error.
    header_error: Option<ValidationError>,
    results: ResultSlots<TxOutcome>,
    remaining_jobs: AtomicUsize,
    /// Trips on the first footprint mismatch / replay rejection; remaining
    /// jobs of this block stop instead of executing to completion.
    cancelled: AtomicBool,
    abort: AtomicU64,
    executed: AtomicUsize,
    verdict: Sender<ValidationOutcome>,
    prepare: Duration,
    submitted: Instant,
    exec_start: OnceLock<Instant>,
    /// The pipeline-wide analysis cache plus its counter snapshot at
    /// preparation time (for the outcome's hit/miss delta).
    cache: Arc<AnalysisCache>,
    cache_base: CacheStats,
}

impl BlockTask {
    fn record_abort(&self, index: usize, kind: u64) {
        self.abort
            .fetch_min(((index as u64) << 1) | kind, Ordering::AcqRel);
        self.cancelled.store(true, Ordering::Release);
    }

    fn abort_error(&self) -> Option<ValidationError> {
        match self.abort.load(Ordering::Acquire) {
            ABORT_NONE => None,
            rec => {
                let index = (rec >> 1) as usize;
                Some(if rec & 1 == ABORT_KIND_PROFILE {
                    ValidationError::ProfileMismatch { index }
                } else {
                    ValidationError::TxRejected { index }
                })
            }
        }
    }
}

struct ExecJob {
    task: Arc<BlockTask>,
    /// Transaction indices, ascending (block order): one subgraph under
    /// [`DispatchPolicy::Subgraph`], one packed lane under
    /// [`DispatchPolicy::StaticLanes`].
    txs: Vec<usize>,
}

enum ApplierMsg {
    BlockDone(Arc<BlockTask>, Duration),
    Shutdown,
}

/// A block parked until its parent validates, and where its verdict goes.
type Parked = (Arc<Block>, Sender<ValidationOutcome>);

struct StateIndex {
    states: HashMap<BlockHash, Arc<WorldState>>,
    /// The keys each validated block wrote, in block order (repeats
    /// included). With the block's post-state they give its net effect on
    /// its parent state ([`ValidatorPipeline::delta_of`]); kept and dropped
    /// with that state.
    written: HashMap<BlockHash, Arc<[AccessKey]>>,
    waiting: HashMap<BlockHash, Vec<Parked>>,
    invalid: std::collections::HashSet<BlockHash>,
    /// Deferred-root mode: each applied block's root verdict (`true` = root
    /// matched the header and every ancestor settled valid). A child's apply
    /// stage chains on its parent's latch; absence means the parent was a
    /// trusted registered state.
    latches: HashMap<BlockHash, Arc<RootLatch<bool>>>,
}

/// Everything needed to push a prepared block into the worker pool. Shared
/// by the public API and the appliers (which release parked children).
struct Starter {
    scheduler: Scheduler,
    workers: usize,
    dispatch: DispatchPolicy,
    job_tx: Sender<ExecJob>,
    applier_tx: Sender<ApplierMsg>,
    index: Arc<Mutex<StateIndex>>,
    /// Code-analysis cache shared by every exec worker across every block.
    cache: Arc<AnalysisCache>,
    /// See [`PipelineConfig::deferred_root`].
    deferred_root: bool,
}

/// The four-stage validator pipeline.
pub struct ValidatorPipeline {
    config: PipelineConfig,
    starter: Arc<Starter>,
    workers: Vec<std::thread::JoinHandle<()>>,
    appliers: Vec<std::thread::JoinHandle<()>>,
}

impl ValidatorPipeline {
    /// Spawns the worker and applier pools.
    pub fn new(config: PipelineConfig) -> Self {
        assert!(config.workers > 0);
        assert!(config.appliers > 0);
        let (job_tx, job_rx) = unbounded::<ExecJob>();
        let (applier_tx, applier_rx) = unbounded::<ApplierMsg>();
        let index = Arc::new(Mutex::new(StateIndex {
            states: HashMap::new(),
            written: HashMap::new(),
            waiting: HashMap::new(),
            invalid: std::collections::HashSet::new(),
            latches: HashMap::new(),
        }));
        let starter = Arc::new(Starter {
            scheduler: Scheduler::new(config.granularity),
            workers: config.workers,
            dispatch: config.dispatch,
            job_tx,
            applier_tx,
            index,
            cache: AnalysisCache::global(),
            deferred_root: config.deferred_root,
        });

        let mut workers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let job_rx: Receiver<ExecJob> = job_rx.clone();
            let applier_tx = starter.applier_tx.clone();
            workers.push(std::thread::spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    run_job(&job);
                    if job.task.remaining_jobs.fetch_sub(1, Ordering::AcqRel) == 1 {
                        let exec = job
                            .task
                            .exec_start
                            .get()
                            .map(|s| s.elapsed())
                            .unwrap_or_default();
                        let _ = applier_tx.send(ApplierMsg::BlockDone(job.task, exec));
                    }
                }
            }));
        }

        let mut appliers = Vec::with_capacity(config.appliers);
        for _ in 0..config.appliers {
            let starter = Arc::clone(&starter);
            let applier_rx = applier_rx.clone();
            appliers.push(std::thread::spawn(move || {
                while let Ok(msg) = applier_rx.recv() {
                    match msg {
                        ApplierMsg::BlockDone(task, exec) => apply_block(task, exec, &starter),
                        ApplierMsg::Shutdown => break,
                    }
                }
                // Dropping `starter` here closes the job channel (the
                // public handle replaced its copy at shutdown), which ends
                // the worker loops once every applier has exited.
            }));
        }

        ValidatorPipeline {
            config,
            starter,
            workers,
            appliers,
        }
    }

    /// Registers a trusted base state (e.g. the genesis post-state) so
    /// blocks naming `hash` as parent can start.
    pub fn register_state(&self, hash: BlockHash, state: Arc<WorldState>) {
        let ready = {
            let mut idx = self.starter.index.lock();
            idx.states.insert(hash, state);
            idx.waiting.remove(&hash).unwrap_or_default()
        };
        for (block, verdict) in ready {
            self.starter.start_block(block, verdict);
        }
    }

    /// Submits a block (preparation phase). Returns immediately; the
    /// outcome arrives through the handle. Blocks whose parent state is not
    /// yet known are parked until the parent validates — the paper's
    /// cross-height ordering rule. The execution environment is derived from
    /// the block header.
    pub fn submit(&self, block: Block) -> ValidationHandle {
        self.submit_shared(Arc::new(block))
    }

    /// [`ValidatorPipeline::submit`] for a block the caller goes on sharing
    /// (the validator's chain store keeps the same allocation): the pipeline
    /// holds a refcount instead of its own copy.
    pub fn submit_shared(&self, block: Arc<Block>) -> ValidationHandle {
        let (tx, rx) = unbounded();
        let parent = block.header.parent_hash;
        let parked = {
            let mut idx = self.starter.index.lock();
            if idx.invalid.contains(&parent) {
                None // fall through to immediate rejection below
            } else if idx.states.contains_key(&parent) {
                Some(false)
            } else {
                idx.waiting
                    .entry(parent)
                    .or_default()
                    .push((Arc::clone(&block), tx.clone()));
                Some(true)
            }
        };
        match parked {
            Some(false) => self.starter.start_block(block, tx),
            Some(true) => {}
            None => {
                let _ = tx.send(rejection_outcome(
                    block.hash(),
                    block.height(),
                    ValidationError::ParentInvalid,
                ));
            }
        }
        ValidationHandle { rx }
    }

    /// Convenience: submit and wait.
    pub fn validate_block(&self, block: Block) -> ValidationOutcome {
        self.submit(block).wait()
    }

    /// The committed post-state of `hash` — available once the block
    /// validated (or was registered as a trusted base state).
    pub fn state_of(&self, hash: &BlockHash) -> Option<Arc<WorldState>> {
        self.starter.index.lock().states.get(hash).cloned()
    }

    /// The validated block's net effect on its parent state (the diff layer
    /// for the snapshot tree). `None` for trusted base states registered via
    /// [`ValidatorPipeline::register_state`], which have no parent delta.
    ///
    /// Distilled here, on demand, from the block's post-state and the keys
    /// it wrote: only a validator that persists asks, once a block, so
    /// validation itself does not pay for it.
    pub fn delta_of(&self, hash: &BlockHash) -> Option<StateDelta> {
        let (state, written) = {
            let idx = self.starter.index.lock();
            (
                Arc::clone(idx.states.get(hash)?),
                Arc::clone(idx.written.get(hash)?),
            )
        };
        Some(state.delta_for_keys(written.iter()))
    }

    /// Number of execution jobs queued but not yet claimed by a worker.
    /// A feed gauge for the node loop: a persistently deep queue means the
    /// worker pool is the bottleneck stage.
    pub fn pending_jobs(&self) -> usize {
        self.starter.job_tx.len()
    }

    /// Number of applier messages queued but not yet processed. Deep here
    /// means commitment (state apply + root) is the bottleneck stage.
    pub fn pending_applies(&self) -> usize {
        self.starter.applier_tx.len()
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// The configured applier-pool size.
    pub fn appliers(&self) -> usize {
        self.config.appliers
    }

    /// Shuts the pipeline down, joining all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.appliers.is_empty() {
            return; // already shut down
        }
        // Ask every applier to stop, then drop this handle's channel senders
        // by swapping in a dead Starter. Each applier's own Arc<Starter>
        // (and with it the last job sender) dies when its thread exits,
        // which in turn ends the worker loops.
        let applier_tx = self.starter.applier_tx.clone();
        let (dead_job, _) = unbounded();
        let (dead_applier, _) = unbounded();
        self.starter = Arc::new(Starter {
            scheduler: self.starter.scheduler,
            workers: self.starter.workers,
            dispatch: self.starter.dispatch,
            job_tx: dead_job,
            applier_tx: dead_applier,
            index: Arc::clone(&self.starter.index),
            cache: Arc::clone(&self.starter.cache),
            deferred_root: self.starter.deferred_root,
        });
        for _ in 0..self.appliers.len() {
            let _ = applier_tx.send(ApplierMsg::Shutdown);
        }
        drop(applier_tx);
        for a in self.appliers.drain(..) {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ValidatorPipeline {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn rejection_outcome(
    block_hash: BlockHash,
    height: u64,
    error: ValidationError,
) -> ValidationOutcome {
    ValidationOutcome {
        block_hash,
        height,
        result: Err(error),
        post_state: None,
        receipts: vec![],
        timings: StageTimings::default(),
        executed_txs: 0,
        aborted_early: false,
        analysis_hits: 0,
        analysis_misses: 0,
    }
}

// ---------------------------------------------------------------------------
// Transaction-execution phase
// ---------------------------------------------------------------------------

/// A job's view: the pre-block world plus the writes of the job's already
/// executed transactions. Jobs (subgraphs or lanes) are conflict-free
/// against each other, so no other job's writes can be observed by these
/// transactions in a serial replay either.
struct JobView<'a> {
    base: &'a WorldState,
    overlay: FxHashMap<AccessKey, U256>,
    code_overlay: FxHashMap<Address, Arc<Vec<u8>>>,
}

impl StateView for JobView<'_> {
    fn read_key(&self, key: &AccessKey) -> (U256, u64) {
        match self.overlay.get(key) {
            Some(v) => (*v, 0),
            None => (self.base.read_key(key), 0),
        }
    }

    fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        self.code_overlay
            .get(addr)
            .cloned()
            .unwrap_or_else(|| self.base.code(addr))
    }
}

fn run_job(job: &ExecJob) {
    let task = &job.task;
    task.exec_start.get_or_init(Instant::now);
    let mut view = JobView {
        base: &task.base,
        overlay: FxHashMap::default(),
        code_overlay: FxHashMap::default(),
    };
    for &i in &job.txs {
        // Early abort: a sibling job (or an earlier transaction of this
        // one) found a mismatch — this block can never validate, stop
        // burning workers on it.
        if task.cancelled.load(Ordering::Acquire) {
            return;
        }
        let tx: &Transaction = &task.block.transactions[i];
        match execute_transaction_in(&task.cache, &view, &task.env, tx) {
            Ok(result) => {
                task.executed.fetch_add(1, Ordering::Relaxed);
                // Overlapped verification (Algorithm 2, moved out of the
                // applier): check the replayed footprint against the block
                // profile right here, while sibling jobs still execute.
                if !task.block.profile.matches(i, &result.rw) {
                    task.record_abort(i, ABORT_KIND_PROFILE);
                    return;
                }
                for (key, value) in &result.rw.writes {
                    view.overlay.insert(*key, *value);
                }
                for (addr, code) in &result.deployed {
                    view.code_overlay.insert(*addr, Arc::clone(code));
                }
                // Lock-free publication: this job is the slot's only writer.
                task.results.publish(
                    i,
                    TxOutcome {
                        rw: result.rw,
                        deployed: result.deployed.into_iter().collect(),
                        receipt: result.receipt,
                    },
                );
            }
            Err(TxError::BadNonce { .. })
            | Err(TxError::InsufficientFunds)
            | Err(TxError::IntrinsicGas) => {
                task.executed.fetch_add(1, Ordering::Relaxed);
                task.record_abort(i, ABORT_KIND_REJECTED);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Block-validation + commitment phases (the applier pool)
// ---------------------------------------------------------------------------

impl Starter {
    /// Preparation phase for a block whose parent state is available:
    /// header checks first (a malformed block is rejected before any
    /// transaction executes), then scheduling and job dispatch.
    fn start_block(&self, block: Arc<Block>, verdict: Sender<ValidationOutcome>) {
        let base = {
            let idx = self.index.lock();
            Arc::clone(
                idx.states
                    .get(&block.header.parent_hash)
                    .expect("start_block requires parent state"),
            )
        };
        let env = BlockEnv {
            coinbase: block.header.coinbase,
            number: block.header.height,
            timestamp: block.header.timestamp,
            gas_limit: block.header.gas_limit,
        };
        let t0 = Instant::now();
        // Cheap header commitments, checked before execution (fail fast):
        // a tampered transaction list or a profile of the wrong length can
        // never validate, so don't spend a single worker slot on it.
        let header_error = if block.header.tx_root != tx_root(&block.transactions) {
            Some(ValidationError::TxRootMismatch)
        } else if block.profile.len() != block.transactions.len() {
            Some(ValidationError::ProfileMismatch {
                index: block.profile.len().min(block.transactions.len()),
            })
        } else {
            None
        };
        let jobs: Vec<Vec<usize>> = if header_error.is_some() {
            Vec::new()
        } else {
            match self.dispatch {
                // Heaviest subgraph first: the pool drains big components
                // early, so stragglers don't trail the block's completion.
                DispatchPolicy::Subgraph => self
                    .scheduler
                    .subgraphs(&block.profile)
                    .into_iter()
                    .map(|sg| sg.txs)
                    .collect(),
                DispatchPolicy::StaticLanes => self
                    .scheduler
                    .schedule(&block.profile, self.workers)
                    .lanes
                    .into_iter()
                    .filter(|l| !l.is_empty())
                    .collect(),
            }
        };
        let prepare = t0.elapsed();
        let n = block.transactions.len();
        let rejected = header_error.is_some();
        let task = Arc::new(BlockTask {
            block,
            base,
            env,
            header_error,
            results: ResultSlots::new(n),
            remaining_jobs: AtomicUsize::new(jobs.len()),
            cancelled: AtomicBool::new(false),
            abort: AtomicU64::new(ABORT_NONE),
            executed: AtomicUsize::new(0),
            verdict,
            prepare,
            submitted: Instant::now(),
            exec_start: OnceLock::new(),
            cache_base: self.cache.stats(),
            cache: Arc::clone(&self.cache),
        });
        if rejected || jobs.is_empty() {
            // Header rejections and empty blocks go straight to the applier
            // pool so the commitment bookkeeping (invalid-set insert,
            // parked-children release) stays in one place.
            let _ = self
                .applier_tx
                .send(ApplierMsg::BlockDone(task, Duration::ZERO));
            return;
        }
        for txs in jobs {
            let _ = self.job_tx.send(ExecJob {
                task: Arc::clone(&task),
                txs,
            });
        }
    }
}

fn apply_block(task: Arc<BlockTask>, exec: Duration, starter: &Starter) {
    if starter.deferred_root {
        apply_block_deferred(task, exec, starter);
        return;
    }
    let t0 = Instant::now();
    let block = &task.block;
    let hash = block.hash();
    let result = validate_and_apply(&task, true);
    let validate = t0.elapsed();

    let queue_wait = task
        .exec_start
        .get()
        .map(|s| s.duration_since(task.submitted))
        .unwrap_or_default();
    let timings = StageTimings {
        prepare: task.prepare,
        queue_wait,
        execute: exec,
        validate,
    };
    let cache_delta = task.cache.stats().since(&task.cache_base);
    let (verdict_result, post_state, receipts, written) = match result {
        Ok((state, receipts, written)) => (Ok(()), Some(Arc::new(state)), receipts, written),
        Err(e) => (Err(e), None, vec![], vec![]),
    };

    // Commitment phase: index the post-state (and the keys that lead to its
    // diff layer) and release parked children — or mark the subtree invalid.
    let ready = {
        let mut idx = starter.index.lock();
        match &post_state {
            Some(state) => {
                idx.states.insert(hash, Arc::clone(state));
                idx.written.insert(hash, written.into());
            }
            None => {
                idx.invalid.insert(hash);
            }
        }
        idx.waiting.remove(&hash).unwrap_or_default()
    };
    for (child, child_verdict) in ready {
        if post_state.is_some() {
            starter.start_block(child, child_verdict);
        } else {
            let _ = child_verdict.send(rejection_outcome(
                child.hash(),
                child.height(),
                ValidationError::ParentInvalid,
            ));
        }
    }

    let _ = task.verdict.send(ValidationOutcome {
        block_hash: hash,
        height: block.height(),
        result: verdict_result,
        post_state,
        receipts,
        timings,
        executed_txs: task.executed.load(Ordering::Relaxed),
        aborted_early: task.cancelled.load(Ordering::Relaxed),
        analysis_hits: cache_delta.hits,
        analysis_misses: cache_delta.misses,
    });
}

/// Deferred-root apply: "publish writes + schedule root".
///
/// The block's writes are applied and all non-root checks run exactly as in
/// the serial path; the post-state is then indexed and parked children are
/// released *before* the state root is hashed, so execution of height N+1
/// overlaps the root of height N. The root check settles this block's
/// [`RootLatch`]; the verdict additionally chains on the parent's latch, so
/// an invalid ancestor still poisons every descendant.
///
/// Why this cannot deadlock or misorder: a block reaches the applier only
/// after its parent *published* (children are released at publish time), and
/// every publish-path call settles its own latch before returning. Latch
/// waits therefore only ever chain parent-ward, up a chain of already
/// published blocks, ending at a trusted registered state (no latch). The
/// earliest published-but-unsettled block waits only on settled latches, so
/// the chain always drains — and every verdict, commit publication, and
/// header check still happens after the roots it depends on are known.
fn apply_block_deferred(task: Arc<BlockTask>, exec: Duration, starter: &Starter) {
    let t0 = Instant::now();
    let block = &task.block;
    let hash = block.hash();
    let parent = block.header.parent_hash;
    let result = validate_and_apply(&task, false);
    let latch = Arc::new(RootLatch::<bool>::new());

    let queue_wait = task
        .exec_start
        .get()
        .map(|s| s.duration_since(task.submitted))
        .unwrap_or_default();
    let cache_delta = task.cache.stats().since(&task.cache_base);
    let outcome = |result: Result<(), ValidationError>,
                   post_state: Option<Arc<WorldState>>,
                   receipts: Vec<Receipt>,
                   validate: Duration| ValidationOutcome {
        block_hash: hash,
        height: block.height(),
        result,
        post_state,
        receipts,
        timings: StageTimings {
            prepare: task.prepare,
            queue_wait,
            execute: exec,
            validate,
        },
        executed_txs: task.executed.load(Ordering::Relaxed),
        aborted_early: task.cancelled.load(Ordering::Relaxed),
        analysis_hits: cache_delta.hits,
        analysis_misses: cache_delta.misses,
    };

    let (state, receipts, written) = match result {
        Ok(parts) => parts,
        Err(e) => {
            // Failed before the root was even needed: settle the latch and
            // mark the subtree invalid exactly as the serial path does.
            let ready = {
                let mut idx = starter.index.lock();
                idx.invalid.insert(hash);
                idx.latches.insert(hash, Arc::clone(&latch));
                idx.waiting.remove(&hash).unwrap_or_default()
            };
            latch.set(false);
            for (child, child_verdict) in ready {
                let _ = child_verdict.send(rejection_outcome(
                    child.hash(),
                    child.height(),
                    ValidationError::ParentInvalid,
                ));
            }
            let _ = task
                .verdict
                .send(outcome(Err(e), None, vec![], t0.elapsed()));
            return;
        }
    };

    // Publish writes: index the post-state and release the next height into
    // execution. The root of this block is still unhashed — descendants
    // observe it only through the latch.
    let state = Arc::new(state);
    let (parent_latch, ready) = {
        let mut idx = starter.index.lock();
        idx.states.insert(hash, Arc::clone(&state));
        idx.written.insert(hash, written.into());
        idx.latches.insert(hash, Arc::clone(&latch));
        (
            idx.latches.get(&parent).cloned(),
            idx.waiting.remove(&hash).unwrap_or_default(),
        )
    };
    for (child, child_verdict) in ready {
        starter.start_block(child, child_verdict);
    }

    // Schedule root: hash first (the expensive part, overlapped with the
    // children just released), then chain on the parent's verdict.
    let root_ok = state.state_root() == block.header.state_root;
    let parent_ok = parent_latch.map(|l| l.wait()).unwrap_or(true);
    let ok = root_ok && parent_ok;
    if !ok {
        // Un-publish: the optimistically indexed state never becomes
        // canonical. In-flight descendants fail through their own parent
        // latch; late submitters see the invalid mark.
        let ready = {
            let mut idx = starter.index.lock();
            idx.states.remove(&hash);
            idx.written.remove(&hash);
            idx.invalid.insert(hash);
            idx.waiting.remove(&hash).unwrap_or_default()
        };
        for (child, child_verdict) in ready {
            let _ = child_verdict.send(rejection_outcome(
                child.hash(),
                child.height(),
                ValidationError::ParentInvalid,
            ));
        }
    }
    latch.set(ok);
    let result = if !parent_ok {
        Err(ValidationError::ParentInvalid)
    } else if !root_ok {
        Err(ValidationError::StateRootMismatch)
    } else {
        Ok(())
    };
    let post_state = ok.then_some(state);
    let receipts = if ok { receipts } else { vec![] };
    let _ = task
        .verdict
        .send(outcome(result, post_state, receipts, t0.elapsed()));
}

/// Block validation: drain the execution results in block order, apply
/// writes, and check the block-level commitments. Per-transaction footprint
/// checks (Algorithm 2) already ran inside the workers; a recorded abort
/// short-circuits here. On success, the keys the block wrote are returned
/// with the post-state, in block order, repeats and all: what
/// [`ValidatorPipeline::delta_of`] distils the block's diff layer from, if
/// it is ever asked to. With `check_root: false` (the deferred-root apply
/// stage) the state-root comparison is skipped here and settled later
/// against the block's [`RootLatch`].
fn validate_and_apply(
    task: &BlockTask,
    check_root: bool,
) -> Result<(WorldState, Vec<Receipt>, Vec<AccessKey>), ValidationError> {
    let block = &task.block;
    if let Some(err) = &task.header_error {
        return Err(err.clone());
    }
    if let Some(err) = task.abort_error() {
        return Err(err);
    }
    // Copy-on-write snapshot of the parent state: a pointer bump, whatever
    // the number of accounts; the writes below copy only the paths they take.
    let mut world = task.base.snapshot();
    let mut gas_total: Gas = 0;
    let mut fees = U256::ZERO;
    let mut receipts = Vec::with_capacity(block.transactions.len());
    let mut written: Vec<AccessKey> = Vec::new();
    for i in 0..block.transactions.len() {
        let outcome = task
            .results
            .take(i)
            .expect("uncancelled block executed every transaction");
        world.apply_writes(&outcome.rw.writes);
        written.extend(outcome.rw.writes.keys().copied());
        for (addr, code) in &outcome.deployed {
            world.set_code(*addr, (**code).clone());
            written.push(AccessKey::Code(*addr));
        }
        gas_total += outcome.receipt.gas_used;
        fees += outcome.receipt.fee;
        receipts.push(outcome.receipt);
    }
    if gas_total != block.header.gas_used {
        return Err(ValidationError::GasMismatch {
            expected: block.header.gas_used,
            got: gas_total,
        });
    }
    if receipts_root(&receipts) != block.header.receipts_root {
        return Err(ValidationError::ReceiptsRootMismatch);
    }
    if !fees.is_zero() {
        let cb = world.balance(&block.header.coinbase);
        world.set_balance(block.header.coinbase, cb + fees);
        written.push(AccessKey::Balance(block.header.coinbase));
    }
    if check_root && world.state_root() != block.header.state_root {
        return Err(ValidationError::StateRootMismatch);
    }
    Ok((world, receipts, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal};
    use bp_txpool::TxPool;
    use bp_types::Address;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn funded_world(n: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=n {
            w.set_balance(addr(i), U256::from(1_000_000_000u64));
        }
        w
    }

    /// Proposes a block of simple transfers on top of `base`.
    fn propose_transfers(
        base: &Arc<WorldState>,
        parent: BlockHash,
        height: u64,
        senders: std::ops::Range<u64>,
        nonce: u64,
    ) -> Proposal {
        let pool = TxPool::new();
        for i in senders {
            pool.add(Transaction::transfer(
                addr(i),
                addr(i + 500),
                U256::from(7u64),
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
        proposer.propose(&pool, Arc::clone(base), parent, height)
    }

    fn pipeline_with_genesis(
        workers: usize,
        world: &Arc<WorldState>,
    ) -> (ValidatorPipeline, BlockHash) {
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers,
            granularity: ConflictGranularity::Account,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(world));
        (pipeline, genesis)
    }

    #[test]
    fn validates_honest_block() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(4, &world);
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = pipeline.validate_block(proposal.block.clone());
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(
            outcome.post_state.unwrap().state_root(),
            proposal.post_state.state_root()
        );
        assert_eq!(outcome.receipts.len(), proposal.block.tx_count());
        assert_eq!(outcome.executed_txs, proposal.block.tx_count());
        assert!(!outcome.aborted_early);
        pipeline.shutdown();
    }

    #[test]
    fn validates_honest_block_on_static_lanes() {
        let world = Arc::new(funded_world(10));
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers: 4,
            dispatch: DispatchPolicy::StaticLanes,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(&world));
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = pipeline.validate_block(proposal.block.clone());
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(
            outcome.post_state.unwrap().state_root(),
            proposal.post_state.state_root()
        );
        pipeline.shutdown();
    }

    #[test]
    fn validates_honest_block_on_single_applier() {
        let world = Arc::new(funded_world(10));
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers: 2,
            appliers: 1,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(&world));
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = pipeline.validate_block(proposal.block);
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        pipeline.shutdown();
    }

    #[test]
    fn rejects_tampered_state_root() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let outcome = pipeline.validate_block(proposal.block);
        assert_eq!(outcome.result, Err(ValidationError::StateRootMismatch));
        pipeline.shutdown();
    }

    #[test]
    fn rejects_tampered_profile() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        // Corrupt one profiled write value: the replayed footprint diverges.
        let entry = &mut proposal.block.profile.entries[0];
        let key = *entry.writes.keys().next().unwrap();
        entry.writes.insert(key, U256::from(123_456u64));
        let outcome = pipeline.validate_block(proposal.block);
        assert_eq!(
            outcome.result,
            Err(ValidationError::ProfileMismatch { index: 0 })
        );
        assert!(outcome.aborted_early);
        pipeline.shutdown();
    }

    #[test]
    fn rejects_tampered_tx_list_without_executing() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.transactions.swap(0, 1);
        let outcome = pipeline.validate_block(proposal.block);
        assert_eq!(outcome.result, Err(ValidationError::TxRootMismatch));
        // Fail fast: the header check runs at preparation, so not a single
        // transaction of the doomed block reaches a worker.
        assert_eq!(outcome.executed_txs, 0);
        pipeline.shutdown();
    }

    #[test]
    fn rejects_truncated_profile_without_executing() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.profile.entries.pop();
        let outcome = pipeline.validate_block(proposal.block);
        assert!(matches!(
            outcome.result,
            Err(ValidationError::ProfileMismatch { .. })
        ));
        assert_eq!(outcome.executed_txs, 0);
        pipeline.shutdown();
    }

    #[test]
    fn rejects_tampered_gas() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.header.gas_used += 1;
        let outcome = pipeline.validate_block(proposal.block);
        assert!(matches!(
            outcome.result,
            Err(ValidationError::GasMismatch { .. })
        ));
        pipeline.shutdown();
    }

    #[test]
    fn early_abort_stops_remaining_subgraph_jobs() {
        // One worker drains the subgraph jobs sequentially; tampering the
        // first-dispatched subgraph's transaction must cancel the rest of
        // the block before it executes.
        let world = Arc::new(funded_world(10));
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers: 1,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(&world));
        let mut proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let n = proposal.block.tx_count();
        // Equal-gas singleton subgraphs dispatch ascending by first member,
        // so tx 0 executes first on the single worker.
        let entry = &mut proposal.block.profile.entries[0];
        let key = *entry.writes.keys().next().unwrap();
        entry.writes.insert(key, U256::from(0xBAD_u64));
        let outcome = pipeline.validate_block(proposal.block);
        assert_eq!(
            outcome.result,
            Err(ValidationError::ProfileMismatch { index: 0 })
        );
        assert!(outcome.aborted_early);
        assert!(
            outcome.executed_txs < n,
            "abort should cut execution short: executed {} of {n}",
            outcome.executed_txs
        );
        pipeline.shutdown();
    }

    #[test]
    fn same_height_blocks_validate_concurrently() {
        let world = Arc::new(funded_world(20));
        let (pipeline, genesis) = pipeline_with_genesis(4, &world);
        // Two competing proposals at height 1 from different tx subsets.
        let block_a = propose_transfers(&world, genesis, 1, 1..10, 0).block;
        let mut b = propose_transfers(&world, genesis, 1, 10..20, 0);
        b.block.header.proposer_seed = 99;
        let block_b = b.block;
        assert_ne!(block_a.hash(), block_b.hash());
        let ha = pipeline.submit(block_a);
        let hb = pipeline.submit(block_b);
        let oa = ha.wait();
        let ob = hb.wait();
        assert!(oa.is_valid(), "{:?}", oa.result);
        assert!(ob.is_valid(), "{:?}", ob.result);
        pipeline.shutdown();
    }

    #[test]
    fn child_waits_for_parent_and_completes() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(4, &world);
        let parent = propose_transfers(&world, genesis, 1, 1..5, 0);
        let parent_hash = parent.block.hash();
        let child = propose_transfers(
            &Arc::new(parent.post_state.clone()),
            parent_hash,
            2,
            1..5,
            1, // next nonce
        );
        // Submit the child FIRST: it must park until the parent validates.
        let hc = pipeline.submit(child.block.clone());
        let hp = pipeline.submit(parent.block.clone());
        assert!(hp.wait().is_valid());
        let oc = hc.wait();
        assert!(oc.is_valid(), "{:?}", oc.result);
        assert_eq!(
            oc.post_state.unwrap().state_root(),
            child.post_state.state_root()
        );
        pipeline.shutdown();
    }

    #[test]
    fn child_of_invalid_parent_is_rejected() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let mut parent = propose_transfers(&world, genesis, 1, 1..5, 0);
        parent.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let parent_hash = parent.block.hash();
        let child = propose_transfers(
            &Arc::new(parent.post_state.clone()),
            parent_hash,
            2,
            1..5,
            1,
        );
        let hc = pipeline.submit(child.block);
        let hp = pipeline.submit(parent.block);
        assert!(!hp.wait().is_valid());
        assert_eq!(hc.wait().result, Err(ValidationError::ParentInvalid));
        pipeline.shutdown();
    }

    #[test]
    fn empty_block_validates() {
        let world = Arc::new(funded_world(2));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let proposal = propose_transfers(&world, genesis, 1, 1..1, 0); // no txs
        assert_eq!(proposal.block.tx_count(), 0);
        let outcome = pipeline.validate_block(proposal.block);
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(outcome.executed_txs, 0);
        pipeline.shutdown();
    }

    #[test]
    fn chain_of_three_heights_validates_in_any_submit_order() {
        let world = Arc::new(funded_world(6));
        let (pipeline, genesis) = pipeline_with_genesis(3, &world);
        let b1 = propose_transfers(&world, genesis, 1, 1..4, 0);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..4, 1);
        let s2 = Arc::new(b2.post_state.clone());
        let b3 = propose_transfers(&s2, b2.block.hash(), 3, 1..4, 2);
        // Reverse submit order: deepest first.
        let h3 = pipeline.submit(b3.block.clone());
        let h2 = pipeline.submit(b2.block.clone());
        let h1 = pipeline.submit(b1.block.clone());
        assert!(h1.wait().is_valid());
        assert!(h2.wait().is_valid());
        let o3 = h3.wait();
        assert!(o3.is_valid(), "{:?}", o3.result);
        assert_eq!(
            o3.post_state.unwrap().state_root(),
            b3.post_state.state_root()
        );
        pipeline.shutdown();
    }

    fn deferred_pipeline(
        workers: usize,
        world: &Arc<WorldState>,
    ) -> (ValidatorPipeline, BlockHash) {
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers,
            deferred_root: true,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(world));
        (pipeline, genesis)
    }

    #[test]
    fn deferred_root_validates_honest_chain() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = deferred_pipeline(4, &world);
        let b1 = propose_transfers(&world, genesis, 1, 1..8, 0);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..8, 1);
        let s2 = Arc::new(b2.post_state.clone());
        let b3 = propose_transfers(&s2, b2.block.hash(), 3, 1..8, 2);
        let h3 = pipeline.submit(b3.block.clone());
        let h1 = pipeline.submit(b1.block.clone());
        let h2 = pipeline.submit(b2.block.clone());
        assert!(h1.wait().is_valid());
        assert!(h2.wait().is_valid());
        let o3 = h3.wait();
        assert!(o3.is_valid(), "{:?}", o3.result);
        assert_eq!(
            o3.post_state.unwrap().state_root(),
            b3.post_state.state_root()
        );
        pipeline.shutdown();
    }

    #[test]
    fn deferred_root_rejects_tampered_root_and_descendants() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = deferred_pipeline(2, &world);
        let mut b1 = propose_transfers(&world, genesis, 1, 1..5, 0);
        b1.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..5, 1);
        let s2 = Arc::new(b2.post_state.clone());
        let b3 = propose_transfers(&s2, b2.block.hash(), 3, 1..5, 2);
        let h2 = pipeline.submit(b2.block.clone());
        let h3 = pipeline.submit(b3.block.clone());
        let h1 = pipeline.submit(b1.block.clone());
        assert_eq!(h1.wait().result, Err(ValidationError::StateRootMismatch));
        // The child may have been released optimistically before the parent's
        // root settled — its verdict must still be ParentInvalid, and the
        // grandchild's too, whether it executed or parked.
        assert_eq!(h2.wait().result, Err(ValidationError::ParentInvalid));
        assert_eq!(h3.wait().result, Err(ValidationError::ParentInvalid));
        // The tampered subtree never becomes visible state, and the keys
        // its diff layer would be distilled from go with it.
        assert!(pipeline.state_of(&b1.block.hash()).is_none());
        assert!(pipeline.state_of(&b2.block.hash()).is_none());
        assert!(pipeline.delta_of(&b1.block.hash()).is_none());
        assert!(pipeline.delta_of(&b2.block.hash()).is_none());
        pipeline.shutdown();
    }

    #[test]
    fn delta_is_distilled_on_demand_from_the_post_state_and_the_written_keys() {
        let world = Arc::new(funded_world(10));
        for deferred in [false, true] {
            let (pipeline, genesis) = match deferred {
                false => pipeline_with_genesis(2, &world),
                true => deferred_pipeline(2, &world),
            };
            let proposal = propose_transfers(&world, genesis, 1, 1..8, 0);
            assert!(pipeline.validate_block(proposal.block.clone()).is_valid());
            // What the block wrote, named by its profile (which validation
            // matched against the execution) plus the fee recipient — here
            // as a set, where the pipeline keeps block order and repeats.
            let mut keys: std::collections::HashSet<AccessKey> = proposal
                .block
                .profile
                .entries
                .iter()
                .flat_map(|entry| entry.writes.keys().copied())
                .collect();
            keys.insert(AccessKey::Balance(proposal.block.header.coinbase));
            let expected = proposal.post_state.delta_for_keys(keys.iter());
            assert!(!expected.is_empty());
            assert_eq!(pipeline.delta_of(&proposal.block.hash()), Some(expected));
            // A registered state has no parent to differ from.
            assert!(pipeline.delta_of(&genesis).is_none());
            pipeline.shutdown();
        }
    }

    #[test]
    fn deferred_root_matches_serial_verdicts_and_roots() {
        // A/B the two apply modes over the same 4-block chain.
        let world = Arc::new(funded_world(12));
        let mut blocks = Vec::new();
        let mut base = Arc::clone(&world);
        let mut parent = BlockHash::from_low_u64(1);
        for height in 1..=4 {
            let p = propose_transfers(&base, parent, height, 1..10, height - 1);
            parent = p.block.hash();
            base = Arc::new(p.post_state.clone());
            blocks.push(p);
        }
        for deferred in [false, true] {
            let pipeline = ValidatorPipeline::new(PipelineConfig {
                workers: 3,
                deferred_root: deferred,
                ..PipelineConfig::default()
            });
            pipeline.register_state(BlockHash::from_low_u64(1), Arc::clone(&world));
            let handles: Vec<_> = blocks
                .iter()
                .map(|p| pipeline.submit(p.block.clone()))
                .collect();
            for (handle, proposal) in handles.into_iter().zip(&blocks) {
                let outcome = handle.wait();
                assert!(
                    outcome.is_valid(),
                    "deferred={deferred}: {:?}",
                    outcome.result
                );
                assert_eq!(
                    outcome.post_state.unwrap().state_root(),
                    proposal.post_state.state_root(),
                    "deferred={deferred}"
                );
            }
            pipeline.shutdown();
        }
    }

    #[test]
    fn deferred_root_single_applier_does_not_deadlock() {
        let world = Arc::new(funded_world(8));
        let pipeline = ValidatorPipeline::new(PipelineConfig {
            workers: 2,
            appliers: 1,
            deferred_root: true,
            ..PipelineConfig::default()
        });
        let genesis = BlockHash::from_low_u64(1);
        pipeline.register_state(genesis, Arc::clone(&world));
        let b1 = propose_transfers(&world, genesis, 1, 1..6, 0);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..6, 1);
        let h1 = pipeline.submit(b1.block.clone());
        let h2 = pipeline.submit(b2.block.clone());
        assert!(h1.wait().is_valid());
        assert!(h2.wait().is_valid());
        pipeline.shutdown();
    }

    #[test]
    fn timings_are_recorded() {
        let world = Arc::new(funded_world(10));
        let (pipeline, genesis) = pipeline_with_genesis(2, &world);
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = pipeline.validate_block(proposal.block);
        assert!(outcome.is_valid());
        // Execution of 8 transfers takes nonzero wall time.
        assert!(outcome.timings.execute > Duration::ZERO);
        pipeline.shutdown();
    }
}
