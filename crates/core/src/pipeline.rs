//! The validator pipeline (§4.3): preparation → transaction execution →
//! block validation → block commitment.
//!
//! * **Preparation** — cheap header commitments (`tx_root`, profile length)
//!   are checked first so malformed blocks are rejected before a single
//!   transaction executes; the scheduler then splits the block into
//!   dependency subgraphs from its profile. The profile's write sets, and
//!   the fees its gas implies, are folded into an heir of the parent's
//!   state ([`WorldState::heir`]): the post-state the block claims — the
//!   proposer sealed it through the same fold — which execution then
//!   confirms entry by entry.
//! * **Transaction execution** — the process's [`Crew`] executes jobs from
//!   *any* in-flight block: two blocks at the same height overlap fully,
//!   exactly as in the paper's Figure 5. Every dependency subgraph is its
//!   own crew task (enqueued heaviest-first), so free threads load-balance
//!   dynamically across subgraphs and blocks: the crew's parked helpers,
//!   and any thread blocked in [`ValidationHandle::wait`], which runs queued
//!   tasks until its verdict is in. The pipeline owns no thread and no
//!   queue of its own. A job keeps its results to itself and hands them
//!   back in one report when it ends, merged under the block's one lock —
//!   no lock per transaction. Footprint verification (Algorithm 2) is
//!   *overlapped*: each job checks its transaction's write set, read keys
//!   and gas against the block profile right after executing it, and the
//!   first mismatch trips a per-block cancellation flag so the block's
//!   remaining jobs stop early.
//! * **Block validation** — the task that ends a block's last job takes
//!   the merged reports and checks gas and receipts against the header.
//!   It applies nothing: every write set and every fee was folded at
//!   preparation, and the jobs confirmed each. Independent blocks (same
//!   height, or different forks) validate on different threads
//!   concurrently.
//! * **Block commitment** — publish from the profile: at preparation the
//!   folded post-state's commit begins, its root is queued as a crew task
//!   ahead of the block's jobs, and the post-state is indexed by the
//!   block's hash, releasing the blocks at the next height that were parked
//!   waiting for this parent. Height N+1 therefore executes while N still
//!   executes, and N's root hashes beside both; N+1's own root waits for
//!   N's, as it needs N's tries — and, as N's heir, takes them over and
//!   edits them in place, unless a sibling in flight may still commit on
//!   them. N keeps its root; a sibling that comes later rebuilds N's tries
//!   from the heir's in one batch. Every block publishes so, one that
//!   deploys code too: its profile ships the code, and the fold installs it.
//!   The root comparison settles a per-block [`RootLatch`]; a block's
//!   verdict waits for its own root and for its parent's latch, which keeps
//!   the paper's rule that a block is not cleared before its predecessor,
//!   and the public lookups answer for a block only once that verdict is
//!   in. A block that fails any check is un-published, and its descendants
//!   fail through the latch they were handed.
//!
//! The validator keeps one index of the blocks it knows: an entry per
//! published block holds the block, its post-state and its latch, and goes
//! as a whole when the block is un-published — a rejected block is not
//! kept, only its hash and the first error it was rejected for. The
//! canonical chain is a vector by height over settled entries. The index
//! also holds the verdict slot of every block in the pipeline, so a block
//! submitted again while it is there shares the first submission's verdict
//! instead of executing twice, and one submitted again after its verdict is
//! answered at once, valid or not.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_block::{receipts_root, tx_root, Block};
use bp_concurrent::crew::{self, Crew};
use bp_concurrent::sync::Mutex;
use bp_concurrent::RootLatch;
use bp_evm::{execute_transaction, BlockEnv, Receipt, StateView, TxError};
use bp_state::WorldState;
use bp_types::{AccessKey, Address, BlockHash, FxHashMap, Gas, U256};

use crate::scheduler::{ConflictGranularity, Scheduler};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Execution parallelism the pipeline asks the process's crew for (the
    /// paper evaluates 2–16 workers). It sizes the crew; it does not cap how
    /// many crew threads run the pipeline's tasks.
    pub workers: usize,
    /// Conflict granularity for the preparation phase.
    pub granularity: ConflictGranularity,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 4,
            granularity: ConflictGranularity::Account,
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
    /// Preparation (header checks, scheduling, and the fold of the
    /// profile's writes and fees into the post-state).
    pub prepare: Duration,
    /// Channel queueing: job enqueue → first job start.
    pub queue_wait: Duration,
    /// Transaction execution (first job start → last job end).
    pub execute: Duration,
    /// Block validation: the checks against the header, plus any wait for
    /// the block's root and its parent's verdict.
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
}

impl ValidationOutcome {
    /// True iff the block validated.
    pub fn is_valid(&self) -> bool {
        self.result.is_ok()
    }
}

/// A block's verdict slot, shared by the handles of every submission of the
/// block: the verdict — unset, then the outcome, or `None` when the
/// pipeline let go of the block without one — and how many handles have
/// yet to take it.
#[derive(Default)]
struct Slot {
    verdict: Option<Option<ValidationOutcome>>,
    handles: usize,
}

type SharedSlot = Arc<Mutex<Slot>>;

/// A handle to one submitted block's eventual outcome.
pub struct ValidationHandle {
    slot: SharedSlot,
    crew: Crew,
}

impl ValidationHandle {
    /// One more handle on `slot`, whose verdict is not taken yet.
    fn share(slot: &SharedSlot, crew: &Crew) -> ValidationHandle {
        slot.lock().handles += 1;
        ValidationHandle {
            slot: Arc::clone(slot),
            crew: crew.clone(),
        }
    }

    /// Blocks until the pipeline has a verdict, running queued crew tasks —
    /// this block's and any other's — meanwhile. Not to be called from
    /// inside a crew task.
    pub fn wait(self) -> ValidationOutcome {
        self.crew.help_until(|| self.slot.lock().verdict.is_some());
        let mut slot = self.slot.lock();
        slot.handles -= 1;
        // The last handle takes the outcome; the others copy it.
        let verdict = match slot.handles {
            0 => slot.verdict.take(),
            _ => slot.verdict.clone(),
        };
        verdict
            .expect("the verdict is in")
            .expect("pipeline dropped without verdict")
    }
}

/// The pipeline's end of a [`ValidationHandle`]. Dropped without a verdict —
/// a task panicked, or the pipeline went with the block still parked — it
/// makes the waiter panic instead of hanging.
struct Verdict {
    slot: SharedSlot,
    crew: Crew,
}

impl Verdict {
    fn new(crew: &Crew) -> (Verdict, ValidationHandle) {
        let slot = SharedSlot::default();
        let handle = ValidationHandle::share(&slot, crew);
        let crew = crew.clone();
        (Verdict { slot, crew }, handle)
    }

    fn send(&self, outcome: ValidationOutcome) {
        self.fill(Some(outcome));
    }

    /// Sets the slot unless it is set, and wakes the waiters to look.
    fn fill(&self, verdict: Option<ValidationOutcome>) {
        let mut slot = self.slot.lock();
        if slot.verdict.is_none() {
            slot.verdict = Some(verdict);
            drop(slot);
            self.crew.notify_waiters();
        }
    }
}

impl Drop for Verdict {
    fn drop(&mut self) {
        self.fill(None);
    }
}

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

struct TxOutcome {
    /// The transaction's position in the block.
    index: usize,
    receipt: Receipt,
}

/// Why a job stopped its block. The order breaks ties at one index in
/// favour of `Rejected`, the order in which a serial replay checks them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Abort {
    /// Invalid on replay (nonce, funds, intrinsic gas).
    Rejected,
    /// The replayed footprint or gas diverged from the block profile.
    Profile,
}

/// What one job did, handed back when it ends — or, in [`Progress`], what
/// a block's ended jobs did together.
#[derive(Default)]
struct JobReport {
    /// When the job started executing; `None` for the one empty job of a
    /// header-rejected or empty block.
    start: Option<Instant>,
    /// Transactions executed.
    executed: usize,
    /// The executed transactions' results, in the job's order.
    outcomes: Vec<TxOutcome>,
    /// The transaction that stopped the job, and why.
    abort: Option<(usize, Abort)>,
}

/// A block's jobs still running, and the merged reports of those that ended.
struct Progress {
    remaining: usize,
    done: JobReport,
}

impl Progress {
    /// Merges one ended job's report: the earliest start, the lowest abort
    /// (concurrent detections resolve to the lowest offending index), the
    /// summed count, every outcome. True iff it was the block's last job.
    fn end_job(&mut self, report: JobReport) -> bool {
        let done = &mut self.done;
        done.start = done.start.into_iter().chain(report.start).min();
        done.executed += report.executed;
        done.outcomes.extend(report.outcomes);
        done.abort = done.abort.into_iter().chain(report.abort).min();
        self.remaining -= 1;
        self.remaining == 0
    }
}

struct BlockTask {
    block: Arc<Block>,
    /// The parent's post-state, which the jobs execute on.
    base: Arc<WorldState>,
    /// The post-state the profile folds to, published at preparation;
    /// `None` after a header check failed.
    post: Option<Arc<WorldState>>,
    /// This block's root verdict, handed to its children with its state.
    root: Arc<RootLatch<bool>>,
    /// The parent block's root verdict, which this block's own verdict
    /// chains on; `None` when the parent is the trusted genesis.
    parent_root: Option<Arc<RootLatch<bool>>>,
    env: BlockEnv,
    /// Set when a preparation-phase header check failed: the block skipped
    /// execution entirely and its one empty job reports this error.
    header_error: Option<ValidationError>,
    /// Taken once by each job, when it ends.
    progress: Mutex<Progress>,
    /// Trips on the first footprint mismatch / replay rejection; remaining
    /// jobs of this block stop instead of executing to completion.
    cancelled: AtomicBool,
    verdict: Verdict,
    prepare: Duration,
    submitted: Instant,
}

/// A block parked until its parent validates, and where its verdict goes.
type Parked = (Arc<Block>, Verdict);

/// An index entry, and what a child of it starts from: a published block
/// (or the genesis), the state it leaves and the root verdict a child's own
/// verdict chains on. The index holds one for every hash a child can build
/// on: the genesis, or a block from the moment its post-state is published.
#[derive(Clone)]
pub(crate) struct Parent {
    block: Arc<Block>,
    pub(crate) state: Arc<WorldState>,
    /// The block's root verdict: `true` once its root matched the header and
    /// every ancestor settled valid, unset while the root still hashes.
    /// `None` for the genesis, which is trusted and has nothing to wait for.
    root: Option<Arc<RootLatch<bool>>>,
}

/// A validator's one index of the blocks it knows.
pub(crate) struct StateIndex {
    /// One entry per published block, from publication until the validator
    /// is dropped or a failed root verdict un-publishes the block: block,
    /// state and latch come and go together.
    pub(crate) states: HashMap<BlockHash, Parent>,
    waiting: HashMap<BlockHash, Vec<Parked>>,
    /// The verdict slot of every block from its submission until its
    /// verdict: parked, preparing, or published and not yet settled.
    verdicts: HashMap<BlockHash, SharedSlot>,
    /// Every rejected block, with the first error it was rejected for: a
    /// block received again gets that verdict at once, and a child of it
    /// `ParentInvalid`.
    invalid: HashMap<BlockHash, ValidationError>,
    /// The canonical chain by height, the genesis at 0: blocks whose entries
    /// settled valid, each the child of the one below it.
    pub(crate) canonical: Vec<(BlockHash, Arc<Block>)>,
}

impl StateIndex {
    /// Indexes `parent` under `hash` and takes out the blocks parked on it,
    /// for the caller to start once the index is unlocked.
    fn publish(&mut self, hash: BlockHash, parent: Parent) -> Vec<Parked> {
        self.states.insert(hash, parent);
        self.waiting.remove(&hash).unwrap_or_default()
    }

    /// What a child of `hash` starts from, if `hash` is published. Its root
    /// verdict may still un-publish it; the child then fails through the
    /// latch it was handed here.
    fn parent(&self, hash: &BlockHash) -> Option<Parent> {
        self.states.get(hash).cloned()
    }

    /// Marks `hash` invalid for `error`, unless it was already, and takes out
    /// every block parked on it — directly, or behind another parked block,
    /// which is marked `ParentInvalid` in turn: none of them can validate any
    /// more, and nobody else will ever release them.
    fn poison(&mut self, hash: BlockHash, error: ValidationError) -> Vec<Parked> {
        let mut doomed = Vec::new();
        let mut stack = vec![(hash, error)];
        while let Some((hash, error)) = stack.pop() {
            self.invalid.entry(hash).or_insert(error);
            for parked in self.waiting.remove(&hash).unwrap_or_default() {
                let parked_hash = parked.0.hash();
                self.verdicts.remove(&parked_hash);
                stack.push((parked_hash, ValidationError::ParentInvalid));
                doomed.push(parked);
            }
        }
        doomed
    }

    /// A handle on the verdict of block `hash`, at `height`, if it was
    /// submitted before: the first submission's, while the block is in the
    /// pipeline, or, once it was decided, an answer at once with nothing
    /// executed and no receipts — the error it was first rejected for, or
    /// its post-state.
    fn resubmitted(&self, hash: &BlockHash, height: u64, crew: &Crew) -> Option<ValidationHandle> {
        if let Some(slot) = self.verdicts.get(hash) {
            return Some(ValidationHandle::share(slot, crew));
        }
        let (result, post_state) = match self.invalid.get(hash) {
            Some(error) => (Err(error.clone()), None),
            None => (Ok(()), Some(Arc::clone(&self.settled(hash)?.state))),
        };
        let verdict = Some(Some(ValidationOutcome {
            block_hash: *hash,
            height,
            result,
            post_state,
            receipts: vec![],
            timings: StageTimings::default(),
            executed_txs: 0,
            aborted_early: false,
        }));
        let slot = Arc::new(Mutex::new(Slot {
            verdict,
            handles: 1,
        }));
        let crew = crew.clone();
        Some(ValidationHandle { slot, crew })
    }

    /// The entry of `hash` once nothing can take it away any more: the
    /// genesis, or a block whose root verdict settled valid.
    pub(crate) fn settled(&self, hash: &BlockHash) -> Option<&Parent> {
        self.states.get(hash).filter(|p| {
            p.root
                .as_ref()
                .is_none_or(|root| root.try_get() == Some(true))
        })
    }

    /// Makes the block of `hash` canonical at its height, dropping the
    /// canonical blocks at and above that height, if its entry settled valid
    /// and its parent is the canonical block one height below. Returns the
    /// block.
    pub(crate) fn adopt(&mut self, hash: &BlockHash) -> Option<Arc<Block>> {
        let block = Arc::clone(&self.settled(hash)?.block);
        let height = usize::try_from(block.height()).ok()?;
        let below = self.canonical.get(height.checked_sub(1)?)?;
        if below.0 != block.header.parent_hash {
            return None;
        }
        self.canonical.truncate(height);
        self.canonical.push((*hash, Arc::clone(&block)));
        Some(block)
    }
}

/// Everything needed to push a prepared block onto the crew. Shared by the
/// validator and the tasks (which release parked children).
pub(crate) struct Starter {
    scheduler: Scheduler,
    crew: Crew,
    pub(crate) index: Mutex<StateIndex>,
}

impl Starter {
    /// A pipeline whose tasks run on the calling thread's current crew (the
    /// process's, outside [`Crew::install`]), grown to `config.workers`.
    /// Its index starts with one entry, the trusted `genesis` on `state`,
    /// canonical at height 0.
    pub(crate) fn new(config: PipelineConfig, genesis: Block, state: WorldState) -> Arc<Self> {
        assert!(config.workers > 0);
        let crew = crew::current();
        crew.reserve(config.workers);
        let (hash, genesis) = (genesis.hash(), Arc::new(genesis));
        let entry = Parent {
            block: Arc::clone(&genesis),
            state: Arc::new(state),
            root: None,
        };
        let index = StateIndex {
            states: HashMap::from([(hash, entry)]),
            waiting: HashMap::new(),
            verdicts: HashMap::new(),
            invalid: HashMap::new(),
            canonical: vec![(hash, genesis)],
        };
        Arc::new(Starter {
            scheduler: Scheduler::new(config.granularity),
            crew,
            index: Mutex::new(index),
        })
    }

    /// Submits a block (preparation phase). Returns immediately; the
    /// outcome arrives through the handle. Blocks whose parent state is not
    /// yet known are parked until the parent is published — and their
    /// verdict waits for the parent's, the paper's cross-height ordering
    /// rule. The execution environment is derived from the block header.
    /// A block submitted again executes once: the second handle gets the
    /// first one's verdict.
    pub(crate) fn submit(self: &Arc<Self>, block: Block) -> ValidationHandle {
        let (hash, parent_hash) = (block.hash(), block.header.parent_hash);
        // One look under the lock decides: a root verdict may un-publish the
        // parent at any moment after it.
        let mut idx = self.index.lock();
        if let Some(handle) = idx.resubmitted(&hash, block.height(), &self.crew) {
            return handle;
        }
        let block = Arc::new(block);
        let (tx, handle) = Verdict::new(&self.crew);
        if idx.invalid.contains_key(&parent_hash) {
            let mut doomed = idx.poison(hash, ValidationError::ParentInvalid);
            drop(idx);
            doomed.push((block, tx));
            reject_descendants(doomed);
            return handle;
        }
        idx.verdicts.insert(hash, Arc::clone(&tx.slot));
        if let Some(parent) = idx.parent(&parent_hash) {
            drop(idx);
            self.start_block(block, tx, parent);
        } else {
            idx.waiting
                .entry(parent_hash)
                .or_default()
                .push((block, tx));
        }
        handle
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
    }
}

/// Sends every block of `doomed` its `ParentInvalid` verdict.
fn reject_descendants(doomed: Vec<Parked>) {
    for (block, verdict) in doomed {
        verdict.send(rejection_outcome(
            block.hash(),
            block.height(),
            ValidationError::ParentInvalid,
        ));
    }
}

// ---------------------------------------------------------------------------
// Transaction-execution phase
// ---------------------------------------------------------------------------

/// A job's view: the pre-block world plus the writes of the job's already
/// executed transactions. Jobs (dependency subgraphs) are conflict-free
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

/// Runs one job — one dependency subgraph's transaction indices, ascending
/// (block order) — and hands back what it did.
fn run_job(task: &BlockTask, txs: &[usize]) -> JobReport {
    let mut report = JobReport::default();
    if txs.is_empty() {
        return report; // a header rejection's or an empty block's one job
    }
    report.start = Some(Instant::now());
    report.outcomes.reserve_exact(txs.len());
    let mut view = JobView {
        base: &task.base,
        overlay: FxHashMap::default(),
        code_overlay: FxHashMap::default(),
    };
    let entries = &task.block.profile.entries;
    for &i in txs {
        // Early abort: a sibling job (or an earlier transaction of this
        // one) found a mismatch — this block can never validate, stop
        // burning threads on it.
        if task.cancelled.load(Ordering::Acquire) {
            break;
        }
        report.executed += 1;
        let abort = match execute_transaction(&view, &task.env, &task.block.transactions[i]) {
            // Overlapped verification (Algorithm 2): check the replayed
            // footprint against the block profile right here, while sibling
            // jobs still execute. The gas and the deployed code are checked
            // too: the fold credited the coinbase with the fees the
            // profile's gas implies, and installed the code it ships.
            Ok(result)
                if task.block.profile.matches(i, &result.rw)
                    && result.receipt.gas_used == entries[i].gas_used
                    && result.deployed == entries[i].code =>
            {
                for (key, value) in &result.rw.writes {
                    view.overlay.insert(*key, *value);
                }
                view.code_overlay.extend(result.deployed);
                report.outcomes.push(TxOutcome {
                    index: i,
                    receipt: result.receipt,
                });
                continue;
            }
            Ok(_) => Abort::Profile,
            Err(TxError::BadNonce { .. } | TxError::InsufficientFunds | TxError::IntrinsicGas) => {
                Abort::Rejected
            }
        };
        report.abort = Some((i, abort));
        task.cancelled.store(true, Ordering::Release);
        break;
    }
    report
}

// ---------------------------------------------------------------------------
// Block-validation + commitment phases (on the finishing task)
// ---------------------------------------------------------------------------

impl Starter {
    /// Preparation phase for a block whose parent state is available:
    /// header checks first (a malformed block is rejected before any
    /// transaction executes), then scheduling, the fold of the profile into
    /// the post-state, job dispatch and the publication of that post-state.
    fn start_block(self: &Arc<Self>, block: Arc<Block>, verdict: Verdict, parent: Parent) {
        let env = BlockEnv {
            coinbase: block.header.coinbase,
            number: block.header.height,
            timestamp: block.header.timestamp,
            gas_limit: block.header.gas_limit,
        };
        let t0 = Instant::now();
        // Cheap header commitments, checked before execution (fail fast):
        // a tampered transaction list or a profile of the wrong length can
        // never validate, so don't spend a single crew task on it.
        let header_error = if block.header.tx_root != tx_root(&block.transactions) {
            Some(ValidationError::TxRootMismatch)
        } else if block.profile.len() != block.transactions.len() {
            Some(ValidationError::ProfileMismatch {
                index: block.profile.len().min(block.transactions.len()),
            })
        } else {
            None
        };
        // Heaviest subgraph first: the crew drains big components early, so
        // stragglers don't trail the block's completion. Header rejections
        // and empty blocks get one empty job, so the commitment bookkeeping
        // (invalid-set insert, parked-children release) stays in one place.
        let mut jobs: Vec<Vec<usize>> = match header_error {
            Some(_) => Vec::new(),
            None => self
                .scheduler
                .subgraphs(&block.profile)
                .into_iter()
                .map(|sg| sg.txs)
                .collect(),
        };
        if jobs.is_empty() {
            jobs.push(Vec::new());
        }
        let post = match header_error {
            Some(_) => None,
            None => Some(Arc::new(fold(parent.state.heir(), &block))),
        };
        let root = Arc::new(RootLatch::new());
        // What the block publishes now, its commit begun first: a child
        // forks the begun commit and never hashes this block's writes.
        let published = post.as_ref().map(|post| {
            post.begin_commit();
            Parent {
                block: Arc::clone(&block),
                state: Arc::clone(post),
                root: Some(Arc::clone(&root)),
            }
        });
        let prepare = t0.elapsed();
        let progress = Progress {
            remaining: jobs.len(),
            done: JobReport {
                outcomes: Vec::with_capacity(block.transactions.len()),
                ..JobReport::default()
            },
        };
        let hash = block.hash();
        let task = Arc::new(BlockTask {
            block,
            base: parent.state,
            post,
            root,
            parent_root: parent.root,
            env,
            header_error,
            progress: Mutex::new(progress),
            cancelled: AtomicBool::new(false),
            verdict,
            prepare,
            submitted: Instant::now(),
        });
        // The root first, then the jobs, then the publication, all under
        // the index lock. The detached lane is FIFO, so every task of a
        // child is taken after this block's root task and jobs were (see
        // `apply_block`). And the block's apply, which may run before the
        // lock is released, cannot un-publish it before it is published,
        // nor hand out a verdict that a lookup then does not find.
        let ready = {
            let mut idx = self.index.lock();
            if let Some(published) = &published {
                let post = Arc::clone(&published.state);
                self.crew.spawn_all([move || {
                    post.state_root();
                }]);
            }
            self.crew.spawn_all(jobs.into_iter().map(|txs| {
                let (task, starter) = (Arc::clone(&task), Arc::clone(self));
                move || {
                    let report = run_job(&task, &txs);
                    // The task that ends a block's last job applies it.
                    let last = task.progress.lock().end_job(report);
                    if last {
                        apply_block(task, &starter);
                    }
                }
            }));
            match &published {
                Some(published) => idx.publish(hash, published.clone()),
                None => Vec::new(),
            }
        };
        if let Some(published) = published {
            self.start_all(ready, &published);
        }
    }

    /// Starts the blocks `ready`, taken out of the index when `parent` was
    /// published.
    fn start_all(self: &Arc<Self>, ready: Vec<Parked>, parent: &Parent) {
        for (block, verdict) in ready {
            self.start_block(block, verdict, parent.clone());
        }
    }
}

/// The post-state `block`'s profile claims: `world`, the parent state,
/// with every entry's writes applied in block order, each entry's code
/// installed after its writes, then the coinbase credited with the fees
/// the entries' gas implies (`gas_used × gas_price` each). Both roles seal
/// through it, and it is the one place where a post-state gets deployed
/// code: the proposer's post-state is this fold of the block it built, and
/// the validator's jobs confirm it, a transaction validating only if its
/// replayed write set, gas and deployed code equal its entry's.
///
/// The fold takes the world it writes by value. The validator hands it an
/// heir of a parent that stays published ([`WorldState::heir`]) — a pointer
/// bump, whatever the number of accounts, which does not wait for the
/// parent's root. The writes copy only the paths of the account map they
/// take, since the parent keeps its accounts; the root takes the parent's
/// tries over once they settled and edits them in place, since the parent
/// keeps only its root. The proposer hands it the parent itself when it
/// held the only handle on it, and the writes, then the root, edit that
/// state in place.
pub(crate) fn fold(mut world: WorldState, block: &Block) -> WorldState {
    let mut fees = U256::ZERO;
    for (entry, tx) in block.profile.entries.iter().zip(&block.transactions) {
        world.apply_writes(&entry.writes);
        for (addr, code) in &entry.code {
            world.set_code(*addr, Arc::clone(code));
        }
        fees += U256::from(u128::from(entry.gas_used) * u128::from(tx.gas_price));
    }
    if !fees.is_zero() {
        let cb = world.balance(&block.header.coinbase);
        world.set_balance(block.header.coinbase, cb + fees);
    }
    world
}

/// Block validation and commitment.
///
/// Every check but the root runs on the jobs' merged reports: a job's
/// abort, the gas and the receipts against the header. The root of the
/// post-state published at preparation is compared against the header —
/// usually hashed already by the block's root task, else hashed here — and
/// the verdict chains on the parent's latch, so an invalid ancestor still
/// poisons every descendant. A failed check un-publishes the block and
/// settles its latch `false`.
///
/// It runs in the crew task that ended the block's last job. Why this
/// cannot deadlock or misorder, on any crew down to one with no helper at
/// all (the crew's first rule: a task blocks only on work already
/// running): every block that reaches its jobs queued its root task, then
/// its jobs, then published, all on the detached lane, which is FIFO. A
/// child starts only from that publication, so any thread that takes one
/// of the child's tasks — its root or its last job, which runs this —
/// took it after the parent's root task and all the parent's jobs were
/// taken. The child's root then waits on the parent's pending commit,
/// which the parent's root task or apply is hashing, and the child's
/// verdict on the parent's latch, which the parent's apply, ending the
/// parent's last job, settles. Whichever of a block's root task and apply
/// comes first hashes the begun commit; the other waits on work already
/// running. A root may fan out into crew tasks of its own;
/// its thread runs any of them no helper took and never a task of another
/// scope (the crew's second rule), so it never picks up a child's task.
/// Those waits chain parent-ward, up published blocks, ending at the
/// trusted genesis (no latch), so the chain always drains — and every
/// verdict, commit publication, and header check still happens after the
/// roots it depends on are known.
fn apply_block(task: Arc<BlockTask>, starter: &Arc<Starter>) {
    let t0 = Instant::now();
    let done = std::mem::take(&mut task.progress.lock().done);
    let exec = done.start.map(|s| t0.duration_since(s)).unwrap_or_default();
    let queue_wait = done
        .start
        .map(|s| s.duration_since(task.submitted))
        .unwrap_or_default();
    let executed_txs = done.executed;
    let block = &task.block;
    let hash = block.hash();
    let result = check(&task, done).and_then(|receipts| {
        let post = task
            .post
            .as_ref()
            .expect("a checked block has a post-state");
        match post.state_root() == block.header.state_root {
            true => Ok((Arc::clone(post), receipts)),
            false => Err(ValidationError::StateRootMismatch),
        }
    });
    let parent_ok = task.parent_root.as_ref().is_none_or(|l| l.wait());
    let (result, post_state, receipts) = match result {
        _ if !parent_ok => (Err(ValidationError::ParentInvalid), None, vec![]),
        Err(e) => (Err(e), None, vec![]),
        Ok((post, receipts)) => (Ok(()), Some(post), receipts),
    };
    // Settle under the index lock, so that a submission of the block finds
    // either its verdict slot or its settled entry. Un-publish a failed
    // block: one removal takes the state and its latch out of the index,
    // and late submitters see the invalid mark. What is parked goes now;
    // in-flight descendants fail through the latch they hold.
    let doomed = {
        let mut idx = starter.index.lock();
        idx.verdicts.remove(&hash);
        let doomed = match &result {
            Ok(()) => Vec::new(),
            Err(error) => {
                idx.states.remove(&hash);
                idx.poison(hash, error.clone())
            }
        };
        task.root.set(result.is_ok());
        doomed
    };
    reject_descendants(doomed);
    task.verdict.send(ValidationOutcome {
        block_hash: hash,
        height: block.height(),
        result,
        post_state,
        receipts,
        timings: StageTimings {
            prepare: task.prepare,
            queue_wait,
            execute: exec,
            validate: t0.elapsed(),
        },
        executed_txs,
        aborted_early: task.cancelled.load(Ordering::Relaxed),
    });
}

/// Block validation: the jobs' merged reports against the header. Each
/// transaction's write set and gas already matched its profile entry inside
/// its job (Algorithm 2); a reported abort short-circuits here. Returns the
/// receipts in block order.
fn check(task: &BlockTask, done: JobReport) -> Result<Vec<Receipt>, ValidationError> {
    let block = &task.block;
    if let Some(err) = &task.header_error {
        return Err(err.clone());
    }
    match done.abort {
        Some((index, Abort::Rejected)) => return Err(ValidationError::TxRejected { index }),
        Some((index, Abort::Profile)) => return Err(ValidationError::ProfileMismatch { index }),
        None => {}
    }
    let mut outcomes = done.outcomes;
    outcomes.sort_unstable_by_key(|o| o.index);
    assert!(
        outcomes
            .iter()
            .map(|o| o.index)
            .eq(0..block.transactions.len()),
        "uncancelled block executed every transaction"
    );
    let mut gas_total: Gas = 0;
    let mut receipts = Vec::with_capacity(block.transactions.len());
    for outcome in outcomes {
        gas_total += outcome.receipt.gas_used;
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
    Ok(receipts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal};
    use crate::Validator;
    use bp_evm::asm::Asm;
    use bp_evm::opcode::Op;
    use bp_evm::Transaction;
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
        let txs = senders
            .map(|i| Transaction::transfer(addr(i), addr(i + 500), U256::from(7u64), nonce, i));
        propose(txs, base, parent, height)
    }

    /// A block on `base` that deploys the counter contract beside a
    /// transfer, and its child, which calls the contract.
    fn deploy_then_call(base: &Arc<WorldState>) -> (Proposal, Proposal) {
        let runtime = bp_evm::contracts::counter();
        // The init code writes the runtime into memory byte by byte and
        // returns it.
        let mut init = Asm::new();
        for (i, byte) in runtime.iter().enumerate() {
            init = init
                .push_u64(u64::from(*byte))
                .push_u64(i as u64)
                .op(Op::MStore8);
        }
        let deploy = Transaction {
            sender: addr(1),
            to: None,
            value: U256::ZERO,
            nonce: 0,
            gas_limit: 2_000_000,
            gas_price: 10,
            data: init
                .push_u64(runtime.len() as u64)
                .push_u64(0)
                .op(Op::Return)
                .build(),
        };
        let transfer = Transaction::transfer(addr(2), addr(3), U256::ONE, 0, 1);
        let parent = propose([deploy, transfer], base, genesis_of(base), 1);
        let contract = bp_evm::create_address(&addr(1), 0);
        let call = Transaction {
            to: Some(contract),
            gas_limit: 200_000,
            data: vec![],
            ..Transaction::transfer(addr(2), contract, U256::ZERO, 1, 1)
        };
        let state = Arc::new(parent.post_state.clone());
        let child = propose([call], &state, parent.block.hash(), 2);
        assert_eq!((parent.block.tx_count(), child.block.tx_count()), (2, 1));
        assert_eq!(
            child.post_state.storage(&contract, &bp_types::H256::ZERO),
            U256::ONE,
            "the child ran the deployed counter"
        );
        (parent, child)
    }

    /// Proposes a block of `txs` on top of `base`.
    fn propose(
        txs: impl IntoIterator<Item = Transaction>,
        base: &Arc<WorldState>,
        parent: BlockHash,
        height: u64,
    ) -> Proposal {
        let pool = TxPool::new();
        for tx in txs {
            pool.add(tx);
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

    /// A crew with no helper — every task runs on a thread in
    /// [`ValidationHandle::wait`] — and the process's crew.
    fn crews() -> [Crew; 2] {
        [Crew::new(0), Crew::global().clone()]
    }

    /// The hash of the genesis block a validator on `world` starts from.
    fn genesis_of(world: &WorldState) -> BlockHash {
        bp_block::genesis_header(world.state_root()).hash()
    }

    fn validator_on(workers: usize, world: &Arc<WorldState>) -> (Validator, BlockHash) {
        let config = PipelineConfig {
            workers,
            granularity: ConflictGranularity::Account,
        };
        let validator = Validator::new(config, WorldState::clone(world));
        let genesis = validator.genesis_hash();
        (validator, genesis)
    }

    #[test]
    fn validates_honest_block() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(4, &world);
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = validator.receive_block(proposal.block.clone()).wait();
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(
            outcome.post_state.unwrap().state_root(),
            proposal.post_state.state_root()
        );
        assert_eq!(outcome.receipts.len(), proposal.block.tx_count());
        assert_eq!(outcome.executed_txs, proposal.block.tx_count());
        assert!(!outcome.aborted_early);
    }

    #[test]
    fn the_coinbase_inside_a_footprint_seals_and_validates_to_the_serial_root() {
        // One transaction pays the coinbase, then the coinbase — funded by
        // it alone — sends one of its own: an entry writes the coinbase's
        // balance, and the fold credits the block's fees on top of it.
        let coinbase = addr(900);
        let world = Arc::new(funded_world(2));
        let env = BlockEnv {
            coinbase,
            number: 1,
            ..BlockEnv::default()
        };
        for crew in crews() {
            let pool = TxPool::new();
            pool.add(Transaction::transfer(
                addr(1),
                coinbase,
                U256::from(1_000_000u64),
                0,
                3,
            ));
            pool.add(Transaction::transfer(
                coinbase,
                addr(2),
                U256::from(1_000u64),
                0,
                2,
            ));
            let proposer = OccWsiProposer::new(OccWsiConfig {
                threads: 2,
                env,
                ..Default::default()
            });
            let (validator, genesis) = crew.install(|| validator_on(2, &world));
            let mut block = crew
                .install(|| proposer.propose(&pool, Arc::clone(&world), genesis, 1))
                .block;
            assert_eq!(block.tx_count(), 2);
            assert_eq!(block.transactions[1].sender, coinbase);
            let serial = bp_baseline::execute_block_serially(&world, &env, &block.transactions)
                .expect("the block replays serially")
                .post_state
                .state_root();
            // The validator judges the block against the serial root, so its
            // own fold is checked whatever the proposer sealed, and a failure
            // shows both roles.
            let sealed = std::mem::replace(&mut block.header.state_root, serial);
            let outcome = crew.install(|| validator.receive_block(block).wait());
            let validated = outcome.post_state.map(|post| post.state_root());
            assert_eq!(
                (sealed, outcome.result, validated),
                (serial, Ok(()), Some(serial)),
                "(the proposer's seal, the validator's verdict, its root)"
            );
        }
    }

    #[test]
    fn rejects_tampered_state_root() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let outcome = validator.receive_block(proposal.block).wait();
        assert_eq!(outcome.result, Err(ValidationError::StateRootMismatch));
    }

    #[test]
    fn rejects_tampered_profile() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        // Corrupt one profiled write value: the replayed footprint diverges.
        let entry = &mut proposal.block.profile.entries[0];
        let key = *entry.writes.keys().next().unwrap();
        entry.writes.insert(key, U256::from(123_456u64));
        let outcome = validator.receive_block(proposal.block).wait();
        assert_eq!(
            outcome.result,
            Err(ValidationError::ProfileMismatch { index: 0 })
        );
        assert!(outcome.aborted_early);
    }

    #[test]
    fn rejects_tampered_tx_list_without_executing() {
        let world = Arc::new(funded_world(10));
        let mut proposal = propose_transfers(&world, genesis_of(&world), 1, 1..5, 0);
        proposal.block.transactions.swap(0, 1);
        // No helper too: the rejection's one empty job is applied by the
        // waiting thread that runs it.
        for crew in crews() {
            let (validator, _) = crew.install(|| validator_on(2, &world));
            let outcome = validator.receive_block(proposal.block.clone()).wait();
            assert_eq!(outcome.result, Err(ValidationError::TxRootMismatch));
            // Fail fast: the header check runs at preparation, so not a
            // single transaction of the doomed block reaches a worker.
            assert_eq!(outcome.executed_txs, 0);
        }
    }

    #[test]
    fn rejects_truncated_profile_without_executing() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.profile.entries.pop();
        let outcome = validator.receive_block(proposal.block).wait();
        assert!(matches!(
            outcome.result,
            Err(ValidationError::ProfileMismatch { .. })
        ));
        assert_eq!(outcome.executed_txs, 0);
    }

    #[test]
    fn rejects_tampered_gas() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.header.gas_used += 1;
        let outcome = validator.receive_block(proposal.block).wait();
        assert!(matches!(
            outcome.result,
            Err(ValidationError::GasMismatch { .. })
        ));
    }

    #[test]
    fn early_abort_stops_remaining_subgraph_jobs() {
        // With no helper, the waiting thread drains the subgraph jobs
        // sequentially; tampering the first-dispatched subgraph's
        // transaction must cancel the rest of the block before it executes.
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = Crew::new(0).install(|| validator_on(1, &world));
        let mut proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let n = proposal.block.tx_count();
        // Equal-gas singleton subgraphs dispatch ascending by first member,
        // so tx 0 executes first on the single thread.
        let entry = &mut proposal.block.profile.entries[0];
        let key = *entry.writes.keys().next().unwrap();
        entry.writes.insert(key, U256::from(0xBAD_u64));
        let outcome = validator.receive_block(proposal.block).wait();
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
    }

    #[test]
    fn same_height_blocks_validate_concurrently() {
        let world = Arc::new(funded_world(20));
        let (validator, genesis) = validator_on(4, &world);
        // Two competing proposals at height 1 from different tx subsets.
        let block_a = propose_transfers(&world, genesis, 1, 1..10, 0).block;
        let mut b = propose_transfers(&world, genesis, 1, 10..20, 0);
        b.block.header.proposer_seed = 99;
        let block_b = b.block;
        assert_ne!(block_a.hash(), block_b.hash());
        let ha = validator.receive_block(block_a);
        let hb = validator.receive_block(block_b);
        let oa = ha.wait();
        let ob = hb.wait();
        assert!(oa.is_valid(), "{:?}", oa.result);
        assert!(ob.is_valid(), "{:?}", ob.result);
    }

    #[test]
    fn child_waits_for_parent_and_completes() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(4, &world);
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
        let hc = validator.receive_block(child.block.clone());
        let hp = validator.receive_block(parent.block.clone());
        assert!(hp.wait().is_valid());
        let oc = hc.wait();
        assert!(oc.is_valid(), "{:?}", oc.result);
        assert_eq!(
            oc.post_state.unwrap().state_root(),
            child.post_state.state_root()
        );
    }

    #[test]
    fn child_of_invalid_parent_is_rejected() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
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
        let hc = validator.receive_block(child.block);
        let hp = validator.receive_block(parent.block);
        assert!(!hp.wait().is_valid());
        assert_eq!(hc.wait().result, Err(ValidationError::ParentInvalid));
    }

    #[test]
    fn rejection_reaches_descendants_parked_behind_parked_blocks() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let mut b1 = propose_transfers(&world, genesis, 1, 1..5, 0);
        b1.block.header.gas_used += 1; // fails before anything is published
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..5, 1);
        let s2 = Arc::new(b2.post_state.clone());
        let b3 = propose_transfers(&s2, b2.block.hash(), 3, 1..5, 2);
        let s3 = Arc::new(b3.post_state.clone());
        let b4 = propose_transfers(&s3, b3.block.hash(), 4, 1..5, 3);
        // Deepest first: each parks on a parent that is itself parked. The
        // great-grandchild comes late, after its parent was turned away
        // while parked.
        let h3 = validator.receive_block(b3.block);
        let h2 = validator.receive_block(b2.block);
        let h1 = validator.receive_block(b1.block);
        assert!(matches!(
            h1.wait().result,
            Err(ValidationError::GasMismatch { .. })
        ));
        assert_eq!(h2.wait().result, Err(ValidationError::ParentInvalid));
        assert_eq!(h3.wait().result, Err(ValidationError::ParentInvalid));
        assert_eq!(
            validator.receive_block(b4.block).wait().result,
            Err(ValidationError::ParentInvalid)
        );
    }

    #[test]
    fn empty_block_validates() {
        let world = Arc::new(funded_world(2));
        let proposal = propose_transfers(&world, genesis_of(&world), 1, 1..1, 0); // no txs
        assert_eq!(proposal.block.tx_count(), 0);
        for crew in crews() {
            let (validator, _) = crew.install(|| validator_on(2, &world));
            let outcome = validator.receive_block(proposal.block.clone()).wait();
            assert!(outcome.is_valid(), "{:?}", outcome.result);
            assert_eq!(outcome.executed_txs, 0);
        }
    }

    #[test]
    fn chain_validates_in_any_submit_order() {
        let world = Arc::new(funded_world(10));
        let mut chain = Vec::new();
        let mut base = Arc::clone(&world);
        let mut parent = genesis_of(&world);
        for height in 1..=4 {
            let p = propose_transfers(&base, parent, height, 1..8, height - 1);
            parent = p.block.hash();
            base = Arc::new(p.post_state.clone());
            chain.push(p);
        }
        // Deepest first (every child parks), in order (a child may find its
        // parent published with the root still hashing), and mixed — with
        // no helper, where the waiting thread must apply each block it
        // finishes and still drain the chain, and on the process's crew
        // grown to three.
        for (workers, crew, order) in crews().into_iter().zip([1, 3]).flat_map(|(crew, w)| {
            [[3, 2, 1, 0], [0, 1, 2, 3], [2, 0, 3, 1]].map(|o| (w, crew.clone(), o))
        }) {
            let (validator, _) = crew.install(|| validator_on(workers, &world));
            let mut handles: Vec<_> = order
                .iter()
                .map(|&i| (i, validator.receive_block(chain[i].block.clone())))
                .collect();
            handles.sort_by_key(|(i, _)| *i);
            for (i, handle) in handles {
                let outcome = handle.wait();
                assert!(
                    outcome.is_valid(),
                    "{workers} workers, {order:?}: {:?}",
                    outcome.result
                );
                assert_eq!(
                    outcome.post_state.unwrap().state_root(),
                    chain[i].post_state.state_root(),
                    "{workers} workers, {order:?}"
                );
            }
        }
    }

    #[test]
    fn a_block_is_published_at_preparation_and_settled_by_its_verdict() {
        let world = Arc::new(funded_world(10));
        let b1 = propose_transfers(&world, genesis_of(&world), 1, 1..5, 0);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..5, 1);
        // A block that deploys code publishes the same way: the child that
        // calls the new contract starts on the code its profile shipped.
        let (d1, d2) = deploy_then_call(&world);
        for ((b1, b2), crew) in [(&b1, &b2), (&d1, &d2)]
            .into_iter()
            .flat_map(|pair| crews().map(|crew| (pair, crew)))
        {
            let (h1, h2) = (b1.block.hash(), b2.block.hash());
            let (validator, _) = crew.install(|| validator_on(1, &world));
            // The block's post-state is indexed when `submit` returns, and
            // its child starts instead of parking.
            let handle1 = validator.receive_block(b1.block.clone());
            let handle2 = validator.receive_block(b2.block.clone());
            {
                let idx = validator.pipeline.index.lock();
                assert!(idx.states.contains_key(&h1) && idx.states.contains_key(&h2));
                assert!(idx.waiting.is_empty());
            }
            // With no helper nothing has run yet, and no lookup answers for
            // a block before its verdict.
            if crew.helpers() == 0 {
                assert!(validator.state_of(&h1).is_none() && validator.state_of(&h2).is_none());
            }
            // The child's verdict first: with no helper, the waiting thread
            // runs the parent's root and jobs, queued ahead of the child's.
            let o2 = handle2.wait();
            assert!(o2.is_valid(), "{:?}", o2.result);
            assert_eq!(
                o2.post_state.unwrap().state_root(),
                b2.post_state.state_root()
            );
            assert!(handle1.wait().is_valid());
            assert!(validator.state_of(&h1).is_some() && validator.state_of(&h2).is_some());
            assert!(validator.pipeline.index.lock().verdicts.is_empty());
        }
    }

    #[test]
    fn rejects_tampered_root_with_descendants_in_flight() {
        for crew in crews() {
            rejects_tampered_root_with_descendants_in_flight_on(&crew);
        }
    }

    fn rejects_tampered_root_with_descendants_in_flight_on(crew: &Crew) {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = crew.install(|| validator_on(2, &world));
        let mut b1 = propose_transfers(&world, genesis, 1, 1..5, 0);
        b1.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let s1 = Arc::new(b1.post_state.clone());
        let b2 = propose_transfers(&s1, b1.block.hash(), 2, 1..5, 1);
        let s2 = Arc::new(b2.post_state.clone());
        // The grandchild's own root is wrong as well: its verdict must still
        // name the ancestor, not its own root.
        let mut b3 = propose_transfers(&s2, b2.block.hash(), 3, 1..5, 2);
        b3.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let h2 = validator.receive_block(b2.block.clone());
        let h3 = validator.receive_block(b3.block.clone());
        let h1 = validator.receive_block(b1.block.clone());
        assert_eq!(h1.wait().result, Err(ValidationError::StateRootMismatch));
        // The child is released before the parent's root settles — its
        // verdict must still be ParentInvalid, and the grandchild's too,
        // whether it executed or parked.
        assert_eq!(h2.wait().result, Err(ValidationError::ParentInvalid));
        assert_eq!(h3.wait().result, Err(ValidationError::ParentInvalid));
        // The tampered subtree never becomes visible state.
        for rejected in [&b1, &b2, &b3] {
            assert!(validator.state_of(&rejected.block.hash()).is_none());
        }
        // A late arrival on the rejected subtree is turned away at the door.
        let late = propose_transfers(&s1, b1.block.hash(), 2, 5..8, 0);
        assert_eq!(
            validator.receive_block(late.block).wait().result,
            Err(ValidationError::ParentInvalid)
        );
    }

    #[test]
    fn a_rejected_block_received_again_is_answered_at_once() {
        // No helper: nothing runs but on a waiting thread, so a second
        // submission that started the block again would show in the index.
        let crew = Crew::new(0);
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = crew.install(|| validator_on(1, &world));
        let mut proposal = propose_transfers(&world, genesis, 1, 1..5, 0);
        proposal.block.header.state_root = bp_types::H256::from_low_u64(0xBAD);
        let (block, hash) = (proposal.block.clone(), proposal.block.hash());
        let first = validator.receive_block(block.clone()).wait();
        assert_eq!(first.result, Err(ValidationError::StateRootMismatch));
        assert_eq!(first.executed_txs, block.tx_count());
        let again = validator.receive_block(block.clone());
        {
            let idx = validator.pipeline.index.lock();
            assert!(!idx.states.contains_key(&hash) && !idx.verdicts.contains_key(&hash));
        }
        let second = again.wait();
        assert_eq!(second.result, Err(ValidationError::StateRootMismatch));
        assert_eq!(second.executed_txs, 0);
        assert!(validator.state_of(&hash).is_none());
        // Its child is turned away as before.
        let s1 = Arc::new(proposal.post_state.clone());
        let child = propose_transfers(&s1, hash, 2, 1..5, 1);
        assert_eq!(
            validator.receive_block(child.block).wait().result,
            Err(ValidationError::ParentInvalid)
        );
    }

    /// Three ended jobs, merged in each of the six orders they can end in.
    #[test]
    fn end_job_merges_reports_in_any_order() {
        let t0 = Instant::now();
        let outcome = |index| TxOutcome {
            index,
            receipt: Receipt {
                success: true,
                gas_used: 21_000,
                output: vec![],
                logs: vec![],
                fee: U256::ZERO,
                created: None,
            },
        };
        let reports = || {
            [
                JobReport {
                    start: Some(t0 + Duration::from_millis(2)),
                    executed: 4,
                    outcomes: vec![outcome(2), outcome(4)],
                    abort: Some((3, Abort::Profile)),
                },
                JobReport {
                    start: Some(t0 + Duration::from_millis(1)),
                    executed: 2,
                    outcomes: vec![outcome(0)],
                    abort: Some((1, Abort::Rejected)),
                },
                JobReport {
                    start: Some(t0),
                    executed: 2,
                    outcomes: vec![outcome(5), outcome(6)],
                    abort: None,
                },
            ]
        };
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut reports = reports().map(Some);
            let mut progress = Progress {
                remaining: 3,
                done: JobReport::default(),
            };
            let ended: Vec<bool> = order
                .iter()
                .map(|&j| progress.end_job(reports[j].take().unwrap()))
                .collect();
            assert_eq!(ended, [false, false, true], "{order:?}");
            let done = progress.done;
            assert_eq!(done.abort, Some((1, Abort::Rejected)), "{order:?}");
            assert_eq!(done.start, Some(t0), "{order:?}");
            assert_eq!(done.executed, 8, "{order:?}");
            let mut indices: Vec<usize> = done.outcomes.iter().map(|o| o.index).collect();
            indices.sort_unstable();
            assert_eq!(indices, [0, 2, 4, 5, 6], "{order:?}");
        }
    }

    #[test]
    fn timings_are_recorded() {
        let world = Arc::new(funded_world(10));
        let (validator, genesis) = validator_on(2, &world);
        let proposal = propose_transfers(&world, genesis, 1, 1..9, 0);
        let outcome = validator.receive_block(proposal.block).wait();
        assert!(outcome.is_valid());
        // Execution of 8 transfers takes nonzero wall time.
        assert!(outcome.timings.execute > Duration::ZERO);
    }
}
