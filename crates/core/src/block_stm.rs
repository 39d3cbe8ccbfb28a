//! Block-STM: the proposer's dynamic re-execution engine (the A/B
//! alternative to [`crate::occ_wsi`], selected by [`ProposerAlgo`]).
//!
//! Where OCC-WSI discards an aborted execution and re-queues the
//! transaction behind a fresh snapshot, Block-STM (Gelashvili et al.) fixes
//! a **preset order** over the block's candidates up front and executes
//! *incarnations* against a multi-version memory
//! ([`bp_state::MvMemory`]):
//!
//! * a read by transaction `j` resolves to the highest-index write below
//!   `j`, so the converged run is exactly the serial execution of the
//!   preset order;
//! * a validation abort does not delete the stale writes — it flags them as
//!   **ESTIMATE** markers (dependency estimation seeded from the prior
//!   abort's write set). A later transaction that reads one learns *which*
//!   transaction it must wait for ([`bp_concurrent::StmScheduler::add_dependency`])
//!   instead of executing blind, failing validation and retrying;
//! * the collaborative scheduler ([`bp_concurrent::StmScheduler`]) hands out
//!   execution and validation tasks over two decrease-only watermarks and
//!   detects convergence by counter stability.
//!
//! One engine-specific deviation from the original algorithm: a validation
//! that lands on an ESTIMATE **soft-passes** (counted as
//! `wait_on_estimate`) instead of aborting the reader — the paper's
//! "suspend dependents, don't kill them" rule applied to validation. This
//! is sound because every re-execution finishes with
//! `revalidate_suffix = true` (see [`bp_concurrent::StmScheduler::finish_execution`]),
//! so the deferred verdict is always re-checked once the writer lands.
//!
//! Sealing takes the longest preset **prefix** that fits the gas limit:
//! later speculative results assumed every predecessor's effects, so the
//! block cannot skip a non-fitting transaction and keep its successors
//! (unlike OCC-WSI, whose commit order is discovered dynamically). Failed
//! candidates (bad nonce, no funds) wrote nothing and are simply dropped
//! from the body; everything past the cut returns to the pool untouched.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bp_block::{receipts_root, tx_root, Block, BlockHeader, BlockProfile, TxProfile};
use bp_concurrent::sync::Mutex;
use bp_concurrent::{StmScheduler, StmTask};
use bp_evm::{
    execute_transaction_in, AnalysisCache, ExecutionResult, StateView, Transaction, TxError,
};
use bp_state::ReadValidation;
use bp_state::{MvMemory, MvRead, ReadOrigin, WorldState};
use bp_txpool::TxPool;
use bp_types::{AccessKey, Address, BlockHash, Height, U256};

use crate::occ_wsi::{OccWsiConfig, Proposal, ProposerStats, WorkerStats};

/// Which parallel execution engine the proposer runs (the A/B knob; see
/// `proposer_baseline` in `bp-bench` for the sweep).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProposerAlgo {
    /// OCC with write-snapshot isolation and discard-and-retry aborts
    /// (Algorithm 1; [`crate::occ_wsi::OccWsiProposer`]).
    #[default]
    OccWsi,
    /// Block-STM: preset order, multi-version memory with ESTIMATE markers,
    /// cooperative dependency-aware re-execution ([`BlockStmProposer`]).
    BlockStm,
}

/// How many transactions one pool-lock acquisition checks out while
/// draining the candidate prefix.
const DRAIN_BATCH: usize = 32;

/// The candidate drain stops once the summed *declared* gas
/// (`tx.gas_limit`) reaches this multiple of the block gas limit: declared
/// gas upper-bounds used gas, so the slack keeps the block full even when
/// transactions use far less than they declare. Over-drained candidates
/// return to the pool at seal time.
const DRAIN_GAS_HEADROOM: u64 = 2;

/// The Block-STM proposer engine.
pub struct BlockStmProposer {
    config: OccWsiConfig,
    /// Code-analysis cache shared across every block this proposer packs.
    cache: Arc<AnalysisCache>,
}

/// The [`StateView`] one incarnation executes against: reads resolve
/// through the multi-version memory at the transaction's preset index and
/// are recorded (with their [`ReadOrigin`]) for later validation.
///
/// [`StateView::read_key`] is infallible, so a read that lands on an
/// ESTIMATE cannot suspend mid-execution: the view notes the blocking
/// writer in `blocked_on`, serves the stale fallback value, and the worker
/// discards the whole execution afterwards — the incarnation re-runs once
/// the writer finishes. Every view-level read is recorded (the host may
/// consult the view more than once per key as the memory changes
/// underneath), and validation re-checks each one.
struct StmView<'a> {
    mv: &'a MvMemory,
    tx: u32,
    reads: RefCell<Vec<(AccessKey, ReadOrigin)>>,
    blocked_on: Cell<Option<u32>>,
}

impl StateView for StmView<'_> {
    fn read_key(&self, key: &AccessKey) -> (U256, u64) {
        match self.mv.read(key, self.tx) {
            MvRead::Value { value, origin } => {
                self.reads.borrow_mut().push((*key, origin));
                // Version surfaced to the host: the writer's index + 1 (0 =
                // pre-block), mirroring OCC's commit-version convention so
                // profile read-version fields stay meaningful.
                let version = match origin {
                    ReadOrigin::Base => 0,
                    ReadOrigin::Version { tx, .. } => tx as u64 + 1,
                };
                (value, version)
            }
            MvRead::Estimate { writer, fallback } => {
                self.blocked_on.set(Some(writer));
                (fallback, 0)
            }
        }
    }

    fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        // Code identity is covered by the AccessKey::Code read the host
        // records around this call; no separate origin tracking needed.
        self.mv.code_at(addr, self.tx)
    }
}

/// State shared by the workers of one Block-STM run.
struct StmShared<'a> {
    mv: &'a MvMemory,
    sched: &'a StmScheduler,
    txs: &'a [Transaction],
    /// Latest incarnation's outcome per preset index; the seal walk takes
    /// them after convergence.
    results: &'a [Mutex<Option<Result<ExecutionResult, TxError>>>],
    executions: &'a AtomicU64,
    first_aborts: &'a AtomicU64,
    retry_aborts: &'a AtomicU64,
    validation_failures: &'a AtomicU64,
    wait_on_estimate: &'a AtomicU64,
}

impl BlockStmProposer {
    /// An engine with the given configuration, sharing the process-wide
    /// analysis cache. (`config.commit_path` is OCC-specific and ignored.)
    pub fn new(config: OccWsiConfig) -> Self {
        Self::with_cache(config, AnalysisCache::global())
    }

    /// An engine with a dedicated analysis cache.
    pub fn with_cache(config: OccWsiConfig, cache: Arc<AnalysisCache>) -> Self {
        assert!(config.threads > 0, "need at least one worker");
        BlockStmProposer { config, cache }
    }

    /// The configuration.
    pub fn config(&self) -> &OccWsiConfig {
        &self.config
    }

    /// The code-analysis cache this engine's workers execute against.
    pub fn analysis_cache(&self) -> &Arc<AnalysisCache> {
        &self.cache
    }

    /// Packs and seals the next block: drains a candidate prefix from
    /// `pool` (preset order = pool priority order), runs Block-STM over it,
    /// and seals the longest converged prefix that fits the gas limit.
    ///
    /// Per-sender nonce chains span *blocks*, not one block: the pool only
    /// exposes each sender's lowest pending nonce until it commits, so a
    /// single drain checks out at most one transaction per sender.
    pub fn propose(
        &self,
        pool: &TxPool,
        parent_state: Arc<WorldState>,
        parent: BlockHash,
        height: Height,
    ) -> Proposal {
        // ---- Drain the candidate prefix (the preset order). ----
        let mut candidates: Vec<Transaction> = Vec::new();
        let gas_target = self.config.gas_limit.saturating_mul(DRAIN_GAS_HEADROOM);
        let mut drained_gas: u64 = 0;
        'drain: loop {
            let batch = pool.pop_many(DRAIN_BATCH);
            if batch.is_empty() {
                break;
            }
            let mut batch = batch.into_iter();
            for tx in batch.by_ref() {
                drained_gas += tx.gas_limit;
                candidates.push(tx);
                if drained_gas >= gas_target
                    || (self.config.max_txs > 0 && candidates.len() >= self.config.max_txs)
                {
                    // Checked-out leftovers go straight back to the pool.
                    for rest in batch {
                        pool.push_back(&rest);
                    }
                    break 'drain;
                }
            }
        }
        let n = candidates.len();

        let mv = MvMemory::new(Arc::clone(&parent_state), n, self.config.threads);
        let sched = StmScheduler::new(n);
        let results: Vec<Mutex<Option<Result<ExecutionResult, TxError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let executions = AtomicU64::new(0);
        let first_aborts = AtomicU64::new(0);
        let retry_aborts = AtomicU64::new(0);
        let validation_failures = AtomicU64::new(0);
        let wait_on_estimate = AtomicU64::new(0);
        let shared = StmShared {
            mv: &mv,
            sched: &sched,
            txs: &candidates,
            results: &results,
            executions: &executions,
            first_aborts: &first_aborts,
            retry_aborts: &retry_aborts,
            validation_failures: &validation_failures,
            wait_on_estimate: &wait_on_estimate,
        };

        let threads = self.config.threads.min(n.max(1));
        let started = Instant::now();
        let cache_base = self.cache.stats();
        let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| self.worker(&shared)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let wall_micros = started.elapsed().as_micros() as u64;
        let cache_delta = self.cache.stats().since(&cache_base);
        debug_assert!(sched.is_done());

        // ---- Seal: the longest preset prefix that fits. ----
        let mut txs_out: Vec<Transaction> = Vec::new();
        let mut receipts: Vec<bp_evm::Receipt> = Vec::new();
        let mut profile = BlockProfile::default();
        let mut gas_used: u64 = 0;
        let mut discarded: u64 = 0;
        let mut cut = 0usize;
        while cut < n {
            let result = results[cut]
                .lock()
                .take()
                .expect("scheduler converged: every candidate has a result");
            match result {
                Err(_) => {
                    // Wrote nothing (the engine records an empty write set
                    // for failed candidates), so dropping it from the body
                    // does not disturb the prefix's state.
                    discarded += 1;
                    pool.discard(&candidates[cut]);
                }
                Ok(res) => {
                    if gas_used + res.receipt.gas_used > self.config.gas_limit
                        || (self.config.max_txs > 0 && txs_out.len() >= self.config.max_txs)
                    {
                        // Prefix rule: this result (and every later one)
                        // assumed all predecessors' effects; none of them
                        // can be included once one is cut.
                        break;
                    }
                    gas_used += res.receipt.gas_used;
                    profile.push(TxProfile::from_rw(&res.rw, res.receipt.gas_used));
                    txs_out.push(candidates[cut].clone());
                    receipts.push(res.receipt);
                    pool.commit(&candidates[cut]);
                }
            }
            cut += 1;
        }
        for tx in &candidates[cut..] {
            pool.push_back(tx);
        }

        let mut post_state = mv.materialize(cut as u32);
        let fees: U256 = receipts.iter().map(|r| r.fee).sum();
        if !fees.is_zero() {
            let coinbase = self.config.env.coinbase;
            let bal = post_state.balance(&coinbase);
            post_state.set_balance(coinbase, bal + fees);
        }

        let header = BlockHeader {
            parent_hash: parent,
            height,
            state_root: post_state.state_root(),
            tx_root: tx_root(&txs_out),
            receipts_root: receipts_root(&receipts),
            gas_used,
            gas_limit: self.config.gas_limit,
            coinbase: self.config.env.coinbase,
            timestamp: self.config.env.timestamp,
            proposer_seed: self.config.env.number,
        };

        let first = first_aborts.load(Ordering::Acquire);
        let retry = retry_aborts.load(Ordering::Acquire);
        let committed = txs_out.len() as u64;
        Proposal {
            block: Block {
                header,
                transactions: txs_out,
                profile,
            },
            receipts,
            post_state,
            stats: ProposerStats {
                committed,
                aborts: first + retry,
                discarded,
                executions: executions.load(Ordering::Acquire),
                wall_micros,
                analysis_hits: cache_delta.hits,
                analysis_misses: cache_delta.misses,
                first_aborts: first,
                retry_aborts: retry,
                validation_failures: validation_failures.load(Ordering::Acquire),
                wait_on_estimate: wait_on_estimate.load(Ordering::Acquire),
                workers: worker_stats,
            },
        }
    }

    /// The worker loop: pull tasks until the scheduler converges. For this
    /// engine's [`WorkerStats`], `aborts` counts validation aborts this
    /// worker performed and `retries` counts re-executions (incarnation
    /// above 0) it ran; `committed` is left 0 (commit order is the preset
    /// order, not worker-attributed).
    fn worker(&self, s: &StmShared<'_>) -> WorkerStats {
        let mut stats = WorkerStats::default();
        let mut task: Option<StmTask> = None;
        loop {
            let t = match task.take() {
                Some(t) => t,
                None => s.sched.next_task(),
            };
            match t {
                StmTask::Done => return stats,
                StmTask::Execute { tx, incarnation } => {
                    task = self.run_execute(s, tx, incarnation, &mut stats);
                }
                StmTask::Validate { tx, incarnation } => {
                    task = self.run_validate(s, tx, incarnation, &mut stats);
                }
            }
        }
    }

    /// Runs one incarnation. A read that hit an ESTIMATE discards the
    /// execution and either suspends on the writer or (if the writer
    /// already landed) re-runs immediately.
    fn run_execute(
        &self,
        s: &StmShared<'_>,
        tx: usize,
        incarnation: u32,
        stats: &mut WorkerStats,
    ) -> Option<StmTask> {
        loop {
            s.executions.fetch_add(1, Ordering::Relaxed);
            if incarnation > 0 {
                stats.retries += 1;
            }
            let view = StmView {
                mv: s.mv,
                tx: tx as u32,
                reads: RefCell::new(Vec::new()),
                blocked_on: Cell::new(None),
            };
            let exec = execute_transaction_in(&self.cache, &view, &self.config.env, &s.txs[tx]);
            if let Some(writer) = view.blocked_on.get() {
                s.wait_on_estimate.fetch_add(1, Ordering::Relaxed);
                if s.sched.add_dependency(tx, writer as usize) {
                    // Suspended; the writer's finish re-opens this index.
                    return None;
                }
                // The writer finished while we executed: retry now.
                continue;
            }
            let reads = view.reads.into_inner();
            let wrote_new = match &exec {
                Ok(res) => s.mv.record(
                    tx as u32,
                    incarnation,
                    reads,
                    &res.rw.writes,
                    res.deployed.iter().map(|(a, c)| (*a, Arc::clone(c))),
                ),
                // Failed candidates have exact, tiny read sets (nonce,
                // balance) and no writes; recording the empty write set
                // clears any previous incarnation's stale entries.
                Err(_) => s.mv.record(
                    tx as u32,
                    incarnation,
                    reads,
                    &Default::default(),
                    std::iter::empty(),
                ),
            };
            *s.results[tx].lock() = Some(exec);
            // Re-executions must force a suffix revalidation even without a
            // new location: validations that soft-passed on this
            // transaction's ESTIMATEs (SawEstimate) carry deferred verdicts
            // that only a fresh pass settles.
            return s
                .sched
                .finish_execution(tx, incarnation, wrote_new || incarnation > 0);
        }
    }

    /// Re-validates a recorded read set.
    fn run_validate(
        &self,
        s: &StmShared<'_>,
        tx: usize,
        incarnation: u32,
        stats: &mut WorkerStats,
    ) -> Option<StmTask> {
        match s.mv.validate_reads(tx as u32) {
            ReadValidation::Valid => s.sched.finish_validation(tx, false),
            ReadValidation::SawEstimate => {
                // The writer is mid-re-execution; its finish forces a fresh
                // suffix pass, so the verdict is safely deferred.
                s.wait_on_estimate.fetch_add(1, Ordering::Relaxed);
                s.sched.finish_validation(tx, false)
            }
            ReadValidation::Invalid => {
                if s.sched.try_validation_abort(tx, incarnation) {
                    s.mv.convert_to_estimates(tx as u32);
                    s.validation_failures.fetch_add(1, Ordering::Relaxed);
                    if incarnation == 0 {
                        s.first_aborts.fetch_add(1, Ordering::Relaxed);
                    } else {
                        s.retry_aborts.fetch_add(1, Ordering::Relaxed);
                    }
                    stats.aborts += 1;
                    s.sched.finish_validation(tx, true)
                } else {
                    // A newer incarnation exists; its own validation is
                    // already scheduled.
                    s.sched.finish_validation(tx, false)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_evm::contracts;
    use bp_types::Address;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn funded_world(accounts: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=accounts {
            w.set_balance(addr(i), U256::from(1_000_000_000u64));
        }
        w
    }

    fn engine(threads: usize) -> BlockStmProposer {
        BlockStmProposer::new(OccWsiConfig {
            threads,
            ..OccWsiConfig::default()
        })
    }

    /// Serial replay of the block order over the base state (the
    /// serializability witness, identical to the OCC-WSI test helper).
    fn serial_replay(
        block: &Block,
        base: &WorldState,
        env: &bp_evm::BlockEnv,
    ) -> (WorldState, Vec<bp_evm::Receipt>) {
        let mut world = base.clone();
        let mut fees = U256::ZERO;
        let mut receipts = Vec::new();
        for tx in &block.transactions {
            let view = bp_evm::WorldView::new(&world);
            let result = bp_evm::execute_transaction(&view, env, tx).expect("replay must accept");
            world.apply_writes(&result.rw.writes);
            for (a, code) in &result.deployed {
                world.set_code(*a, (**code).clone());
            }
            fees += result.receipt.fee;
            receipts.push(result.receipt);
        }
        let cb = world.balance(&env.coinbase);
        world.set_balance(env.coinbase, cb + fees);
        (world, receipts)
    }

    #[test]
    fn disjoint_transfers_commit_and_replay() {
        let world = Arc::new(funded_world(20));
        let pool = TxPool::new();
        for i in 1..=10u64 {
            pool.add(Transaction::transfer(
                addr(i),
                addr(i + 10),
                U256::from(5u64),
                0,
                i,
            ));
        }
        let p = engine(4);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 10);
        assert_eq!(proposal.stats.committed, 10);
        assert!(pool.is_empty());
        let (replay, receipts) = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
        assert_eq!(proposal.block.header.state_root, replay.state_root());
        assert_eq!(receipts, proposal.receipts, "receipts bit-identical");
    }

    #[test]
    fn conflicting_counter_calls_converge_to_the_preset_order() {
        let mut w = funded_world(20);
        let c = addr(100);
        w.set_code(c, contracts::counter());
        let world = Arc::new(w);
        let pool = TxPool::new();
        for i in 1..=8u64 {
            pool.add(Transaction {
                sender: addr(i),
                to: Some(c),
                value: U256::ZERO,
                nonce: 0,
                gas_limit: 200_000,
                gas_price: 1,
                data: vec![],
            });
        }
        let p = engine(4);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 8);
        assert_eq!(
            proposal
                .post_state
                .storage(&c, &bp_types::H256::from_low_u64(0)),
            U256::from(8u64)
        );
        let (replay, receipts) = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
        assert_eq!(receipts, proposal.receipts);
        // Hot-key contention must show up in the engine counters: either
        // some incarnation aborted or everything serialized cleanly on the
        // first pass — but execution count is always >= committed.
        assert!(proposal.stats.executions >= proposal.stats.committed);
        assert_eq!(
            proposal.stats.aborts,
            proposal.stats.first_aborts + proposal.stats.retry_aborts
        );
    }

    #[test]
    fn gas_limit_takes_the_preset_prefix() {
        let world = Arc::new(funded_world(30));
        let pool = TxPool::new();
        for i in 1..=20u64 {
            // Distinct priorities make the preset order deterministic.
            pool.add(Transaction::transfer(addr(i), addr(99), U256::ONE, 0, i));
        }
        let p = BlockStmProposer::new(OccWsiConfig {
            threads: 4,
            gas_limit: 21_000 * 5,
            ..OccWsiConfig::default()
        });
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 5);
        assert_eq!(proposal.block.header.gas_used, 21_000 * 5);
        // Highest gas price first: the prefix is senders 20..=16.
        let senders: Vec<Address> = proposal
            .block
            .transactions
            .iter()
            .map(|t| t.sender)
            .collect();
        assert_eq!(senders, (16..=20u64).rev().map(addr).collect::<Vec<_>>());
        assert_eq!(pool.len(), 15);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn max_txs_caps_the_block() {
        let world = Arc::new(funded_world(30));
        let pool = TxPool::new();
        for i in 1..=20u64 {
            pool.add(Transaction::transfer(addr(i), addr(99), U256::ONE, 0, 1));
        }
        let p = BlockStmProposer::new(OccWsiConfig {
            threads: 2,
            max_txs: 7,
            ..OccWsiConfig::default()
        });
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 7);
        assert_eq!(pool.len(), 13);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn invalid_candidates_are_discarded_without_breaking_the_prefix() {
        let world = Arc::new(funded_world(3));
        let pool = TxPool::new();
        // Sender 50 has no funds; give it the highest priority so it leads
        // the preset order.
        pool.add(Transaction::transfer(addr(50), addr(1), U256::ONE, 0, 9));
        pool.add(Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1));
        let p = engine(2);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 1);
        assert_eq!(proposal.stats.discarded, 1);
        assert!(pool.is_empty());
        let (replay, _) = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
    }

    #[test]
    fn empty_pool_seals_empty_block() {
        let world = Arc::new(funded_world(1));
        let pool = TxPool::new();
        let p = engine(2);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 7);
        assert_eq!(proposal.block.tx_count(), 0);
        assert_eq!(proposal.block.header.height, 7);
        assert_eq!(proposal.block.header.state_root, world.state_root());
    }

    #[test]
    fn amm_hotspot_is_serializable_across_thread_counts() {
        for threads in [1usize, 2, 8] {
            let mut w = funded_world(32);
            let amm = addr(200);
            w.set_code(amm, contracts::amm_pair());
            w.set_storage(
                amm,
                contracts::amm_reserve_slot(0),
                U256::from(10_000_000u64),
            );
            w.set_storage(
                amm,
                contracts::amm_reserve_slot(1),
                U256::from(10_000_000u64),
            );
            let world = Arc::new(w);
            let pool = TxPool::new();
            for i in 1..=16u64 {
                pool.add(Transaction {
                    sender: addr(i),
                    to: Some(amm),
                    value: U256::ZERO,
                    nonce: 0,
                    gas_limit: 300_000,
                    gas_price: 1,
                    data: contracts::amm_swap_calldata((i % 2) as u8, U256::from(1000 + i)),
                });
            }
            let p = engine(threads);
            let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
            assert_eq!(proposal.block.tx_count(), 16);
            let (replay, receipts) = serial_replay(&proposal.block, &world, &p.config.env);
            assert_eq!(replay.state_root(), proposal.post_state.state_root());
            assert_eq!(receipts, proposal.receipts);
        }
    }

    #[test]
    fn stats_reconcile() {
        let mut w = funded_world(20);
        let c = addr(100);
        w.set_code(c, contracts::counter());
        let world = Arc::new(w);
        let pool = TxPool::new();
        for i in 1..=12u64 {
            pool.add(Transaction {
                sender: addr(i),
                to: Some(c),
                value: U256::ZERO,
                nonce: 0,
                gas_limit: 200_000,
                gas_price: 1,
                data: vec![],
            });
        }
        let p = engine(8);
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.stats.committed, 12);
        assert_eq!(proposal.stats.discarded, 0);
        assert!(proposal.stats.executions >= proposal.stats.committed);
        assert_eq!(
            proposal.stats.aborts,
            proposal.stats.first_aborts + proposal.stats.retry_aborts
        );
        // Worker-attributed validation aborts must sum to the total.
        let worker_aborts: u64 = proposal.stats.workers.iter().map(|w| w.aborts).sum();
        assert_eq!(worker_aborts, proposal.stats.validation_failures);
        assert!(proposal.stats.wall_micros > 0);
    }
}
