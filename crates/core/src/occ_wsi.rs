//! OCC-WSI: the proposer's optimistic parallel execution (Algorithm 1).
//!
//! Worker threads repeatedly pop the highest-priority pending transaction,
//! take a snapshot of the multi-version block state at the current commit
//! version, execute optimistically, then validate-and-commit:
//!
//! * **validation** (write-snapshot isolation): abort iff some key in the
//!   transaction's *read set* was written by a transaction that committed
//!   after our snapshot (`Table[rec] > snapshot.version`). Write-write
//!   overlap alone does not abort — blind writes still serialize in commit
//!   order;
//! * **commit**: allocate the next version, publish the write set to the
//!   multi-version state and the reserve table, append the transaction to
//!   the block under construction, and record its read/write sets in the
//!   **block profile** for the validators.
//!
//! The committed sequence is a serializable schedule by construction, and it
//! *is* the block order.
//!
//! # Two-phase commit
//!
//! Funnelling every commit through one global mutex covering validation,
//! version allocation, multi-version publication, reserve publication, gas
//! accounting and block-body pushes stops scaling as soon as commits are
//! frequent (EXPERIMENTS.md, "retired arms"). The commit protocol shrinks the
//! serialized region to the part that genuinely needs atomicity:
//!
//! * **Phase A** (under a commit-sequence lock, microseconds): WSI read-set
//!   validation, gas-limit admission, version allocation, and publication of
//!   the write *intentions* to the lock-free [`ReserveTable`]. Validation
//!   and intent publication must be mutually ordered — a committer must see
//!   the reservations of everything admitted before it, or a stale read
//!   could slip through — so they share the tiny critical section. The new
//!   version is registered *pending* on a [`VersionGate`] before it becomes
//!   discoverable.
//! * **Phase B** (no global lock): publish the write *values* to the
//!   [`MultiVersionState`], install deployed code, open the version's
//!   visibility latch, and append the `(version, tx, receipt, profile)`
//!   record to a per-worker segment buffer. Snapshot readers that land on a
//!   still-pending version wait on its latch instead of blocking committers.
//!
//! Block bodies never touch the critical path: [`OccWsiProposer::propose`]
//! merges the per-worker segments in version order at seal time, and seals
//! from what they hold — the transaction root from the hashes the pool
//! computed at admission, the post-state from the records' own write sets.
//!
//! Nor does the pool: a worker talks to it once per batch
//! ([`TxPool::turn`]), handing back the hashes it committed and aborted
//! since its last turn and checking out the next few transactions under one
//! lock acquisition. A committed transaction is published in the
//! multi-version state at once and leaves the pool a few transactions
//! later, which costs nothing — its sender's next nonce could not run
//! before the publication anyway — and the worker neither hashes nor
//! compares a transaction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bp_block::{
    receipts_root, tx_root, tx_root_of_hashes, Block, BlockHeader, BlockProfile, TxProfile,
};
use bp_concurrent::sync::Mutex;
use bp_concurrent::{ReserveTable, VersionAllocator, VersionGate};
use bp_evm::{
    execute_transaction_in, gas, AnalysisCache, BlockEnv, MvSnapshot, Receipt, Transaction, TxError,
};
use bp_state::{MultiVersionState, WorldState};
use bp_txpool::TxPool;
use bp_types::{BlockHash, FxHashMap, Gas, Height, TxHash, WriteSet, U256};

/// How many transactions a worker checks out from the pool per turn. Small
/// enough that priority inversion is bounded, large enough to amortize the
/// pool's mutex on hot paths.
const POP_BATCH: usize = 4;

/// How often a worker retries a future-nonce transaction while nothing
/// commits before it gives the transaction up as a gap that will not fill.
const MAX_FUTILE_RETRIES: u32 = 50;

/// After the block first fails to fit a transaction, how many further
/// pending candidates each worker still tries before sealing. Bounded so a
/// nearly-full block cannot degenerate into scanning the whole pool.
const MAX_UNFIT_CANDIDATES: usize = 8;

/// Configuration for a proposal run.
#[derive(Clone, Debug)]
pub struct OccWsiConfig {
    /// Worker thread count (Algorithm 1's thread pool).
    pub threads: usize,
    /// Block gas limit. Packing seals when no pending transaction fits:
    /// after the first transaction overflows the remaining gas, workers
    /// still probe a bounded number of further (smaller) candidates before
    /// giving up, so one oversized transaction does not strand the rest.
    pub gas_limit: Gas,
    /// Execution environment for the new block.
    pub env: BlockEnv,
    /// Optional ceiling on transactions per block (0 = unlimited).
    pub max_txs: usize,
}

impl Default for OccWsiConfig {
    fn default() -> Self {
        OccWsiConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(1),
            gas_limit: 30_000_000,
            env: BlockEnv::default(),
            max_txs: 0,
        }
    }
}

/// Counters from one proposal run: what the node reports (`aborts`) and
/// the benchmark's proposer ledger reads (all four).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProposerStats {
    /// Transactions committed into the block.
    pub committed: u64,
    /// Executions that were re-queued: WSI validation failures, and
    /// future-nonce retries (a predecessor not yet committed).
    pub aborts: u64,
    /// Total executions (committed + aborted + discarded attempts).
    pub executions: u64,
    /// Wall time of the parallel packing phase, in microseconds.
    pub wall_micros: u64,
}

/// The outcome of one proposal: a sealed block plus everything a caller
/// needs to adopt it locally.
pub struct Proposal {
    /// The sealed block (header, ordered transactions, block profile).
    pub block: Block,
    /// Receipts in block order.
    pub receipts: Vec<Receipt>,
    /// The post-state the block commits to.
    pub post_state: WorldState,
    /// Run statistics.
    pub stats: ProposerStats,
}

/// One committed transaction, buffered by the worker that committed it and
/// merged into the block body at seal time.
struct CommitRecord {
    version: u64,
    /// The hash the pool checked the transaction out with.
    hash: TxHash,
    tx: Transaction,
    receipt: Receipt,
    profile: TxProfile,
}

/// State shared by all workers of one proposal run.
struct Shared<'a> {
    pool: &'a TxPool,
    mv: &'a MultiVersionState,
    reserve: &'a ReserveTable,
    versions: &'a VersionAllocator,
    gate: &'a VersionGate,
    /// The commit-sequence lock serializing Phase A. Guards nothing by
    /// value; the data it orders (reserve table, version allocator, gas
    /// meter) is reachable lock-free.
    admit: &'a Mutex<()>,
    cur_gas: &'a AtomicU64,
    full: &'a AtomicBool,
    aborts: &'a AtomicU64,
    executions: &'a AtomicU64,
}

/// A worker's account with the pool: what it has checked out and what it
/// owes back at its next turn. Dropping it takes a last turn that
/// returns everything still checked out, so no way out of the worker loop
/// leaves a transaction in flight.
struct Checkout<'a> {
    pool: &'a TxPool,
    /// Checked out and not yet run, each with the hash the pool knows it by.
    batch: VecDeque<(TxHash, Transaction)>,
    /// Committed since the last turn: the pool retires them at the next.
    committed: Vec<TxHash>,
    /// Aborted since the last turn: eligible again after the next.
    returned: Vec<TxHash>,
    /// Did not fit the remaining gas. Gas only grows, so they cannot fit
    /// later in this block either: held until the worker leaves.
    unfit: Vec<TxHash>,
    /// Transactions in the pool after the last turn, checked-out included.
    pool_len: usize,
}

impl<'a> Checkout<'a> {
    fn new(pool: &'a TxPool) -> Self {
        Checkout {
            pool,
            batch: VecDeque::with_capacity(POP_BATCH),
            committed: Vec::with_capacity(POP_BATCH),
            returned: Vec::new(),
            unfit: Vec::new(),
            pool_len: 0,
        }
    }

    /// The next transaction to run: from the local batch, or from a pool
    /// turn once that is dry. `None` when the turn found nothing eligible;
    /// `pool_len` then says whether the pool is empty or merely busy — read
    /// after this worker's commits were retired, not before.
    fn next_tx(&mut self) -> Option<(TxHash, Transaction)> {
        if self.batch.is_empty() {
            self.pool_len = self.pool.turn(
                &mut self.committed,
                &mut self.returned,
                POP_BATCH,
                &mut self.batch,
            );
        }
        self.batch.pop_front()
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        self.returned
            .extend(self.batch.drain(..).map(|(hash, _)| hash));
        self.returned.append(&mut self.unfit);
        self.pool
            .turn(&mut self.committed, &mut self.returned, 0, &mut self.batch);
    }
}

/// The OCC-WSI proposer.
pub struct OccWsiProposer {
    config: OccWsiConfig,
    /// Code-analysis cache shared by every worker across every block this
    /// proposer packs; contract bytecode is analyzed once, ever.
    cache: Arc<AnalysisCache>,
}

impl OccWsiProposer {
    /// A proposer with the given configuration, sharing the process-wide
    /// analysis cache.
    pub fn new(config: OccWsiConfig) -> Self {
        assert!(config.threads > 0, "need at least one worker");
        OccWsiProposer {
            config,
            cache: AnalysisCache::global(),
        }
    }

    /// Runs Algorithm 1: executes transactions from `pool` in parallel over
    /// `parent_state` until the gas limit is reached or the pool drains,
    /// then seals the block on top of `parent`.
    pub fn propose(
        &self,
        pool: &TxPool,
        parent_state: Arc<WorldState>,
        parent: BlockHash,
        height: Height,
    ) -> Proposal {
        // Snapshots wait on the gate for any version still pending
        // publication.
        let gate = Arc::new(VersionGate::new());
        let mv = MultiVersionState::new(
            Arc::clone(&parent_state),
            self.config.threads,
            Arc::clone(&gate),
        );
        let reserve = ReserveTable::new(self.config.threads);
        let versions = VersionAllocator::new();
        let admit = Mutex::new(());
        let cur_gas = AtomicU64::new(0);
        let full = AtomicBool::new(false);
        let aborts = AtomicU64::new(0);
        let executions = AtomicU64::new(0);

        let shared = Shared {
            pool,
            mv: &mv,
            reserve: &reserve,
            versions: &versions,
            gate: &gate,
            admit: &admit,
            cur_gas: &cur_gas,
            full: &full,
            aborts: &aborts,
            executions: &executions,
        };

        let started = Instant::now();
        let mut records = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.config.threads)
                .map(|_| scope.spawn(|| self.worker(&shared)))
                .collect();
            let mut records = Vec::new();
            for h in handles {
                records.extend(h.join().expect("worker panicked"));
            }
            records
        });
        let wall_micros = started.elapsed().as_micros() as u64;
        let gas_used = cur_gas.load(Ordering::Acquire);

        // Merge the per-worker segments into the block body, in version
        // (= block) order, and seal from what they carry: the transaction
        // root from the hashes the pool checked the transactions out with,
        // the post-state from the records' write sets folded in version
        // order (a later version's value replaces an earlier one's).
        // Versions are dense 1..=committed.
        records.sort_unstable_by_key(|r| r.version);
        debug_assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.version == i as u64 + 1));
        let txs_root = tx_root_of_hashes(records.iter().map(|r| r.hash));
        let mut writes = WriteSet::default();
        writes.reserve(mv.written_key_count());
        let mut txs = Vec::with_capacity(records.len());
        let mut receipts = Vec::with_capacity(records.len());
        let mut profile = BlockProfile::default();
        for r in records {
            writes.extend(r.profile.writes.iter().map(|(key, value)| (*key, *value)));
            txs.push(r.tx);
            receipts.push(r.receipt);
            profile.push(r.profile);
        }
        let mut post_state = mv.with_writes(&writes);
        debug_assert_eq!(txs_root, tx_root(&txs));

        // Credit the aggregated fees to the coinbase and build the header.
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
            tx_root: txs_root,
            receipts_root: receipts_root(&receipts),
            gas_used,
            gas_limit: self.config.gas_limit,
            coinbase: self.config.env.coinbase,
            timestamp: self.config.env.timestamp,
            proposer_seed: self.config.env.number,
        };

        let committed = txs.len() as u64;
        Proposal {
            block: Block {
                header,
                transactions: txs,
                profile,
            },
            receipts,
            post_state,
            stats: ProposerStats {
                committed,
                aborts: aborts.load(Ordering::Acquire),
                executions: executions.load(Ordering::Acquire),
                wall_micros,
            },
        }
    }

    /// The worker loop: execute optimistically, admit under the
    /// commit-sequence lock (Phase A), publish outside it (Phase B).
    fn worker(&self, s: &Shared<'_>) -> Vec<CommitRecord> {
        let mut records: Vec<CommitRecord> = Vec::new();
        // Everything checked out goes back when `checkout` drops, whichever
        // way the loop is left.
        let mut checkout = Checkout::new(s.pool);
        let mut idle_spins = 0u32;
        // Future-nonce transactions (a predecessor from the same sender has
        // not committed yet) are retried, but only while commits are still
        // happening: a gap whose predecessor is not in the system at all
        // would otherwise livelock the worker.
        let mut futile: FxHashMap<TxHash, (u64, u32)> = FxHashMap::default();

        loop {
            if s.full.load(Ordering::Acquire) {
                return records;
            }
            let Some((hash, tx)) = checkout.next_tx() else {
                // The pool may refill when an in-flight transaction of some
                // sender commits; spin briefly before giving up.
                if checkout.pool_len == 0 || idle_spins > 64 {
                    return records;
                }
                idle_spins += 1;
                std::thread::yield_now();
                continue;
            };
            idle_spins = 0;

            // snapshot(thread, version) <- State(version); the snapshot
            // waits on the visibility gate if any version ≤ it is pending.
            let snapshot_version = s.versions.current();
            let snapshot = MvSnapshot::new(s.mv, snapshot_version);
            s.executions.fetch_add(1, Ordering::Relaxed);
            let exec = execute_transaction_in(&self.cache, &snapshot, &self.config.env, &tx);

            let result = match exec {
                Err(TxError::BadNonce { expected, got }) if got > expected => {
                    // A prerequisite from the same sender hasn't committed
                    // yet. Retry while the block is still making progress;
                    // if nothing commits across repeated attempts the
                    // prerequisite is missing entirely — drop the tx.
                    let version_now = s.versions.current();
                    let entry = futile.entry(hash).or_insert((version_now, 0));
                    if entry.0 == version_now {
                        entry.1 += 1;
                    } else {
                        *entry = (version_now, 1);
                    }
                    if entry.1 >= MAX_FUTILE_RETRIES {
                        s.pool.discard_hash(&hash);
                    } else {
                        s.aborts.fetch_add(1, Ordering::Relaxed);
                        checkout.returned.push(hash);
                        std::thread::yield_now();
                    }
                    continue;
                }
                Err(_) => {
                    s.pool.discard_hash(&hash);
                    continue;
                }
                Ok(result) => result,
            };

            // ---- Phase A: admission, under the commit-sequence lock. ----
            let version = {
                let _seq = s.admit.lock();
                if s.full.load(Ordering::Acquire) {
                    checkout.returned.push(hash);
                    return records;
                }
                // WSI validation over the read set: the lock orders us
                // after the reserve intents of every admitted predecessor.
                let stale = result
                    .rw
                    .reads
                    .keys()
                    .any(|key| s.reserve.is_stale(key, snapshot_version));
                if stale {
                    drop(_seq);
                    s.aborts.fetch_add(1, Ordering::Relaxed);
                    checkout.returned.push(hash);
                    continue;
                }
                // Gas-limit admission.
                let gas_now = s.cur_gas.load(Ordering::Acquire);
                let gas_after = gas_now + result.receipt.gas_used;
                if gas_after > self.config.gas_limit {
                    // This one doesn't fit, but smaller pending transactions
                    // may: hold it aside and keep probing (bounded), unless
                    // nothing can ever fit the remaining headroom.
                    let nothing_fits = self.config.gas_limit - gas_now < gas::TX_BASE
                        || checkout.unfit.len() + 1 > MAX_UNFIT_CANDIDATES;
                    checkout.unfit.push(hash);
                    if nothing_fits {
                        s.full.store(true, Ordering::Release);
                        return records;
                    }
                    continue;
                }
                if self.config.max_txs > 0 && s.versions.current() as usize >= self.config.max_txs {
                    s.full.store(true, Ordering::Release);
                    checkout.returned.push(hash);
                    return records;
                }
                // Admit: register the version as pending *before* it becomes
                // discoverable through the allocator, publish the write
                // intents, and account the gas.
                let version = s.versions.current() + 1;
                s.gate.register(version);
                s.reserve.publish(result.rw.writes.keys(), version);
                s.cur_gas.store(gas_after, Ordering::Release);
                let allocated = s.versions.allocate();
                debug_assert_eq!(allocated, version);
                version
            };

            // ---- Phase B: publication, outside any global lock. ----
            s.mv.commit_writes(&result.rw.writes, version);
            for (addr, code) in &result.deployed {
                s.mv.install_code(*addr, Arc::clone(code));
            }
            s.gate.open(version);
            // The footprint moves into the profile and the transaction into
            // the record: nothing reads either after publication, and the
            // pool is told by hash, at this worker's next turn.
            let profile = TxProfile::from_owned_rw(result.rw, result.receipt.gas_used);
            records.push(CommitRecord {
                version,
                hash,
                tx,
                receipt: result.receipt,
                profile,
            });
            checkout.committed.push(hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_evm::asm::Asm;
    use bp_evm::contracts;
    use bp_evm::opcode::Op;
    use bp_types::{AccessKey, Address};

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

    fn proposer(threads: usize) -> OccWsiProposer {
        OccWsiProposer::new(OccWsiConfig {
            threads,
            ..OccWsiConfig::default()
        })
    }

    /// Replays a block's transactions serially in block order; the result
    /// must equal the proposer's post-state (serializability witness).
    fn serial_replay(block: &Block, base: &WorldState, env: &BlockEnv) -> WorldState {
        let mut world = base.clone();
        let mut fees = U256::ZERO;
        for tx in &block.transactions {
            let view = bp_evm::WorldView::new(&world);
            let result = bp_evm::execute_transaction(&view, env, tx).expect("replay must accept");
            world.apply_writes(&result.rw.writes);
            for (a, code) in &result.deployed {
                world.set_code(*a, (**code).clone());
            }
            fees += result.receipt.fee;
        }
        let cb = world.balance(&env.coinbase);
        world.set_balance(env.coinbase, cb + fees);
        world
    }

    #[test]
    fn default_threads_match_the_machine() {
        let got = OccWsiConfig::default().threads;
        let want = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(got, want.max(1));
        assert!(got >= 1);
    }

    #[test]
    fn proposes_disjoint_transfers() {
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
        let p = proposer(4);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 10);
        assert_eq!(proposal.stats.committed, 10);
        assert!(pool.is_empty());
        // Serializability: replaying the block order serially reproduces
        // the exact post-state root.
        let replay = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
        assert_eq!(proposal.block.header.state_root, replay.state_root());
    }

    #[test]
    fn conflicting_counter_calls_all_commit_serializably() {
        // A 96-deep dependency chain: every call reads the slot the one
        // committed before it wrote.
        const SENDERS: u64 = 96;
        let mut w = funded_world(SENDERS);
        let c = addr(100);
        w.set_code(c, contracts::counter());
        let world = Arc::new(w);
        for threads in [2, 4, 8, 16] {
            let pool = TxPool::new();
            for i in 1..=SENDERS {
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
            let p = proposer(threads);
            let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
            assert_eq!(
                proposal.block.tx_count() as u64,
                SENDERS,
                "{threads} threads"
            );
            // The counter must reach exactly 96: lost updates would show here.
            assert_eq!(
                proposal
                    .post_state
                    .storage(&c, &bp_types::H256::from_low_u64(0)),
                U256::from(SENDERS)
            );
            let replay = serial_replay(&proposal.block, &world, &p.config.env);
            assert_eq!(replay.state_root(), proposal.post_state.state_root());
        }
    }

    #[test]
    fn aborted_transactions_are_retried_not_lost() {
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
        let p = proposer(8);
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        // Every transaction committed, none discarded, so the executions
        // beyond the commits are exactly the aborted attempts.
        assert_eq!(proposal.stats.committed, 12);
        assert!(proposal.stats.executions >= proposal.stats.committed);
        assert_eq!(
            proposal.stats.executions - proposal.stats.committed,
            proposal.stats.aborts
        );
    }

    #[test]
    fn same_sender_nonce_chain_commits_in_order() {
        let world = Arc::new(funded_world(5));
        let pool = TxPool::new();
        for nonce in 0..5u64 {
            pool.add(Transaction::transfer(
                addr(1),
                addr(2),
                U256::ONE,
                nonce,
                10,
            ));
        }
        let p = proposer(4);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 5);
        let nonces: Vec<u64> = proposal
            .block
            .transactions
            .iter()
            .map(|t| t.nonce)
            .collect();
        assert_eq!(nonces, vec![0, 1, 2, 3, 4]);
        assert_eq!(proposal.post_state.nonce(&addr(1)), 5);
        assert_eq!(
            proposal.post_state.balance(&addr(2)),
            U256::from(1_000_000_005u64)
        );
    }

    #[test]
    fn nonce_chains_pack_in_order_with_commits_deferred_to_the_turn() {
        // Five senders, six nonces each, four workers: a sender's next nonce
        // becomes eligible only when the worker that committed the one
        // before takes its next pool turn, so workers run dry while others
        // still owe the pool. Every transaction must still pack, in nonce
        // order, and nothing may stay checked out.
        for round in 0..20 {
            let world = Arc::new(funded_world(10));
            let pool = TxPool::new();
            for nonce in 0..6u64 {
                for sender in 1..=5u64 {
                    pool.add(Transaction::transfer(
                        addr(sender),
                        addr(sender + 5),
                        U256::ONE,
                        nonce,
                        1 + (sender + nonce + round) % 3,
                    ));
                }
            }
            let p = proposer(4);
            let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
            assert_eq!(proposal.block.tx_count(), 30, "round {round}");
            for sender in 1..=5u64 {
                let nonces: Vec<u64> = proposal
                    .block
                    .transactions
                    .iter()
                    .filter(|t| t.sender == addr(sender))
                    .map(|t| t.nonce)
                    .collect();
                assert_eq!(nonces, vec![0, 1, 2, 3, 4, 5], "sender {sender}");
                assert_eq!(proposal.post_state.nonce(&addr(sender)), 6);
            }
            assert!(pool.is_empty());
            assert_eq!(pool.in_flight(), 0);
            assert_eq!(
                proposal.block.header.tx_root,
                tx_root(&proposal.block.transactions),
                "the carried hashes are the transactions' hashes"
            );
            let replay = serial_replay(&proposal.block, &world, &p.config.env);
            assert_eq!(replay.state_root(), proposal.post_state.state_root());
        }
    }

    #[test]
    fn gas_limit_bounds_the_block() {
        let world = Arc::new(funded_world(30));
        let pool = TxPool::new();
        for i in 1..=20u64 {
            pool.add(Transaction::transfer(addr(i), addr(99), U256::ONE, 0, 1));
        }
        let p = OccWsiProposer::new(OccWsiConfig {
            threads: 4,
            gas_limit: 21_000 * 5, // exactly five transfers
            ..OccWsiConfig::default()
        });
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 5);
        assert_eq!(proposal.block.header.gas_used, 21_000 * 5);
        // The remaining transactions stay pending.
        assert_eq!(pool.len(), 15);
        assert_eq!(pool.in_flight(), 0);
    }

    /// A contract that stores to `slots` fresh storage slots: ~20k gas each,
    /// for building transactions much heavier than a plain transfer.
    fn gas_burner(slots: u64) -> Vec<u8> {
        let mut a = Asm::new();
        for slot in 0..slots {
            a = a.push_u64(1).push_u64(slot).op(Op::SStore);
        }
        a.op(Op::Stop).build()
    }

    #[test]
    fn oversized_transaction_does_not_strand_smaller_ones() {
        // Regression for the gas-packing early stop: the highest-priority
        // transaction overflows the block, but five cheap transfers still
        // fit and must be packed before sealing.
        let mut w = funded_world(10);
        let burner = addr(200);
        w.set_code(burner, gas_burner(6)); // ≥ 120k gas + intrinsic
        let world = Arc::new(w);
        let pool = TxPool::new();
        pool.add(Transaction {
            sender: addr(9),
            to: Some(burner),
            value: U256::ZERO,
            nonce: 0,
            gas_limit: 1_000_000,
            gas_price: 1_000, // popped first
            data: vec![],
        });
        for i in 1..=5u64 {
            pool.add(Transaction::transfer(addr(i), addr(8), U256::ONE, 0, 1));
        }
        let p = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            gas_limit: 21_000 * 5, // five transfers; the burner never fits
            ..OccWsiConfig::default()
        });
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 5, "small transfers must pack");
        assert_eq!(proposal.block.header.gas_used, 21_000 * 5);
        assert!(proposal
            .block
            .transactions
            .iter()
            .all(|t| t.to == Some(addr(8))));
        // The oversized transaction goes back to the pool intact.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.in_flight(), 0);
        let replay = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
    }

    #[test]
    fn max_txs_caps_the_block() {
        let world = Arc::new(funded_world(30));
        let pool = TxPool::new();
        for i in 1..=20u64 {
            pool.add(Transaction::transfer(addr(i), addr(99), U256::ONE, 0, 1));
        }
        let p = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            max_txs: 7,
            ..OccWsiConfig::default()
        });
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 7);
    }

    #[test]
    fn invalid_transactions_are_discarded() {
        let world = Arc::new(funded_world(3));
        let pool = TxPool::new();
        // Sender 50 has no funds.
        pool.add(Transaction::transfer(addr(50), addr(1), U256::ONE, 0, 1));
        pool.add(Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1));
        let p = proposer(2);
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        // The unfunded one left the pool without a commit.
        assert_eq!(proposal.block.tx_count(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn profile_covers_every_transaction() {
        let world = Arc::new(funded_world(10));
        let pool = TxPool::new();
        for i in 1..=6u64 {
            pool.add(Transaction::transfer(addr(i), addr(9), U256::ONE, 0, 1));
        }
        let p = proposer(3);
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.profile.len(), proposal.block.tx_count());
        for (i, tx) in proposal.block.transactions.iter().enumerate() {
            let entry = &proposal.block.profile.entries[i];
            assert!(entry.writes.contains_key(&AccessKey::Nonce(tx.sender)));
            assert_eq!(entry.gas_used, proposal.receipts[i].gas_used);
        }
    }

    #[test]
    fn empty_pool_seals_empty_block() {
        let world = Arc::new(funded_world(1));
        let pool = TxPool::new();
        let p = proposer(2);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 7);
        assert_eq!(proposal.block.tx_count(), 0);
        assert_eq!(proposal.block.header.height, 7);
        assert_eq!(proposal.block.header.state_root, world.state_root());
    }

    #[test]
    fn hotspot_block_is_serializable_with_many_threads() {
        // Heavy contention: all transactions hit one AMM pair.
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
        let p = proposer(8);
        let proposal = p.propose(&pool, Arc::clone(&world), BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 16);
        let replay = serial_replay(&proposal.block, &world, &p.config.env);
        assert_eq!(replay.state_root(), proposal.post_state.state_root());
    }

    #[test]
    fn stats_record_wall_time() {
        let world = Arc::new(funded_world(10));
        let pool = TxPool::new();
        for i in 1..=6u64 {
            pool.add(Transaction::transfer(addr(i), addr(9), U256::ONE, 0, 1));
        }
        let p = proposer(2);
        let proposal = p.propose(&pool, world, BlockHash::ZERO, 1);
        assert!(proposal.stats.wall_micros > 0);
        assert_eq!(proposal.stats.committed, 6);
    }
}
