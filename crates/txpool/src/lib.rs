//! The pending transaction pool.
//!
//! Proposers in BlockPilot pull transactions from this pool concurrently
//! (Algorithm 1's `PopHeap`) and push aborted ones back (`PushHeap`). The
//! pool therefore has to be both a priority queue and safe to share between
//! worker threads:
//!
//! * selection is by **gas price** (the strategy the paper says proposers
//!   typically use), with per-sender **nonce order** enforced: only the
//!   lowest-nonce pending transaction of each sender is eligible, because a
//!   later one can never commit before it;
//! * re-injected (aborted) transactions keep their identity and priority.

#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use bp_evm::Transaction;
use bp_types::{Address, TxHash};
use parking_lot::Mutex;

/// Heap entry ordering: higher gas price first, then insertion sequence for
/// a stable total order.
#[derive(Clone, Debug)]
struct Entry {
    gas_price: u64,
    seq: u64,
    hash: TxHash,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gas_price
            .cmp(&other.gas_price)
            .then(other.seq.cmp(&self.seq)) // earlier arrival wins ties
    }
}

struct Inner {
    // Eligible transactions (lowest pending nonce per sender).
    ready: BinaryHeap<Entry>,
    // All transactions by hash.
    txs: HashMap<TxHash, Transaction>,
    // Per-sender queue of pending nonces → hash.
    by_sender: HashMap<Address, BTreeMap<u64, TxHash>>,
    // Hashes currently checked out by a worker.
    in_flight: HashSet<TxHash>,
    // Admission cap (None = unbounded). Bounds memory under sustained
    // ingest: when the pool is full, `try_add` refuses instead of growing.
    limit: Option<usize>,
    seq: u64,
}

impl Inner {
    /// Inserts a transaction, promoting it if it is the sender's new head.
    /// Duplicates are ignored. Does not check the admission cap.
    fn admit(&mut self, tx: Transaction) {
        let hash = tx.hash();
        if self.txs.contains_key(&hash) {
            return;
        }
        let sender = tx.sender;
        let nonce = tx.nonce;
        self.txs.insert(hash, tx);
        let is_head = {
            let queue = self.by_sender.entry(sender).or_default();
            queue.insert(nonce, hash);
            *queue.iter().next().expect("just inserted").1 == hash
        };
        if is_head {
            self.promote(&sender);
        }
    }

    /// The hash the pool knows `tx` by: read from the sender's nonce queue
    /// when the transaction stored there is this one (the case for anything
    /// the pool handed out), computed only on a miss — a sender may have two
    /// different transactions admitted under one nonce, and the queue keeps
    /// the later.
    fn hash_of(&self, tx: &Transaction) -> TxHash {
        self.by_sender
            .get(&tx.sender)
            .and_then(|queue| queue.get(&tx.nonce))
            .filter(|hash| self.txs.get(hash) == Some(tx))
            .copied()
            .unwrap_or_else(|| tx.hash())
    }

    /// Pushes the sender's lowest queued transaction into the ready heap if
    /// it is not already in flight. Stale heap entries are filtered on pop,
    /// so over-promotion is harmless.
    fn promote(&mut self, sender: &Address) {
        let Some(queue) = self.by_sender.get(sender) else {
            return;
        };
        let Some((_, &hash)) = queue.iter().next() else {
            return;
        };
        if self.in_flight.contains(&hash) {
            return;
        }
        let tx = &self.txs[&hash];
        self.seq += 1;
        self.ready.push(Entry {
            gas_price: tx.gas_price,
            seq: self.seq,
            hash,
        });
    }

    /// Pops the highest-priority eligible transaction, skipping stale heap
    /// entries, and marks it in-flight.
    fn pop_one(&mut self) -> Option<Transaction> {
        loop {
            let entry = self.ready.pop()?;
            // Skip stale entries (committed, or re-queued with a new entry).
            if self.in_flight.contains(&entry.hash) {
                continue;
            }
            let Some(tx) = self.txs.get(&entry.hash) else {
                continue;
            };
            // Stale entry for a sender whose head changed: only the current
            // head may execute.
            let head = self
                .by_sender
                .get(&tx.sender)
                .and_then(|q| q.iter().next().map(|(_, h)| *h));
            if head != Some(entry.hash) {
                continue;
            }
            self.in_flight.insert(entry.hash);
            return Some(self.txs[&entry.hash].clone());
        }
    }
}

/// A thread-safe pending pool with gas-price priority and per-sender nonce
/// ordering.
pub struct TxPool {
    inner: Mutex<Inner>,
}

impl Default for TxPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TxPool {
    /// An empty, unbounded pool.
    pub fn new() -> Self {
        Self::with_limit(None)
    }

    /// An empty pool that admits at most `limit` transactions at a time.
    /// Ingest through [`TxPool::try_add`] / [`TxPool::add_batch`] is refused
    /// while the pool is full, which is the backpressure signal a sustained
    /// feed needs to stop outrunning the proposer.
    pub fn with_capacity_limit(limit: usize) -> Self {
        Self::with_limit(Some(limit))
    }

    fn with_limit(limit: Option<usize>) -> Self {
        TxPool {
            inner: Mutex::new(Inner {
                ready: BinaryHeap::new(),
                txs: HashMap::new(),
                by_sender: HashMap::new(),
                in_flight: HashSet::new(),
                limit,
                seq: 0,
            }),
        }
    }

    /// Adds a transaction unconditionally (the admission cap is not
    /// consulted). Duplicate hashes are ignored.
    pub fn add(&self, tx: Transaction) {
        self.inner.lock().admit(tx);
    }

    /// Adds a transaction unless the pool is at its admission cap. Returns
    /// `false` iff the transaction was refused for capacity (duplicates
    /// count as accepted — they are already present).
    pub fn try_add(&self, tx: Transaction) -> bool {
        let mut g = self.inner.lock();
        if let Some(limit) = g.limit {
            if g.txs.len() >= limit && !g.txs.contains_key(&tx.hash()) {
                return false;
            }
        }
        g.admit(tx);
        true
    }

    /// Adds a batch of transactions under a single lock acquisition,
    /// stopping at the admission cap. Returns how many were taken; the
    /// caller re-offers the remainder after draining. One acquisition per
    /// batch keeps sustained ingest from serializing against proposer
    /// workers' `pop_many`/`commit` traffic.
    pub fn add_batch(&self, txs: &mut Vec<Transaction>) -> usize {
        let mut g = self.inner.lock();
        let room = match g.limit {
            Some(limit) => limit.saturating_sub(g.txs.len()),
            None => txs.len(),
        };
        let take = room.min(txs.len());
        for tx in txs.drain(..take) {
            g.admit(tx);
        }
        take
    }

    /// Pops the highest-priority eligible transaction (Algorithm 1
    /// `PopHeap`). The transaction is marked in-flight: the sender's next
    /// transaction does not become eligible until this one commits or
    /// returns.
    pub fn pop(&self) -> Option<Transaction> {
        self.inner.lock().pop_one()
    }

    /// Pops up to `max` eligible transactions under a single lock
    /// acquisition. Proposer workers use this to amortize the pool mutex:
    /// one acquisition checks out a small batch instead of `max` separate
    /// lock round-trips. All returned transactions are in-flight, ordered by
    /// descending priority, and from distinct senders (per-sender nonce
    /// gating keeps at most one transaction per sender eligible).
    pub fn pop_many(&self, max: usize) -> Vec<Transaction> {
        let mut g = self.inner.lock();
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            match g.pop_one() {
                Some(tx) => out.push(tx),
                None => break,
            }
        }
        out
    }

    /// Returns an aborted transaction to the pool (Algorithm 1 `PushHeap`):
    /// it becomes eligible again with its original priority.
    pub fn push_back(&self, tx: &Transaction) {
        let mut g = self.inner.lock();
        let hash = g.hash_of(tx);
        debug_assert!(g.txs.contains_key(&hash), "push_back of unknown tx");
        g.in_flight.remove(&hash);
        g.promote(&tx.sender);
    }

    /// Marks a transaction as committed into a block: it leaves the pool and
    /// the sender's next transaction becomes eligible.
    pub fn commit(&self, tx: &Transaction) {
        let mut g = self.inner.lock();
        let hash = g.hash_of(tx);
        g.in_flight.remove(&hash);
        g.txs.remove(&hash);
        let sender = tx.sender;
        let now_empty = if let Some(queue) = g.by_sender.get_mut(&sender) {
            queue.remove(&tx.nonce);
            queue.is_empty()
        } else {
            false
        };
        if now_empty {
            g.by_sender.remove(&sender);
        } else {
            g.promote(&sender);
        }
    }

    /// Drops a transaction permanently (invalid nonce/funds).
    ///
    /// Unlike [`TxPool::commit`], the sender's queued higher-nonce
    /// transactions go with it: with this nonce never committing, every
    /// later nonce has an unfillable gap and could otherwise sit in the
    /// pool forever — worse, promoting the next nonce as `commit` does
    /// would offer proposers a transaction that can only abort.
    pub fn discard(&self, tx: &Transaction) {
        let mut g = self.inner.lock();
        let hash = g.hash_of(tx);
        g.in_flight.remove(&hash);
        g.txs.remove(&hash);
        if let Some(queue) = g.by_sender.remove(&tx.sender) {
            let doomed: Vec<TxHash> = queue.range(tx.nonce..).map(|(_, h)| *h).collect();
            for h in doomed {
                g.txs.remove(&h);
                g.in_flight.remove(&h);
            }
            let mut keep: BTreeMap<u64, TxHash> = queue;
            keep.retain(|&nonce, _| nonce < tx.nonce);
            if !keep.is_empty() {
                g.by_sender.insert(tx.sender, keep);
            }
        }
        // Stale heap entries for the removed hashes are filtered on pop.
    }

    /// Number of transactions currently in the pool (including in-flight).
    pub fn len(&self) -> usize {
        self.inner.lock().txs.len()
    }

    /// True iff the pool holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().txs.is_empty()
    }

    /// Number of transactions checked out by workers.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::U256;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn tx(sender: u64, nonce: u64, gas_price: u64) -> Transaction {
        Transaction {
            sender: addr(sender),
            to: Some(addr(999)),
            value: U256::ONE,
            nonce,
            gas_limit: 21_000,
            gas_price,
            data: Vec::new(),
        }
    }

    #[test]
    fn pops_by_gas_price() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(2, 0, 30));
        pool.add(tx(3, 0, 20));
        assert_eq!(pool.pop().unwrap().gas_price, 30);
        assert_eq!(pool.pop().unwrap().gas_price, 20);
        assert_eq!(pool.pop().unwrap().gas_price, 10);
        assert!(pool.pop().is_none());
    }

    #[test]
    fn nonce_order_within_sender() {
        let pool = TxPool::new();
        // Higher gas price on the later nonce must not jump the queue.
        pool.add(tx(1, 1, 100));
        pool.add(tx(1, 0, 1));
        let first = pool.pop().unwrap();
        assert_eq!(first.nonce, 0);
        // Second tx not eligible until the first commits.
        assert!(pool.pop().is_none());
        pool.commit(&first);
        assert_eq!(pool.pop().unwrap().nonce, 1);
    }

    #[test]
    fn aborted_tx_returns_with_priority() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 50));
        pool.add(tx(2, 0, 40));
        let popped = pool.pop().unwrap();
        assert_eq!(popped.gas_price, 50);
        pool.push_back(&popped);
        // It is eligible again and still beats the other.
        assert_eq!(pool.pop().unwrap().gas_price, 50);
    }

    #[test]
    fn commit_removes_and_unblocks() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 5));
        pool.add(tx(1, 1, 5));
        assert_eq!(pool.len(), 2);
        let t0 = pool.pop().unwrap();
        pool.commit(&t0);
        assert_eq!(pool.len(), 1);
        let t1 = pool.pop().unwrap();
        assert_eq!(t1.nonce, 1);
        pool.commit(&t1);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicate_adds_ignored() {
        let pool = TxPool::new();
        let t = tx(1, 0, 5);
        pool.add(t.clone());
        pool.add(t);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn stored_hash_is_used_only_for_the_stored_transaction() {
        let pool = TxPool::new();
        let a = tx(1, 0, 5);
        let b = tx(1, 0, 6); // same sender and nonce, another transaction
        let unknown = tx(2, 0, 5);
        pool.add(a.clone());
        pool.add(b.clone());
        {
            let g = pool.inner.lock();
            // The nonce queue points at the later arrival: that one is a
            // lookup, the other two fall back to hashing.
            assert_eq!(g.by_sender[&addr(1)][&0], b.hash());
            assert_eq!(g.hash_of(&b), b.hash());
            assert_eq!(g.hash_of(&a), a.hash());
            assert_eq!(g.hash_of(&unknown), unknown.hash());
        }
        // So committing `a` removes `a`, not the transaction queued under
        // its nonce.
        pool.commit(&a);
        let g = pool.inner.lock();
        assert!(!g.txs.contains_key(&a.hash()));
        assert!(g.txs.contains_key(&b.hash()));
    }

    #[test]
    fn in_flight_counted() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 5));
        assert_eq!(pool.in_flight(), 0);
        let t = pool.pop().unwrap();
        assert_eq!(pool.in_flight(), 1);
        pool.push_back(&t);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn concurrent_pops_are_disjoint() {
        use std::sync::Arc;
        let pool = Arc::new(TxPool::new());
        for s in 0..100u64 {
            pool.add(tx(s, 0, s));
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = pool.pop() {
                    got.push(t.hash());
                }
                got
            }));
        }
        let mut all: Vec<TxHash> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no tx may be popped twice");
        assert_eq!(total, 100);
    }

    #[test]
    fn discard_drops_dependent_higher_nonces() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(1, 1, 10));
        pool.add(tx(1, 2, 10));
        pool.add(tx(2, 0, 5));
        let t0 = pool.pop().unwrap();
        assert_eq!((t0.sender, t0.nonce), (addr(1), 0));
        // Nonce 0 is permanently invalid: nonces 1 and 2 can never execute
        // either and must leave the pool with it, not be promoted.
        pool.discard(&t0);
        assert_eq!(pool.len(), 1, "only the other sender's tx survives");
        let rest = pool.pop().unwrap();
        assert_eq!(rest.sender, addr(2));
        assert!(pool.pop().is_none());
        pool.commit(&rest);
        assert!(pool.is_empty());
    }

    #[test]
    fn discard_keeps_lower_nonces_intact() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(1, 1, 10));
        pool.add(tx(1, 2, 10));
        // Discard the middle nonce without ever popping it: the gap dooms
        // nonce 2, but nonce 0 is still perfectly executable.
        pool.discard(&tx(1, 1, 10));
        assert_eq!(pool.len(), 1);
        let t = pool.pop().unwrap();
        assert_eq!(t.nonce, 0);
        pool.commit(&t);
        assert!(pool.pop().is_none(), "doomed nonce 2 must not resurface");
        assert!(pool.is_empty());
    }

    #[test]
    fn pop_many_respects_priority_and_nonce_gating() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(1, 1, 99)); // gated behind nonce 0
        pool.add(tx(2, 0, 30));
        pool.add(tx(3, 0, 20));
        let batch = pool.pop_many(10);
        let prices: Vec<u64> = batch.iter().map(|t| t.gas_price).collect();
        // One tx per sender, descending priority; sender 1's nonce 1 stays
        // gated until nonce 0 commits.
        assert_eq!(prices, vec![30, 20, 10]);
        assert_eq!(pool.in_flight(), 3);
        for t in &batch {
            pool.commit(t);
        }
        assert_eq!(pool.pop_many(10).len(), 1); // sender 1, nonce 1
    }

    #[test]
    fn pop_many_caps_at_max() {
        let pool = TxPool::new();
        for s in 0..10u64 {
            pool.add(tx(s, 0, 1));
        }
        assert_eq!(pool.pop_many(4).len(), 4);
        assert_eq!(pool.pop_many(0).len(), 0);
        assert_eq!(pool.pop_many(100).len(), 6);
        assert_eq!(pool.in_flight(), 10);
    }

    #[test]
    fn capacity_limit_refuses_then_admits_after_drain() {
        let pool = TxPool::with_capacity_limit(2);
        assert!(pool.try_add(tx(1, 0, 10)));
        assert!(pool.try_add(tx(2, 0, 10)));
        assert!(!pool.try_add(tx(3, 0, 10)), "full pool must refuse");
        // A duplicate of a resident tx is not a capacity violation.
        assert!(pool.try_add(tx(1, 0, 10)));
        let t = pool.pop().unwrap();
        // In-flight still occupies a slot; only commit/discard frees it.
        assert!(!pool.try_add(tx(3, 0, 10)));
        pool.commit(&t);
        assert!(pool.try_add(tx(3, 0, 10)));
    }

    #[test]
    fn add_batch_takes_up_to_room_and_leaves_rest() {
        let pool = TxPool::with_capacity_limit(3);
        let mut batch: Vec<Transaction> = (0..5u64).map(|s| tx(s, 0, 1)).collect();
        assert_eq!(pool.add_batch(&mut batch), 3);
        assert_eq!(batch.len(), 2, "refused txs stay with the caller");
        assert_eq!(pool.len(), 3);
        // Drain and re-offer: the remainder goes in.
        for t in pool.pop_many(3) {
            pool.commit(&t);
        }
        assert_eq!(pool.add_batch(&mut batch), 2);
        assert!(batch.is_empty());
    }

    /// Sustained ingest while proposer workers drain: feeders push nonce
    /// sequences through the capacity-bounded path, drainers pop/commit
    /// concurrently. Every admitted transaction must eventually commit
    /// exactly once, in nonce order per sender, with no starved feeder and
    /// no livelock.
    #[test]
    fn concurrent_ingest_vs_drain_commits_everything_once() {
        use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
        use std::sync::Arc;

        const SENDERS: u64 = 8;
        const PER_SENDER: u64 = 50;
        let pool = Arc::new(TxPool::with_capacity_limit(32));
        let done_feeding = Arc::new(AtomicBool::new(false));

        let feeders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for n in 0..PER_SENDER {
                        // Busy-retry on a full pool: admission must make
                        // progress as drainers free slots.
                        while !pool.try_add(tx(s, n, 1 + (s + n) % 7)) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        let drainers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done_feeding);
                std::thread::spawn(move || {
                    let mut committed: Vec<(Address, u64)> = Vec::new();
                    loop {
                        let batch = pool.pop_many(4);
                        if batch.is_empty() {
                            if done.load(AtomicOrdering::Acquire) && pool.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        }
                        for t in batch {
                            committed.push((t.sender, t.nonce));
                            pool.commit(&t);
                        }
                    }
                    committed
                })
            })
            .collect();

        for f in feeders {
            f.join().unwrap();
        }
        done_feeding.store(true, AtomicOrdering::Release);
        let mut all: Vec<(Address, u64)> = drainers
            .into_iter()
            .flat_map(|d| d.join().unwrap())
            .collect();
        let total = all.len();
        assert_eq!(total as u64, SENDERS * PER_SENDER, "every tx commits");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no tx commits twice");
        assert!(pool.is_empty());
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn later_arrival_of_lower_nonce_takes_precedence() {
        let pool = TxPool::new();
        pool.add(tx(1, 2, 10));
        pool.add(tx(1, 1, 10));
        pool.add(tx(1, 0, 10));
        let t = pool.pop().unwrap();
        assert_eq!(t.nonce, 0);
    }
}
