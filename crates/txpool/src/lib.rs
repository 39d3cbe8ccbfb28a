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
//! * re-injected (aborted) transactions keep their identity and priority:
//!   gas price first, arrival order among equal prices;
//! * a `(sender, nonce)` pair holds **one** transaction. A later arrival
//!   under an occupied pair replaces the earlier one when it pays a higher
//!   gas price and the earlier one is not checked out; otherwise it is
//!   dropped. Either way the pool's size does not change.
//!
//! A worker talks to the pool in **turns** ([`TxPool::turn`]): one lock
//! acquisition retires what it committed since its last turn, returns what
//! it aborted and checks out its next batch, each transaction with the hash
//! the pool computed at admission so nobody downstream hashes it again.
//! Hashing happens outside the lock, and the two parties that wait on the
//! pool — a feeder for room, a proposer for transactions — park on
//! condition variables that a turn signals only when their condition holds.
//!
//! The maps are keyed by transaction hashes and sender addresses through the
//! Fx hasher, which an adversary who grinds keys can degrade; admission
//! control in front of the pool is the place to bound that, not SipHash on
//! the proposer's hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use bp_concurrent::sync::{Condvar, Mutex, MutexGuard};
use bp_evm::Transaction;
use bp_types::{Address, FxHashMap, TxHash};

/// Heap entry ordering: higher gas price first, then arrival sequence for a
/// stable total order.
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

/// One admitted transaction.
struct Pooled {
    tx: Transaction,
    /// Arrival number, kept for as long as the transaction is in the pool so
    /// that a returned transaction re-enters the heap where it was.
    seq: u64,
    /// Checked out by a worker.
    in_flight: bool,
}

impl Pooled {
    /// The transaction's place in the ready heap.
    fn ready_entry(&self, hash: TxHash) -> Entry {
        Entry {
            gas_price: self.tx.gas_price,
            seq: self.seq,
            hash,
        }
    }
}

/// The least amount any parked waiter waits for, `None` when nobody has
/// parked since the last notification. A waiter lowers it under the pool
/// lock before it parks; whoever changes the pool notifies — and resets it —
/// only once that amount is there, so a waiter is not woken for every
/// commit. A waiter that left on its timeout leaves its amount behind, which
/// costs one notification nobody hears.
type Wanted = Option<usize>;

struct Inner {
    // Eligible transactions (lowest pending nonce per sender). Entries go
    // stale when their transaction leaves, is checked out or stops being its
    // sender's head; `check_out` filters them.
    ready: BinaryHeap<Entry>,
    // All transactions by hash.
    txs: FxHashMap<TxHash, Pooled>,
    // Per-sender queue of pending nonces → hash. Every transaction in `txs`
    // has exactly one entry here, and every entry names one in `txs`.
    by_sender: FxHashMap<Address, BTreeMap<u64, TxHash>>,
    // How many of `txs` are checked out.
    in_flight: usize,
    // Admission cap (None = unbounded). Bounds memory under sustained
    // ingest: when the pool is full, `add_batch` refuses instead of growing.
    limit: Option<usize>,
    seq: u64,
    // Free slots a parked feeder waits for.
    room_wanted: Wanted,
    // Pool size a parked proposer waits for.
    len_wanted: Wanted,
}

impl Inner {
    /// Free slots under the admission cap.
    fn room(&self) -> usize {
        match self.limit {
            Some(limit) => limit.saturating_sub(self.txs.len()),
            None => usize::MAX,
        }
    }

    /// Admits `tx`, known by `hash`, promoting it if it is its sender's new
    /// head. A duplicate is already present; a second transaction under an
    /// occupied `(sender, nonce)` replaces the first or is dropped (see the
    /// module docs).
    fn admit(&mut self, hash: TxHash, tx: Transaction) {
        if self.txs.contains_key(&hash) {
            return;
        }
        let (sender, nonce, gas_price) = (tx.sender, tx.nonce, tx.gas_price);
        if let Some(&old) = self.by_sender.get(&sender).and_then(|q| q.get(&nonce)) {
            let earlier = &self.txs[&old];
            if earlier.in_flight || earlier.tx.gas_price >= gas_price {
                return;
            }
            // The stale heap entry of the replaced transaction names a hash
            // the pool no longer knows and is skipped at check-out.
            self.txs.remove(&old);
        }
        self.seq += 1;
        let pooled = Pooled {
            tx,
            seq: self.seq,
            in_flight: false,
        };
        let queue = self.by_sender.entry(sender).or_default();
        queue.insert(nonce, hash);
        // Entries for transactions that are not (or no longer) their
        // sender's head are filtered at check-out.
        if queue.keys().next() == Some(&nonce) {
            self.ready.push(pooled.ready_entry(hash));
        }
        self.txs.insert(hash, pooled);
    }

    /// Pops the highest-priority eligible transaction, skipping stale heap
    /// entries, and marks it in flight.
    fn check_out(&mut self) -> Option<(TxHash, Transaction)> {
        loop {
            let Entry { hash, .. } = self.ready.pop()?;
            // Gone (committed, discarded, replaced) or already handed out.
            let Some(pooled) = self.txs.get_mut(&hash) else {
                continue;
            };
            if pooled.in_flight {
                continue;
            }
            // A lower nonce of the sender arrived after this entry was
            // pushed: only the current head may execute.
            let head = self.by_sender[&pooled.tx.sender].values().next();
            if head != Some(&hash) {
                continue;
            }
            pooled.in_flight = true;
            self.in_flight += 1;
            return Some((hash, pooled.tx.clone()));
        }
    }

    /// Returns a checked-out transaction to the ready heap. Unknown hashes
    /// and transactions that are not checked out are left alone.
    fn give_back(&mut self, hash: &TxHash) {
        if let Some(pooled) = self.txs.get_mut(hash) {
            if pooled.in_flight {
                pooled.in_flight = false;
                self.in_flight -= 1;
                self.ready.push(pooled.ready_entry(*hash));
            }
        }
    }

    /// Removes a committed transaction and makes the sender's next nonce
    /// eligible. A hash the pool does not hold is left alone — in particular
    /// a transaction that was replaced under its `(sender, nonce)` does not
    /// take its replacement's queue entry with it.
    fn retire(&mut self, hash: &TxHash) {
        let Some(pooled) = self.txs.remove(hash) else {
            return;
        };
        self.in_flight -= usize::from(pooled.in_flight);
        let MapEntry::Occupied(mut queue) = self.by_sender.entry(pooled.tx.sender) else {
            unreachable!("every pooled transaction is queued under its sender");
        };
        let unlinked = queue.get_mut().remove(&pooled.tx.nonce);
        debug_assert_eq!(unlinked, Some(*hash));
        match queue.get().values().next() {
            Some(next) => {
                let head = &self.txs[next];
                if !head.in_flight {
                    self.ready.push(head.ready_entry(*next));
                }
            }
            None => {
                queue.remove();
            }
        }
    }

    /// Drops a transaction for good, and with it the sender's queued higher
    /// nonces.
    fn discard(&mut self, hash: &TxHash) {
        let Some(pooled) = self.txs.get(hash) else {
            return;
        };
        let (sender, nonce) = (pooled.tx.sender, pooled.tx.nonce);
        let MapEntry::Occupied(mut queue) = self.by_sender.entry(sender) else {
            unreachable!("every pooled transaction is queued under its sender");
        };
        let doomed = queue.get_mut().split_off(&nonce);
        if queue.get().is_empty() {
            queue.remove();
        }
        for hash in doomed.values() {
            let gone = self
                .txs
                .remove(hash)
                .expect("queued transactions are pooled");
            self.in_flight -= usize::from(gone.in_flight);
        }
        // Stale heap entries for the removed hashes are filtered at
        // check-out.
    }

    /// Debug builds: `txs` and the nonce queues hold the same transactions
    /// and the in-flight count is the number of flags set.
    fn check(&self) {
        debug_assert_eq!(
            self.txs.len(),
            self.by_sender.values().map(BTreeMap::len).sum::<usize>(),
            "a transaction is pooled without a queue entry, or queued without being pooled"
        );
        debug_assert_eq!(
            self.in_flight,
            self.txs.values().filter(|p| p.in_flight).count()
        );
    }
}

/// A thread-safe pending pool with gas-price priority and per-sender nonce
/// ordering.
pub struct TxPool {
    inner: Mutex<Inner>,
    /// Signalled when the room a parked feeder waits for is there.
    room_freed: Condvar,
    /// Signalled when the pool holds what a parked proposer waits for.
    filled: Condvar,
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
    /// Ingest through [`TxPool::add_batch`] is refused
    /// while the pool is full, which is the backpressure signal a sustained
    /// feed needs to stop outrunning the proposer.
    pub fn with_capacity_limit(limit: usize) -> Self {
        Self::with_limit(Some(limit))
    }

    fn with_limit(limit: Option<usize>) -> Self {
        TxPool {
            inner: Mutex::new(Inner {
                ready: BinaryHeap::new(),
                txs: FxHashMap::default(),
                by_sender: FxHashMap::default(),
                in_flight: 0,
                limit,
                seq: 0,
                room_wanted: None,
                len_wanted: None,
            }),
            room_freed: Condvar::new(),
            filled: Condvar::new(),
        }
    }

    /// Ends a lock hold that changed the pool: checks the invariants (debug
    /// builds), releases the lock and wakes the parked waiters whose
    /// condition now holds — in that order, because the first thing a woken
    /// waiter does is take the lock.
    fn settle(&self, mut g: MutexGuard<'_, Inner>) {
        g.check();
        let room_freed = g.room_wanted.is_some_and(|want| g.room() >= want);
        if room_freed {
            g.room_wanted = None;
        }
        let filled = g.len_wanted.is_some_and(|want| g.txs.len() >= want);
        if filled {
            g.len_wanted = None;
        }
        drop(g);
        if room_freed {
            self.room_freed.notify_all();
        }
        if filled {
            self.filled.notify_all();
        }
    }

    /// Parks on `cv` until `have(pool) >= want` or `timeout` passes, and
    /// says which. `wanted` is the slot [`TxPool::settle`] reads for `cv`.
    fn park(
        &self,
        cv: &Condvar,
        want: usize,
        timeout: Duration,
        have: impl Fn(&Inner) -> usize,
        wanted: impl Fn(&mut Inner) -> &mut Wanted,
    ) -> bool {
        let started = Instant::now();
        let mut g = self.inner.lock();
        loop {
            if have(&g) >= want {
                return true;
            }
            let left = timeout.saturating_sub(started.elapsed());
            if left.is_zero() {
                return false;
            }
            let slot = wanted(&mut g);
            *slot = Some(slot.map_or(want, |least| least.min(want)));
            cv.wait_for(&mut g, left);
        }
    }

    /// Blocks until the pool has room for `want` more transactions (or for
    /// as many as its cap allows, if that is fewer), at most `timeout`.
    /// Returns whether the room is there. The wake-up comes from the turn
    /// or discard that frees the last needed slot, not from polling.
    pub fn wait_for_room(&self, want: usize, timeout: Duration) -> bool {
        let want = want.min(self.inner.lock().limit.unwrap_or(usize::MAX));
        self.park(&self.room_freed, want, timeout, Inner::room, |g| {
            &mut g.room_wanted
        })
    }

    /// Blocks until the pool holds at least `want` transactions (checked-out
    /// ones included), at most `timeout`. Returns whether it does.
    pub fn wait_for_len(&self, want: usize, timeout: Duration) -> bool {
        self.park(
            &self.filled,
            want,
            timeout,
            |g| g.txs.len(),
            |g| &mut g.len_wanted,
        )
    }

    /// Adds a transaction unconditionally (the admission cap is not
    /// consulted). Duplicate hashes are ignored.
    pub fn add(&self, tx: Transaction) {
        let hash = tx.hash();
        let mut g = self.inner.lock();
        g.admit(hash, tx);
        self.settle(g);
    }

    /// Adds a prefix of `txs`, stopping at the admission cap. Returns how
    /// many were taken; the caller re-offers the remainder after draining.
    /// The lock is held twice, briefly: once to read the room, once to admit
    /// — the transactions are hashed in between, as one batch, so proposer
    /// workers' turns never wait behind the keccaks.
    pub fn add_batch(&self, txs: &mut Vec<Transaction>) -> usize {
        let room = self.inner.lock().room().min(txs.len());
        if room == 0 {
            return 0;
        }
        let hashes = Transaction::hash_batch(&txs[..room]);
        let mut g = self.inner.lock();
        // Other feeders may have used some of the room meanwhile.
        let take = g.room().min(room);
        for (hash, tx) in hashes.into_iter().zip(txs.drain(..take)) {
            g.admit(hash, tx);
        }
        self.settle(g);
        take
    }

    /// One worker's turn at the pool, under a single lock acquisition:
    /// retires the transactions it `committed` since its last turn (each
    /// sender's next nonce becomes eligible), returns the ones it aborted
    /// (`returned`) to the ready heap at their original priority, and checks
    /// out up to `max` eligible transactions into `out`, highest priority
    /// first, each with the hash the pool computed when it admitted it. Both
    /// lists are drained. Returns the number of transactions left in the
    /// pool, checked-out ones included, so a worker that got nothing can
    /// tell an empty pool from a busy one without locking again.
    ///
    /// A turn with `max == 0` only hands back; a worker takes one before it
    /// leaves.
    pub fn turn(
        &self,
        committed: &mut Vec<TxHash>,
        returned: &mut Vec<TxHash>,
        max: usize,
        out: &mut VecDeque<(TxHash, Transaction)>,
    ) -> usize {
        let mut g = self.inner.lock();
        for hash in committed.drain(..) {
            g.retire(&hash);
        }
        for hash in returned.drain(..) {
            g.give_back(&hash);
        }
        for _ in 0..max {
            match g.check_out() {
                Some(checked_out) => out.push_back(checked_out),
                None => break,
            }
        }
        let left = g.txs.len();
        self.settle(g);
        left
    }

    /// Drops a transaction permanently (invalid nonce/funds), given the
    /// hash the pool checked it out with.
    ///
    /// Unlike a commit, the sender's queued higher-nonce transactions go
    /// with it: with this nonce never committing, every later nonce has an
    /// unfillable gap and could otherwise sit in the pool forever — worse,
    /// promoting the next nonce as a commit does would offer proposers a
    /// transaction that can only abort.
    pub fn discard_hash(&self, hash: &TxHash) {
        let mut g = self.inner.lock();
        g.discard(hash);
        self.settle(g);
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
        self.inner.lock().in_flight
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

    /// One turn that hands nothing back and checks out up to `max`.
    fn check_out(pool: &TxPool, max: usize) -> Vec<Transaction> {
        let mut out = VecDeque::new();
        pool.turn(&mut Vec::new(), &mut Vec::new(), max, &mut out);
        out.into_iter().map(|(_, tx)| tx).collect()
    }

    /// One transaction at a time, over [`TxPool::turn`] and
    /// [`TxPool::discard_hash`]: Algorithm 1's `PopHeap` and `PushHeap`,
    /// a commit and a discard, each a turn of its own.
    trait OneByOne {
        fn pop(&self) -> Option<Transaction>;
        fn push_back(&self, tx: &Transaction);
        fn commit(&self, tx: &Transaction);
        fn discard(&self, tx: &Transaction);
    }

    impl OneByOne for TxPool {
        fn pop(&self) -> Option<Transaction> {
            check_out(self, 1).pop()
        }

        fn push_back(&self, tx: &Transaction) {
            let mut returned = vec![tx.hash()];
            self.turn(&mut Vec::new(), &mut returned, 0, &mut VecDeque::new());
        }

        fn commit(&self, tx: &Transaction) {
            let mut committed = vec![tx.hash()];
            self.turn(&mut committed, &mut Vec::new(), 0, &mut VecDeque::new());
        }

        fn discard(&self, tx: &Transaction) {
            self.discard_hash(&tx.hash());
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
    fn returned_tx_keeps_its_place_among_equal_prices() {
        let pool = TxPool::new();
        for sender in 1..=3 {
            pool.add(tx(sender, 0, 7));
        }
        let first = pool.pop().unwrap();
        assert_eq!(first.sender, addr(1), "earliest arrival wins the tie");
        pool.push_back(&first);
        // Arrival order is kept for life, not renewed by the return.
        let order: Vec<Address> = check_out(&pool, 3).iter().map(|t| t.sender).collect();
        assert_eq!(order, vec![addr(1), addr(2), addr(3)]);
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
    fn committing_a_replaced_transaction_keeps_its_replacement() {
        let pool = TxPool::new();
        let a = tx(1, 0, 5);
        let b = tx(1, 0, 6); // same sender and nonce, pays more: replaces `a`
        pool.add(a.clone());
        pool.add(b.clone());
        // The nonce queue points at the replacement.
        assert_eq!(pool.inner.lock().by_sender[&addr(1)][&0], b.hash());
        // So committing `a`, which the pool no longer holds, touches neither
        // the transaction queued under its nonce nor that queue entry.
        pool.commit(&a);
        let g = pool.inner.lock();
        assert!(!g.txs.contains_key(&a.hash()));
        assert!(g.txs.contains_key(&b.hash()));
        assert_eq!(g.by_sender[&addr(1)][&0], b.hash());
    }

    #[test]
    fn one_transaction_per_sender_and_nonce() {
        let pool = TxPool::with_capacity_limit(2);
        let cheap = tx(1, 0, 5);
        assert_eq!(pool.add_batch(&mut vec![cheap.clone(), tx(2, 0, 1)]), 2);
        // A better-paying transaction under an occupied (sender, nonce)
        // takes the earlier one's slot.
        let dear = tx(1, 0, 9);
        pool.add(dear.clone());
        assert_eq!(pool.len(), 2, "the replaced transaction freed its slot");
        assert_eq!(
            pool.add_batch(&mut vec![tx(3, 0, 1)]),
            0,
            "and the pool is still full"
        );
        // An arrival that does not pay more is dropped, for good.
        pool.add(tx(1, 0, 9 - 1));
        pool.add(cheap);
        assert_eq!(pool.len(), 2);
        // The replacement is what executes; while it is checked out it
        // cannot be replaced in turn.
        assert_eq!(pool.pop(), Some(dear.clone()));
        pool.add(tx(1, 0, 50));
        pool.push_back(&dear);
        assert_eq!(pool.pop(), Some(dear.clone()));
        pool.commit(&dear);
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool.add_batch(&mut vec![tx(3, 0, 1)]),
            1,
            "the committed slot is free"
        );
        assert_eq!(pool.pop().map(|t| t.sender), Some(addr(2)));
        assert_eq!(pool.pop().map(|t| t.sender), Some(addr(3)));
        assert_eq!(pool.pop(), None);
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
    fn turn_respects_priority_and_nonce_gating() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(1, 1, 99)); // gated behind nonce 0
        pool.add(tx(2, 0, 30));
        pool.add(tx(3, 0, 20));
        let batch = check_out(&pool, 10);
        let prices: Vec<u64> = batch.iter().map(|t| t.gas_price).collect();
        // One tx per sender, descending priority; sender 1's nonce 1 stays
        // gated until nonce 0 commits.
        assert_eq!(prices, vec![30, 20, 10]);
        assert_eq!(pool.in_flight(), 3);
        for t in &batch {
            pool.commit(t);
        }
        assert_eq!(check_out(&pool, 10).len(), 1); // sender 1, nonce 1
    }

    #[test]
    fn turn_caps_at_max() {
        let pool = TxPool::new();
        for s in 0..10u64 {
            pool.add(tx(s, 0, 1));
        }
        assert_eq!(check_out(&pool, 4).len(), 4);
        assert_eq!(check_out(&pool, 0).len(), 0);
        assert_eq!(check_out(&pool, 100).len(), 6);
        assert_eq!(pool.in_flight(), 10);
    }

    #[test]
    fn capacity_limit_refuses_then_admits_after_drain() {
        let pool = TxPool::with_capacity_limit(2);
        assert_eq!(pool.add_batch(&mut vec![tx(1, 0, 10), tx(2, 0, 10)]), 2);
        assert_eq!(
            pool.add_batch(&mut vec![tx(3, 0, 10)]),
            0,
            "full pool must refuse"
        );
        // A duplicate of a resident tx takes no slot.
        pool.add(tx(1, 0, 10));
        assert_eq!(pool.len(), 2);
        let t = pool.pop().unwrap();
        // In-flight still occupies a slot; only commit/discard frees it.
        assert_eq!(pool.add_batch(&mut vec![tx(3, 0, 10)]), 0);
        pool.commit(&t);
        assert_eq!(pool.add_batch(&mut vec![tx(3, 0, 10)]), 1);
    }

    #[test]
    fn add_batch_takes_up_to_room_and_leaves_rest() {
        let pool = TxPool::with_capacity_limit(3);
        let mut batch: Vec<Transaction> = (0..5u64).map(|s| tx(s, 0, 1)).collect();
        assert_eq!(pool.add_batch(&mut batch), 3);
        assert_eq!(batch.len(), 2, "refused txs stay with the caller");
        assert_eq!(pool.len(), 3);
        // Drain and re-offer: the remainder goes in.
        for t in check_out(&pool, 3) {
            pool.commit(&t);
        }
        assert_eq!(pool.add_batch(&mut batch), 2);
        assert!(batch.is_empty());
    }

    #[test]
    fn a_turn_retires_returns_and_checks_out() {
        let pool = TxPool::new();
        pool.add(tx(1, 0, 10));
        pool.add(tx(1, 1, 99)); // gated behind nonce 0
        pool.add(tx(2, 0, 30));
        pool.add(tx(3, 0, 20));
        let (mut committed, mut returned) = (Vec::new(), Vec::new());
        let mut out = VecDeque::new();
        assert_eq!(pool.turn(&mut committed, &mut returned, 2, &mut out), 4);
        let prices: Vec<u64> = out.iter().map(|(_, t)| t.gas_price).collect();
        assert_eq!(prices, vec![30, 20]);
        assert!(out.iter().all(|(hash, t)| *hash == t.hash()));
        assert_eq!(pool.in_flight(), 2);
        // Commit the first, abort the second; the next turn sees both.
        committed.push(out.pop_front().unwrap().0);
        returned.push(out.pop_front().unwrap().0);
        assert_eq!(pool.turn(&mut committed, &mut returned, 4, &mut out), 3);
        assert!(committed.is_empty() && returned.is_empty(), "both drained");
        let prices: Vec<u64> = out.iter().map(|(_, t)| t.gas_price).collect();
        assert_eq!(
            prices,
            vec![20, 10],
            "the aborted one is back, nonce 1 waits"
        );
        // Retiring sender 1's nonce 0 promotes its nonce 1 within the turn
        // that retires it; a turn with `max == 0` only hands back.
        committed.extend(out.drain(..).map(|(hash, _)| hash));
        assert_eq!(pool.turn(&mut committed, &mut returned, 0, &mut out), 1);
        assert!(out.is_empty());
        assert_eq!(pool.turn(&mut committed, &mut returned, 4, &mut out), 1);
        assert_eq!(out[0].1.gas_price, 99);
        assert_eq!(pool.in_flight(), 1);
    }

    #[test]
    fn waits_time_out_or_return_at_once() {
        let brief = Duration::from_millis(2);
        let pool = TxPool::with_capacity_limit(2);
        assert!(pool.wait_for_room(2, brief));
        assert!(
            pool.wait_for_room(50, brief),
            "more than the cap is clamped"
        );
        assert!(!pool.wait_for_len(1, brief));
        pool.add(tx(1, 0, 1));
        pool.add(tx(2, 0, 1));
        assert!(pool.wait_for_len(2, brief));
        assert!(!pool.wait_for_room(1, brief));
        assert!(TxPool::new().wait_for_room(usize::MAX, brief));
    }

    /// The pool's policy over one sorted map, one operation at a time: the
    /// reference the model test compares the pool against.
    #[derive(Default)]
    struct Model {
        limit: usize,
        seq: u64,
        txs: BTreeMap<(Address, u64), ModelTx>,
    }

    struct ModelTx {
        hash: TxHash,
        gas_price: u64,
        seq: u64,
        in_flight: bool,
    }

    impl Model {
        fn admit(&mut self, tx: &Transaction) {
            let hash = tx.hash();
            if let Some(old) = self.txs.get(&(tx.sender, tx.nonce)) {
                if old.hash == hash || old.in_flight || old.gas_price >= tx.gas_price {
                    return;
                }
            }
            self.seq += 1;
            let entry = ModelTx {
                hash,
                gas_price: tx.gas_price,
                seq: self.seq,
                in_flight: false,
            };
            self.txs.insert((tx.sender, tx.nonce), entry);
        }

        fn add_batch(&mut self, txs: &[Transaction]) -> usize {
            let take = (self.limit - self.txs.len()).min(txs.len());
            txs[..take].iter().for_each(|tx| self.admit(tx));
            take
        }

        fn key_of(&self, hash: &TxHash) -> Option<(Address, u64)> {
            let found = self.txs.iter().find(|(_, t)| t.hash == *hash);
            found.map(|(key, _)| *key)
        }

        fn retire(&mut self, hash: &TxHash) {
            if let Some(key) = self.key_of(hash) {
                self.txs.remove(&key);
            }
        }

        fn give_back(&mut self, hash: &TxHash) {
            if let Some(key) = self.key_of(hash) {
                self.txs.get_mut(&key).unwrap().in_flight = false;
            }
        }

        fn discard(&mut self, hash: &TxHash) {
            if let Some((sender, nonce)) = self.key_of(hash) {
                self.txs.retain(|&(s, n), _| s != sender || n < nonce);
            }
        }

        /// Each sender's lowest nonce, unless checked out, best price first
        /// and earliest arrival first among equals.
        fn check_out(&mut self, max: usize) -> Vec<TxHash> {
            let mut heads: Vec<&mut ModelTx> = Vec::new();
            let mut last_sender = None;
            for ((sender, _), tx) in self.txs.iter_mut() {
                if last_sender != Some(*sender) && !tx.in_flight {
                    heads.push(tx);
                }
                last_sender = Some(*sender);
            }
            heads.sort_by_key(|t| (std::cmp::Reverse(t.gas_price), t.seq));
            heads.truncate(max);
            heads.iter_mut().for_each(|t| t.in_flight = true);
            heads.iter().map(|t| t.hash).collect()
        }

        fn in_flight(&self) -> usize {
            self.txs.values().filter(|t| t.in_flight).count()
        }
    }

    /// Random interleavings of `add_batch`, worker turns and `discard_hash`
    /// against [`Model`]: every turn must check out exactly what the
    /// reference does, in its order — which pins priority (a returned
    /// transaction included), per-sender nonce order, one holder at a time
    /// and the promotion of the next nonce by the turn that retires one.
    #[test]
    fn stress_random_turns_match_a_sequential_reference() {
        use bp_types::Rng;
        use std::collections::HashSet;

        const LIMIT: usize = 24;
        const SENDERS: u64 = 6;
        const WORKERS: usize = 3;

        #[derive(Default)]
        struct Worker {
            held: VecDeque<(TxHash, Transaction)>,
            committed: Vec<TxHash>,
            returned: Vec<TxHash>,
        }

        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0x7001 + seed);
            let pool = TxPool::with_capacity_limit(LIMIT);
            let mut model = Model {
                limit: LIMIT,
                ..Model::default()
            };
            let mut workers: Vec<Worker> = (0..WORKERS).map(|_| Worker::default()).collect();
            let mut next_nonce = [0u64; SENDERS as usize];
            let mut unique = 0u64;
            let mut committed_ever: HashSet<TxHash> = HashSet::new();

            for step in 0..4_000 {
                // The last stretch only drains, so the run ends empty.
                let draining = step >= 3_000;
                if !draining && rng.gen_range(0..3) == 0 {
                    let mut batch: Vec<Transaction> = (0..rng.gen_range(1..=6))
                        .map(|_| {
                            let s = rng.gen_range(0..SENDERS);
                            let fresh = next_nonce[s as usize];
                            // One in four lands on a nonce the sender used
                            // before: a replacement, an underpriced arrival,
                            // or a lower nonce than the queued head.
                            let nonce = if fresh > 0 && rng.gen_range(0..4) == 0 {
                                rng.gen_range(fresh.saturating_sub(3)..fresh)
                            } else {
                                next_nonce[s as usize] += 1;
                                fresh
                            };
                            unique += 1;
                            let mut t = tx(s, nonce, rng.gen_range(1..=4));
                            t.value = U256::from(unique); // no two alike
                            t
                        })
                        .collect();
                    if rng.gen_range(0..8) == 0 {
                        batch.push(batch[0].clone()); // an exact duplicate
                    }
                    let offered = batch.clone();
                    let taken = pool.add_batch(&mut batch);
                    assert_eq!(taken, model.add_batch(&offered), "seed {seed} step {step}");
                    assert_eq!(batch[..], offered[taken..], "the rest stays, in order");
                } else {
                    let w = &mut workers[rng.gen_range(0..WORKERS)];
                    // Decide the fate of some of what the worker holds.
                    for _ in 0..w.held.len() {
                        let (hash, t) = w.held.pop_front().unwrap();
                        match rng.gen_range(0..if draining { 1 } else { 10 }) {
                            0..=4 => {
                                assert!(committed_ever.insert(hash), "committed twice");
                                w.committed.push(hash);
                            }
                            5..=6 => w.returned.push(hash),
                            7 => {
                                pool.discard_hash(&hash);
                                model.discard(&hash);
                            }
                            _ => w.held.push_back((hash, t)),
                        }
                    }
                    let max = rng.gen_range(0..=4);
                    w.committed.iter().for_each(|h| model.retire(h));
                    w.returned.iter().for_each(|h| model.give_back(h));
                    let expected = model.check_out(max);
                    let before = w.held.len();
                    let left = pool.turn(&mut w.committed, &mut w.returned, max, &mut w.held);
                    let got: Vec<TxHash> = w.held.iter().skip(before).map(|(h, _)| *h).collect();
                    assert_eq!(got, expected, "seed {seed} step {step}");
                    assert!(w.held.iter().all(|(hash, t)| *hash == t.hash()));
                    assert_eq!(left, model.txs.len());
                }
                assert_eq!(pool.len(), model.txs.len());
                assert!(pool.len() <= LIMIT);
                assert_eq!(pool.in_flight(), model.in_flight());
                // Nobody holds what somebody else holds.
                let held: Vec<TxHash> = workers
                    .iter()
                    .flat_map(|w| w.held.iter().map(|(h, _)| *h))
                    .collect();
                assert_eq!(held.iter().collect::<HashSet<_>>().len(), held.len());
            }
            assert!(!committed_ever.is_empty());
            assert!(pool.is_empty(), "seed {seed}: the drain left something");
            assert_eq!(pool.in_flight(), 0);
        }
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
                        while pool.add_batch(&mut vec![tx(s, n, 1 + (s + n) % 7)]) == 0 {
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
                        let batch = check_out(&pool, 4);
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

    /// The same sustained ingest, as the node runs it: drainers talk to the
    /// pool in turns and commit by hash, feeders park on the room condition
    /// instead of polling. The wait's timeout is ten seconds and the test
    /// must finish in one, so a lost wake-up fails it instead of hiding
    /// behind the timeout.
    #[test]
    fn stress_parked_feeders_vs_turns_commit_everything_once_in_nonce_order() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
        use std::sync::Arc;

        const SENDERS: u64 = 8;
        const PER_SENDER: u64 = 50;
        let pool = Arc::new(TxPool::with_capacity_limit(32));
        let done_feeding = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(AtomicU64::new(0));
        let started = Instant::now();

        let feeders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for n in 0..PER_SENDER {
                        let t = tx(s, n, 1 + (s + n) % 7);
                        loop {
                            let woken = pool.wait_for_room(1, Duration::from_secs(10));
                            assert!(woken, "a feeder slept through ten seconds of commits");
                            // Another feeder may have taken the slot.
                            if pool.add_batch(&mut vec![t.clone()]) == 1 {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();

        let drainers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done_feeding);
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    let mut log: Vec<(u64, Address, u64)> = Vec::new();
                    let (mut committed, mut returned) = (Vec::new(), Vec::new());
                    let mut out = VecDeque::new();
                    loop {
                        let left = pool.turn(&mut committed, &mut returned, 4, &mut out);
                        if out.is_empty() {
                            if done.load(AtomicOrdering::Acquire) && left == 0 {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        }
                        for (hash, t) in out.drain(..) {
                            let at = clock.fetch_add(1, AtomicOrdering::SeqCst);
                            log.push((at, t.sender, t.nonce));
                            committed.push(hash);
                        }
                    }
                    log
                })
            })
            .collect();

        for f in feeders {
            f.join().unwrap();
        }
        done_feeding.store(true, AtomicOrdering::Release);
        let mut log: Vec<(u64, Address, u64)> = drainers
            .into_iter()
            .flat_map(|d| d.join().unwrap())
            .collect();
        let elapsed = started.elapsed();
        assert_eq!(log.len() as u64, SENDERS * PER_SENDER, "every tx commits");
        // A sender's next nonce is checked out only after the turn that
        // retired the one before, so in commit order nonces ascend.
        log.sort_unstable();
        let mut next = std::collections::HashMap::new();
        for (_, sender, nonce) in log {
            let expected = next.entry(sender).or_insert(0u64);
            assert_eq!(nonce, *expected, "out of order, or committed twice");
            *expected += 1;
        }
        assert!(pool.is_empty());
        assert_eq!(pool.in_flight(), 0);
        assert!(
            elapsed < Duration::from_secs(1),
            "took {elapsed:?}: a waiter was left to its timeout"
        );
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
