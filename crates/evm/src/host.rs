//! The interpreter's window onto state: snapshot views plus a buffered,
//! footprint-recording host.
//!
//! The EVM never touches `WorldState` directly. It reads through a
//! [`StateView`] (either the flat world for serial execution, or an OCC-WSI
//! snapshot of the [`MultiVersionState`]) and writes into the
//! [`BufferedHost`]'s private buffer. When the transaction finishes, the
//! buffer *is* its write set and the recorded reads *are* its read set — the
//! `rs`/`ws` of Algorithm 1 — with zero extra instrumentation cost.
//!
//! The buffers are [`FxHashMap`]s (SipHash was the single largest per-tx
//! cost) and nested-call checkpoints are *journaled*: every buffered write
//! pushes an undo entry, so a [`Checkpoint`] is three integers and a revert
//! pops the journal tail instead of cloning whole maps. Keys here are
//! transaction-local and bounded by the gas limit, so the non-DoS-resistant
//! hash is safe.

use std::sync::Arc;

use bp_state::{MultiVersionState, WorldState};
use bp_types::FxBuildHasher;
use bp_types::{AccessKey, Address, FxHashMap, RwSet, H256, U256};

/// A read-only, versioned view of some state.
pub trait StateView {
    /// The value of `key` and the version it was committed at (0 = pre-block
    /// state).
    fn read_key(&self, key: &AccessKey) -> (U256, u64);
    /// The code of `addr` in this view.
    fn code(&self, addr: &Address) -> Arc<Vec<u8>>;
}

/// Direct view of a flat world (serial execution; validators' lane
/// executors). Everything reads at version 0.
///
/// Carries a one-account memo (see [`WorldState::read_key_memo`]): a
/// transaction's reads cluster on a couple of accounts, and skipping the
/// repeat account-map probes is a measurable share of per-transaction time
/// on mainnet-sized states. The memo borrows from the world, so a live view
/// keeps the world immutable — create one per transaction, drop it before
/// applying writes.
pub struct WorldView<'a> {
    world: &'a WorldState,
    memo: std::cell::Cell<Option<(Address, &'a bp_state::AccountState)>>,
}

impl<'a> WorldView<'a> {
    /// A fresh view of `world` with an empty memo.
    pub fn new(world: &'a WorldState) -> Self {
        WorldView {
            world,
            memo: std::cell::Cell::new(None),
        }
    }

    /// The world this view reads.
    pub fn world(&self) -> &'a WorldState {
        self.world
    }
}

impl StateView for WorldView<'_> {
    fn read_key(&self, key: &AccessKey) -> (U256, u64) {
        let mut memo = self.memo.take();
        let value = self.world.read_key_memo(key, &mut memo);
        self.memo.set(memo);
        (value, 0)
    }

    fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        if let Some((cached, acct)) = self.memo.get() {
            if cached == *addr {
                return Arc::clone(&acct.code);
            }
        }
        self.world.code(addr)
    }
}

/// An OCC-WSI snapshot: the multi-version state as of `version`.
pub struct MvSnapshot<'a> {
    mv: &'a MultiVersionState,
    version: u64,
}

impl<'a> MvSnapshot<'a> {
    /// Snapshot of `mv` at `version`.
    ///
    /// Taken at [`MultiVersionState::version`], it covers only fully
    /// committed versions: a commit reveals its version after its writes
    /// and code are in place, so nothing here waits.
    pub fn new(mv: &'a MultiVersionState, version: u64) -> Self {
        MvSnapshot { mv, version }
    }

    /// The snapshot version.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl StateView for MvSnapshot<'_> {
    fn read_key(&self, key: &AccessKey) -> (U256, u64) {
        self.mv.read_at(key, self.version)
    }

    fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        self.mv.code(addr)
    }
}

/// One EVM log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log {
    /// Emitting contract.
    pub address: Address,
    /// Indexed topics (0..=4).
    pub topics: Vec<H256>,
    /// Opaque payload.
    pub data: Vec<u8>,
}

/// One buffer undo-log entry: the key and its previous value (`None` =
/// absent before the write).
type JournalEntry = (AccessKey, Option<U256>);

/// A checkpoint for nested-frame revert: journal watermarks, not clones.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    journal_len: usize,
    code_journal_len: usize,
    log_len: usize,
}

/// Buffered, footprint-recording state access for one transaction.
pub struct BufferedHost<'a, V: StateView> {
    view: &'a V,
    rw: RwSet,
    buffer: FxHashMap<AccessKey, U256>,
    code_buffer: FxHashMap<Address, Arc<Vec<u8>>>,
    /// Undo log for `buffer`: the key and its previous value (`None` =
    /// absent). Reverting pops entries above a checkpoint's watermark in
    /// reverse, which restores the exact pre-checkpoint buffer.
    journal: Vec<JournalEntry>,
    /// Undo log for `code_buffer`.
    code_journal: Vec<(Address, Option<Arc<Vec<u8>>>)>,
    logs: Vec<Log>,
    /// The most recent `read` result, cleared by any write or revert. A hit
    /// implies no intervening write, so the full path would return the same
    /// value and the footprint already holds the key — the whole
    /// buffer-probe/record/view-read sequence can be skipped. This pays off
    /// on the ubiquitous `SLOAD slot … SSTORE slot` pattern, where the
    /// store's current-value read (for the set-vs-reset gas split) repeats
    /// the load that computed the new value.
    last_read: Option<(AccessKey, U256)>,
}

impl<'a, V: StateView> BufferedHost<'a, V> {
    /// A fresh host over `view`.
    pub fn new(view: &'a V) -> Self {
        // Pre-size for a typical transaction footprint (a handful of
        // balance/nonce/storage keys) so the hot path never reallocates.
        let mut rw = RwSet::new();
        rw.reads.reserve(8);
        // The journal never escapes the host (unlike the buffer and read
        // set, which move into the result), so its backing allocation is
        // recycled per-thread across transactions.
        let journal = JOURNAL_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| Vec::with_capacity(32));
        BufferedHost {
            view,
            rw,
            buffer: FxHashMap::with_capacity_and_hasher(8, FxBuildHasher::default()),
            code_buffer: FxHashMap::default(),
            journal,
            code_journal: Vec::new(),
            logs: Vec::new(),
            last_read: None,
        }
    }

    /// Reads `key`: the transaction's own pending write if any, otherwise the
    /// underlying view (recording the read and its version).
    pub fn read(&mut self, key: AccessKey) -> U256 {
        if let Some((k, v)) = self.last_read {
            if k == key {
                return v;
            }
        }
        let value = if let Some(v) = self.buffer.get(&key) {
            *v
        } else {
            let (value, version) = self.view.read_key(&key);
            self.rw.record_read(key, version);
            value
        };
        self.last_read = Some((key, value));
        value
    }

    /// Buffers a write to `key`, journaling the displaced value so nested
    /// frames can revert without cloning the buffer.
    pub fn write(&mut self, key: AccessKey, value: U256) {
        self.last_read = None;
        let old = self.buffer.insert(key, value);
        self.journal.push((key, old));
    }

    /// The code of `addr`, respecting in-transaction deployments.
    pub fn code(&mut self, addr: &Address) -> Arc<Vec<u8>> {
        if let Some(c) = self.code_buffer.get(addr) {
            return Arc::clone(c);
        }
        // Code identity participates in conflict detection: a creation at
        // this address by a concurrent transaction must abort us.
        let (_, version) = self.view.read_key(&AccessKey::Code(*addr));
        self.rw.record_read(AccessKey::Code(*addr), version);
        self.view.code(addr)
    }

    /// Deploys code at `addr` within this transaction.
    pub fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        let hash = bp_crypto::keccak256(&code).to_u256();
        let old = self.code_buffer.insert(addr, Arc::new(code));
        self.code_journal.push((addr, old));
        self.write(AccessKey::Code(addr), hash);
    }

    /// Convenience balance read.
    pub fn balance(&mut self, addr: &Address) -> U256 {
        self.read(AccessKey::Balance(*addr))
    }

    /// Convenience balance write.
    pub fn set_balance(&mut self, addr: Address, value: U256) {
        self.write(AccessKey::Balance(addr), value);
    }

    /// Moves `value` from `from` to `to`; fails (and writes nothing) on
    /// insufficient balance.
    pub fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_bal = self.balance(&from);
        match from_bal.checked_sub(value) {
            Some(rest) => {
                self.set_balance(from, rest);
                let to_bal = self.balance(&to);
                self.set_balance(to, to_bal + value);
                true
            }
            None => false,
        }
    }

    /// Appends a log.
    pub fn log(&mut self, log: Log) {
        self.logs.push(log);
    }

    /// Snapshot for nested-call revert: O(1), just journal watermarks.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            journal_len: self.journal.len(),
            code_journal_len: self.code_journal.len(),
            log_len: self.logs.len(),
        }
    }

    /// Rolls writes, deployments and logs back to `cp` by unwinding the
    /// journals in reverse. Reads stay recorded: a reverted frame still
    /// *observed* those keys, and OCC validation must cover them.
    pub fn revert_to(&mut self, cp: Checkpoint) {
        self.last_read = None;
        while self.journal.len() > cp.journal_len {
            let (key, old) = self.journal.pop().expect("len checked");
            match old {
                Some(v) => self.buffer.insert(key, v),
                None => self.buffer.remove(&key),
            };
        }
        while self.code_journal.len() > cp.code_journal_len {
            let (addr, old) = self.code_journal.pop().expect("len checked");
            match old {
                Some(c) => self.code_buffer.insert(addr, c),
                None => self.code_buffer.remove(&addr),
            };
        }
        self.logs.truncate(cp.log_len);
    }

    /// Finishes the transaction: the recorded footprint (reads as observed,
    /// writes = final buffer), logs, and deployed code. The buffer *is* the
    /// write set (same map type), so this is a move, not a conversion.
    pub fn finish(mut self) -> (RwSet, Vec<Log>, FxHashMap<Address, Arc<Vec<u8>>>) {
        debug_assert!(self.rw.writes.is_empty());
        self.rw.writes = self.buffer;
        let mut journal = std::mem::take(&mut self.journal);
        journal.clear();
        JOURNAL_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < 8 {
                pool.push(journal);
            }
        });
        (self.rw, self.logs, self.code_buffer)
    }
}

thread_local! {
    /// Recycled undo-log buffers (see [`BufferedHost::new`]). Hosts
    /// abandoned on admission errors simply drop their journal; only the
    /// `finish` path returns one, so the pool stays tiny.
    static JOURNAL_POOL: std::cell::RefCell<Vec<Vec<JournalEntry>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn world() -> WorldState {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(100u64));
        w.set_storage(addr(2), H256::from_low_u64(0), U256::from(7u64));
        w.set_code(addr(2), vec![0x00]);
        w
    }

    #[test]
    fn reads_recorded_with_version() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        assert_eq!(h.read(AccessKey::Balance(addr(1))), U256::from(100u64));
        let (rw, _, _) = h.finish();
        assert_eq!(rw.reads[&AccessKey::Balance(addr(1))], 0);
        assert!(rw.writes.is_empty());
    }

    #[test]
    fn own_writes_visible_and_not_recorded_as_reads() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        h.write(AccessKey::Balance(addr(9)), U256::from(5u64));
        assert_eq!(h.read(AccessKey::Balance(addr(9))), U256::from(5u64));
        let (rw, _, _) = h.finish();
        assert!(!rw.reads.contains_key(&AccessKey::Balance(addr(9))));
        assert_eq!(rw.writes[&AccessKey::Balance(addr(9))], U256::from(5u64));
    }

    #[test]
    fn transfer_moves_value() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        assert!(h.transfer(addr(1), addr(3), U256::from(30u64)));
        assert_eq!(h.balance(&addr(1)), U256::from(70u64));
        assert_eq!(h.balance(&addr(3)), U256::from(30u64));
        // Insufficient funds: nothing changes.
        assert!(!h.transfer(addr(1), addr(3), U256::from(1000u64)));
        assert_eq!(h.balance(&addr(1)), U256::from(70u64));
    }

    #[test]
    fn zero_transfer_always_succeeds_without_reads() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        assert!(h.transfer(addr(5), addr(6), U256::ZERO));
        let (rw, _, _) = h.finish();
        assert!(rw.reads.is_empty());
    }

    #[test]
    fn checkpoint_revert_rolls_back_writes_keeps_reads() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        h.write(AccessKey::Balance(addr(1)), U256::from(1u64));
        let cp = h.checkpoint();
        h.write(AccessKey::Balance(addr(4)), U256::from(2u64));
        h.read(AccessKey::Storage(addr(2), H256::from_low_u64(0)));
        h.log(Log {
            address: addr(2),
            topics: vec![],
            data: vec![1],
        });
        h.revert_to(cp);
        let (rw, logs, _) = h.finish();
        assert!(logs.is_empty());
        assert!(rw.writes.contains_key(&AccessKey::Balance(addr(1))));
        assert!(!rw.writes.contains_key(&AccessKey::Balance(addr(4))));
        // The read inside the reverted region is still in the footprint.
        assert!(rw
            .reads
            .contains_key(&AccessKey::Storage(addr(2), H256::from_low_u64(0))));
    }

    #[test]
    fn set_code_visible_in_tx() {
        let w = world();
        let view = WorldView::new(&w);
        let mut h = BufferedHost::new(&view);
        h.set_code(addr(7), vec![0xAA, 0xBB]);
        assert_eq!(*h.code(&addr(7)), vec![0xAA, 0xBB]);
        let (rw, _, deployed) = h.finish();
        assert!(rw.writes.contains_key(&AccessKey::Code(addr(7))));
        assert_eq!(*deployed[&addr(7)], vec![0xAA, 0xBB]);
    }

    #[test]
    fn mv_snapshot_respects_version() {
        let base = Arc::new(world());
        let mv = MultiVersionState::new(base, 2);
        // Version 1 writes another account; version 2 writes addr(1).
        for (who, value) in [(9, 5u64), (1, 60)] {
            let mut ws: bp_types::WriteSet = Default::default();
            ws.insert(AccessKey::Balance(addr(who)), U256::from(value));
            mv.commit(&ws, &Default::default());
        }

        let snap1 = MvSnapshot::new(&mv, 1);
        let mut h1 = BufferedHost::new(&snap1);
        assert_eq!(h1.read(AccessKey::Balance(addr(1))), U256::from(100u64));

        let snap2 = MvSnapshot::new(&mv, 2);
        let mut h2 = BufferedHost::new(&snap2);
        assert_eq!(h2.read(AccessKey::Balance(addr(1))), U256::from(60u64));
        let (rw, _, _) = h2.finish();
        assert_eq!(rw.reads[&AccessKey::Balance(addr(1))], 2);
    }
}
