//! The world state: every account plus its storage, with MPT commitment.
//!
//! `WorldState` is the flat, mutable representation both executors operate
//! on. [`WorldState::state_root`] commits it into the authenticated form — a
//! *secure* Merkle Patricia Trie (keys hashed with keccak, as in Ethereum) of
//! RLP-encoded accounts, each carrying the root of its own storage trie.
//!
//! Commitment is **incremental**: every mutation records which account (and
//! which storage slots) it dirtied, and the tries produced by the previous
//! commit are retained. `state_root()` / `commit_tries()` then re-insert only
//! the dirty entries — removing deleted slots and emptied accounts — so the
//! per-block cost is O(dirty keys · log n) instead of O(total state). What
//! a commit hashes it hashes in batches, for the eight-at-a-time keccak
//! kernel: the dirty addresses, each account's dirty slots, the new nodes of
//! all the dirty storage tries level by level together, then the account
//! trie's. In debug builds every incremental root is cross-checked against
//! a from-scratch rebuild ([`WorldState::rebuild_root`]).
//!
//! The account map, each account's storage map and a commit's map of
//! storage tries are persistent maps ([`PMap`]), and accounts sit behind
//! [`Arc`], so cloning a `WorldState` ([`WorldState::snapshot`]) is O(1) in
//! the number of accounts — a root-pointer bump per map plus a copy of the
//! dirty set — and a write after it copies one root-to-entry path of map
//! nodes and the one touched account body, never that account's storage. A
//! block therefore costs O(state it touches): every validator forks the
//! pre-block world once to apply, and the account maps retained per height
//! share everything they did not write.
//!
//! What no other handle points at is written in place: the maps' nodes, the
//! account bodies, and the nodes of the account trie and of each storage
//! trie, which a commit takes out of the one it patches by value when no
//! other handle may commit on that one any more. The proposer, whose chain
//! of states nobody else reads, seals each block into its parent itself. The
//! validator folds each block into an heir of its published parent
//! ([`WorldState::heir`]), whose first commit takes the parent's settled
//! tries over unless a sibling in flight may still commit on them; the
//! parent keeps its root, a link to the heir's commit and the keys the heir
//! wrote. So the tries are not kept per height: on a linear chain each
//! commit edits the one set of tries in place.
//! A commit whose base's tries moved on — a sibling's that arrived after its
//! cousin's lineage took them, a valid sibling's after a rejected child took
//! them — follows the links to the first settled commit, clones it and
//! recommits, in one batch, every key written along the way with the values
//! of its own account map: about one root, paid only on a fork.
//!
//! A snapshot never waits for a root. Each commit has a record, shared by
//! the world that began it and its snapshots, which can still be *pending*.
//! A commit runs in two steps: it *begins* under the tracker lock, taking the
//! dirty set and installing its pending record
//! ([`WorldState::begin_commit`]), and *finishes* outside it, hashing and
//! settling the record with the new tries; `state_root` is the two in a row,
//! and finishes a commit that began earlier unless another thread already
//! took it. A snapshot taken after the begin carries that record and an
//! empty dirty set; its own first commit waits on the record and then
//! patches only what the snapshot itself wrote, never rehashing the
//! parent's accounts. This is what lets the validator begin block N's
//! commit, publish N's post-state and run block N+1 on it while N's root
//! still hashes on another thread: the wait moves from the child's fork to
//! the child's root, which needs the parent's tries anyway. A commit that
//! panics part-way, or is dropped unhashed, poisons its record, so whoever
//! waits on it panics too instead of hanging.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bp_concurrent::crew::{self, Crew, Priority};
use bp_concurrent::sync::{Condvar, Mutex, MutexGuard};
use bp_crypto::{keccak256, keccak256_batch, rlp};
use bp_types::{AccessKey, Address, WriteSet, H256, U256};
// Dirty tracking and the from-scratch oracle's scratch maps are Fx-hashed:
// keys are fixed-size hashes/addresses, and SipHash showed up as the top
// per-transaction cost in the EVM bench.
use bp_types::{FxHashMap as HashMap, FxHashSet as HashSet};

use crate::account::{empty_code_hash, Account};
use crate::pmap::PMap;
use crate::trie::{self, Subtrie, Trie};

/// Accounts from which a commit fans out into crew tasks: below it the
/// hand-off costs more than a second thread saves (EXPERIMENTS.md, "One crew
/// for the node"). A commit on a base — every block's — splits only when its
/// crew has an idle helper at that instant, into one shard per idle helper
/// and one for the caller. The first commit of a lineage, built from scratch
/// (the genesis, a snapshot's reopen), always splits into the sixteen groups
/// of its hashed addresses' first nibble, as tasks whichever crew thread is
/// free takes; the caller runs what no helper took (EXPERIMENTS.md, "The
/// first commit on both cores").
pub const FAN_OUT_MIN: usize = 128;

/// Slots from which a storage trie built from scratch is built as sixteen
/// crew tasks of its own, one a first nibble of the hashed slot, before the
/// accounts' groups: one account's storage would otherwise be one group's
/// task alone (the `wide_transfers` token, 100 000 slots, was 40 % of its
/// first commit on one thread). Far above [`FAN_OUT_MIN`], since the split
/// costs sixteen hand-offs and a join: a whole first root of 4 096
/// accounts and a 4 096-slot storage takes about 7 ms on one thread
/// (EXPERIMENTS.md, "The first commit on both cores").
pub const STORAGE_SPLIT_MIN: usize = 4_096;

/// One account's in-memory state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccountState {
    /// Transaction/creation counter.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Contract storage (absent slots are zero). Persistent, so copying the
    /// account for a write shares the slots it does not touch.
    pub storage: PMap<H256, U256>,
    /// Contract code (empty for EOAs). `Arc` so snapshots share it.
    pub code: Arc<Vec<u8>>,
    /// `keccak256(code)` as a word, `U256::ZERO` for empty code — the value
    /// an [`AccessKey::Code`] read resolves to. Derived data, kept eagerly in
    /// sync with `code` so the per-transaction code-identity read in the EVM
    /// host does not recompute a keccak per call frame (~½ µs, formerly the
    /// single largest fixed cost of a contract call). Set from `code` by the
    /// two ways code gets into a world: [`WorldState::set_code`] and
    /// [`WorldState::from_accounts`].
    pub code_hash: U256,
}

/// The word an [`AccessKey::Code`] read resolves to for the given bytecode.
///
/// Empty code reads as `U256::ZERO` (distinct from the *trie* encoding,
/// which uses `keccak256("")` — see [`crate::account::empty_code_hash`]).
pub fn code_read_word(code: &[u8]) -> U256 {
    if code.is_empty() {
        U256::ZERO
    } else {
        keccak256(code).to_u256()
    }
}

impl AccountState {
    /// True iff this account would not be persisted (EIP-161 emptiness).
    pub fn is_empty(&self) -> bool {
        self.nonce == 0 && self.balance.is_zero() && self.code.is_empty() && self.storage.is_empty()
    }
}

/// What a mutation dirtied within one account since the last commit: its
/// body, and the listed storage slots. Every other slot is untouched, so a
/// retained storage trie is patched.
type DirtyAccount = HashSet<H256>;

/// The tries produced by the last commit, reused as the base for the next.
#[derive(Clone, Debug)]
struct WorldCommit {
    root: H256,
    account_trie: Trie,
    /// Storage tries of accounts with non-empty storage. Map and tries are
    /// structurally shared with prior commits, so a recommit of a shared
    /// commit copies only what it updates.
    storage_tries: PMap<Address, Trie>,
}

impl Default for WorldCommit {
    fn default() -> Self {
        WorldCommit {
            root: trie::empty_root(),
            account_trie: Trie::new(),
            storage_tries: PMap::new(),
        }
    }
}

/// Accounts, and the slots of each, that one commit patched.
type Written = HashMap<Address, DirtyAccount>;

/// One commit, from the moment it begins: what its hashing settles, and then
/// where its tries are. Shared by the world that began it, every snapshot
/// forked from that world since and, once a child's commit took its tries
/// over, the record of the commit it was taken from.
struct Record {
    held: Mutex<Held>,
    settled: Condvar,
    /// How many [`Retained`] handles — worlds and begun commits that may
    /// still commit on this one — point here. What decides whether a child
    /// may take the tries over; a thread that only waits for the root holds
    /// the record without counting. It orders nothing (`Relaxed`): a stale
    /// count only makes a commit clone tries it could have taken, or take
    /// tries that another handle then rebuilds from the heir's — both
    /// correct.
    retained: AtomicUsize,
}

/// A commit's state.
enum Held {
    /// Begun, not hashed yet.
    Pending,
    /// Hashed: the tries.
    Settled(WorldCommit),
    /// Hashed, then taken over by a child's commit, which edits the tries in
    /// place: what is left is the root, the child's record and the keys its
    /// batch patched — enough to rebuild these tries from the child's in one
    /// batch.
    Moved {
        root: H256,
        heir: Arc<Record>,
        written: Written,
    },
    /// The hashing panicked, or the commit was dropped unhashed.
    Poisoned,
}

impl Record {
    fn pending() -> Arc<Record> {
        Arc::new(Record {
            held: Mutex::new(Held::Pending),
            settled: Condvar::new(),
            retained: AtomicUsize::new(0),
        })
    }

    /// Ends the pending state with `held` and wakes the waiters; does
    /// nothing once it ended.
    fn settle(&self, held: Held) {
        let mut state = self.held.lock();
        if matches!(*state, Held::Pending) {
            *state = held;
            self.settled.notify_all();
        }
    }

    /// The commit's state once its hashing is over. Panics when the hashing
    /// panicked or never happened.
    fn wait(&self) -> MutexGuard<'_, Held> {
        let mut held = self.held.lock();
        while matches!(*held, Held::Pending) {
            self.settled.wait(&mut held);
        }
        if matches!(*held, Held::Poisoned) {
            drop(held);
            panic!("the commit this world was forked from panicked or was dropped unhashed");
        }
        held
    }

    /// The root, once hashed; `None` while pending.
    fn try_root(&self) -> Option<H256> {
        match &*self.held.lock() {
            Held::Settled(commit) => Some(commit.root),
            Held::Moved { root, .. } => Some(*root),
            Held::Pending | Held::Poisoned => None,
        }
    }

    /// The root, once hashed.
    fn root(&self) -> H256 {
        match &*self.wait() {
            Held::Settled(commit) => commit.root,
            Held::Moved { root, .. } => *root,
            Held::Pending | Held::Poisoned => unreachable!("waited for"),
        }
    }
}

impl Drop for Record {
    /// A chain of records, each the heir of the one before, goes link by
    /// link rather than by recursion, however long the chain a validator
    /// left behind.
    fn drop(&mut self) {
        let mut next = heir_of(self);
        while let Some(record) = next {
            next = Arc::try_unwrap(record)
                .ok()
                .and_then(|mut r| heir_of(&mut r));
        }
    }
}

/// The heir `record` links to, taken out of it.
fn heir_of(record: &mut Record) -> Option<Arc<Record>> {
    match std::mem::replace(record.held.get_mut(), Held::Poisoned) {
        Held::Moved { heir, .. } => Some(heir),
        _ => None,
    }
}

/// A world's handle on its last commit, or a begun commit's on the one it
/// patches: settled or still pending, kept or taken over by a child.
struct Retained(Arc<Record>);

impl Retained {
    fn new(record: &Arc<Record>) -> Retained {
        record.retained.fetch_add(1, Ordering::Relaxed);
        Retained(Arc::clone(record))
    }

    /// This settled commit's tries, taken over by the commit of `taker`,
    /// which edits them in place — leaving the root, a link to `taker` and
    /// the keys it `wrote` behind — when no handle but this one may commit
    /// on them any more, or when the one other is their owner's and the
    /// taker its [`WorldState::heir`]. `None` leaves them where they are:
    /// the taker then clones them, or they moved on already.
    fn take(&self, taker: &Arc<Record>, heir: bool, wrote: &Written) -> Option<WorldCommit> {
        let mut held = self.0.wait();
        let Held::Settled(commit) = &mut *held else {
            return None;
        };
        let take = match self.0.retained.load(Ordering::Relaxed) {
            1 => true,
            2 => heir,
            _ => false,
        };
        if !take {
            return None;
        }
        let commit = std::mem::take(commit);
        // Reachable only through this handle: nothing to leave behind.
        let written = match Arc::strong_count(&self.0) {
            1 => Written::default(),
            _ => wrote.clone(),
        };
        *held = Held::Moved {
            root: commit.root,
            heir: Arc::clone(taker),
            written,
        };
        Some(commit)
    }
}

impl Clone for Retained {
    fn clone(&self) -> Self {
        Retained::new(&self.0)
    }
}

impl Drop for Retained {
    fn drop(&mut self) {
        self.0.retained.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Retained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.try_root() {
            Some(root) => write!(f, "Retained({root:?})"),
            None => f.write_str("Retained(pending)"),
        }
    }
}

/// The tries of `record` once hashed: its own, cloned, or — taken over by a
/// child's commit — those of the nearest settled descendant along the
/// `heir` links, waited for if still pending, with every key written along
/// the way added to `dirty`. Recommitting `dirty` from the account map the
/// record was hashed from then gives its tries back: one batch, about one
/// root, and only on a fork.
fn follow(mut record: Arc<Record>, dirty: &mut Written) -> WorldCommit {
    loop {
        let held = record.wait();
        let heir = match &*held {
            Held::Settled(commit) => return commit.clone(),
            Held::Moved { heir, written, .. } => {
                for (addr, slots) in written {
                    dirty.entry(*addr).or_default().extend(slots);
                }
                Arc::clone(heir)
            }
            Held::Pending | Held::Poisoned => unreachable!("waited for"),
        };
        drop(held);
        record = heir;
    }
}

/// A commit begun and not yet hashed: what it hashes — the accounts as they
/// were when it began, the commit it patches, the accounts dirtied since —
/// and its record, which the world's snapshots wait on meanwhile. Dropped
/// unhashed, it poisons the record, so that whoever waits on it panics
/// instead of hanging.
struct Begun {
    accounts: Accounts,
    base: Option<Retained>,
    dirty: Written,
    record: Arc<Record>,
    /// Whether this is the first commit of a [`WorldState::heir`].
    heir: bool,
}

impl Drop for Begun {
    fn drop(&mut self) {
        self.record.settle(Held::Poisoned);
    }
}

impl std::fmt::Debug for Begun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Begun({} dirty)", self.dirty.len())
    }
}

/// Dirty bookkeeping between commits. Lives behind a mutex only so the
/// read-side `state_root(&self)` can refresh the memo; all mutation paths
/// take `&mut self` and use the lock-free `get_mut`. The lock is held only
/// to read or swap these fields, never across hashing.
#[derive(Debug, Default)]
struct CommitTracker {
    /// Accounts touched since the last commit. Absent entirely ⇒ the last
    /// commit is current.
    dirty: Written,
    /// The last commit, shared O(1) across clones until one of them
    /// recommits. Pending from the moment it begins until it is hashed.
    commit: Option<Retained>,
    /// The pending commit, while nobody hashes it yet. Never cloned: a
    /// snapshot waits on the commit's record, it does not hash it.
    begun: Option<Begun>,
    /// Set on a [`WorldState::heir`] until its first commit begins.
    heir: bool,
}

/// The account map of a world.
type Accounts = PMap<Address, Arc<AccountState>>;

/// The mutable world state of the chain.
#[derive(Debug, Default)]
pub struct WorldState {
    accounts: Accounts,
    tracker: Mutex<CommitTracker>,
}

impl Clone for WorldState {
    /// Copy-on-write, O(dirty accounts): the account map and the retained
    /// commit tries are shared by pointer until either side writes; only the
    /// not-yet-committed dirty set is copied. Never waits for a root: a clone
    /// taken while this world's commit hashes carries the pending commit.
    fn clone(&self) -> Self {
        let tracker = self.tracker.lock();
        WorldState {
            accounts: self.accounts.clone(),
            tracker: Mutex::new(CommitTracker {
                dirty: tracker.dirty.clone(),
                commit: tracker.commit.clone(),
                begun: None,
                heir: false,
            }),
        }
    }
}

impl PartialEq for WorldState {
    /// Equality is by account contents only — commit memos are derived
    /// data.
    fn eq(&self, other: &Self) -> bool {
        self.accounts == other.accounts
    }
}

impl WorldState {
    /// An empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// A world holding `accounts`, built in one pass: the world setters
    /// would build, without their per-write dirty bookkeeping, so its first
    /// commit hashes every account from scratch, as a setter-built world's
    /// first commit does. Each account's `code_hash` is computed from its
    /// code, whatever was passed in. An address given twice keeps its last
    /// account. Storage must hold no zero value (an absent slot reads zero).
    pub fn from_accounts(accounts: impl IntoIterator<Item = (Address, AccountState)>) -> Self {
        let accounts = accounts
            .into_iter()
            .map(|(addr, mut acct)| {
                debug_assert!(
                    acct.storage.values().all(|value| !value.is_zero()),
                    "a zero slot of {addr:?} is absent, not stored"
                );
                acct.code_hash = code_read_word(&acct.code);
                (addr, Arc::new(acct))
            })
            .collect();
        WorldState {
            accounts,
            tracker: Mutex::default(),
        }
    }

    /// A copy-on-write snapshot: the validator pipeline's per-block base.
    /// Alias of `clone()`, named for intent — the copy does not depend on
    /// the number of accounts, and a write to either side copies one path of
    /// the account map and the touched account body.
    ///
    /// A snapshot never waits for a root. Taken while another thread hashes
    /// this world's root, it carries that *pending* commit: its own first
    /// [`WorldState::state_root`] waits for the pending one to settle and
    /// then hashes only what was written to the snapshot.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// A snapshot that inherits this world's tries: once this world's
    /// commit has settled, the snapshot's first commit takes those tries
    /// over and edits them in place, unless a handle other than this
    /// world's may still commit on them (a sibling in flight, another
    /// snapshot). This world then keeps its root and a link to where its
    /// tries went, from which a later commit on it — a sibling's — rebuilds
    /// them in one batch. The validator folds each block into its published
    /// parent's heir: on a linear chain every commit edits the one set of
    /// tries, and no old version of them is kept per height.
    pub fn heir(&self) -> Self {
        let mut heir = self.clone();
        heir.tracker.get_mut().heir = true;
        heir
    }

    /// Read access to an account, if present.
    pub fn account(&self, addr: &Address) -> Option<&AccountState> {
        self.accounts.get(addr).map(|a| &**a)
    }

    /// Marks the account body (balance/nonce/code) dirty without touching
    /// storage slots, and returns the account for mutation.
    fn body_mut(&mut self, addr: Address) -> &mut AccountState {
        self.tracker.get_mut().dirty.entry(addr).or_default();
        entry(&mut self.accounts, addr)
    }

    /// The balance of `addr` (zero if absent).
    pub fn balance(&self, addr: &Address) -> U256 {
        self.accounts.get(addr).map_or(U256::ZERO, |a| a.balance)
    }

    /// The nonce of `addr` (zero if absent).
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.accounts.get(addr).map_or(0, |a| a.nonce)
    }

    /// The storage slot `key` of `addr` (zero if absent).
    pub fn storage(&self, addr: &Address, key: &H256) -> U256 {
        self.accounts
            .get(addr)
            .and_then(|a| a.storage.get(key).copied())
            .unwrap_or(U256::ZERO)
    }

    /// The code of `addr` (empty if absent).
    pub fn code(&self, addr: &Address) -> Arc<Vec<u8>> {
        self.accounts
            .get(addr)
            .map(|a| Arc::clone(&a.code))
            .unwrap_or_default()
    }

    /// Sets a balance, creating the account if needed.
    pub fn set_balance(&mut self, addr: Address, balance: U256) {
        self.body_mut(addr).balance = balance;
    }

    /// Sets a nonce.
    pub fn set_nonce(&mut self, addr: Address, nonce: u64) {
        self.body_mut(addr).nonce = nonce;
    }

    /// Sets a storage slot. Writing zero deletes the slot, as in Ethereum.
    pub fn set_storage(&mut self, addr: Address, key: H256, value: U256) {
        self.tracker
            .get_mut()
            .dirty
            .entry(addr)
            .or_default()
            .insert(key);
        let acct = entry(&mut self.accounts, addr);
        if value.is_zero() {
            acct.storage.remove(&key);
        } else {
            acct.storage.insert(key, value);
        }
    }

    /// Installs contract code, keeping the cached
    /// [`AccountState::code_hash`] in sync. Code already behind an `Arc` is
    /// shared, not copied.
    pub fn set_code(&mut self, addr: Address, code: impl Into<Arc<Vec<u8>>>) {
        let code = code.into();
        let acct = self.body_mut(addr);
        acct.code_hash = code_read_word(&code);
        acct.code = code;
    }

    /// Reads the value behind an [`AccessKey`] as a 256-bit word (code reads
    /// return the code hash, which is what conflict detection needs).
    pub fn read_key(&self, key: &AccessKey) -> U256 {
        match key {
            AccessKey::Balance(a) => self.balance(a),
            AccessKey::Nonce(a) => U256::from(self.nonce(a)),
            AccessKey::Storage(a, slot) => self.storage(a, slot),
            AccessKey::Code(a) => self
                .accounts
                .get(a)
                .map_or(U256::ZERO, |acct| acct.code_hash),
        }
    }

    /// [`WorldState::read_key`] with a caller-held one-account memo.
    ///
    /// A transaction's reads cluster on two or three accounts (sender,
    /// callee, coinbase), and the account-map probe — a hash plus two
    /// dependent cache misses on a mainnet-sized map — repeats for every
    /// balance, nonce, storage and code-identity read. The memo pins the
    /// last account touched so consecutive reads of the same account skip
    /// the probe. The `&Self` borrow held by the memo entry
    /// keeps the world immutable for the memo's whole lifetime, so entries
    /// can never go stale.
    pub fn read_key_memo<'a>(
        &'a self,
        key: &AccessKey,
        memo: &mut Option<(Address, &'a AccountState)>,
    ) -> U256 {
        let addr = key.address();
        let acct: Option<&'a AccountState> = match memo {
            Some((cached, acct)) if *cached == addr => Some(*acct),
            _ => {
                let found = self.accounts.get(&addr).map(|arc| &**arc);
                if let Some(acct) = found {
                    *memo = Some((addr, acct));
                }
                found
            }
        };
        let Some(acct) = acct else {
            // An absent account reads as zero throughout, as in `read_key`.
            return U256::ZERO;
        };
        match key {
            AccessKey::Balance(_) => acct.balance,
            AccessKey::Nonce(_) => U256::from(acct.nonce),
            AccessKey::Storage(_, slot) => acct.storage.get(slot).copied().unwrap_or(U256::ZERO),
            AccessKey::Code(_) => acct.code_hash,
        }
    }

    /// Applies one transaction's write set: the block's profile fold, which
    /// seals and validates every block, applies each entry's in block order,
    /// and the serial baseline each executed transaction's. `Code` writes are
    /// ignored here: the write carries the code's hash, and the code itself
    /// goes in through [`WorldState::set_code`] — in the fold from the code
    /// the entry ships, in the baseline from what execution deployed.
    pub fn apply_writes(&mut self, writes: &WriteSet) {
        for (key, value) in writes {
            match key {
                AccessKey::Balance(a) => self.set_balance(*a, *value),
                AccessKey::Nonce(a) => {
                    self.set_nonce(*a, value.low_u64());
                }
                AccessKey::Storage(a, slot) => self.set_storage(*a, *slot, *value),
                AccessKey::Code(_) => {}
            }
        }
    }

    /// Iterates over all accounts.
    pub fn accounts(&self) -> impl Iterator<Item = (&Address, &AccountState)> {
        self.accounts.iter().map(|(a, acct)| (a, &**acct))
    }

    /// Commits the world into a secure MPT and returns the state root.
    ///
    /// Empty accounts are skipped (EIP-161). Storage tries use
    /// `keccak(slot) → rlp(value)` leaves; the account trie uses
    /// `keccak(address) → rlp(account)`.
    ///
    /// Incremental: only accounts dirtied since the previous call are
    /// re-inserted into the retained tries, each trie in one batch descent.
    /// Debug builds assert the result against [`WorldState::rebuild_root`].
    pub fn state_root(&self) -> H256 {
        self.refresh()
    }

    /// Commits the world into its secure MPT form and returns the state root
    /// together with every hashed trie node — the account trie's plus those
    /// of each non-empty storage trie, once per reference (see
    /// [`crate::trie::Trie::commit_nodes`]).
    ///
    /// The tries come from the same incremental memo as
    /// [`WorldState::state_root`]: hashes come from the retained tries,
    /// nothing is re-hashed — unless a child's commit took them over, and
    /// then they are rebuilt as a sibling's commit would rebuild them.
    /// Compared against a fresh world's, the node set is the tests' structural
    /// oracle for the incremental commit.
    pub fn commit_tries(&self) -> (H256, Vec<(H256, Vec<u8>)>) {
        self.refresh();
        let record = match &self.tracker.lock().commit {
            Some(retained) => Arc::clone(&retained.0),
            None => unreachable!("a commit was begun"),
        };
        let mut written = Written::default();
        let commit = follow(record, &mut written);
        let commit = match written.is_empty() {
            true => commit,
            false => recommit(&self.accounts, Some((commit, written))),
        };
        let mut nodes = Vec::new();
        for storage_trie in commit.storage_tries.values() {
            let (_, storage_nodes) = storage_trie.commit_nodes();
            nodes.extend(storage_nodes);
        }
        let (root, account_nodes) = commit.account_trie.commit_nodes();
        nodes.extend(account_nodes);
        (root, nodes)
    }

    /// Recomputes the state root from scratch, ignoring and not touching the
    /// incremental memo. The oracle the incremental path is checked against
    /// (automatically so in debug builds).
    pub fn rebuild_root(&self) -> H256 {
        rebuild_root(&self.accounts)
    }

    /// Begins this world's next commit without hashing it: under the
    /// tracker lock, takes the dirty set and installs the pending commit. A
    /// snapshot taken from then on carries that pending commit and an empty
    /// dirty set, so its own commit never hashes this world's writes again.
    /// The first [`WorldState::state_root`] on this world, on any thread,
    /// hashes the begun commit; any other waits on that work. A snapshot's
    /// own root waits for it too, so whoever begins a commit sees to it that
    /// this world's root is asked for (the validator queues it as a crew
    /// task). Does nothing when nothing was written since the last commit
    /// began.
    pub fn begin_commit(&self) {
        loop {
            let mut tracker = self.tracker.lock();
            if tracker.dirty.is_empty() && tracker.commit.is_some() {
                return;
            }
            match tracker.begun.take() {
                // Begun, then written to: the begun commit is the next one's
                // base, so it is hashed first.
                Some(earlier) => {
                    drop(tracker);
                    self.finish(earlier);
                }
                None => {
                    let record = Record::pending();
                    let base = tracker.commit.replace(Retained::new(&record));
                    // The dirty set is taken, not drained: a drained table
                    // keeps its capacity, and every snapshot of this world
                    // from then on would copy a table the size of the
                    // largest batch it ever saw (a 100 000-account genesis:
                    // 7 MB a clone).
                    let dirty = std::mem::take(&mut tracker.dirty);
                    let heir = std::mem::take(&mut tracker.heir);
                    tracker.begun = Some(Begun {
                        accounts: self.accounts.clone(),
                        base,
                        dirty,
                        record,
                        heir,
                    });
                    return;
                }
            }
        }
    }

    /// Brings the retained commit up to date with all dirty accounts and
    /// returns its root: [`WorldState::begin_commit`], then the begun commit
    /// hashed on this thread — or, when another thread took it first, that
    /// thread's work waited for.
    fn refresh(&self) -> H256 {
        self.begin_commit();
        let mut tracker = self.tracker.lock();
        if let Some(begun) = tracker.begun.take() {
            drop(tracker);
            return self.finish(begun);
        }
        let record = &tracker.commit.as_ref().expect("a commit was begun").0;
        // A settled root is read under the lock: asking for it holds no
        // handle that a child's commit would count.
        if let Some(root) = record.try_root() {
            return root;
        }
        let record = Arc::clone(record);
        drop(tracker);
        record.root()
    }

    /// Hashes a begun commit outside the tracker lock, so a snapshot taken
    /// meanwhile does not wait, and settles its record — or, should the
    /// hashing panic, poisons it.
    fn finish(&self, mut begun: Begun) -> H256 {
        let hashing = Hashing {
            world: self,
            record: Arc::clone(&begun.record),
        };
        let mut dirty = std::mem::take(&mut begun.dirty);
        // Taken over when no other handle may commit on it (edited in place
        // wherever no other commit shares its nodes), else cloned (cheap —
        // tries share structure, and the patch copies the paths it takes),
        // or rebuilt when a child's commit took it over. None for the first
        // commit of a lineage, which builds every account's tries.
        let base = begun.base.take().map(|base| {
            let commit = base
                .take(&begun.record, begun.heir, &dirty)
                .unwrap_or_else(|| follow(Arc::clone(&base.0), &mut dirty));
            (commit, dirty)
        });
        #[cfg(test)]
        if let Some(hook) = REFRESH_HOOK.take() {
            hook();
        }
        hashing.settle(recommit(&begun.accounts, base))
    }
}

/// The commit of `accounts`: a `base` commit patched with the accounts it
/// lists dirty, or with none, every account built from scratch. Debug builds
/// check the root against [`rebuild_root`].
fn recommit(accounts: &Accounts, base: Option<(WorldCommit, Written)>) -> WorldCommit {
    let commit = match base {
        Some((commit, dirty)) => patch(accounts, commit, dirty),
        None => build(accounts),
    };
    debug_assert_eq!(
        commit.root,
        rebuild_root(accounts),
        "incremental state root diverged from from-scratch rebuild"
    );
    commit
}

/// `commit` patched with the `dirty` accounts of `accounts`.
fn patch(accounts: &Accounts, mut commit: WorldCommit, dirty: Written) -> WorldCommit {
    let mut dirty = sorted_dirty(accounts, dirty);
    // The retained storage trie of each account whose slots are patched is
    // taken out of the commit, not cloned: whatever of it the commit holds
    // alone, the patch then edits in place.
    for entry in &mut dirty {
        let patched = !entry.slots.is_empty()
            && entry.acct.is_some()
            && commit.storage_tries.contains_key(&entry.addr);
        if patched {
            let retained = commit
                .storage_tries
                .get_or_insert_with(entry.addr, Trie::new);
            entry.storage = Some(std::mem::take(retained));
        }
    }
    // A large batch fans out when a helper is idle: the root's subtrees,
    // with the storage tries of the accounts under them, are patched as
    // crew tasks. With every helper busy there is no core to gain and
    // the split costs its own bookkeeping, so the batch stays whole.
    let crew = crew::current();
    let shards = match dirty.len() >= fan_out_min() {
        true => (crew.idle_helpers() + 1).min(16),
        false => 1,
    };
    let account_trie = std::mem::take(&mut commit.account_trie);
    let split = match shards > 1 {
        true => account_trie.split(),
        false => Err(account_trie),
    };
    let replaced = match split {
        Err(mut account_trie) => {
            let (mut bodies, replaced) = account_updates(&commit.storage_tries, &mut dirty);
            account_trie.apply_sorted(&mut bodies);
            commit.account_trie = account_trie;
            replaced
        }
        Ok(mut split) => {
            let replaced = commit_shards(
                &crew,
                shards,
                &commit.storage_tries,
                &mut dirty,
                split.subtries(),
            );
            commit.account_trie = split.join();
            replaced
        }
    };
    for (addr, storage_trie) in replaced {
        if storage_trie.is_empty() {
            commit.storage_tries.remove(&addr);
        } else {
            commit.storage_tries.insert(addr, storage_trie);
        }
    }
    commit.root = commit.account_trie.root_hash();
    commit
}

/// The `written` accounts as a commit takes them: in the order of their
/// hashed addresses (hashed as one batch), the order the account trie's
/// descent takes them in. What is sorted is the hashes and the records'
/// places; each record then moves once.
fn sorted_dirty(accounts: &Accounts, written: Written) -> Vec<Dirty<'_>> {
    let mut records: Vec<Option<Dirty>> = written
        .into_iter()
        .map(|(addr, slots)| Some(Dirty::new(addr, accounts.get(&addr), slots)))
        .collect();
    let keys = keccak256_batch(records.iter().flatten().map(|entry| entry.addr.as_bytes()));
    let mut order: Vec<(HashedKey, u32)> = keys.into_iter().map(|key| key.0).zip(0..).collect();
    order.sort_unstable_by_key(|entry| entry.0);
    order
        .into_iter()
        .map(|(key, at)| {
            let mut entry = records[at as usize].take().expect("each record moves once");
            entry.key = key;
            entry
        })
        .collect()
}

/// The tries of every account in `accounts`, built from scratch: the first
/// commit of a lineage. The accounts split into the sixteen groups of their
/// hashed addresses' first nibble, each one task that builds its accounts'
/// storage tries and then its subtree of the account trie; a storage trie
/// of at least [`STORAGE_SPLIT_MIN`] slots is built before them, as sixteen
/// tasks of its own, and handed to its account's group. At
/// [`FAN_OUT_MIN`] accounts or more the tasks go to the crew, idle or not,
/// this thread running what no helper took; below, or with no helper, they
/// run here one after another. Nothing is built for an account without
/// storage but its body.
fn build(accounts: &Accounts) -> WorldCommit {
    let crew = crew::current();
    // The accounts the trie holds (EIP-161), and those of them whose
    // storage is built apart.
    let mut kept = Vec::with_capacity(accounts.len());
    let mut large = Vec::new();
    for (addr, acct) in accounts.iter() {
        if acct.is_empty() {
            continue;
        }
        if acct.storage.len() >= STORAGE_SPLIT_MIN {
            large.push(kept.len());
        }
        kept.push((*addr, &**acct));
    }
    let fan_out = kept.len() >= fan_out_min();
    let hashed = HashedGroups::of(&crew, fan_out, &kept, |(addr, _)| addr.as_bytes());
    let mut built: [Vec<(u32, Trie)>; 16] = Default::default();
    for at in large {
        let (addr, acct) = kept[at];
        let storage_trie = build_storage(&crew, &acct.storage);
        built[nibble(&keccak256(addr.as_bytes()).0)].push((at as u32, storage_trie));
    }
    let Ok(mut split) = Trie::new().split() else {
        unreachable!("an empty trie splits")
    };
    let mut retained: [Vec<(Address, Trie)>; 16] = Default::default();
    let (kept, hashed) = (&kept, &hashed);
    let groups = (0..16).zip(built).zip(split.subtries()).zip(&mut retained);
    run_tasks(
        &crew,
        fan_out,
        groups.map(|(((n, built), subtrie), out)| {
            move || *out = build_group(kept, &hashed.sorted(n), built, subtrie)
        }),
    );
    let account_trie = split.join();
    WorldCommit {
        root: account_trie.root_hash(),
        account_trie,
        storage_tries: retained.into_iter().flatten().collect(),
    }
}

/// One first-nibble group of [`build`]: `group`, the sorted hashed addresses
/// of its accounts with their places in `kept`, applied to `subtrie` once
/// each account's storage trie is there — `built` already when it is
/// large, else built here, the group's new nodes hashed level by level
/// together. Returns the storage tries to retain.
fn build_group(
    kept: &[(Address, &AccountState)],
    group: &[(HashedKey, u32)],
    mut built: Vec<(u32, Trie)>,
    subtrie: &mut Subtrie,
) -> Vec<(Address, Trie)> {
    let acct = |at: u32| kept[at as usize].1;
    // The non-empty storage tries, by place in the group.
    let mut storage: Vec<(usize, Trie)> = Vec::new();
    for (place, &(_, at)) in group.iter().enumerate() {
        let slots = &acct(at).storage;
        let storage_trie = match slots.len() {
            0 => continue,
            n if n >= STORAGE_SPLIT_MIN => {
                let i = built.iter().position(|entry| entry.0 == at);
                built
                    .swap_remove(i.expect("a large storage is built first"))
                    .1
            }
            _ => storage_trie_pending(slots.keys(), slots.values()),
        };
        storage.push((place, storage_trie));
    }
    trie::commit_pending(storage.iter_mut().map(|(_, storage_trie)| storage_trie));
    let mut roots = storage.iter().peekable();
    let mut bodies: Vec<TrieUpdate> = group
        .iter()
        .enumerate()
        .map(|(place, &(key, at))| {
            let root = roots
                .next_if(|(with, _)| *with == place)
                .map_or_else(trie::empty_root, |(_, storage_trie)| {
                    storage_trie.root_hash()
                });
            (key, Some(body_of(acct(at), root)))
        })
        .collect();
    if !bodies.is_empty() {
        subtrie.apply_sorted_pending(&mut bodies);
    }
    trie::commit_subtries(std::iter::once(subtrie));
    storage
        .into_iter()
        .map(|(place, storage_trie)| (kept[group[place].1 as usize].0, storage_trie))
        .collect()
}

/// A storage trie built from scratch as sixteen crew tasks, one a first
/// nibble of the hashed slots: each sorts its slots, encodes their leaves
/// straight into its update list and builds and hashes its subtree; the
/// join hashes the root over them.
fn build_storage(crew: &Crew, storage: &PMap<H256, U256>) -> Trie {
    let slots: Vec<(&H256, &U256)> = storage.iter().collect();
    let hashed = HashedGroups::of(crew, true, &slots, |(slot, _)| slot.as_bytes());
    let Ok(mut split) = Trie::new().split() else {
        unreachable!("an empty trie splits")
    };
    let (slots, hashed) = (&slots, &hashed);
    run_tasks(
        crew,
        true,
        (0..16).zip(split.subtries()).map(|(n, subtrie)| {
            move || {
                let mut leaves: Vec<TrieUpdate> = hashed
                    .sorted(n)
                    .into_iter()
                    .map(|(key, at)| (key, Some(storage_leaf(slots[at as usize].1))))
                    .collect();
                if !leaves.is_empty() {
                    subtrie.apply_sorted_pending(&mut leaves);
                }
                trie::commit_subtries(std::iter::once(subtrie));
            }
        }),
    );
    split.join()
}

/// The first nibble of a hashed key: its group.
fn nibble(key: &HashedKey) -> usize {
    usize::from(key[0] >> 4)
}

/// Items' hashed keys with the items' places, by the first nibble of the
/// hash, as the tasks that hashed them left them: for each run of items,
/// sixteen lists.
struct HashedGroups(Vec<[Vec<(HashedKey, u32)>; 16]>);

impl HashedGroups {
    /// The keys of `items` hashed: in sixteen runs as crew tasks when
    /// `fan_out`, else in one here, each run as one batch.
    fn of<T: Sync>(
        crew: &Crew,
        fan_out: bool,
        items: &[T],
        key: impl Fn(&T) -> &[u8] + Sync,
    ) -> HashedGroups {
        let runs = if fan_out { 16 } else { 1 };
        let run = items.len().div_ceil(runs).max(1);
        let mut lists: Vec<[Vec<(HashedKey, u32)>; 16]> =
            items.chunks(run).map(|_| Default::default()).collect();
        let key = &key;
        let runs = items.chunks(run).zip(&mut lists).zip((0..).step_by(run));
        run_tasks(
            crew,
            fan_out,
            runs.map(|((items, lists), first)| {
                move || {
                    let hashes = keccak256_batch(items.iter().map(key));
                    for (at, hash) in (first..).zip(hashes) {
                        lists[nibble(&hash.0)].push((hash.0, at as u32));
                    }
                }
            }),
        );
        HashedGroups(lists)
    }

    /// The keys whose hash starts with nibble `n`, sorted.
    fn sorted(&self, n: usize) -> Vec<(HashedKey, u32)> {
        let mut group = Vec::with_capacity(self.0.iter().map(|lists| lists[n].len()).sum());
        for lists in &self.0 {
            group.extend_from_slice(&lists[n]);
        }
        group.sort_unstable_by_key(|entry| entry.0);
        group
    }
}

/// Runs `tasks`: as crew tasks when `fan_out` and the crew has a helper,
/// this thread running the first and whichever no helper took; else one
/// after another here.
fn run_tasks<'env, F: FnOnce() + Send + 'env>(
    crew: &Crew,
    fan_out: bool,
    tasks: impl IntoIterator<Item = F>,
) {
    let mut tasks = tasks.into_iter();
    if !fan_out || crew.helpers() == 0 {
        tasks.for_each(|task| task());
        return;
    }
    crew.scope(Priority::Urgent, |s| {
        let own = tasks.next();
        for task in tasks {
            s.spawn(task);
        }
        if let Some(own) = own {
            own();
        }
    });
}

/// The state root of `accounts`, built from scratch.
fn rebuild_root(accounts: &Accounts) -> H256 {
    let mut bodies = Vec::with_capacity(accounts.len());
    for (addr, acct) in accounts.iter() {
        let storage = slot_map(acct);
        if acct.nonce == 0 && acct.balance.is_zero() && acct.code.is_empty() && storage.is_empty() {
            continue;
        }
        // The code is hashed here, not taken from `acct.code_hash`, so
        // the oracle also checks that cache.
        let body = account_body(
            acct.nonce,
            acct.balance,
            code_hash(&acct.code),
            storage_root(&storage),
        );
        bodies.push((keccak256(addr.as_bytes()).0, Some(body)));
    }
    bodies.sort_unstable_by_key(|body| body.0);
    let mut account_trie = Trie::new();
    account_trie.apply_sorted(&mut bodies);
    account_trie.root_hash()
}

/// The account-trie updates of `dirty` (sorted by hashed address) and
/// the storage tries to retain from now on. Storage first: each
/// account's trie is patched with its new nodes left pending, and the
/// tries of the whole batch are hashed level by level together. The
/// account bodies need their roots.
fn account_updates(
    storage_tries: &PMap<Address, Trie>,
    dirty: &mut [Dirty],
) -> (Vec<TrieUpdate>, Vec<(Address, Trie)>) {
    let mut states: Vec<_> = dirty
        .iter_mut()
        .map(|entry| {
            let acct = entry.acct;
            // An empty stand-in when the retained trie was taken out.
            let prev = storage_tries.get(&entry.addr);
            let taken = entry.storage.take();
            let patched =
                acct.and_then(|acct| patched_storage(&entry.slots, acct, prev.is_some(), taken));
            (acct, prev, patched)
        })
        .collect();
    trie::commit_pending(states.iter_mut().filter_map(|state| state.2.as_mut()));
    let mut bodies = Vec::with_capacity(dirty.len());
    let mut replaced = Vec::new();
    for (entry, (acct, prev, patched)) in dirty.iter().zip(states) {
        let update = account_update(acct, prev, patched);
        bodies.push((entry.key, update.body));
        replaced.extend(update.storage_trie.map(|trie| (entry.addr, trie)));
    }
    (bodies, replaced)
}

/// [`account_updates`] applied to the account trie's subtrees in up to
/// `shards` crew tasks, this thread running the first and any no helper
/// took. A shard is a run of whole first-nibble groups with about an equal
/// share of the work — an account and each of its dirty slots counting one
/// — and patches its accounts' storage tries, then its subtrees. Returns
/// the storage tries to retain.
fn commit_shards(
    crew: &Crew,
    shards: usize,
    storage_tries: &PMap<Address, Trie>,
    dirty: &mut [Dirty],
    subtries: &mut [Subtrie; 16],
) -> Vec<(Address, Trie)> {
    let mut work = [0usize; 16];
    for entry in &*dirty {
        // An account without a retained trie has its whole storage rebuilt.
        work[nibble(&entry.key)] += 1 + match storage_tries.contains_key(&entry.addr) {
            true => entry.slots.len(),
            false => entry.acct.map_or(0, |a| a.storage.len()),
        };
    }
    let total: usize = work.iter().sum();
    let mut parts = Vec::with_capacity(shards);
    let (mut rest, mut rest_subtries) = (dirty, &mut subtries[..]);
    let (mut first, mut done, mut cuts) = (0, 0, 0);
    for (n, work) in work.iter().enumerate() {
        done += work;
        if n < 15 && done * shards < total * (cuts + 1) {
            continue;
        }
        cuts += 1;
        let end = rest.partition_point(|entry| nibble(&entry.key) <= n);
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(end);
        let (part_subtries, subtries_tail) =
            std::mem::take(&mut rest_subtries).split_at_mut(n + 1 - first);
        if !part.is_empty() {
            parts.push((part, part_subtries, first));
        }
        (rest, rest_subtries, first) = (tail, subtries_tail, n + 1);
    }
    let mut replaced: Vec<Vec<(Address, Trie)>> = parts.iter().map(|_| Vec::new()).collect();
    crew.scope(Priority::Urgent, |s| {
        let mut shards = parts.into_iter().zip(&mut replaced);
        let own = shards.next();
        for ((part, subtries, first), out) in shards {
            s.spawn(move || *out = commit_shard(storage_tries, part, subtries, first));
        }
        if let Some(((part, subtries, first), out)) = own {
            *out = commit_shard(storage_tries, part, subtries, first);
        }
    });
    replaced.into_iter().flatten().collect()
}

/// One shard of [`commit_shards`]: `dirty`, whose hashed addresses all
/// start with a nibble of `subtries` (the first of them `first`), patched
/// into those subtrees, whose new nodes are then hashed level by level
/// together.
fn commit_shard(
    storage_tries: &PMap<Address, Trie>,
    dirty: &mut [Dirty],
    subtries: &mut [Subtrie],
    first: usize,
) -> Vec<(Address, Trie)> {
    let (mut bodies, replaced) = account_updates(storage_tries, dirty);
    let mut rest = &mut bodies[..];
    for (n, subtrie) in (first..).zip(subtries.iter_mut()) {
        let end = rest.partition_point(|(key, _)| nibble(key) == n);
        let (group, tail) = std::mem::take(&mut rest).split_at_mut(end);
        if !group.is_empty() {
            subtrie.apply_sorted_pending(group);
        }
        rest = tail;
    }
    trie::commit_subtries(subtries.iter_mut());
    replaced
}

/// [`FAN_OUT_MIN`], or in this crate's tests what the running test set.
fn fan_out_min() -> usize {
    #[cfg(test)]
    if let Some(min) = FAN_OUT_FROM.get() {
        return min;
    }
    FAN_OUT_MIN
}

/// A begun commit being hashed. Dropped unsettled — the hashing panicked —
/// it poisons the record, so that waiters panic instead of hanging, and
/// drops the world's retained commit, so that the world's next commit
/// rebuilds from scratch.
struct Hashing<'a> {
    world: &'a WorldState,
    record: Arc<Record>,
}

impl Hashing<'_> {
    /// Hands `commit` to the record's waiters and returns its root.
    fn settle(self, commit: WorldCommit) -> H256 {
        let root = commit.root;
        self.record.settle(Held::Settled(commit));
        root
    }
}

impl Drop for Hashing<'_> {
    fn drop(&mut self) {
        if matches!(*self.record.held.lock(), Held::Pending) {
            let mut tracker = self.world.tracker.lock();
            if tracker
                .commit
                .as_ref()
                .is_some_and(|retained| Arc::ptr_eq(&retained.0, &self.record))
            {
                tracker.commit = None;
            }
            drop(tracker);
            self.record.settle(Held::Poisoned);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Replaces [`FAN_OUT_MIN`] for the commits this thread makes, so that a
    /// test's small batches fan out too.
    static FAN_OUT_FROM: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    /// Runs once, on this thread, in the next begun commit it hashes, once
    /// the commit has its base and before the hashing: lets a test hold a
    /// root pending, a take open, or make the hashing panic.
    static REFRESH_HOOK: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// The account at `addr`, created empty if absent, unshared for writing.
fn entry(accounts: &mut Accounts, addr: Address) -> &mut AccountState {
    Arc::make_mut(accounts.get_or_insert_with(addr, Arc::default))
}

/// An account's storage as a map; no slot holds zero.
fn slot_map(acct: &AccountState) -> HashMap<H256, U256> {
    acct.storage
        .iter()
        .map(|(slot, value)| (*slot, *value))
        .collect()
}

/// A trie key: `keccak(address)` or `keccak(slot)`.
type HashedKey = [u8; 32];

/// One dirty account as a commit takes it.
struct Dirty<'a> {
    /// `keccak(address)`.
    key: HashedKey,
    addr: Address,
    /// The account as the commit hashes it; `None` when it is absent or
    /// EIP-161-empty.
    acct: Option<&'a AccountState>,
    slots: DirtyAccount,
    /// The account's retained storage trie, taken out of the commit for its
    /// slots to patch; `None` when they patch none.
    storage: Option<Trie>,
}

impl<'a> Dirty<'a> {
    /// `addr`, whose account is `acct`, with its `slots` dirty; the key is
    /// hashed later, in a batch.
    fn new(addr: Address, acct: Option<&'a Arc<AccountState>>, slots: DirtyAccount) -> Self {
        Dirty {
            key: [0; 32],
            addr,
            // An absent or EIP-161-empty account is dropped whatever its
            // storage trie held.
            acct: acct.map(|acct| &**acct).filter(|acct| !acct.is_empty()),
            slots,
            storage: None,
        }
    }
}

/// A trie update: the key, and the new value (`None` removes the key).
type TrieUpdate = (HashedKey, Option<Vec<u8>>);

/// Applies updates keyed by hash to `trie` in one descent, leaving the nodes
/// it creates pending ([`trie::commit_pending`]).
fn apply_hashed(trie: &mut Trie, mut updates: Vec<TrieUpdate>) {
    updates.sort_unstable_by_key(|update| update.0);
    trie.apply_sorted_pending(&mut updates);
}

/// The effect of one dirty account on the commit.
struct AccountUpdate {
    /// The account's RLP body; `None` drops an empty or absent account from
    /// the account trie (EIP-161).
    body: Option<Vec<u8>>,
    /// The storage trie to retain from now on, when that changes; an empty
    /// one means none is retained.
    storage_trie: Option<Trie>,
}

/// One dirty, non-empty account's new storage trie — the retained one,
/// `taken` out of the commit, patched, or one rebuilt — with the nodes it
/// creates left pending; `None` when the `retained` trie stands.
fn patched_storage(
    slots: &DirtyAccount,
    acct: &AccountState,
    retained: bool,
    taken: Option<Trie>,
) -> Option<Trie> {
    match taken {
        // Precise slot tracking with a retained trie: patch only the dirty
        // slots, in one batch. A slot now zero/absent is deleted from the
        // trie.
        Some(mut trie) => {
            let slots: Vec<(&H256, U256)> = slots
                .iter()
                .map(|slot| (slot, acct.storage.get(slot).copied().unwrap_or(U256::ZERO)))
                .collect();
            apply_hashed(&mut trie, storage_leaves(slots));
            Some(trie)
        }
        // Only the body changed: the retained trie stands.
        None if retained => {
            debug_assert!(slots.is_empty(), "dirty slots patch the taken trie");
            None
        }
        // No retained trie (storage was empty at the last commit): rebuild
        // from the account's slots, if it has any now.
        None if acct.storage.is_empty() => Some(Trie::new()),
        None => Some(storage_trie_pending(
            acct.storage.keys(),
            acct.storage.values(),
        )),
    }
}

/// One dirty account's update, once its new storage trie (`patched`, if it
/// changed) is hashed: the re-encoded account body, and the trie to retain.
/// `acct` is `None` for an absent or empty account; an account is also
/// dropped (EIP-161) when its body is empty *and* its storage trie is.
fn account_update(
    acct: Option<&AccountState>,
    prev: Option<&Trie>,
    patched: Option<Trie>,
) -> AccountUpdate {
    let dropped = AccountUpdate {
        body: None,
        storage_trie: prev.map(|_| Trie::new()),
    };
    let Some(acct) = acct else {
        return dropped;
    };
    let storage_trie = patched
        .as_ref()
        .or(prev)
        .expect("an unpatched account has a retained trie");
    if acct.nonce == 0 && acct.balance.is_zero() && acct.code.is_empty() && storage_trie.is_empty()
    {
        return dropped;
    }
    AccountUpdate {
        body: Some(body_of(acct, storage_trie.root_hash())),
        // An account that had no storage and has none changes nothing.
        storage_trie: patched.filter(|trie| !trie.is_empty() || prev.is_some()),
    }
}

/// The RLP body of a non-empty account whose storage trie has
/// `storage_root`.
fn body_of(acct: &AccountState, storage_root: H256) -> Vec<u8> {
    // The code hash is at hand in the account.
    let code_hash = if acct.code.is_empty() {
        empty_code_hash()
    } else {
        H256::from_u256(acct.code_hash)
    };
    account_body(acct.nonce, acct.balance, code_hash, storage_root)
}

/// Storage-trie updates for slots and their values (zero removes the slot):
/// the slots hashed as one batch.
fn storage_leaves(slots: Vec<(&H256, U256)>) -> Vec<TrieUpdate> {
    let keys = keccak256_batch(slots.iter().map(|(slot, _)| slot.as_bytes()));
    let leaf = |value: &U256| (!value.is_zero()).then(|| storage_leaf(value));
    keys.into_iter()
        .zip(&slots)
        .map(|(key, (_, value))| (key.0, leaf(value)))
        .collect()
}

/// RLP leaf for one storage value.
fn storage_leaf(value: &U256) -> Vec<u8> {
    let bytes = value.to_be_bytes();
    let trimmed = &bytes[bytes.iter().position(|&b| b != 0).unwrap_or(32)..];
    let mut leaf = Vec::with_capacity(1 + trimmed.len());
    rlp::append_str(&mut leaf, trimmed);
    leaf
}

/// `keccak256(code)` as the account body carries it.
fn code_hash(code: &[u8]) -> H256 {
    if code.is_empty() {
        empty_code_hash()
    } else {
        keccak256(code)
    }
}

/// RLP account body from its parts.
fn account_body(nonce: u64, balance: U256, code_hash: H256, storage_root: H256) -> Vec<u8> {
    Account {
        nonce,
        balance,
        storage_root,
        code_hash,
    }
    .rlp_encode()
}

/// One account's storage trie, built from scratch in one descent from its
/// slots and their values (in the same order), its nodes left pending: the
/// slots hashed as one batch, and each leaf encoded straight into the
/// update list.
fn storage_trie_pending<'a>(
    slots: impl Iterator<Item = &'a H256>,
    values: impl Iterator<Item = &'a U256>,
) -> Trie {
    let keys = keccak256_batch(slots.map(H256::as_bytes));
    let leaves = keys
        .into_iter()
        .zip(values)
        .map(|(key, value)| (key.0, Some(storage_leaf(value))))
        .collect();
    let mut trie = Trie::new();
    apply_hashed(&mut trie, leaves);
    trie
}

/// Root of one account's storage trie, built from scratch; a slot that
/// holds zero is absent.
pub fn storage_root(storage: &HashMap<H256, U256>) -> H256 {
    let slots: Vec<(&H256, &U256)> = storage
        .iter()
        .filter(|(_, value)| !value.is_zero())
        .collect();
    let mut trie = storage_trie_pending(
        slots.iter().map(|(slot, _)| *slot),
        slots.iter().map(|(_, value)| *value),
    );
    trie::commit_pending(std::iter::once(&mut trie));
    trie.root_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn empty_world_has_empty_root() {
        assert_eq!(WorldState::new().state_root(), trie::empty_root());
    }

    #[test]
    fn reads_of_absent_accounts_are_zero() {
        let w = WorldState::new();
        assert_eq!(w.balance(&addr(1)), U256::ZERO);
        assert_eq!(w.nonce(&addr(1)), 0);
        assert_eq!(w.storage(&addr(1), &H256::ZERO), U256::ZERO);
        assert!(w.code(&addr(1)).is_empty());
    }

    #[test]
    fn state_root_changes_with_content() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(100u64));
        let r1 = w.state_root();
        assert_ne!(r1, trie::empty_root());
        w.set_balance(addr(2), U256::from(50u64));
        let r2 = w.state_root();
        assert_ne!(r1, r2);
        // Same contents built differently produce the same root.
        let mut w2 = WorldState::new();
        w2.set_balance(addr(2), U256::from(50u64));
        w2.set_balance(addr(1), U256::from(100u64));
        assert_eq!(w2.state_root(), r2);
    }

    #[test]
    fn empty_accounts_do_not_affect_root() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(5u64));
        let r = w.state_root();
        // Touch an account without giving it any substance.
        w.set_balance(addr(9), U256::ZERO);
        assert_eq!(w.state_root(), r);
    }

    #[test]
    fn zero_storage_write_deletes_slot() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::ONE);
        let r_before = w.state_root();
        w.set_storage(addr(1), H256::from_low_u64(1), U256::from(9u64));
        let r_with = w.state_root();
        assert_ne!(r_before, r_with);
        w.set_storage(addr(1), H256::from_low_u64(1), U256::ZERO);
        assert_eq!(w.state_root(), r_before);
    }

    #[test]
    fn storage_affects_root_via_account() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::ONE);
        w.set_storage(addr(1), H256::from_low_u64(0), U256::from(77u64));
        let r1 = w.state_root();
        w.set_storage(addr(1), H256::from_low_u64(0), U256::from(78u64));
        assert_ne!(w.state_root(), r1);
    }

    #[test]
    fn read_key_dispatch() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(7u64));
        w.set_nonce(addr(1), 3);
        w.set_storage(addr(1), H256::from_low_u64(5), U256::from(9u64));
        w.set_code(addr(2), vec![0x60, 0x00]);
        assert_eq!(w.read_key(&AccessKey::Balance(addr(1))), U256::from(7u64));
        assert_eq!(w.read_key(&AccessKey::Nonce(addr(1))), U256::from(3u64));
        assert_eq!(
            w.read_key(&AccessKey::Storage(addr(1), H256::from_low_u64(5))),
            U256::from(9u64)
        );
        assert_eq!(
            w.read_key(&AccessKey::Code(addr(2))),
            keccak256(&[0x60, 0x00]).to_u256()
        );
        assert_eq!(w.read_key(&AccessKey::Code(addr(3))), U256::ZERO);
    }

    #[test]
    fn apply_writes_matches_direct_mutation() {
        let mut direct = WorldState::new();
        direct.set_balance(addr(1), U256::from(10u64));
        direct.set_nonce(addr(2), 4);
        direct.set_storage(addr(3), H256::from_low_u64(1), U256::from(6u64));

        let mut via_writes = WorldState::new();
        let mut ws: WriteSet = Default::default();
        ws.insert(AccessKey::Balance(addr(1)), U256::from(10u64));
        ws.insert(AccessKey::Nonce(addr(2)), U256::from(4u64));
        ws.insert(
            AccessKey::Storage(addr(3), H256::from_low_u64(1)),
            U256::from(6u64),
        );
        via_writes.apply_writes(&ws);
        assert_eq!(direct.state_root(), via_writes.state_root());
    }

    #[test]
    fn commit_tries_matches_state_root_and_roundtrips() {
        let mut w = WorldState::new();
        for i in 0..40u64 {
            w.set_balance(addr(i), U256::from(1000 + i));
            w.set_nonce(addr(i), i);
            if i % 3 == 0 {
                w.set_storage(addr(i), H256::from_low_u64(i), U256::from(7 * i + 1));
                w.set_storage(addr(i), H256::from_low_u64(i + 1), U256::from(9 * i + 1));
            }
        }
        let (root, nodes) = w.commit_tries();
        assert_eq!(root, w.state_root());
        // The emitted nodes hold every root a reader starts from: the
        // account trie's, and each non-empty storage trie's.
        let hashes: HashSet<H256> = nodes.iter().map(|(hash, _)| *hash).collect();
        assert!(hashes.contains(&root));
        let mut nonempty_storage = 0;
        for (_, acct) in w.accounts() {
            let slots: HashMap<H256, U256> = acct
                .storage
                .iter()
                .filter(|(_, v)| !v.is_zero())
                .map(|(k, v)| (*k, *v))
                .collect();
            let storage_root = storage_root(&slots);
            if storage_root != trie::empty_root() {
                assert!(hashes.contains(&storage_root));
                nonempty_storage += 1;
            }
        }
        assert!(
            nonempty_storage > 0,
            "fixture should exercise storage tries"
        );
    }

    #[test]
    fn storage_writes_after_clone_are_invisible_to_the_other_side() {
        let slot = H256::from_low_u64;
        let mut w = WorldState::new();
        w.set_storage(addr(1), slot(0), U256::ONE);
        w.set_storage(addr(1), slot(1), U256::from(5u64));
        w.set_balance(addr(1), U256::ONE);
        let mut snap = w.clone();
        // Overwrite, clear and add on one side; add on the other.
        w.set_storage(addr(1), slot(0), U256::from(2u64));
        w.set_storage(addr(1), slot(1), U256::ZERO);
        w.set_storage(addr(1), slot(2), U256::from(7u64));
        snap.set_storage(addr(1), slot(3), U256::from(9u64));
        assert_eq!(snap.storage(&addr(1), &slot(0)), U256::ONE);
        assert_eq!(snap.storage(&addr(1), &slot(1)), U256::from(5u64));
        assert_eq!(snap.storage(&addr(1), &slot(2)), U256::ZERO);
        assert_eq!(w.storage(&addr(1), &slot(0)), U256::from(2u64));
        assert_eq!(w.storage(&addr(1), &slot(1)), U256::ZERO);
        assert_eq!(w.storage(&addr(1), &slot(3)), U256::ZERO);
        assert_eq!(w.account(&addr(1)).unwrap().storage.len(), 2);
        assert_eq!(snap.account(&addr(1)).unwrap().storage.len(), 3);
        assert_eq!(w.state_root(), w.rebuild_root());
        assert_eq!(snap.state_root(), snap.rebuild_root());
    }

    #[test]
    fn committed_code_hash_is_the_cached_one_and_the_keccak_of_the_code() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::ONE);
        w.set_code(addr(2), vec![0x60, 0x00, 0x60, 0x00]);
        w.set_code(addr(3), Arc::new(vec![0xfe; 300]));
        w.set_code(addr(4), vec![0x00]);
        w.set_code(addr(4), Vec::new()); // back to no code
        w.set_nonce(addr(4), 1);
        // The commit takes the hash from the account; the oracle hashes the
        // code itself (`keccak("")` for none), so equal roots mean every
        // committed body carries the hash of its code.
        assert_eq!(w.state_root(), w.rebuild_root());
        for i in 1..=4 {
            let acct = w.account(&addr(i)).unwrap();
            assert_eq!(acct.code_hash, code_read_word(&acct.code), "account {i}");
        }
    }

    // ---- structural sharing: what a snapshot and a write after it cost ----

    #[test]
    fn write_after_snapshot_copies_one_path_of_a_100k_account_world() {
        use crate::pmap::nodes_created;

        let mut parent = WorldState::new();
        for i in 0..100_000u64 {
            parent.set_balance(addr(i), U256::from(i + 1));
        }
        let depth = parent.accounts.depth();

        let before = nodes_created();
        let mut child = parent.snapshot();
        assert_eq!(nodes_created(), before, "a snapshot creates no map node");
        assert_eq!(child.accounts.unshared_nodes(&parent.accounts), 0);

        child.set_balance(addr(31_337), U256::from(5u64));
        let copied = nodes_created() - before;
        assert!(copied <= depth + 1, "{copied} nodes for a {depth}-deep map");
        // Every node off the written path is the parent's own allocation.
        assert_eq!(child.accounts.unshared_nodes(&parent.accounts), copied);
        // So is every account body but the written one.
        for i in (0..100_000u64).step_by(997) {
            let (a, b) = (&parent.accounts, &child.accounts);
            assert!(Arc::ptr_eq(
                a.get(&addr(i)).unwrap(),
                b.get(&addr(i)).unwrap()
            ));
        }
        assert_eq!(parent.balance(&addr(31_337)), U256::from(31_338u64));
        assert_eq!(child.balance(&addr(31_337)), U256::from(5u64));

        // A second write to the same account is in place.
        let before = nodes_created();
        child.set_nonce(addr(31_337), 1);
        assert_eq!(nodes_created(), before);
    }

    #[test]
    fn storage_write_in_a_snapshot_does_not_copy_the_contract_storage() {
        use crate::pmap::nodes_created;

        let contract = addr(1);
        let mut parent = WorldState::new();
        parent.set_code(contract, vec![0x00]);
        for s in 0..100_000u64 {
            parent.set_storage(contract, H256::from_low_u64(s), U256::from(s + 1));
        }
        let parent_storage = &parent.account(&contract).unwrap().storage;
        let depth = parent_storage.depth();

        let mut child = parent.snapshot();
        let before = nodes_created();
        child.set_storage(contract, H256::from_low_u64(4242), U256::from(7u64));
        let copied = nodes_created() - before;
        // One path of the (one-entry) account map plus one path of the
        // storage map — not the 100k slots.
        assert!(
            copied <= 1 + depth + 1,
            "{copied} nodes, storage depth {depth}"
        );
        let child_storage = &child.account(&contract).unwrap().storage;
        assert!(child_storage.unshared_nodes(parent_storage) <= depth + 1);
        assert_eq!(child_storage.len(), 100_000);
        assert_eq!(
            parent.storage(&contract, &H256::from_low_u64(4242)),
            U256::from(4243u64)
        );
        assert_eq!(
            child.storage(&contract, &H256::from_low_u64(4242)),
            U256::from(7u64)
        );
    }

    #[test]
    fn three_sibling_forks_commit_independently() {
        let mut parent = WorldState::new();
        for i in 0..300u64 {
            parent.set_balance(addr(i), U256::from(1000 + i));
            if i % 3 == 0 {
                parent.set_storage(addr(i), H256::from_low_u64(i), U256::from(i + 1));
            }
        }
        let parent_root = parent.state_root();
        // Same-height siblings off one committed parent, each writing an
        // overlapping set of accounts differently and recommitting twice.
        let mut forks: Vec<WorldState> = (0..3).map(|_| parent.snapshot()).collect();
        for (f, fork) in forks.iter_mut().enumerate() {
            let f = f as u64;
            for i in 0..40u64 {
                fork.set_balance(addr(i * 3), U256::from(f * 10_000 + i));
                fork.set_storage(addr(i * 3), H256::from_low_u64(i * 3), U256::from(f));
                fork.set_storage(addr(i * 3), H256::from_low_u64(900 + f), U256::from(i + 1));
            }
            fork.set_balance(addr(1000 + f), U256::ONE);
            assert_eq!(fork.state_root(), fork.rebuild_root(), "fork {f}");
            fork.set_balance(addr(f), U256::ZERO);
            fork.set_storage(addr(0), H256::from_low_u64(0), U256::ZERO);
            assert_eq!(fork.state_root(), fork.rebuild_root(), "fork {f} again");
        }
        assert_ne!(forks[0].state_root(), forks[1].state_root());
        assert_ne!(forks[1].state_root(), forks[2].state_root());
        assert_ne!(forks[0].state_root(), forks[2].state_root());
        // The parent saw none of it.
        assert_eq!(parent.state_root(), parent_root);
        assert_eq!(parent.rebuild_root(), parent_root);
        assert_eq!(parent.balance(&addr(0)), U256::from(1000u64));
        assert_eq!(parent.accounts().count(), 300);
    }

    // ---- incremental-commitment specific coverage ----

    fn sorted(mut nodes: Vec<(H256, Vec<u8>)>) -> Vec<(H256, Vec<u8>)> {
        nodes.sort();
        nodes
    }

    /// Builds a fresh world with the same contents (no memo) for oracle use.
    fn rebuilt(w: &WorldState) -> WorldState {
        let mut fresh = WorldState::new();
        for (a, acct) in w.accounts() {
            fresh.set_balance(*a, acct.balance);
            fresh.set_nonce(*a, acct.nonce);
            fresh.set_code(*a, Arc::clone(&acct.code));
            for (slot, value) in acct.storage.iter() {
                fresh.set_storage(*a, *slot, *value);
            }
        }
        fresh
    }

    #[test]
    fn a_world_built_from_its_accounts_is_the_one_its_setters_build() {
        let shared = Arc::new(vec![0x60, 0x01, 0x00]);
        let contract = |code: &Arc<Vec<u8>>, slots: u64| AccountState {
            code: Arc::clone(code),
            storage: (1..=slots)
                .map(|s| (H256::from_low_u64(s * 31), U256::from(s)))
                .collect(),
            ..AccountState::default()
        };
        let mut accounts: Vec<(Address, AccountState)> = (0..60)
            .map(|i| {
                let eoa = AccountState {
                    balance: U256::from(1_000 + i),
                    nonce: i % 3,
                    ..AccountState::default()
                };
                (addr(i), eoa)
            })
            .collect();
        for (i, slots) in [0, 1, 2, 7, 40].into_iter().enumerate() {
            accounts.push((addr(100 + i as u64), contract(&shared, slots)));
        }
        // A code hash that is not the code's, on a contract and on an EOA.
        let mut lying = contract(&Arc::new(vec![0x60, 0x02]), 3);
        lying.code_hash = U256::from(12_345u64);
        accounts.push((addr(200), lying));
        accounts[0].1.code_hash = U256::from(1u64);
        // Storage alone, and an account with nothing at all.
        accounts.push((addr(201), contract(&Arc::default(), 4)));
        accounts.push((addr(202), AccountState::default()));

        let mut by_setters = WorldState::new();
        for (a, acct) in &accounts {
            by_setters.set_balance(*a, acct.balance);
            by_setters.set_nonce(*a, acct.nonce);
            if !acct.code.is_empty() {
                by_setters.set_code(*a, Arc::clone(&acct.code));
            }
            for (slot, value) in acct.storage.iter() {
                by_setters.set_storage(*a, *slot, *value);
            }
        }
        let mut built = WorldState::from_accounts(accounts);
        assert_eq!(built, by_setters);
        assert_eq!(built.account(&addr(0)).unwrap().code_hash, U256::ZERO);
        assert_eq!(
            built.account(&addr(200)).unwrap().code_hash,
            code_read_word(&[0x60, 0x02])
        );
        assert_eq!(built.state_root(), by_setters.state_root());
        assert_eq!(
            sorted(built.commit_tries().1),
            sorted(by_setters.commit_tries().1)
        );

        // Blocks of setter writes commit on both alike.
        let mut rng = bp_types::Rng::seed_from_u64(52);
        for block in 0..20 {
            for _ in 0..30 {
                let a = match rng.gen_range(0..4u32) {
                    0 => addr(100 + rng.gen_range(0..5u64)),
                    1 => addr(200 + rng.gen_range(0..4u64)),
                    _ => addr(rng.gen_range(0..64u64)),
                };
                let value = U256::from(rng.gen_range(0..3u64));
                let kind = rng.gen_range(0..3u32);
                for w in [&mut built, &mut by_setters] {
                    match kind {
                        0 => w.set_balance(a, value),
                        1 => w.set_nonce(a, value.low_u64()),
                        _ => w.set_storage(a, H256::from_low_u64(31 * value.low_u64()), value),
                    }
                }
            }
            assert_eq!(built.state_root(), built.rebuild_root(), "block {block}");
            assert_eq!(by_setters.state_root(), by_setters.rebuild_root());
            assert_eq!(built.state_root(), by_setters.state_root());
        }
        assert_eq!(built, by_setters);
    }

    // ---- the first commit, built in sixteen groups ----

    /// A world whose first commit takes every part of the split build: EOAs
    /// in every group, a storage of more than [`STORAGE_SPLIT_MIN`] slots,
    /// several of fewer (one just under it), an EIP-161-empty account and
    /// an account that is storage alone.
    fn split_world() -> WorldState {
        let slots = |n: usize, salt: u64| -> PMap<H256, U256> {
            (0..n as u64)
                .map(|s| (H256::from_low_u64(s * 7 + salt), U256::from(s + 1)))
                .collect()
        };
        let code = Arc::new(vec![0x60, 0x00]);
        let contract = |n: usize, salt: u64| AccountState {
            code: Arc::clone(&code),
            storage: slots(n, salt),
            ..AccountState::default()
        };
        let mut accounts: Vec<(Address, AccountState)> = (0..3_000)
            .map(|i| {
                let eoa = AccountState {
                    balance: U256::from(i + 1),
                    nonce: i % 4,
                    ..AccountState::default()
                };
                (addr(i), eoa)
            })
            .collect();
        accounts.push((addr(10_000), contract(STORAGE_SPLIT_MIN + 500, 0)));
        for (i, n) in [1, 3, 40, 300, STORAGE_SPLIT_MIN - 1]
            .into_iter()
            .enumerate()
        {
            accounts.push((addr(20_000 + i as u64), contract(n, i as u64)));
        }
        accounts.push((addr(30_000), AccountState::default()));
        let storage_alone = AccountState {
            storage: slots(5, 9),
            ..AccountState::default()
        };
        accounts.push((addr(30_001), storage_alone));
        WorldState::from_accounts(accounts)
    }

    #[test]
    fn a_split_first_commit_is_the_same_on_any_crew() {
        let crews = [0, 1, 3].map(Crew::new);
        let mut worlds = crews.each_ref().map(|_| split_world());
        let commits: Vec<_> = crews
            .iter()
            .zip(&worlds)
            .map(|(crew, w)| crew.install(|| w.commit_tries()))
            .collect();
        let root = worlds[0].rebuild_root();
        for (root_here, nodes) in &commits {
            assert_eq!(*root_here, root);
            assert_eq!(sorted(nodes.clone()), sorted(commits[0].1.clone()));
        }
        // Blocks of setter writes then patch the tries the split built.
        let mut rng = bp_types::Rng::seed_from_u64(53);
        for block in 0..10 {
            let mut writes = Vec::new();
            for _ in 0..60 {
                let a = match rng.gen_range(0..5u32) {
                    0 => addr(10_000),
                    1 => addr(20_000 + rng.gen_range(0..5u64)),
                    2 => addr(30_000 + rng.gen_range(0..2u64)),
                    _ => addr(rng.gen_range(0..3_100u64)),
                };
                let value = U256::from(rng.gen_range(0..3u64));
                let slot = H256::from_low_u64(7 * rng.gen_range(0..5_000u64));
                writes.push((a, rng.gen_range(0..3u32), value, slot));
            }
            let roots: Vec<H256> = crews
                .iter()
                .zip(&mut worlds)
                .map(|(crew, w)| {
                    for &(a, kind, value, slot) in &writes {
                        match kind {
                            0 => w.set_balance(a, value),
                            1 => w.set_nonce(a, value.low_u64()),
                            _ => w.set_storage(a, slot, value),
                        }
                    }
                    crew.install(|| w.state_root())
                })
                .collect();
            let root = worlds[0].rebuild_root();
            assert_eq!(roots, [root; 3], "block {block}");
        }
    }

    #[test]
    fn a_split_first_commit_makes_and_hashes_each_node_once() {
        let w = split_world();
        let (allocated, hashed) = Crew::new(0).install(|| {
            trie_nodes_counted(&w, || {
                w.state_root();
            })
        });
        // Every node of every trie the commit settled, and those of them
        // referenced by hash.
        let tracker = w.tracker.lock();
        let held = tracker.commit.as_ref().expect("a commit").0.held.lock();
        let Held::Settled(commit) = &*held else {
            panic!("the commit settled")
        };
        let (mut nodes, mut hashed_nodes) = commit.account_trie.node_counts();
        for storage_trie in commit.storage_tries.values() {
            let (n, h) = storage_trie.node_counts();
            (nodes, hashed_nodes) = (nodes + n, hashed_nodes + h);
        }
        assert!(nodes > 3_000 + STORAGE_SPLIT_MIN, "{nodes}");
        assert_eq!(allocated, nodes);
        assert_eq!(hashed, hashed_nodes);
    }

    #[test]
    fn incremental_root_matches_fresh_build_across_mutations() {
        let mut w = WorldState::new();
        for i in 0..50u64 {
            w.set_balance(addr(i), U256::from(100 + i));
            if i % 4 == 0 {
                w.set_storage(addr(i), H256::from_low_u64(i), U256::from(i + 1));
            }
        }
        // Commit, then mutate a small dirty set repeatedly; every recommit
        // must match a from-scratch world.
        for round in 0..5u64 {
            let _ = w.state_root();
            w.set_balance(addr(round), U256::from(round * 7 + 1));
            w.set_storage(addr(round), H256::from_low_u64(99), U256::from(round + 1));
            w.set_storage(addr(round + 1), H256::from_low_u64(round), U256::ZERO);
            w.set_nonce(addr(49 - round), round);
            assert_eq!(w.state_root(), rebuilt(&w).state_root(), "round {round}");
            assert_eq!(w.state_root(), w.rebuild_root());
        }
    }

    #[test]
    fn account_emptied_after_commit_leaves_root() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(5u64));
        let r_one = w.state_root();
        w.set_balance(addr(2), U256::from(9u64));
        let _ = w.state_root();
        // Empty account 2 again (balance back to zero ⇒ EIP-161 empty); the
        // incremental path must remove it from the retained account trie.
        w.set_balance(addr(2), U256::ZERO);
        assert_eq!(w.state_root(), r_one);
    }

    #[test]
    fn storage_emptied_after_commit_drops_trie() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::ONE);
        let r_plain = w.state_root();
        w.set_storage(addr(1), H256::from_low_u64(3), U256::from(4u64));
        let _ = w.state_root();
        w.set_storage(addr(1), H256::from_low_u64(3), U256::ZERO);
        assert_eq!(w.state_root(), r_plain);
        // No stale storage nodes may linger in the commit output.
        let (_, nodes) = w.commit_tries();
        let fresh_nodes = rebuilt(&w).commit_tries().1;
        let mut a = nodes;
        let mut b = fresh_nodes;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_diverges_independently() {
        let mut w = WorldState::new();
        for i in 0..20u64 {
            w.set_balance(addr(i), U256::from(i + 1));
        }
        let base_root = w.state_root();
        let mut snap = w.snapshot();
        // Writes on each side are invisible to the other.
        w.set_balance(addr(0), U256::from(777u64));
        snap.set_balance(addr(1), U256::from(888u64));
        assert_eq!(snap.balance(&addr(0)), U256::ONE);
        assert_eq!(w.balance(&addr(1)), U256::from(2u64));
        assert_ne!(w.state_root(), base_root);
        assert_ne!(snap.state_root(), base_root);
        assert_ne!(w.state_root(), snap.state_root());
        assert_eq!(w.state_root(), w.rebuild_root());
        assert_eq!(snap.state_root(), snap.rebuild_root());
        // Reverting the divergent writes re-converges both lineages.
        w.set_balance(addr(0), U256::ONE);
        snap.set_balance(addr(1), U256::from(2u64));
        assert_eq!(w.state_root(), base_root);
        assert_eq!(snap.state_root(), base_root);
    }

    #[test]
    fn incremental_commit_tries_match_fresh_world() {
        let mut w = WorldState::new();
        for i in 0..60u64 {
            w.set_balance(addr(i), U256::from(1 + i));
            w.set_storage(addr(i), H256::from_low_u64(i % 5), U256::from(i + 1));
        }
        let _ = w.commit_tries();
        for i in 0..10u64 {
            w.set_storage(addr(i), H256::from_low_u64(i % 5), U256::from(1000 + i));
            w.set_balance(addr(i + 30), U256::from(2000 + i));
        }
        let (root_inc, mut nodes_inc) = w.commit_tries();
        let (root_fresh, mut nodes_fresh) = rebuilt(&w).commit_tries();
        assert_eq!(root_inc, root_fresh);
        nodes_inc.sort();
        nodes_fresh.sort();
        assert_eq!(nodes_inc, nodes_fresh);
    }

    #[test]
    fn a_committed_worlds_snapshot_carries_no_dirty_capacity() {
        // A hash table emptied in place keeps its buckets, and a clone of
        // it allocates as many: the dirty set of a committed world must be
        // a new table, whichever way the commit came about.
        let dirty_capacity = |w: &WorldState| w.tracker.lock().dirty.capacity();
        let mut w = WorldState::new();
        for i in 0..5_000u64 {
            w.set_balance(addr(i), U256::from(i + 1));
        }
        assert!(dirty_capacity(&w) >= 5_000);
        // The first commit of a lineage, which takes every account …
        w.state_root();
        assert_eq!(dirty_capacity(&w), 0);
        assert_eq!(dirty_capacity(&w.snapshot()), 0);
        // … and a recommit of a large dirty set over a retained commit.
        for i in 0..3_000u64 {
            w.set_nonce(addr(i), 1);
        }
        assert!(dirty_capacity(&w.snapshot()) >= 3_000);
        w.state_root();
        assert_eq!(dirty_capacity(&w), 0);
        // A descendant's table is sized by what it wrote itself.
        let mut child = w.snapshot();
        child.set_balance(addr(1), U256::from(9u64));
        assert!(dirty_capacity(&child) < 16);
        child.state_root();
        assert_eq!(dirty_capacity(&child.snapshot()), 0);
    }

    #[test]
    fn storage_tries_hashed_together_match_the_oracle() {
        // Two hundred storage tries of different depths in one commit:
        // their new nodes share the hash batches level by level, first
        // built cold, then patched.
        let mut w = WorldState::new();
        for i in 0..200u64 {
            w.set_balance(addr(i), U256::from(i + 1));
            for s in 0..4u64 {
                w.set_storage(addr(i), H256::from_low_u64(s), U256::from(i * 10 + s + 1));
            }
            for s in 4..i % 40 {
                w.set_storage(addr(i), H256::from_low_u64(s), U256::from(s));
            }
        }
        assert_eq!(w.state_root(), w.rebuild_root());
        // Dirty a wide slice after the first commit and recommit.
        for i in 0..100u64 {
            w.set_storage(addr(i), H256::from_low_u64(1), U256::from(5555 + i));
            w.set_storage(addr(i), H256::from_low_u64(2), U256::ZERO);
        }
        assert_eq!(w.state_root(), w.rebuild_root());
        // Every node the commit emits is stored under the hash of its bytes.
        let (root, nodes) = w.commit_tries();
        assert_eq!(root, w.state_root());
        assert!(nodes.iter().all(|(hash, bytes)| keccak256(bytes) == *hash));
    }

    // ---- a commit held alone: edited in place ----

    /// Trie nodes allocated and hashed on this thread while `f` runs, less
    /// those of the from-scratch oracle a debug build's commit checks itself
    /// against.
    fn trie_nodes_counted(world: &WorldState, f: impl FnOnce()) -> (usize, usize) {
        use trie::counters::{read, ALLOCATED, HASHED};
        let counts = || (read(&ALLOCATED), read(&HASHED));
        let before = counts();
        f();
        let during = counts();
        if cfg!(debug_assertions) {
            world.rebuild_root();
        }
        let oracle = counts();
        (
            (during.0 - before.0) - (oracle.0 - during.0),
            (during.1 - before.1) - (oracle.1 - during.1),
        )
    }

    /// Trie nodes allocated on this thread while `f` runs, as
    /// [`trie_nodes_counted`].
    fn trie_nodes_allocated(world: &WorldState, f: impl FnOnce()) -> usize {
        trie_nodes_counted(world, f).0
    }

    #[test]
    fn rewriting_slots_of_a_commit_held_alone_allocates_no_storage_branch() {
        const SLOTS: u64 = 2_000;
        const REWRITES: u64 = 50;
        let contract = addr(1);
        let slot = H256::from_low_u64;
        let mut w = WorldState::new();
        w.set_code(contract, vec![0x00]);
        for s in 0..SLOTS {
            w.set_storage(contract, slot(s), U256::from(s + 1));
        }
        for i in 2..500 {
            w.set_balance(addr(i), U256::from(i));
        }
        w.state_root();
        let rewrite = |w: &mut WorldState| {
            for j in 0..REWRITES {
                w.set_storage(contract, slot(j * 37), U256::from(9_000 + j));
            }
        };

        // A snapshot's commit is its parent's too: the storage trie's
        // branches on the rewritten paths are copied, and the account
        // trie's above the contract.
        let mut child = w.snapshot();
        rewrite(&mut child);
        let shared = trie_nodes_allocated(&child, || {
            child.state_root();
        });
        // The world's own commit, held alone, is patched in place: the
        // slot leaves and the contract's body leaf take their new values
        // where they are, and no node is allocated.
        rewrite(&mut w);
        let owned = trie_nodes_allocated(&w, || {
            w.state_root();
        });
        assert_eq!(owned, 0);
        assert!(
            shared > owned + REWRITES as usize,
            "{shared} against {owned}"
        );
        assert_eq!(w.state_root(), child.state_root());
        assert_eq!(w.state_root(), w.rebuild_root());
    }

    #[test]
    fn a_block_of_rewrites_applies_to_a_world_held_alone_without_a_map_node() {
        use crate::pmap::nodes_created;

        let mut w = funded(10_000);
        w.state_root();
        // Existing accounts only: bodies, and slots that are there.
        let mut writes = WriteSet::default();
        for i in (0..10_000u64).step_by(37) {
            writes.insert(AccessKey::Balance(addr(i)), U256::from(i + 7));
            writes.insert(AccessKey::Nonce(addr(i)), U256::ONE);
        }
        for i in (0..10_000u64).step_by(130) {
            let slot = H256::from_low_u64(1);
            writes.insert(AccessKey::Storage(addr(i), slot), U256::from(i + 9));
        }
        let before = nodes_created();
        w.apply_writes(&writes);
        assert_eq!(
            nodes_created(),
            before,
            "an owned world is written in place"
        );
        // The same block on a snapshot copies the paths it takes.
        let mut child = w.snapshot();
        let before = nodes_created();
        child.apply_writes(&writes);
        assert!(nodes_created() > before);
        assert_eq!(child, w);
    }

    #[test]
    fn commits_of_a_world_held_alone_equal_those_of_snapshots() {
        use bp_types::Rng;

        /// A block's writes: bodies, slots rewritten and deleted, a new
        /// account, accounts emptied, a storage emptied.
        fn block(w: &mut WorldState, round: u64) {
            let mut rng = Rng::seed_from_u64(0x0b10_c4ed + round);
            for _ in 0..60 {
                let a = addr(rng.gen_range(0..400));
                match rng.gen_range(0..5) {
                    0 => w.set_balance(a, U256::from(rng.gen_range(0..3u64))),
                    1 => w.set_nonce(a, rng.gen_range(0..9)),
                    _ => {
                        let slot = H256::from_low_u64(rng.gen_range(0..4));
                        w.set_storage(a, slot, U256::from(rng.gen_range(0..3u64)));
                    }
                }
            }
            w.set_balance(addr(1_000 + round), U256::ONE);
            w.set_storage(addr(round * 10), H256::from_low_u64(1), U256::ZERO);
            w.set_storage(addr(round * 10), H256::from_low_u64(2), U256::ZERO);
        }

        // As the product commits, then with every commit split into crew
        // tasks — each subtree under the account trie's root, the one held
        // alone edited in place on a helper.
        for fan_out_from in [None, Some(1)] {
            let crew = Crew::new(2);
            let idle = || {
                while fan_out_from.is_some() && crew.idle_helpers() == 0 {
                    thread::yield_now();
                }
            };
            FAN_OUT_FROM.set(fan_out_from);
            crew.install(|| {
                // Never snapshotted: each commit patches the last in place.
                let mut owned = funded(400);
                owned.state_root();
                // Snapshotted before each block, the block going to the
                // snapshot.
                let mut kept = funded(400);
                kept.state_root();
                for round in 0..8 {
                    let before = kept.commit_tries();
                    let mut child = kept.snapshot();
                    block(&mut owned, round);
                    block(&mut child, round);
                    idle();
                    let (root, nodes) = owned.commit_tries();
                    idle();
                    let (child_root, child_nodes) = child.commit_tries();
                    assert_eq!(root, child_root, "fan-out from {fan_out_from:?}, {round}");
                    assert_eq!(sorted(nodes), sorted(child_nodes));
                    assert_eq!(root, owned.rebuild_root());
                    assert_eq!(kept.commit_tries(), before);
                    kept = child;
                }
            });
            FAN_OUT_FROM.set(None);
        }
    }

    // ---- pending commits: a snapshot never waits for a root ----

    use bp_testkit::within;
    use std::sync::mpsc;
    use std::thread;

    /// Whether `w`'s retained commit is still pending.
    fn commit_is_pending(w: &WorldState) -> bool {
        let tracker = w.tracker.lock();
        tracker
            .commit
            .as_ref()
            .expect("a commit")
            .0
            .try_root()
            .is_none()
    }

    /// A root hashing on another thread, held just after its commit began.
    struct HeldRoot {
        release: mpsc::Sender<()>,
        hasher: thread::JoinHandle<H256>,
    }

    /// Starts `world.state_root()` on another thread and returns once its
    /// commit is pending there. The hashing goes on — after running `then`
    /// on that thread — when `release` is dropped.
    fn hold_root(world: &Arc<WorldState>, then: fn()) -> HeldRoot {
        let (pending_tx, pending_rx) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let world = Arc::clone(world);
        let hasher = thread::spawn(move || {
            REFRESH_HOOK.set(Some(Box::new(move || {
                pending_tx.send(()).unwrap();
                let _ = release_rx.recv();
                then();
            })));
            world.state_root()
        });
        pending_rx
            .recv()
            .expect("the hasher installs a pending commit");
        HeldRoot { release, hasher }
    }

    /// `world.snapshot()` under the watchdog: while a root is held pending,
    /// a snapshot that waited for it would never return.
    fn fork(world: &Arc<WorldState>) -> WorldState {
        let world = Arc::clone(world);
        within(move || world.snapshot())
    }

    /// `n` funded accounts, every tenth with two storage slots; uncommitted.
    fn funded(n: u64) -> WorldState {
        let mut w = WorldState::new();
        for i in 0..n {
            w.set_balance(addr(i), U256::from(i + 1));
            if i % 10 == 0 {
                w.set_storage(addr(i), H256::from_low_u64(1), U256::from(i + 2));
                w.set_storage(addr(i), H256::from_low_u64(2), U256::from(i + 3));
            }
        }
        w
    }

    /// A few writes of every kind a block makes: bodies, slots, a deletion,
    /// a new account, an account emptied.
    fn child_writes(w: &mut WorldState) {
        w.set_balance(addr(3), U256::from(777u64));
        w.set_nonce(addr(4), 1);
        w.set_storage(addr(10), H256::from_low_u64(1), U256::from(9u64));
        w.set_storage(addr(20), H256::from_low_u64(2), U256::ZERO);
        w.set_balance(addr(1 << 40), U256::ONE);
        w.set_balance(addr(5), U256::ZERO);
    }

    #[test]
    fn a_snapshot_taken_while_a_100k_account_root_hashes_returns_before_it_settles() {
        let parent = Arc::new(funded(100_000));
        let held = hold_root(&parent, || {});
        assert!(commit_is_pending(&parent));
        // The parent's root cannot settle before `release` below: a snapshot
        // that waited for it would never return, and the watchdog fails it.
        let mut child = fork(&parent);
        assert!(
            commit_is_pending(&child),
            "the snapshot carries the pending commit"
        );
        assert!(child.tracker.lock().dirty.is_empty());
        child_writes(&mut child);
        // The child's own root waits for the parent's, then patches its own
        // writes on top.
        let child_root = thread::spawn(move || (child.state_root(), child));
        drop(held.release);
        let parent_root = within(move || held.hasher.join().unwrap());
        assert_eq!(parent_root, parent.rebuild_root());
        assert!(!commit_is_pending(&parent));
        let (root, child) = within(move || child_root.join().unwrap());
        assert_eq!(root, child.rebuild_root());
        assert_ne!(root, parent_root);
        assert!(!commit_is_pending(&child));
    }

    #[test]
    fn a_snapshot_of_a_pending_commit_does_not_rehash_the_parent() {
        /// Permutations the child's `state_root()` makes on this thread,
        /// and the root.
        fn child_root(mut child: WorldState) -> (u64, H256) {
            child_writes(&mut child);
            let before = bp_crypto::keccak::permutation_count();
            let root = child.state_root();
            (bp_crypto::keccak::permutation_count() - before, root)
        }

        let settled = {
            let parent = funded(2_000);
            parent.state_root();
            child_root(parent.snapshot())
        };
        let pending = {
            let parent = Arc::new(funded(2_000));
            let held = hold_root(&parent, || {});
            let child = fork(&parent);
            assert!(commit_is_pending(&child));
            drop(held.release);
            within(move || held.hasher.join().unwrap());
            child_root(child)
        };
        assert!(settled.0 > 0);
        assert_eq!(pending, settled, "(permutations, root)");
    }

    #[test]
    fn stress_pending_commits_on_forked_snapshot_chains() {
        // As the product commits, then with every commit fanned out into
        // crew tasks, however few accounts it dirtied.
        for fan_out_from in [None, Some(1)] {
            stress_pending_commits(fan_out_from);
        }
    }

    fn stress_pending_commits(fan_out_from: Option<usize>) {
        use bp_types::Rng;

        const THREADS: u64 = 4;
        const ROUNDS: usize = 250;
        const ACCOUNTS: u64 = 300;
        /// Worlds any thread may fork next.
        const TIPS: usize = 12;

        let tips = Arc::new(Mutex::new(vec![Arc::new(funded(ACCOUNTS))]));
        within(move || {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let tips = Arc::clone(&tips);
                    thread::spawn(move || {
                        FAN_OUT_FROM.set(fan_out_from);
                        let mut rng = Rng::seed_from_u64(0x9e4d_0100 + t);
                        for round in 0..ROUNDS {
                            let tip = |rng: &mut Rng| {
                                let tips = tips.lock();
                                Arc::clone(&tips[rng.gen_range(0..tips.len())])
                            };
                            // Half the children inherit their parent's tries:
                            // the first of them to commit alone on a settled
                            // parent takes them over, and its siblings and
                            // the parent rebuild from it.
                            let parent = tip(&mut rng);
                            let mut child = match rng.gen_range(0..2) {
                                0 => parent.snapshot(),
                                _ => parent.heir(),
                            };
                            drop(parent);
                            for _ in 0..rng.gen_range(1..=12) {
                                let a = addr(rng.gen_range(0..ACCOUNTS + 20));
                                let v = U256::from(rng.gen_range(0..3u64));
                                match rng.gen_range(0..4) {
                                    0 => child.set_balance(a, v),
                                    1 => child.set_nonce(a, v.low_u64()),
                                    2 => {
                                        let slot = H256::from_low_u64(rng.gen_range(0..6));
                                        child.set_storage(a, slot, v);
                                    }
                                    _ => child.set_code(a, vec![0x60; rng.gen_range(0..3)]),
                                }
                            }
                            // Published before it is hashed, so that the other
                            // threads fork it while its commit is pending (or
                            // before it even started) and hash it alongside.
                            let child = Arc::new(child);
                            {
                                let mut tips = tips.lock();
                                if tips.len() < TIPS {
                                    tips.push(Arc::clone(&child));
                                } else {
                                    let i = rng.gen_range(0..TIPS);
                                    tips[i] = Arc::clone(&child);
                                }
                            }
                            if rng.gen_range(0..4) == 0 {
                                thread::yield_now();
                            }
                            let root = child.state_root();
                            assert_eq!(
                                root,
                                child.rebuild_root(),
                                "fan-out from {fan_out_from:?}, thread {t}, round {round}"
                            );
                            if rng.gen_range(0..4) == 0 {
                                let other = tip(&mut rng);
                                assert_eq!(other.state_root(), other.rebuild_root());
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            // Tries taken over or not, every tip's rebuild the fresh ones.
            for tip in tips.lock().iter() {
                let (root, nodes) = tip.commit_tries();
                assert_eq!(root, tip.rebuild_root());
                assert_eq!(sorted(nodes), sorted(rebuilt(tip).commit_tries().1));
            }
        });
    }

    #[test]
    fn a_refresh_that_panics_makes_its_waiters_panic() {
        let parent = Arc::new(funded(1_000));
        let held = hold_root(&parent, || panic!("hashing made to panic"));
        // A fork of the pending commit, and a fork of that fork before its
        // own commit: both wait on the parent's record.
        let mut child = fork(&parent);
        child.set_balance(addr(1), U256::from(9u64));
        let grandchild = child.snapshot();
        let waiters = [child, grandchild].map(|w| {
            thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.state_root())).is_err()
            })
        });
        drop(held.release);
        assert!(held.hasher.join().is_err(), "the hook panicked");
        within(move || {
            for waiter in waiters {
                assert!(waiter.join().unwrap(), "a waiter got a root");
            }
        });
        // The world whose hashing panicked let its commit go: its next
        // commit starts over from its accounts.
        assert!(parent.tracker.lock().commit.is_none());
        assert_eq!(parent.state_root(), parent.rebuild_root());
    }

    // ---- a commit begun, then hashed by whoever asks first ----

    #[test]
    fn a_begun_commit_is_hashed_once_by_whoever_asks_first() {
        let parent = Arc::new(funded(2_000));
        parent.begin_commit();
        assert!(commit_is_pending(&parent));
        let mut child = parent.snapshot();
        assert!(commit_is_pending(&child));
        assert!(child.tracker.lock().dirty.is_empty());
        child_writes(&mut child);
        // Two threads ask for the parent's root at once: one hashes the
        // begun commit, the other waits for that work and hashes nothing.
        let askers = [0, 1].map(|_| {
            let parent = Arc::clone(&parent);
            thread::spawn(move || {
                let before = bp_crypto::keccak::permutation_count();
                let root = parent.state_root();
                (bp_crypto::keccak::permutation_count() - before, root)
            })
        });
        let (hashed, roots): (Vec<u64>, Vec<H256>) = within(move || {
            askers
                .into_iter()
                .map(|asker| asker.join().unwrap())
                .unzip()
        });
        assert_eq!(hashed.iter().filter(|&&n| n == 0).count(), 1, "{hashed:?}");
        assert_eq!(roots, [parent.rebuild_root(); 2]);
        assert!(!commit_is_pending(&parent));
        // The child patches only its own writes, as a child of a settled
        // parent does.
        let settled = {
            let mut twin = parent.snapshot();
            child_writes(&mut twin);
            let before = bp_crypto::keccak::permutation_count();
            let root = twin.state_root();
            (bp_crypto::keccak::permutation_count() - before, root)
        };
        let before = bp_crypto::keccak::permutation_count();
        let root = child.state_root();
        let begun = (bp_crypto::keccak::permutation_count() - before, root);
        assert_eq!(begun, settled, "(permutations, root)");
        assert_eq!(root, child.rebuild_root());
    }

    #[test]
    fn writes_after_a_begun_commit_commit_on_top_of_it() {
        let mut w = funded(300);
        w.begin_commit();
        let before_writes = w.snapshot();
        child_writes(&mut w);
        // The later commit's base is the begun one, hashed first, against
        // the accounts as they were when it began.
        assert_eq!(w.state_root(), w.rebuild_root());
        assert_eq!(before_writes.state_root(), before_writes.rebuild_root());
        assert_ne!(w.state_root(), before_writes.state_root());
        // Nothing written since: beginning again begins nothing.
        w.begin_commit();
        assert!(!commit_is_pending(&w));
    }

    #[test]
    fn a_begun_commit_dropped_unhashed_makes_its_waiters_panic() {
        let parent = funded(100);
        parent.begin_commit();
        let mut child = parent.snapshot();
        child.set_balance(addr(1), U256::from(9u64));
        drop(parent);
        let waited = within(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| child.state_root())).is_err()
        });
        assert!(waited, "a waiter got a root");
    }

    // ---- a settled commit handed down to its heir ----

    /// Whether a child's commit took `w`'s tries over.
    fn tries_moved(w: &WorldState) -> bool {
        let tracker = w.tracker.lock();
        let held = tracker.commit.as_ref().expect("a commit").0.held.lock();
        matches!(*held, Held::Moved { .. })
    }

    #[test]
    fn a_parent_answers_its_root_while_its_heir_takes_its_tries() {
        let parent = Arc::new(funded(1_000));
        let root = parent.state_root();
        let mut child = parent.heir();
        child_writes(&mut child);
        // The child's commit stops once it holds its base, before it hashes:
        // the parent's tries are taken, and the child's root is pending.
        let held = hold_root(&Arc::new(child), || {});
        assert!(tries_moved(&parent));
        let asked = Arc::clone(&parent);
        assert_eq!(within(move || asked.state_root()), root);
        // A sibling arriving now rebuilds from its cousin's tries, once they
        // settle: it writes a slot the heir wrote too, and leaves the heir's
        // other writes — a new account, an emptied one, a deleted slot — to
        // its own account map.
        let mut sibling = parent.heir();
        sibling.set_balance(addr(7), U256::from(5u64));
        sibling.set_storage(addr(10), H256::from_low_u64(1), U256::from(4u64));
        let sibling = thread::spawn(move || (sibling.state_root(), sibling));
        drop(held.release);
        within(move || held.hasher.join().unwrap());
        let (sibling_root, sibling) = within(move || sibling.join().unwrap());
        assert_eq!(sibling_root, sibling.rebuild_root());
        assert!(!tries_moved(&sibling));
        // The parent's own tries come back the same way.
        assert_eq!(parent.state_root(), root);
        let (rebuilt_root, nodes) = parent.commit_tries();
        assert_eq!(rebuilt_root, root);
        assert_eq!(sorted(nodes), sorted(rebuilt(&parent).commit_tries().1));
    }

    #[test]
    fn a_sibling_rebuilds_from_the_commit_of_an_heir_that_is_gone() {
        // A rejected block took its parent's tries and was then dropped: its
        // commit outlives it, linked from the parent, and a valid sibling
        // rebuilds from there in one batch, not from scratch.
        let parent = funded(2_000);
        parent.state_root();
        let mut rejected = parent.heir();
        child_writes(&mut rejected);
        rejected.state_root();
        drop(rejected);
        assert!(tries_moved(&parent));
        let mut sibling = parent.heir();
        sibling.set_nonce(addr(4), 2);
        let before = bp_crypto::keccak::permutation_count();
        let root = sibling.state_root();
        let hashed = bp_crypto::keccak::permutation_count() - before;
        let before = bp_crypto::keccak::permutation_count();
        assert_eq!(root, sibling.rebuild_root());
        let scratch = bp_crypto::keccak::permutation_count() - before;
        // Debug builds check every commit against that same rebuild.
        let oracle = if cfg!(debug_assertions) { scratch } else { 0 };
        assert!(hashed - oracle < scratch / 4, "{hashed} against {scratch}");
    }

    #[test]
    fn a_chain_of_heirs_rewrites_its_tries_without_a_new_node() {
        const BODIES: u64 = 20;
        const SLOTS: u64 = 5;
        // The validator's index keeps every state; each block is folded into
        // its parent's heir, begun, then hashed. Beside it, the same blocks
        // on snapshots of the kept states: the copy path.
        let mut inherited = vec![Arc::new(funded(2_000))];
        let mut copied = vec![Arc::new(funded(2_000))];
        inherited[0].state_root();
        copied[0].state_root();
        for round in 0..10u64 {
            let block = |w: &mut WorldState| {
                for j in 0..BODIES {
                    let a = addr((round * 101 + j * 97) % 2_000);
                    w.set_balance(a, U256::from(1_000_000 + round * 100 + j));
                }
                // Accounts that hold slots 1 and 2 since genesis.
                for j in 0..SLOTS {
                    let a = addr(((round * 7 + j) % 200) * 10);
                    w.set_storage(a, H256::from_low_u64(1 + round % 2), U256::from(round + 9));
                }
            };
            let mut heir = inherited.last().unwrap().heir();
            let mut snapshot = copied.last().unwrap().snapshot();
            block(&mut heir);
            block(&mut snapshot);
            heir.begin_commit();
            snapshot.begin_commit();
            let owned = trie_nodes_allocated(&heir, || {
                heir.state_root();
            });
            let shared = trie_nodes_allocated(&snapshot, || {
                snapshot.state_root();
            });
            assert_eq!(heir.state_root(), snapshot.state_root());
            // Every body and slot leaf takes its new value where it is, and
            // the nodes above them are edited in place; the copy path copies
            // all of them.
            assert_eq!(owned, 0, "round {round}");
            assert!(
                shared > 2 * (BODIES + SLOTS) as usize,
                "round {round}: {shared}"
            );
            inherited.push(Arc::new(heir));
            copied.push(Arc::new(snapshot));
        }
        // Only the last state holds tries; the others kept their roots.
        assert!(inherited[..10].iter().all(|w| tries_moved(w)));
        for (a, b) in inherited.iter().zip(&copied) {
            assert_eq!(a.state_root(), b.state_root());
        }
    }

    #[test]
    fn a_long_chain_of_heirs_drops_link_by_link() {
        // Dropped recursively, a million links would overflow the stack.
        let first = Record::pending();
        let mut last = Arc::clone(&first);
        for _ in 0..1_000_000 {
            let heir = Record::pending();
            last.settle(Held::Moved {
                root: H256::ZERO,
                heir: Arc::clone(&heir),
                written: Written::default(),
            });
            last = heir;
        }
        drop(last);
        within(move || drop(first));
    }
}
