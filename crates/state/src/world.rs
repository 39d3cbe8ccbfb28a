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
//! The account map, each account's storage map and the retained storage
//! tries are persistent maps ([`PMap`]), and accounts sit behind [`Arc`], so
//! cloning a `WorldState` ([`WorldState::snapshot`]) is O(1) in the number of
//! accounts — a root-pointer bump per map plus a copy of the dirty set — and
//! a write after it copies one root-to-entry path of map nodes and the one
//! touched account body, never that account's storage. A block therefore
//! costs O(state it touches): the proposer forks the pre-block world once to
//! seal, every validator forks it once to apply, and the states retained per
//! height share everything they did not write.
//!
//! A snapshot never waits for a root. The retained commit is a value that
//! can still be *pending*: a commit takes the dirty set and installs a
//! [`RootLatch`] under the tracker lock, hashes outside it, and settles the
//! latch with the new tries. A snapshot taken meanwhile carries that latch
//! and an empty dirty set; its own first commit waits on the latch and then
//! patches only what the snapshot itself wrote, never rehashing the
//! parent's accounts. This is what lets the validator apply block N+1 on
//! N's post-state while N's root still hashes on another thread: the wait
//! moves from the child's fork to the child's root, which needs the
//! parent's tries anyway. A commit that panics part-way poisons its latch,
//! so whoever waits on it panics too instead of hanging.

use std::sync::Arc;

use bp_concurrent::sync::Mutex;
use bp_concurrent::RootLatch;
use bp_crypto::{keccak256, keccak256_batch};
use bp_types::{AccessKey, Address, WriteSet, H256, U256};
// Dirty tracking and the from-scratch oracle's scratch maps are Fx-hashed:
// keys are fixed-size hashes/addresses, and SipHash showed up as the top
// per-transaction cost in the EVM bench.
use bp_types::{FxHashMap as HashMap, FxHashSet as HashSet};

use crate::account::{empty_code_hash, Account};
use crate::pmap::PMap;
use crate::trie::{self, Trie};

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
    /// single largest fixed cost of a contract call). Maintained by
    /// [`AccountState::install_code`]; anything that assigns `code` directly
    /// must update it the same way.
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

    /// Installs `code`, keeping the cached [`AccountState::code_hash`] in
    /// sync.
    pub fn install_code(&mut self, code: Arc<Vec<u8>>) {
        self.code_hash = code_read_word(&code);
        self.code = code;
    }
}

/// What a mutation dirtied within one account since the last commit.
#[derive(Clone, Debug)]
enum DirtyAccount {
    /// The account body and/or the listed storage slots changed; every other
    /// slot is untouched, so the retained storage trie can be patched.
    Slots(HashSet<H256>),
    /// The account was mutated through an escape hatch
    /// ([`WorldState::account_mut`]) that may have rewritten anything —
    /// rebuild its storage trie from scratch.
    Full,
}

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

/// A commit still being hashed: the latch its `refresh` settles with the
/// commit, or with `None` when that `refresh` panicked.
type PendingCommit = Arc<RootLatch<Option<Arc<WorldCommit>>>>;

/// The last commit of a lineage, settled or still pending.
#[derive(Clone)]
enum Retained {
    Settled(Arc<WorldCommit>),
    Pending(PendingCommit),
}

impl Retained {
    /// The commit, once its hashing is over.
    fn wait(self) -> Arc<WorldCommit> {
        match self {
            Retained::Settled(commit) => commit,
            Retained::Pending(latch) => latch
                .wait()
                .expect("the commit this world was forked from panicked while hashing"),
        }
    }
}

impl std::fmt::Debug for Retained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Retained::Settled(commit) => write!(f, "Settled({:?})", commit.root),
            Retained::Pending(_) => f.write_str("Pending"),
        }
    }
}

/// Dirty bookkeeping between commits. Lives behind a mutex only so the
/// read-side `state_root(&self)` can refresh the memo; all mutation paths
/// take `&mut self` and use the lock-free `get_mut`. The lock is held only
/// to read or swap these two fields, never across hashing.
#[derive(Debug, Default)]
struct CommitTracker {
    /// Accounts touched since the last commit. Absent entirely ⇒ the last
    /// commit is current.
    dirty: HashMap<Address, DirtyAccount>,
    /// The last commit, shared O(1) across clones until one of them
    /// recommits. Pending while a `refresh` hashes it.
    commit: Option<Retained>,
}

/// The mutable world state of the chain.
#[derive(Debug, Default)]
pub struct WorldState {
    accounts: PMap<Address, Arc<AccountState>>,
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

    /// Read access to an account, if present.
    pub fn account(&self, addr: &Address) -> Option<&AccountState> {
        self.accounts.get(addr).map(|a| &**a)
    }

    /// Mutable access, creating the account if needed.
    ///
    /// This hands out the raw account — including its storage map — so the
    /// account is conservatively marked fully dirty and its storage trie is
    /// rebuilt at the next commit. Prefer the typed setters, which track
    /// exactly what changed.
    pub fn account_mut(&mut self, addr: Address) -> &mut AccountState {
        self.tracker
            .get_mut()
            .dirty
            .insert(addr, DirtyAccount::Full);
        entry(&mut self.accounts, addr)
    }

    /// Marks the account body (balance/nonce/code) dirty without touching
    /// storage slots, and returns the account for mutation.
    fn body_mut(&mut self, addr: Address) -> &mut AccountState {
        self.tracker
            .get_mut()
            .dirty
            .entry(addr)
            .or_insert_with(|| DirtyAccount::Slots(HashSet::default()));
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
        let tracker = self.tracker.get_mut();
        match tracker
            .dirty
            .entry(addr)
            .or_insert_with(|| DirtyAccount::Slots(HashSet::default()))
        {
            DirtyAccount::Slots(slots) => {
                slots.insert(key);
            }
            DirtyAccount::Full => {}
        }
        let acct = entry(&mut self.accounts, addr);
        if value.is_zero() {
            acct.storage.remove(&key);
        } else {
            acct.storage.insert(key, value);
        }
    }

    /// Installs contract code.
    pub fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        self.body_mut(addr).install_code(Arc::new(code));
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

    /// Applies one committed write set (used when sealing a block and by the
    /// validator's applier). `Code` writes are ignored here — code bytes are
    /// installed via [`WorldState::set_code`] by the execution layer; the
    /// write-set entry only versions the key for conflict detection.
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

    /// Number of existing accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
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
        self.refresh().root
    }

    /// Commits the world into its secure MPT form and returns the state root
    /// together with every hashed trie node — the account trie's plus those
    /// of each non-empty storage trie, once per reference (see
    /// [`crate::trie::Trie::commit_nodes`]).
    ///
    /// The tries come from the same incremental memo as
    /// [`WorldState::state_root`]: hashes come from the retained tries,
    /// nothing is re-hashed. Compared against a fresh world's, the node set
    /// is the tests' structural oracle for the incremental commit.
    pub fn commit_tries(&self) -> (H256, Vec<(H256, Vec<u8>)>) {
        let commit = self.refresh();
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
        let mut bodies = Vec::with_capacity(self.accounts.len());
        for (addr, acct) in self.accounts.iter() {
            let storage = nonzero_slots(acct);
            if acct.nonce == 0
                && acct.balance.is_zero()
                && acct.code.is_empty()
                && storage.is_empty()
            {
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

    /// Brings the retained commit up to date with all dirty accounts and
    /// returns it.
    ///
    /// Under the tracker lock this only takes the dirty set and installs a
    /// pending commit; the hashing runs outside it, so a snapshot taken
    /// meanwhile does not wait. The pending commit settles (or, should the
    /// hashing panic, is poisoned) before this returns.
    fn refresh(&self) -> Arc<WorldCommit> {
        let mut tracker = self.tracker.lock();
        if tracker.dirty.is_empty() {
            // Nothing changed since the last commit, which may still be
            // hashing on another thread.
            if let Some(last) = tracker.commit.clone() {
                drop(tracker);
                return last.wait();
            }
        }
        let latch = PendingCommit::default();
        let base = tracker
            .commit
            .replace(Retained::Pending(Arc::clone(&latch)));
        // The dirty set is taken, not drained: a drained table keeps its
        // capacity, and every snapshot of this world from then on would
        // copy a table the size of the largest batch it ever saw (a
        // 100 000-account genesis: 7 MB a clone).
        let dirty = std::mem::take(&mut tracker.dirty);
        drop(tracker);
        let hashing = Hashing { world: self, latch };
        #[cfg(test)]
        if let Some(hook) = REFRESH_HOOK.take() {
            hook();
        }
        let (commit, dirty) = match base {
            // Unshared after a snapshot recommits? Reuse in place; else clone
            // (cheap — tries share structure).
            Some(base) => (Arc::unwrap_or_clone(base.wait()), dirty),
            // First commit ever (for this lineage): everything is dirty.
            None => {
                let all = self
                    .accounts
                    .keys()
                    .map(|addr| (*addr, DirtyAccount::Full))
                    .collect();
                (WorldCommit::default(), all)
            }
        };
        let commit = Arc::new(self.recommit(commit, dirty));
        hashing.settle(Arc::clone(&commit));
        commit
    }

    /// `commit` patched with the `dirty` accounts.
    fn recommit(
        &self,
        mut commit: WorldCommit,
        dirty: HashMap<Address, DirtyAccount>,
    ) -> WorldCommit {
        // The dirty accounts in the order of their hashed addresses (hashed
        // as one batch): the order the account trie's descent takes them in.
        let mut dirty: Vec<(HashedKey, Address, DirtyAccount)> = dirty
            .into_iter()
            .map(|(addr, dirt)| ([0; 32], addr, dirt))
            .collect();
        let keys = keccak256_batch(dirty.iter().map(|(_, addr, _)| addr.as_bytes()));
        for (entry, key) in dirty.iter_mut().zip(keys) {
            entry.0 = key.0;
        }
        dirty.sort_unstable_by_key(|entry| entry.0);
        // Storage first: each account's trie is patched with its new nodes
        // left pending, and the tries of the whole block are hashed level
        // by level together. The account bodies need their roots.
        let mut states: Vec<_> = dirty
            .iter()
            .map(|(_, addr, dirt)| {
                // An absent or EIP-161-empty account is dropped whatever its
                // storage trie held.
                let acct = self
                    .accounts
                    .get(addr)
                    .map(|acct| &**acct)
                    .filter(|acct| !acct.is_empty());
                let prev = commit.storage_tries.get(addr);
                let patched = acct.and_then(|acct| patched_storage(dirt, acct, prev));
                (acct, prev, patched)
            })
            .collect();
        trie::commit_pending(states.iter_mut().filter_map(|state| state.2.as_mut()));
        let mut bodies = Vec::with_capacity(dirty.len());
        let mut replaced = Vec::new();
        for ((key, addr, _), (acct, prev, patched)) in dirty.into_iter().zip(states) {
            let update = account_update(acct, prev, patched);
            bodies.push((key, update.body));
            replaced.extend(update.storage_trie.map(|trie| (addr, trie)));
        }
        commit.account_trie.apply_sorted(&mut bodies);
        for (addr, storage_trie) in replaced {
            if storage_trie.is_empty() {
                commit.storage_tries.remove(&addr);
            } else {
                commit.storage_tries.insert(addr, storage_trie);
            }
        }
        commit.root = commit.account_trie.root_hash();
        debug_assert_eq!(
            commit.root,
            self.rebuild_root(),
            "incremental state root diverged from from-scratch rebuild"
        );
        commit
    }
}

/// A `refresh` between installing its pending commit and settling it.
/// Dropped unsettled — the hashing panicked — it poisons the latch, so that
/// waiters panic instead of hanging, and drops the world's retained commit,
/// so that the world's next commit rebuilds from scratch.
struct Hashing<'a> {
    world: &'a WorldState,
    latch: PendingCommit,
}

impl Hashing<'_> {
    /// Retains `commit` in the world and hands it to the latch's waiters.
    /// The installed latch is still the world's retained commit: only a
    /// `refresh` replaces it, and one with nothing dirty never does.
    fn settle(self, commit: Arc<WorldCommit>) {
        self.world.tracker.lock().commit = Some(Retained::Settled(Arc::clone(&commit)));
        self.latch.set(Some(commit));
    }
}

impl Drop for Hashing<'_> {
    fn drop(&mut self) {
        if !self.latch.is_set() {
            self.world.tracker.lock().commit = None;
            self.latch.set(None);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Runs once, on this thread, in the next `refresh` that hashes, right
    /// after it installs its pending commit: lets a test hold a root pending
    /// or make its hashing panic.
    static REFRESH_HOOK: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// The account at `addr`, created empty if absent, unshared for writing.
fn entry(accounts: &mut PMap<Address, Arc<AccountState>>, addr: Address) -> &mut AccountState {
    Arc::make_mut(accounts.get_or_insert_with(addr, Arc::default))
}

/// An account's storage without zero values (which only the
/// [`WorldState::account_mut`] escape hatch can leave behind).
fn nonzero_slots(acct: &AccountState) -> HashMap<H256, U256> {
    acct.storage
        .iter()
        .filter(|(_, value)| !value.is_zero())
        .map(|(slot, value)| (*slot, *value))
        .collect()
}

/// A trie key: `keccak(address)` or `keccak(slot)`.
type HashedKey = [u8; 32];

/// Applies updates keyed by hash to `trie` in one descent, leaving the nodes
/// it creates pending ([`trie::commit_pending`]).
fn apply_hashed(trie: &mut Trie, mut updates: Vec<(HashedKey, Option<Vec<u8>>)>) {
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

/// One dirty, non-empty account's new storage trie — the retained one
/// (`prev`) patched, or one rebuilt — with the nodes it creates left
/// pending; `None` when the retained trie stands.
fn patched_storage(dirt: &DirtyAccount, acct: &AccountState, prev: Option<&Trie>) -> Option<Trie> {
    match (dirt, prev) {
        // Only the body changed: the retained trie stands.
        (DirtyAccount::Slots(slots), Some(_)) if slots.is_empty() => None,
        // Precise slot tracking with a retained trie: patch only the dirty
        // slots, in one batch. A slot now zero/absent is deleted from the
        // trie.
        (DirtyAccount::Slots(slots), Some(prev)) => {
            let slots: Vec<(&H256, U256)> = slots
                .iter()
                .map(|slot| (slot, acct.storage.get(slot).copied().unwrap_or(U256::ZERO)))
                .collect();
            let mut trie = prev.clone();
            apply_hashed(&mut trie, storage_leaves(slots));
            Some(trie)
        }
        // Fully dirty, or no retained trie (storage was empty at the last
        // commit): rebuild from the account's slots.
        _ => Some(storage_trie_pending(&nonzero_slots(acct))),
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
    // The code hash is at hand in the account.
    let code_hash = if acct.code.is_empty() {
        empty_code_hash()
    } else {
        H256::from_u256(acct.code_hash)
    };
    AccountUpdate {
        body: Some(account_body(
            acct.nonce,
            acct.balance,
            code_hash,
            storage_trie.root_hash(),
        )),
        // An account that had no storage and has none changes nothing.
        storage_trie: patched.filter(|trie| !trie.is_empty() || prev.is_some()),
    }
}

/// Storage-trie updates for slots and their values (zero removes the slot):
/// the slots hashed as one batch.
fn storage_leaves(slots: Vec<(&H256, U256)>) -> Vec<(HashedKey, Option<Vec<u8>>)> {
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
    trie::rlp_str(trimmed, &mut leaf);
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

/// One account's storage trie, built from scratch in one descent, its nodes
/// left pending.
fn storage_trie_pending(storage: &HashMap<H256, U256>) -> Trie {
    let mut trie = Trie::new();
    let slots = storage.iter().map(|(slot, value)| (slot, *value)).collect();
    apply_hashed(&mut trie, storage_leaves(slots));
    trie
}

/// Root of one account's storage trie, built from scratch.
pub fn storage_root(storage: &HashMap<H256, U256>) -> H256 {
    let mut trie = storage_trie_pending(storage);
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
        w.account_mut(addr(9));
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
        w.account_mut(addr(3))
            .install_code(Arc::new(vec![0xfe; 300]));
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
        assert_eq!(parent.account_count(), 300);
    }

    // ---- incremental-commitment specific coverage ----

    /// Builds a fresh world with the same contents (no memo) for oracle use.
    fn rebuilt(w: &WorldState) -> WorldState {
        let mut fresh = WorldState::new();
        for (a, acct) in w.accounts() {
            let m = fresh.account_mut(*a);
            *m = acct.clone();
        }
        fresh
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
    fn account_mut_escape_hatch_is_tracked() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::ONE);
        w.set_storage(addr(1), H256::from_low_u64(1), U256::from(2u64));
        let _ = w.state_root();
        // Mutate the storage map directly, bypassing set_storage.
        w.account_mut(addr(1))
            .storage
            .insert(H256::from_low_u64(7), U256::from(8u64));
        assert_eq!(w.state_root(), w.rebuild_root());
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

    // ---- pending commits: a snapshot never waits for a root ----

    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Long enough for any of these tests' waits on an idle or busy host.
    const WATCHDOG: Duration = Duration::from_secs(60);

    /// Whether `w`'s retained commit is still pending.
    fn commit_is_pending(w: &WorldState) -> bool {
        matches!(w.tracker.lock().commit, Some(Retained::Pending(_)))
    }

    /// Runs `f` on its own thread and returns what it returns, failing if it
    /// has not returned within [`WATCHDOG`]: a wait that is never released
    /// fails the test instead of hanging it.
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = thread::spawn(move || {
            let _ = done_tx.send(f());
        });
        match done_rx.recv_timeout(WATCHDOG) {
            Ok(value) => {
                worker.join().unwrap();
                value
            }
            // The sender was dropped without sending: `f` panicked.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("not done after {WATCHDOG:?}: a wait was never released")
            }
        }
    }

    /// A root hashing on another thread, held just after its `refresh`
    /// installed the pending commit.
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
                        let mut rng = Rng::seed_from_u64(0x9e4d_0100 + t);
                        for round in 0..ROUNDS {
                            let tip = |rng: &mut Rng| {
                                let tips = tips.lock();
                                Arc::clone(&tips[rng.gen_range(0..tips.len())])
                            };
                            let mut child = tip(&mut rng).snapshot();
                            for _ in 0..rng.gen_range(1..=12) {
                                let a = addr(rng.gen_range(0..ACCOUNTS + 20));
                                let v = U256::from(rng.gen_range(0..3u64));
                                match rng.gen_range(0..5) {
                                    0 => child.set_balance(a, v),
                                    1 => child.set_nonce(a, v.low_u64()),
                                    2 => {
                                        let slot = H256::from_low_u64(rng.gen_range(0..6));
                                        child.set_storage(a, slot, v);
                                    }
                                    3 => child.set_code(a, vec![0x60; rng.gen_range(0..3)]),
                                    _ => child.account_mut(a).balance = v,
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
                            assert_eq!(root, child.rebuild_root(), "thread {t}, round {round}");
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
        });
    }

    #[test]
    fn a_refresh_that_panics_makes_its_waiters_panic() {
        let parent = Arc::new(funded(1_000));
        let held = hold_root(&parent, || panic!("hashing made to panic"));
        // A fork of the pending commit, and a fork of that fork before its
        // own commit: both wait on the parent's latch.
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
}
