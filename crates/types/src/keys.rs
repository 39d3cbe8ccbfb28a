//! Access keys: the unit of conflict detection.
//!
//! Both sides of the BlockPilot framework reason about transactions through
//! the set of state locations they read and write:
//!
//! * the OCC-WSI proposer knows, per [`AccessKey`], the version of the last
//!   transaction that wrote it (the paper's *reserve table*: the tail of the
//!   key's version chain), and aborts a transaction whose read set observed
//!   an older version;
//! * the validator scheduler builds the dependency graph by intersecting the
//!   read/write sets of transactions at **account granularity** (the paper's
//!   §4.3: balances change in every transaction and contract-storage writes
//!   update the account's storage root).
//!
//! [`AccessKey::account`] maps a fine-grained key to its coarse account-level
//! key, so both granularities are available to the scheduler.

use crate::{Address, FxHashMap, H256, U256};

/// One addressable state location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum AccessKey {
    /// An account's balance counter.
    Balance(Address),
    /// An account's nonce counter.
    Nonce(Address),
    /// One storage slot of a contract account.
    Storage(Address, H256),
    /// An account's code.
    Code(Address),
}

impl AccessKey {
    /// The account this key belongs to.
    pub fn address(&self) -> Address {
        match *self {
            AccessKey::Balance(a)
            | AccessKey::Nonce(a)
            | AccessKey::Storage(a, _)
            | AccessKey::Code(a) => a,
        }
    }

    /// Coarsens the key to account granularity (used by the validator's
    /// dependency graph, which treats any two touches of the same account as
    /// conflicting).
    pub fn account(&self) -> AccessKey {
        AccessKey::Balance(self.address())
    }
}

/// A read set: key → the state **version** the value was read at.
///
/// Versions are the OCC-WSI snapshot versions from Algorithm 1: version 0 is
/// the pre-block state, and each committed transaction bumps the version of
/// every key it writes.
///
/// Backed by an [`FxHashMap`]: footprints are recorded on the per-opcode hot
/// path (every `SLOAD` inserts here), and their size is bounded by the gas
/// limit, so the fast non-DoS-resistant hash applies. Anything that needs a
/// deterministic order over a footprint (wire encoding, display) must sort
/// explicitly.
pub type ReadSet = FxHashMap<AccessKey, u64>;

/// A write set: key → the value written. See [`ReadSet`] for why this is
/// hash- rather than tree-backed.
pub type WriteSet = FxHashMap<AccessKey, U256>;

/// The read/write footprint of one executed transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys read, with the version observed for each.
    pub reads: ReadSet,
    /// Keys written, with the final value for each.
    pub writes: WriteSet,
}

impl RwSet {
    /// An empty footprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `key` at `version` (first read wins: the footprint
    /// keeps the version of the *initial* observation, matching snapshot
    /// reads).
    pub fn record_read(&mut self, key: AccessKey, version: u64) {
        self.reads.entry(key).or_insert(version);
    }

    /// Records a write of `value` to `key` (last write wins).
    pub fn record_write(&mut self, key: AccessKey, value: U256) {
        self.writes.insert(key, value);
    }

    /// True if `self`'s writes intersect `other`'s reads or writes, or vice
    /// versa — i.e. the two transactions conflict (RAW, WAR or WAW) and must
    /// not run concurrently on a validator.
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        let w_vs_rw = self
            .writes
            .keys()
            .any(|k| other.reads.contains_key(k) || other.writes.contains_key(k));
        if w_vs_rw {
            return true;
        }
        other.writes.keys().any(|k| self.reads.contains_key(k))
    }

    /// Like [`RwSet::conflicts_with`] but at account granularity, the
    /// coarsening used by the validator scheduler.
    pub fn conflicts_with_account_level(&self, other: &RwSet) -> bool {
        let mine: std::collections::BTreeSet<Address> =
            self.writes.keys().map(AccessKey::address).collect();
        let theirs_touch = |k: &AccessKey| mine.contains(&k.address());
        if other.reads.keys().any(theirs_touch) || other.writes.keys().any(theirs_touch) {
            return true;
        }
        let their_writes: std::collections::BTreeSet<Address> =
            other.writes.keys().map(AccessKey::address).collect();
        self.reads
            .keys()
            .any(|k| their_writes.contains(&k.address()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn account_coarsening() {
        let k = AccessKey::Storage(addr(1), H256::from_low_u64(7));
        assert_eq!(k.account(), AccessKey::Balance(addr(1)));
        assert_eq!(k.address(), addr(1));
    }

    #[test]
    fn first_read_version_wins() {
        let mut rw = RwSet::new();
        let k = AccessKey::Balance(addr(1));
        rw.record_read(k, 3);
        rw.record_read(k, 9);
        assert_eq!(rw.reads[&k], 3);
    }

    #[test]
    fn last_write_wins() {
        let mut rw = RwSet::new();
        let k = AccessKey::Balance(addr(1));
        rw.record_write(k, U256::from(1u64));
        rw.record_write(k, U256::from(2u64));
        assert_eq!(rw.writes[&k], U256::from(2u64));
    }

    #[test]
    fn raw_conflict_detected() {
        let mut a = RwSet::new();
        a.record_write(AccessKey::Balance(addr(1)), U256::ONE);
        let mut b = RwSet::new();
        b.record_read(AccessKey::Balance(addr(1)), 0);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a)); // WAR seen from the other side
    }

    #[test]
    fn waw_conflict_detected() {
        let mut a = RwSet::new();
        a.record_write(AccessKey::Balance(addr(1)), U256::ONE);
        let mut b = RwSet::new();
        b.record_write(AccessKey::Balance(addr(1)), U256::from(2u64));
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let mut a = RwSet::new();
        a.record_read(AccessKey::Balance(addr(1)), 0);
        let mut b = RwSet::new();
        b.record_read(AccessKey::Balance(addr(1)), 0);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn disjoint_sets_do_not_conflict() {
        let mut a = RwSet::new();
        a.record_write(AccessKey::Balance(addr(1)), U256::ONE);
        let mut b = RwSet::new();
        b.record_write(AccessKey::Balance(addr(2)), U256::ONE);
        b.record_read(AccessKey::Storage(addr(3), H256::ZERO), 0);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn account_level_is_coarser() {
        // Different storage slots of the same contract: no slot-level
        // conflict, but an account-level one.
        let c = addr(9);
        let mut a = RwSet::new();
        a.record_write(AccessKey::Storage(c, H256::from_low_u64(1)), U256::ONE);
        let mut b = RwSet::new();
        b.record_write(AccessKey::Storage(c, H256::from_low_u64(2)), U256::ONE);
        assert!(!a.conflicts_with(&b));
        assert!(a.conflicts_with_account_level(&b));
    }
}
