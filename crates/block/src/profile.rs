//! The block profile: per-transaction execution details shipped with the
//! block (§4.2 of the paper).

use std::sync::Arc;

use bp_types::{Address, FxHashMap, Gas, ReadSet, RwSet, WriteSet};

/// One transaction's entry in the block profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxProfile {
    /// Keys read, each with the snapshot version observed.
    pub reads: ReadSet,
    /// Keys written with the values produced. A `Code` write's value is the
    /// hash of the code it deployed (`keccak256(code)` as a word).
    pub writes: WriteSet,
    /// The code of each `Code` write, by address: what the transaction
    /// deployed. Empty for every entry that deploys nothing.
    pub code: FxHashMap<Address, Arc<Vec<u8>>>,
    /// Gas consumed — the scheduler's execution-time estimate (§4.3).
    pub gas_used: Gas,
}

impl TxProfile {
    /// Builds a profile entry out of an executed footprint and the code it
    /// deployed, which it may keep: the maps move in instead of being
    /// cloned.
    pub fn from_owned_rw(rw: RwSet, code: FxHashMap<Address, Arc<Vec<u8>>>, gas_used: Gas) -> Self {
        TxProfile {
            reads: rw.reads,
            writes: rw.writes,
            code,
            gas_used,
        }
    }

    /// The footprint as an [`RwSet`] (for conflict queries).
    pub fn rw(&self) -> RwSet {
        RwSet {
            reads: self.reads.clone(),
            writes: self.writes.clone(),
        }
    }
}

/// Per-transaction profiles, in block order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockProfile {
    /// `entries[i]` describes `transactions[i]`.
    pub entries: Vec<TxProfile>,
}

impl BlockProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one transaction's profile.
    pub fn push(&mut self, entry: TxProfile) {
        self.entries.push(entry);
    }

    /// Number of profiled transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no transactions are profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total gas across all entries.
    pub fn total_gas(&self) -> Gas {
        self.entries.iter().map(|e| e.gas_used).sum()
    }

    /// Verifies that an executed footprint matches the profiled one for
    /// transaction `index`: identical key sets and written values. Validators
    /// use this in the block-validation phase (Algorithm 2's
    /// `Verify(rs/ws, Info)`).
    ///
    /// Read *versions* are not compared: the proposer's snapshot versions
    /// reflect its commit interleaving, while a validator replays the fixed
    /// schedule — only the footprint shape and produced values must agree.
    pub fn matches(&self, index: usize, rw: &RwSet) -> bool {
        let Some(entry) = self.entries.get(index) else {
            return false;
        };
        // Key-set comparison must not assume an iteration order: the
        // profiled entry may have been rebuilt from the (sorted) wire form
        // while the replayed footprint is in execution insertion order.
        entry.writes == rw.writes
            && entry.reads.len() == rw.reads.len()
            && rw.reads.keys().all(|k| entry.reads.contains_key(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::{AccessKey, Address, U256};

    fn key(i: u64) -> AccessKey {
        AccessKey::Balance(Address::from_index(i))
    }

    /// An entry that deploys no code.
    fn entry(rw: RwSet, gas_used: Gas) -> TxProfile {
        TxProfile::from_owned_rw(rw, FxHashMap::default(), gas_used)
    }

    fn sample_rw() -> RwSet {
        let mut rw = RwSet::new();
        rw.record_read(key(1), 3);
        rw.record_write(key(2), U256::from(9u64));
        rw
    }

    #[test]
    fn from_rw_roundtrip() {
        let rw = sample_rw();
        let p = entry(rw.clone(), 21_000);
        assert_eq!(p.rw(), rw);
        assert_eq!(p.gas_used, 21_000);
    }

    #[test]
    fn matches_identical_footprint() {
        let mut profile = BlockProfile::new();
        profile.push(entry(sample_rw(), 21_000));
        assert!(profile.matches(0, &sample_rw()));
    }

    #[test]
    fn matches_ignores_read_versions() {
        let mut profile = BlockProfile::new();
        profile.push(entry(sample_rw(), 21_000));
        let mut replay = RwSet::new();
        replay.record_read(key(1), 0); // different version, same key
        replay.record_write(key(2), U256::from(9u64));
        assert!(profile.matches(0, &replay));
    }

    #[test]
    fn mismatch_on_extra_read() {
        let mut profile = BlockProfile::new();
        profile.push(entry(sample_rw(), 21_000));
        let mut replay = sample_rw();
        replay.record_read(key(5), 0);
        assert!(!profile.matches(0, &replay));
    }

    #[test]
    fn mismatch_on_different_written_value() {
        let mut profile = BlockProfile::new();
        profile.push(entry(sample_rw(), 21_000));
        let mut replay = sample_rw();
        replay.record_write(key(2), U256::from(10u64));
        assert!(!profile.matches(0, &replay));
    }

    #[test]
    fn mismatch_on_missing_index() {
        let profile = BlockProfile::new();
        assert!(!profile.matches(0, &sample_rw()));
    }

    #[test]
    fn total_gas_sums() {
        let mut profile = BlockProfile::new();
        profile.push(entry(RwSet::new(), 10));
        profile.push(entry(RwSet::new(), 32));
        assert_eq!(profile.total_gas(), 42);
        assert_eq!(profile.len(), 2);
        assert!(!profile.is_empty());
    }
}
