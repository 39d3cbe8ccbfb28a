//! The 2048-bit Ethereum logs bloom filter.
//!
//! Every block header commits to a bloom over the addresses and topics of
//! all logs in the block, letting light clients skip blocks that cannot
//! contain events they care about. The construction is Ethereum's: for each
//! item, keccak-256 the bytes and set three bits, each selected by an
//! 11-bit value from byte pairs (0,1), (2,3) and (4,5) of the hash.

use bp_crypto::keccak256;
use bp_evm::Log;

/// A 2048-bit bloom filter (256 bytes).
#[derive(Clone, PartialEq, Eq)]
pub struct Bloom(pub [u8; 256]);

impl Default for Bloom {
    fn default() -> Self {
        Bloom([0u8; 256])
    }
}

impl std::fmt::Debug for Bloom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bloom({} bits set)", self.count_ones())
    }
}

impl Bloom {
    /// The empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The three bit indices Ethereum derives for `data`.
    fn bits_for(data: &[u8]) -> [usize; 3] {
        let h = keccak256(data);
        let mut out = [0usize; 3];
        for (i, slot) in out.iter_mut().enumerate() {
            let hi = h.0[2 * i] as usize;
            let lo = h.0[2 * i + 1] as usize;
            *slot = ((hi << 8) | lo) & 0x7FF;
        }
        out
    }

    /// Adds raw bytes (an address or topic).
    pub fn accrue(&mut self, data: &[u8]) {
        for bit in Self::bits_for(data) {
            self.0[255 - bit / 8] |= 1 << (bit % 8);
        }
    }

    /// Adds a log's address and all topics.
    pub fn accrue_log(&mut self, log: &Log) {
        self.accrue(log.address.as_bytes());
        for topic in &log.topics {
            self.accrue(topic.as_bytes());
        }
    }

    /// True iff the filter *may* contain `data` (no false negatives).
    pub fn may_contain(&self, data: &[u8]) -> bool {
        Self::bits_for(data)
            .into_iter()
            .all(|bit| self.0[255 - bit / 8] & (1 << (bit % 8)) != 0)
    }

    /// Merges another bloom into this one.
    pub fn union(&mut self, other: &Bloom) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// True iff no bits are set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Number of set bits (diagnostics).
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|b| b.count_ones()).sum()
    }
}

/// The block-level bloom over all logs of all receipts.
pub fn logs_bloom<'a>(logs: impl IntoIterator<Item = &'a Log>) -> Bloom {
    let mut bloom = Bloom::new();
    for log in logs {
        bloom.accrue_log(log);
    }
    bloom
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::{Address, H256};

    fn log(addr: u64, topics: &[u64]) -> Log {
        Log {
            address: Address::from_index(addr),
            topics: topics.iter().map(|&t| H256::from_low_u64(t)).collect(),
            data: vec![],
        }
    }

    #[test]
    fn empty_bloom_contains_nothing() {
        let b = Bloom::new();
        assert!(b.is_empty());
        assert!(!b.may_contain(Address::from_index(1).as_bytes()));
    }

    #[test]
    fn accrued_items_are_found() {
        let l = log(7, &[1, 2]);
        let b = logs_bloom([&l]);
        assert!(b.may_contain(Address::from_index(7).as_bytes()));
        assert!(b.may_contain(H256::from_low_u64(1).as_bytes()));
        assert!(b.may_contain(H256::from_low_u64(2).as_bytes()));
        assert!(!b.is_empty());
        // Exactly ≤ 9 bits for three items.
        assert!(b.count_ones() <= 9);
    }

    #[test]
    fn unrelated_items_are_probably_absent() {
        let b = logs_bloom([&log(7, &[1])]);
        let misses = (100..200u64)
            .filter(|&i| !b.may_contain(Address::from_index(i).as_bytes()))
            .count();
        // With 6 bits set out of 2048 the false-positive rate is tiny.
        assert!(misses >= 99, "only {misses} misses");
    }

    #[test]
    fn union_is_inclusive() {
        let mut a = logs_bloom([&log(1, &[])]);
        let b = logs_bloom([&log(2, &[])]);
        a.union(&b);
        assert!(a.may_contain(Address::from_index(1).as_bytes()));
        assert!(a.may_contain(Address::from_index(2).as_bytes()));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = logs_bloom([&log(1, &[9])]);
        let b = logs_bloom([&log(1, &[9])]);
        assert_eq!(a, b);
    }
}
