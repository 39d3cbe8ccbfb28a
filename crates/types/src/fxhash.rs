//! A fast, non-cryptographic hasher for hot-path hash maps.
//!
//! The EVM host, the flat world state and the analysis cache all key maps by
//! short fixed-size values ([`crate::AccessKey`], [`crate::Address`],
//! [`crate::H256`], raw pointers). `std`'s default SipHash costs ~40–80 ns
//! per operation on those keys — measured as the single largest line item in
//! per-transaction execution time. This module is the Firefox `FxHasher`
//! (multiply-rotate over machine words), which hashes the same keys in a few
//! nanoseconds.
//!
//! One departure from the Firefox original: [`Hasher::finish`] folds the
//! state's high half into its low half, multiplies once more and folds again.
//! The last step of the word loop is a multiply, whose output bit `k` depends
//! only on input bits `≤ k` — and for a key whose varying bytes sit at the
//! big-endian end of a word ([`crate::Address::from_index`],
//! [`crate::H256::from_low_u64`], i.e. Solidity's small-integer slots) the
//! low 16 to 56 input bits are constant. `std`'s `HashMap` picks buckets by
//! the low bits, so the raw state sent 100 000 such addresses down a handful
//! of probe chains (EXPERIMENTS.md, "State snapshots and the Fx low bits").
//! A plain rotation, as in rustc-hash 2, rescues the address family but not
//! the slot family, whose entropy sits in the top 16 bits only; the fold
//! leaves both the low bits (bucket index) and the top seven (`hashbrown`'s
//! tag) uniformly spread.
//!
//! Not DoS-resistant: use only for maps whose keys are not
//! attacker-controlled collections (per-transaction buffers, per-node
//! caches), never for protocol-level structures an adversary can grow.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Firefox hash (golden-ratio derived, odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Bucket indices come from the low bits; the word loop leaves its
        // entropy in the high ones (see the module docs).
        let folded = (self.hash ^ (self.hash >> 32)).wrapping_mul(SEED);
        folded ^ (folded >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKey, Address, H256, U256};

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut m: FxHashMap<AccessKey, U256> = FxHashMap::default();
        for i in 0..256u64 {
            m.insert(
                AccessKey::Storage(Address::from_index(i % 7), H256::from_low_u64(i)),
                U256::from(i),
            );
            m.insert(AccessKey::Balance(Address::from_index(i)), U256::from(i));
        }
        assert_eq!(m.len(), 512);
        for i in 0..256u64 {
            assert_eq!(
                m[&AccessKey::Storage(Address::from_index(i % 7), H256::from_low_u64(i))],
                U256::from(i)
            );
        }
    }

    #[test]
    fn hasher_is_deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"blockpilot");
        b.write(b"blockpilot");
        assert_eq!(a.finish(), b.finish());
        a.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    /// Distinct values of the low 16 bits of `finish()` over 65,536 keys.
    /// An ideal hash gives ≈ 41,400 (65,536 · (1 − 1/e)).
    fn low16_spread<K: std::hash::Hash>(key: impl Fn(u64) -> K) -> usize {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let seen: HashSet<u64> = (0..65_536u64)
            .map(|i| build.hash_one(key(i)) & 0xFFFF)
            .collect();
        seen.len()
    }

    #[test]
    fn low_bits_spread_for_big_endian_counter_keys() {
        // The raw multiply-rotate state leaves a handful of distinct low-16
        // patterns for each of these families: the counter sits in the high
        // bytes of the last little-endian word.
        assert!(low16_spread(Address::from_index) > 30_000);
        assert!(low16_spread(H256::from_low_u64) > 30_000);
        assert!(low16_spread(|i| AccessKey::Balance(Address::from_index(i))) > 30_000);
        assert!(
            low16_spread(|i| AccessKey::Storage(Address::from_index(7), H256::from_low_u64(i)))
                > 30_000
        );
    }

    #[test]
    fn partial_trailing_bytes_differ_from_padding() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Same padded word, but chunking is identical for both — the point
        // is only that short keys still produce a spread hash.
        let _ = (a.finish(), b.finish());
    }
}
