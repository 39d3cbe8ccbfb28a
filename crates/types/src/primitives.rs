//! Fixed-size hashes, addresses and consensus-level newtypes.

use core::fmt;

use crate::U256;

/// A 256-bit hash (Keccak-256 output, MPT node reference, storage slot key).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero hash.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// Builds a slot key from a small integer (big-endian), a convenience for
    /// contract storage layouts.
    pub fn from_low_u64(v: u64) -> Self {
        let mut out = [0u8; 32];
        out[24..].copy_from_slice(&v.to_be_bytes());
        H256(out)
    }

    /// Interprets the hash as a big-endian 256-bit integer.
    pub fn to_u256(&self) -> U256 {
        U256::from_be_bytes(self.0)
    }

    /// Builds a hash from the big-endian encoding of `v`.
    pub fn from_u256(v: U256) -> Self {
        H256(v.to_be_bytes())
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for H256 {
    fn from(b: [u8; 32]) -> Self {
        H256(b)
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A 160-bit account address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (used as the contract-creation sentinel in
    /// transactions with no recipient).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Deterministic test/workload address derived from an index.
    pub fn from_index(i: u64) -> Self {
        let mut out = [0u8; 20];
        out[12..].copy_from_slice(&i.to_be_bytes());
        out[0] = 0xEE; // visually distinguish synthetic addresses
        Address(out)
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// True iff this is [`Address::ZERO`].
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 20]
    }
}

impl From<[u8; 20]> for Address {
    fn from(b: [u8; 20]) -> Self {
        Address(b)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Gas amount. Plain `u64` alias: gas never exceeds block limits in practice
/// and arithmetic on it is pervasive and hot.
pub type Gas = u64;

/// Account nonce.
pub type Nonce = u64;

/// Block height.
pub type Height = u64;

/// Transaction hash.
pub type TxHash = H256;

/// Block hash.
pub type BlockHash = H256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h256_u256_roundtrip() {
        let v = U256([7, 11, 13, 17]);
        assert_eq!(H256::from_u256(v).to_u256(), v);
    }

    #[test]
    fn h256_from_low_u64_is_big_endian() {
        let h = H256::from_low_u64(0x01020304);
        assert_eq!(h.0[31], 0x04);
        assert_eq!(h.0[28], 0x01);
        assert_eq!(h.0[0], 0);
    }

    #[test]
    fn address_from_index_distinct() {
        assert_ne!(Address::from_index(1), Address::from_index(2));
        assert!(!Address::from_index(0).is_zero());
        assert!(Address::ZERO.is_zero());
    }

    #[test]
    fn display_hex() {
        let h = H256::from_low_u64(0xff);
        assert!(h.to_string().starts_with("0x0000"));
        assert!(h.to_string().ends_with("ff"));
        let a = Address::from_index(3);
        assert_eq!(a.to_string().len(), 42);
    }
}
