//! The Ethereum account: the RLP structure stored in the state trie.

use bp_crypto::rlp;
use bp_types::{H256, U256};

use crate::trie;

/// Hash of empty code: `keccak256("")`. A constant — every EOA's account
/// body and every [`Account::is_empty`] asks for it.
pub fn empty_code_hash() -> H256 {
    const EMPTY_CODE_HASH: H256 = H256([
        0xc5, 0xd2, 0x46, 0x01, 0x86, 0xf7, 0x23, 0x3c, 0x92, 0x7e, 0x7d, 0xb2, 0xdc, 0xc7, 0x03,
        0xc0, 0xe5, 0x00, 0xb6, 0x53, 0xca, 0x82, 0x27, 0x3b, 0x7b, 0xfa, 0xd8, 0x04, 0x5d, 0x85,
        0xa4, 0x70,
    ]);
    EMPTY_CODE_HASH
}

/// The four-field account body committed into the state trie:
/// `[nonce, balance, storage_root, code_hash]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Account {
    /// Transaction count for EOAs / creation count for contracts.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Root of the account's storage trie.
    pub storage_root: H256,
    /// Keccak hash of the account's code.
    pub code_hash: H256,
}

impl Default for Account {
    fn default() -> Self {
        Account {
            nonce: 0,
            balance: U256::ZERO,
            storage_root: trie::empty_root(),
            code_hash: empty_code_hash(),
        }
    }
}

impl Account {
    /// True iff the account is indistinguishable from a non-existent one
    /// (EIP-161 emptiness).
    pub fn is_empty(&self) -> bool {
        self.nonce == 0 && self.balance.is_zero() && self.code_hash == empty_code_hash()
    }

    /// RLP encoding as stored in the state trie, written once into a buffer
    /// of its exact size: every dirty account of a block is encoded here.
    pub fn rlp_encode(&self) -> Vec<u8> {
        let nonce = self.nonce.to_be_bytes();
        let nonce = &nonce[self.nonce.leading_zeros() as usize / 8..];
        let balance = self.balance.to_be_bytes();
        let balance = &balance[balance.iter().position(|&b| b != 0).unwrap_or(32)..];
        let item = |bytes: &[u8]| rlp::str_len(bytes.len(), bytes.first().copied().unwrap_or(0));
        let payload = item(nonce) + item(balance) + 2 * 33;
        let (header, header_len) = rlp::list_header(payload);
        let mut out = Vec::with_capacity(header_len + payload);
        out.extend_from_slice(&header[..header_len]);
        for field in [nonce, balance, &self.storage_root.0, &self.code_hash.0] {
            rlp::append_str(&mut out, field);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_crypto::keccak256;
    use bp_crypto::rlp::{DecodeError, RlpStream};

    /// Strict decoding of the trie representation.
    fn rlp_decode(data: &[u8]) -> Result<Account, DecodeError> {
        let mut l = rlp::decode_list(data)?;
        let account = Account {
            nonce: l.u64()?,
            balance: l.u256()?,
            storage_root: l.h256()?,
            code_hash: l.h256()?,
        };
        l.end()?;
        Ok(account)
    }

    #[test]
    fn default_is_empty() {
        let a = Account::default();
        assert!(a.is_empty());
        assert_eq!(a.storage_root, trie::empty_root());
        assert_eq!(a.code_hash, empty_code_hash());
    }

    #[test]
    fn empty_code_hash_matches_keccak_of_nothing() {
        assert_eq!(
            format!("{:?}", empty_code_hash()),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
        assert_eq!(empty_code_hash(), keccak256(&[]));
    }

    #[test]
    fn rlp_roundtrip() {
        let a = Account {
            nonce: 42,
            balance: U256::from(10u64).pow(U256::from(18u64)),
            storage_root: H256::from_low_u64(7),
            code_hash: H256::from_low_u64(8),
        };
        let enc = a.rlp_encode();
        assert_eq!(rlp_decode(&enc).unwrap(), a);
    }

    #[test]
    fn encoding_is_the_four_item_rlp_list() {
        // Scalars at every length boundary of the minimal big-endian form:
        // empty, one byte that is its own encoding, one that is not, long.
        let nonces = [0, 1, 0x7f, 0x80, 0xff, 0x100, u64::MAX];
        let balances = [
            U256::ZERO,
            U256::from(0x7fu64),
            U256::from(0x80u64),
            U256::from(u64::MAX),
            U256::MAX,
        ];
        for nonce in nonces {
            for balance in balances {
                let a = Account {
                    nonce,
                    balance,
                    storage_root: H256::from_low_u64(nonce),
                    code_hash: empty_code_hash(),
                };
                let mut s = RlpStream::new();
                s.begin_list(4);
                s.append_u64(a.nonce);
                s.append_u256(&a.balance);
                s.append_h256(&a.storage_root);
                s.append_h256(&a.code_hash);
                let enc = a.rlp_encode();
                assert_eq!(enc, s.out());
                assert_eq!(enc.capacity(), enc.len());
                assert_eq!(rlp_decode(&enc).unwrap(), a);
            }
        }
    }

    #[test]
    fn nonzero_fields_not_empty() {
        let a = Account {
            nonce: 1,
            ..Account::default()
        };
        assert!(!a.is_empty());
        let b = Account {
            balance: U256::ONE,
            ..Account::default()
        };
        assert!(!b.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(rlp_decode(&[0x80]).is_err());
        assert!(rlp_decode(b"not rlp at all").is_err());
        // A 3-element list is not an account.
        let mut s = RlpStream::new();
        s.begin_list(3);
        s.append_u64(1);
        s.append_u64(2);
        s.append_u64(3);
        assert!(rlp_decode(&s.out()).is_err());
    }
}
