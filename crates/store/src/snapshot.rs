//! Checksummed world-state snapshots.
//!
//! Secure-MPT keys are keccak-hashed, so a flat [`WorldState`] cannot be
//! reconstructed from trie nodes alone; cold-start recovery instead replays
//! the canonical chain from the genesis state. This module encodes that
//! anchor state as a deterministic (address- and slot-sorted) RLP document
//! with a trailing keccak checksum.

use std::sync::Arc;

use bp_crypto::{keccak256, rlp, RlpStream};
use bp_state::{AccountState, WorldState};
use bp_types::{Address, H256, U256};

use crate::StoreError;

/// Serializes a world state: sorted account list, keccak checksum appended.
pub fn encode_world(world: &WorldState) -> Vec<u8> {
    let mut accounts: Vec<(&Address, _)> = world.accounts().collect();
    accounts.sort_by_key(|(addr, _)| **addr);
    let mut s = RlpStream::new();
    if accounts.is_empty() {
        s.begin_list(0);
    } else {
        s.begin_list(accounts.len());
        for (addr, acct) in accounts {
            let mut storage: Vec<(&H256, _)> = acct.storage.iter().collect();
            storage.sort_by_key(|(slot, _)| **slot);
            s.begin_list(5);
            s.append_address(addr);
            s.append_u64(acct.nonce);
            s.append_u256(&acct.balance);
            s.append_bytes(&acct.code);
            if storage.is_empty() {
                s.begin_list(0);
            } else {
                s.begin_list(storage.len());
                for (slot, value) in storage {
                    s.begin_list(2);
                    s.append_h256(slot);
                    s.append_u256(value);
                }
            }
        }
    }
    let mut out = s.out();
    let checksum = keccak256(&out);
    out.extend_from_slice(&checksum.0);
    out
}

/// Deserializes a snapshot written by [`encode_world`], verifying the
/// checksum and the canonical form: addresses strictly ascending, each
/// account's slots strictly ascending and none of them zero. Anything else
/// — a repeated account or slot among them — reads as corrupt, since no
/// snapshot this module writes holds it.
pub fn decode_world(bytes: &[u8]) -> Result<WorldState, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("world snapshot: {what}"));
    if bytes.len() < 32 {
        return Err(corrupt("shorter than its checksum"));
    }
    let (payload, checksum) = bytes.split_at(bytes.len() - 32);
    if keccak256(payload).0 != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut list = rlp::decode_list(payload).map_err(|_| corrupt("not a list"))?;
    let mut accounts: Vec<(Address, AccountState)> = Vec::new();
    while !list.is_empty() {
        let mut fields = list.list().map_err(|_| corrupt("account not a list"))?;
        let addr = fields.address().map_err(|_| corrupt("address"))?;
        if accounts.last().is_some_and(|(last, _)| *last >= addr) {
            return Err(corrupt("addresses not strictly ascending"));
        }
        let nonce = fields.u64().map_err(|_| corrupt("nonce"))?;
        let balance = fields.u256().map_err(|_| corrupt("balance"))?;
        let code = fields.bytes().map_err(|_| corrupt("code"))?;
        let mut slots = fields.list().map_err(|_| corrupt("storage"))?;
        fields.end().map_err(|_| corrupt("account field count"))?;
        let mut storage: Vec<(H256, U256)> = Vec::new();
        while !slots.is_empty() {
            let mut kv = slots.list().map_err(|_| corrupt("storage entry"))?;
            let slot = kv.h256().map_err(|_| corrupt("storage slot"))?;
            let value = kv.u256().map_err(|_| corrupt("storage value"))?;
            kv.end().map_err(|_| corrupt("storage entry arity"))?;
            if storage.last().is_some_and(|(last, _)| *last >= slot) {
                return Err(corrupt("slots not strictly ascending"));
            }
            if value.is_zero() {
                return Err(corrupt("zero storage value"));
            }
            storage.push((slot, value));
        }
        let account = AccountState {
            nonce,
            balance,
            storage: storage.into_iter().collect(),
            code: match code.is_empty() {
                true => Arc::default(),
                false => Arc::new(code.to_vec()),
            },
            // Computed from the code by the constructor.
            code_hash: U256::ZERO,
        };
        accounts.push((addr, account));
    }
    Ok(WorldState::from_accounts(accounts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> WorldState {
        let mut w = WorldState::new();
        for i in 0..25u64 {
            let a = Address::from_index(i);
            w.set_balance(a, U256::from(1_000 + i));
            w.set_nonce(a, i);
            if i % 4 == 0 {
                w.set_storage(a, H256::from_low_u64(i), U256::from(i + 1));
                w.set_storage(a, H256::from_low_u64(i + 9), U256::from(2 * i + 1));
            }
            if i % 7 == 0 {
                w.set_code(a, vec![0x60, i as u8]);
            }
        }
        w
    }

    #[test]
    fn roundtrip_preserves_state_root() {
        let w = fixture();
        let bytes = encode_world(&w);
        let decoded = decode_world(&bytes).unwrap();
        assert_eq!(decoded, w);
        assert_eq!(decoded.state_root(), w.state_root());
    }

    #[test]
    fn a_decoded_worlds_split_first_commit_gives_the_encoded_worlds_root() {
        use bp_state::world::{FAN_OUT_MIN, STORAGE_SPLIT_MIN};

        // Enough accounts for the first commit to fan out, and one storage
        // large enough to be built in sixteen groups of its own.
        let mut w = fixture();
        for i in 100..100 + FAN_OUT_MIN as u64 {
            w.set_balance(Address::from_index(i), U256::from(i));
        }
        let contract = Address::from_index(8);
        for s in 0..STORAGE_SPLIT_MIN as u64 + 100 {
            w.set_storage(contract, H256::from_low_u64(s), U256::from(s + 1));
        }
        let decoded = decode_world(&encode_world(&w)).unwrap();
        assert_eq!(decoded.state_root(), w.state_root());
        assert_eq!(decoded.state_root(), w.rebuild_root());
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_world(&fixture()), encode_world(&fixture()));
    }

    #[test]
    fn tampered_snapshot_rejected() {
        let mut bytes = encode_world(&fixture());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(decode_world(&bytes), Err(StoreError::Corrupt(_))));
    }

    /// An account as [`raw_snapshot`] writes it: address index, balance,
    /// and its slots and values.
    type RawAccount<'a> = (u64, u64, &'a [(u64, u64)]);

    /// A snapshot of `accounts`, written in the order given, under a valid
    /// checksum.
    fn raw_snapshot(accounts: &[RawAccount]) -> Vec<u8> {
        let mut s = RlpStream::new();
        s.begin_list(accounts.len());
        for &(addr, balance, slots) in accounts {
            s.begin_list(5);
            s.append_address(&Address::from_index(addr));
            s.append_u64(0);
            s.append_u256(&U256::from(balance));
            s.append_bytes(&[]);
            s.begin_list(slots.len());
            for &(slot, value) in slots {
                s.begin_list(2);
                s.append_h256(&H256::from_low_u64(slot));
                s.append_u256(&U256::from(value));
            }
        }
        let mut out = s.out();
        let checksum = keccak256(&out);
        out.extend_from_slice(&checksum.0);
        out
    }

    fn corrupt_because(bytes: &[u8]) -> String {
        match decode_world(bytes) {
            Err(StoreError::Corrupt(why)) => why,
            other => panic!("read as {other:?}"),
        }
    }

    #[test]
    fn a_canonical_raw_snapshot_decodes() {
        let bytes = raw_snapshot(&[(1, 5, &[(1, 1), (2, 2)]), (2, 6, &[])]);
        let w = decode_world(&bytes).unwrap();
        assert_eq!(
            w.storage(&Address::from_index(1), &H256::from_low_u64(2)),
            U256::from(2u64)
        );
        assert_eq!(w.balance(&Address::from_index(2)), U256::from(6u64));
        assert_eq!(encode_world(&w), bytes);
    }

    #[test]
    fn a_repeated_account_is_corrupt() {
        let bytes = raw_snapshot(&[(1, 5, &[]), (2, 6, &[]), (2, 7, &[])]);
        assert!(corrupt_because(&bytes).contains("addresses not strictly ascending"));
    }

    #[test]
    fn descending_addresses_are_corrupt() {
        let bytes = raw_snapshot(&[(2, 5, &[]), (1, 6, &[])]);
        assert!(corrupt_because(&bytes).contains("addresses not strictly ascending"));
    }

    #[test]
    fn a_repeated_slot_is_corrupt() {
        let bytes = raw_snapshot(&[(1, 5, &[(1, 1), (3, 2), (3, 4)])]);
        assert!(corrupt_because(&bytes).contains("slots not strictly ascending"));
        let bytes = raw_snapshot(&[(1, 5, &[(3, 1), (1, 2)])]);
        assert!(corrupt_because(&bytes).contains("slots not strictly ascending"));
    }

    #[test]
    fn a_zero_slot_is_corrupt() {
        let bytes = raw_snapshot(&[(1, 5, &[(1, 0)])]);
        assert!(corrupt_because(&bytes).contains("zero storage value"));
    }

    #[test]
    fn empty_world_roundtrips() {
        let w = WorldState::new();
        let decoded = decode_world(&encode_world(&w)).unwrap();
        assert_eq!(decoded, w);
    }
}
