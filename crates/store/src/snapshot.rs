//! Checksummed world-state snapshots.
//!
//! Secure-MPT keys are keccak-hashed, so a flat [`WorldState`] cannot be
//! reconstructed from trie nodes alone; cold-start recovery instead replays
//! the canonical chain from the genesis state. This module encodes that
//! anchor state as a deterministic (address- and slot-sorted) RLP document
//! with a trailing keccak checksum.

use bp_crypto::{keccak256, rlp, RlpStream};
use bp_state::WorldState;
use bp_types::{Address, H256};

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
/// checksum.
pub fn decode_world(bytes: &[u8]) -> Result<WorldState, StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("world snapshot: {what}"));
    if bytes.len() < 32 {
        return Err(corrupt("shorter than its checksum"));
    }
    let (payload, checksum) = bytes.split_at(bytes.len() - 32);
    if keccak256(payload).0 != checksum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut accounts = rlp::decode_list(payload).map_err(|_| corrupt("not a list"))?;
    let mut world = WorldState::new();
    while !accounts.is_empty() {
        let mut fields = accounts.list().map_err(|_| corrupt("account not a list"))?;
        let addr = fields.address().map_err(|_| corrupt("address"))?;
        world.set_nonce(addr, fields.u64().map_err(|_| corrupt("nonce"))?);
        world.set_balance(addr, fields.u256().map_err(|_| corrupt("balance"))?);
        let code = fields.bytes().map_err(|_| corrupt("code"))?;
        if !code.is_empty() {
            world.set_code(addr, code.to_vec());
        }
        let mut slots = fields.list().map_err(|_| corrupt("storage"))?;
        fields.end().map_err(|_| corrupt("account field count"))?;
        while !slots.is_empty() {
            let mut kv = slots.list().map_err(|_| corrupt("storage entry"))?;
            let slot = kv.h256().map_err(|_| corrupt("storage slot"))?;
            let value = kv.u256().map_err(|_| corrupt("storage value"))?;
            kv.end().map_err(|_| corrupt("storage entry arity"))?;
            world.set_storage(addr, slot, value);
        }
    }
    Ok(world)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::U256;

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

    #[test]
    fn empty_world_roundtrips() {
        let w = WorldState::new();
        let decoded = decode_world(&encode_world(&w)).unwrap();
        assert_eq!(decoded, w);
    }
}
