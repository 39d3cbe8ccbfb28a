//! The canonical-form rules of the block wire codec, one named case each:
//! byte strings the retained item-tree decoder (`wire::reference`) still
//! reads a block out of, but which are not what `encode_block` writes for
//! that block — and which the streaming `decode_block` therefore rejects.
//! (`tests/wire_differential.rs` at the workspace root shows that random
//! mutations separate the two decoders nowhere else.)

use std::sync::Arc;

use bp_block::wire::{decode_block, encode_block, reference};
use bp_block::{genesis_header, Block, BlockProfile, TxProfile};
use bp_crypto::keccak256;
use bp_crypto::rlp::reference::{self as rlp_ref, Item};
use bp_crypto::rlp::DecodeError;
use bp_evm::Transaction;
use bp_types::{AccessKey, Address, RwSet, H256, U256};

/// Two transactions, each profiled with two reads (`Balance`, `Nonce` of the
/// sender) and three writes (`Balance`, `Storage`, `Code`); each `Code`
/// write ships the transaction's data as its code.
fn sample_block() -> Block {
    let mut header = genesis_header(H256::from_low_u64(9));
    header.height = 3;
    header.gas_used = 63_000;
    let txs = vec![
        Transaction::transfer(
            Address::from_index(1),
            Address::from_index(2),
            U256::ONE,
            0,
            5,
        ),
        Transaction {
            sender: Address::from_index(3),
            to: None,
            value: U256::from(7u64),
            nonce: 2,
            gas_limit: 100_000,
            gas_price: 9,
            data: vec![0x60, 0x00, 0xF3],
        },
    ];
    let mut profile = BlockProfile::new();
    for tx in &txs {
        let mut rw = RwSet::new();
        rw.record_read(AccessKey::Balance(tx.sender), 0);
        rw.record_read(AccessKey::Nonce(tx.sender), 1);
        rw.record_write(AccessKey::Balance(tx.sender), U256::from(100u64));
        rw.record_write(
            AccessKey::Storage(Address::from_index(50), H256::from_low_u64(3)),
            U256::from(8u64),
        );
        // The deployment ships its code; the write's value is its hash.
        let code = Arc::new(tx.data.clone());
        let deployed = Address::from_index(51);
        rw.record_write(AccessKey::Code(deployed), keccak256(&code).to_u256());
        let mut entry = TxProfile::from_owned_rw(rw, Default::default(), 21_000);
        entry.code.insert(deployed, code);
        profile.push(entry);
    }
    Block {
        header,
        transactions: txs,
        profile,
    }
}

/// The sample block as the oracle's item tree, edited by `edit` and encoded
/// again: how the non-canonical spellings below are built.
fn respelled(edit: impl FnOnce(&mut Vec<Item>)) -> Vec<u8> {
    let Item::List(mut top) = rlp_ref::decode(&encode_block(&sample_block())).unwrap() else {
        panic!("a block is a list");
    };
    edit(&mut top);
    rlp_ref::encode_item(&Item::List(top))
}

fn items(list: &mut Item) -> &mut Vec<Item> {
    let Item::List(items) = list else {
        panic!("expected a list, found {list:?}");
    };
    items
}

/// The `[reads, writes, gas]` items of profile entry 0.
fn entry0(top: &mut [Item]) -> &mut Vec<Item> {
    items(&mut items(&mut top[2])[0])
}

/// What the tightenings have in common: the oracle still reads a block out
/// of `bytes`, whose own encoding is something else — and the streaming
/// decoder takes only that.
fn assert_only_the_reference_accepts(bytes: &[u8], what: &str) {
    let lax = reference::decode_block(bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let canonical = encode_block(&lax);
    assert_ne!(canonical, bytes, "{what}: spelling was canonical");
    assert_eq!(decode_block(&canonical).as_ref(), Ok(&lax), "{what}");
    assert!(decode_block(bytes).is_err(), "{what}: accepted");
}

#[test]
fn unsorted_footprint_is_rejected() {
    // Swap the two reads of entry 0 (Balance < Nonce in key order), then the
    // first two of its three writes.
    let bytes = respelled(|top| items(&mut entry0(top)[0]).swap(0, 1));
    assert_only_the_reference_accepts(&bytes, "unsorted reads");
    let bytes = respelled(|top| items(&mut entry0(top)[1]).swap(0, 1));
    assert_only_the_reference_accepts(&bytes, "unsorted writes");
}

#[test]
fn repeated_key_is_rejected() {
    // The same pair twice: a map insert would swallow the second.
    let bytes = respelled(|top| {
        let reads = items(&mut entry0(top)[0]);
        reads.insert(1, reads[0].clone());
    });
    assert_only_the_reference_accepts(&bytes, "repeated read");
    // The same key with two values: the map would keep the later.
    let bytes = respelled(|top| {
        let writes = items(&mut entry0(top)[1]);
        let mut again = writes[2].clone();
        items(&mut again)[1] = Item::Bytes(vec![0x2a]);
        writes.push(again);
    });
    assert_only_the_reference_accepts(&bytes, "rewritten write");
}

#[test]
fn unused_key_slot_must_be_empty() {
    // reads[0] is a Balance key: `[0, address, ""]`.
    for filler in [
        Item::Bytes(vec![0x00]),
        Item::Bytes(vec![7; 32]),
        Item::List(vec![]),
        Item::List(vec![Item::Bytes(vec![1])]),
    ] {
        let bytes = respelled(|top| {
            let pair = items(&mut items(&mut entry0(top)[0])[0]);
            let key = items(&mut pair[0]);
            assert_eq!(key[0], Item::Bytes(vec![]), "tag 0: Balance");
            key[2] = filler.clone();
        });
        assert_only_the_reference_accepts(&bytes, &format!("slot {filler:?}"));
    }
}

#[test]
fn empty_collection_is_the_marker_only() {
    // A zero-item list where the encoder writes `[""]`: the transaction
    // list, the profile, a footprint.
    let edits: [fn(&mut Vec<Item>); 3] = [
        |top| top[1] = Item::List(vec![]),
        |top| top[2] = Item::List(vec![]),
        |top| entry0(top)[0] = Item::List(vec![]),
    ];
    for (i, edit) in edits.into_iter().enumerate() {
        assert_only_the_reference_accepts(&respelled(edit), &format!("collection {i}"));
    }
    // The marker itself reads as empty, and only as a whole collection.
    let bytes = respelled(|top| top[1] = Item::List(vec![Item::Bytes(vec![])]));
    assert_eq!(decode_block(&bytes).unwrap().transactions, vec![]);
    let bytes = respelled(|top| items(&mut top[1]).push(Item::Bytes(vec![])));
    assert!(decode_block(&bytes).is_err());
    assert!(reference::decode_block(&bytes).is_err());
}

#[test]
fn oversized_element_count_is_refused_before_allocating() {
    // 60 000 one-byte "transactions": far more than their bytes could hold,
    // so the pre-count is refused rather than reserved for.
    let bytes = respelled(|top| top[1] = Item::List(vec![Item::List(vec![]); 60_000]));
    assert_eq!(decode_block(&bytes), Err(DecodeError::TypeMismatch));
    assert!(reference::decode_block(&bytes).is_err());
}
