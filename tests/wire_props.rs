//! Property tests of the block wire codec: real proposed blocks survive the
//! RLP roundtrip bit-exactly (hash, transactions and profile) across workload
//! mixes; arbitrary blocks — empty collections, deployments, integers of
//! every width — decode back to themselves; and any byte string the decoder
//! accepts is the encoding of what it decoded to.

use std::sync::Arc;

use blockpilot::block::wire::reference;
use blockpilot::block::{decode_block, encode_block, Block, BlockHeader, BlockProfile, TxProfile};
use blockpilot::core::{OccWsiConfig, OccWsiProposer};
use blockpilot::crypto::keccak256;
use blockpilot::evm::Transaction;
use blockpilot::txpool::TxPool;
use blockpilot::types::{AccessKey, Address, BlockHash, H256, U256};
use blockpilot::workload::{TxMix, WorkloadConfig, WorkloadGen};
use bp_testkit::prelude::*;

fn arb_u64() -> impl Strategy<Value = u64> {
    // Every encoded width, the one-byte forms on both sides of 0x80 included.
    prop_oneof![
        Just(0u64),
        0u64..0x100,
        any::<u64>(),
        (0u32..64).prop_map(|s| 1u64 << s)
    ]
}

fn arb_u256() -> impl Strategy<Value = U256> {
    prop_oneof![
        arb_u64().prop_map(U256::from),
        any::<[u64; 4]>().prop_map(U256),
        (0u32..256).prop_map(|s| U256::ONE << s),
    ]
}

fn arb_h256() -> impl Strategy<Value = H256> {
    prop_oneof![
        (0u64..6).prop_map(H256::from_low_u64),
        any::<[u64; 4]>().prop_map(|w| H256(U256(w).to_be_bytes())),
    ]
}

fn arb_address() -> impl Strategy<Value = Address> {
    // A small space, so footprints share accounts across key kinds.
    (0u64..12).prop_map(Address::from_index)
}

fn arb_key() -> impl Strategy<Value = AccessKey> {
    prop_oneof![
        arb_address().prop_map(AccessKey::Balance),
        arb_address().prop_map(AccessKey::Nonce),
        (arb_address(), arb_h256()).prop_map(|(a, slot)| AccessKey::Storage(a, slot)),
        arb_address().prop_map(AccessKey::Code),
    ]
}

/// Call data or code: empty, one-byte strings on both sides of 0x80, and
/// strings past the 55-byte short form.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 1..3),
        prop::collection::vec(any::<u8>(), 50..70),
    ]
}

fn arb_tx() -> impl Strategy<Value = Transaction> {
    (
        arb_address(),
        prop::option::of(arb_address()),
        arb_u256(),
        arb_u64(),
        arb_u64(),
        arb_u64(),
        arb_bytes(),
    )
        .prop_map(
            |(sender, to, value, nonce, gas_limit, gas_price, data)| Transaction {
                sender,
                to,
                value,
                nonce,
                gas_limit,
                gas_price,
                data,
            },
        )
}

/// A profile entry whose `Code` writes are spelled as the wire spells
/// them: each ships its code, and its value is the code's hash.
fn arb_entry() -> impl Strategy<Value = TxProfile> {
    (
        prop::collection::vec((arb_key(), arb_u64()), 0..6),
        prop::collection::vec((arb_key(), arb_u256(), arb_bytes()), 0..6),
        arb_u64(),
    )
        .prop_map(|(reads, writes, gas_used)| {
            let mut entry = TxProfile {
                reads: reads.into_iter().collect(),
                gas_used,
                ..TxProfile::default()
            };
            for (key, value, code) in writes {
                let value = match key {
                    AccessKey::Code(addr) => {
                        let value = keccak256(&code).to_u256();
                        entry.code.insert(addr, Arc::new(code));
                        value
                    }
                    _ => value,
                };
                entry.writes.insert(key, value);
            }
            entry
        })
}

/// Any block the types can hold — the codec does not care whether the
/// profile fits the transactions or the header commits to either.
fn arb_block() -> impl Strategy<Value = Block> {
    let header = (
        (arb_h256(), arb_u64(), arb_h256(), arb_h256(), arb_h256()),
        (arb_u64(), arb_u64(), arb_address(), arb_u64(), arb_u64()),
    )
        .prop_map(|(hashes, rest)| BlockHeader {
            parent_hash: hashes.0,
            height: hashes.1,
            state_root: hashes.2,
            tx_root: hashes.3,
            receipts_root: hashes.4,
            gas_used: rest.0,
            gas_limit: rest.1,
            coinbase: rest.2,
            timestamp: rest.3,
            proposer_seed: rest.4,
        });
    (
        header,
        prop::collection::vec(arb_tx(), 0..5),
        prop::collection::vec(arb_entry(), 0..5),
    )
        .prop_map(|(header, transactions, entries)| Block {
            header,
            transactions,
            profile: BlockProfile { entries },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_of_encode_is_the_block(block in arb_block()) {
        let bytes = encode_block(&block);
        prop_assert_eq!(decode_block(&bytes), Ok(block.clone()));
        prop_assert_eq!(reference::decode_block(&bytes), Ok(block));
    }

    #[test]
    fn encode_of_decode_is_the_bytes(
        block in arb_block(),
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..4), 0..4),
    ) {
        // Overwrite, flip, insert or delete a few bytes of an encoding:
        // whatever the decoder still accepts, it accepted the one spelling
        // of that block, and the reference reads the same block out of it.
        let mut bytes = encode_block(&block);
        for (at, byte, kind) in edits {
            let at = at.index(bytes.len());
            match kind {
                0 => bytes[at] = byte,
                1 => bytes[at] ^= 1 << (byte % 8),
                2 => bytes.insert(at, byte),
                _ => { bytes.remove(at); }
            }
        }
        match decode_block(&bytes) {
            Ok(decoded) => {
                prop_assert_eq!(encode_block(&decoded), bytes.clone());
                prop_assert_eq!(reference::decode_block(&bytes), Ok(decoded));
            }
            // Everything the reference rejects is rejected; what it alone
            // accepts is a non-canonical spelling.
            Err(_) => if let Ok(lax) = reference::decode_block(&bytes) {
                prop_assert_ne!(encode_block(&lax), bytes);
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn proposed_blocks_roundtrip_on_the_wire(
        seed in any::<u64>(),
        transfer in 1u32..10,
        token in 0u32..10,
        amm in 0u32..5,
    ) {
        let mut gen = WorkloadGen::new(WorkloadConfig {
            seed,
            accounts: 80,
            txs_per_block: 20,
            tx_jitter: 4,
            mix: TxMix {
                transfer: transfer as f64,
                token: token as f64,
                amm: amm as f64,
                blind: 0.5,
                mint: 0.0,
            },
            ..WorkloadConfig::default()
        });
        let base = Arc::new(gen.genesis_state());
        let pool = TxPool::new();
        for tx in gen.next_block_txs() {
            pool.add(tx);
        }
        let proposer = OccWsiProposer::new(OccWsiConfig {
            threads: 2,
            env: gen.block_env(1),
            ..OccWsiConfig::default()
        });
        let block = proposer.propose(&pool, base, BlockHash::ZERO, 1).block;

        let bytes = encode_block(&block);
        let decoded = decode_block(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.hash(), block.hash());
        prop_assert_eq!(&decoded.transactions, &block.transactions);
        prop_assert_eq!(&decoded.profile, &block.profile);
        // Canonical: re-encoding reproduces identical bytes.
        prop_assert_eq!(encode_block(&decoded), bytes);
    }
}
