//! Differential mutation test of the wire decoder: the streaming
//! `decode_block` against the retained item-tree decoder
//! (`wire::reference::decode_block`) on 100 000+ seeded mutations of real
//! proposed blocks of the three benchmark workload shapes.
//!
//! The rule every mutated byte string is held to:
//!
//! * the streaming decoder accepts ⇒ the reference accepts, both read the
//!   same block, and that block re-encodes to exactly the mutated bytes;
//! * the reference rejects ⇒ the streaming decoder rejects;
//! * the streaming decoder rejects what the reference accepts only where
//!   the bytes are a non-canonical spelling — the reference's block encodes
//!   to something else (unsorted or repeated footprint keys, a filled unused
//!   key slot; `crates/block/tests/wire_canonical.rs` has the named cases) —
//!   and that canonical encoding then decodes, in both, to the reference's
//!   block.

use std::sync::Arc;

use blockpilot::block::wire::reference;
use blockpilot::block::{decode_block, encode_block, Block};
use blockpilot::core::{OccWsiConfig, OccWsiProposer};
use blockpilot::txpool::TxPool;
use blockpilot::types::{BlockHash, Rng};
use blockpilot::workload::{TxMix, WorkloadConfig, WorkloadGen};

/// The benchmark's three workloads (`benchmark/src/workloads.rs`), at a
/// third of the block size and a tenth of `wide_transfers`' accounts so the
/// suite stays in seconds; the shape of a block's bytes — which fields, how
/// wide the profiles — is what matters here.
fn shapes() -> [(&'static str, WorkloadConfig); 3] {
    let base = WorkloadConfig {
        txs_per_block: 44,
        tx_jitter: 8,
        ..WorkloadConfig::default()
    };
    let only = |transfer, token, amm| TxMix {
        transfer,
        token,
        amm,
        blind: 0.0,
        mint: 0.0,
    };
    [
        ("mainnet_mix", base.clone()),
        (
            "hot_amm",
            WorkloadConfig {
                mix: only(0.30 * 0.62, 0.30 * 0.38, 0.70),
                zipf_accounts: 1.20,
                ..base.clone()
            },
        ),
        (
            "wide_transfers",
            WorkloadConfig {
                accounts: 10_000,
                tokens: 1,
                mix: only(1.0, 0.0, 0.0),
                zipf_accounts: 0.0,
                ..base
            },
        ),
    ]
}

/// A chain of `blocks` proposed blocks of one workload.
fn propose_chain(config: WorkloadConfig, blocks: u64) -> Vec<Block> {
    let mut gen = WorkloadGen::new(config);
    let mut parent_state = Arc::new(gen.genesis_state());
    let mut parent_hash = BlockHash::ZERO;
    let pool = TxPool::new();
    (1..=blocks)
        .map(|height| {
            for tx in gen.next_block_txs() {
                pool.add(tx);
            }
            let proposal = OccWsiProposer::new(OccWsiConfig {
                threads: 2,
                env: gen.block_env(height),
                ..OccWsiConfig::default()
            })
            .propose(&pool, Arc::clone(&parent_state), parent_hash, height);
            parent_hash = proposal.block.hash();
            parent_state = Arc::new(proposal.post_state);
            proposal.block
        })
        .collect()
}

/// Bytes that mean something to an RLP reader: the edges of every prefix
/// range, small lengths, zero.
const LOADED: [u8; 16] = [
    0x00, 0x01, 0x7f, 0x80, 0x81, 0x94, 0xa0, 0xb7, 0xb8, 0xb9, 0xbf, 0xc0, 0xc1, 0xf7, 0xf8, 0xff,
];

/// Applies one random edit: bit flip, overwrite (random or loaded byte),
/// insert, delete, truncate, or a copy of one span over another.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    if bytes.is_empty() {
        bytes.push(rng.gen_range(..));
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..16) {
        0..=4 => bytes[at] ^= 1 << rng.gen_range(0..8),
        5..=6 => bytes[at] = rng.gen_range(..),
        7..=8 => bytes[at] = LOADED[rng.gen_range(0..LOADED.len())],
        9 => bytes.insert(at, rng.gen_range(..)),
        10 => bytes.insert(at, LOADED[rng.gen_range(0..LOADED.len())]),
        11..=12 => {
            bytes.remove(at);
        }
        13 => bytes.truncate(at),
        _ => {
            // Copy a span elsewhere: moves whole well-formed items around
            // (a key over its neighbour, a pair over the next).
            let len = rng.gen_range(1..=80.min(bytes.len() - at));
            let to = rng.gen_range(0..bytes.len() - len + 1);
            bytes.copy_within(at..at + len, to);
        }
    }
}

#[derive(Default, Debug)]
struct Tally {
    both_accept: usize,
    both_reject: usize,
    tightened: usize,
}

/// Holds one byte string to the rule in the module docs.
fn check(bytes: &[u8], tally: &mut Tally, what: &dyn Fn() -> String) {
    let streaming = decode_block(bytes);
    let oracle = reference::decode_block(bytes);
    match (streaming, oracle) {
        (Ok(block), oracle) => {
            assert_eq!(oracle.as_ref(), Ok(&block), "{}: blocks differ", what());
            assert_eq!(encode_block(&block), bytes, "{}: not canonical", what());
            tally.both_accept += 1;
        }
        (Err(_), Err(_)) => tally.both_reject += 1,
        (Err(e), Ok(lax)) => {
            let canonical = encode_block(&lax);
            assert_ne!(
                canonical,
                bytes,
                "{}: streaming rejected ({e}) a canonical encoding",
                what()
            );
            assert_eq!(decode_block(&canonical).as_ref(), Ok(&lax), "{}", what());
            assert_eq!(
                reference::decode_block(&canonical).as_ref(),
                Ok(&lax),
                "{}",
                what()
            );
            tally.tightened += 1;
        }
    }
}

#[test]
fn streaming_and_reference_decoders_agree_on_100k_mutations() {
    const BLOCKS_PER_SHAPE: u64 = 2;
    const MUTATIONS_PER_BLOCK: usize = 17_000; // × 6 blocks = 102 000
    let mut total = Tally::default();
    for (shape, (name, config)) in shapes().into_iter().enumerate() {
        let chain = propose_chain(config, BLOCKS_PER_SHAPE);
        for (b, block) in chain.iter().enumerate() {
            assert!(block.tx_count() >= 30, "{name}: a real block");
            let pristine = encode_block(block);
            let mut tally = Tally::default();
            check(&pristine, &mut tally, &|| format!("{name}/{b} pristine"));
            assert_eq!(tally.both_accept, 1);

            let mut rng = Rng::seed_from_u64(0xD1FF ^ ((shape as u64) << 32) ^ b as u64);
            let mut mutated = Vec::with_capacity(pristine.len() + 8);
            for m in 0..MUTATIONS_PER_BLOCK {
                mutated.clear();
                mutated.extend_from_slice(&pristine);
                // Mostly single edits (they reach deepest before the first
                // error); some stacked, so one edit can repair another.
                let edits = 1 + rng.gen_range(0..8usize).saturating_sub(5);
                for _ in 0..edits {
                    mutate(&mut mutated, &mut rng);
                }
                check(&mutated, &mut tally, &|| {
                    format!("{name}/{b} mutation {m} ({edits} edits)")
                });
            }
            println!("{name}/{b}: {} bytes, {tally:?}", pristine.len());
            // The run has to exercise all three outcomes to mean anything.
            assert!(tally.both_accept > 100, "{name}/{b}: {tally:?}");
            assert!(tally.both_reject > 1_000, "{name}/{b}: {tally:?}");
            total.both_accept += tally.both_accept;
            total.both_reject += tally.both_reject;
            total.tightened += tally.tightened;
        }
    }
    println!("total: {total:?}");
    assert!(total.both_accept + total.both_reject + total.tightened >= 100_000);
    assert!(
        total.tightened > 0,
        "no mutation hit a canonical-form tightening: {total:?}"
    );
}
