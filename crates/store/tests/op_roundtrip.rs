//! Property test: any sequence of `put_block` / `commit_root` / `prune` /
//! `commit` / reopen operations round-trips — after a reopen the store
//! serves exactly the durable blocks (byte-identical) and resolves exactly
//! the durable root multiset.

use std::collections::HashSet;

use bp_block::{encode_block, genesis_header, Block, BlockProfile};
use bp_state::{Trie, WorldState};
use bp_store::store::test_dir;
use bp_store::{Store, StoreError};
use bp_testkit::prelude::*;
use bp_types::{Address, BlockHash, H256, U256};

#[derive(Clone, Debug)]
enum Op {
    PutBlock(usize),
    CommitRoot(usize),
    Prune(usize),
    Commit,
    Reopen,
}

const BLOCKS: usize = 6;
const TRIES: usize = 4;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..BLOCKS).prop_map(Op::PutBlock),
        (0..TRIES).prop_map(Op::CommitRoot),
        (0..TRIES).prop_map(Op::Prune),
        Just(Op::Commit),
        Just(Op::Reopen),
    ]
}

fn fixture_blocks() -> Vec<Block> {
    let mut world = WorldState::new();
    for i in 1..=8u64 {
        world.set_balance(Address::from_index(i), U256::from(1_000_000u64));
    }
    let mut blocks = vec![Block {
        header: genesis_header(world.state_root()),
        transactions: vec![],
        profile: BlockProfile::new(),
    }];
    for seq in 1..BLOCKS as u64 {
        let parent = blocks.last().unwrap();
        world.set_balance(Address::from_index(900 + seq), U256::from(seq + 1));
        let mut header = genesis_header(world.state_root());
        header.parent_hash = parent.hash();
        header.height = parent.height() + 1;
        header.proposer_seed = seq;
        blocks.push(Block {
            header,
            transactions: vec![],
            profile: BlockProfile::new(),
        });
    }
    blocks
}

/// A trie's root and its `(hash, node)` pairs.
type TrieNodes = (H256, Vec<(H256, Vec<u8>)>);

fn fixture_tries() -> Vec<TrieNodes> {
    (0..TRIES as u8)
        .map(|i| {
            let mut t = Trie::new();
            for j in 0..(i as u64 + 2) * 4 {
                let key = format!("key-{i}-{j}");
                // Values are plain byte strings: they can never decode as an
                // account body, so the refcount walk stays in this trie.
                t.insert(key.as_bytes(), vec![0xAA, i, j as u8]);
            }
            t.commit_nodes()
        })
        .collect()
}

/// What must be durable (resp. visible) at any point.
#[derive(Clone, Default)]
struct Model {
    blocks: HashSet<BlockHash>,
    roots: Vec<H256>,
    head: Option<BlockHash>,
    last_put: Option<BlockHash>,
}

fn check_matches_durable(store: &Store, durable: &Model, all_blocks: &[Block]) {
    assert_eq!(store.head(), durable.head);
    for block in all_blocks {
        let hash = block.hash();
        assert_eq!(store.has_block(&hash), durable.blocks.contains(&hash));
        if durable.blocks.contains(&hash) {
            assert_eq!(
                store.get_block_raw(&hash).unwrap().as_deref(),
                Some(encode_block(block).as_slice()),
                "stored block must round-trip byte-identically"
            );
        }
    }
    let mut expect = durable.roots.clone();
    let mut got = store.roots().to_vec();
    expect.sort();
    got.sort();
    assert_eq!(got, expect, "retained root multiset");
    for root in got.iter().collect::<HashSet<_>>() {
        assert_eq!(store.open_trie(*root).unwrap().root_hash(), *root);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn op_sequences_round_trip_through_reopen(ops in prop::collection::vec(op_strategy(), 1..24)) {
        let blocks = fixture_blocks();
        let tries = fixture_tries();
        let dir = test_dir("props");
        let mut store = Store::open(&dir).unwrap();
        let mut live = Model::default();
        let mut durable = Model::default();

        for op in &ops {
            match op {
                Op::PutBlock(i) => {
                    store.put_block(&blocks[*i]).unwrap();
                    live.blocks.insert(blocks[*i].hash());
                    live.last_put = Some(blocks[*i].hash());
                }
                Op::CommitRoot(j) => {
                    let (root, nodes) = &tries[*j];
                    store.commit_root(*root, nodes).unwrap();
                    live.roots.push(*root);
                }
                Op::Prune(j) => {
                    let root = tries[*j].0;
                    match live.roots.iter().position(|r| *r == root) {
                        Some(pos) => {
                            store.prune(root).unwrap();
                            live.roots.remove(pos);
                        }
                        None => {
                            let err = store.prune(root).unwrap_err();
                            prop_assert!(matches!(err, StoreError::UnknownRoot(_)));
                        }
                    }
                }
                Op::Commit => {
                    if let Some(head) = live.last_put {
                        store.commit(head).unwrap();
                        live.head = Some(head);
                        durable = live.clone();
                    }
                }
                Op::Reopen => {
                    drop(store);
                    store = Store::open(&dir).unwrap();
                    check_matches_durable(&store, &durable, &blocks);
                    live = durable.clone();
                }
            }
        }

        drop(store);
        let store = Store::open(&dir).unwrap();
        check_matches_durable(&store, &durable, &blocks);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
