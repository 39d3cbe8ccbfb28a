//! Property test: any sequence of `put_block` / `commit` / `flush` / reopen
//! operations, under any group size, round-trips — after a reopen the store
//! serves exactly the blocks of the last group boundary, byte-identical,
//! with that boundary's head.

use std::collections::HashSet;

use bp_block::{encode_block, genesis_header, Block, BlockProfile};
use bp_state::WorldState;
use bp_store::store::test_dir;
use bp_store::{GroupCommitConfig, Store};
use bp_testkit::prelude::*;
use bp_types::{Address, BlockHash, U256};

#[derive(Clone, Debug)]
enum Op {
    PutBlock(usize),
    Commit,
    Flush,
    Reopen,
}

const BLOCKS: usize = 6;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..BLOCKS).prop_map(Op::PutBlock),
        Just(Op::Commit),
        Just(Op::Flush),
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

/// What must be durable (resp. visible) at any point.
#[derive(Clone, Default)]
struct Model {
    blocks: HashSet<BlockHash>,
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
    assert_eq!(store.block_count(), durable.blocks.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn op_sequences_round_trip_through_reopen(
        group in 1..4usize,
        ops in prop::collection::vec(op_strategy(), 1..24),
    ) {
        let blocks = fixture_blocks();
        let dir = test_dir("props");
        let config = GroupCommitConfig { max_blocks: group };
        let mut store = Store::open_with(&dir, config).unwrap();
        let mut live = Model::default();
        let mut durable = Model::default();
        let mut pending = 0;

        for op in &ops {
            match op {
                Op::PutBlock(i) => {
                    store.put_block(&blocks[*i]).unwrap();
                    live.blocks.insert(blocks[*i].hash());
                    live.last_put = Some(blocks[*i].hash());
                }
                Op::Commit => {
                    if let Some(head) = live.last_put {
                        store.commit(head).unwrap();
                        live.head = Some(head);
                        pending += 1;
                        if pending == group {
                            durable = live.clone();
                            pending = 0;
                        }
                    }
                }
                Op::Flush => {
                    store.flush().unwrap();
                    if pending > 0 {
                        durable = live.clone();
                        pending = 0;
                    }
                }
                Op::Reopen => {
                    // A crash: the open group is neither flushed nor marked.
                    drop(store);
                    store = Store::open_with(&dir, config).unwrap();
                    check_matches_durable(&store, &durable, &blocks);
                    live = durable.clone();
                    live.last_put = None;
                    pending = 0;
                }
            }
            prop_assert_eq!(store.pending_commits(), pending);
        }

        drop(store);
        let store = Store::open_with(&dir, config).unwrap();
        check_matches_durable(&store, &durable, &blocks);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
