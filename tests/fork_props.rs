//! Property tests: forked chains through one validator, in random order.
//!
//! A validator folds each block into its published parent's heir, whose
//! first commit takes the parent's tries over once they settled. A block
//! that arrives after that — a sibling after its cousin's lineage took the
//! tries, a valid sibling after a child that took them was rejected, a
//! block received again — rebuilds what it needs from the heir's commit.
//! Each case builds a small tree of blocks (transfers, a counter contract's
//! storage, new accounts, tampered roots), submits it all at once in random
//! order or one block at a time in a random order that puts parents first,
//! and checks every verdict and root against serial replay and
//! `rebuild_root()`. On a crew with no helper, where every commit runs on
//! the test thread, optimized builds also count what the whole run hashes:
//! under a quarter of one from-scratch rebuild of the genesis, so no fork
//! ever fell back to one.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

use blockpilot::baseline::execute_block_serially;
use blockpilot::block::Block;
use blockpilot::concurrent::crew::Crew;
use blockpilot::core::{OccWsiConfig, OccWsiProposer, PipelineConfig, ValidationError, Validator};
use blockpilot::crypto::keccak::permutation_count;
use blockpilot::evm::{contracts, BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::{Address, Rng, H256, U256};
use bp_testkit::prelude::*;

/// Accounts in the genesis: enough that one from-scratch rebuild hashes
/// several times what a whole case's commits do.
const ACCOUNTS: u64 = 2_000;
/// Accounts that send, each with the balance for every case.
const SENDERS: u64 = 40;

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

fn counter() -> Address {
    addr(ACCOUNTS + 1)
}

/// The genesis every case starts from, committed once; and how many
/// permutations one from-scratch rebuild of it hashes.
static GENESIS: LazyLock<(WorldState, u64)> = LazyLock::new(|| {
    let mut w = WorldState::new();
    for i in 0..ACCOUNTS {
        w.set_balance(addr(i), U256::from(1_000_000_000u64 + i));
    }
    w.set_code(counter(), contracts::counter());
    w.state_root();
    let before = permutation_count();
    w.rebuild_root();
    let scratch = permutation_count() - before;
    (w, scratch)
});

/// One block of the tree, with what serial replay says of it.
struct Node {
    block: Block,
    /// The proposer's post-state: what this block's children are built on.
    state: Arc<WorldState>,
    /// The verdict serial replay gives, and the root of a valid block.
    expect: Result<H256, ValidationError>,
}

/// A tree of blocks off the genesis: up to three siblings a height, each on
/// a random block of the height below (so cousins share no parent), a
/// quarter of them carrying a wrong root.
fn tree(rng: &mut Rng) -> Vec<Node> {
    let genesis = Arc::new(GENESIS.0.clone());
    let genesis_hash = blockpilot::block::genesis_header(genesis.state_root()).hash();
    let mut nodes: Vec<Node> = Vec::new();
    let mut below: Vec<usize> = Vec::new();
    for height in 1..=rng.gen_range(2..=4u64) {
        let mut level = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            let parent = match below.is_empty() {
                true => None,
                false => Some(below[rng.gen_range(0..below.len())]),
            };
            let (state, parent_hash) = match parent {
                None => (Arc::clone(&genesis), genesis_hash),
                Some(p) => (Arc::clone(&nodes[p].state), nodes[p].block.hash()),
            };
            let env = BlockEnv {
                number: height,
                timestamp: nodes.len() as u64,
                ..BlockEnv::default()
            };
            let pool = TxPool::new();
            let mut sent: HashMap<Address, u64> = HashMap::new();
            for _ in 0..rng.gen_range(1..=10) {
                let sender = addr(rng.gen_range(0..SENDERS));
                let nonce = state.nonce(&sender) + *sent.entry(sender).or_default();
                *sent.get_mut(&sender).unwrap() += 1;
                let tx = match rng.gen_range(0..4) {
                    // The counter's one slot, rewritten by every lineage.
                    0 => Transaction {
                        to: Some(counter()),
                        gas_limit: 200_000,
                        ..Transaction::transfer(sender, counter(), U256::ZERO, nonce, 1)
                    },
                    // A new account, which a cousin's trie must not keep.
                    1 => {
                        let to = addr(ACCOUNTS + 100 + rng.gen_range(0..50));
                        Transaction::transfer(sender, to, U256::from(3u64), nonce, 2)
                    }
                    _ => {
                        let to = addr(rng.gen_range(0..ACCOUNTS));
                        Transaction::transfer(sender, to, U256::from(7u64), nonce, 1)
                    }
                };
                pool.add(tx);
            }
            let proposal = OccWsiProposer::new(OccWsiConfig {
                threads: 1,
                gas_limit: 30_000_000,
                env,
            })
            .propose(&pool, Arc::clone(&state), parent_hash, height);
            let mut block = proposal.block;
            let serial = execute_block_serially(&state, &env, &block.transactions)
                .expect("a sealed block replays serially")
                .post_state
                .state_root();
            assert_eq!(block.header.state_root, serial);
            let tampered = rng.gen_range(0..4) == 0;
            if tampered {
                block.header.state_root = H256::from_low_u64(0xBAD);
            }
            let expect = match parent.map(|p| &nodes[p].expect) {
                Some(Err(_)) => Err(ValidationError::ParentInvalid),
                _ if tampered => Err(ValidationError::StateRootMismatch),
                _ => Ok(serial),
            };
            level.push(nodes.len());
            nodes.push(Node {
                block,
                state: Arc::new(proposal.post_state),
                expect,
            });
        }
        below = level;
    }
    nodes
}

/// The order blocks are submitted in: all of them shuffled, some twice; or,
/// when `parents_first`, each after its parent.
fn order(nodes: &[Node], parents_first: bool, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.extend((0..nodes.len()).filter(|_| rng.gen_range(0..3) == 0));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    if parents_first {
        // A stable pass by height keeps the shuffle within each height.
        order.sort_by_key(|&i| nodes[i].block.height());
    }
    order
}

fn check(
    validator: &Validator,
    node: &Node,
    outcome: blockpilot::core::ValidationOutcome,
) -> Result<(), TestCaseError> {
    let height = node.block.height();
    prop_assert_eq!(outcome.result.clone(), node.expect.clone().map(|_| ()));
    if let Ok(root) = node.expect {
        let post = outcome.post_state.expect("a valid block's post-state");
        prop_assert_eq!(post.state_root(), root, "height {}", height);
        prop_assert_eq!(post.rebuild_root(), root, "height {}", height);
    }
    let published = validator.state_of(&node.block.hash());
    prop_assert_eq!(published.is_some(), node.expect.is_ok());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forked_chains_in_any_order_validate_to_the_serial_roots(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let nodes = tree(&mut rng);
        let parents_first = rng.gen_range(0..2) == 0;
        let no_helper = rng.gen_range(0..2) == 0;
        let order = order(&nodes, parents_first, &mut rng);
        let crew = match no_helper {
            true => Crew::new(0),
            false => Crew::global().clone(),
        };
        let validator = crew.install(|| {
            Validator::new(PipelineConfig::default(), GENESIS.0.clone())
        });
        let before = permutation_count();
        let outcomes = crew.install(|| match parents_first {
            // Each block decided before the next arrives: a sibling always
            // comes after its cousin's lineage took the tries.
            true => order
                .iter()
                .map(|&i| validator.receive_block(nodes[i].block.clone()).wait())
                .collect::<Vec<_>>(),
            false => {
                let handles: Vec<_> = order
                    .iter()
                    .map(|&i| validator.receive_block(nodes[i].block.clone()))
                    .collect();
                handles.into_iter().map(|h| h.wait()).collect()
            }
        });
        let hashed = permutation_count() - before;
        for (&i, outcome) in order.iter().zip(outcomes) {
            check(&validator, &nodes[i], outcome)?;
        }
        // Every valid state still answers its root, and its tries — taken
        // over by a child or not — rebuild to it.
        for node in nodes.iter().filter(|n| n.expect.is_ok()) {
            let state = validator.state_of(&node.block.hash()).expect("published");
            let root = node.expect.clone().unwrap();
            prop_assert_eq!(state.state_root(), root);
            prop_assert_eq!(state.commit_tries().0, root);
        }
        // Debug builds check every commit against a from-scratch rebuild,
        // which would drown the count.
        if no_helper && !cfg!(debug_assertions) {
            prop_assert!(4 * hashed < GENESIS.1, "{} permutations, a rebuild is {}", hashed, GENESIS.1);
        }
    }
}
