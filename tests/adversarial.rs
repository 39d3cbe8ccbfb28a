//! Adversarial blocks: a Byzantine proposer tampers with the block after
//! honest execution; the validator pipeline must reject every variant
//! (§4.4: "validators will reject the block if they execute transactions
//! and receive an inconsistent result").
//!
//! A block is published from its profile at preparation, before execution
//! confirms the profile: a lying profile is caught after its descendants
//! already run on what it claimed, and they must fall with it.

use std::sync::Arc;

use blockpilot::block::{decode_block, encode_block, genesis_header, Block};
use blockpilot::concurrent::Crew;
use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Proposal, ValidationError,
    Validator,
};
use blockpilot::crypto::keccak256;
use blockpilot::evm::{asm::Asm, contracts, create_address, opcode::Op, Transaction};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::{AccessKey, Address, BlockHash, H256, U256};
use blockpilot::workload::{WorkloadConfig, WorkloadGen};
use bp_testkit::within;

fn workload() -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        accounts: 100,
        txs_per_block: 25,
        tx_jitter: 0,
        ..WorkloadConfig::default()
    })
}

/// The next block of `gen`'s stream, proposed honestly on `base`.
fn propose(
    gen: &mut WorkloadGen,
    base: &Arc<WorldState>,
    parent: BlockHash,
    height: u64,
) -> Proposal {
    let pool = TxPool::new();
    for tx in gen.next_block_txs() {
        pool.add(tx);
    }
    let proposer = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env: gen.block_env(height),
        ..OccWsiConfig::default()
    });
    proposer.propose(&pool, Arc::clone(base), parent, height)
}

/// The hash of the genesis block a validator on `world` starts from.
fn genesis_of(world: &WorldState) -> BlockHash {
    genesis_header(world.state_root()).hash()
}

fn validator_on(world: &WorldState) -> Validator {
    let config = PipelineConfig {
        workers: 3,
        granularity: ConflictGranularity::Account,
    };
    Validator::new(config, world.clone())
}

/// An honest block at height 1 on the workload's genesis.
fn honest_proposal() -> (Proposal, Arc<WorldState>) {
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let proposal = propose(&mut gen, &base, genesis_of(&base), 1);
    (proposal, base)
}

/// A crew with no helper — every task runs on a thread waiting for a
/// verdict — and the process's crew.
fn crews() -> [Crew; 2] {
    [Crew::new(0), Crew::global().clone()]
}

fn validate(block: Block, base: &WorldState) -> Result<(), ValidationError> {
    validator_on(base).receive_block(block).wait().result
}

#[test]
fn honest_block_is_accepted() {
    let (proposal, base) = honest_proposal();
    assert_eq!(validate(proposal.block, &base), Ok(()));
}

#[test]
fn forged_state_root_rejected() {
    let (mut proposal, base) = honest_proposal();
    proposal.block.header.state_root = H256::from_low_u64(0xDEAD);
    assert_eq!(
        validate(proposal.block, &base),
        Err(ValidationError::StateRootMismatch)
    );
}

#[test]
fn inflated_gas_rejected() {
    let (mut proposal, base) = honest_proposal();
    proposal.block.header.gas_used -= 1;
    assert!(matches!(
        validate(proposal.block, &base),
        Err(ValidationError::GasMismatch { .. })
    ));
}

#[test]
fn reordered_transactions_rejected() {
    let (mut proposal, base) = honest_proposal();
    proposal.block.transactions.swap(0, 1);
    assert_eq!(
        validate(proposal.block, &base),
        Err(ValidationError::TxRootMismatch)
    );
}

#[test]
fn lying_profile_write_value_rejected() {
    let (mut proposal, base) = honest_proposal();
    let entry = &mut proposal.block.profile.entries[3];
    let key = *entry.writes.keys().next().expect("tx has writes");
    entry.writes.insert(key, U256::from(0xBAD_u64));
    assert_eq!(
        validate(proposal.block, &base),
        Err(ValidationError::ProfileMismatch { index: 3 })
    );
}

#[test]
fn profile_with_phantom_read_rejected() {
    let (mut proposal, base) = honest_proposal();
    // Claim tx 0 read a key it never touched: the replayed footprint has
    // fewer reads than profiled.
    proposal.block.profile.entries[0].reads.insert(
        AccessKey::Balance(blockpilot::types::Address::from_index(999_999)),
        0,
    );
    assert_eq!(
        validate(proposal.block, &base),
        Err(ValidationError::ProfileMismatch { index: 0 })
    );
}

#[test]
fn smuggled_invalid_transaction_rejected() {
    let (mut proposal, base) = honest_proposal();
    // Append a transaction from an unfunded account, patching the tx root
    // so only execution can catch it.
    let bad = blockpilot::evm::Transaction::transfer(
        blockpilot::types::Address::from_index(777_777),
        blockpilot::types::Address::from_index(1),
        U256::from(1u64),
        0,
        1,
    );
    proposal.block.transactions.push(bad);
    proposal
        .block
        .profile
        .entries
        .push(blockpilot::block::TxProfile::default());
    proposal.block.header.tx_root = blockpilot::block::tx_root(&proposal.block.transactions);
    let result = validate(proposal.block, &base);
    assert!(
        matches!(result, Err(ValidationError::TxRejected { .. })),
        "{result:?}"
    );
}

#[test]
fn truncated_profile_rejected() {
    let (mut proposal, base) = honest_proposal();
    proposal.block.profile.entries.pop();
    let result = validate(proposal.block, &base);
    assert!(
        matches!(result, Err(ValidationError::ProfileMismatch { .. })),
        "{result:?}"
    );
}

#[test]
fn profile_lying_only_in_one_entrys_gas_rejected() {
    let (mut proposal, base) = honest_proposal();
    // Every write set honest: only the gas tx 5 claims is off, and with it
    // the fee the validator folds into the coinbase at preparation.
    proposal.block.profile.entries[5].gas_used += 1;
    for crew in crews() {
        let (block, base) = (proposal.block.clone(), Arc::clone(&base));
        let result = within(move || crew.install(|| validate(block, &base)));
        assert_eq!(result, Err(ValidationError::ProfileMismatch { index: 5 }));
    }
}

#[test]
fn descendants_running_ahead_on_a_lying_profile_fall_with_it() {
    // An honest chain of four, then block 1's profile lies in one write
    // value. Blocks 2–4 are released onto the state block 1's profile
    // claims before its execution catches the lie.
    let mut gen = workload();
    let genesis = Arc::new(gen.genesis_state());
    let genesis_hash = genesis_of(&genesis);
    let mut chain = Vec::new();
    let (mut base, mut parent) = (Arc::clone(&genesis), genesis_hash);
    for height in 1..=4 {
        let proposal = propose(&mut gen, &base, parent, height);
        base = Arc::new(proposal.post_state.clone());
        parent = proposal.block.hash();
        chain.push(proposal.block);
    }
    let entry = &mut chain[0].profile.entries[3];
    let key = *entry.writes.keys().next().expect("tx has writes");
    entry.writes.insert(key, U256::from(0xBAD_u64));
    let chain = Arc::new(chain);
    for crew in crews() {
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let (crew, chain, genesis) = (crew.clone(), Arc::clone(&chain), Arc::clone(&genesis));
            within(move || {
                let validator = crew.install(|| validator_on(&genesis));
                let mut handles: Vec<_> = order
                    .iter()
                    .map(|&i| (i, validator.receive_block(chain[i].clone())))
                    .collect();
                handles.sort_by_key(|(i, _)| *i);
                for (i, handle) in handles {
                    let outcome = handle.wait();
                    let expected = match i {
                        0 => ValidationError::ProfileMismatch { index: 3 },
                        _ => ValidationError::ParentInvalid,
                    };
                    assert_eq!(outcome.result, Err(expected), "block {i}, {order:?}");
                    assert!(outcome.post_state.is_none());
                    // With no helper every block was in before any ran, so
                    // the descendants executed on the lying state.
                    if crew.helpers() == 0 {
                        assert!(outcome.executed_txs > 0, "block {i}, {order:?}");
                    }
                    for block in chain.iter() {
                        assert!(validator.state_of(&block.hash()).is_none(), "{order:?}");
                    }
                }
                // A late sibling of block 2 is turned away at the door.
                let mut late = chain[1].clone();
                late.header.proposer_seed ^= 1;
                let outcome = validator.receive_block(late).wait();
                assert_eq!(outcome.result, Err(ValidationError::ParentInvalid));
                assert_eq!(outcome.executed_txs, 0, "{order:?}");
            });
        }
    }
}

/// Init code that returns `runtime` as the code to deploy.
fn init_code(runtime: &[u8]) -> Vec<u8> {
    let mut asm = Asm::new();
    for (i, byte) in runtime.iter().enumerate() {
        asm = asm
            .push_u64(u64::from(*byte))
            .push_u64(i as u64)
            .op(Op::MStore8);
    }
    asm.push_u64(runtime.len() as u64)
        .push_u64(0)
        .op(Op::Return)
        .build()
}

/// Proposes `txs` on `base` as the block at `height` above `parent`.
fn propose_txs(
    txs: impl IntoIterator<Item = Transaction>,
    base: &Arc<WorldState>,
    parent: BlockHash,
    height: u64,
) -> Proposal {
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx);
    }
    let proposer = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        ..OccWsiConfig::default()
    });
    proposer.propose(&pool, Arc::clone(base), parent, height)
}

#[test]
fn a_deployment_whose_profile_ships_other_code_is_rejected_with_its_callers() {
    let sender = |i: u64| Address::from_index(i);
    let mut world = WorldState::new();
    for i in 1..=3 {
        world.set_balance(sender(i), U256::from(100_000_000u64));
    }
    let world = Arc::new(world);
    // Block 1 deploys the counter beside a transfer; block 2 calls it.
    let deploy = Transaction {
        sender: sender(1),
        to: None,
        value: U256::ZERO,
        nonce: 0,
        gas_limit: 2_000_000,
        gas_price: 10,
        data: init_code(&contracts::counter()),
    };
    let transfer = Transaction::transfer(sender(2), sender(3), U256::ONE, 0, 1);
    let p1 = propose_txs([deploy, transfer], &world, genesis_of(&world), 1);
    let contract = create_address(&sender(1), 0);
    let call = Transaction {
        gas_limit: 200_000,
        ..Transaction::transfer(sender(2), contract, U256::ZERO, 1, 1)
    };
    let s1 = Arc::new(p1.post_state.clone());
    let p2 = propose_txs([call], &s1, p1.block.hash(), 2);
    assert_eq!((p1.block.tx_count(), p2.block.tx_count()), (2, 1));
    // The lie: the deployment's entry ships code that only stops, its
    // write the hash of that code — a block that encodes and decodes to
    // itself, so nothing short of executing the CREATE tells.
    let index = p1
        .block
        .transactions
        .iter()
        .position(|tx| tx.to.is_none())
        .unwrap();
    let mut lying = p1.block.clone();
    let other = vec![Op::Stop as u8];
    let entry = &mut lying.profile.entries[index];
    entry
        .writes
        .insert(AccessKey::Code(contract), keccak256(&other).to_u256());
    entry.code.insert(contract, Arc::new(other));
    assert_eq!(decode_block(&encode_block(&lying)).as_ref(), Ok(&lying));
    for crew in crews() {
        for child_first in [false, true] {
            let (crew, lying, child, world) = (
                crew.clone(),
                lying.clone(),
                p2.block.clone(),
                Arc::clone(&world),
            );
            within(move || {
                let validator = crew.install(|| validator_on(&world));
                let (h1, h2) = match child_first {
                    false => {
                        let h1 = validator.receive_block(lying);
                        (h1, validator.receive_block(child))
                    }
                    true => {
                        let h2 = validator.receive_block(child);
                        (validator.receive_block(lying), h2)
                    }
                };
                assert_eq!(
                    h1.wait().result,
                    Err(ValidationError::ProfileMismatch { index })
                );
                assert_eq!(h2.wait().result, Err(ValidationError::ParentInvalid));
            });
        }
    }
}
