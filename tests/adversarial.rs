//! Adversarial blocks: a Byzantine proposer tampers with the block after
//! honest execution; the validator pipeline must reject every variant
//! (§4.4: "validators will reject the block if they execute transactions
//! and receive an inconsistent result").

use std::sync::Arc;

use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Proposal, ValidationError,
    ValidatorPipeline,
};
use blockpilot::txpool::TxPool;
use blockpilot::types::{AccessKey, BlockHash, H256, U256};
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

fn honest_proposal() -> (Proposal, Arc<blockpilot::state::WorldState>, BlockHash) {
    let mut gen = WorkloadGen::new(WorkloadConfig {
        accounts: 100,
        txs_per_block: 25,
        tx_jitter: 0,
        ..WorkloadConfig::default()
    });
    let base = Arc::new(gen.genesis_state());
    let env = gen.block_env(1);
    let txs = gen.next_block_txs();
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx);
    }
    let proposer = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env,
        ..OccWsiConfig::default()
    });
    let parent = BlockHash::from_low_u64(1);
    let proposal = proposer.propose(&pool, Arc::clone(&base), parent, 1);
    (proposal, base, parent)
}

fn validate(
    block: blockpilot::block::Block,
    base: &Arc<blockpilot::state::WorldState>,
    parent: BlockHash,
) -> Result<(), ValidationError> {
    let pipeline = ValidatorPipeline::new(PipelineConfig {
        workers: 3,
        granularity: ConflictGranularity::Account,
    });
    pipeline.register_state(parent, Arc::clone(base));
    let outcome = pipeline.validate_block(block);
    outcome.result
}

#[test]
fn honest_block_is_accepted() {
    let (proposal, base, parent) = honest_proposal();
    assert_eq!(validate(proposal.block, &base, parent), Ok(()));
}

#[test]
fn forged_state_root_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    proposal.block.header.state_root = H256::from_low_u64(0xDEAD);
    assert_eq!(
        validate(proposal.block, &base, parent),
        Err(ValidationError::StateRootMismatch)
    );
}

#[test]
fn inflated_gas_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    proposal.block.header.gas_used -= 1;
    assert!(matches!(
        validate(proposal.block, &base, parent),
        Err(ValidationError::GasMismatch { .. })
    ));
}

#[test]
fn reordered_transactions_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    proposal.block.transactions.swap(0, 1);
    assert_eq!(
        validate(proposal.block, &base, parent),
        Err(ValidationError::TxRootMismatch)
    );
}

#[test]
fn lying_profile_write_value_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    let entry = &mut proposal.block.profile.entries[3];
    let key = *entry.writes.keys().next().expect("tx has writes");
    entry.writes.insert(key, U256::from(0xBAD_u64));
    assert_eq!(
        validate(proposal.block, &base, parent),
        Err(ValidationError::ProfileMismatch { index: 3 })
    );
}

#[test]
fn profile_with_phantom_read_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    // Claim tx 0 read a key it never touched: the replayed footprint has
    // fewer reads than profiled.
    proposal.block.profile.entries[0].reads.insert(
        AccessKey::Balance(blockpilot::types::Address::from_index(999_999)),
        0,
    );
    assert_eq!(
        validate(proposal.block, &base, parent),
        Err(ValidationError::ProfileMismatch { index: 0 })
    );
}

#[test]
fn smuggled_invalid_transaction_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
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
    let result = validate(proposal.block, &base, parent);
    assert!(
        matches!(result, Err(ValidationError::TxRejected { .. })),
        "{result:?}"
    );
}

#[test]
fn truncated_profile_rejected() {
    let (mut proposal, base, parent) = honest_proposal();
    proposal.block.profile.entries.pop();
    let result = validate(proposal.block, &base, parent);
    assert!(
        matches!(result, Err(ValidationError::ProfileMismatch { .. })),
        "{result:?}"
    );
}
