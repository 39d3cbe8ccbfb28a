//! Contract deployment through the full stack: a CREATE transaction is
//! packed by the OCC-WSI proposer, its code write travels in the block
//! profile, and the validator pipeline replays the deployment to the same
//! state root — then a second block calls the deployed contract.

use std::sync::Arc;

use blockpilot::core::{ConflictGranularity, OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::evm::{asm::Asm, contracts, create_address, opcode::Op, Transaction};
use blockpilot::state::WorldState;
use blockpilot::types::{AccessKey, Address, H256, U256};

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

/// Init code that deploys the counter contract.
fn counter_init() -> Vec<u8> {
    let runtime = contracts::counter();
    // Write the runtime code into memory byte by byte, then RETURN it.
    let mut asm = Asm::new();
    for (i, b) in runtime.iter().enumerate() {
        asm = asm.push_u64(*b as u64).push_u64(i as u64).op(Op::MStore8);
    }
    asm.push_u64(runtime.len() as u64)
        .push_u64(0)
        .op(Op::Return)
        .build()
}

#[test]
fn deployment_flows_through_proposer_and_validator() {
    let mut genesis = WorldState::new();
    for i in 1..=5 {
        genesis.set_balance(addr(i), U256::from(100_000_000u64));
    }
    let validator = Validator::new(
        PipelineConfig {
            workers: 2,
            granularity: ConflictGranularity::Account,
        },
        genesis.clone(),
    );

    // Block 1: deploy the counter (plus unrelated transfers to exercise
    // parallel lanes around the deployment).
    let proposer = Proposer::new(OccWsiConfig {
        threads: 2,
        ..OccWsiConfig::default()
    });
    proposer.submit_transaction(Transaction {
        sender: addr(1),
        to: None,
        value: U256::ZERO,
        nonce: 0,
        gas_limit: 2_000_000,
        gas_price: 10,
        data: counter_init(),
    });
    for i in 2..=4u64 {
        proposer.submit_transaction(Transaction::transfer(
            addr(i),
            addr(i + 10),
            U256::ONE,
            0,
            1,
        ));
    }
    let p1 = proposer.propose_block(Arc::new(genesis), validator.genesis_hash(), 1);
    assert_eq!(p1.block.tx_count(), 4);
    let deployed = create_address(&addr(1), 0);
    assert_eq!(*p1.post_state.code(&deployed), contracts::counter());
    // The profile carries the code write for conflict detection.
    let deploy_idx = p1
        .block
        .transactions
        .iter()
        .position(|t| t.to.is_none())
        .expect("deployment included");
    assert!(p1.block.profile.entries[deploy_idx]
        .writes
        .contains_key(&AccessKey::Code(deployed)));

    let o1 = validator.validate_and_commit(p1.block.clone());
    assert!(o1.is_valid(), "{:?}", o1.result);
    let s1 = o1.post_state.expect("valid");
    assert_eq!(*s1.code(&deployed), contracts::counter());

    // Block 2: call the freshly deployed contract.
    let proposer2 = Proposer::new(OccWsiConfig {
        threads: 2,
        ..OccWsiConfig::default()
    });
    proposer2.submit_transaction(Transaction {
        sender: addr(2),
        to: Some(deployed),
        value: U256::ZERO,
        nonce: 1,
        gas_limit: 200_000,
        gas_price: 1,
        data: vec![],
    });
    let p2 = proposer2.propose_block(Arc::clone(&s1), p1.block.hash(), 2);
    assert_eq!(p2.block.tx_count(), 1);
    assert_eq!(
        p2.post_state.storage(&deployed, &H256::from_low_u64(0)),
        U256::ONE,
        "the deployed counter must increment"
    );
    let o2 = validator.validate_and_commit(p2.block);
    assert!(o2.is_valid(), "{:?}", o2.result);
    assert_eq!(validator.head().expect("head").1, 2);
}
