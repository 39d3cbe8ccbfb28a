//! Fork handling and cross-height ordering through the public API: multiple
//! blocks per height validate concurrently; children wait for parents; the
//! validator keeps every sibling's state and one canonical chain.

use std::sync::Arc;

use blockpilot::core::{OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::evm::{BlockEnv, Transaction};
use blockpilot::state::WorldState;
use blockpilot::types::{Address, U256};

fn funded(n: u64) -> WorldState {
    let mut w = WorldState::new();
    for i in 1..=n {
        w.set_balance(Address::from_index(i), U256::from(10_000_000u64));
    }
    w
}

fn proposer_with_transfers(senders: std::ops::Range<u64>, nonce: u64, seed: u64) -> Proposer {
    let p = Proposer::new(OccWsiConfig {
        threads: 2,
        env: BlockEnv {
            number: seed,
            ..BlockEnv::default()
        },
        ..OccWsiConfig::default()
    });
    for i in senders {
        p.submit_transaction(Transaction::transfer(
            Address::from_index(i),
            Address::from_index(i + 300),
            U256::from(9u64),
            nonce,
            i,
        ));
    }
    p
}

#[test]
fn competing_blocks_validate_and_one_becomes_canonical() {
    let genesis = funded(30);
    let validator = Validator::new(PipelineConfig::default(), genesis.clone());
    let base = Arc::new(genesis);

    let a = proposer_with_transfers(1..10, 0, 1)
        .propose_block(Arc::clone(&base), validator.genesis_hash(), 1)
        .block;
    let b = proposer_with_transfers(10..20, 0, 2)
        .propose_block(Arc::clone(&base), validator.genesis_hash(), 1)
        .block;
    assert_ne!(a.hash(), b.hash());

    let (a_hash, b_hash) = (a.hash(), b.hash());
    let ha = validator.receive_block(a);
    let hb = validator.receive_block(b);
    assert!(ha.wait().is_valid());
    assert!(hb.wait().is_valid());

    assert!(validator.commit_canonical(a_hash));
    assert_eq!(validator.head(), Some((a_hash, 1)));
    // Both siblings keep their state; the one not canonical is the uncle.
    assert!(validator.state_of(&a_hash).is_some() && validator.state_of(&b_hash).is_some());
    assert_eq!(validator.canonical_at(1), Some(a_hash));
}

#[test]
fn chain_extends_across_heights_with_out_of_order_arrival() {
    let genesis = funded(10);
    let validator = Validator::new(PipelineConfig::default(), genesis.clone());
    let base = Arc::new(genesis);

    let p1 = proposer_with_transfers(1..6, 0, 1).propose_block(
        Arc::clone(&base),
        validator.genesis_hash(),
        1,
    );
    let s1 = Arc::new(p1.post_state.clone());
    let p2 = proposer_with_transfers(1..6, 1, 1).propose_block(s1, p1.block.hash(), 2);

    // Child arrives before parent: it must park, then validate once the
    // parent clears block validation.
    let h2 = validator.receive_block(p2.block.clone());
    let h1 = validator.receive_block(p1.block.clone());
    assert!(h1.wait().is_valid());
    let o2 = h2.wait();
    assert!(o2.is_valid(), "{:?}", o2.result);
    assert_eq!(
        o2.post_state.expect("valid").state_root(),
        p2.block.header.state_root
    );
}

#[test]
fn descendant_of_tampered_block_is_rejected() {
    let genesis = funded(10);
    let validator = Validator::new(PipelineConfig::default(), genesis.clone());
    let base = Arc::new(genesis);

    let mut p1 = proposer_with_transfers(1..6, 0, 1).propose_block(
        Arc::clone(&base),
        validator.genesis_hash(),
        1,
    );
    p1.block.header.state_root = blockpilot::types::H256::from_low_u64(0xBAD);
    let s1 = Arc::new(p1.post_state.clone());
    let p2 = proposer_with_transfers(1..6, 1, 1).propose_block(s1, p1.block.hash(), 2);

    let h2 = validator.receive_block(p2.block);
    let h1 = validator.receive_block(p1.block);
    assert!(!h1.wait().is_valid());
    assert_eq!(
        h2.wait().result,
        Err(blockpilot::core::ValidationError::ParentInvalid)
    );
}

#[test]
fn empty_blocks_flow_through_the_whole_stack() {
    let genesis = funded(3);
    let validator = Validator::new(PipelineConfig::default(), genesis.clone());
    let base = Arc::new(genesis);
    let p = Proposer::new(OccWsiConfig::default());
    let proposal = p.propose_block(base, validator.genesis_hash(), 1);
    assert_eq!(proposal.block.tx_count(), 0);
    let outcome = validator.validate_and_commit(proposal.block);
    assert!(outcome.is_valid());
    assert_eq!(validator.head().expect("head").1, 1);
}
