//! 16-worker pipeline stress: every job of a block hands back its results
//! when it ends and the last one applies the block, so a pool twice as wide
//! as the block's parallelism hammering several in-flight blocks must still
//! deliver exactly the serial outcome for every block — and a tampered block's
//! early abort must cut its execution short without poisoning the valid
//! siblings sharing the pool. Nor may a block whose root is rejected after
//! its descendants were released onto its post-state: they fall with it, the
//! fork beside them stands, and nothing of the rejected subtree can be read
//! or committed.

use std::sync::Arc;

use blockpilot::concurrent::Crew;
use blockpilot::core::{
    ConflictGranularity, OccWsiConfig, OccWsiProposer, PipelineConfig, Proposal, ValidationError,
    Validator,
};
use blockpilot::state::WorldState;
use blockpilot::txpool::TxPool;
use blockpilot::types::BlockHash;
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

fn propose(
    gen: &mut WorkloadGen,
    base: &Arc<WorldState>,
    parent: BlockHash,
    height: u64,
    seed: u64,
) -> Proposal {
    let txs = gen.next_block_txs();
    let pool = TxPool::new();
    for tx in txs {
        pool.add(tx);
    }
    let engine = OccWsiProposer::new(OccWsiConfig {
        threads: 2,
        env: blockpilot::evm::BlockEnv {
            number: seed,
            ..gen.block_env(height)
        },
        ..OccWsiConfig::default()
    });
    engine.propose(&pool, Arc::clone(base), parent, height)
}

fn workload() -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        accounts: 150,
        tokens: 3,
        amm_pairs: 1,
        txs_per_block: 30,
        tx_jitter: 0,
        ..WorkloadConfig::default()
    })
}

fn wide_config() -> PipelineConfig {
    PipelineConfig {
        workers: 16,
        granularity: ConflictGranularity::Account,
    }
}

fn wide_validator(genesis: &WorldState) -> Validator {
    Validator::new(wide_config(), genesis.clone())
}

#[test]
fn sixteen_workers_replay_bursts_of_sibling_blocks() {
    // Three rounds of four same-height siblings, all submitted before any
    // verdict is read: 16 workers race over every block's subgraph jobs and
    // every job's report is merged under its block's lock. Each block must end on
    // its proposer's exact state root with all transactions executed.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = wide_validator(&base);
    let parent = validator.genesis_hash();
    for round in 0u64..3 {
        let proposals: Vec<Proposal> = (0..4)
            .map(|i| propose(&mut gen, &base, parent, 1, 1000 * (round + 1) + i))
            .collect();
        let handles: Vec<_> = proposals
            .iter()
            .map(|p| validator.receive_block(p.block.clone()))
            .collect();
        for (handle, proposal) in handles.into_iter().zip(&proposals) {
            let outcome = handle.wait();
            assert!(outcome.is_valid(), "{:?}", outcome.result);
            assert_eq!(outcome.executed_txs, proposal.block.transactions.len());
            assert!(!outcome.aborted_early);
            assert_eq!(
                outcome.post_state.expect("valid").state_root(),
                proposal.post_state.state_root()
            );
        }
    }
}

#[test]
fn sixteen_workers_abort_tampered_sibling_without_poisoning_the_rest() {
    // One sibling carries a lying profile entry; its replay must trip the
    // per-block cancellation (ProfileMismatch, aborted_early) while the
    // valid siblings sharing the same crew validate untouched.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = wide_validator(&base);
    let parent = validator.genesis_hash();

    let honest: Vec<Proposal> = (0..3)
        .map(|i| propose(&mut gen, &base, parent, 1, 2000 + i))
        .collect();
    let mut tampered = propose(&mut gen, &base, parent, 1, 2999).block;
    let victim = tampered.profile.len() / 2;
    let entry = &mut tampered.profile.entries[victim];
    let (key, value) = entry
        .writes
        .iter()
        .map(|(k, v)| (*k, *v))
        .next()
        .expect("transfer writes");
    entry
        .writes
        .insert(key, value + blockpilot::types::U256::ONE);

    let bad = validator.receive_block(tampered.clone());
    let handles: Vec<_> = honest
        .iter()
        .map(|p| validator.receive_block(p.block.clone()))
        .collect();

    let outcome = bad.wait();
    assert!(
        matches!(outcome.result, Err(ValidationError::ProfileMismatch { index }) if index == victim),
        "{:?}",
        outcome.result
    );
    assert!(outcome.aborted_early);
    assert!(outcome.executed_txs <= tampered.transactions.len());
    for (handle, proposal) in handles.into_iter().zip(&honest) {
        let outcome = handle.wait();
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(
            outcome.post_state.expect("valid").state_root(),
            proposal.post_state.state_root()
        );
    }
}

#[test]
fn sixteen_workers_reject_tampered_tx_root_with_zero_execution() {
    // A reordered transaction list breaks the header's tx_root commitment:
    // the preparation-phase check must reject the block before any of the
    // 16 workers executes a single transaction.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let validator = wide_validator(&base);
    let parent = validator.genesis_hash();

    let mut block = propose(&mut gen, &base, parent, 1, 3000).block;
    block.transactions.swap(0, 1);

    let outcome = validator.receive_block(block).wait();
    assert_eq!(outcome.result, Err(ValidationError::TxRootMismatch));
    assert_eq!(outcome.executed_txs, 0, "no transaction may execute");
    assert!(!outcome.aborted_early);
}

#[test]
fn one_worker_still_drains_sibling_burst() {
    // On a crew with no helper the one thread — the one waiting for the
    // verdicts — executes every job and applies every block it finishes;
    // correctness (exact outcomes, applied in block order) must not
    // depend on how many threads there are.
    let mut gen = workload();
    let base = Arc::new(gen.genesis_state());
    let config = PipelineConfig {
        workers: 1,
        ..wide_config()
    };
    let validator = Crew::new(0).install(|| Validator::new(config, WorldState::clone(&base)));
    let parent = validator.genesis_hash();

    let proposals: Vec<Proposal> = (0..5)
        .map(|i| propose(&mut gen, &base, parent, 1, 4000 + i))
        .collect();
    let handles: Vec<_> = proposals
        .iter()
        .map(|p| validator.receive_block(p.block.clone()))
        .collect();
    for (handle, proposal) in handles.into_iter().zip(&proposals) {
        let outcome = handle.wait();
        assert!(outcome.is_valid(), "{:?}", outcome.result);
        assert_eq!(outcome.executed_txs, proposal.block.transactions.len());
        assert_eq!(
            outcome.post_state.expect("valid").state_root(),
            proposal.post_state.state_root()
        );
    }
}

#[test]
fn sixteen_workers_unwind_a_rejected_root_under_its_descendants() {
    // Height N arrives twice: once with a wrong state root and three
    // descendants N+1..N+3 behind it, once honest with a child of its own.
    // All six are in flight together: the descendants are released onto the
    // bad block's post-state before its root is hashed, and must all fall
    // with it — while the honest fork, sharing the workers,
    // validates untouched.
    for round in 0u64..8 {
        let mut gen = workload();
        let genesis = gen.genesis_state();
        let validator = Validator::new(wide_config(), genesis.clone());
        let root = validator.genesis_hash();
        let base = Arc::new(genesis);

        let mut rejected = vec![propose(&mut gen, &base, root, 1, 5000 + round)];
        rejected[0].block.header.state_root = blockpilot::types::H256::from_low_u64(0xBAD);
        for height in 2..=4 {
            let parent = rejected.last().expect("the chain so far");
            let state = Arc::new(parent.post_state.clone());
            let child = propose(&mut gen, &state, parent.block.hash(), height, 0);
            rejected.push(child);
        }
        // The honest fork packs the same transactions from a generator of
        // its own (a generator hands out each sender's nonces once).
        let mut fork_gen = workload();
        let sibling = propose(&mut fork_gen, &base, root, 1, 6000 + round);
        let sibling_state = Arc::new(sibling.post_state.clone());
        let nephew = propose(&mut fork_gen, &sibling_state, sibling.block.hash(), 2, 0);

        // Children before parents on one fork, parents first on the other.
        let nephew_handle = validator.receive_block(nephew.block.clone());
        let rejected_handles: Vec<_> = rejected
            .iter()
            .map(|p| validator.receive_block(p.block.clone()))
            .collect();
        let sibling_handle = validator.receive_block(sibling.block.clone());

        let mut verdicts = rejected_handles.into_iter().map(|h| h.wait().result);
        assert_eq!(
            verdicts.next(),
            Some(Err(ValidationError::StateRootMismatch))
        );
        for verdict in verdicts {
            assert_eq!(
                verdict,
                Err(ValidationError::ParentInvalid),
                "round {round}"
            );
        }
        for (handle, proposal) in [(sibling_handle, &sibling), (nephew_handle, &nephew)] {
            let outcome = handle.wait();
            assert!(outcome.is_valid(), "round {round}: {:?}", outcome.result);
            assert_eq!(
                outcome.post_state.expect("valid").state_root(),
                proposal.post_state.state_root()
            );
        }

        // Nothing of the rejected subtree is observable or committable: not
        // the block that extends the head, not what ran on top of it.
        for p in &rejected {
            let hash = p.block.hash();
            assert!(validator.state_of(&hash).is_none());
            assert!(!validator.commit_canonical(hash), "round {round}");
        }
        assert!(validator.commit_canonical(sibling.block.hash()));
        assert!(validator.commit_canonical(nephew.block.hash()));
        assert_eq!(validator.head(), Some((nephew.block.hash(), 2)));
    }
}
