//! End-to-end §5.2 correctness: a seeded chain proposed by OCC-WSI, checked
//! against the serial oracle and the validator pipeline at every height —
//! MPT roots must agree everywhere.

use std::sync::Arc;

use blockpilot::baseline::execute_block_serially;
use blockpilot::core::{ConflictGranularity, OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

#[test]
fn proposer_serial_and_pipeline_roots_agree_along_a_chain() {
    let blocks = 4u64;
    let mut gen = WorkloadGen::new(WorkloadConfig {
        txs_per_block: 40,
        tx_jitter: 0,
        accounts: 150,
        ..WorkloadConfig::default()
    });
    let genesis = gen.genesis_state();
    let validator = Validator::new(
        PipelineConfig {
            workers: 3,
            granularity: ConflictGranularity::Account,
        },
        genesis.clone(),
    );
    let mut parent = validator.genesis_hash();
    let mut state = Arc::new(genesis);

    for height in 1..=blocks {
        let env = gen.block_env(height);
        let proposer = Proposer::new(OccWsiConfig {
            threads: 3,
            env,
            ..OccWsiConfig::default()
        });
        proposer.submit_transactions(gen.next_block_txs());
        let proposal = proposer.propose_block(Arc::clone(&state), parent, height);
        assert!(proposal.block.tx_count() > 0);

        // Serial oracle agrees with the proposer's sealed root.
        let serial = execute_block_serially(&state, &env, &proposal.block.transactions)
            .expect("proposed blocks replay serially");
        assert_eq!(
            serial.post_state.state_root(),
            proposal.block.header.state_root,
            "height {height}: serial oracle disagrees with proposer"
        );
        assert_eq!(serial.gas_used, proposal.block.header.gas_used);

        // The pipeline validator accepts and lands on the same root.
        let outcome = validator.validate_and_commit(proposal.block.clone());
        assert!(outcome.is_valid(), "height {height}: {:?}", outcome.result);
        assert_eq!(
            outcome.post_state.as_ref().expect("valid").state_root(),
            proposal.block.header.state_root,
            "height {height}: pipeline disagrees with proposer"
        );

        parent = proposal.block.hash();
        state = Arc::new(proposal.post_state);
    }
    assert_eq!(validator.head().expect("head").1, blocks);
}
