//! Soak test: drive a long chain through a store-backed `Validator` with
//! group commit and check what the store leaves behind — one file, exactly
//! the bytes of the records appended to it, and a cold reopen that replays
//! to the same head and root.
//!
//! Usage: `cargo run --release --example soak_store`
//!
//! * `BP_SOAK_BLOCKS` — chain length to drive (default 2000);
//! * `BP_SOAK_DIR` — store directory (default: fresh temp dir, removed on
//!   success).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use blockpilot::block::encode_block;
use blockpilot::core::{OccWsiConfig, PipelineConfig, Proposer, Validator};
use blockpilot::store::log::{frame_len, COMMIT_LEN};
use blockpilot::store::{encode_world, GroupCommitConfig, StoreError};
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        workers: 2,
        ..Default::default()
    }
}

fn main() -> Result<(), StoreError> {
    let blocks = env_u64("BP_SOAK_BLOCKS", 2_000);
    let (dir, ephemeral): (PathBuf, bool) = match std::env::var("BP_SOAK_DIR") {
        Ok(d) => (PathBuf::from(d), false),
        Err(_) => (
            std::env::temp_dir().join(format!("bp-soak-{}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);

    let mut gen = WorkloadGen::new(WorkloadConfig {
        accounts: 300,
        txs_per_block: 24,
        tx_jitter: 4,
        ..WorkloadConfig::default()
    });
    let genesis = gen.genesis_state();
    let group = GroupCommitConfig {
        max_blocks: 8,
        ..GroupCommitConfig::default()
    };
    let validator = Validator::with_store_profile(pipeline(), genesis.clone(), &dir, group)?;
    let genesis_block = validator.canonical_block(0).expect("genesis block");

    // The log's expected length, record by record: the genesis state, the
    // genesis block and its marker, then every block and every marker that
    // closed a group.
    let mut expected = frame_len(encode_world(&genesis).len())
        + frame_len(encode_block(&genesis_block).len())
        + frame_len(COMMIT_LEN);
    let mut markers = 1u64;
    let pending = |v: &Validator| v.with_store_ref(|s| s.pending_commits()).unwrap();

    let started = Instant::now();
    let mut state = Arc::new(genesis.clone());
    for height in 1..=blocks {
        let proposer = Proposer::new(OccWsiConfig {
            threads: 2,
            env: gen.block_env(height),
            ..Default::default()
        });
        proposer.submit_transactions(gen.next_block_txs());
        let (parent, _) = validator.head().expect("a head");
        let proposal = proposer.propose_block(Arc::clone(&state), parent, height);
        expected += frame_len(encode_block(&proposal.block).len());
        let outcome = validator.validate_and_commit(proposal.block);
        assert!(outcome.is_valid(), "height {height}: {:?}", outcome.result);
        if pending(&validator) == 0 {
            markers += 1;
        }
        state = Arc::new(proposal.post_state);
    }
    let run_s = started.elapsed().as_secs_f64();
    if pending(&validator) > 0 {
        markers += 1; // the final flush closes the open group
    }
    expected += (markers - 1) * frame_len(COMMIT_LEN);
    let (head, root) = (validator.head(), validator.head_state_root());
    drop(validator.into_store());

    // One file, holding exactly the appended records.
    let files: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
    assert_eq!(files.len(), 1, "the store directory holds {files:?}");
    let len = files[0].metadata()?.len();
    assert_eq!(
        len, expected,
        "log holds {len} B, the appended records {expected} B"
    );

    // A cold reopen replays to the same head and root.
    let started = Instant::now();
    let reopened = Validator::with_store_profile(pipeline(), genesis, &dir, group)?;
    let reopen_s = started.elapsed().as_secs_f64();
    assert_eq!(reopened.head(), head);
    assert_eq!(reopened.head_state_root(), root);

    println!(
        "soak: {blocks} blocks in {run_s:.1} s | {markers} groups | log {len} B \
         ({} B/block) | cold reopen {reopen_s:.1} s",
        len / (blocks + 1)
    );
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("soak OK");
    Ok(())
}
