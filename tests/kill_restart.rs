//! Whole-process crash: `blockpilot node` on a store with group commit is
//! killed with SIGKILL after a seeded delay, mid-run. Whatever it left on
//! disk must open to a durable head whose root is the serial replay of the
//! stored chain, and a second `node` run on the directory must resume at the
//! next height and end healthy.

use std::process::{Command, Stdio};
use std::time::Duration;

use blockpilot::core::{PipelineConfig, Validator};
use blockpilot::node::serial_replay_root;
use blockpilot::store::store::test_dir;
use blockpilot::store::GroupCommitConfig;
use blockpilot::types::Rng;
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

/// The workload `blockpilot node` runs, so the test opens the store on the
/// CLI's genesis.
fn cli_workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 300,
        txs_per_block: 48,
        tx_jitter: 8,
        ..WorkloadConfig::default()
    }
}

fn node(dir: &std::path::Path, blocks: u64) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_blockpilot"));
    cmd.arg("node")
        .arg("--store")
        .arg(dir)
        .args(["--group-commit", "4", "--blocks"])
        .arg(blocks.to_string());
    cmd
}

#[test]
fn a_sigkilled_node_reopens_on_its_durable_head_and_resumes() {
    let genesis = WorkloadGen::new(cli_workload()).genesis_state();
    for seed in 1..=5u64 {
        let dir = test_dir("kill-restart");
        let delay = Duration::from_millis(Rng::seed_from_u64(seed).gen_range(100..900u64));
        let mut child = node(&dir, 100_000)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn the node");
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL the node");
        child.wait().expect("reap the node");

        let reopened = Validator::with_store_profile(
            PipelineConfig::default(),
            genesis.clone(),
            &dir,
            GroupCommitConfig::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: the store does not reopen: {e}"));
        let (_, height) = reopened.head().expect("a head");
        let chain = reopened
            .with_store_ref(|store| store.canonical_chain())
            .expect("store-backed")
            .expect("the stored chain reads back");
        assert_eq!(chain.len() as u64, height + 1, "seed {seed}");
        assert_eq!(
            reopened.head_state_root(),
            Some(serial_replay_root(&genesis, &chain[1..])),
            "seed {seed}: recovered root differs from serial replay of the stored chain"
        );
        drop(reopened);

        let rerun = node(&dir, 2).output().expect("rerun the node");
        let stdout = String::from_utf8_lossy(&rerun.stdout);
        assert!(
            rerun.status.success(),
            "seed {seed}: rerun failed\n{stdout}"
        );
        let resumed = format!("heights {}..={} (2 blocks)", height + 1, height + 2);
        assert!(
            stdout.contains(&resumed),
            "seed {seed}: expected `{resumed}` after a kill at height {height}\n{stdout}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
