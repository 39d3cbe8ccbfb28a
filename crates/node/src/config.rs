//! Node-service configuration.

use std::path::PathBuf;

use blockpilot_core::PipelineConfig;
use bp_store::GroupCommitConfig;
use bp_types::Gas;
use bp_workload::WorkloadConfig;

/// How the proposer paces itself against the validators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeMode {
    /// The proposer chains height `N+1` on its own proposal post-state and
    /// starts packing immediately — proposing overlaps validation and
    /// persistence of earlier heights (the paper's Figure-1 overlap).
    Pipelined,
    /// The proposer waits for every validator to commit height `N` before
    /// packing `N+1` — the serial baseline the overlap is measured against.
    LockStep,
}

impl NodeMode {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NodeMode::Pipelined => "pipelined",
            NodeMode::LockStep => "lock_step",
        }
    }
}

/// Configuration for one node-service run.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Proposer pacing mode.
    pub mode: NodeMode,
    /// Number of heights to propose and commit.
    pub blocks: u64,
    /// Proposer worker threads.
    pub proposer_threads: usize,
    /// Block gas limit.
    pub gas_limit: Gas,
    /// Per-validator pipeline shape (workers, appliers, granularity).
    pub pipeline: PipelineConfig,
    /// Number of validator nodes fed through in-process wires.
    pub validators: usize,
    /// Injected per-link wire latency range in microseconds (empty range =
    /// no injection), drawn per link from a stream seeded by `seed`.
    pub latency_us: std::ops::Range<u64>,
    /// Seed for latency draws and for the order a racing source sends
    /// siblings in.
    pub seed: u64,
    /// Transaction workload feeding the pool.
    pub workload: WorkloadConfig,
    /// Pool admission cap — the ingest backpressure bound.
    pub pool_capacity: usize,
    /// The proposer waits until the pool holds at least this many
    /// transactions before packing a block (avoids near-empty blocks when
    /// ingest briefly lags).
    pub min_pool_txs: usize,
    /// When set, validator 0 persists its canonical chain to this store
    /// directory (crash-safe commit cadence under sustained load). A store
    /// that already holds a chain is resumed: the run proposes `blocks`
    /// heights above its head.
    pub store_dir: Option<PathBuf>,
    /// With a store attached, coalesce consecutive durable commits into one
    /// fsync batch (see [`GroupCommitConfig`]). The open batch is flushed on
    /// shutdown; a crash mid-batch rolls back to the last batch boundary.
    pub group_commit: Option<GroupCommitConfig>,
    /// Run the serial-replay equivalence gate after the loop finishes.
    pub check_equivalence: bool,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            mode: NodeMode::Pipelined,
            blocks: 20,
            proposer_threads: 2,
            gas_limit: 30_000_000,
            pipeline: PipelineConfig::default(),
            validators: 2,
            latency_us: 0..0,
            seed: 0xB10C_1207,
            workload: WorkloadConfig::default(),
            pool_capacity: 1024,
            min_pool_txs: 1,
            store_dir: None,
            group_commit: None,
            check_equivalence: true,
        }
    }
}
