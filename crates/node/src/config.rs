//! Node-service configuration.

use std::path::PathBuf;

use blockpilot_core::PipelineConfig;
use bp_store::GroupCommitConfig;
use bp_types::Gas;
use bp_workload::WorkloadConfig;

/// How the proposer paces itself against the validators. There is one way:
/// the type stays because the benchmark names its value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeMode {
    /// The proposer chains height `N+1` on its own proposal post-state and
    /// starts packing immediately — proposing overlaps validation and
    /// persistence of earlier heights (the paper's Figure-1 overlap).
    Pipelined,
}

/// Configuration for one node-service run. Beside each field, who sets it
/// other than a test: the `blockpilot node` CLI, or the benchmark's `node`
/// phase.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Proposer pacing (benchmark; one value).
    pub mode: NodeMode,
    /// Number of heights to propose and commit (CLI, benchmark).
    pub blocks: u64,
    /// Proposer worker threads (benchmark).
    pub proposer_threads: usize,
    /// Block gas limit (benchmark).
    pub gas_limit: Gas,
    /// Per-validator pipeline shape (benchmark).
    pub pipeline: PipelineConfig,
    /// Number of validator nodes fed through in-process wires (CLI,
    /// benchmark).
    pub validators: usize,
    /// Injected per-link wire latency range in microseconds, drawn per link
    /// from a seeded stream; an empty range injects none (benchmark).
    pub latency_us: std::ops::Range<u64>,
    /// Transaction workload feeding the pool (CLI, benchmark).
    pub workload: WorkloadConfig,
    /// When set, validator 0 persists its canonical chain to this store
    /// directory (crash-safe commit cadence under sustained load). A store
    /// that already holds a chain is resumed: the run proposes `blocks`
    /// heights above its head (CLI).
    pub store_dir: Option<PathBuf>,
    /// With a store attached, how consecutive durable commits coalesce into
    /// one fsync batch (see [`GroupCommitConfig`]; the default is a batch of
    /// one). The open batch is flushed on shutdown; a crash mid-batch rolls
    /// back to the last batch boundary (CLI, benchmark's replay store).
    pub group_commit: GroupCommitConfig,
    /// Run the serial-replay equivalence gate after the loop finishes
    /// (benchmark).
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
            workload: WorkloadConfig::default(),
            store_dir: None,
            group_commit: GroupCommitConfig::default(),
            check_equivalence: true,
        }
    }
}
