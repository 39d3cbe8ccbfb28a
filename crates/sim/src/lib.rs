//! Deterministic virtual-time executors.
//!
//! The evaluation machine for this reproduction has a single CPU core, so
//! the paper's wall-clock speedups cannot be observed physically. Gas is the
//! paper's own execution-time proxy (§4.3), and every speedup in its
//! evaluation is a property of the *schedule* the algorithms produce — which
//! threads run which transactions, who aborts, what serializes. This crate
//! replays those schedules in **gas-time**:
//!
//! * [`proposer`] — an event-driven simulation of Algorithm 1 on `k` virtual
//!   threads: real EVM executions against real multi-version snapshots, real
//!   WSI validation, virtual clocks (Figure 6);
//! * [`validator`] — the lane makespan of a real scheduler output plus an
//!   explicit overhead model (Figures 7(a), 7(b), 8);
//! * [`pipeline`] — list-scheduled multi-block execution over a shared
//!   worker pool with a serialized applier and context-switch costs
//!   (Figure 9).
//!
//! All three are exact, repeatable functions of their inputs, and what they
//! produce is *modeled*: every harness that prints it tags the line so.

#![warn(missing_docs)]

pub mod pipeline;
pub mod proposer;
pub mod validator;

pub use pipeline::{simulate_multiblock, MultiBlockSimResult};
pub use proposer::{
    simulate_proposer, simulate_proposer_with_rule, ProposerSimResult, ValidationRule,
};
pub use validator::{simulate_validator, ValidatorSimResult};

use bp_types::Gas;

/// Virtual-time cost model, in gas units.
///
/// The execution cost of a transaction is its gas (the paper's proxy); the
/// constants below model the framework's own overheads. They were calibrated
/// once against the paper's reported speedups and are documented in
/// DESIGN.md; the ablation benches sweep them.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per-execution worker overhead (dequeue, snapshot setup, result
    /// hand-off).
    pub per_tx_dispatch: Gas,
    /// Total commit-section cost per committed transaction in the OCC-WSI
    /// proposer (validation, version allocation, multi-version + reserve
    /// publication, block-body push). Only [`CostModel::commit_admit`] of it
    /// serializes through the commit resource; the remaining `commit_sync -
    /// commit_admit` (Phase B publication) runs on the committing thread's
    /// own clock.
    pub commit_sync: Gas,
    /// The serialized Phase A slice of [`CostModel::commit_sync`]: WSI
    /// read-set validation + gas admission + version allocation + reserve
    /// intents under the commit-sequence lock. Also the cost a *failed*
    /// validation occupies the commit resource for (aborts validate under
    /// the lock). Calibrated from the real proposer's measured admit-section
    /// share (DESIGN.md §7).
    pub commit_admit: Gas,
    /// Proposer-side state-access contention, in **per-mille of execution
    /// gas per additional concurrent worker**: with `t` workers every
    /// execution costs `gas × (1000 + state_contention_permille × (t-1)) /
    /// 1000`. Models the shared StateDB/trie-cache traffic that dominates
    /// geth under parallel execution; calibrated against the paper's
    /// proposer efficiency curve (91% at 2 threads down to ~31% at 16).
    pub state_contention_permille: u64,
    /// Validator preparation cost per transaction (dependency graph + lane
    /// assignment).
    pub prepare_per_tx: Gas,
    /// Applier cost per transaction (footprint check against the profile and
    /// in-order apply of the profiled writes).
    pub applier_per_tx: Gas,
    /// Penalty a worker pays when switching to a lane of a *different* block
    /// in the multi-block pipeline (context/state switch, §5.6).
    pub block_switch: Gas,
    /// Extra applier cost per transaction when consecutive results come from
    /// different blocks — with `B` in-flight blocks the applier interleaves
    /// result streams and pays this on a `(B-1)/B` fraction of
    /// transactions. This is the §5.6 "send out relevant information"
    /// cross-context cost that produces Figure 9's decline past 4 blocks.
    pub applier_switch: Gas,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_tx_dispatch: 2_200,
            commit_sync: 2_000,
            commit_admit: 300,
            state_contention_permille: 115,
            prepare_per_tx: 300,
            applier_per_tx: 1_600,
            block_switch: 30_000,
            applier_switch: 2_300,
        }
    }
}
