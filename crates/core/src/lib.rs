//! BlockPilot core: the paper's contribution.
//!
//! * [`occ_wsi`] — Algorithm 1: the proposer's optimistic parallel execution
//!   under write-snapshot isolation; the commit order becomes the block
//!   order and ships with a **block profile** of per-transaction read/write
//!   sets.
//! * [`scheduler`] — the validator's preparation phase: dependency graph →
//!   conflict subgraphs → gas-LPT lane assignment.
//! * [`pipeline`] — the validator's four-stage pipeline (preparation,
//!   transaction execution, block validation, block commitment) processing
//!   multiple blocks concurrently: same-height blocks overlap fully,
//!   cross-height blocks respect parent ordering.
//! * [`proposer`] / [`validator`] — node-level facades.

#![warn(missing_docs)]

pub mod occ_wsi;
pub mod pipeline;
pub mod proposer;
pub mod scheduler;
pub mod validator;

pub use occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal, ProposerStats};
pub use pipeline::{
    PipelineConfig, StageTimings, ValidationError, ValidationHandle, ValidationOutcome,
    ValidatorPipeline,
};
pub use proposer::Proposer;
pub use scheduler::{ConflictGranularity, Schedule, Scheduler, Subgraph};
pub use validator::Validator;
