//! # BlockPilot
//!
//! A proposer-validator parallel execution framework for account-model
//! blockchains, reproducing Zhang et al., *"BlockPilot: A Proposer-Validator
//! Parallel Execution Framework for Blockchain"* (ICPP 2023).
//!
//! This facade crate re-exports the public API of every subsystem. See the
//! README for a tour and `examples/` for runnable programs.

#![forbid(unsafe_code)]

pub use blockpilot_core as core;
pub use bp_baseline as baseline;
pub use bp_block as block;
pub use bp_concurrent as concurrent;
pub use bp_crypto as crypto;
pub use bp_evm as evm;
pub use bp_node as node;
pub use bp_state as state;
pub use bp_store as store;
pub use bp_txpool as txpool;
pub use bp_types as types;
pub use bp_workload as workload;

pub use blockpilot_core::{
    occ_wsi::{OccWsiConfig, OccWsiProposer, ProposerStats},
    pipeline::PipelineConfig,
    proposer::Proposer,
    scheduler::{ConflictGranularity, Schedule, Scheduler},
    validator::Validator,
};
