//! # bp-node — the full-loop BlockPilot node service
//!
//! Every other crate benchmarks one stage in isolation; this crate wires
//! them into the long-running service the paper actually describes: a
//! transaction feed filling a capacity-bounded [`bp_txpool::TxPool`], a
//! proposer ([`blockpilot_core::OccWsiProposer`]) packing blocks against its
//! own chain of post-states, a dedicated wire codec stage, and `K`
//! validator nodes — each a full
//! [`blockpilot_core::Validator`] with its four-stage pipeline, the first
//! optionally backed by a persistent [`bp_store::Store`] — all connected by
//! **bounded channels** so backpressure propagates stage to stage instead
//! of queues growing without bound.
//!
//! The point of the assembly is the paper's Figure-1 overlap in wall-clock:
//! in [`NodeMode::Pipelined`] the proposer packs height `N+1` while the
//! wire, validation and persistence of height `N` are still in flight;
//! [`NodeMode::LockStep`] is the serial baseline where the proposer waits
//! for every validator's commit. [`run_node`] reports per-stage occupancy,
//! stall shares and queue depths ([`StageStats`]) plus sustained
//! committed-tx/s, and can gate the run on a serial replay of the committed
//! chain ([`serial_replay_root`]) so the overlap can never silently
//! diverge from serial semantics.

#![warn(missing_docs)]

mod config;
mod service;
mod stats;

pub use config::{NodeConfig, NodeMode};
pub use service::{
    run_node, serial_replay_root, Equivalence, NodeReport, RunningNode, CHANNEL_DEPTH,
};
pub use stats::StageStats;
