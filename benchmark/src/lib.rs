//! The BlockPilot benchmark's parts: the workloads, the three phases that
//! drive the product through its public API, the statistics and the report.
//! `main.rs` holds the command line; README.md defines every metric.

pub mod compare;
pub mod json;
pub mod phases;
pub mod report;
pub mod stats;
pub mod workloads;
