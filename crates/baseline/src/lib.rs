//! The baseline the paper compares against.
//!
//! * [`serial`] — geth's model: one thread, block order. This is both the
//!   correctness oracle (every parallel execution must reproduce its state
//!   root) and the denominator of every speedup the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serial;

pub use serial::{execute_block_serially, SerialOutcome};
