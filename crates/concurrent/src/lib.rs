//! Concurrency utilities shared by the OCC-WSI proposer and the validator
//! pipeline.
//!
//! The hot structure of the proposer is the multi-version state: per-key
//! version chains keyed by [`bp_types::AccessKey`] that every worker thread
//! reads while another commits. Wrapping a single `HashMap` in one lock would
//! serialize the readers, so [`ShardedMap`] stripes the key space over many
//! small [`sync::RwLock`]ed maps. [`RootLatch`] hands each height's root
//! verdict to whoever waits on it. [`sync`] holds the locks every product
//! crate blocks on, and [`crew`] is the one set of threads every parallel
//! caller shares.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod crew;
pub mod latch;
pub mod sharded;
pub mod sync;

pub use crew::{Crew, Priority};
pub use latch::RootLatch;
pub use sharded::ShardedMap;
