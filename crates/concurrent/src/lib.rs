//! Concurrency utilities shared by the OCC-WSI proposer and the validator
//! pipeline.
//!
//! The hot structures in BlockPilot are maps keyed by [`bp_types::AccessKey`]
//! that every worker thread reads and writes: the multi-version state and the
//! OCC *reserve table*. Wrapping a single `HashMap` in one lock would
//! serialize the workers, so [`ShardedMap`] stripes the key space over many
//! small [`sync::RwLock`]ed maps. [`ReserveTable`] builds the versioned
//! write-reservation semantics of Algorithm 1 on top of it, and
//! [`VersionAllocator`] hands out the monotonically increasing commit
//! versions. [`ResultSlots`] gives the validator pipeline a lock-free,
//! single-writer result array for the transaction-execution phase. [`sync`]
//! holds the locks every product crate blocks on, and [`crew`] is the one
//! set of threads every parallel caller shares.

#![warn(missing_docs)]

pub mod crew;
pub mod latch;
pub mod reserve;
pub mod sharded;
pub mod slots;
pub mod sync;
pub mod version;

pub use crew::{Crew, Priority};
pub use latch::{RootLatch, VersionGate};
pub use reserve::ReserveTable;
pub use sharded::ShardedMap;
pub use slots::ResultSlots;
pub use version::VersionAllocator;
