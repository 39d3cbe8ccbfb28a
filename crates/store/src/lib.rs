//! Persistent chain storage with crash-safe commit.
//!
//! Everything above this crate — chain store, world state, MPT — is purely
//! in-memory; `bp-store` gives a node durability and cold-start recovery by
//! keeping exactly what recovery reads: the genesis state and the blocks.
//! State after genesis is not stored; a restarted validator replays the
//! stored chain on the genesis state.
//!
//! * [`log`] — the record format of the one file, `<dir>/chain.log`:
//!   framed, keccak-checksummed `genesis`, `block` and `commit` records;
//! * [`snapshot`] — the genesis record's payload, a deterministic RLP
//!   encoding of a [`bp_state::WorldState`];
//! * [`store`] — the [`Store`] facade:
//!   `open → initialize → put_block → commit(head)`, with
//!   [`Store::canonical_chain`] reading the durable chain back after a
//!   restart.
//!
//! ## Commit protocol
//!
//! 1. append records to the log (written, not yet durable);
//! 2. at a group boundary — the [`Store::commit`] that fills a group (every
//!    one, in the default group of one; see [`GroupCommitConfig`]), or
//!    [`Store::flush`] — sync the log, then append a commit marker
//!    `{head, offset, group digest}` and sync again.
//!
//! [`Store::open`] scans the log, verifying every record and every marker
//! against its group, and truncates whatever follows the last marker. A
//! record that fails its checksum with a marker after it is
//! [`StoreError::Corrupt`]: the marker shows it was durable.

#![warn(missing_docs)]

pub mod log;
pub mod snapshot;
pub mod store;

pub use snapshot::{decode_world, encode_world};
pub use store::{GroupCommitConfig, Store};

use bp_types::H256;

/// Failures across the storage subsystem.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A durable record failed its checksum or decode, or the directory is
    /// not a chain log — the store cannot vouch for the data.
    Corrupt(String),
    /// A block named as head is not stored.
    MissingBlock(H256),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::MissingBlock(h) => write!(f, "missing block {h:?}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
