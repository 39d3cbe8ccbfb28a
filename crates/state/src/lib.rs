//! State substrate: the authenticated world state BlockPilot executes over.
//!
//! * [`trie`] — a faithful Merkle Patricia Trie with proofs;
//! * [`account`] — the 4-field RLP account body;
//! * [`pmap`] — the persistent hash map ([`pmap::PMap`]) the world keeps its
//!   accounts, storage and retained tries in, so a snapshot is O(1);
//! * [`world`] — the flat mutable [`world::WorldState`] plus MPT commitment
//!   ([`world::WorldState::state_root`]);
//! * [`mvstate`] — the multi-version overlay serving OCC-WSI snapshots.

#![warn(missing_docs)]

pub mod account;
pub mod mvstate;
pub mod nibbles;
pub mod pmap;
pub mod trie;
pub mod world;

pub use account::Account;
pub use mvstate::MultiVersionState;
pub use pmap::PMap;
pub use trie::{empty_root, verify_proof, Trie};
pub use world::{code_read_word, storage_root, AccountState, WorldState};
