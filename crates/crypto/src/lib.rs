//! Cryptographic substrate for BlockPilot: Keccak-256 and RLP.
//!
//! Ethereum's state commitment (the Merkle Patricia Trie in `bp-state`),
//! transaction hashes and block hashes are all defined in terms of these two
//! primitives, so they are implemented from scratch here with the exact
//! Ethereum semantics:
//!
//! * [`keccak::keccak256`] — original Keccak padding (not SHA3-256), and
//!   [`keccak::keccak256_batch`] for independent inputs, eight at a time
//!   where the CPU has AVX-512;
//! * [`rlp`] — strict, canonical Recursive Length Prefix coding.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod keccak;
pub mod rlp;

pub use keccak::{keccak256, keccak256_batch, keccak256_concat, Keccak256};
pub use rlp::{encode_bytes as rlp_encode_bytes, RlpStream};
