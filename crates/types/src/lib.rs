//! Fundamental value types shared by every BlockPilot subsystem.
//!
//! This crate deliberately has no dependencies: everything that touches
//! consensus-critical data (256-bit words, hashes, addresses, access keys)
//! lives here so that the substrate crates (`bp-crypto`, `bp-state`,
//! `bp-evm`) and the framework crate (`blockpilot-core`) agree on a single
//! representation.
//!
//! # Layout
//!
//! * [`U256`] — a 256-bit unsigned integer implemented over four little-endian
//!   `u64` limbs, with the full arithmetic surface the EVM needs (wrapping
//!   add/sub/mul, checked division, modular arithmetic, exponentiation, bit
//!   operations and shifts).
//! * [`H256`] / [`Address`] — fixed-size byte arrays used for hashes, storage
//!   slots and account identities.
//! * [`AccessKey`] — the unit of conflict detection used by the OCC-WSI
//!   proposer and the validator scheduler: a balance, nonce, storage slot or
//!   code entry of some account.
//! * [`Gas`] and related newtypes.
//! * [`Rng`] — the seeded generator behind every synthetic workload and
//!   randomized test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod keys;
pub mod primitives;
pub mod rng;
pub mod u256;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use keys::{AccessKey, ReadSet, RwSet, WriteSet};
pub use primitives::{Address, BlockHash, Gas, Height, Nonce, TxHash, H256};
pub use rng::Rng;
pub use u256::U256;
