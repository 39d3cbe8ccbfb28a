//! A gas-metered EVM with read/write-set recording.
//!
//! This is the execution substrate the BlockPilot framework runs on: a
//! 256-bit stack machine covering the instruction subset the paper's
//! workloads exercise, with Ethereum gas semantics (storage operations
//! dominate, which the validator scheduler exploits as a running-time
//! proxy). Every state access flows through [`host::BufferedHost`], so each
//! executed transaction yields its exact read/write footprint — the `rs`/`ws`
//! of the paper's Algorithm 1 — at no extra cost.
//!
//! Intentional simplifications relative to mainnet (documented in DESIGN.md):
//! no gas refunds or access lists, no precompiles, no SELFDESTRUCT,
//! CALLCODE or CREATE2, 64-frame call depth, and fees aggregated at block
//! seal instead of per-transaction coinbase writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod asm;
pub mod contracts;
pub mod gas;
pub mod host;
pub mod interpreter;
pub mod opcode;
pub mod reference;
pub mod tx;

pub use host::{BufferedHost, Log, MvSnapshot, StateView, WorldView};
pub use interpreter::{create_address, BlockEnv, Frame, FrameResult, VmError};
pub use tx::{execute_transaction, ExecutionResult, Receipt, Transaction, TxError};
