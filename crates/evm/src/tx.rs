//! Transaction-level execution: nonce/balance checks, gas purchase, the
//! outer message frame, refunds and receipts.
//!
//! Fees are **not** credited to the coinbase inside the transaction's write
//! set: a per-transaction coinbase write would make every pair of
//! transactions conflict and destroy the parallelism the paper measures.
//! Like the geth-based prototype, fee credit is a commutative counter
//! aggregated when the block is sealed; each [`Receipt`] carries its fee.

use std::sync::Arc;

use bp_crypto::rlp::{self, StackStream};
use bp_crypto::{keccak256_batch, Keccak256};
use bp_types::{AccessKey, Address, FxHashMap, Gas, RwSet, TxHash, U256};

use crate::gas;
use crate::host::{BufferedHost, Log, StateView};
use crate::interpreter::{create_address, run_frame, BlockEnv, Frame};

/// A transaction (legacy Ethereum shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender (recovered from signature in real Ethereum; explicit here).
    pub sender: Address,
    /// Recipient; `None` deploys a contract.
    pub to: Option<Address>,
    /// Wei transferred.
    pub value: U256,
    /// Sender's transaction count.
    pub nonce: u64,
    /// Gas ceiling for the transaction.
    pub gas_limit: Gas,
    /// Price per gas unit (also the pool's selection priority).
    pub gas_price: u64,
    /// Call data or init code.
    pub data: Vec<u8>,
}

impl Transaction {
    /// Canonical hash: keccak of the RLP encoding — the seven-item list
    /// `[sender, to, value, nonce, gas_limit, gas_price, data]`, fed to the
    /// hasher piece by piece ([`Transaction::encoding_pieces`]), `data` from
    /// where it lies.
    pub fn hash(&self) -> TxHash {
        let mut h = Keccak256::new();
        self.encoding_pieces(|piece| h.update(piece));
        h.finalize()
    }

    /// [`Transaction::hash`] of each of `txs`, in their order. Transactions
    /// are independent inputs, so their encodings are written to one buffer
    /// and hashed as one batch — eight at a time where the CPU allows
    /// ([`keccak256_batch`]).
    pub fn hash_batch<'a>(txs: impl IntoIterator<Item = &'a Transaction>) -> Vec<TxHash> {
        let mut encodings = Vec::new();
        let mut ends = Vec::new();
        for tx in txs {
            tx.encoding_pieces(|piece| encodings.extend_from_slice(piece));
            ends.push(encodings.len());
        }
        let starts = std::iter::once(0).chain(ends.iter().copied());
        keccak256_batch(
            starts
                .zip(&ends)
                .map(|(start, &end)| &encodings[start..end]),
        )
    }

    /// Hands the RLP encoding to `sink` in four pieces, built on the stack:
    /// the list header (computed from the lengths of the rest), the six
    /// fixed fields (21 + 21 + 33 + 3·9 bytes at most), the data item's
    /// header, and `data` itself.
    fn encoding_pieces(&self, mut sink: impl FnMut(&[u8])) {
        let mut fixed = StackStream::<102>::new();
        fixed.append_bytes(&self.sender.0);
        match &self.to {
            Some(to) => fixed.append_bytes(&to.0),
            None => fixed.append_bytes(&[]),
        }
        fixed.append_u256(&self.value);
        fixed.append_u64(self.nonce);
        fixed.append_u64(self.gas_limit);
        fixed.append_u64(self.gas_price);
        let fixed = fixed.as_slice();
        let (data_header, data_header_len) =
            rlp::str_header(self.data.len(), self.data.first().copied().unwrap_or(0));
        let (list_header, list_header_len) =
            rlp::list_header(fixed.len() + data_header_len + self.data.len());
        sink(&list_header[..list_header_len]);
        sink(fixed);
        sink(&data_header[..data_header_len]);
        sink(&self.data);
    }

    /// A simple value transfer.
    pub fn transfer(sender: Address, to: Address, value: U256, nonce: u64, gas_price: u64) -> Self {
        Transaction {
            sender,
            to: Some(to),
            value,
            nonce,
            gas_limit: 21_000,
            gas_price,
            data: Vec::new(),
        }
    }
}

/// Post-execution summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// True unless the outer frame reverted or faulted.
    pub success: bool,
    /// Gas consumed (≥ intrinsic gas).
    pub gas_used: Gas,
    /// RETURN/REVERT payload of the outer frame.
    pub output: Vec<u8>,
    /// Logs emitted by non-reverted frames.
    pub logs: Vec<Log>,
    /// `gas_used × gas_price`, owed to the coinbase at block seal.
    pub fee: U256,
    /// Address created by a deployment transaction.
    pub created: Option<Address>,
}

/// Everything execution produced, including the concurrency-control
/// footprint.
#[derive(Debug)]
pub struct ExecutionResult {
    /// The receipt.
    pub receipt: Receipt,
    /// Read/write footprint (Algorithm 1's `rs`/`ws`).
    pub rw: RwSet,
    /// Code deployed by this transaction (address → bytecode).
    pub deployed: FxHashMap<Address, Arc<Vec<u8>>>,
}

/// Reasons a transaction cannot be included at all (distinct from on-chain
/// failure, which still consumes gas and produces a receipt).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxError {
    /// Sender nonce mismatch.
    BadNonce {
        /// Nonce the state expects.
        expected: u64,
        /// Nonce the transaction carries.
        got: u64,
    },
    /// Sender cannot pay `gas_limit × gas_price + value`.
    InsufficientFunds,
    /// `gas_limit` below intrinsic gas.
    IntrinsicGas,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            TxError::InsufficientFunds => write!(f, "insufficient funds"),
            TxError::IntrinsicGas => write!(f, "gas limit below intrinsic gas"),
        }
    }
}

impl std::error::Error for TxError {}

/// Executes `tx` against `view`, producing the receipt and footprint.
///
/// The footprint always contains the sender's nonce and balance (read and
/// written), so any two transactions from the same sender conflict — which
/// is what preserves per-sender nonce order under parallel execution.
pub fn execute_transaction<V: StateView>(
    view: &V,
    env: &BlockEnv,
    tx: &Transaction,
) -> Result<ExecutionResult, TxError> {
    execute_with(BufferedHost::new(view), env, tx)
}

fn execute_with<V: StateView>(
    mut host: BufferedHost<'_, V>,
    env: &BlockEnv,
    tx: &Transaction,
) -> Result<ExecutionResult, TxError> {
    let state_nonce = host.read(AccessKey::Nonce(tx.sender)).low_u64();
    if state_nonce != tx.nonce {
        return Err(TxError::BadNonce {
            expected: state_nonce,
            got: tx.nonce,
        });
    }

    let intrinsic = gas::intrinsic_gas(&tx.data, tx.to.is_none());
    if tx.gas_limit < intrinsic {
        return Err(TxError::IntrinsicGas);
    }

    // u64 × u64 fits u128 exactly; skip the 4×4-limb schoolbook multiply.
    let gas_cost = U256::from(tx.gas_limit as u128 * tx.gas_price as u128);
    let balance = host.balance(&tx.sender);
    let needed = gas_cost
        .checked_add(tx.value)
        .ok_or(TxError::InsufficientFunds)?;
    if balance < needed {
        return Err(TxError::InsufficientFunds);
    }

    // Purchase gas and bump the nonce. These survive even if execution
    // fails on-chain.
    host.set_balance(tx.sender, balance - gas_cost);
    host.write(AccessKey::Nonce(tx.sender), U256::from(tx.nonce + 1));

    let cp = host.checkpoint();
    let exec_gas = tx.gas_limit - intrinsic;
    let (mut success, mut gas_left, mut output, mut created) = (true, exec_gas, Vec::new(), None);

    match &tx.to {
        Some(to) => {
            if !host.transfer(tx.sender, *to, tx.value) {
                // Funds were checked above, but a concurrent snapshot could
                // still surface an older, poorer balance — treat as failure.
                success = false;
            } else {
                let code = host.code(to);
                if !code.is_empty() {
                    let frame = Frame {
                        address: *to,
                        caller: tx.sender,
                        origin: tx.sender,
                        value: tx.value,
                        input: tx.data.clone(),
                        code,
                        gas: exec_gas,
                        gas_price: tx.gas_price,
                        is_static: false,
                    };
                    match run_frame(&mut host, env, frame, 0) {
                        Ok(res) => {
                            gas_left = res.gas_left;
                            output = res.output;
                            success = !res.reverted;
                        }
                        Err(_) => {
                            gas_left = 0;
                            success = false;
                        }
                    }
                }
            }
        }
        None => {
            let addr = create_address(&tx.sender, tx.nonce);
            if !host.transfer(tx.sender, addr, tx.value) {
                success = false;
            } else {
                let frame = Frame {
                    address: addr,
                    caller: tx.sender,
                    origin: tx.sender,
                    value: tx.value,
                    input: Vec::new(),
                    code: Arc::new(tx.data.clone()),
                    gas: exec_gas,
                    gas_price: tx.gas_price,
                    is_static: false,
                };
                match run_frame(&mut host, env, frame, 0) {
                    Ok(res) if !res.reverted => {
                        let deposit = gas::CODE_DEPOSIT * res.output.len() as u64;
                        if res.gas_left < deposit {
                            gas_left = 0;
                            success = false;
                        } else {
                            gas_left = res.gas_left - deposit;
                            host.set_code(addr, res.output);
                            created = Some(addr);
                        }
                    }
                    Ok(res) => {
                        gas_left = res.gas_left;
                        output = res.output;
                        success = false;
                    }
                    Err(_) => {
                        gas_left = 0;
                        success = false;
                    }
                }
            }
        }
    }

    if !success {
        host.revert_to(cp);
        output.truncate(0);
    }

    // Refund unused gas.
    let sender_balance = host.balance(&tx.sender);
    let refund = U256::from(gas_left as u128 * tx.gas_price as u128);
    host.set_balance(tx.sender, sender_balance + refund);

    let gas_used = tx.gas_limit - gas_left;
    let (rw, logs, deployed) = host.finish();
    Ok(ExecutionResult {
        receipt: Receipt {
            success,
            gas_used,
            output,
            logs,
            fee: U256::from(gas_used as u128 * tx.gas_price as u128),
            created,
        },
        rw,
        deployed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::host::WorldView;
    use crate::opcode::Op;
    use bp_state::WorldState;
    use bp_types::H256;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn funded_world() -> WorldState {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(10_000_000u64));
        w
    }

    #[test]
    fn plain_transfer() {
        let w = funded_world();
        let view = WorldView::new(&w);
        let tx = Transaction::transfer(addr(1), addr(2), U256::from(500u64), 0, 1);
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        assert!(res.receipt.success);
        assert_eq!(res.receipt.gas_used, 21_000);
        assert_eq!(res.receipt.fee, U256::from(21_000u64));
        assert_eq!(
            res.rw.writes[&AccessKey::Balance(addr(2))],
            U256::from(500u64)
        );
        assert_eq!(
            res.rw.writes[&AccessKey::Balance(addr(1))],
            U256::from(10_000_000u64 - 500 - 21_000)
        );
        assert_eq!(res.rw.writes[&AccessKey::Nonce(addr(1))], U256::ONE);
    }

    #[test]
    fn bad_nonce_rejected() {
        let w = funded_world();
        let view = WorldView::new(&w);
        let tx = Transaction::transfer(addr(1), addr(2), U256::ONE, 5, 1);
        assert_eq!(
            execute_transaction(&view, &BlockEnv::default(), &tx).unwrap_err(),
            TxError::BadNonce {
                expected: 0,
                got: 5
            }
        );
    }

    #[test]
    fn insufficient_funds_rejected() {
        let mut w = WorldState::new();
        w.set_balance(addr(1), U256::from(21_000u64)); // can pay gas but not value
        let view = WorldView::new(&w);
        let tx = Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1);
        assert_eq!(
            execute_transaction(&view, &BlockEnv::default(), &tx).unwrap_err(),
            TxError::InsufficientFunds
        );
    }

    #[test]
    fn gas_limit_below_intrinsic_rejected() {
        let w = funded_world();
        let view = WorldView::new(&w);
        let mut tx = Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1);
        tx.gas_limit = 20_000;
        assert_eq!(
            execute_transaction(&view, &BlockEnv::default(), &tx).unwrap_err(),
            TxError::IntrinsicGas
        );
    }

    #[test]
    fn reverting_call_consumes_gas_but_rolls_back_state() {
        let mut w = funded_world();
        // Contract stores then reverts.
        let code = Asm::new()
            .push_u64(1)
            .push_u64(0)
            .op(Op::SStore)
            .push_u64(0)
            .push_u64(0)
            .op(Op::Revert)
            .build();
        w.set_code(addr(50), code);
        let view = WorldView::new(&w);
        let tx = Transaction {
            sender: addr(1),
            to: Some(addr(50)),
            value: U256::from(9u64),
            nonce: 0,
            gas_limit: 100_000,
            gas_price: 2,
            data: Vec::new(),
        };
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        assert!(!res.receipt.success);
        assert!(res.receipt.gas_used > 21_000);
        // Storage write and value transfer rolled back.
        assert!(!res
            .rw
            .writes
            .contains_key(&AccessKey::Storage(addr(50), H256::from_low_u64(0))));
        assert!(!res.rw.writes.contains_key(&AccessKey::Balance(addr(50))));
        // Nonce and fee deduction survive.
        assert_eq!(res.rw.writes[&AccessKey::Nonce(addr(1))], U256::ONE);
        let final_balance = res.rw.writes[&AccessKey::Balance(addr(1))];
        assert_eq!(final_balance, U256::from(10_000_000u64) - res.receipt.fee);
    }

    #[test]
    fn deployment_creates_contract() {
        let w = funded_world();
        let view = WorldView::new(&w);
        // Init code returning empty runtime code.
        let init = Asm::new().push_u64(0).push_u64(0).op(Op::Return).build();
        let tx = Transaction {
            sender: addr(1),
            to: None,
            value: U256::ZERO,
            nonce: 0,
            gas_limit: 200_000,
            gas_price: 1,
            data: init,
        };
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        assert!(res.receipt.success);
        let created = res.receipt.created.unwrap();
        assert_eq!(created, create_address(&addr(1), 0));
        assert!(res.receipt.gas_used >= 53_000);
    }

    #[test]
    fn out_of_gas_consumes_limit() {
        let mut w = funded_world();
        // Infinite loop.
        let code = Asm::new()
            .label("top")
            .push_label("top")
            .op(Op::Jump)
            .build();
        w.set_code(addr(60), code);
        let view = WorldView::new(&w);
        let tx = Transaction {
            sender: addr(1),
            to: Some(addr(60)),
            value: U256::ZERO,
            nonce: 0,
            gas_limit: 50_000,
            gas_price: 1,
            data: Vec::new(),
        };
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        assert!(!res.receipt.success);
        assert_eq!(res.receipt.gas_used, 50_000);
    }

    #[test]
    fn tx_hash_distinguishes_fields() {
        let t1 = Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1);
        let mut t2 = t1.clone();
        t2.nonce = 1;
        assert_ne!(t1.hash(), t2.hash());
        let mut t3 = t1.clone();
        t3.to = None;
        assert_ne!(t1.hash(), t3.hash());
    }

    #[test]
    fn tx_hash_is_keccak_of_the_seven_item_rlp_list() {
        // The stack-fed hash against the plain encoder, across every header
        // form the list and the data item can take.
        let mut txs = Vec::new();
        for data_len in [0usize, 1, 2, 40, 55, 56, 300, 70_000] {
            for first in [0x00u8, 0x7f, 0x80] {
                for (to, value, nonce) in [
                    (Some(addr(2)), U256::ZERO, 0u64),
                    (None, U256::MAX, u64::MAX),
                    (Some(addr(9)), U256::from(0x80u64), 0x1234),
                ] {
                    let tx = Transaction {
                        sender: addr(1),
                        to,
                        value,
                        nonce,
                        gas_limit: 21_000,
                        gas_price: nonce / 3,
                        data: vec![first; data_len],
                    };
                    let mut s = bp_crypto::RlpStream::new();
                    s.begin_list(7);
                    s.append_address(&tx.sender);
                    match &tx.to {
                        Some(to) => s.append_address(to),
                        None => s.append_bytes(&[]),
                    }
                    s.append_u256(&tx.value);
                    s.append_u64(tx.nonce);
                    s.append_u64(tx.gas_limit);
                    s.append_u64(tx.gas_price);
                    s.append_bytes(&tx.data);
                    assert_eq!(tx.hash(), bp_crypto::keccak256(&s.out()), "{tx:?}");
                    txs.push(tx);
                }
            }
        }
        // The same transactions hashed as one batch, lengths mixed.
        let one_by_one: Vec<TxHash> = txs.iter().map(Transaction::hash).collect();
        assert_eq!(Transaction::hash_batch(&txs), one_by_one);
        assert!(Transaction::hash_batch(&txs[..0]).is_empty());
    }

    #[test]
    fn same_sender_txs_conflict_via_nonce() {
        let w = funded_world();
        let view = WorldView::new(&w);
        let tx = Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1);
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        // Footprint contains the nonce read and write — the scheduler relies
        // on this to serialize same-sender transactions.
        assert!(res.rw.reads.contains_key(&AccessKey::Nonce(addr(1))));
        assert!(res.rw.writes.contains_key(&AccessKey::Nonce(addr(1))));
    }
}
