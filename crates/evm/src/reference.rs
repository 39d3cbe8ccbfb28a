//! The pre-optimization reference interpreter.
//!
//! A byte-for-byte retention of the interpreter as it was before the
//! analysis/precharge/jump-table rewrite: per-frame `jumpdests()`
//! recomputation, per-opcode gas charging, checked stack access and a
//! monolithic `match` dispatch. It exists so that the differential test
//! suites can prove the optimized engine produces identical receipts,
//! read/write sets and logs on arbitrary bytecode. Its one entry point is
//! [`execute_transaction_reference`].

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bp_crypto::keccak256;
use bp_types::{AccessKey, Address, Gas, RwSet, H256, U256};

use crate::gas;
use crate::host::{Log, StateView};
use crate::interpreter::{
    address_word, create_address, word_address, BlockEnv, Frame, FrameResult, VmError,
};
use crate::opcode::{Op, DUP1, DUP16, PUSH1, PUSH32, SWAP1, SWAP16};
use crate::tx::{ExecutionResult, Receipt, TxError};

/// The pre-optimization footprint recorder, retained verbatim: ordered
/// `BTreeMap`s, exactly as [`RwSet`] was backed before the Fx-hashed
/// rewrite.
#[derive(Default)]
struct RefRwSet {
    /// Keys read, with the version observed for each.
    reads: BTreeMap<AccessKey, u64>,
    /// Keys written, with the final value for each.
    writes: BTreeMap<AccessKey, U256>,
}

impl RefRwSet {
    fn new() -> Self {
        Self::default()
    }

    fn record_read(&mut self, key: AccessKey, version: u64) {
        self.reads.entry(key).or_insert(version);
    }

    fn record_write(&mut self, key: AccessKey, value: U256) {
        self.writes.insert(key, value);
    }

    /// Converts to the live footprint type.
    fn into_rw_set(self) -> RwSet {
        let mut rw = RwSet::new();
        for (k, v) in self.reads {
            rw.reads.insert(k, v);
        }
        for (k, v) in self.writes {
            rw.writes.insert(k, v);
        }
        rw
    }
}

/// The pre-optimization buffered host, retained verbatim: `std` SipHash
/// maps and clone-the-buffer checkpoints, exactly as the host worked before
/// the Fx-hashed, journaled rewrite, so the oracle shares no host code with
/// the engine it checks.
struct RefHost<'a, V: StateView> {
    view: &'a V,
    rw: RefRwSet,
    buffer: HashMap<AccessKey, U256>,
    code_buffer: HashMap<Address, Arc<Vec<u8>>>,
    logs: Vec<Log>,
}

/// Checkpoint for [`RefHost`]: full clones of both buffers.
struct RefCheckpoint {
    buffer: HashMap<AccessKey, U256>,
    code_buffer: HashMap<Address, Arc<Vec<u8>>>,
    log_len: usize,
}

impl<'a, V: StateView> RefHost<'a, V> {
    /// A fresh host over `view`.
    fn new(view: &'a V) -> Self {
        RefHost {
            view,
            rw: RefRwSet::new(),
            buffer: HashMap::new(),
            code_buffer: HashMap::new(),
            logs: Vec::new(),
        }
    }

    fn read(&mut self, key: AccessKey) -> U256 {
        if let Some(v) = self.buffer.get(&key) {
            return *v;
        }
        let (value, version) = self.view.read_key(&key);
        self.rw.record_read(key, version);
        value
    }

    fn write(&mut self, key: AccessKey, value: U256) {
        self.buffer.insert(key, value);
    }

    fn code(&mut self, addr: &Address) -> Arc<Vec<u8>> {
        if let Some(c) = self.code_buffer.get(addr) {
            return Arc::clone(c);
        }
        let (_, version) = self.view.read_key(&AccessKey::Code(*addr));
        self.rw.record_read(AccessKey::Code(*addr), version);
        self.view.code(addr)
    }

    fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        let hash = keccak256(&code).to_u256();
        self.code_buffer.insert(addr, Arc::new(code));
        self.buffer.insert(AccessKey::Code(addr), hash);
    }

    fn balance(&mut self, addr: &Address) -> U256 {
        self.read(AccessKey::Balance(*addr))
    }

    fn set_balance(&mut self, addr: Address, value: U256) {
        self.write(AccessKey::Balance(addr), value);
    }

    fn transfer(&mut self, from: Address, to: Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        let from_bal = self.balance(&from);
        match from_bal.checked_sub(value) {
            Some(rest) => {
                self.set_balance(from, rest);
                let to_bal = self.balance(&to);
                self.set_balance(to, to_bal + value);
                true
            }
            None => false,
        }
    }

    fn log(&mut self, log: Log) {
        self.logs.push(log);
    }

    fn checkpoint(&self) -> RefCheckpoint {
        RefCheckpoint {
            buffer: self.buffer.clone(),
            code_buffer: self.code_buffer.clone(),
            log_len: self.logs.len(),
        }
    }

    fn revert_to(&mut self, cp: RefCheckpoint) {
        self.buffer = cp.buffer;
        self.code_buffer = cp.code_buffer;
        self.logs.truncate(cp.log_len);
    }

    fn finish(mut self) -> (RefRwSet, Vec<Log>, HashMap<Address, Arc<Vec<u8>>>) {
        for (key, value) in &self.buffer {
            self.rw.record_write(*key, *value);
        }
        (self.rw, self.logs, self.code_buffer)
    }
}

/// The pre-optimization transaction driver over [`RefHost`] +
/// [`run_frame_reference`]: admission checks, gas purchase, the outer
/// frame, refund and receipt assembly, exactly as `execute_transaction`
/// worked before the rewrite.
pub fn execute_transaction_reference<V: StateView>(
    view: &V,
    env: &BlockEnv,
    tx: &crate::tx::Transaction,
) -> Result<ExecutionResult, TxError> {
    let mut host = RefHost::new(view);
    let state_nonce = host.read(AccessKey::Nonce(tx.sender)).low_u64();
    if state_nonce != tx.nonce {
        return Err(TxError::BadNonce {
            expected: state_nonce,
            got: tx.nonce,
        });
    }

    let intrinsic = crate::gas::intrinsic_gas(&tx.data, tx.to.is_none());
    if tx.gas_limit < intrinsic {
        return Err(TxError::IntrinsicGas);
    }

    let gas_cost = U256::from(tx.gas_limit) * U256::from(tx.gas_price);
    let balance = host.balance(&tx.sender);
    let needed = gas_cost
        .checked_add(tx.value)
        .ok_or(TxError::InsufficientFunds)?;
    if balance < needed {
        return Err(TxError::InsufficientFunds);
    }

    host.set_balance(tx.sender, balance - gas_cost);
    host.write(AccessKey::Nonce(tx.sender), U256::from(tx.nonce + 1));

    let cp = host.checkpoint();
    let exec_gas = tx.gas_limit - intrinsic;
    let (mut success, mut gas_left, mut output, mut created) = (true, exec_gas, Vec::new(), None);

    match &tx.to {
        Some(to) => {
            if !host.transfer(tx.sender, *to, tx.value) {
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
                    match run_frame_reference(&mut host, env, frame, 0) {
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
                match run_frame_reference(&mut host, env, frame, 0) {
                    Ok(res) if !res.reverted => {
                        let deposit = crate::gas::CODE_DEPOSIT * res.output.len() as u64;
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

    let sender_balance = host.balance(&tx.sender);
    let refund = U256::from(gas_left) * U256::from(tx.gas_price);
    host.set_balance(tx.sender, sender_balance + refund);

    let gas_used = tx.gas_limit - gas_left;
    let (rw, logs, deployed) = host.finish();
    Ok(ExecutionResult {
        receipt: Receipt {
            success,
            gas_used,
            output,
            logs,
            fee: U256::from(gas_used) * U256::from(tx.gas_price),
            created,
        },
        rw: rw.into_rw_set(),
        deployed: deployed.into_iter().collect(),
    })
}

const STACK_LIMIT: usize = 1024;
const MAX_CALL_DEPTH: usize = 64;

struct Machine {
    stack: Vec<U256>,
    memory: Vec<u8>,
    gas_left: Gas,
    pc: usize,
    return_data: Vec<u8>,
}

impl Machine {
    fn new(gas: Gas) -> Self {
        Machine {
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            gas_left: gas,
            pc: 0,
            return_data: Vec::new(),
        }
    }

    #[inline]
    fn charge(&mut self, cost: Gas) -> Result<(), VmError> {
        if self.gas_left < cost {
            self.gas_left = 0;
            return Err(VmError::OutOfGas);
        }
        self.gas_left -= cost;
        Ok(())
    }

    #[inline]
    fn pop(&mut self) -> Result<U256, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    #[inline]
    fn push(&mut self, v: U256) -> Result<(), VmError> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(VmError::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    /// Charges for and performs expansion to cover `[offset, offset+len)`.
    fn expand_memory(&mut self, offset: U256, len: U256) -> Result<usize, VmError> {
        if len.is_zero() {
            return offset.to_usize().ok_or(VmError::OutOfGas);
        }
        let offset = offset.to_usize().ok_or(VmError::OutOfGas)?;
        let len = len.to_usize().ok_or(VmError::OutOfGas)?;
        let end = offset.checked_add(len).ok_or(VmError::OutOfGas)?;
        let cur_words = (self.memory.len() as u64).div_ceil(32);
        let want_words = (end as u64).div_ceil(32);
        self.charge(gas::memory_expansion(cur_words, want_words))?;
        if end > self.memory.len() {
            self.memory.resize(want_words as usize * 32, 0);
        }
        Ok(offset)
    }

    fn mem_slice(&self, offset: usize, len: usize) -> &[u8] {
        &self.memory[offset..offset + len]
    }
}

/// Precomputed set of valid jump destinations (JUMPDEST bytes outside PUSH
/// immediates).
fn jumpdests(code: &[u8]) -> Vec<bool> {
    let mut valid = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let b = code[i];
        if b == Op::JumpDest as u8 {
            valid[i] = true;
        }
        if (PUSH1..=PUSH32).contains(&b) {
            i += (b - PUSH1) as usize + 1;
        }
        i += 1;
    }
    valid
}

/// Runs one frame to completion.
fn run_frame_reference<V: StateView>(
    host: &mut RefHost<'_, V>,
    env: &BlockEnv,
    frame: Frame,
    depth: usize,
) -> Result<FrameResult, VmError> {
    if depth > MAX_CALL_DEPTH {
        return Err(VmError::CallDepth);
    }
    let code = Arc::clone(&frame.code);
    let valid_jumps = jumpdests(&code);
    let mut m = Machine::new(frame.gas);

    loop {
        let byte = match code.get(m.pc) {
            Some(&b) => b,
            // Running off the end of code is an implicit STOP.
            None => {
                return Ok(FrameResult {
                    output: Vec::new(),
                    gas_left: m.gas_left,
                    reverted: false,
                })
            }
        };
        m.pc += 1;

        // PUSH / DUP / SWAP ranges first.
        if (PUSH1..=PUSH32).contains(&byte) {
            m.charge(gas::VERYLOW)?;
            let n = (byte - PUSH1) as usize + 1;
            let end = (m.pc + n).min(code.len());
            let v = U256::from_be_slice(&code[m.pc..end]);
            // Truncated push at end of code zero-pads on the right per spec;
            // from_be_slice pads left, so shift for the missing bytes.
            let missing = (m.pc + n - end) as u32;
            m.push(v << (8 * missing))?;
            m.pc += n;
            continue;
        }
        if (DUP1..=DUP16).contains(&byte) {
            m.charge(gas::VERYLOW)?;
            let n = (byte - DUP1) as usize + 1;
            if m.stack.len() < n {
                return Err(VmError::StackUnderflow);
            }
            let v = m.stack[m.stack.len() - n];
            m.push(v)?;
            continue;
        }
        if (SWAP1..=SWAP16).contains(&byte) {
            m.charge(gas::VERYLOW)?;
            let n = (byte - SWAP1) as usize + 1;
            if m.stack.len() < n + 1 {
                return Err(VmError::StackUnderflow);
            }
            let top = m.stack.len() - 1;
            m.stack.swap(top, top - n);
            continue;
        }

        let op = Op::from_byte(byte).ok_or(VmError::InvalidOpcode(byte))?;
        match op {
            Op::Stop => {
                return Ok(FrameResult {
                    output: Vec::new(),
                    gas_left: m.gas_left,
                    reverted: false,
                })
            }
            Op::Add => binary(&mut m, gas::VERYLOW, |a, b| a + b)?,
            Op::Mul => binary(&mut m, gas::LOW, |a, b| a * b)?,
            Op::Sub => binary(&mut m, gas::VERYLOW, |a, b| a - b)?,
            Op::Div => binary(&mut m, gas::LOW, |a, b| a / b)?,
            Op::Mod => binary(&mut m, gas::LOW, |a, b| a % b)?,
            Op::SDiv => binary(&mut m, gas::LOW, |a, b| a.sdiv(b))?,
            Op::SMod => binary(&mut m, gas::LOW, |a, b| a.smod(b))?,
            Op::SignExtend => binary(&mut m, gas::LOW, |k, v| v.sign_extend(k))?,
            Op::AddMod => ternary(&mut m, gas::MID, |a, b, n| a.add_mod(b, n))?,
            Op::MulMod => ternary(&mut m, gas::MID, |a, b, n| a.mul_mod(b, n))?,
            Op::Exp => {
                let base = m.pop()?;
                let exp = m.pop()?;
                let exp_bytes = (exp.bits() as u64).div_ceil(8);
                m.charge(gas::EXP + gas::EXP_BYTE * exp_bytes)?;
                m.push(base.pow(exp))?;
            }
            Op::Lt => binary(&mut m, gas::VERYLOW, |a, b| bool_word(a < b))?,
            Op::Gt => binary(&mut m, gas::VERYLOW, |a, b| bool_word(a > b))?,
            Op::Slt => binary(&mut m, gas::VERYLOW, |a, b| bool_word(a.slt(&b)))?,
            Op::Sgt => binary(&mut m, gas::VERYLOW, |a, b| bool_word(b.slt(&a)))?,
            Op::Eq => binary(&mut m, gas::VERYLOW, |a, b| bool_word(a == b))?,
            Op::IsZero => {
                m.charge(gas::VERYLOW)?;
                let a = m.pop()?;
                m.push(bool_word(a.is_zero()))?;
            }
            Op::And => binary(&mut m, gas::VERYLOW, |a, b| a & b)?,
            Op::Or => binary(&mut m, gas::VERYLOW, |a, b| a | b)?,
            Op::Xor => binary(&mut m, gas::VERYLOW, |a, b| a ^ b)?,
            Op::Not => {
                m.charge(gas::VERYLOW)?;
                let a = m.pop()?;
                m.push(!a)?;
            }
            Op::Byte => binary(&mut m, gas::VERYLOW, |i, x| {
                U256::from(x.byte_be(i.to_usize().unwrap_or(32)))
            })?,
            Op::Shl => binary(&mut m, gas::VERYLOW, |s, v| {
                v << s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256)
            })?,
            Op::Shr => binary(&mut m, gas::VERYLOW, |s, v| {
                v >> s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256)
            })?,
            Op::Sar => binary(&mut m, gas::VERYLOW, |s, v| {
                v.sar(s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256))
            })?,
            Op::Sha3 => {
                let offset = m.pop()?;
                let len = m.pop()?;
                let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
                m.charge(gas::SHA3 + gas::SHA3_WORD * words)?;
                let off = m.expand_memory(offset, len)?;
                let hash = keccak256(m.mem_slice(off, len.to_usize().unwrap_or(0)));
                m.push(hash.to_u256())?;
            }
            Op::Address => {
                m.charge(gas::BASE)?;
                m.push(address_word(&frame.address))?;
            }
            Op::Balance => {
                m.charge(gas::BALANCE)?;
                let a = m.pop()?;
                let addr = word_address(a);
                let bal = host.balance(&addr);
                m.push(bal)?;
            }
            Op::SelfBalance => {
                m.charge(gas::SELFBALANCE)?;
                let bal = host.balance(&frame.address);
                m.push(bal)?;
            }
            Op::Origin => {
                m.charge(gas::BASE)?;
                m.push(address_word(&frame.origin))?;
            }
            Op::Caller => {
                m.charge(gas::BASE)?;
                m.push(address_word(&frame.caller))?;
            }
            Op::CallValue => {
                m.charge(gas::BASE)?;
                m.push(frame.value)?;
            }
            Op::CallDataLoad => {
                m.charge(gas::VERYLOW)?;
                let i = m.pop()?;
                let mut word = [0u8; 32];
                if let Some(start) = i.to_usize() {
                    for (j, byte) in word.iter_mut().enumerate() {
                        *byte = frame.input.get(start + j).copied().unwrap_or(0);
                    }
                }
                m.push(U256::from_be_bytes(word))?;
            }
            Op::CallDataSize => {
                m.charge(gas::BASE)?;
                m.push(U256::from(frame.input.len()))?;
            }
            Op::CallDataCopy => {
                let dst = m.pop()?;
                let src = m.pop()?;
                let len = m.pop()?;
                let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
                m.charge(gas::VERYLOW + gas::COPY_WORD * words)?;
                let dst_off = m.expand_memory(dst, len)?;
                let n = len.to_usize().unwrap_or(0);
                let s = src.to_usize().unwrap_or(usize::MAX);
                for j in 0..n {
                    m.memory[dst_off + j] = s
                        .checked_add(j)
                        .and_then(|i| frame.input.get(i))
                        .copied()
                        .unwrap_or(0);
                }
            }
            Op::CodeSize => {
                m.charge(gas::BASE)?;
                m.push(U256::from(code.len()))?;
            }
            Op::CodeCopy => {
                let dst = m.pop()?;
                let src = m.pop()?;
                let len = m.pop()?;
                let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
                m.charge(gas::VERYLOW + gas::COPY_WORD * words)?;
                let dst_off = m.expand_memory(dst, len)?;
                let n = len.to_usize().unwrap_or(0);
                let s = src.to_usize().unwrap_or(usize::MAX);
                for j in 0..n {
                    m.memory[dst_off + j] = s
                        .checked_add(j)
                        .and_then(|i| code.get(i))
                        .copied()
                        .unwrap_or(0);
                }
            }
            Op::ReturnDataSize => {
                m.charge(gas::BASE)?;
                m.push(U256::from(m.return_data.len()))?;
            }
            Op::ReturnDataCopy => {
                let dst = m.pop()?;
                let src = m.pop()?;
                let len = m.pop()?;
                let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
                m.charge(gas::VERYLOW + gas::COPY_WORD * words)?;
                let n = len.to_usize().unwrap_or(usize::MAX);
                let s = src.to_usize().unwrap_or(usize::MAX);
                // Unlike CALLDATACOPY, out-of-range RETURNDATACOPY is an
                // exceptional halt per EIP-211.
                let end = s.checked_add(n).ok_or(VmError::ReturnDataOutOfBounds)?;
                if end > m.return_data.len() {
                    return Err(VmError::ReturnDataOutOfBounds);
                }
                let dst_off = m.expand_memory(dst, len)?;
                let data = m.return_data[s..end].to_vec();
                m.memory[dst_off..dst_off + n].copy_from_slice(&data);
            }
            Op::ExtCodeSize => {
                m.charge(gas::BALANCE)?;
                let a = m.pop()?;
                let sz = host.code(&word_address(a)).len();
                m.push(U256::from(sz))?;
            }
            Op::ExtCodeCopy => {
                let a = m.pop()?;
                let dst = m.pop()?;
                let src = m.pop()?;
                let len = m.pop()?;
                let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
                m.charge(gas::BALANCE + gas::COPY_WORD * words)?;
                let ext = host.code(&word_address(a));
                let dst_off = m.expand_memory(dst, len)?;
                let n = len.to_usize().unwrap_or(0);
                let s = src.to_usize().unwrap_or(usize::MAX);
                for j in 0..n {
                    m.memory[dst_off + j] = s
                        .checked_add(j)
                        .and_then(|i| ext.get(i))
                        .copied()
                        .unwrap_or(0);
                }
            }
            Op::GasPrice => {
                m.charge(gas::BASE)?;
                m.push(U256::from(frame.gas_price))?;
            }
            Op::Coinbase => {
                m.charge(gas::BASE)?;
                m.push(address_word(&env.coinbase))?;
            }
            Op::Timestamp => {
                m.charge(gas::BASE)?;
                m.push(U256::from(env.timestamp))?;
            }
            Op::Number => {
                m.charge(gas::BASE)?;
                m.push(U256::from(env.number))?;
            }
            Op::GasLimit => {
                m.charge(gas::BASE)?;
                m.push(U256::from(env.gas_limit))?;
            }
            Op::Pop => {
                m.charge(gas::BASE)?;
                m.pop()?;
            }
            Op::MLoad => {
                m.charge(gas::VERYLOW)?;
                let offset = m.pop()?;
                let off = m.expand_memory(offset, U256::from(32u64))?;
                let mut word = [0u8; 32];
                word.copy_from_slice(m.mem_slice(off, 32));
                m.push(U256::from_be_bytes(word))?;
            }
            Op::MStore => {
                m.charge(gas::VERYLOW)?;
                let offset = m.pop()?;
                let value = m.pop()?;
                let off = m.expand_memory(offset, U256::from(32u64))?;
                m.memory[off..off + 32].copy_from_slice(&value.to_be_bytes());
            }
            Op::MStore8 => {
                m.charge(gas::VERYLOW)?;
                let offset = m.pop()?;
                let value = m.pop()?;
                let off = m.expand_memory(offset, U256::ONE)?;
                m.memory[off] = value.low_u64() as u8;
            }
            Op::SLoad => {
                m.charge(gas::SLOAD)?;
                let slot = m.pop()?;
                let v = host.read(AccessKey::Storage(frame.address, H256::from_u256(slot)));
                m.push(v)?;
            }
            Op::SStore => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let slot = m.pop()?;
                let value = m.pop()?;
                let key = AccessKey::Storage(frame.address, H256::from_u256(slot));
                let current = host.read(key);
                let cost = if current.is_zero() && !value.is_zero() {
                    gas::SSTORE_SET
                } else {
                    gas::SSTORE_RESET
                };
                m.charge(cost)?;
                host.write(key, value);
            }
            Op::Jump => {
                m.charge(gas::MID)?;
                let dest = m.pop()?;
                jump_to(&mut m, dest, &valid_jumps)?;
            }
            Op::JumpI => {
                m.charge(gas::HIGH)?;
                let dest = m.pop()?;
                let cond = m.pop()?;
                if !cond.is_zero() {
                    jump_to(&mut m, dest, &valid_jumps)?;
                }
            }
            Op::Pc => {
                m.charge(gas::BASE)?;
                m.push(U256::from(m.pc - 1))?;
            }
            Op::MSize => {
                m.charge(gas::BASE)?;
                m.push(U256::from(m.memory.len()))?;
            }
            Op::Gas => {
                m.charge(gas::BASE)?;
                m.push(U256::from(m.gas_left))?;
            }
            Op::JumpDest => m.charge(gas::JUMPDEST)?,
            Op::Log0 | Op::Log1 | Op::Log2 | Op::Log3 | Op::Log4 => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let topic_count = (op as u8 - Op::Log0 as u8) as usize;
                let offset = m.pop()?;
                let len = m.pop()?;
                let mut topics = Vec::with_capacity(topic_count);
                for _ in 0..topic_count {
                    topics.push(H256::from_u256(m.pop()?));
                }
                let data_len = len.to_u64().ok_or(VmError::OutOfGas)?;
                m.charge(
                    gas::LOG + gas::LOG_TOPIC * topic_count as u64 + gas::LOG_DATA * data_len,
                )?;
                let off = m.expand_memory(offset, len)?;
                let data = m.mem_slice(off, data_len as usize).to_vec();
                host.log(Log {
                    address: frame.address,
                    topics,
                    data,
                });
            }
            Op::Create => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                m.charge(gas::CREATE)?;
                let value = m.pop()?;
                let offset = m.pop()?;
                let len = m.pop()?;
                let off = m.expand_memory(offset, len)?;
                let init = m.mem_slice(off, len.to_usize().unwrap_or(0)).to_vec();
                let forwarded = m.gas_left - m.gas_left / 64;
                m.charge(forwarded)?;
                let (created, gas_returned) =
                    do_create(host, env, &frame, value, init, forwarded, depth);
                m.gas_left += gas_returned;
                m.return_data.clear();
                match created {
                    Some(addr) => m.push(address_word(&addr))?,
                    None => m.push(U256::ZERO)?,
                }
            }
            Op::Call | Op::DelegateCall | Op::StaticCall => {
                let gas_req = m.pop()?;
                let to = word_address(m.pop()?);
                // CALL carries an explicit value; DELEGATECALL inherits the
                // parent's; STATICCALL transfers nothing.
                let value = match op {
                    Op::Call => m.pop()?,
                    Op::DelegateCall => frame.value,
                    _ => U256::ZERO,
                };
                let in_off = m.pop()?;
                let in_len = m.pop()?;
                let out_off = m.pop()?;
                let out_len = m.pop()?;

                let transfers_value = op == Op::Call && !value.is_zero();
                if transfers_value && frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let mut base = gas::CALL;
                if transfers_value {
                    base += gas::CALL_VALUE;
                }
                m.charge(base)?;
                let i_off = m.expand_memory(in_off, in_len)?;
                let input = m.mem_slice(i_off, in_len.to_usize().unwrap_or(0)).to_vec();
                let o_off = m.expand_memory(out_off, out_len)?;

                let cap = m.gas_left - m.gas_left / 64;
                let forwarded = gas_req.to_u64().unwrap_or(u64::MAX).min(cap);
                m.charge(forwarded)?;
                let stipend = if transfers_value {
                    gas::CALL_STIPEND
                } else {
                    0
                };

                let kind = match op {
                    Op::Call => CallKind::Call,
                    Op::DelegateCall => CallKind::Delegate,
                    _ => CallKind::Static,
                };
                let (ok, output, gas_returned) = do_call(
                    host,
                    env,
                    &frame,
                    to,
                    value,
                    input,
                    forwarded + stipend,
                    depth,
                    kind,
                );
                // The stipend was free to the caller; only un-spent
                // *forwarded* gas comes back.
                m.gas_left += gas_returned.min(forwarded);
                let n = out_len.to_usize().unwrap_or(0).min(output.len());
                m.memory[o_off..o_off + n].copy_from_slice(&output[..n]);
                m.return_data = output;
                m.push(bool_word(ok))?;
            }
            Op::Return | Op::Revert => {
                let offset = m.pop()?;
                let len = m.pop()?;
                let off = m.expand_memory(offset, len)?;
                let output = m.mem_slice(off, len.to_usize().unwrap_or(0)).to_vec();
                return Ok(FrameResult {
                    output,
                    gas_left: m.gas_left,
                    reverted: op == Op::Revert,
                });
            }
            Op::Invalid => return Err(VmError::InvalidOpcode(0xFE)),
        }
    }
}

fn jump_to(m: &mut Machine, dest: U256, valid: &[bool]) -> Result<(), VmError> {
    let d = dest.to_usize().ok_or(VmError::InvalidJump)?;
    if d >= valid.len() || !valid[d] {
        return Err(VmError::InvalidJump);
    }
    m.pc = d;
    Ok(())
}

#[inline]
fn binary(m: &mut Machine, cost: Gas, f: impl FnOnce(U256, U256) -> U256) -> Result<(), VmError> {
    m.charge(cost)?;
    let a = m.pop()?;
    let b = m.pop()?;
    m.push(f(a, b))
}

#[inline]
fn ternary(
    m: &mut Machine,
    cost: Gas,
    f: impl FnOnce(U256, U256, U256) -> U256,
) -> Result<(), VmError> {
    m.charge(cost)?;
    let a = m.pop()?;
    let b = m.pop()?;
    let c = m.pop()?;
    m.push(f(a, b, c))
}

#[inline]
fn bool_word(b: bool) -> U256 {
    if b {
        U256::ONE
    } else {
        U256::ZERO
    }
}

/// The three message-call flavours.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Call,
    Delegate,
    Static,
}

/// Executes a nested call. Returns (success, output, gas left in callee).
#[allow(clippy::too_many_arguments)]
fn do_call<V: StateView>(
    host: &mut RefHost<'_, V>,
    env: &BlockEnv,
    parent: &Frame,
    to: Address,
    value: U256,
    input: Vec<u8>,
    gas: Gas,
    depth: usize,
    kind: CallKind,
) -> (bool, Vec<u8>, Gas) {
    let cp = host.checkpoint();
    if kind == CallKind::Call && !host.transfer(parent.address, to, value) {
        host.revert_to(cp);
        return (false, Vec::new(), gas);
    }
    let code = host.code(&to);
    if code.is_empty() {
        // Plain value transfer to an EOA.
        return (true, Vec::new(), gas);
    }
    let frame = match kind {
        CallKind::Call | CallKind::Static => Frame {
            address: to,
            caller: parent.address,
            origin: parent.origin,
            value,
            input,
            code,
            gas,
            gas_price: parent.gas_price,
            is_static: parent.is_static || kind == CallKind::Static,
        },
        // DELEGATECALL borrows the callee's code but keeps the caller's
        // storage context, caller identity and value.
        CallKind::Delegate => Frame {
            address: parent.address,
            caller: parent.caller,
            origin: parent.origin,
            value,
            input,
            code,
            gas,
            gas_price: parent.gas_price,
            is_static: parent.is_static,
        },
    };
    match run_frame_reference(host, env, frame, depth + 1) {
        Ok(res) if !res.reverted => (true, res.output, res.gas_left),
        Ok(res) => {
            host.revert_to(cp);
            (false, res.output, res.gas_left)
        }
        Err(_) => {
            host.revert_to(cp);
            (false, Vec::new(), 0)
        }
    }
}

/// Executes a nested CREATE. Returns (created address, gas left in initcode).
fn do_create<V: StateView>(
    host: &mut RefHost<'_, V>,
    env: &BlockEnv,
    parent: &Frame,
    value: U256,
    init: Vec<u8>,
    gas: Gas,
    depth: usize,
) -> (Option<Address>, Gas) {
    let cp = host.checkpoint();
    // The creator's nonce determines the address and is then bumped.
    let nonce = host.read(AccessKey::Nonce(parent.address)).low_u64();
    let created = create_address(&parent.address, nonce);
    host.write(AccessKey::Nonce(parent.address), U256::from(nonce + 1));
    if !host.transfer(parent.address, created, value) {
        host.revert_to(cp);
        return (None, gas);
    }
    let frame = Frame {
        address: created,
        caller: parent.address,
        origin: parent.origin,
        value,
        input: Vec::new(),
        code: Arc::new(init),
        gas,
        gas_price: parent.gas_price,
        is_static: false,
    };
    match run_frame_reference(host, env, frame, depth + 1) {
        Ok(res) if !res.reverted => {
            let deposit = gas::CODE_DEPOSIT * res.output.len() as u64;
            if res.gas_left < deposit {
                host.revert_to(cp);
                return (None, 0);
            }
            host.set_code(created, res.output);
            (Some(created), res.gas_left - deposit)
        }
        Ok(res) => {
            host.revert_to(cp);
            (None, res.gas_left)
        }
        Err(_) => {
            host.revert_to(cp);
            (None, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_state::WorldState;

    use crate::host::WorldView;

    #[test]
    fn truncated_push_immediate_marks_no_phantom_jumpdests() {
        // PUSH32 with only two immediate bytes present, both 0x5B. The
        // immediate window extends past the end of code; the 0x5B bytes are
        // data, not code, and must not become jump destinations.
        let valid = jumpdests(&[0x7F, 0x5B, 0x5B]);
        assert_eq!(valid, vec![false, false, false]);
        // PUSH2 whose immediate is truncated to one byte.
        let valid = jumpdests(&[0x61, 0x5B]);
        assert_eq!(valid, vec![false, false]);
        // Control: a JUMPDEST after a complete PUSH is valid.
        let valid = jumpdests(&[0x60, 0x5B, 0x5B]);
        assert_eq!(valid, vec![false, false, true]);
    }

    #[test]
    fn reference_runs_a_simple_frame() {
        let world = WorldState::new();
        let view = WorldView::new(&world);
        let mut host = RefHost::new(&view);
        let env = BlockEnv::default();
        let code = crate::asm::Asm::new()
            .push_u64(2)
            .push_u64(40)
            .op(Op::Add)
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let frame = Frame {
            address: Address::from_index(1),
            caller: Address::from_index(2),
            origin: Address::from_index(2),
            value: U256::ZERO,
            input: Vec::new(),
            code: Arc::new(code),
            gas: 100_000,
            gas_price: 1,
            is_static: false,
        };
        let res = run_frame_reference(&mut host, &env, frame, 0).unwrap();
        assert_eq!(U256::from_be_slice(&res.output), U256::from(42u64));
        assert!(!res.reverted);
    }
}
