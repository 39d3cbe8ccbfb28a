//! The EVM interpreter: a gas-metered 256-bit stack machine.
//!
//! One [`run_frame`] call executes one message frame (an external call, an
//! internal `CALL`, or `CREATE` init code) against a [`BufferedHost`]. All
//! state effects go through the host, so the transaction's read/write
//! footprint falls out for free — that footprint is what the OCC-WSI
//! proposer validates and what the validator scheduler builds its dependency
//! graph from.

use std::sync::Arc;

use bp_crypto::{keccak256, RlpStream};
use bp_types::{AccessKey, Address, Gas, H256, U256};

use crate::analysis::{BlockInfo, CodeAnalysis, Inst, Kind, INVALID_BLOCK, KIND_COUNT};
use crate::gas;
use crate::host::{BufferedHost, Log, StateView};

/// Block-level execution context.
#[derive(Clone, Copy, Debug)]
pub struct BlockEnv {
    /// Fee recipient.
    pub coinbase: Address,
    /// Block height.
    pub number: u64,
    /// Block timestamp (seconds).
    pub timestamp: u64,
    /// Block gas limit.
    pub gas_limit: Gas,
}

impl Default for BlockEnv {
    fn default() -> Self {
        BlockEnv {
            coinbase: Address::from_index(0xC0FFEE),
            number: 1,
            timestamp: 1_700_000_000,
            gas_limit: 30_000_000,
        }
    }
}

/// One message frame.
pub struct Frame {
    /// Executing account (storage context).
    pub address: Address,
    /// Immediate caller.
    pub caller: Address,
    /// Transaction origin.
    pub origin: Address,
    /// Wei sent with the message.
    pub value: U256,
    /// Call data.
    pub input: Vec<u8>,
    /// Code to execute.
    pub code: Arc<Vec<u8>>,
    /// Gas available to this frame.
    pub gas: Gas,
    /// Transaction gas price.
    pub gas_price: u64,
    /// True inside a `STATICCALL` context: state mutation is forbidden.
    pub is_static: bool,
}

/// Successful (or reverted) frame completion.
#[derive(Debug)]
pub struct FrameResult {
    /// RETURN/REVERT payload.
    pub output: Vec<u8>,
    /// Gas remaining after execution.
    pub gas_left: Gas,
    /// True when the frame ended with `REVERT`.
    pub reverted: bool,
}

/// Exceptional halts. These consume all gas in the frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Gas exhausted.
    OutOfGas,
    /// Pop from an empty stack.
    StackUnderflow,
    /// Push past 1024 entries.
    StackOverflow,
    /// Jump to a non-JUMPDEST target.
    InvalidJump,
    /// Undefined or explicitly invalid opcode.
    InvalidOpcode(u8),
    /// Call depth exceeded 64 frames.
    CallDepth,
    /// A state-mutating opcode ran inside a `STATICCALL` context.
    StaticViolation,
    /// `RETURNDATACOPY` read past the end of the return buffer.
    ReturnDataOutOfBounds,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfGas => write!(f, "out of gas"),
            VmError::StackUnderflow => write!(f, "stack underflow"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::InvalidJump => write!(f, "invalid jump destination"),
            VmError::InvalidOpcode(b) => write!(f, "invalid opcode 0x{b:02x}"),
            VmError::CallDepth => write!(f, "call depth exceeded"),
            VmError::StaticViolation => write!(f, "state mutation in static context"),
            VmError::ReturnDataOutOfBounds => write!(f, "return data access out of bounds"),
        }
    }
}

impl std::error::Error for VmError {}

const STACK_LIMIT: usize = 1024;
const MAX_CALL_DEPTH: usize = 64;

/// The operand stack.
///
/// Capacity for the full 1024-slot limit is reserved up front, so a push
/// never reallocates. The block-entry pre-validation in [`run_analyzed`]
/// (from the analysis's per-block `need` and `max_growth`) refuses a block
/// that could underflow or overflow before any of its instructions run, so
/// the per-access checks below never fire: a broken invariant panics here
/// rather than returning a `VmError`.
struct Stack {
    data: Vec<U256>,
}

thread_local! {
    /// Reusable operand-stack buffers, one per live frame depth.
    ///
    /// A full-capacity stack is 32 KiB; allocating and freeing one per frame
    /// measurably dominates cheap frames (a fresh 32 KiB heap block per call
    /// costs several hundred nanoseconds in a busy allocator). Frames on one
    /// thread are strictly nested, so a small per-thread free list — take on
    /// frame entry, return cleared on frame exit — removes the allocation
    /// from every frame after the first `MAX_CALL_DEPTH` on each thread.
    static STACK_POOL: std::cell::RefCell<Vec<Vec<U256>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Stack {
    fn new() -> Self {
        let data = STACK_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_else(|| Vec::with_capacity(STACK_LIMIT));
        debug_assert!(data.is_empty() && data.capacity() >= STACK_LIMIT);
        Stack { data }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline(always)]
    fn push(&mut self, v: U256) {
        debug_assert!(self.data.len() < STACK_LIMIT);
        self.data.push(v);
    }

    #[inline(always)]
    fn pop(&mut self) -> U256 {
        self.data
            .pop()
            .expect("block pre-validation covers every pop")
    }

    /// The `depth`-th word from the top (0 = top).
    #[inline(always)]
    fn peek(&self, depth: usize) -> U256 {
        self.data[self.data.len() - 1 - depth]
    }

    /// Swaps the top with the `n`-th word below it.
    #[inline(always)]
    fn swap(&mut self, n: usize) {
        let top = self.data.len() - 1;
        self.data.swap(top, top - n);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // `U256` is `Copy`, so clearing is a length reset, not element drops.
        let mut data = std::mem::take(&mut self.data);
        data.clear();
        STACK_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_CALL_DEPTH {
                pool.push(data);
            }
        });
    }
}

/// What a handler tells the dispatch loop to do next.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Transfer control to this block index.
    Jump(u32),
    /// Frame finished; `output`/`reverted` are set on the [`Exec`].
    Halt,
}

/// Mutable execution state for one frame, shared by every handler.
struct Exec<'e, 'h, V: StateView> {
    host: &'e mut BufferedHost<'h, V>,
    env: &'e BlockEnv,
    frame: &'e Frame,
    an: &'e CodeAnalysis,
    depth: usize,
    stack: Stack,
    memory: Vec<u8>,
    gas_left: Gas,
    return_data: Vec<u8>,
    output: Vec<u8>,
    reverted: bool,
}

impl<V: StateView> Exec<'_, '_, V> {
    /// Charges dynamic (non-precharged) gas.
    #[inline]
    fn charge(&mut self, cost: Gas) -> Result<(), VmError> {
        if self.gas_left < cost {
            self.gas_left = 0;
            return Err(VmError::OutOfGas);
        }
        self.gas_left -= cost;
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

type Handler<V> = for<'e, 'h> fn(&mut Exec<'e, 'h, V>, Inst) -> Result<Ctl, VmError>;

/// Carrier for the per-`V` handler table (generics forbid a plain `static`;
/// an associated `const` on a generic struct monomorphizes per view type).
struct Table<V: StateView>(std::marker::PhantomData<V>);

impl<V: StateView> Table<V> {
    /// Flat jump table indexed by [`Kind`]. Replaces the old monolithic
    /// `match` dispatch.
    const TABLE: [Handler<V>; KIND_COUNT] = {
        let mut t: [Handler<V>; KIND_COUNT] = [op_abort::<V> as Handler<V>; KIND_COUNT];
        t[Kind::Stop as usize] = op_stop::<V>;
        t[Kind::Add as usize] = op_add::<V>;
        t[Kind::Mul as usize] = op_mul::<V>;
        t[Kind::Sub as usize] = op_sub::<V>;
        t[Kind::Div as usize] = op_div::<V>;
        t[Kind::SDiv as usize] = op_sdiv::<V>;
        t[Kind::Mod as usize] = op_mod::<V>;
        t[Kind::SMod as usize] = op_smod::<V>;
        t[Kind::AddMod as usize] = op_addmod::<V>;
        t[Kind::MulMod as usize] = op_mulmod::<V>;
        t[Kind::Exp as usize] = op_exp::<V>;
        t[Kind::SignExtend as usize] = op_signextend::<V>;
        t[Kind::Lt as usize] = op_lt::<V>;
        t[Kind::Gt as usize] = op_gt::<V>;
        t[Kind::Slt as usize] = op_slt::<V>;
        t[Kind::Sgt as usize] = op_sgt::<V>;
        t[Kind::Eq as usize] = op_eq::<V>;
        t[Kind::IsZero as usize] = op_iszero::<V>;
        t[Kind::And as usize] = op_and::<V>;
        t[Kind::Or as usize] = op_or::<V>;
        t[Kind::Xor as usize] = op_xor::<V>;
        t[Kind::Not as usize] = op_not::<V>;
        t[Kind::Byte as usize] = op_byte::<V>;
        t[Kind::Shl as usize] = op_shl::<V>;
        t[Kind::Shr as usize] = op_shr::<V>;
        t[Kind::Sar as usize] = op_sar::<V>;
        t[Kind::Sha3 as usize] = op_sha3::<V>;
        t[Kind::Address as usize] = op_address::<V>;
        t[Kind::Balance as usize] = op_balance::<V>;
        t[Kind::Origin as usize] = op_origin::<V>;
        t[Kind::Caller as usize] = op_caller::<V>;
        t[Kind::CallValue as usize] = op_callvalue::<V>;
        t[Kind::CallDataLoad as usize] = op_calldataload::<V>;
        t[Kind::CallDataSize as usize] = op_calldatasize::<V>;
        t[Kind::CallDataCopy as usize] = op_calldatacopy::<V>;
        t[Kind::CodeSize as usize] = op_codesize::<V>;
        t[Kind::CodeCopy as usize] = op_codecopy::<V>;
        t[Kind::GasPrice as usize] = op_gasprice::<V>;
        t[Kind::ExtCodeSize as usize] = op_extcodesize::<V>;
        t[Kind::ExtCodeCopy as usize] = op_extcodecopy::<V>;
        t[Kind::ReturnDataSize as usize] = op_returndatasize::<V>;
        t[Kind::ReturnDataCopy as usize] = op_returndatacopy::<V>;
        t[Kind::Coinbase as usize] = op_coinbase::<V>;
        t[Kind::Timestamp as usize] = op_timestamp::<V>;
        t[Kind::Number as usize] = op_number::<V>;
        t[Kind::GasLimit as usize] = op_gaslimit::<V>;
        t[Kind::SelfBalance as usize] = op_selfbalance::<V>;
        t[Kind::Pop as usize] = op_pop::<V>;
        t[Kind::MLoad as usize] = op_mload::<V>;
        t[Kind::MStore as usize] = op_mstore::<V>;
        t[Kind::MStore8 as usize] = op_mstore8::<V>;
        t[Kind::SLoad as usize] = op_sload::<V>;
        t[Kind::SStore as usize] = op_sstore::<V>;
        t[Kind::Jump as usize] = op_jump::<V>;
        t[Kind::JumpI as usize] = op_jumpi::<V>;
        t[Kind::Pc as usize] = op_pc::<V>;
        t[Kind::MSize as usize] = op_msize::<V>;
        t[Kind::Gas as usize] = op_gas::<V>;
        t[Kind::JumpDest as usize] = op_jumpdest::<V>;
        t[Kind::Log as usize] = op_log::<V>;
        t[Kind::Create as usize] = op_create::<V>;
        t[Kind::Call as usize] = op_call::<V>;
        t[Kind::DelegateCall as usize] = op_delegatecall::<V>;
        t[Kind::StaticCall as usize] = op_staticcall::<V>;
        t[Kind::Return as usize] = op_return::<V>;
        t[Kind::Revert as usize] = op_revert::<V>;
        t[Kind::Abort as usize] = op_abort::<V>;
        t[Kind::Push as usize] = op_push::<V>;
        t[Kind::Dup as usize] = op_dup::<V>;
        t[Kind::Swap as usize] = op_swap::<V>;
        t
    };
}

/// Runs one frame to completion.
///
/// Code analysis comes from the process-wide analysis cache, so repeated
/// frames against the same contract skip decoding, jumpdest discovery and
/// block summarization entirely.
pub fn run_frame<V: StateView>(
    host: &mut BufferedHost<'_, V>,
    env: &BlockEnv,
    frame: Frame,
    depth: usize,
) -> Result<FrameResult, VmError> {
    run_frame_at(host, env, frame, depth, true)
}

/// `run_frame` with cache policy: CREATE init code is one-shot and would
/// only churn the shared cache, so deployment frames analyze fresh.
fn run_frame_at<V: StateView>(
    host: &mut BufferedHost<'_, V>,
    env: &BlockEnv,
    frame: Frame,
    depth: usize,
    use_cache: bool,
) -> Result<FrameResult, VmError> {
    if depth > MAX_CALL_DEPTH {
        return Err(VmError::CallDepth);
    }
    if frame.code.is_empty() {
        return Ok(FrameResult {
            output: Vec::new(),
            gas_left: frame.gas,
            reverted: false,
        });
    }
    let cached;
    let owned;
    let an: &CodeAnalysis = if use_cache {
        cached = crate::analysis::cached(&frame.code);
        &cached
    } else {
        owned = CodeAnalysis::analyze(&frame.code);
        &owned
    };
    run_analyzed(host, env, &frame, an, depth)
}

/// The hot loop: per-block gas precharge + stack pre-validation, then
/// jump-table dispatch over the pre-decoded instruction stream.
fn run_analyzed<V: StateView>(
    host: &mut BufferedHost<'_, V>,
    env: &BlockEnv,
    frame: &Frame,
    an: &CodeAnalysis,
    depth: usize,
) -> Result<FrameResult, VmError> {
    let gas = frame.gas;
    let mut e = Exec {
        host,
        env,
        frame,
        an,
        depth,
        stack: Stack::new(),
        memory: Vec::new(),
        gas_left: gas,
        return_data: Vec::new(),
        output: Vec::new(),
        reverted: false,
    };
    let blocks: &[BlockInfo] = &an.blocks;
    let insts: &[Inst] = &an.insts;
    let table = &Table::<V>::TABLE;

    let mut bi = 0usize;
    loop {
        // `bi` is always in bounds: jump targets come from `pc_block` (which
        // only holds real block indices) and fall-through targets exist
        // because the analysis appends a synthetic STOP block at the end.
        let blk = blocks[bi];

        // Precharge the whole block's static gas. Within a block execution
        // is straight-line, so a successful path through it pays exactly
        // this much; a faulting path consumes the frame's full gas either
        // way (every VmError is a full-gas exceptional halt).
        if e.gas_left < blk.static_gas {
            e.gas_left = 0;
            return Err(VmError::OutOfGas);
        }
        e.gas_left -= blk.static_gas;

        // Pre-validate stack bounds once, so no instruction in the block
        // can underflow or overflow.
        let len = e.stack.len() as u64;
        if len < blk.need as u64 {
            return Err(VmError::StackUnderflow);
        }
        if len + blk.max_growth as u64 > STACK_LIMIT as u64 {
            return Err(VmError::StackOverflow);
        }

        let mut next = bi + 1;
        for &inst in &insts[blk.first as usize..blk.end as usize] {
            match table[inst.kind as usize](&mut e, inst)? {
                Ctl::Next => {}
                Ctl::Jump(b) => {
                    next = b as usize;
                    break;
                }
                Ctl::Halt => {
                    return Ok(FrameResult {
                        output: e.output,
                        gas_left: e.gas_left,
                        reverted: e.reverted,
                    });
                }
            }
        }
        bi = next;
    }
}

/// Maps a dynamic jump destination to its target block.
#[inline]
fn resolve_jump(an: &CodeAnalysis, dest: U256) -> Result<u32, VmError> {
    let d = dest.to_usize().ok_or(VmError::InvalidJump)?;
    match an.pc_block.get(d) {
        Some(&b) if b != INVALID_BLOCK => Ok(b),
        _ => Err(VmError::InvalidJump),
    }
}

#[inline(always)]
fn binop<V: StateView>(
    e: &mut Exec<'_, '_, V>,
    f: impl FnOnce(U256, U256) -> U256,
) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let b = e.stack.pop();
    e.stack.push(f(a, b));
    Ok(Ctl::Next)
}

fn op_stop<V: StateView>(_e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    Ok(Ctl::Halt)
}

fn op_add<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a + b)
}

fn op_mul<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a * b)
}

fn op_sub<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a - b)
}

fn op_div<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a / b)
}

fn op_sdiv<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a.sdiv(b))
}

fn op_mod<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a % b)
}

fn op_smod<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a.smod(b))
}

fn op_addmod<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let b = e.stack.pop();
    let n = e.stack.pop();
    e.stack.push(a.add_mod(b, n));
    Ok(Ctl::Next)
}

fn op_mulmod<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let b = e.stack.pop();
    let n = e.stack.pop();
    e.stack.push(a.mul_mod(b, n));
    Ok(Ctl::Next)
}

fn op_exp<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let base = e.stack.pop();
    let exp = e.stack.pop();
    let exp_bytes = (exp.bits() as u64).div_ceil(8);
    e.charge(gas::EXP_BYTE * exp_bytes)?;
    e.stack.push(base.pow(exp));
    Ok(Ctl::Next)
}

fn op_signextend<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |k, v| v.sign_extend(k))
}

fn op_lt<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| bool_word(a < b))
}

fn op_gt<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| bool_word(a > b))
}

fn op_slt<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| bool_word(a.slt(&b)))
}

fn op_sgt<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| bool_word(b.slt(&a)))
}

fn op_eq<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| bool_word(a == b))
}

fn op_iszero<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    e.stack.push(bool_word(a.is_zero()));
    Ok(Ctl::Next)
}

fn op_and<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a & b)
}

fn op_or<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a | b)
}

fn op_xor<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |a, b| a ^ b)
}

fn op_not<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    e.stack.push(!a);
    Ok(Ctl::Next)
}

fn op_byte<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |i, x| U256::from(x.byte_be(i.to_usize().unwrap_or(32))))
}

fn op_shl<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |s, v| {
        v << s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256)
    })
}

fn op_shr<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |s, v| {
        v >> s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256)
    })
}

fn op_sar<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    binop(e, |s, v| {
        v.sar(s.to_u64().map(|x| x.min(256) as u32).unwrap_or(256))
    })
}

fn op_sha3<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let len = e.stack.pop();
    let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
    e.charge(gas::SHA3_WORD * words)?;
    let off = e.expand_memory(offset, len)?;
    let hash = keccak256(e.mem_slice(off, len.to_usize().unwrap_or(0)));
    e.stack.push(hash.to_u256());
    Ok(Ctl::Next)
}

fn op_address<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let w = address_word(&e.frame.address);
    e.stack.push(w);
    Ok(Ctl::Next)
}

fn op_balance<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let addr = word_address(a);
    let bal = e.host.balance(&addr);
    e.stack.push(bal);
    Ok(Ctl::Next)
}

fn op_selfbalance<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let bal = e.host.balance(&e.frame.address);
    e.stack.push(bal);
    Ok(Ctl::Next)
}

fn op_origin<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let w = address_word(&e.frame.origin);
    e.stack.push(w);
    Ok(Ctl::Next)
}

fn op_caller<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let w = address_word(&e.frame.caller);
    e.stack.push(w);
    Ok(Ctl::Next)
}

fn op_callvalue<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let v = e.frame.value;
    e.stack.push(v);
    Ok(Ctl::Next)
}

fn op_calldataload<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let i = e.stack.pop();
    let mut word = [0u8; 32];
    if let Some(start) = i.to_usize() {
        for (j, byte) in word.iter_mut().enumerate() {
            *byte = e.frame.input.get(start + j).copied().unwrap_or(0);
        }
    }
    e.stack.push(U256::from_be_bytes(word));
    Ok(Ctl::Next)
}

fn op_calldatasize<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let n = e.frame.input.len();
    e.stack.push(U256::from(n));
    Ok(Ctl::Next)
}

fn op_calldatacopy<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let dst = e.stack.pop();
    let src = e.stack.pop();
    let len = e.stack.pop();
    let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
    e.charge(gas::COPY_WORD * words)?;
    let dst_off = e.expand_memory(dst, len)?;
    let n = len.to_usize().unwrap_or(0);
    let s = src.to_usize().unwrap_or(usize::MAX);
    for j in 0..n {
        e.memory[dst_off + j] = s
            .checked_add(j)
            .and_then(|i| e.frame.input.get(i))
            .copied()
            .unwrap_or(0);
    }
    Ok(Ctl::Next)
}

fn op_codesize<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let n = e.frame.code.len();
    e.stack.push(U256::from(n));
    Ok(Ctl::Next)
}

fn op_codecopy<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let dst = e.stack.pop();
    let src = e.stack.pop();
    let len = e.stack.pop();
    let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
    e.charge(gas::COPY_WORD * words)?;
    let dst_off = e.expand_memory(dst, len)?;
    let n = len.to_usize().unwrap_or(0);
    let s = src.to_usize().unwrap_or(usize::MAX);
    for j in 0..n {
        e.memory[dst_off + j] = s
            .checked_add(j)
            .and_then(|i| e.frame.code.get(i))
            .copied()
            .unwrap_or(0);
    }
    Ok(Ctl::Next)
}

fn op_gasprice<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let p = e.frame.gas_price;
    e.stack.push(U256::from(p));
    Ok(Ctl::Next)
}

fn op_extcodesize<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let sz = e.host.code(&word_address(a)).len();
    e.stack.push(U256::from(sz));
    Ok(Ctl::Next)
}

fn op_extcodecopy<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let a = e.stack.pop();
    let dst = e.stack.pop();
    let src = e.stack.pop();
    let len = e.stack.pop();
    let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
    e.charge(gas::COPY_WORD * words)?;
    let ext = e.host.code(&word_address(a));
    let dst_off = e.expand_memory(dst, len)?;
    let n = len.to_usize().unwrap_or(0);
    let s = src.to_usize().unwrap_or(usize::MAX);
    for j in 0..n {
        e.memory[dst_off + j] = s
            .checked_add(j)
            .and_then(|i| ext.get(i))
            .copied()
            .unwrap_or(0);
    }
    Ok(Ctl::Next)
}

fn op_returndatasize<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let n = e.return_data.len();
    e.stack.push(U256::from(n));
    Ok(Ctl::Next)
}

fn op_returndatacopy<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let dst = e.stack.pop();
    let src = e.stack.pop();
    let len = e.stack.pop();
    let words = len.to_u64().ok_or(VmError::OutOfGas)?.div_ceil(32);
    e.charge(gas::COPY_WORD * words)?;
    let n = len.to_usize().unwrap_or(usize::MAX);
    let s = src.to_usize().unwrap_or(usize::MAX);
    // Unlike CALLDATACOPY, out-of-range RETURNDATACOPY is an exceptional
    // halt per EIP-211.
    let end = s.checked_add(n).ok_or(VmError::ReturnDataOutOfBounds)?;
    if end > e.return_data.len() {
        return Err(VmError::ReturnDataOutOfBounds);
    }
    let dst_off = e.expand_memory(dst, len)?;
    let data = e.return_data[s..end].to_vec();
    e.memory[dst_off..dst_off + n].copy_from_slice(&data);
    Ok(Ctl::Next)
}

fn op_coinbase<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let w = address_word(&e.env.coinbase);
    e.stack.push(w);
    Ok(Ctl::Next)
}

fn op_timestamp<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let t = e.env.timestamp;
    e.stack.push(U256::from(t));
    Ok(Ctl::Next)
}

fn op_number<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let n = e.env.number;
    e.stack.push(U256::from(n));
    Ok(Ctl::Next)
}

fn op_gaslimit<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let l = e.env.gas_limit;
    e.stack.push(U256::from(l));
    Ok(Ctl::Next)
}

fn op_pop<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    e.stack.pop();
    Ok(Ctl::Next)
}

fn op_mload<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let off = e.expand_memory(offset, U256::from(32u64))?;
    let mut word = [0u8; 32];
    word.copy_from_slice(e.mem_slice(off, 32));
    e.stack.push(U256::from_be_bytes(word));
    Ok(Ctl::Next)
}

fn op_mstore<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let value = e.stack.pop();
    let off = e.expand_memory(offset, U256::from(32u64))?;
    e.memory[off..off + 32].copy_from_slice(&value.to_be_bytes());
    Ok(Ctl::Next)
}

fn op_mstore8<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let value = e.stack.pop();
    let off = e.expand_memory(offset, U256::ONE)?;
    e.memory[off] = value.low_u64() as u8;
    Ok(Ctl::Next)
}

fn op_sload<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let slot = e.stack.pop();
    let v = e
        .host
        .read(AccessKey::Storage(e.frame.address, H256::from_u256(slot)));
    e.stack.push(v);
    Ok(Ctl::Next)
}

fn op_sstore<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    if e.frame.is_static {
        return Err(VmError::StaticViolation);
    }
    let slot = e.stack.pop();
    let value = e.stack.pop();
    let key = AccessKey::Storage(e.frame.address, H256::from_u256(slot));
    let current = e.host.read(key);
    let cost = if current.is_zero() && !value.is_zero() {
        gas::SSTORE_SET
    } else {
        gas::SSTORE_RESET
    };
    e.charge(cost)?;
    e.host.write(key, value);
    Ok(Ctl::Next)
}

fn op_jump<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let dest = e.stack.pop();
    Ok(Ctl::Jump(resolve_jump(e.an, dest)?))
}

fn op_jumpi<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let dest = e.stack.pop();
    let cond = e.stack.pop();
    if cond.is_zero() {
        Ok(Ctl::Next)
    } else {
        Ok(Ctl::Jump(resolve_jump(e.an, dest)?))
    }
}

fn op_pc<V: StateView>(e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    e.stack.push(U256::from(i.pc as u64));
    Ok(Ctl::Next)
}

fn op_msize<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let n = e.memory.len();
    e.stack.push(U256::from(n));
    Ok(Ctl::Next)
}

fn op_gas<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    // GAS is always block-final and its BASE cost is part of the precharge,
    // so `gas_left` here equals the per-opcode value exactly.
    let g = e.gas_left;
    e.stack.push(U256::from(g));
    Ok(Ctl::Next)
}

fn op_jumpdest<V: StateView>(_e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    Ok(Ctl::Next)
}

fn op_log<V: StateView>(e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    if e.frame.is_static {
        return Err(VmError::StaticViolation);
    }
    let topic_count = i.a as usize;
    let offset = e.stack.pop();
    let len = e.stack.pop();
    let mut topics = Vec::with_capacity(topic_count);
    for _ in 0..topic_count {
        topics.push(H256::from_u256(e.stack.pop()));
    }
    let data_len = len.to_u64().ok_or(VmError::OutOfGas)?;
    e.charge(gas::LOG_DATA * data_len)?;
    let off = e.expand_memory(offset, len)?;
    let data = e.mem_slice(off, data_len as usize).to_vec();
    let address = e.frame.address;
    e.host.log(Log {
        address,
        topics,
        data,
    });
    Ok(Ctl::Next)
}

fn op_create<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    if e.frame.is_static {
        return Err(VmError::StaticViolation);
    }
    let value = e.stack.pop();
    let offset = e.stack.pop();
    let len = e.stack.pop();
    let off = e.expand_memory(offset, len)?;
    let init = e.mem_slice(off, len.to_usize().unwrap_or(0)).to_vec();
    // CREATE is block-final with its static base in the precharge, so
    // `gas_left` at the 63/64 computation matches per-opcode metering.
    let forwarded = e.gas_left - e.gas_left / 64;
    e.charge(forwarded)?;
    let (created, gas_returned) =
        do_create(e.host, e.env, e.frame, value, init, forwarded, e.depth);
    e.gas_left += gas_returned;
    e.return_data.clear();
    match created {
        Some(addr) => e.stack.push(address_word(&addr)),
        None => e.stack.push(U256::ZERO),
    }
    Ok(Ctl::Next)
}

fn op_call<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    call_common(e, CallKind::Call)
}

fn op_delegatecall<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    call_common(e, CallKind::Delegate)
}

fn op_staticcall<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    call_common(e, CallKind::Static)
}

fn call_common<V: StateView>(e: &mut Exec<'_, '_, V>, kind: CallKind) -> Result<Ctl, VmError> {
    let gas_req = e.stack.pop();
    let to = word_address(e.stack.pop());
    // CALL carries an explicit value; DELEGATECALL inherits the parent's;
    // STATICCALL transfers nothing.
    let value = match kind {
        CallKind::Call => e.stack.pop(),
        CallKind::Delegate => e.frame.value,
        CallKind::Static => U256::ZERO,
    };
    let in_off = e.stack.pop();
    let in_len = e.stack.pop();
    let out_off = e.stack.pop();
    let out_len = e.stack.pop();

    let transfers_value = kind == CallKind::Call && !value.is_zero();
    if transfers_value && e.frame.is_static {
        return Err(VmError::StaticViolation);
    }
    // The flat CALL base is in the block precharge (the call terminates its
    // block); only the conditional value surcharge is dynamic.
    if transfers_value {
        e.charge(gas::CALL_VALUE)?;
    }
    let i_off = e.expand_memory(in_off, in_len)?;
    let input = e.mem_slice(i_off, in_len.to_usize().unwrap_or(0)).to_vec();
    let o_off = e.expand_memory(out_off, out_len)?;

    let cap = e.gas_left - e.gas_left / 64;
    let forwarded = gas_req.to_u64().unwrap_or(u64::MAX).min(cap);
    e.charge(forwarded)?;
    let stipend = if transfers_value {
        gas::CALL_STIPEND
    } else {
        0
    };

    let (ok, output, gas_returned) = do_call(
        e.host,
        e.env,
        e.frame,
        to,
        value,
        input,
        forwarded + stipend,
        e.depth,
        kind,
    );
    // The stipend was free to the caller; only un-spent *forwarded* gas
    // comes back.
    e.gas_left += gas_returned.min(forwarded);
    let n = out_len.to_usize().unwrap_or(0).min(output.len());
    e.memory[o_off..o_off + n].copy_from_slice(&output[..n]);
    e.return_data = output;
    e.stack.push(bool_word(ok));
    Ok(Ctl::Next)
}

fn op_return<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let len = e.stack.pop();
    let off = e.expand_memory(offset, len)?;
    e.output = e.mem_slice(off, len.to_usize().unwrap_or(0)).to_vec();
    Ok(Ctl::Halt)
}

fn op_revert<V: StateView>(e: &mut Exec<'_, '_, V>, _i: Inst) -> Result<Ctl, VmError> {
    let offset = e.stack.pop();
    let len = e.stack.pop();
    let off = e.expand_memory(offset, len)?;
    e.output = e.mem_slice(off, len.to_usize().unwrap_or(0)).to_vec();
    e.reverted = true;
    Ok(Ctl::Halt)
}

fn op_abort<V: StateView>(_e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    Err(VmError::InvalidOpcode(i.a as u8))
}

fn op_push<V: StateView>(e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    e.stack.push(e.an.imms[i.a as usize]);
    Ok(Ctl::Next)
}

fn op_dup<V: StateView>(e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    let v = e.stack.peek(i.a as usize - 1);
    e.stack.push(v);
    Ok(Ctl::Next)
}

fn op_swap<V: StateView>(e: &mut Exec<'_, '_, V>, i: Inst) -> Result<Ctl, VmError> {
    e.stack.swap(i.a as usize);
    Ok(Ctl::Next)
}

#[inline]
fn bool_word(b: bool) -> U256 {
    if b {
        U256::ONE
    } else {
        U256::ZERO
    }
}

/// Zero-extends an address into a word.
pub fn address_word(a: &Address) -> U256 {
    let mut bytes = [0u8; 32];
    bytes[12..].copy_from_slice(a.as_bytes());
    U256::from_be_bytes(bytes)
}

/// Truncates a word to its low 20 bytes as an address.
pub fn word_address(w: U256) -> Address {
    let bytes = w.to_be_bytes();
    let mut out = [0u8; 20];
    out.copy_from_slice(&bytes[12..]);
    Address(out)
}

/// The classic CREATE address: `keccak(rlp([sender, nonce]))[12..]`.
pub fn create_address(sender: &Address, nonce: u64) -> Address {
    let mut s = RlpStream::new();
    s.begin_list(2);
    s.append_address(sender);
    s.append_u64(nonce);
    let hash = keccak256(&s.out());
    let mut out = [0u8; 20];
    out.copy_from_slice(&hash.0[12..]);
    Address(out)
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
    host: &mut BufferedHost<'_, V>,
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
    match run_frame(host, env, frame, depth + 1) {
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
    host: &mut BufferedHost<'_, V>,
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
    match run_frame_at(host, env, frame, depth + 1, false) {
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
    use crate::asm::Asm;
    use crate::host::WorldView;
    use crate::opcode::Op;
    use bp_state::WorldState;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn run_code(
        code: Vec<u8>,
        input: Vec<u8>,
        world: &WorldState,
    ) -> (Result<FrameResult, VmError>, bp_types::RwSet) {
        let view = WorldView::new(world);
        let mut host = BufferedHost::new(&view);
        let frame = Frame {
            address: addr(100),
            caller: addr(1),
            origin: addr(1),
            value: U256::ZERO,
            input,
            code: Arc::new(code),
            gas: 1_000_000,
            gas_price: 1,
            is_static: false,
        };
        let env = BlockEnv::default();
        let res = run_frame(&mut host, &env, frame, 0);
        let (rw, _, _) = host.finish();
        (res, rw)
    }

    fn returns_word(code: Vec<u8>) -> U256 {
        let w = WorldState::new();
        let (res, _) = run_code(code, Vec::new(), &w);
        let out = res.expect("frame ok");
        assert!(!out.reverted);
        U256::from_be_slice(&out.output)
    }

    /// Program suffix: store the stack top at memory 0 and return it.
    fn ret_top(asm: Asm) -> Vec<u8> {
        asm.push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build()
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(2).push_u64(3).op(Op::Add))),
            U256::from(5u64)
        );
        // Stack order: SUB computes top - next.
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(3).push_u64(10).op(Op::Sub))),
            U256::from(7u64)
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(4).push_u64(20).op(Op::Div))),
            U256::from(5u64)
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(0).push_u64(20).op(Op::Div))),
            U256::ZERO
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(7).push_u64(3).op(Op::Exp))),
            U256::from(2187u64)
        );
    }

    #[test]
    fn comparisons_and_logic() {
        // LT pops a then b, tests a < b: push b first.
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(5).push_u64(3).op(Op::Lt))),
            U256::ONE
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(3).push_u64(5).op(Op::Gt))),
            U256::ONE
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(5).push_u64(5).op(Op::Eq))),
            U256::ONE
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(0).op(Op::IsZero))),
            U256::ONE
        );
        assert_eq!(
            returns_word(ret_top(
                Asm::new().push_u64(0b1100).push_u64(0b1010).op(Op::And)
            )),
            U256::from(0b1000u64)
        );
    }

    #[test]
    fn memory_roundtrip() {
        // MSTORE then MLOAD.
        let code = Asm::new()
            .push_u64(0xDEAD)
            .push_u64(64)
            .op(Op::MStore)
            .push_u64(64)
            .op(Op::MLoad);
        assert_eq!(returns_word(ret_top(code)), U256::from(0xDEADu64));
    }

    #[test]
    fn storage_read_write_and_footprint() {
        let mut w = WorldState::new();
        w.set_storage(addr(100), H256::from_low_u64(1), U256::from(7u64));
        // SLOAD slot 1, add 1, SSTORE slot 2.
        let code = Asm::new()
            .push_u64(1)
            .op(Op::SLoad)
            .push_u64(1)
            .op(Op::Add)
            .push_u64(2)
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        let (res, rw) = run_code(code, Vec::new(), &w);
        assert!(!res.unwrap().reverted);
        assert!(rw
            .reads
            .contains_key(&AccessKey::Storage(addr(100), H256::from_low_u64(1))));
        assert_eq!(
            rw.writes[&AccessKey::Storage(addr(100), H256::from_low_u64(2))],
            U256::from(8u64)
        );
    }

    #[test]
    fn sstore_gas_depends_on_prior_value() {
        let mut w = WorldState::new();
        w.set_storage(addr(100), H256::from_low_u64(5), U256::ONE);
        let store = |slot: u64| {
            Asm::new()
                .push_u64(9)
                .push_u64(slot)
                .op(Op::SStore)
                .op(Op::Stop)
                .build()
        };
        let (res_fresh, _) = run_code(store(6), Vec::new(), &w);
        let (res_reset, _) = run_code(store(5), Vec::new(), &w);
        let fresh_used = 1_000_000 - res_fresh.unwrap().gas_left;
        let reset_used = 1_000_000 - res_reset.unwrap().gas_left;
        assert_eq!(fresh_used - reset_used, gas::SSTORE_SET - gas::SSTORE_RESET);
    }

    #[test]
    fn jumps_loop_sums() {
        // for (i = 0; i < 10; i++) acc += i  => acc = 45
        let code = Asm::new()
            .push_u64(0) // acc
            .push_u64(0) // i
            .label("loop")
            // stack: acc i
            .dup(1)
            .push_u64(10)
            .op(Op::Eq)
            .push_label("done")
            .op(Op::JumpI)
            // acc += i
            .dup(1) // acc i i
            .swap(2) // i i acc
            .op(Op::Add) // i acc'
            .swap(1) // acc' i
            .push_u64(1)
            .op(Op::Add) // acc' i+1
            .push_label("loop")
            .op(Op::Jump)
            .label("done")
            .op(Op::Pop); // drop i, leave acc
        assert_eq!(returns_word(ret_top(code)), U256::from(45u64));
    }

    #[test]
    fn invalid_jump_faults() {
        let code = Asm::new().push_u64(1).op(Op::Jump).build();
        let w = WorldState::new();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::InvalidJump);
    }

    #[test]
    fn jumpdest_inside_push_data_is_invalid() {
        // PUSH2 0x005B; JUMP to offset 2 (the 0x5B inside the immediate).
        let code = vec![0x61, 0x00, 0x5B, 0x60, 0x02, 0x56];
        let w = WorldState::new();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::InvalidJump);
    }

    #[test]
    fn stack_underflow_and_overflow() {
        let w = WorldState::new();
        let (res, _) = run_code(vec![Op::Add as u8], Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::StackUnderflow);
        // A block one word short: the entry check refuses it.
        let (res, _) = run_code(vec![Op::Pop as u8], Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::StackUnderflow);

        // Push 1025 times.
        let mut code = Vec::new();
        for _ in 0..1025 {
            code.extend_from_slice(&[0x60, 0x01]);
        }
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::StackOverflow);
    }

    #[test]
    fn out_of_gas_on_tight_budget() {
        let view_world = WorldState::new();
        let view = WorldView::new(&view_world);
        let mut host = BufferedHost::new(&view);
        let frame = Frame {
            address: addr(100),
            caller: addr(1),
            origin: addr(1),
            value: U256::ZERO,
            input: Vec::new(),
            code: Arc::new(
                Asm::new()
                    .push_u64(1)
                    .push_u64(2)
                    .op(Op::Add)
                    .op(Op::Stop)
                    .build(),
            ),
            gas: 5, // two pushes alone need 6
            gas_price: 1,
            is_static: false,
        };
        let res = run_frame(&mut host, &BlockEnv::default(), frame, 0);
        assert_eq!(res.unwrap_err(), VmError::OutOfGas);
    }

    #[test]
    fn calldata_ops() {
        let code = Asm::new().push_u64(0).op(Op::CallDataLoad);
        let w = WorldState::new();
        let mut input = vec![0u8; 32];
        input[31] = 42;
        let (res, _) = run_code(ret_top(code), input, &w);
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::from(42u64));

        // CALLDATASIZE
        let code = ret_top(Asm::new().op(Op::CallDataSize));
        let (res, _) = run_code(code, vec![1, 2, 3], &w);
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::from(3u64));
    }

    #[test]
    fn sha3_of_memory() {
        // keccak256 of 32 zero bytes.
        let code = Asm::new().push_u64(32).push_u64(0).op(Op::Sha3);
        let got = returns_word(ret_top(code));
        assert_eq!(got, keccak256(&[0u8; 32]).to_u256());
    }

    #[test]
    fn revert_returns_payload_and_flag() {
        let code = Asm::new()
            .push_u64(0xBAD)
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Revert)
            .build();
        let w = WorldState::new();
        let (res, _) = run_code(code, Vec::new(), &w);
        let out = res.unwrap();
        assert!(out.reverted);
        assert_eq!(U256::from_be_slice(&out.output), U256::from(0xBADu64));
    }

    #[test]
    fn env_opcodes() {
        assert_eq!(returns_word(ret_top(Asm::new().op(Op::Number))), U256::ONE);
        assert_eq!(
            returns_word(ret_top(Asm::new().op(Op::Caller))),
            address_word(&addr(1))
        );
        assert_eq!(
            returns_word(ret_top(Asm::new().op(Op::Address))),
            address_word(&addr(100))
        );
    }

    #[test]
    fn logs_recorded() {
        let code = Asm::new()
            .push_u64(0xAB) // topic
            .push_u64(0) // len
            .push_u64(0) // offset
            .op(Op::Log1)
            .op(Op::Stop)
            .build();
        let w = WorldState::new();
        let view = WorldView::new(&w);
        let mut host = BufferedHost::new(&view);
        let frame = Frame {
            address: addr(100),
            caller: addr(1),
            origin: addr(1),
            value: U256::ZERO,
            input: Vec::new(),
            code: Arc::new(code),
            gas: 100_000,
            gas_price: 1,
            is_static: false,
        };
        run_frame(&mut host, &BlockEnv::default(), frame, 0).unwrap();
        let (_, logs, _) = host.finish();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].topics, vec![H256::from_low_u64(0xAB)]);
    }

    #[test]
    fn call_transfers_value_to_eoa() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1000u64));
        // CALL(gas=50000, to=addr(55), value=77, no data), return success flag.
        let code = Asm::new()
            .push_u64(0) // out len
            .push_u64(0) // out off
            .push_u64(0) // in len
            .push_u64(0) // in off
            .push_u64(77) // value
            .push(address_word(&addr(55)))
            .push_u64(50_000)
            .op(Op::Call);
        let (res, rw) = run_code(ret_top(code), Vec::new(), &w);
        let out = res.unwrap();
        assert_eq!(U256::from_be_slice(&out.output), U256::ONE);
        assert_eq!(rw.writes[&AccessKey::Balance(addr(55))], U256::from(77u64));
        assert_eq!(
            rw.writes[&AccessKey::Balance(addr(100))],
            U256::from(923u64)
        );
    }

    #[test]
    fn call_to_contract_executes_and_reverts_cleanly() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1000u64));
        // Callee: SSTORE slot0 = 1 then REVERT.
        let callee = Asm::new()
            .push_u64(1)
            .push_u64(0)
            .op(Op::SStore)
            .push_u64(0)
            .push_u64(0)
            .op(Op::Revert)
            .build();
        w.set_code(addr(200), callee);
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0) // no value
            .push(address_word(&addr(200)))
            .push_u64(60_000)
            .op(Op::Call);
        let (res, rw) = run_code(ret_top(code), Vec::new(), &w);
        // Call failed (flag 0) and the callee's SSTORE was rolled back.
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::ZERO);
        assert!(!rw
            .writes
            .contains_key(&AccessKey::Storage(addr(200), H256::from_low_u64(0))));
        // But the read footprint still includes the callee's code and slot.
        assert!(rw.reads.contains_key(&AccessKey::Code(addr(200))));
    }

    #[test]
    fn create_deploys_code() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1000u64));
        // Init code: return 2 bytes 0x6000 (PUSH1 0) as the deployed code.
        // MSTORE8 them then RETURN(0, 2).
        let init = Asm::new()
            .push_u64(0x60)
            .push_u64(0)
            .op(Op::MStore8)
            .push_u64(0x00)
            .push_u64(1)
            .op(Op::MStore8)
            .push_u64(2)
            .push_u64(0)
            .op(Op::Return)
            .build();
        // Caller program: write init into memory byte by byte, then CREATE.
        let mut asm = Asm::new();
        for (i, b) in init.iter().enumerate() {
            asm = asm.push_u64(*b as u64).push_u64(i as u64).op(Op::MStore8);
        }
        let code = asm
            .push_u64(init.len() as u64)
            .push_u64(0)
            .push_u64(0) // value
            .op(Op::Create);
        let (res, rw) = run_code(ret_top(code), Vec::new(), &w);
        let created_word = U256::from_be_slice(&res.unwrap().output);
        assert_ne!(created_word, U256::ZERO);
        let created = word_address(created_word);
        assert_eq!(created, create_address(&addr(100), 0));
        // Code write recorded; creator nonce bumped.
        assert!(rw.writes.contains_key(&AccessKey::Code(created)));
        assert_eq!(rw.writes[&AccessKey::Nonce(addr(100))], U256::ONE);
    }

    #[test]
    fn call_depth_limit() {
        // A contract that calls itself with all gas.
        let mut w = WorldState::new();
        let self_addr = addr(100);
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&self_addr))
            .push_u64(1_000_000_000)
            .op(Op::Call)
            .op(Op::Stop)
            .build();
        w.set_code(self_addr, code.clone());
        let (res, _) = run_code(code, Vec::new(), &w);
        // The outermost frame completes; inner frames stop recursing at the
        // depth limit without poisoning the whole transaction.
        assert!(res.is_ok());
    }

    #[test]
    fn signed_opcodes() {
        let neg = |v: u64| U256::from(v).wrapping_neg();
        // SDIV: -6 / 3 = -2 (push divisor first, dividend on top).
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(3).push(neg(6)).op(Op::SDiv))),
            neg(2)
        );
        // SMOD: -7 % 3 = -1.
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(3).push(neg(7)).op(Op::SMod))),
            neg(1)
        );
        // SLT: -1 < 1.
        assert_eq!(
            returns_word(ret_top(Asm::new().push_u64(1).push(neg(1)).op(Op::Slt))),
            U256::ONE
        );
        // SGT: 1 > -1.
        assert_eq!(
            returns_word(ret_top(Asm::new().push(neg(1)).push_u64(1).op(Op::Sgt))),
            U256::ONE
        );
        // SIGNEXTEND(0, 0xFF) = -1.
        assert_eq!(
            returns_word(ret_top(
                Asm::new().push_u64(0xFF).push_u64(0).op(Op::SignExtend)
            )),
            U256::MAX
        );
        // SAR: -4 >> 1 = -2.
        assert_eq!(
            returns_word(ret_top(Asm::new().push(neg(4)).push_u64(1).op(Op::Sar))),
            neg(2)
        );
    }

    #[test]
    fn extcodecopy_reads_other_contract() {
        let mut w = WorldState::new();
        w.set_code(addr(200), vec![0xDE, 0xAD, 0xBE, 0xEF]);
        let code = Asm::new()
            .push_u64(4) // len
            .push_u64(0) // code offset
            .push_u64(0) // mem offset
            .push(address_word(&addr(200)))
            .op(Op::ExtCodeCopy)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let (res, rw) = run_code(code, Vec::new(), &w);
        let out = res.unwrap().output;
        assert_eq!(&out[..4], &[0xDE, 0xAD, 0xBE, 0xEF]);
        // Reading foreign code is part of the footprint.
        assert!(rw.reads.contains_key(&AccessKey::Code(addr(200))));
    }

    #[test]
    fn codecopy_reads_own_code() {
        // Copy the first 4 bytes of code to memory and return the word.
        let code = Asm::new()
            .push_u64(4) // len
            .push_u64(0) // code offset
            .push_u64(0) // mem offset
            .op(Op::CodeCopy)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let w = WorldState::new();
        let (res, _) = run_code(code.clone(), Vec::new(), &w);
        let out = res.unwrap().output;
        assert_eq!(&out[..4], &code[..4]);
        assert!(out[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn returndata_roundtrip() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1_000_000u64));
        // Callee returns 0x2A.
        let callee = ret_top(Asm::new().push_u64(0x2A));
        w.set_code(addr(200), callee);
        // Caller: CALL with zero out area, then RETURNDATASIZE /
        // RETURNDATACOPY the word into memory and return it.
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&addr(200)))
            .push_u64(60_000)
            .op(Op::Call)
            .op(Op::Pop)
            .op(Op::ReturnDataSize) // should be 32
            .push_u64(0) // src
            .push_u64(0) // dst
            .op(Op::ReturnDataCopy)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(
            U256::from_be_slice(&res.unwrap().output),
            U256::from(0x2Au64)
        );
    }

    #[test]
    fn returndatacopy_out_of_bounds_faults() {
        let w = WorldState::new();
        // No prior call: return buffer is empty; copying 1 byte faults.
        let code = Asm::new()
            .push_u64(1)
            .push_u64(0)
            .push_u64(0)
            .op(Op::ReturnDataCopy)
            .build();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(res.unwrap_err(), VmError::ReturnDataOutOfBounds);
    }

    #[test]
    fn staticcall_blocks_state_mutation() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1_000_000u64));
        // Callee tries to SSTORE.
        let callee = Asm::new()
            .push_u64(1)
            .push_u64(0)
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        w.set_code(addr(200), callee);
        // STATICCALL it; push the success flag.
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&addr(200)))
            .push_u64(60_000)
            .op(Op::StaticCall);
        let (res, rw) = run_code(ret_top(code), Vec::new(), &w);
        // The inner frame faulted with StaticViolation → flag is 0.
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::ZERO);
        assert!(!rw
            .writes
            .contains_key(&AccessKey::Storage(addr(200), H256::from_low_u64(0))));
    }

    #[test]
    fn staticcall_allows_reads() {
        let mut w = WorldState::new();
        w.set_storage(addr(200), H256::from_low_u64(0), U256::from(99u64));
        w.set_code(addr(200), ret_top(Asm::new().push_u64(0).op(Op::SLoad)));
        let code = Asm::new()
            .push_u64(32) // out len
            .push_u64(0) // out off
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&addr(200)))
            .push_u64(60_000)
            .op(Op::StaticCall)
            .op(Op::Pop)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::from(99u64));
    }

    #[test]
    fn delegatecall_uses_caller_storage() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1_000_000u64));
        // Library code: SSTORE(0, 7).
        let library = Asm::new()
            .push_u64(7)
            .push_u64(0)
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        w.set_code(addr(300), library);
        // Caller DELEGATECALLs the library: the write must land in the
        // *caller's* storage (addr 100), not the library's.
        let code = Asm::new()
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&addr(300)))
            .push_u64(60_000)
            .op(Op::DelegateCall);
        let (res, rw) = run_code(ret_top(code), Vec::new(), &w);
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::ONE);
        assert_eq!(
            rw.writes[&AccessKey::Storage(addr(100), H256::from_low_u64(0))],
            U256::from(7u64)
        );
        assert!(!rw
            .writes
            .contains_key(&AccessKey::Storage(addr(300), H256::from_low_u64(0))));
    }

    #[test]
    fn static_context_propagates_through_calls() {
        let mut w = WorldState::new();
        w.set_balance(addr(100), U256::from(1_000_000u64));
        // Inner: SSTORE.
        let inner = Asm::new()
            .push_u64(1)
            .push_u64(0)
            .op(Op::SStore)
            .op(Op::Stop)
            .build();
        w.set_code(addr(201), inner);
        // Middle: plain CALL to inner, returns inner's success flag.
        let middle = ret_top(
            Asm::new()
                .push_u64(0)
                .push_u64(0)
                .push_u64(0)
                .push_u64(0)
                .push_u64(0)
                .push(address_word(&addr(201)))
                .push_u64(40_000)
                .op(Op::Call),
        );
        w.set_code(addr(200), middle);
        // Outer: STATICCALL middle, copy its 32-byte answer out.
        let code = Asm::new()
            .push_u64(32)
            .push_u64(0)
            .push_u64(0)
            .push_u64(0)
            .push(address_word(&addr(200)))
            .push_u64(80_000)
            .op(Op::StaticCall)
            .op(Op::Pop)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        let (res, rw) = run_code(code, Vec::new(), &w);
        // The middle frame ran, but its CALL inherited the static flag, so
        // the inner SSTORE faulted and middle saw flag 0.
        assert_eq!(U256::from_be_slice(&res.unwrap().output), U256::ZERO);
        assert!(!rw
            .writes
            .contains_key(&AccessKey::Storage(addr(201), H256::from_low_u64(0))));
    }

    #[test]
    fn truncated_push_zero_pads() {
        // Code ends mid-PUSH32: remaining bytes read as zero, then implicit
        // STOP. The stack value is `0x01` followed by 31 zero bytes.
        let code = vec![0x7F, 0x01];
        let w = WorldState::new();
        let (res, _) = run_code(code, Vec::new(), &w);
        assert!(!res.unwrap().reverted);
    }
}
