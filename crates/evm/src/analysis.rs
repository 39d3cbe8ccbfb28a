//! Per-contract code analysis and the shared analysis cache.
//!
//! The interpreter used to recompute the valid-jumpdest set on every frame
//! and charge gas one opcode at a time. This module computes everything that
//! is a pure function of the bytecode **once** per code blob:
//!
//! * the instruction stream, pre-decoded into fixed-size [`Inst`] records
//!   (PUSH immediates resolved, including end-of-code truncation);
//! * basic-block boundaries with, per block, the summed **static gas** and
//!   the stack-height preconditions (`need`, `max_growth`) that let the hot
//!   loop precharge gas and pre-validate the stack once per block instead of
//!   once per opcode;
//! * the valid-jumpdest map (`pc → block index`), with PUSH immediates —
//!   including a PUSH whose immediate is truncated by the end of code —
//!   never contributing phantom destinations.
//!
//! Block boundaries are chosen so the rewrite is *observationally identical*
//! to per-opcode metering for every completed frame: a block ends not only
//! at control flow (`JUMP`, `JUMPI`, `JUMPDEST`, halts) but also right after
//! `GAS` and right before the gas-forwarding instructions (`CALL` family,
//! `CREATE` — which terminate their block), so every instruction that
//! *observes* `gas_left` sees exactly the per-opcode value. Within a block
//! execution is straight-line: it either runs to the end or faults, so
//! precharging the whole block never overcharges a successful path. The only
//! permitted divergence is the *error kind* inside an already-doomed frame
//! (e.g. out-of-gas reported where the old loop would first hit a stack
//! underflow); receipts, gas accounting, state deltas and logs are
//! unaffected because every `VmError` consumes the frame's full gas.
//!
//! One process-wide cache ([`cached`]) shares the artifacts across proposer
//! workers and validator jobs: a bounded, sharded map keyed by the code's
//! `Arc` pointer (the world state hands out the same `Arc` per contract, so
//! a lookup never hashes the code).

use std::collections::VecDeque;
use std::sync::Arc;

// Shard maps are keyed by code pointer — fixed-size, non-attacker-growable
// keys, so the fast Fx hash applies.
use bp_types::{FxBuildHasher, FxHashMap as HashMap};

use bp_concurrent::sync::Mutex;

use bp_types::{Gas, U256};

use crate::gas;
use crate::opcode::{Op, DUP1, DUP16, PUSH1, PUSH32, SWAP1, SWAP16};

/// Sentinel block index for "not a valid jump destination".
pub const INVALID_BLOCK: u32 = u32::MAX;

/// Decoded instruction kinds: one per opcode family the interpreter
/// dispatches on. The discriminants index the interpreter's handler table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Kind {
    Stop = 0,
    Add,
    Mul,
    Sub,
    Div,
    SDiv,
    Mod,
    SMod,
    AddMod,
    MulMod,
    Exp,
    SignExtend,
    Lt,
    Gt,
    Slt,
    Sgt,
    Eq,
    IsZero,
    And,
    Or,
    Xor,
    Not,
    Byte,
    Shl,
    Shr,
    Sar,
    Sha3,
    Address,
    Balance,
    Origin,
    Caller,
    CallValue,
    CallDataLoad,
    CallDataSize,
    CallDataCopy,
    CodeSize,
    CodeCopy,
    GasPrice,
    ExtCodeSize,
    ExtCodeCopy,
    ReturnDataSize,
    ReturnDataCopy,
    Coinbase,
    Timestamp,
    Number,
    GasLimit,
    SelfBalance,
    Pop,
    MLoad,
    MStore,
    MStore8,
    SLoad,
    SStore,
    Jump,
    JumpI,
    Pc,
    MSize,
    Gas,
    JumpDest,
    Log,
    Create,
    Call,
    DelegateCall,
    StaticCall,
    Return,
    Revert,
    /// Undefined or explicitly invalid opcode; `a` carries the byte.
    Abort,
    /// PUSH1..32 with the immediate pre-resolved; `a` indexes [`CodeAnalysis`]'s
    /// immediate pool.
    Push,
    /// DUPn; `a` = n.
    Dup,
    /// SWAPn; `a` = n.
    Swap,
}

/// Number of instruction kinds (the handler-table length).
pub const KIND_COUNT: usize = Kind::Swap as usize + 1;

/// One pre-decoded instruction per opcode: 12 bytes, immediates out-of-line.
#[derive(Clone, Copy, Debug)]
pub struct Inst {
    /// Dispatch kind.
    pub kind: Kind,
    /// Kind-specific operand (immediate-pool index, DUP/SWAP depth, LOG
    /// topic count, abort byte).
    pub a: u32,
    /// Bytecode offset of the source opcode, for `PC`.
    pub pc: u32,
}

/// One basic block: a straight-line run of instructions with precomputed
/// entry preconditions.
#[derive(Clone, Copy, Debug)]
pub struct BlockInfo {
    /// First instruction index.
    pub first: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Sum of the static gas of every source opcode in the block, charged
    /// once at block entry.
    pub static_gas: Gas,
    /// Minimum stack depth at entry.
    pub need: u32,
    /// Maximum stack growth over the block relative to entry.
    pub max_growth: u32,
}

/// Everything the interpreter needs to run one code blob, computed once.
pub struct CodeAnalysis {
    /// The decoded instruction stream, one [`Inst`] per opcode.
    pub(crate) insts: Vec<Inst>,
    /// Basic blocks over `insts`; the last block is a synthetic `STOP` so a
    /// fall-through off the end of any block is always well-defined.
    pub(crate) blocks: Vec<BlockInfo>,
    /// PUSH immediate pool.
    pub(crate) imms: Vec<U256>,
    /// `pc → block index` for valid JUMPDESTs, [`INVALID_BLOCK`] elsewhere.
    pub(crate) pc_block: Vec<u32>,
}

/// Raw per-opcode decode record, with the stack and gas effects the block
/// summaries add up.
struct RawInst {
    pc: u32,
    kind: Kind,
    a: u32,
    pops: u16,
    pushes: u16,
    static_gas: Gas,
    term: bool,
}

impl CodeAnalysis {
    /// Analyzes `code`: decode, block partition, stack/gas summaries.
    pub fn analyze(bytes: &[u8]) -> CodeAnalysis {
        let mut imms: Vec<U256> = Vec::new();
        let mut raws: Vec<RawInst> = Vec::with_capacity(bytes.len());

        // Pass 1: linear decode, skipping PUSH immediates. A PUSH whose
        // immediate runs past the end of code consumes exactly the bytes
        // that exist (zero-padding the value on the right, per spec) and
        // never lets trailing 0x5B bytes inside the immediate window become
        // jump destinations — the walk simply ends.
        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            if (PUSH1..=PUSH32).contains(&b) {
                let n = (b - PUSH1) as usize + 1;
                let end = (i + 1 + n).min(bytes.len());
                let v = U256::from_be_slice(&bytes[i + 1..end]);
                let missing = (i + 1 + n - end) as u32;
                imms.push(v << (8 * missing));
                raws.push(RawInst {
                    pc: i as u32,
                    kind: Kind::Push,
                    a: (imms.len() - 1) as u32,
                    pops: 0,
                    pushes: 1,
                    static_gas: gas::VERYLOW,
                    term: false,
                });
                i += 1 + n;
                continue;
            }
            if (DUP1..=DUP16).contains(&b) {
                let n = (b - DUP1) as u16 + 1;
                raws.push(RawInst {
                    pc: i as u32,
                    kind: Kind::Dup,
                    a: n as u32,
                    // Modeled as "needs n, nets +1" for the block summary.
                    pops: n,
                    pushes: n + 1,
                    static_gas: gas::VERYLOW,
                    term: false,
                });
                i += 1;
                continue;
            }
            if (SWAP1..=SWAP16).contains(&b) {
                let n = (b - SWAP1) as u16 + 1;
                raws.push(RawInst {
                    pc: i as u32,
                    kind: Kind::Swap,
                    a: n as u32,
                    pops: n + 1,
                    pushes: n + 1,
                    static_gas: gas::VERYLOW,
                    term: false,
                });
                i += 1;
                continue;
            }
            raws.push(decode_simple(i as u32, b));
            i += 1;
        }

        // Pass 2: block partition. A block starts at instruction 0, at every
        // JUMPDEST (always a valid destination here: immediates were skipped
        // above) and after every terminator (control flow, halts, GAS and
        // the gas-forwarding CALL/CREATE family).
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        for j in 0..raws.len() {
            if j > start && (raws[j].kind == Kind::JumpDest || raws[j - 1].term) {
                ranges.push((start, j));
                start = j;
            }
        }
        if start < raws.len() {
            ranges.push((start, raws.len()));
        }

        let mut pc_block = vec![INVALID_BLOCK; bytes.len()];
        for (bi, &(s, _)) in ranges.iter().enumerate() {
            if raws[s].kind == Kind::JumpDest {
                pc_block[raws[s].pc as usize] = bi as u32;
            }
        }

        // Pass 3: per-block summaries. The stream is one `Inst` per opcode,
        // so a block's instruction range is its opcode range.
        let mut blocks: Vec<BlockInfo> = Vec::with_capacity(ranges.len() + 1);
        for &(s, e) in &ranges {
            let mut static_gas: Gas = 0;
            let mut h: i64 = 0;
            let mut need: i64 = 0;
            let mut maxh: i64 = 0;
            for r in &raws[s..e] {
                static_gas += r.static_gas;
                let deficit = r.pops as i64 - h;
                if deficit > need {
                    need = deficit;
                }
                h = h - r.pops as i64 + r.pushes as i64;
                if h > maxh {
                    maxh = h;
                }
            }
            blocks.push(BlockInfo {
                first: s as u32,
                end: e as u32,
                static_gas,
                need: need as u32,
                max_growth: maxh as u32,
            });
        }

        let mut insts: Vec<Inst> = Vec::with_capacity(raws.len() + 1);
        insts.extend(raws.iter().map(|r| Inst {
            kind: r.kind,
            a: r.a,
            pc: r.pc,
        }));
        // Synthetic halt: running off the end of code (or of any
        // falls-through block at the end of the stream) is an implicit STOP.
        insts.push(Inst {
            kind: Kind::Stop,
            a: 0,
            pc: bytes.len() as u32,
        });
        blocks.push(BlockInfo {
            first: raws.len() as u32,
            end: insts.len() as u32,
            static_gas: 0,
            need: 0,
            max_growth: 0,
        });

        CodeAnalysis {
            insts,
            blocks,
            imms,
            pc_block,
        }
    }
}

/// Decodes a non-PUSH/DUP/SWAP byte into its raw record.
fn decode_simple(pc: u32, b: u8) -> RawInst {
    use Kind as K;
    let (kind, a, pops, pushes, static_gas, term) = match Op::from_byte(b) {
        Some(Op::Stop) => (K::Stop, 0, 0, 0, 0, true),
        Some(Op::Add) => (K::Add, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Mul) => (K::Mul, 0, 2, 1, gas::LOW, false),
        Some(Op::Sub) => (K::Sub, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Div) => (K::Div, 0, 2, 1, gas::LOW, false),
        Some(Op::SDiv) => (K::SDiv, 0, 2, 1, gas::LOW, false),
        Some(Op::Mod) => (K::Mod, 0, 2, 1, gas::LOW, false),
        Some(Op::SMod) => (K::SMod, 0, 2, 1, gas::LOW, false),
        Some(Op::AddMod) => (K::AddMod, 0, 3, 1, gas::MID, false),
        Some(Op::MulMod) => (K::MulMod, 0, 3, 1, gas::MID, false),
        Some(Op::Exp) => (K::Exp, 0, 2, 1, gas::EXP, false),
        Some(Op::SignExtend) => (K::SignExtend, 0, 2, 1, gas::LOW, false),
        Some(Op::Lt) => (K::Lt, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Gt) => (K::Gt, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Slt) => (K::Slt, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Sgt) => (K::Sgt, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Eq) => (K::Eq, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::IsZero) => (K::IsZero, 0, 1, 1, gas::VERYLOW, false),
        Some(Op::And) => (K::And, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Or) => (K::Or, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Xor) => (K::Xor, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Not) => (K::Not, 0, 1, 1, gas::VERYLOW, false),
        Some(Op::Byte) => (K::Byte, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Shl) => (K::Shl, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Shr) => (K::Shr, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Sar) => (K::Sar, 0, 2, 1, gas::VERYLOW, false),
        Some(Op::Sha3) => (K::Sha3, 0, 2, 1, gas::SHA3, false),
        Some(Op::Address) => (K::Address, 0, 0, 1, gas::BASE, false),
        Some(Op::Balance) => (K::Balance, 0, 1, 1, gas::BALANCE, false),
        Some(Op::Origin) => (K::Origin, 0, 0, 1, gas::BASE, false),
        Some(Op::Caller) => (K::Caller, 0, 0, 1, gas::BASE, false),
        Some(Op::CallValue) => (K::CallValue, 0, 0, 1, gas::BASE, false),
        Some(Op::CallDataLoad) => (K::CallDataLoad, 0, 1, 1, gas::VERYLOW, false),
        Some(Op::CallDataSize) => (K::CallDataSize, 0, 0, 1, gas::BASE, false),
        Some(Op::CallDataCopy) => (K::CallDataCopy, 0, 3, 0, gas::VERYLOW, false),
        Some(Op::CodeSize) => (K::CodeSize, 0, 0, 1, gas::BASE, false),
        Some(Op::CodeCopy) => (K::CodeCopy, 0, 3, 0, gas::VERYLOW, false),
        Some(Op::GasPrice) => (K::GasPrice, 0, 0, 1, gas::BASE, false),
        Some(Op::ExtCodeSize) => (K::ExtCodeSize, 0, 1, 1, gas::BALANCE, false),
        Some(Op::ExtCodeCopy) => (K::ExtCodeCopy, 0, 4, 0, gas::BALANCE, false),
        Some(Op::ReturnDataSize) => (K::ReturnDataSize, 0, 0, 1, gas::BASE, false),
        Some(Op::ReturnDataCopy) => (K::ReturnDataCopy, 0, 3, 0, gas::VERYLOW, false),
        Some(Op::Coinbase) => (K::Coinbase, 0, 0, 1, gas::BASE, false),
        Some(Op::Timestamp) => (K::Timestamp, 0, 0, 1, gas::BASE, false),
        Some(Op::Number) => (K::Number, 0, 0, 1, gas::BASE, false),
        Some(Op::GasLimit) => (K::GasLimit, 0, 0, 1, gas::BASE, false),
        Some(Op::SelfBalance) => (K::SelfBalance, 0, 0, 1, gas::SELFBALANCE, false),
        Some(Op::Pop) => (K::Pop, 0, 1, 0, gas::BASE, false),
        Some(Op::MLoad) => (K::MLoad, 0, 1, 1, gas::VERYLOW, false),
        Some(Op::MStore) => (K::MStore, 0, 2, 0, gas::VERYLOW, false),
        Some(Op::MStore8) => (K::MStore8, 0, 2, 0, gas::VERYLOW, false),
        Some(Op::SLoad) => (K::SLoad, 0, 1, 1, gas::SLOAD, false),
        // SSTORE's cost is entirely value-dependent (set vs reset): nothing
        // static to precharge.
        Some(Op::SStore) => (K::SStore, 0, 2, 0, 0, false),
        Some(Op::Jump) => (K::Jump, 0, 1, 0, gas::MID, true),
        Some(Op::JumpI) => (K::JumpI, 0, 2, 0, gas::HIGH, true),
        Some(Op::Pc) => (K::Pc, 0, 0, 1, gas::BASE, false),
        Some(Op::MSize) => (K::MSize, 0, 0, 1, gas::BASE, false),
        // GAS observes gas_left, so it must be the last instruction of its
        // block: everything up to and including its own BASE cost is then
        // precharged, and nothing after it is.
        Some(Op::Gas) => (K::Gas, 0, 0, 1, gas::BASE, true),
        Some(Op::JumpDest) => (K::JumpDest, 0, 0, 0, gas::JUMPDEST, false),
        Some(Op::Log0) => (K::Log, 0, 2, 0, gas::LOG, false),
        Some(op @ (Op::Log1 | Op::Log2 | Op::Log3 | Op::Log4)) => {
            let t = (op as u8 - Op::Log0 as u8) as u32;
            (
                K::Log,
                t,
                2 + t as u16,
                0,
                gas::LOG + gas::LOG_TOPIC * t as u64,
                false,
            )
        }
        // The gas-forwarding family terminates its block so the 63/64 cap
        // observes exactly the per-opcode gas_left; their static base is
        // part of the block precharge, dynamic parts are charged inline.
        Some(Op::Create) => (K::Create, 0, 3, 1, gas::CREATE, true),
        Some(Op::Call) => (K::Call, 0, 7, 1, gas::CALL, true),
        Some(Op::DelegateCall) => (K::DelegateCall, 0, 6, 1, gas::CALL, true),
        Some(Op::StaticCall) => (K::StaticCall, 0, 6, 1, gas::CALL, true),
        Some(Op::Return) => (K::Return, 0, 2, 0, 0, true),
        Some(Op::Revert) => (K::Revert, 0, 2, 0, 0, true),
        Some(Op::Invalid) | None => (K::Abort, b as u32, 0, 0, 0, true),
    };
    RawInst {
        pc,
        kind,
        a,
        pops,
        pushes,
        static_gas,
        term,
    }
}

const SHARDS: usize = 16;
/// Entry bound of the cache, over all shards.
const CAPACITY: usize = 4096;

/// One cached analysis. Holding the looked-up `Arc` pins the allocation, so
/// its address cannot be reused for different bytes while the entry lives:
/// the pointer key stays correct for the entry's lifetime.
struct Entry {
    _pin: Arc<Vec<u8>>,
    analysis: Arc<CodeAnalysis>,
}

struct Shard {
    map: HashMap<usize, Entry>,
    order: VecDeque<usize>,
}

/// A bounded, concurrent cache of [`CodeAnalysis`] artifacts, keyed by the
/// address of the code's `Arc`: the state layer hands out one `Arc` per
/// contract, so a lookup never hashes the code. Sharded, mutex-protected
/// and FIFO-bounded.
struct AnalysisCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Analyses run, for the once-per-blob test.
    #[cfg(test)]
    analyses: std::sync::atomic::AtomicUsize,
}

/// The process-wide cache every executor shares: proposer workers,
/// validator jobs and the serial oracle.
static CACHE: AnalysisCache = AnalysisCache::new();

/// The analysis of `code`, computed at most once per blob while its entry
/// lives.
pub(crate) fn cached(code: &Arc<Vec<u8>>) -> Arc<CodeAnalysis> {
    CACHE.get(code)
}

impl AnalysisCache {
    const fn new() -> AnalysisCache {
        AnalysisCache {
            shards: [const {
                Mutex::new(Shard {
                    map: HashMap::with_hasher(FxBuildHasher::new()),
                    order: VecDeque::new(),
                })
            }; SHARDS],
            #[cfg(test)]
            analyses: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn get(&self, code: &Arc<Vec<u8>>) -> Arc<CodeAnalysis> {
        let ptr = Arc::as_ptr(code) as usize;
        let mut shard = self.shards[mix(ptr) % SHARDS].lock();
        if let Some(e) = shard.map.get(&ptr) {
            return Arc::clone(&e.analysis);
        }
        // Analyze under the shard lock: a second thread missing the same
        // blob waits here and then hits. `analyze` is pure and takes no
        // other lock.
        #[cfg(test)]
        self.analyses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let analysis = Arc::new(CodeAnalysis::analyze(code));
        shard.map.insert(
            ptr,
            Entry {
                _pin: Arc::clone(code),
                analysis: Arc::clone(&analysis),
            },
        );
        shard.order.push_back(ptr);
        if shard.map.len() > CAPACITY / SHARDS {
            if let Some(old) = shard.order.pop_front() {
                shard.map.remove(&old);
            }
        }
        analysis
    }
}

/// Cheap pointer-to-shard mixer (Fibonacci hashing on the high bits).
fn mix(ptr: usize) -> usize {
    ptr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn analyze(code: Vec<u8>) -> CodeAnalysis {
        CodeAnalysis::analyze(&code)
    }

    fn is_jumpdest(an: &CodeAnalysis, pc: usize) -> bool {
        an.pc_block.get(pc).is_some_and(|&b| b != INVALID_BLOCK)
    }

    #[test]
    fn truncated_push_marks_no_phantom_jumpdests() {
        // PUSH32 with only two immediate bytes present, both 0x5B: the walk
        // must not treat the truncated immediate as code.
        let an = analyze(vec![0x7F, 0x5B, 0x5B]);
        assert!(!is_jumpdest(&an, 0));
        assert!(!is_jumpdest(&an, 1));
        assert!(!is_jumpdest(&an, 2));
        // Same with PUSH2 exactly at the boundary.
        let an = analyze(vec![0x61, 0x5B]);
        assert!(!is_jumpdest(&an, 1));
    }

    #[test]
    fn jumpdest_in_push_immediate_is_invalid_but_real_one_is_valid() {
        // PUSH2 0x005B | JUMPDEST
        let an = analyze(vec![0x61, 0x00, 0x5B, 0x5B]);
        assert!(!is_jumpdest(&an, 2));
        assert!(is_jumpdest(&an, 3));
    }

    #[test]
    fn blocks_split_at_control_flow_and_gas_observers() {
        // PUSH1 0 | GAS | PUSH1 1 | JUMPDEST — GAS ends a block, JUMPDEST
        // starts one, plus the synthetic trailing STOP.
        let code = Asm::new()
            .push_u64(0)
            .op(Op::Gas)
            .push_u64(1)
            .label("x")
            .build();
        let an = analyze(code);
        // [PUSH GAS] [PUSH] [JUMPDEST] [synthetic STOP]
        assert_eq!(an.blocks.len(), 4);
        let b0 = an.blocks[0];
        assert_eq!(b0.static_gas, gas::VERYLOW + gas::BASE);
        assert_eq!(b0.need, 0);
        assert_eq!(b0.max_growth, 2);
    }

    #[test]
    fn block_stack_summary_matches_per_op_simulation() {
        // ADD needs two, nets -1; then PUSH grows by one.
        let code = Asm::new().op(Op::Add).push_u64(1).op(Op::Stop).build();
        let an = analyze(code);
        let b0 = an.blocks[0];
        assert_eq!(b0.need, 2);
        // After ADD: -1; after PUSH: 0 → growth never exceeds 0.
        assert_eq!(b0.max_growth, 0);
    }

    /// `PC` reads `Inst::pc` and a jump lands on the first instruction of
    /// its block, so the stream must be exactly the opcodes, in order, with
    /// the immediates pooled in order: no pair is merged into one record.
    #[test]
    fn one_inst_per_opcode_in_order_with_pooled_immediates() {
        let code = vec![
            0x60, 0x01, // 0: PUSH1 1
            0x60, 0x08, // 2: PUSH1 8
            0x57, // 4: JUMPI
            0x60, 0x08, // 5: PUSH1 8
            0x56, // 7: JUMP
            0x5B, // 8: JUMPDEST
            0x60, 0x40, // 9: PUSH1 0x40
            0x60, 0x05, // 11: PUSH1 5
            0x81, // 13: DUP2
            0x52, // 14: MSTORE
            0x62, 0xAA, 0xBB, // 15: PUSH3, truncated by the end of code
        ];
        let an = analyze(code);
        let stream: Vec<(Kind, u32, u32)> = an.insts.iter().map(|i| (i.kind, i.a, i.pc)).collect();
        assert_eq!(
            stream,
            [
                (Kind::Push, 0, 0),
                (Kind::Push, 1, 2),
                (Kind::JumpI, 0, 4),
                (Kind::Push, 2, 5),
                (Kind::Jump, 0, 7),
                (Kind::JumpDest, 0, 8),
                (Kind::Push, 3, 9),
                (Kind::Push, 4, 11),
                (Kind::Dup, 2, 13),
                (Kind::MStore, 0, 14),
                (Kind::Push, 5, 15),
                (Kind::Stop, 0, 18), // the synthetic trailing STOP
            ]
        );
        let imms: Vec<U256> = [1u64, 8, 8, 0x40, 5, 0xAA_BB00]
            .into_iter()
            .map(U256::from)
            .collect();
        assert_eq!(an.imms, imms);
        // The jump target's block starts at the JUMPDEST instruction.
        let target = an.blocks[an.pc_block[8] as usize];
        assert_eq!(target.first, 5);
        assert_eq!(an.insts[target.first as usize].pc, 8);
    }

    #[test]
    fn empty_code_is_single_synthetic_stop() {
        let an = analyze(Vec::new());
        assert_eq!(an.blocks.len(), 1);
        assert_eq!(an.insts[0].kind, Kind::Stop);
    }

    fn entries(cache: &AnalysisCache) -> usize {
        cache.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    fn analyses(cache: &AnalysisCache) -> usize {
        cache.analyses.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn cache_hits_by_pointer() {
        let cache = AnalysisCache::new();
        let code = Arc::new(Asm::new().push_u64(1).op(Op::Stop).build());
        let a1 = cache.get(&code);
        // Same Arc: a hit, no second analysis.
        let a2 = cache.get(&code);
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(analyses(&cache), 1);
        // A different Arc is a different key, even over the same bytes.
        let copy = Arc::new((*code).clone());
        assert!(!Arc::ptr_eq(&a1, &cache.get(&copy)));
        assert_eq!(analyses(&cache), 2);
    }

    #[test]
    fn cache_bound_evicts_fifo() {
        let cache = AnalysisCache::new();
        let blobs: Vec<Arc<Vec<u8>>> = (0..CAPACITY as u64 + 200)
            .map(|i| Arc::new(Asm::new().push_u64(i).op(Op::Stop).build()))
            .collect();
        for b in &blobs {
            cache.get(b);
        }
        assert!(entries(&cache) <= CAPACITY);
        // Still correct after eviction: a re-fetch recomputes.
        let evicted = blobs.iter().find(|b| {
            let shard = cache.shards[mix(Arc::as_ptr(b) as usize) % SHARDS].lock();
            !shard.map.contains_key(&(Arc::as_ptr(b) as usize))
        });
        let again = cache.get(evicted.expect("the bound evicted an entry"));
        assert_eq!(again.insts.len(), 3); // PUSH, STOP, synthetic STOP
        assert_eq!(analyses(&cache), blobs.len() + 1);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let cache = AnalysisCache::new();
        let code = Arc::new(crate::contracts::token());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let an = cache.get(&code);
                        assert!(an.blocks.len() > 1);
                    }
                });
            }
        });
        assert_eq!(analyses(&cache), 1);
    }

    /// Threads released together on fresh blobs each analyse every blob
    /// exactly once: the miss analyses under its shard's lock, so a racing
    /// thread waits and then hits instead of analysing again.
    #[test]
    fn racing_threads_analyse_each_blob_once() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 100;
        let cache = AnalysisCache::new();
        let blobs: Vec<Arc<Vec<u8>>> = [crate::contracts::token(), crate::contracts::amm_pair()]
            .into_iter()
            .cycle()
            .take(ROUNDS)
            .map(Arc::new)
            .collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for blob in &blobs {
                        start.wait();
                        assert!(cache.get(blob).blocks.len() > 1);
                    }
                });
            }
        });
        assert_eq!(analyses(&cache), ROUNDS);
    }
}
