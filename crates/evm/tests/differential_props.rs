//! Randomized differential properties: the optimized engine vs the retained
//! reference interpreter on generated programs and raw byte soup.
//!
//! The oracle matches `differential.rs`: receipts (status, gas, output,
//! logs, fee, created), write sets and deployed code must be identical;
//! read sets must be identical on success and a subset on doomed frames
//! (block-entry pre-validation aborts earlier than the reference's
//! mid-block fault, skipping trailing reads of the dying block).

use bp_evm::asm::Asm;
use bp_evm::opcode::Op;
use bp_evm::reference::execute_transaction_reference;
use bp_evm::{contracts, execute_transaction, BlockEnv, Transaction, WorldView};
use bp_state::WorldState;
use bp_testkit::prelude::*;
use bp_types::{Address, U256};

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

fn assert_equivalent(world: &WorldState, env: &BlockEnv, tx: &Transaction) {
    let view = WorldView::new(world);
    let opt = execute_transaction(&view, env, tx);
    let refr = execute_transaction_reference(&view, env, tx);
    match (opt, refr) {
        (Ok(o), Ok(r)) => {
            assert_eq!(o.receipt, r.receipt, "receipt diverged");
            if o.receipt.success {
                assert_eq!(o.rw.reads, r.rw.reads, "read set diverged");
            } else {
                for key in o.rw.reads.keys() {
                    assert!(
                        r.rw.reads.contains_key(key),
                        "optimized read {key:?} the reference never performed"
                    );
                }
            }
            assert_eq!(o.rw.writes, r.rw.writes, "write set diverged");
            let mut od: Vec<_> = o
                .deployed
                .iter()
                .map(|(a, c)| (*a, (**c).clone()))
                .collect();
            let mut rd: Vec<_> = r
                .deployed
                .iter()
                .map(|(a, c)| (*a, (**c).clone()))
                .collect();
            od.sort();
            rd.sort();
            assert_eq!(od, rd, "deployed code diverged");
        }
        (Err(oe), Err(re)) => assert_eq!(oe, re, "inclusion error diverged"),
        (o, r) => panic!(
            "inclusion verdict diverged: optimized {:?}, reference {:?}",
            o.map(|x| x.receipt.success),
            r.map(|x| x.receipt.success),
        ),
    }
}

fn world_with(code: Vec<u8>) -> WorldState {
    let mut w = WorldState::new();
    w.set_balance(addr(1), U256::from(u64::MAX));
    w.set_code(addr(60), code);
    w.set_storage(addr(60), bp_types::H256::from_low_u64(0), U256::from(7u64));
    w
}

fn call_tx(data: Vec<u8>, gas_limit: u64) -> Transaction {
    Transaction {
        sender: addr(1),
        to: Some(addr(60)),
        value: U256::ZERO,
        nonce: 0,
        gas_limit,
        gas_price: 1,
        data,
    }
}

/// One structured program step. Jumps target a label planted between steps,
/// so generated programs exercise the analyzer's block partitioning,
/// PUSH+JUMP/PUSH+JUMPI pairs, and invalid-destination handling.
#[derive(Clone, Debug)]
enum Step {
    Push(u64),
    Arith(u8),
    DupSwap(u8),
    Mem(u8),
    Storage(u8),
    EnvOp(u8),
    LogTop,
    JumpFwd,
    JumpIFwd,
    BadJump(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<u64>().prop_map(Step::Push),
        (0u8..8).prop_map(Step::Arith),
        (0u8..4).prop_map(Step::DupSwap),
        (0u8..3).prop_map(Step::Mem),
        (0u8..2).prop_map(Step::Storage),
        (0u8..4).prop_map(Step::EnvOp),
        Just(Step::LogTop),
        Just(Step::JumpFwd),
        Just(Step::JumpIFwd),
        (0u64..64).prop_map(Step::BadJump),
    ]
}

fn compile(steps: &[Step]) -> Vec<u8> {
    let mut a = Asm::new();
    let mut label = 0usize;
    for step in steps {
        a = match step {
            Step::Push(v) => a.push_u64(*v),
            // Binary ops on two freshly pushed words, so the stack effect
            // is predictable regardless of surrounding steps.
            Step::Arith(k) => {
                let a2 = a.push_u64(0x1234_5678).push_u64(0x9abc_def0 + *k as u64);
                match k {
                    0 => a2.op(Op::Add),
                    1 => a2.op(Op::Mul),
                    2 => a2.op(Op::Sub),
                    3 => a2.op(Op::Div),
                    4 => a2.op(Op::And),
                    5 => a2.op(Op::Xor),
                    6 => a2.op(Op::Lt),
                    _ => a2.op(Op::Sgt),
                }
            }
            Step::DupSwap(k) => {
                let a2 = a.push_u64(11).push_u64(22).push_u64(33);
                match k {
                    0 => a2.dup(1).op(Op::Pop),
                    1 => a2.dup(3).op(Op::Pop),
                    2 => a2.swap(1),
                    _ => a2.swap(2),
                }
            }
            Step::Mem(k) => {
                let a2 = a.push_u64(0xfeed).push_u64(8 * (*k as u64 + 1));
                match k {
                    0 => a2.op(Op::MStore),
                    1 => a2.op(Op::MStore8),
                    _ => a2.op(Op::MStore).push_u64(16).op(Op::MLoad).op(Op::Pop),
                }
            }
            Step::Storage(k) => match k {
                0 => a.push_u64(0).op(Op::SLoad).op(Op::Pop),
                _ => a.push_u64(5).push_u64(1).op(Op::SStore),
            },
            Step::EnvOp(k) => {
                let a2 = match k {
                    0 => a.op(Op::Caller),
                    1 => a.op(Op::CallValue),
                    2 => a.op(Op::Gas),
                    _ => a.op(Op::CodeSize),
                };
                a2.op(Op::Pop)
            }
            Step::LogTop => a
                .push_u64(0xabcd)
                .push_u64(0)
                .op(Op::MStore)
                .push_u64(32)
                .push_u64(0)
                .op(Op::Log0),
            Step::JumpFwd => {
                label += 1;
                let name = format!("l{label}");
                a.push_label(&name).op(Op::Jump).label(&name)
            }
            Step::JumpIFwd => {
                label += 1;
                let name = format!("l{label}");
                a.push_u64(1).push_label(&name).op(Op::JumpI).label(&name)
            }
            Step::BadJump(dest) => a.push_u64(*dest).op(Op::Jump),
        };
    }
    a.op(Op::Stop).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structured programs: every step sequence the generator can produce
    /// executes identically on both engines.
    #[test]
    fn structured_programs_match_reference(
        steps in prop::collection::vec(arb_step(), 0..40),
        gas in 25_000u64..300_000,
    ) {
        let w = world_with(compile(&steps));
        assert_equivalent(&w, &BlockEnv::default(), &call_tx(vec![], gas));
    }

    /// Raw byte soup: arbitrary bytes, including truncated PUSHes, undefined
    /// opcodes and jumps into immediates, never diverge.
    #[test]
    fn raw_bytecode_matches_reference(
        code in prop::collection::vec(any::<u8>(), 0..160),
        data in prop::collection::vec(any::<u8>(), 0..48),
        gas in 22_000u64..120_000,
    ) {
        let w = world_with(code);
        assert_equivalent(&w, &BlockEnv::default(), &call_tx(data, gas));
    }

    /// The workload contract mix with randomized calldata — the bytecode the
    /// bench measures is also the bytecode the oracle covers.
    #[test]
    fn workload_contracts_match_reference(
        amount in 0u64..2_000,
        dir in 0u8..2,
        swap_in in 1u64..50_000,
        holder in 1u64..8,
        value in any::<u64>(),
    ) {
        let env = BlockEnv::default();
        for (code, data) in [
            (contracts::counter(), vec![]),
            (
                contracts::token(),
                contracts::token_transfer_calldata(&addr(holder), U256::from(amount)),
            ),
            (contracts::amm_pair(), contracts::amm_swap_calldata(dir, U256::from(swap_in))),
            (contracts::registry(), contracts::registry_calldata(U256::from(value))),
        ] {
            let mut w = world_with(code);
            w.set_storage(
                addr(60),
                contracts::token_balance_slot(&addr(1)),
                U256::from(1_000u64),
            );
            w.set_storage(addr(60), contracts::amm_reserve_slot(0), U256::from(1_000_000u64));
            w.set_storage(addr(60), contracts::amm_reserve_slot(1), U256::from(2_000_000u64));
            assert_equivalent(&w, &env, &call_tx(data.clone(), 300_000));
        }
    }
}
