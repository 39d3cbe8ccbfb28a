//! Differential property test of the interpreter: random arithmetic
//! expression trees are compiled to EVM bytecode with the assembler and the
//! machine's result is compared against direct `U256` evaluation.

use std::sync::Arc;

use bp_evm::asm::Asm;
use bp_evm::opcode::Op;
use bp_evm::{BlockEnv, BufferedHost, Frame, WorldView};
use bp_state::WorldState;
use bp_testkit::prelude::*;
use bp_types::{Address, U256};

#[derive(Clone, Debug)]
enum Expr {
    Lit(u64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Mod(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsZero(Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = any::<u64>().prop_map(Expr::Lit);
    leaf.prop_recursive(5, 48, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Div(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mod(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(a.into(), b.into())),
            inner.clone().prop_map(|a| Expr::Not(a.into())),
            inner.prop_map(|a| Expr::IsZero(a.into())),
        ]
    })
}

/// Reference semantics over U256.
fn eval(e: &Expr) -> U256 {
    match e {
        Expr::Lit(v) => U256::from(*v),
        Expr::Add(a, b) => eval(a) + eval(b),
        Expr::Sub(a, b) => eval(a) - eval(b),
        Expr::Mul(a, b) => eval(a) * eval(b),
        Expr::Div(a, b) => eval(a) / eval(b),
        Expr::Mod(a, b) => eval(a) % eval(b),
        Expr::And(a, b) => eval(a) & eval(b),
        Expr::Or(a, b) => eval(a) | eval(b),
        Expr::Xor(a, b) => eval(a) ^ eval(b),
        Expr::Not(a) => !eval(a),
        Expr::IsZero(a) => {
            if eval(a).is_zero() {
                U256::ONE
            } else {
                U256::ZERO
            }
        }
    }
}

/// Compiles the expression to stack code leaving its value on top.
///
/// Binary operators pop `(top, next)`, so the *left* operand is compiled
/// second (ends up on top).
fn compile(e: &Expr, asm: Asm) -> Asm {
    match e {
        Expr::Lit(v) => asm.push_u64(*v),
        Expr::Add(a, b) => compile(a, compile(b, asm)).op(Op::Add),
        Expr::Sub(a, b) => compile(a, compile(b, asm)).op(Op::Sub),
        Expr::Mul(a, b) => compile(a, compile(b, asm)).op(Op::Mul),
        Expr::Div(a, b) => compile(a, compile(b, asm)).op(Op::Div),
        Expr::Mod(a, b) => compile(a, compile(b, asm)).op(Op::Mod),
        Expr::And(a, b) => compile(a, compile(b, asm)).op(Op::And),
        Expr::Or(a, b) => compile(a, compile(b, asm)).op(Op::Or),
        Expr::Xor(a, b) => compile(a, compile(b, asm)).op(Op::Xor),
        Expr::Not(a) => compile(a, asm).op(Op::Not),
        Expr::IsZero(a) => compile(a, asm).op(Op::IsZero),
    }
}

fn run(code: Vec<u8>) -> U256 {
    let world = WorldState::new();
    let view = WorldView::new(&world);
    let mut host = BufferedHost::new(&view);
    let frame = Frame {
        address: Address::from_index(1),
        caller: Address::from_index(2),
        origin: Address::from_index(2),
        value: U256::ZERO,
        input: Vec::new(),
        code: Arc::new(code),
        gas: 10_000_000,
        gas_price: 1,
        is_static: false,
    };
    let result = bp_evm::interpreter::run_frame(&mut host, &BlockEnv::default(), frame, 0)
        .expect("expression programs never fault");
    assert!(!result.reverted);
    U256::from_be_slice(&result.output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_expressions_match_reference(e in arb_expr()) {
        let code = compile(&e, Asm::new())
            .push_u64(0)
            .op(Op::MStore)
            .push_u64(32)
            .push_u64(0)
            .op(Op::Return)
            .build();
        prop_assert_eq!(run(code), eval(&e));
    }
}
