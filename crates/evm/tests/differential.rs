//! Differential tests: the optimized engine (cached analysis, block
//! precharge, jump-table dispatch) must be receipt-for-receipt identical to
//! the retained reference interpreter on every observable output — success flag, gas used, output bytes, logs,
//! fee, created address, read/write footprint, and deployed code.
//!
//! This file draws from fixed seeds; `differential_props.rs` layers
//! randomized program generation on top of the same oracle.

use std::sync::Arc;

use bp_evm::asm::Asm;
use bp_evm::opcode::Op;
use bp_evm::reference::execute_transaction_reference;
use bp_evm::{contracts, execute_transaction, BlockEnv, Transaction, WorldView};
use bp_state::WorldState;
use bp_types::{Address, Rng, U256};

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

/// The oracle: run `tx` through both engines on clones of `world` and
/// assert every observable output matches. Returns the optimized result's
/// success flag for callers that want to assert workload-level facts.
fn assert_equivalent(world: &WorldState, env: &BlockEnv, tx: &Transaction, what: &str) -> bool {
    let view = WorldView::new(world);
    let opt = execute_transaction(&view, env, tx);
    let refr = execute_transaction_reference(&view, env, tx);
    match (opt, refr) {
        (Ok(o), Ok(r)) => {
            assert_eq!(o.receipt, r.receipt, "receipt diverged: {what}");
            if o.receipt.success {
                assert_eq!(o.rw.reads, r.rw.reads, "read set diverged: {what}");
            } else {
                // A doomed frame aborts at block entry (precharge or stack
                // pre-validation) where the reference faults mid-block, so
                // the optimized engine may skip trailing reads of the dying
                // block. It must never *invent* a read, and both engines
                // roll the frame back identically.
                for key in o.rw.reads.keys() {
                    assert!(
                        r.rw.reads.contains_key(key),
                        "optimized read {key:?} the reference never performed: {what}"
                    );
                }
            }
            assert_eq!(o.rw.writes, r.rw.writes, "write set diverged: {what}");
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
            assert_eq!(od, rd, "deployed code diverged: {what}");
            o.receipt.success
        }
        (Err(oe), Err(re)) => {
            assert_eq!(oe, re, "inclusion error diverged: {what}");
            false
        }
        (o, r) => panic!(
            "inclusion verdict diverged ({what}): optimized {:?}, reference {:?}",
            o.map(|x| x.receipt.success),
            r.map(|x| x.receipt.success),
        ),
    }
}

fn funded_world() -> WorldState {
    let mut w = WorldState::new();
    for i in 1..=16 {
        w.set_balance(addr(i), U256::from(u64::MAX));
    }
    w
}

fn call_tx(sender: u64, to: Address, nonce: u64, data: Vec<u8>) -> Transaction {
    Transaction {
        sender: addr(sender),
        to: Some(to),
        value: U256::ZERO,
        nonce,
        gas_limit: 500_000,
        gas_price: 1,
        data,
    }
}

#[test]
fn workload_contracts_match_reference() {
    let mut w = funded_world();
    let env = BlockEnv::default();
    let (counter, token, amm, registry) = (addr(100), addr(101), addr(102), addr(103));
    w.set_code(counter, contracts::counter());
    w.set_code(token, contracts::token());
    w.set_code(amm, contracts::amm_pair());
    w.set_code(registry, contracts::registry());
    for i in 1..=8 {
        w.set_storage(
            token,
            contracts::token_balance_slot(&addr(i)),
            U256::from(1_000u64),
        );
    }
    w.set_storage(
        amm,
        contracts::amm_reserve_slot(0),
        U256::from(1_000_000u64),
    );
    w.set_storage(
        amm,
        contracts::amm_reserve_slot(1),
        U256::from(2_000_000u64),
    );

    // Walk the contract mix the bench uses, applying the optimized engine's
    // writes between transactions so later txs see evolving state.
    let mut rng = Rng::seed_from_u64(0x5eed_0001);
    for step in 0..64u64 {
        let sender = 1 + step % 8;
        let tx = match step % 4 {
            0 => call_tx(sender, counter, 0, vec![]),
            1 => call_tx(
                sender,
                token,
                0,
                contracts::token_transfer_calldata(
                    &addr(rng.gen_range(1..=8u64)),
                    // Occasionally overdraw so the revert path is exercised.
                    U256::from(if step % 16 == 1 {
                        1u64 << 40
                    } else {
                        rng.gen_range(0..500u64)
                    }),
                ),
            ),
            2 => call_tx(
                sender,
                amm,
                0,
                contracts::amm_swap_calldata(
                    rng.gen_range(0..2u8),
                    U256::from(rng.gen_range(1..=10_000u64)),
                ),
            ),
            _ => call_tx(
                sender,
                registry,
                0,
                contracts::registry_calldata(U256::from(rng.next_u64())),
            ),
        };
        let mut scratch = w.clone();
        scratch.set_nonce(tx.sender, 0);
        assert_equivalent(&scratch, &env, &tx, &format!("workload step {step}"));
        // Advance the shared state with the optimized result.
        let view = WorldView::new(&scratch);
        if let Ok(res) = execute_transaction(&view, &env, &tx) {
            w.apply_writes(&res.rw.writes);
        }
    }
}

#[test]
fn deployment_and_nested_calls_match_reference() {
    let w = funded_world();
    let env = BlockEnv::default();

    // Deploy: init code returns a body that increments slot 0.
    let body = contracts::counter();
    let mut i = Asm::new();
    for (k, b) in body.iter().enumerate() {
        i = i
            .push_u64(*b as u64)
            .push_u64(255)
            .op(Op::And)
            .push_u64(k as u64)
            .op(Op::MStore8);
    }
    let init_code = i
        .push_u64(body.len() as u64)
        .push_u64(0)
        .op(Op::Return)
        .build();
    let deploy = Transaction {
        sender: addr(1),
        to: None,
        value: U256::ZERO,
        nonce: 0,
        gas_limit: 2_000_000,
        gas_price: 1,
        data: init_code,
    };
    assert!(assert_equivalent(&w, &env, &deploy, "deployment"));

    // Nested call: a proxy that CALLs the counter and returns its status.
    let mut w2 = w.clone();
    let counter = addr(100);
    w2.set_code(counter, contracts::counter());
    let proxy = Asm::new()
        .push_u64(0) // ret len
        .push_u64(0) // ret off
        .push_u64(0) // arg len
        .push_u64(0) // arg off
        .push_u64(0) // value
        .push(bp_evm::interpreter::address_word(&counter))
        .op(Op::Gas)
        .op(Op::Call)
        .push_u64(0)
        .op(Op::MStore)
        .push_u64(32)
        .push_u64(0)
        .op(Op::Return)
        .build();
    let proxy_addr = addr(101);
    w2.set_code(proxy_addr, proxy);
    assert!(assert_equivalent(
        &w2,
        &env,
        &call_tx(1, proxy_addr, 0, vec![]),
        "nested call"
    ));
}

#[test]
fn failure_paths_match_reference() {
    let mut w = funded_world();
    let env = BlockEnv::default();

    // Out of gas in a tight loop.
    let looped = Asm::new()
        .label("top")
        .push_u64(0)
        .op(Op::SLoad)
        .op(Op::Pop)
        .push_label("top")
        .op(Op::Jump)
        .build();
    w.set_code(addr(50), looped);
    let mut tx = call_tx(1, addr(50), 0, vec![]);
    tx.gas_limit = 60_000;
    assert!(!assert_equivalent(&w, &env, &tx, "oog loop"));

    // Invalid jump destination (into a PUSH immediate).
    let bad_jump = Asm::new().push_u64(1).op(Op::Jump).op(Op::JumpDest).build();
    w.set_code(addr(51), bad_jump);
    assert!(!assert_equivalent(
        &w,
        &env,
        &call_tx(1, addr(51), 0, vec![]),
        "bad jump"
    ));

    // Stack underflow.
    w.set_code(addr(52), vec![Op::Add as u8]);
    assert!(!assert_equivalent(
        &w,
        &env,
        &call_tx(1, addr(52), 0, vec![]),
        "underflow"
    ));

    // Explicit revert with payload.
    let reverter = Asm::new()
        .push_u64(0xdead)
        .push_u64(0)
        .op(Op::MStore)
        .push_u64(32)
        .push_u64(0)
        .op(Op::Revert)
        .build();
    w.set_code(addr(53), reverter);
    assert!(!assert_equivalent(
        &w,
        &env,
        &call_tx(1, addr(53), 0, vec![]),
        "revert"
    ));

    // Truncated PUSH at end of code (satellite: phantom-jumpdest regression
    // at the transaction level — the immediate bytes must not be executable
    // or jumpable in either engine).
    w.set_code(addr(54), vec![0x60, 0x02, 0x56, 0x7f, 0x5b]);
    assert!(!assert_equivalent(
        &w,
        &env,
        &call_tx(1, addr(54), 0, vec![]),
        "jump into truncated push"
    ));
}

#[test]
fn raw_bytecode_sweep_matches_reference() {
    let env = BlockEnv::default();
    let mut rng = Rng::seed_from_u64(0xb10c_b10c_b10c_b10c);
    for case in 0..400 {
        let len = rng.gen_range(1..=96usize);
        let code: Vec<u8> = (0..len).map(|_| rng.gen_range(..)).collect();
        let mut w = funded_world();
        w.set_code(addr(60), code.clone());
        let mut tx = call_tx(1, addr(60), 0, vec![0xAA; 8]);
        tx.gas_limit = 100_000;
        assert_equivalent(
            &w,
            &env,
            &tx,
            &format!("raw sweep case {case}: {code:02x?}"),
        );
    }
}

#[test]
fn shared_cache_is_thread_safe_and_equivalent() {
    let mut w = funded_world();
    let env = BlockEnv::default();
    let (counter, token) = (addr(100), addr(101));
    w.set_code(counter, contracts::counter());
    w.set_code(token, contracts::token());
    for i in 1..=16 {
        w.set_storage(
            token,
            contracts::token_balance_slot(&addr(i)),
            U256::from(1_000_000u64),
        );
    }
    let w = Arc::new(w);

    // All threads race on the process-wide analysis cache for the same two
    // blobs, and every result must still match the reference. That each
    // blob is analysed once is `analysis::tests::racing_threads_analyse_each_blob_once`.
    for threads in [1usize, 2, 4, 8, 16] {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let w = Arc::clone(&w);
                scope.spawn(move || {
                    for k in 0..50u64 {
                        let to = if (t as u64 + k).is_multiple_of(2) {
                            counter
                        } else {
                            token
                        };
                        let data = if to == token {
                            contracts::token_transfer_calldata(&addr(1 + k % 16), U256::from(k))
                        } else {
                            vec![]
                        };
                        let tx = call_tx(1 + t as u64, to, 0, data);
                        let view = WorldView::new(&w);
                        let got = execute_transaction(&view, &env, &tx).expect("includable");
                        let want =
                            execute_transaction_reference(&view, &env, &tx).expect("includable");
                        assert_eq!(got.receipt, want.receipt);
                        assert_eq!(got.rw, want.rw);
                    }
                });
            }
        });
    }
}
