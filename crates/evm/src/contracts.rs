//! Canned contracts for tests and for the synthetic mainnet-like workload.
//!
//! Three contracts cover the paper's conflict taxonomy (§2.3: conflicts come
//! from *counters* and *storage*, with hotspot contracts like Uniswap causing
//! block-wide storage contention):
//!
//! * [`counter`] — one global slot every caller increments: the worst-case
//!   hotspot, every transaction conflicts;
//! * [`token`] — per-holder balance slots: transactions conflict only when
//!   they share a holder (Zipf-distributed sharing in the workload);
//! * [`amm_pair`] — a constant-product swap over two global reserve slots:
//!   the Uniswap-style hotspot where all swaps serialize.

use bp_types::{Address, H256, U256};

use crate::asm::Asm;
use crate::interpreter::address_word;
use crate::opcode::Op;

/// A counter contract: `slot0 += 1` on every call.
pub fn counter() -> Vec<u8> {
    Asm::new()
        .push_u64(0)
        .op(Op::SLoad)
        .push_u64(1)
        .op(Op::Add)
        .push_u64(0)
        .op(Op::SStore)
        .op(Op::Stop)
        .build()
}

/// A token contract holding one balance slot per holder (the slot index is
/// the holder's address). Calldata: `to` word at 0, `amount` word at 32.
/// Reverts on insufficient balance.
pub fn token() -> Vec<u8> {
    Asm::new()
        // amount, bal_from
        .push_u64(32)
        .op(Op::CallDataLoad) // amount
        .op(Op::Caller)
        .op(Op::SLoad) // amount bal_from
        .dup(2)
        .dup(2)
        .op(Op::Lt) // amount bal_from (bal_from < amount)
        .push_label("insufficient")
        .op(Op::JumpI)
        // SSTORE(caller, bal_from - amount)
        .dup(2)
        .dup(2)
        .op(Op::Sub) // amount bal_from new_from
        .op(Op::Caller)
        .op(Op::SStore) // amount bal_from
        // SSTORE(to, SLOAD(to) + amount)
        .push_u64(0)
        .op(Op::CallDataLoad)
        .op(Op::SLoad) // amount bal_from bal_to
        .dup(3)
        .op(Op::Add) // amount bal_from new_to
        .push_u64(0)
        .op(Op::CallDataLoad)
        .op(Op::SStore)
        .op(Op::Stop)
        .label("insufficient")
        .push_u64(0)
        .push_u64(0)
        .op(Op::Revert)
        .build()
}

/// Calldata for [`token`]: transfer `amount` to `to`.
pub fn token_transfer_calldata(to: &Address, amount: U256) -> Vec<u8> {
    let mut data = Vec::with_capacity(64);
    data.extend_from_slice(&address_word(to).to_be_bytes());
    data.extend_from_slice(&amount.to_be_bytes());
    data
}

/// The storage slot holding `holder`'s token balance.
pub fn token_balance_slot(holder: &Address) -> H256 {
    H256::from_u256(address_word(holder))
}

/// A constant-product AMM pair over reserve slots 0 and 1.
/// Calldata: `direction` word at 0 (0 = token0 in, 1 = token1 in),
/// `amount_in` word at 32. Computes
/// `out = reserve_out * in / (reserve_in + in)` and updates both reserves.
pub fn amm_pair() -> Vec<u8> {
    Asm::new()
        .push_u64(0)
        .op(Op::CallDataLoad) // dir
        .push_u64(32)
        .op(Op::CallDataLoad) // dir amt
        .dup(2)
        .op(Op::SLoad) // dir amt r_in
        .dup(3)
        .push_u64(1)
        .op(Op::Sub) // dir amt r_in (1-dir)
        .op(Op::SLoad) // dir amt r_in r_out
        // out = r_out*amt / (r_in+amt)
        .dup(3) // .. amt
        .dup(2) // .. amt r_out
        .op(Op::Mul) // dir amt r_in r_out prod
        .dup(4) // .. amt
        .dup(4) // .. amt r_in
        .op(Op::Add) // dir amt r_in r_out prod (r_in+amt)
        .swap(1) // dir amt r_in r_out (r_in+amt) prod
        .op(Op::Div) // dir amt r_in r_out out
        // reserve_in += amt
        .dup(4)
        .dup(4)
        .op(Op::Add) // dir amt r_in r_out out (r_in+amt)
        .dup(6) // .. dir
        .op(Op::SStore) // dir amt r_in r_out out
        // reserve_out -= out
        .dup(1)
        .dup(3)
        .op(Op::Sub) // dir amt r_in r_out out (r_out-out)
        .dup(6)
        .push_u64(1)
        .op(Op::Sub) // .. (1-dir)
        .op(Op::SStore)
        .op(Op::Stop)
        .build()
}

/// An NFT mint contract: slot 0 is the *supply counter* (the next token
/// id), and minting assigns the caller as owner of the next id. Every mint
/// reads **and** writes slot 0 — a mint storm is therefore the worst-case
/// single-hot-key regime (stronger than [`counter`], which only carries one
/// write per transaction: here the freshly-assigned owner slot rides along,
/// so aborted mints waste more work).
///
/// Storage layout: slot 0 = next id; slot `2*id + 1` = owner of `id` (odd
/// slots so owners never collide with the counter). Calldata: none.
pub fn nft() -> Vec<u8> {
    Asm::new()
        .push_u64(0)
        .op(Op::SLoad) // id
        .op(Op::Caller) // id caller
        .dup(2)
        .push_u64(2)
        .op(Op::Mul)
        .push_u64(1)
        .op(Op::Add) // id caller slot
        .op(Op::SStore) // id          (owner[id] = caller)
        .push_u64(1)
        .op(Op::Add)
        .push_u64(0)
        .op(Op::SStore) // (supply = id+1)
        .op(Op::Stop)
        .build()
}

/// A registry contract that writes its slot 0 with the first calldata word
/// and never *semantically* reads it — the closest an EVM contract can get
/// to a blind write.
///
/// Note the reproduction finding this contract demonstrates (DESIGN.md §7;
/// `concurrent_registry_writes_conflict_via_the_metering_read` below): even
/// here the slot still lands in the read set, because the EVM's
/// value-dependent `SSTORE` pricing (set vs reset) must observe the old
/// value, and that observation affects gas — which validators verify. In an
/// account-model EVM with Ethereum gas rules there are therefore **no**
/// blind writes, and OCC-WSI's write-write tolerance degenerates to classic
/// backward (read-set) validation.
pub fn registry() -> Vec<u8> {
    Asm::new()
        .push_u64(0)
        .op(Op::CallDataLoad) // value
        .push_u64(0) // slot
        .op(Op::SStore)
        .op(Op::Stop)
        .build()
}

/// Calldata for [`registry`]: blindly store `value` in slot 0.
pub fn registry_calldata(value: U256) -> Vec<u8> {
    value.to_be_bytes().to_vec()
}

/// Calldata for [`amm_pair`]: swap `amount_in` in `direction` (0 or 1).
pub fn amm_swap_calldata(direction: u8, amount_in: U256) -> Vec<u8> {
    let mut data = Vec::with_capacity(64);
    data.extend_from_slice(&U256::from(direction as u64).to_be_bytes());
    data.extend_from_slice(&amount_in.to_be_bytes());
    data
}

/// Reserve slot for direction `dir` of [`amm_pair`].
pub fn amm_reserve_slot(dir: u8) -> H256 {
    H256::from_low_u64(dir as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::WorldView;
    use crate::interpreter::BlockEnv;
    use crate::tx::{execute_transaction, Transaction};
    use bp_state::WorldState;
    use bp_types::AccessKey;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn call_tx(sender: Address, to: Address, data: Vec<u8>, nonce: u64) -> Transaction {
        Transaction {
            sender,
            to: Some(to),
            value: U256::ZERO,
            nonce,
            gas_limit: 500_000,
            gas_price: 1,
            data,
        }
    }

    fn base_world() -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=4 {
            w.set_balance(addr(i), U256::from(100_000_000u64));
        }
        w
    }

    #[test]
    fn counter_increments() {
        let mut w = base_world();
        let c = addr(100);
        w.set_code(c, counter());
        let view = WorldView::new(&w);
        let res = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), c, vec![], 0))
            .unwrap();
        assert!(res.receipt.success);
        assert_eq!(
            res.rw.writes[&AccessKey::Storage(c, H256::from_low_u64(0))],
            U256::ONE
        );
        // Apply and increment again.
        w.apply_writes(&res.rw.writes);
        let view = WorldView::new(&w);
        let res2 =
            execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(2), c, vec![], 0))
                .unwrap();
        assert_eq!(
            res2.rw.writes[&AccessKey::Storage(c, H256::from_low_u64(0))],
            U256::from(2u64)
        );
    }

    #[test]
    fn token_transfer_moves_balances() {
        let mut w = base_world();
        let t = addr(100);
        w.set_code(t, token());
        w.set_storage(t, token_balance_slot(&addr(1)), U256::from(1000u64));
        let view = WorldView::new(&w);
        let data = token_transfer_calldata(&addr(2), U256::from(300u64));
        let res = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), t, data, 0))
            .unwrap();
        assert!(res.receipt.success, "transfer should succeed");
        assert_eq!(
            res.rw.writes[&AccessKey::Storage(t, token_balance_slot(&addr(1)))],
            U256::from(700u64)
        );
        assert_eq!(
            res.rw.writes[&AccessKey::Storage(t, token_balance_slot(&addr(2)))],
            U256::from(300u64)
        );
    }

    #[test]
    fn token_transfer_insufficient_reverts() {
        let mut w = base_world();
        let t = addr(100);
        w.set_code(t, token());
        w.set_storage(t, token_balance_slot(&addr(1)), U256::from(10u64));
        let view = WorldView::new(&w);
        let data = token_transfer_calldata(&addr(2), U256::from(300u64));
        let res = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), t, data, 0))
            .unwrap();
        assert!(!res.receipt.success);
        // No token slots written.
        assert!(!res
            .rw
            .writes
            .keys()
            .any(|k| matches!(k, AccessKey::Storage(a, _) if *a == t)));
    }

    #[test]
    fn token_transfers_to_distinct_holders_do_not_conflict_on_storage() {
        let mut w = base_world();
        let t = addr(100);
        w.set_code(t, token());
        w.set_storage(t, token_balance_slot(&addr(1)), U256::from(1000u64));
        w.set_storage(t, token_balance_slot(&addr(2)), U256::from(1000u64));
        let view = WorldView::new(&w);
        let tx_a = call_tx(addr(1), t, token_transfer_calldata(&addr(3), U256::ONE), 0);
        let tx_b = call_tx(addr(2), t, token_transfer_calldata(&addr(4), U256::ONE), 0);
        let ra = execute_transaction(&view, &BlockEnv::default(), &tx_a).unwrap();
        let rb = execute_transaction(&view, &BlockEnv::default(), &tx_b).unwrap();
        assert!(ra.receipt.success && rb.receipt.success);
        // Slot-level footprints are disjoint.
        assert!(!ra.rw.conflicts_with(&rb.rw));
        // But the account-level view sees both touching the token contract.
        assert!(ra.rw.conflicts_with_account_level(&rb.rw));
    }

    #[test]
    fn amm_swap_updates_reserves() {
        let mut w = base_world();
        let p = addr(100);
        w.set_code(p, amm_pair());
        w.set_storage(p, amm_reserve_slot(0), U256::from(1_000_000u64));
        w.set_storage(p, amm_reserve_slot(1), U256::from(1_000_000u64));
        let view = WorldView::new(&w);
        let data = amm_swap_calldata(0, U256::from(10_000u64));
        let res = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), p, data, 0))
            .unwrap();
        assert!(res.receipt.success);
        let r0 = res.rw.writes[&AccessKey::Storage(p, amm_reserve_slot(0))];
        let r1 = res.rw.writes[&AccessKey::Storage(p, amm_reserve_slot(1))];
        assert_eq!(r0, U256::from(1_010_000u64));
        // out = 1_000_000 * 10_000 / 1_010_000 = 9900 (floor)
        assert_eq!(r1, U256::from(1_000_000u64 - 9_900));
        // Product does not decrease below initial k (AMM invariant).
        assert!(r0 * r1 >= U256::from(1_000_000u64) * U256::from(1_000_000u64));
    }

    #[test]
    fn all_amm_swaps_conflict() {
        let mut w = base_world();
        let p = addr(100);
        w.set_code(p, amm_pair());
        w.set_storage(p, amm_reserve_slot(0), U256::from(1_000_000u64));
        w.set_storage(p, amm_reserve_slot(1), U256::from(1_000_000u64));
        let view = WorldView::new(&w);
        let ra = execute_transaction(
            &view,
            &BlockEnv::default(),
            &call_tx(addr(1), p, amm_swap_calldata(0, U256::from(5u64)), 0),
        )
        .unwrap();
        let rb = execute_transaction(
            &view,
            &BlockEnv::default(),
            &call_tx(addr(2), p, amm_swap_calldata(1, U256::from(7u64)), 0),
        )
        .unwrap();
        assert!(ra.rw.conflicts_with(&rb.rw), "AMM swaps must conflict");
    }

    /// The supply-counter slot of [`nft`] (the single hot key).
    fn nft_supply_slot() -> H256 {
        H256::from_low_u64(0)
    }

    /// The owner slot of token `id` in [`nft`].
    fn nft_owner_slot(id: u64) -> H256 {
        H256::from_low_u64(2 * id + 1)
    }

    #[test]
    fn nft_mint_assigns_sequential_ids() {
        let mut w = base_world();
        let n = addr(100);
        w.set_code(n, nft());
        for (i, minter) in [addr(1), addr(2)].into_iter().enumerate() {
            let view = WorldView::new(&w);
            let res =
                execute_transaction(&view, &BlockEnv::default(), &call_tx(minter, n, vec![], 0))
                    .unwrap();
            assert!(res.receipt.success);
            let id = i as u64;
            assert_eq!(
                res.rw.writes[&AccessKey::Storage(n, nft_owner_slot(id))],
                address_word(&minter)
            );
            assert_eq!(
                res.rw.writes[&AccessKey::Storage(n, nft_supply_slot())],
                U256::from(id + 1)
            );
            // Every mint reads the supply counter: two mints always conflict.
            assert!(res
                .rw
                .reads
                .contains_key(&AccessKey::Storage(n, nft_supply_slot())));
            w.apply_writes(&res.rw.writes);
        }
    }

    #[test]
    fn concurrent_mints_conflict_on_the_supply_counter() {
        let mut w = base_world();
        let n = addr(100);
        w.set_code(n, nft());
        let view = WorldView::new(&w);
        let a = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), n, vec![], 0))
            .unwrap();
        let b = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(2), n, vec![], 0))
            .unwrap();
        assert!(a.rw.conflicts_with(&b.rw), "mints must conflict");
    }

    #[test]
    fn registry_write_still_records_a_gas_metering_read() {
        let mut w = base_world();
        let r = addr(100);
        w.set_code(r, registry());
        let view = WorldView::new(&w);
        let tx = call_tx(addr(1), r, registry_calldata(U256::from(77u64)), 0);
        let res = execute_transaction(&view, &BlockEnv::default(), &tx).unwrap();
        assert!(res.receipt.success);
        let slot = AccessKey::Storage(r, H256::from_low_u64(0));
        assert_eq!(res.rw.writes[&slot], U256::from(77u64));
        // The reproduction finding: the contract never SLOADs slot 0, yet
        // the slot appears in the read set because SSTORE's set-vs-reset
        // pricing observes the old value. EVM storage writes are never
        // blind, so WSI's write-write tolerance cannot fire on them.
        assert!(res.rw.reads.contains_key(&slot));
    }

    #[test]
    fn concurrent_registry_writes_conflict_via_the_metering_read() {
        let mut w = base_world();
        let r = addr(100);
        w.set_code(r, registry());
        let view = WorldView::new(&w);
        let a = execute_transaction(
            &view,
            &BlockEnv::default(),
            &call_tx(addr(1), r, registry_calldata(U256::ONE), 0),
        )
        .unwrap();
        let b = execute_transaction(
            &view,
            &BlockEnv::default(),
            &call_tx(addr(2), r, registry_calldata(U256::from(2u64)), 0),
        )
        .unwrap();
        let slot = AccessKey::Storage(r, H256::from_low_u64(0));
        assert!(a.rw.conflicts_with(&b.rw));
        // Both footprints carry a read of the written slot (gas metering),
        // which is what turns the would-be WAW into RAW/WAR under WSI.
        assert!(a.rw.reads.contains_key(&slot) && b.rw.reads.contains_key(&slot));
    }

    #[test]
    fn counter_gas_is_storage_dominated() {
        let mut w = base_world();
        let c = addr(100);
        w.set_code(c, counter());
        let view = WorldView::new(&w);
        let res = execute_transaction(&view, &BlockEnv::default(), &call_tx(addr(1), c, vec![], 0))
            .unwrap();
        // 21000 intrinsic + SLOAD + SSTORE_SET dominate.
        assert!(res.receipt.gas_used > 21_000 + crate::gas::SLOAD + crate::gas::SSTORE_SET - 100);
    }
}
