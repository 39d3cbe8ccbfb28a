//! Serial block execution — the geth baseline and correctness oracle.

use std::sync::Arc;

use bp_block::{BlockProfile, TxProfile};
use bp_evm::{execute_transaction, BlockEnv, Receipt, Transaction, TxError, WorldView};
use bp_state::WorldState;
use bp_types::{Gas, U256};

/// Result of executing a block serially.
#[derive(Debug)]
pub struct SerialOutcome {
    /// Post-state after all transactions plus aggregated coinbase fees.
    pub post_state: WorldState,
    /// Receipts in block order.
    pub receipts: Vec<Receipt>,
    /// The footprints observed (identical in content to what a BlockPilot
    /// proposer would profile).
    pub profile: BlockProfile,
    /// Total gas consumed.
    pub gas_used: Gas,
}

/// Executes `txs` in order on a copy of `base`, exactly as a serial
/// Ethereum client would. Transactions that are invalid against the current
/// state (bad nonce, insufficient funds) are an error: blocks are expected
/// to contain only includable transactions.
pub fn execute_block_serially(
    base: &WorldState,
    env: &BlockEnv,
    txs: &[Transaction],
) -> Result<SerialOutcome, (usize, TxError)> {
    let mut world = base.snapshot();
    let mut receipts = Vec::with_capacity(txs.len());
    let mut profile = BlockProfile::new();
    let mut gas_used: Gas = 0;
    let mut fees = U256::ZERO;
    for (i, tx) in txs.iter().enumerate() {
        let result = {
            let view = WorldView::new(&world);
            execute_transaction(&view, env, tx).map_err(|e| (i, e))?
        };
        world.apply_writes(&result.rw.writes);
        for (addr, code) in &result.deployed {
            world.set_code(*addr, Arc::clone(code));
        }
        gas_used += result.receipt.gas_used;
        fees += result.receipt.fee;
        let entry = TxProfile::from_owned_rw(result.rw, result.deployed, result.receipt.gas_used);
        profile.push(entry);
        receipts.push(result.receipt);
    }
    if !fees.is_zero() {
        let cb = world.balance(&env.coinbase);
        world.set_balance(env.coinbase, cb + fees);
    }
    Ok(SerialOutcome {
        post_state: world,
        receipts,
        profile,
        gas_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::Address;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn world() -> WorldState {
        let mut w = WorldState::new();
        for i in 1..=5 {
            w.set_balance(addr(i), U256::from(1_000_000u64));
        }
        w
    }

    #[test]
    fn executes_in_order() {
        let base = world();
        let env = BlockEnv::default();
        // Two chained transfers from the same sender.
        let txs = vec![
            Transaction::transfer(addr(1), addr(2), U256::from(10u64), 0, 1),
            Transaction::transfer(addr(1), addr(3), U256::from(20u64), 1, 1),
        ];
        let out = execute_block_serially(&base, &env, &txs).unwrap();
        assert_eq!(out.post_state.nonce(&addr(1)), 2);
        assert_eq!(out.post_state.balance(&addr(2)), U256::from(1_000_010u64));
        assert_eq!(out.post_state.balance(&addr(3)), U256::from(1_000_020u64));
        assert_eq!(out.gas_used, 42_000);
        assert_eq!(out.profile.len(), 2);
    }

    #[test]
    fn coinbase_collects_fees() {
        let base = world();
        let env = BlockEnv::default();
        let txs = vec![Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 3)];
        let out = execute_block_serially(&base, &env, &txs).unwrap();
        assert_eq!(out.post_state.balance(&env.coinbase), U256::from(63_000u64));
    }

    #[test]
    fn invalid_tx_is_an_error() {
        let base = world();
        let env = BlockEnv::default();
        let txs = vec![
            Transaction::transfer(addr(1), addr(2), U256::ONE, 0, 1),
            Transaction::transfer(addr(1), addr(2), U256::ONE, 5, 1), // nonce gap
        ];
        let err = execute_block_serially(&base, &env, &txs).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
