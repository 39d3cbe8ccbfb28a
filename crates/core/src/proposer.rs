//! High-level proposer node: a pending pool plus the OCC-WSI engine.

use std::sync::Arc;

use bp_evm::Transaction;
use bp_state::WorldState;
use bp_txpool::TxPool;
use bp_types::{BlockHash, Height};

use crate::occ_wsi::{OccWsiConfig, OccWsiProposer, Proposal};

/// A proposer node: clients submit transactions, the node packs blocks
/// through the OCC-WSI engine.
pub struct Proposer {
    engine: OccWsiProposer,
    pool: Arc<TxPool>,
}

impl Proposer {
    /// A proposer with a fresh pending pool.
    pub fn new(config: OccWsiConfig) -> Self {
        Proposer {
            engine: OccWsiProposer::new(config),
            pool: Arc::new(TxPool::new()),
        }
    }

    /// The pending pool (e.g. for mempool inspection).
    pub fn pool(&self) -> &TxPool {
        &self.pool
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &OccWsiConfig {
        self.engine.config()
    }

    /// Accepts a client transaction into the pending pool.
    pub fn submit_transaction(&self, tx: Transaction) {
        self.pool.add(tx);
    }

    /// Accepts a batch of transactions.
    pub fn submit_transactions(&self, txs: impl IntoIterator<Item = Transaction>) {
        for tx in txs {
            self.pool.add(tx);
        }
    }

    /// Packs and seals the next block on top of `parent`.
    pub fn propose_block(
        &self,
        parent_state: Arc<WorldState>,
        parent: BlockHash,
        height: Height,
    ) -> Proposal {
        self.engine
            .propose(&self.pool, parent_state, parent, height)
    }

    /// The underlying OCC-WSI engine (for custom pools).
    pub fn engine(&self) -> &OccWsiProposer {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::{Address, U256};

    #[test]
    fn proposer_drains_pool_into_blocks() {
        let mut world = WorldState::new();
        for i in 1..=10u64 {
            world.set_balance(Address::from_index(i), U256::from(1_000_000u64));
        }
        let world = Arc::new(world);
        let proposer = Proposer::new(OccWsiConfig {
            threads: 2,
            ..Default::default()
        });
        proposer.submit_transactions((1..=10u64).map(|i| {
            Transaction::transfer(
                Address::from_index(i),
                Address::from_index(99),
                U256::ONE,
                0,
                i,
            )
        }));
        assert_eq!(proposer.pool().len(), 10);
        let proposal = proposer.propose_block(world, BlockHash::ZERO, 1);
        assert_eq!(proposal.block.tx_count(), 10);
        assert!(proposer.pool().is_empty());
    }

    #[test]
    fn two_thread_counts_agree_on_the_state_root_for_the_same_pool() {
        let mut world = WorldState::new();
        for i in 1..=16u64 {
            world.set_balance(Address::from_index(i), U256::from(1_000_000u64));
        }
        let world = Arc::new(world);
        let mut roots = Vec::new();
        for threads in [1, 4] {
            let proposer = Proposer::new(OccWsiConfig {
                threads,
                ..Default::default()
            });
            // Disjoint transfers make every serializable schedule converge
            // to the same state.
            proposer.submit_transactions((1..=16u64).map(|i| {
                Transaction::transfer(
                    Address::from_index(i),
                    Address::from_index(100 + i),
                    U256::ONE,
                    0,
                    i,
                )
            }));
            let proposal = proposer.propose_block(Arc::clone(&world), BlockHash::ZERO, 1);
            assert_eq!(proposal.block.tx_count(), 16);
            roots.push(proposal.post_state.state_root());
        }
        assert_eq!(roots[0], roots[1]);
    }
}
