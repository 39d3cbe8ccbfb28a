//! Block structures: header, body, the **block profile**, and the wire
//! codec.
//!
//! The block profile is BlockPilot's protocol addition (§4.2): the proposer
//! ships the per-transaction read/write sets (with snapshot versions) and
//! gas alongside the block so validators can schedule and verify without
//! first re-discovering conflicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
pub mod wire;

use bp_crypto::rlp::StackStream;
use bp_crypto::{keccak256, Keccak256, RlpStream};
use bp_evm::{Receipt, Transaction};
use bp_types::{Address, BlockHash, Gas, Height, TxHash, H256};

pub use profile::{BlockProfile, TxProfile};
pub use wire::{decode_block, encode_block, encode_block_into, encoded_size_hint};

/// A block header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Hash of the parent block.
    pub parent_hash: BlockHash,
    /// Height (block number).
    pub height: Height,
    /// MPT root of the post-state.
    pub state_root: H256,
    /// Commitment to the ordered transaction list.
    pub tx_root: H256,
    /// Commitment to the ordered receipt list.
    pub receipts_root: H256,
    /// Total gas consumed by the block.
    pub gas_used: Gas,
    /// Block gas limit.
    pub gas_limit: Gas,
    /// Fee recipient.
    pub coinbase: Address,
    /// Timestamp (seconds).
    pub timestamp: u64,
    /// Disambiguates blocks from different proposers at the same height.
    pub proposer_seed: u64,
}

impl BlockHeader {
    /// Canonical block hash: keccak of the RLP-encoded header.
    pub fn hash(&self) -> BlockHash {
        let mut s = RlpStream::new();
        s.begin_list(10);
        s.append_h256(&self.parent_hash);
        s.append_u64(self.height);
        s.append_h256(&self.state_root);
        s.append_h256(&self.tx_root);
        s.append_h256(&self.receipts_root);
        s.append_u64(self.gas_used);
        s.append_u64(self.gas_limit);
        s.append_address(&self.coinbase);
        s.append_u64(self.timestamp);
        s.append_u64(self.proposer_seed);
        keccak256(&s.out())
    }
}

/// A full block: header, ordered transactions, and the BlockPilot profile.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The sealed header.
    pub header: BlockHeader,
    /// Transactions in commit order.
    pub transactions: Vec<Transaction>,
    /// Per-transaction read/write sets and gas (the proposer's execution
    /// details, §4.2 "block profile").
    pub profile: BlockProfile,
}

impl Block {
    /// The block hash.
    pub fn hash(&self) -> BlockHash {
        self.header.hash()
    }

    /// The block height.
    pub fn height(&self) -> Height {
        self.header.height
    }

    /// Number of transactions.
    pub fn tx_count(&self) -> usize {
        self.transactions.len()
    }
}

/// Commitment to an ordered transaction list: the running keccak of the
/// transaction hashes. (Ethereum uses an index-keyed trie; a sequential hash
/// chain commits to the same information — content *and order* — which is
/// all validation needs.) The transactions are independent and are hashed as
/// one batch; the chain over their hashes is one input and is not.
pub fn tx_root(txs: &[Transaction]) -> H256 {
    tx_root_of_hashes(Transaction::hash_batch(txs))
}

/// [`tx_root`] for a caller that already holds the transactions' hashes, in
/// block order (a proposer seals from the hashes its pool computed at
/// admission).
pub fn tx_root_of_hashes(hashes: impl IntoIterator<Item = TxHash>) -> H256 {
    let mut h = Keccak256::new();
    for hash in hashes {
        h.update(hash.as_bytes());
    }
    h.finalize()
}

/// Commitment to the ordered receipt list (status, gas used, log count per
/// receipt).
pub fn receipts_root(receipts: &[Receipt]) -> H256 {
    let mut h = Keccak256::new();
    for r in receipts {
        // A three-integer list is at most 27 payload bytes: one header byte,
        // built on the stack.
        let mut s = StackStream::<27>::new();
        s.append_u64(r.success as u64);
        s.append_u64(r.gas_used);
        s.append_u64(r.logs.len() as u64);
        h.update(&[0xc0 + s.as_slice().len() as u8]);
        h.update(s.as_slice());
    }
    h.finalize()
}

/// The genesis block header for a given state root.
pub fn genesis_header(state_root: H256) -> BlockHeader {
    BlockHeader {
        parent_hash: BlockHash::ZERO,
        height: 0,
        state_root,
        tx_root: tx_root(&[]),
        receipts_root: receipts_root(&[]),
        gas_used: 0,
        gas_limit: 30_000_000,
        coinbase: Address::ZERO,
        timestamp: 0,
        proposer_seed: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::U256;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn tx(sender: u64, nonce: u64) -> Transaction {
        Transaction::transfer(addr(sender), addr(99), U256::ONE, nonce, 1)
    }

    #[test]
    fn header_hash_covers_every_field() {
        let base = genesis_header(H256::from_low_u64(1));
        let h0 = base.hash();
        let mut m = base.clone();
        m.height = 5;
        assert_ne!(m.hash(), h0);
        let mut m = base.clone();
        m.state_root = H256::from_low_u64(2);
        assert_ne!(m.hash(), h0);
        let mut m = base.clone();
        m.proposer_seed = 7;
        assert_ne!(m.hash(), h0);
        let mut m = base.clone();
        m.gas_used = 1;
        assert_ne!(m.hash(), h0);
        assert_eq!(base.hash(), h0, "hash is deterministic");
    }

    #[test]
    fn tx_root_commits_to_order() {
        let a = tx(1, 0);
        let b = tx(2, 0);
        let r1 = tx_root(&[a.clone(), b.clone()]);
        let r2 = tx_root(&[b, a]);
        assert_ne!(r1, r2);
        assert_ne!(r1, tx_root(&[]));
    }

    #[test]
    fn receipts_root_commits_to_status_and_gas() {
        let ok = Receipt {
            success: true,
            gas_used: 21_000,
            output: vec![],
            logs: vec![],
            fee: U256::from(21_000u64),
            created: None,
        };
        let mut failed = ok.clone();
        failed.success = false;
        assert_ne!(
            receipts_root(std::slice::from_ref(&ok)),
            receipts_root(&[failed])
        );
        let mut pricier = ok.clone();
        pricier.gas_used = 22_000;
        assert_ne!(
            receipts_root(std::slice::from_ref(&ok)),
            receipts_root(std::slice::from_ref(&pricier))
        );
        // Each receipt enters the hash as the three-item RLP list
        // [status, gas used, log count].
        let mut h = Keccak256::new();
        for r in [&ok, &pricier] {
            let mut s = RlpStream::new();
            s.begin_list(3);
            s.append_u64(r.success as u64);
            s.append_u64(r.gas_used);
            s.append_u64(r.logs.len() as u64);
            h.update(&s.out());
        }
        assert_eq!(receipts_root(&[ok, pricier]), h.finalize());
    }
}
