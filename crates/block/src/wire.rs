//! RLP wire encoding for blocks.
//!
//! Dissemination (the first leg of DiCE) ships whole blocks — header,
//! transactions **and the BlockPilot block profile** — between nodes. The
//! profile is part of BlockPilot's protocol surface (§4.2), so it gets a
//! canonical encoding too: each entry is `[reads, writes, gas]`, where reads
//! are `[key, version]` pairs and writes are `[key, value]` pairs. A `Code`
//! write's value is spelled as the code it deployed, and read back as that
//! code's hash (`keccak256(code)` as a word, what the EVM writes for the
//! key, empty code included): the profile ships what a deployment produced,
//! and the validator's fold installs it.
//!
//! Decoding is one pass of a borrowed [`bp_crypto::rlp::Reader`] over the
//! bytes — no item tree is built. Collections are sized from a validating
//! pre-count, so the only allocations are the block's own: the two outer
//! `Vec`s, each transaction's non-empty `data` and each profile entry's two
//! maps (`3·txs + 2` at most, none regrown), and for an entry that carries
//! code its code map and each code's bytes and `Arc`.
//!
//! Decoding is strict and the encoding is canonical: `decode_block` accepts
//! exactly the byte strings `encode_block` produces, so
//! `encode_block(&decode_block(b)?) == b` and any mutation of the byte stream
//! fails to decode or decodes to a different block. On top of the RLP rules
//! (minimal byte and length forms, no length overflow, truncation or
//! trailing bytes, no leading zeros in integers, exact fixed-length fields,
//! exact list arity) that means: footprint keys strictly ascending in
//! [`AccessKey`] order — the order the encoder writes, so no duplicates —,
//! the unused third slot of a `Balance`/`Nonce`/`Code` key empty, and an
//! empty collection spelled as the `[""]` marker, never as a zero-item list.
//!
//! The item-tree decoder this replaced is kept in [`reference`] as the
//! differential oracle.

use std::sync::Arc;

use bp_crypto::keccak256;
use bp_crypto::rlp::{self, DecodeError, Reader, RlpStream, Token};
use bp_evm::Transaction;
use bp_types::{AccessKey, Address, FxHashMap, H256, U256};

use crate::{Block, BlockHeader, BlockProfile, TxProfile};

/// Upper bound on the encoded size of `block`, cheap enough to compute per
/// block. Used to seed the output buffer so encoding never reallocates.
pub fn encoded_size_hint(block: &Block) -> usize {
    // Worst-case item sizes: h256 = 33, address = 21, u64 = 9, u256 = 33,
    // list header = 9. Header: 3 hashes + 1 address + 6 integers + header.
    const HEADER: usize = 3 * 33 + 21 + 6 * 9 + 9;
    // Tx: sender + to + value + 3 integers + data header + list header.
    const TX_FIXED: usize = 21 + 21 + 33 + 3 * 9 + 9 + 9;
    // Access key: tag + address + slot + list header.
    const KEY: usize = 9 + 21 + 33 + 9;
    // Read pair: key + version + pair header; write pair: key + value + hdr.
    const READ: usize = KEY + 9 + 9;
    const WRITE: usize = KEY + 33 + 9;
    let txs: usize = block
        .transactions
        .iter()
        .map(|tx| TX_FIXED + tx.data.len())
        .sum();
    let profile: usize = block
        .profile
        .entries
        .iter()
        // Entry = reads + writes + gas + entry/reads/writes list headers,
        // and each code a `Code` write spells with its string header.
        .map(|e| {
            let code: usize = e.code.values().map(|code| code.len() + 9).sum();
            e.reads.len() * READ + e.writes.len() * WRITE + code + 9 + 3 * 9
        })
        .sum();
    // Outer list + the two collection headers (or empty markers).
    HEADER + txs + profile + 4 * 9
}

/// Encodes a block for broadcast.
pub fn encode_block(block: &Block) -> Vec<u8> {
    encode_block_with(block, RlpStream::with_capacity(encoded_size_hint(block)))
}

/// Encodes a block into a reusable scratch buffer (cleared first), returning
/// the encoded bytes in that buffer. Steady-state encode loops pass the Vec
/// back in each round and amortize the allocation away entirely.
pub fn encode_block_into(block: &Block, buf: Vec<u8>) -> Vec<u8> {
    let mut s = RlpStream::from_vec(buf);
    s.reserve(encoded_size_hint(block));
    encode_block_with(block, s)
}

fn encode_block_with(block: &Block, mut s: RlpStream) -> Vec<u8> {
    s.begin_list(3);
    append_header(&mut s, &block.header);
    s.begin_list(block.transactions.len().max(1));
    if block.transactions.is_empty() {
        s.append_bytes(&[]);
    } else {
        for tx in &block.transactions {
            append_tx(&mut s, tx);
        }
    }
    s.begin_list(block.profile.entries.len().max(1));
    if block.profile.entries.is_empty() {
        s.append_bytes(&[]);
    } else {
        for entry in &block.profile.entries {
            append_profile_entry(&mut s, entry);
        }
    }
    s.out()
}

/// Decodes a broadcast block.
pub fn decode_block(data: &[u8]) -> Result<Block, DecodeError> {
    let mut top = rlp::decode_list(data)?;
    let header = decode_header(top.list()?)?;
    let transactions =
        decode_collection(top.list()?, MIN_TX_BYTES, |item| decode_tx(item.list()?))?;
    let entries = decode_collection(top.list()?, MIN_ENTRY_BYTES, |item| {
        decode_profile_entry(item.list()?)
    })?;
    top.end()?;
    Ok(Block {
        header,
        transactions,
        profile: BlockProfile { entries },
    })
}

/// Fewest bytes one element of each collection can encode to. A pre-count
/// above what the collection's bytes could hold is refused before anything
/// is allocated for it, so a run of one-byte items cannot reserve a hundred
/// times its size in `Vec` slots.
const MIN_TX_BYTES: usize = 1 + 21 + 6;
const MIN_ENTRY_BYTES: usize = 1 + 2 + 2 + 1;
const MIN_PAIR_BYTES: usize = 1 + (1 + 1 + 21 + 1) + 1;

/// How many elements the collection under `list` holds, with the cursor
/// placed on the first. An empty collection is encoded as a one-element list
/// holding the empty string (RLP lists of length zero collide with our
/// fixed-arity scheme), which reads as zero elements; the zero-item list the
/// encoder never writes is rejected.
fn collection(list: Reader<'_>, min_bytes: usize) -> Result<(usize, Reader<'_>), DecodeError> {
    let mut marker = list;
    if matches!(marker.next_item(), Ok(Token::Str([]))) && marker.is_empty() {
        return Ok((0, marker));
    }
    let len = list.count()?;
    if len == 0 || len > list.remaining() / min_bytes {
        return Err(DecodeError::TypeMismatch);
    }
    Ok((len, list))
}

/// Decodes a collection into a `Vec` allocated once at its final size.
fn decode_collection<'a, T>(
    list: Reader<'a>,
    min_bytes: usize,
    mut element: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let (len, mut items) = collection(list, min_bytes)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(element(&mut items)?);
    }
    items.end()?;
    Ok(out)
}

/// Decodes a footprint — `[key, value]` pairs — into a map allocated once.
/// Keys must come strictly ascending, as the encoder writes them: that is
/// what makes the bytes of a footprint unique, and it rules out the repeated
/// key a map insert would silently swallow.
fn decode_footprint<'a, V>(
    list: Reader<'a>,
    mut value: impl FnMut(AccessKey, &mut Reader<'a>) -> Result<V, DecodeError>,
) -> Result<FxHashMap<AccessKey, V>, DecodeError> {
    let (len, mut pairs) = collection(list, MIN_PAIR_BYTES)?;
    let mut out = FxHashMap::with_capacity_and_hasher(len, Default::default());
    let mut prev: Option<AccessKey> = None;
    for _ in 0..len {
        let mut pair = pairs.list()?;
        let key = decode_access_key(pair.list()?)?;
        if prev.is_some_and(|prev| prev >= key) {
            return Err(DecodeError::TypeMismatch);
        }
        prev = Some(key);
        out.insert(key, value(key, &mut pair)?);
        pair.end()?;
    }
    pairs.end()?;
    Ok(out)
}

fn append_header(s: &mut RlpStream, h: &BlockHeader) {
    s.begin_list(10);
    s.append_h256(&h.parent_hash);
    s.append_u64(h.height);
    s.append_h256(&h.state_root);
    s.append_h256(&h.tx_root);
    s.append_h256(&h.receipts_root);
    s.append_u64(h.gas_used);
    s.append_u64(h.gas_limit);
    s.append_address(&h.coinbase);
    s.append_u64(h.timestamp);
    s.append_u64(h.proposer_seed);
}

fn decode_header(mut l: Reader<'_>) -> Result<BlockHeader, DecodeError> {
    let header = BlockHeader {
        parent_hash: l.h256()?,
        height: l.u64()?,
        state_root: l.h256()?,
        tx_root: l.h256()?,
        receipts_root: l.h256()?,
        gas_used: l.u64()?,
        gas_limit: l.u64()?,
        coinbase: l.address()?,
        timestamp: l.u64()?,
        proposer_seed: l.u64()?,
    };
    l.end()?;
    Ok(header)
}

fn append_tx(s: &mut RlpStream, tx: &Transaction) {
    s.begin_list(7);
    s.append_address(&tx.sender);
    match &tx.to {
        Some(to) => s.append_address(to),
        None => s.append_bytes(&[]),
    }
    s.append_u256(&tx.value);
    s.append_u64(tx.nonce);
    s.append_u64(tx.gas_limit);
    s.append_u64(tx.gas_price);
    s.append_bytes(&tx.data);
}

fn decode_tx(mut l: Reader<'_>) -> Result<Transaction, DecodeError> {
    let tx = Transaction {
        sender: l.address()?,
        // The recipient is an address or, for a deployment, the empty string.
        to: match l.bytes()? {
            [] => None,
            to => Some(Address(
                to.try_into().map_err(|_| DecodeError::BadFixedLen)?,
            )),
        },
        value: l.u256()?,
        nonce: l.u64()?,
        gas_limit: l.u64()?,
        gas_price: l.u64()?,
        data: l.bytes()?.to_vec(),
    };
    l.end()?;
    Ok(tx)
}

fn append_access_key(s: &mut RlpStream, key: &AccessKey) {
    s.begin_list(3);
    match key {
        AccessKey::Balance(a) => {
            s.append_u64(0);
            s.append_address(a);
            s.append_bytes(&[]);
        }
        AccessKey::Nonce(a) => {
            s.append_u64(1);
            s.append_address(a);
            s.append_bytes(&[]);
        }
        AccessKey::Storage(a, slot) => {
            s.append_u64(2);
            s.append_address(a);
            s.append_h256(slot);
        }
        AccessKey::Code(a) => {
            s.append_u64(3);
            s.append_address(a);
            s.append_bytes(&[]);
        }
    }
}

fn decode_access_key(mut l: Reader<'_>) -> Result<AccessKey, DecodeError> {
    let tag = l.u64()?;
    let addr = l.address()?;
    let slot = l.bytes()?;
    l.end()?;
    // Only a storage key uses the third slot; the others leave it empty, and
    // only empty is canonical.
    Ok(match (tag, slot) {
        (0, []) => AccessKey::Balance(addr),
        (1, []) => AccessKey::Nonce(addr),
        (2, slot) => AccessKey::Storage(
            addr,
            H256(slot.try_into().map_err(|_| DecodeError::BadFixedLen)?),
        ),
        (3, []) => AccessKey::Code(addr),
        _ => return Err(DecodeError::TypeMismatch),
    })
}

fn append_profile_entry(s: &mut RlpStream, entry: &TxProfile) {
    s.begin_list(3);
    // Footprints are hash maps; sort so the wire bytes (and therefore the
    // block hash) are deterministic regardless of insertion or bucket order.
    s.begin_list(entry.reads.len().max(1));
    if entry.reads.is_empty() {
        s.append_bytes(&[]);
    } else {
        let mut reads: Vec<_> = entry.reads.iter().collect();
        reads.sort_by_key(|(key, _)| **key);
        for (key, version) in reads {
            s.begin_list(2);
            append_access_key(s, key);
            s.append_u64(*version);
        }
    }
    s.begin_list(entry.writes.len().max(1));
    if entry.writes.is_empty() {
        s.append_bytes(&[]);
    } else {
        let mut writes: Vec<_> = entry.writes.iter().collect();
        writes.sort_by_key(|(key, _)| **key);
        for (key, value) in writes {
            s.begin_list(2);
            append_access_key(s, key);
            match key {
                AccessKey::Code(addr) => s.append_bytes(&entry.code[addr]),
                _ => s.append_u256(value),
            }
        }
    }
    s.append_u64(entry.gas_used);
}

fn decode_profile_entry(mut l: Reader<'_>) -> Result<TxProfile, DecodeError> {
    let reads = decode_footprint(l.list()?, |_, r| r.u64())?;
    let mut code = FxHashMap::default();
    let writes = decode_footprint(l.list()?, |key, r| match key {
        AccessKey::Code(addr) => Ok(deployed(&mut code, addr, r.bytes()?)),
        _ => r.u256(),
    })?;
    let entry = TxProfile {
        reads,
        writes,
        code,
        gas_used: l.u64()?,
    };
    l.end()?;
    Ok(entry)
}

/// Keeps the code a `Code` write of `addr` spells and returns the write's
/// value: the code's hash as a word, what the EVM writes for the key.
fn deployed(code: &mut FxHashMap<Address, Arc<Vec<u8>>>, addr: Address, bytes: &[u8]) -> U256 {
    code.insert(addr, Arc::new(bytes.to_vec()));
    keccak256(bytes).to_u256()
}

/// Convenience: the round trip used by tests and the dissemination layer.
pub fn roundtrip(block: &Block) -> Result<Block, DecodeError> {
    decode_block(&encode_block(block))
}

pub mod reference {
    //! The block decoder as it was before the streaming rewrite, retained
    //! over [`bp_crypto::rlp::reference`]'s item tree: the oracle the
    //! differential tests hold [`decode_block`](super::decode_block) to, and
    //! the "before" the `wire_codec` bench times. It accepts everything the
    //! streaming decoder accepts and three non-canonical spellings besides
    //! (unsorted or repeated footprint keys, a non-empty unused key slot, a
    //! zero-item list for an empty collection).

    use bp_crypto::rlp::reference::{decode, Item};
    use bp_crypto::rlp::DecodeError;
    use bp_evm::Transaction;
    use bp_types::{AccessKey, FxHashMap, ReadSet, WriteSet};

    use crate::{Block, BlockHeader, BlockProfile, TxProfile};

    /// Decodes a broadcast block through the item tree.
    pub fn decode_block(data: &[u8]) -> Result<Block, DecodeError> {
        let item = decode(data)?;
        let l = expect_list(&item, 3)?;
        let header = decode_header(&l[0])?;
        let txs_list = l[1].as_list()?;
        let transactions = if is_empty_marker(txs_list) {
            Vec::new()
        } else {
            txs_list.iter().map(decode_tx).collect::<Result<_, _>>()?
        };
        let profile_list = l[2].as_list()?;
        let entries = if is_empty_marker(profile_list) {
            Vec::new()
        } else {
            profile_list
                .iter()
                .map(decode_profile_entry)
                .collect::<Result<_, _>>()?
        };
        Ok(Block {
            header,
            transactions,
            profile: BlockProfile { entries },
        })
    }

    fn is_empty_marker(items: &[Item]) -> bool {
        matches!(items, [Item::Bytes(b)] if b.is_empty())
    }

    fn expect_list(item: &Item, len: usize) -> Result<&[Item], DecodeError> {
        let l = item.as_list()?;
        if l.len() != len {
            return Err(DecodeError::TypeMismatch);
        }
        Ok(l)
    }

    fn decode_header(item: &Item) -> Result<BlockHeader, DecodeError> {
        let l = expect_list(item, 10)?;
        Ok(BlockHeader {
            parent_hash: l[0].as_h256()?,
            height: l[1].as_u64()?,
            state_root: l[2].as_h256()?,
            tx_root: l[3].as_h256()?,
            receipts_root: l[4].as_h256()?,
            gas_used: l[5].as_u64()?,
            gas_limit: l[6].as_u64()?,
            coinbase: l[7].as_address()?,
            timestamp: l[8].as_u64()?,
            proposer_seed: l[9].as_u64()?,
        })
    }

    fn decode_tx(item: &Item) -> Result<Transaction, DecodeError> {
        let l = expect_list(item, 7)?;
        let to_bytes = l[1].as_bytes()?;
        let to = if to_bytes.is_empty() {
            None
        } else {
            Some(l[1].as_address()?)
        };
        Ok(Transaction {
            sender: l[0].as_address()?,
            to,
            value: l[2].as_u256()?,
            nonce: l[3].as_u64()?,
            gas_limit: l[4].as_u64()?,
            gas_price: l[5].as_u64()?,
            data: l[6].as_bytes()?.to_vec(),
        })
    }

    fn decode_access_key(item: &Item) -> Result<AccessKey, DecodeError> {
        let l = expect_list(item, 3)?;
        let tag = l[0].as_u64()?;
        let addr = l[1].as_address()?;
        Ok(match tag {
            0 => AccessKey::Balance(addr),
            1 => AccessKey::Nonce(addr),
            2 => AccessKey::Storage(addr, l[2].as_h256()?),
            3 => AccessKey::Code(addr),
            _ => return Err(DecodeError::TypeMismatch),
        })
    }

    fn decode_profile_entry(item: &Item) -> Result<TxProfile, DecodeError> {
        let l = expect_list(item, 3)?;
        let mut reads: ReadSet = Default::default();
        let reads_list = l[0].as_list()?;
        if !is_empty_marker(reads_list) {
            for pair in reads_list {
                let p = expect_list(pair, 2)?;
                reads.insert(decode_access_key(&p[0])?, p[1].as_u64()?);
            }
        }
        let mut writes: WriteSet = Default::default();
        let mut code = FxHashMap::default();
        let writes_list = l[1].as_list()?;
        if !is_empty_marker(writes_list) {
            for pair in writes_list {
                let p = expect_list(pair, 2)?;
                let key = decode_access_key(&p[0])?;
                let value = match key {
                    AccessKey::Code(addr) => super::deployed(&mut code, addr, p[1].as_bytes()?),
                    _ => p[1].as_u256()?,
                };
                writes.insert(key, value);
            }
        }
        Ok(TxProfile {
            reads,
            writes,
            code,
            gas_used: l[2].as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genesis_header;
    use bp_types::RwSet;

    fn sample_block() -> Block {
        let mut header = genesis_header(H256::from_low_u64(9));
        header.height = 3;
        header.gas_used = 63_000;
        let txs = vec![
            Transaction::transfer(
                Address::from_index(1),
                Address::from_index(2),
                U256::ONE,
                0,
                5,
            ),
            Transaction {
                sender: Address::from_index(3),
                to: None,
                value: U256::from(7u64),
                nonce: 2,
                gas_limit: 100_000,
                gas_price: 9,
                data: vec![0x60, 0x00, 0xF3],
            },
        ];
        let mut profile = BlockProfile::new();
        for tx in &txs {
            let mut rw = RwSet::new();
            rw.record_read(AccessKey::Balance(tx.sender), 0);
            rw.record_read(AccessKey::Nonce(tx.sender), 1);
            rw.record_write(AccessKey::Balance(tx.sender), U256::from(100u64));
            rw.record_write(
                AccessKey::Storage(Address::from_index(50), H256::from_low_u64(3)),
                U256::from(8u64),
            );
            // The deployment ships its code; the write's value is its hash.
            let code = Arc::new(tx.data.clone());
            let deployed = Address::from_index(51);
            rw.record_write(AccessKey::Code(deployed), keccak256(&code).to_u256());
            let mut entry = TxProfile::from_owned_rw(rw, Default::default(), 21_000);
            entry.code.insert(deployed, code);
            profile.push(entry);
        }
        Block {
            header,
            transactions: txs,
            profile,
        }
    }

    #[test]
    fn block_roundtrips() {
        let block = sample_block();
        let decoded = roundtrip(&block).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.hash(), block.hash());
    }

    #[test]
    fn empty_block_roundtrips() {
        let block = Block {
            header: genesis_header(H256::from_low_u64(1)),
            transactions: vec![],
            profile: BlockProfile::new(),
        };
        let decoded = roundtrip(&block).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = encode_block(&sample_block());
        for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_block(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bitflips_never_yield_the_same_block() {
        let block = sample_block();
        let bytes = encode_block(&block);
        // Flip one byte at a sample of positions: the result must either
        // fail to decode or decode to a *different* block (a flipped
        // transaction byte leaves the header hash intact but trips the
        // header's tx_root during validation — the content difference is
        // what matters here).
        for pos in (0..bytes.len()).step_by(7) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x01;
            match decode_block(&mutated) {
                Err(_) => {}
                Ok(other) => {
                    assert_ne!(other, block, "bitflip at {pos} went unnoticed");
                }
            }
        }
    }

    #[test]
    fn size_hint_bounds_actual_encoding() {
        for block in [
            sample_block(),
            Block {
                header: genesis_header(H256::from_low_u64(1)),
                transactions: vec![],
                profile: BlockProfile::new(),
            },
        ] {
            let bytes = encode_block(&block);
            assert!(
                bytes.len() <= encoded_size_hint(&block),
                "hint {} < actual {}",
                encoded_size_hint(&block),
                bytes.len()
            );
        }
    }

    #[test]
    fn scratch_buffer_encoding_is_identical_and_allocation_free() {
        let block = sample_block();
        let fresh = encode_block(&block);
        // Round 1 sizes the buffer; round 2 must reuse it without growing.
        let buf = encode_block_into(&block, Vec::new());
        assert_eq!(buf, fresh);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let buf = encode_block_into(&block, buf);
        assert_eq!(buf, fresh);
        assert_eq!(buf.capacity(), cap, "steady-state encode grew the buffer");
        assert_eq!(buf.as_ptr(), ptr, "steady-state encode reallocated");
    }

    #[test]
    fn accepted_bytes_reencode_to_themselves() {
        // Flip every bit of the sample block's encoding in turn: whatever
        // still decodes is the one spelling of the block it decodes to, and
        // the oracle reads the same block.
        let bytes = encode_block(&sample_block());
        let mut accepted = 0;
        for bit in 0..bytes.len() * 8 {
            let mut mutated = bytes.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            if let Ok(block) = decode_block(&mutated) {
                accepted += 1;
                assert_eq!(encode_block(&block), mutated, "bit {bit}");
                assert_eq!(reference::decode_block(&mutated), Ok(block), "bit {bit}");
            }
        }
        assert!(
            accepted > 0,
            "value bytes can flip without breaking the form"
        );
    }

    #[test]
    fn a_code_write_reads_back_as_the_hash_of_the_code_it_spells() {
        let decoded = roundtrip(&sample_block()).unwrap();
        let key = AccessKey::Code(Address::from_index(51));
        // The transfer's entry ships empty code: its write is still the
        // hash of the empty string, as the EVM writes it, not zero.
        for (entry, code) in decoded
            .profile
            .entries
            .iter()
            .zip([&[][..], &[0x60, 0x00, 0xF3]])
        {
            assert_eq!(entry.writes[&key], keccak256(code).to_u256());
            assert_eq!(**entry.code.values().next().unwrap(), code);
        }
        assert_ne!(keccak256(&[]).to_u256(), U256::ZERO);
    }

    #[test]
    fn create_transaction_roundtrips() {
        let block = sample_block();
        let decoded = roundtrip(&block).unwrap();
        assert_eq!(decoded.transactions[1].to, None);
        assert_eq!(decoded.transactions[1].data, vec![0x60, 0x00, 0xF3]);
    }
}
