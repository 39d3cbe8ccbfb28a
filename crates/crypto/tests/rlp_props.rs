//! Property tests: RLP encode/decode roundtrip and canonicality, run against
//! both the streaming reader and the reference item-tree decoder (which must
//! agree, error kind included, on every input tried); Keccak incremental
//! hashing.

use bp_crypto::rlp::reference::{self, encode_item, Item};
use bp_crypto::rlp::{DecodeError, Reader};
use bp_crypto::{keccak256, Keccak256};
use bp_testkit::prelude::*;

fn arb_item() -> impl Strategy<Value = Item> {
    let leaf = prop::collection::vec(any::<u8>(), 0..200).prop_map(Item::Bytes);
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop::collection::vec(inner, 0..8).prop_map(Item::List)
    })
}

/// One top-level item read through the streaming [`Reader`] into the
/// reference's tree form.
fn read_tree(data: &[u8]) -> Result<Item, DecodeError> {
    let mut r = Reader::new(data);
    let item = Item::read(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(item)
}

/// Decodes with both decoders and insists they agree.
fn decode(data: &[u8]) -> Result<Item, DecodeError> {
    let read = read_tree(data);
    assert_eq!(read, reference::decode(data), "reader vs reference");
    // `skip` and `count` walk the same bytes to the same verdict.
    let mut r = Reader::new(data);
    let skipped = r.skip().is_ok() && r.is_empty();
    assert_eq!(skipped, read.is_ok(), "skip vs read");
    if let Ok(Item::List(items)) = &read {
        let list = bp_crypto::rlp::decode_list(data).expect("a list");
        assert_eq!(list.count(), Ok(items.len()));
    }
    read
}

proptest! {
    #[test]
    fn rlp_roundtrip(item in arb_item()) {
        let enc = encode_item(&item);
        let dec = decode(&enc).unwrap();
        prop_assert_eq!(dec, item);
    }

    #[test]
    fn rlp_encoding_is_canonical(item in arb_item()) {
        // Re-encoding a decoded item reproduces the identical bytes: there is
        // exactly one valid encoding per item.
        let enc = encode_item(&item);
        let dec = decode(&enc).unwrap();
        prop_assert_eq!(encode_item(&dec), enc);
    }

    #[test]
    fn rlp_prefix_of_encoding_fails(item in arb_item()) {
        let enc = encode_item(&item);
        if enc.len() > 1 {
            prop_assert!(decode(&enc[..enc.len() - 1]).is_err());
        }
    }

    #[test]
    fn rlp_extended_encoding_fails(item in arb_item(), extra in 0u8..255) {
        let mut enc = encode_item(&item);
        enc.push(extra);
        prop_assert!(decode(&enc).is_err());
    }

    #[test]
    fn rlp_mutations_get_one_verdict(
        item in arb_item(),
        edits in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>(), 0u8..3), 1..4),
    ) {
        // Overwrite, insert or delete a few bytes: whatever comes out, the
        // two decoders say the same thing about it (asserted in `decode`),
        // and anything accepted re-encodes to the bytes it came from.
        let mut enc = encode_item(&item);
        for (at, byte, kind) in edits {
            let at = at.index(enc.len());
            match kind {
                0 => enc[at] = byte,
                1 => enc.insert(at, byte),
                _ => { enc.remove(at); }
            }
            if enc.is_empty() {
                break;
            }
        }
        if let Ok(dec) = decode(&enc) {
            prop_assert_eq!(encode_item(&dec), enc);
        }
    }

    #[test]
    fn keccak_incremental_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2000),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let mut offsets: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        let mut h = Keccak256::new();
        for w in offsets.windows(2) {
            h.update(&data[w[0]..w[1]]);
        }
        prop_assert_eq!(h.finalize(), keccak256(&data));
    }

    #[test]
    fn keccak_no_trivial_collisions(a in prop::collection::vec(any::<u8>(), 0..100),
                                    b in prop::collection::vec(any::<u8>(), 0..100)) {
        if a != b {
            prop_assert_ne!(keccak256(&a), keccak256(&b));
        }
    }
}
