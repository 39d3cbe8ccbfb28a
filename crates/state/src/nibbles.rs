//! Nibble paths and hex-prefix encoding for the Merkle Patricia Trie.
//!
//! Trie keys are sequences of 4-bit nibbles. Leaf and extension nodes store a
//! nibble path compacted with Ethereum's *hex-prefix* (HP) encoding, whose
//! first nibble carries two flags: parity of the path length, and whether the
//! node is a leaf (terminator) or an extension.
//!
//! [`Nibbles`] keeps a path in that packed form — two nibbles a byte, the
//! last nibble always in the low half of the last byte — so a node's
//! encoding copies the path out as it is, and the tail of a byte key (which
//! ends on a byte boundary as well) becomes a leaf path with one `memcpy`.

/// Set in the first packed byte when the path has an odd number of nibbles
/// (the first nibble then sits in that byte's low half).
const ODD: u8 = 0x10;
/// The hex-prefix leaf (terminator) flag, or-ed into the first byte on encoding.
const LEAF: u8 = 0x20;

/// Nibble `i` of `bytes` read as a flat nibble array, high nibble first.
pub fn nibble_at(bytes: &[u8], i: usize) -> u8 {
    let byte = bytes[i / 2];
    if i.is_multiple_of(2) {
        byte >> 4
    } else {
        byte & 0x0F
    }
}

/// A path of nibbles (each 0..=15), packed in hex-prefix layout without the
/// leaf flag: byte 0 is `0x10 | first nibble` for an odd-length path and
/// `0x00` for an even one, and the remaining nibbles follow two a byte.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Nibbles(Box<[u8]>);

impl Default for Nibbles {
    fn default() -> Self {
        Nibbles(Box::new([0]))
    }
}

impl std::fmt::Debug for Nibbles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.at(i)))
            .finish()
    }
}

impl Nibbles {
    /// A path of `len` nibbles, the `i`-th being `nibble(i)`.
    pub fn from_fn(len: usize, nibble: impl Fn(usize) -> u8) -> Self {
        let mut packed = vec![0u8; len / 2 + 1];
        if len % 2 == 1 {
            packed[0] = ODD;
        }
        let skew = 2 - len % 2;
        for i in 0..len {
            let at = i + skew;
            let shift = if at.is_multiple_of(2) { 4 } else { 0 };
            packed[at / 2] |= nibble(i) << shift;
        }
        Nibbles(packed.into_boxed_slice())
    }

    /// Packs one nibble per input byte.
    pub fn from_nibbles(nibbles: &[u8]) -> Self {
        Self::from_fn(nibbles.len(), |i| nibbles[i])
    }

    /// The nibbles of `bytes`, read as a flat nibble array, from position
    /// `at` to the end. The end is a byte boundary, as the end of a packed
    /// path is: the whole bytes after the cut are the packed form already,
    /// and the low half of the byte an odd cut falls in goes in front.
    fn tail_of(bytes: &[u8], at: usize) -> Self {
        let whole = &bytes[at.div_ceil(2)..];
        let mut packed = Vec::with_capacity(whole.len() + 1);
        packed.push(if at % 2 == 1 {
            ODD | (bytes[at / 2] & 0x0F)
        } else {
            0
        });
        packed.extend_from_slice(whole);
        Nibbles(packed.into_boxed_slice())
    }

    /// The nibbles of the byte key `key` from nibble `from` to its end.
    pub fn from_key(key: &[u8], from: usize) -> Self {
        Self::tail_of(key, from)
    }

    /// Position of nibble 0 in the flat nibble array of the packed bytes.
    fn skew(&self) -> usize {
        if self.0[0] & ODD != 0 {
            1
        } else {
            2
        }
    }

    /// Path length in nibbles.
    pub fn len(&self) -> usize {
        self.0.len() * 2 - self.skew()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.len() == 1 && self.0[0] == 0
    }

    /// Nibble at `i`.
    pub fn at(&self, i: usize) -> u8 {
        nibble_at(&self.0, i + self.skew())
    }

    /// The sub-path starting at `from`.
    pub fn slice_from(&self, from: usize) -> Nibbles {
        Self::tail_of(&self.0, from + self.skew())
    }

    /// The sub-path `from..to`.
    pub fn slice(&self, from: usize, to: usize) -> Nibbles {
        Self::from_fn(to - from, |i| self.at(from + i))
    }

    /// How many nibbles `self[from..]` and the byte key `key`, read from
    /// nibble `depth`, share before they differ or one of them ends.
    pub fn common_prefix_with_key(&self, from: usize, key: &[u8], depth: usize) -> usize {
        let max = (self.len() - from).min(key.len() * 2 - depth);
        (0..max)
            .find(|&i| self.at(from + i) != nibble_at(key, depth + i))
            .unwrap_or(max)
    }

    /// True iff the path is exactly the nibbles of `key` from `depth` on.
    pub fn is_key_tail(&self, key: &[u8], depth: usize) -> bool {
        // Both end on a byte boundary, so equal lengths mean equal parity
        // and the comparison is bytewise.
        depth <= key.len() * 2
            && self.0.len() == key.len() - depth.div_ceil(2) + 1
            && self.0[1..] == key[depth.div_ceil(2)..]
            && self.0[0]
                == if depth % 2 == 1 {
                    ODD | (key[depth / 2] & 0x0F)
                } else {
                    0
                }
    }

    /// Concatenates two paths.
    pub fn concat(&self, tail: &Nibbles) -> Nibbles {
        let head = self.len();
        Self::from_fn(head + tail.len(), |i| {
            if i < head {
                self.at(i)
            } else {
                tail.at(i - head)
            }
        })
    }

    /// Length of the hex-prefix encoding in bytes.
    pub fn hex_prefix_len(&self) -> usize {
        self.0.len()
    }

    /// Appends the hex-prefix encoding to `out`. `leaf` sets the terminator
    /// flag.
    pub fn write_hex_prefix(&self, leaf: bool, out: &mut Vec<u8>) {
        out.push(self.0[0] | if leaf { LEAF } else { 0 });
        out.extend_from_slice(&self.0[1..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a hex-prefix encoding, returning the path and the leaf flag.
    fn from_hex_prefix(data: &[u8]) -> Option<(Nibbles, bool)> {
        let &first = data.first()?;
        let flag = first >> 4;
        if flag > 3 {
            return None;
        }
        if flag % 2 == 0 && first & 0x0F != 0 {
            return None; // padding nibble must be zero
        }
        let mut packed: Box<[u8]> = data.into();
        packed[0] &= !LEAF;
        Some((Nibbles(packed), flag >= 2))
    }

    fn unpacked(n: &Nibbles) -> Vec<u8> {
        (0..n.len()).map(|i| n.at(i)).collect()
    }

    fn hex_prefix(nibbles: &[u8], leaf: bool) -> Vec<u8> {
        let mut out = Vec::new();
        Nibbles::from_nibbles(nibbles).write_hex_prefix(leaf, &mut out);
        out
    }

    #[test]
    fn from_key_expands_high_first() {
        let n = Nibbles::from_key(&[0xAB, 0x01], 0);
        assert_eq!(unpacked(&n), vec![0xA, 0xB, 0x0, 0x1]);
        assert_eq!(n.len(), 4);
        assert_eq!(n.at(0), 0xA);
        assert_eq!(n, Nibbles::from_nibbles(&[0xA, 0xB, 0x0, 0x1]));
    }

    #[test]
    fn hex_prefix_spec_vectors() {
        // From the yellow paper appendix C examples.
        // [1, 2, 3, 4, 5] extension (odd) -> 0x11 0x23 0x45
        assert_eq!(hex_prefix(&[1, 2, 3, 4, 5], false), vec![0x11, 0x23, 0x45]);
        // [0, 1, 2, 3, 4, 5] extension (even) -> 0x00 0x01 0x23 0x45
        assert_eq!(
            hex_prefix(&[0, 1, 2, 3, 4, 5], false),
            vec![0x00, 0x01, 0x23, 0x45]
        );
        // [0, 15, 1, 12, 11, 8] leaf (even) -> 0x20 0x0f 0x1c 0xb8
        assert_eq!(
            hex_prefix(&[0, 15, 1, 12, 11, 8], true),
            vec![0x20, 0x0f, 0x1c, 0xb8]
        );
        // [15, 1, 12, 11, 8] leaf (odd) -> 0x3f 0x1c 0xb8
        assert_eq!(
            hex_prefix(&[15, 1, 12, 11, 8], true),
            vec![0x3f, 0x1c, 0xb8]
        );
    }

    #[test]
    fn hex_prefix_roundtrip() {
        for len in 0..8 {
            for leaf in [false, true] {
                let n = Nibbles::from_fn(len, |i| (i * 3 % 16) as u8);
                let mut enc = Vec::new();
                n.write_hex_prefix(leaf, &mut enc);
                assert_eq!(enc.len(), n.hex_prefix_len());
                let (dec, got_leaf) = from_hex_prefix(&enc).unwrap();
                assert_eq!(dec, n);
                assert_eq!(got_leaf, leaf);
            }
        }
    }

    #[test]
    fn bad_hex_prefix_rejected() {
        assert!(from_hex_prefix(&[]).is_none());
        // Even-length flag with nonzero padding nibble.
        assert!(from_hex_prefix(&[0x05]).is_none());
        // Flag nibble out of range.
        assert!(from_hex_prefix(&[0x40]).is_none());
    }

    #[test]
    fn prefix_and_slicing() {
        let a = Nibbles::from_nibbles(&[1, 2, 3, 4]);
        let b = Nibbles::from_nibbles(&[1, 2, 9]);
        assert_eq!(a.slice_from(2), Nibbles::from_nibbles(&[3, 4]));
        assert_eq!(a.slice_from(1), Nibbles::from_nibbles(&[2, 3, 4]));
        assert_eq!(b.slice_from(1), Nibbles::from_nibbles(&[2, 9]));
        assert_eq!(b.slice_from(0), b);
        assert_eq!(a.slice_from(4), Nibbles::default());
        assert_eq!(a.slice(1, 3), Nibbles::from_nibbles(&[2, 3]));
        assert_eq!(a.concat(&b), Nibbles::from_nibbles(&[1, 2, 3, 4, 1, 2, 9]));
        assert!(Nibbles::default().is_empty());
        assert_eq!(Nibbles::default().len(), 0);
        assert!(!Nibbles::from_nibbles(&[0]).is_empty());
    }

    #[test]
    fn key_tails_and_shared_prefixes() {
        let key = [0x12, 0x34, 0x56];
        for from in 0..=6 {
            let tail = Nibbles::from_key(&key, from);
            assert_eq!(unpacked(&tail), [1, 2, 3, 4, 5, 6][from..].to_vec());
            assert!(tail.is_key_tail(&key, from));
            assert_eq!(tail.common_prefix_with_key(0, &key, from), 6 - from);
            if from > 0 {
                assert!(!tail.is_key_tail(&key, from - 1));
            }
            if from < 6 {
                assert!(!tail.is_key_tail(&key, from + 1));
            }
        }
        assert!(!Nibbles::from_nibbles(&[3, 4, 5, 7]).is_key_tail(&key, 2));
        assert!(!Nibbles::from_nibbles(&[9, 4, 5, 6]).is_key_tail(&key, 3));
        let path = Nibbles::from_nibbles(&[9, 3, 4, 7]);
        assert_eq!(path.common_prefix_with_key(1, &key, 2), 2);
        assert_eq!(path.common_prefix_with_key(0, &key, 2), 0);
        assert_eq!(path.common_prefix_with_key(1, &key, 5), 0);
        assert_eq!(path.common_prefix_with_key(4, &key, 2), 0);
    }
}
