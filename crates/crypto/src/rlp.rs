//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is Ethereum's canonical serialization for accounts, transactions,
//! block headers and trie nodes. We implement the full spec:
//!
//! * a single byte in `[0x00, 0x7f]` is its own encoding;
//! * a string of 0–55 bytes: `0x80 + len` followed by the bytes;
//! * a longer string: `0xb7 + len_of_len`, the big-endian length, the bytes;
//! * a list whose payload is 0–55 bytes: `0xc0 + len` followed by the items;
//! * a longer list: `0xf7 + len_of_len`, the big-endian length, the items.
//!
//! Decoding is strict: non-minimal length encodings and trailing bytes are
//! rejected, which is required when validating data received from proposers.
//! It is also borrowed and streaming: a [`Reader`] is a cursor over the input
//! bytes that hands out string slices and nested cursors, so a decoder walks
//! its schema once and allocates only what its own output holds. The
//! item-tree decoder this replaced lives on in [`reference`], where tests and
//! benches use it as the differential oracle.

use bp_types::{Address, H256, U256};
use core::fmt;

/// Errors produced by the strict decoder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// Input ended before the announced payload, or a list before the
    /// items its reader asked for.
    UnexpectedEof,
    /// A long-form length had leading zeros or encoded a short value.
    NonMinimalLength,
    /// A single byte below 0x80 was wrapped in a string header.
    NonMinimalByte,
    /// Extra bytes remained after the top-level item.
    TrailingBytes,
    /// The announced length overflows usize.
    LengthOverflow,
    /// Expected a string, found a list (or vice versa), or a list held more
    /// items than its schema.
    TypeMismatch,
    /// An integer field had a leading zero byte or was too large.
    BadInteger,
    /// A fixed-size field (hash, address) had the wrong length.
    BadFixedLen,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            DecodeError::UnexpectedEof => "unexpected end of input",
            DecodeError::NonMinimalLength => "non-minimal length encoding",
            DecodeError::NonMinimalByte => "single byte should be encoded directly",
            DecodeError::TrailingBytes => "trailing bytes after item",
            DecodeError::LengthOverflow => "length overflows usize",
            DecodeError::TypeMismatch => "unexpected item type",
            DecodeError::BadInteger => "invalid integer encoding",
            DecodeError::BadFixedLen => "wrong length for fixed-size field",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Streaming RLP encoder.
///
/// Typical use builds nested lists with [`RlpStream::begin_list`]:
///
/// ```
/// use bp_crypto::rlp::RlpStream;
/// let mut s = RlpStream::new();
/// s.begin_list(2);
/// s.append_bytes(b"cat");
/// s.append_bytes(b"dog");
/// assert_eq!(s.out()[0], 0xc8);
/// ```
#[derive(Default)]
pub struct RlpStream {
    out: Vec<u8>,
    // Stack of (start offset in `out`, items remaining) for open lists.
    open: Vec<(usize, usize)>,
}

impl RlpStream {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh encoder whose output buffer starts at `capacity` bytes, for
    /// callers that can bound the encoded size up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            out: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// An encoder that reuses `buf` as its output buffer (cleared first), so
    /// steady-state encoding loops pay no allocation after warm-up. Recover
    /// the buffer with [`RlpStream::out`] and pass it back in.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            out: buf,
            open: Vec::new(),
        }
    }

    /// Reserves room for at least `additional` more output bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// Opens a list of exactly `len` items. The header is patched in when the
    /// final item is appended.
    pub fn begin_list(&mut self, len: usize) {
        if len == 0 {
            self.append_raw_item(&[0xc0]);
            return;
        }
        self.open.push((self.out.len(), len));
    }

    /// Appends a byte-string item.
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        self.out.reserve(bytes.len() + 9);
        append_str(&mut self.out, bytes);
        self.close_lists();
    }

    /// Appends an integer in minimal big-endian form.
    pub fn append_u64(&mut self, v: u64) {
        self.append_bytes(trim(&v.to_be_bytes()));
    }

    /// Appends a 256-bit integer in minimal big-endian form.
    pub fn append_u256(&mut self, v: &U256) {
        self.append_bytes(trim(&v.to_be_bytes()));
    }

    /// Appends a 32-byte hash.
    pub fn append_h256(&mut self, h: &H256) {
        self.append_bytes(&h.0);
    }

    /// Appends a 20-byte address.
    pub fn append_address(&mut self, a: &Address) {
        self.append_bytes(&a.0);
    }

    fn append_raw_item(&mut self, raw: &[u8]) {
        self.out.extend_from_slice(raw);
        self.close_lists();
    }

    fn close_lists(&mut self) {
        while let Some(top) = self.open.last_mut() {
            top.1 -= 1;
            if top.1 > 0 {
                return;
            }
            let (start, _) = self.open.pop().expect("stack non-empty");
            let payload_len = self.out.len() - start;
            let (header, header_len) = list_header(payload_len);
            // splice header before payload
            self.out
                .splice(start..start, header[..header_len].iter().copied());
        }
    }

    /// Finishes encoding and returns the bytes. Panics if a list is still
    /// open (that is a programming error, not a data error).
    pub fn out(self) -> Vec<u8> {
        assert!(self.open.is_empty(), "RlpStream finished with open list");
        self.out
    }
}

/// A big-endian integer without its leading zero bytes (empty for zero): the
/// minimal form RLP requires.
fn trim(be: &[u8]) -> &[u8] {
    &be[be.iter().position(|&b| b != 0).unwrap_or(be.len())..]
}

/// The header of a `len`-byte string whose first byte is `first`, on the
/// stack: (bytes, length used). Empty for a single byte below 0x80, which is
/// its own encoding.
pub fn str_header(len: usize, first: u8) -> ([u8; 9], usize) {
    if len == 1 && first < 0x80 {
        return ([0u8; 9], 0);
    }
    header(0x80, len)
}

/// The length of the string item holding `len` bytes, the first of them
/// `first`: its header and its bytes, for a caller that sizes a buffer
/// exactly before writing.
pub fn str_len(len: usize, first: u8) -> usize {
    str_header(len, first).1 + len
}

/// Appends `bytes` to `out` as a string item.
pub fn append_str(out: &mut Vec<u8>, bytes: &[u8]) {
    let (header, header_len) = str_header(bytes.len(), bytes.first().copied().unwrap_or(0));
    out.extend_from_slice(&header[..header_len]);
    out.extend_from_slice(bytes);
}

/// A list header on the stack: (bytes, length used). At most 1 prefix byte
/// plus 8 big-endian length bytes.
pub fn list_header(payload_len: usize) -> ([u8; 9], usize) {
    header(0xc0, payload_len)
}

fn header(short: u8, len: usize) -> ([u8; 9], usize) {
    let mut header = [0u8; 9];
    if len <= 55 {
        header[0] = short + len as u8;
        (header, 1)
    } else {
        let be = (len as u64).to_be_bytes();
        let len_bytes = trim(&be);
        header[0] = short + 55 + len_bytes.len() as u8;
        header[1..1 + len_bytes.len()].copy_from_slice(len_bytes);
        (header, 1 + len_bytes.len())
    }
}

/// Encodes a byte string as a standalone item.
pub fn encode_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut s = RlpStream::new();
    s.append_bytes(bytes);
    s.out()
}

/// RLP items written to a fixed stack buffer, for short records that are
/// hashed rather than kept (a transaction's fixed fields, a receipt
/// summary). `N` must bound the encoded size; overrunning it is a
/// programming error and panics.
pub struct StackStream<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Default for StackStream<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> StackStream<N> {
    /// An empty buffer.
    pub fn new() -> Self {
        StackStream {
            buf: [0u8; N],
            len: 0,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// Appends a byte-string item.
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        let (header, header_len) = str_header(bytes.len(), bytes.first().copied().unwrap_or(0));
        self.put(&header[..header_len]);
        self.put(bytes);
    }

    /// Appends an integer in minimal big-endian form.
    pub fn append_u64(&mut self, v: u64) {
        self.append_bytes(trim(&v.to_be_bytes()));
    }

    /// Appends a 256-bit integer in minimal big-endian form.
    pub fn append_u256(&mut self, v: &U256) {
        self.append_bytes(trim(&v.to_be_bytes()));
    }

    /// The items written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One item read by a [`Reader`], borrowed from the input.
#[derive(Clone, Copy, Debug)]
pub enum Token<'a> {
    /// A byte string: its payload.
    Str(&'a [u8]),
    /// A list: a cursor over its items.
    List(Reader<'a>),
}

/// A cursor over a run of RLP items — the payload of a list, or a buffer of
/// concatenated items — that decodes as it advances and allocates nothing.
///
/// Each read checks the item it steps over (minimal byte and length forms,
/// length overflow, payload inside the input) and nothing beyond it: the
/// items of a nested list are checked when its own cursor walks them. A
/// decoder that reads every field of its schema and calls [`Reader::end`] on
/// every list has therefore checked the whole input.
///
/// ```
/// use bp_crypto::rlp::{decode_list, RlpStream};
/// let mut s = RlpStream::new();
/// s.begin_list(2);
/// s.append_u64(7);
/// s.append_bytes(b"cat");
/// let bytes = s.out();
/// let mut list = decode_list(&bytes).unwrap();
/// assert_eq!(list.u64().unwrap(), 7);
/// assert_eq!(list.bytes().unwrap(), b"cat");
/// list.end().unwrap();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

/// Reads `data` as exactly one list and returns the cursor over its items;
/// bytes after the list are rejected.
pub fn decode_list(data: &[u8]) -> Result<Reader<'_>, DecodeError> {
    let mut top = Reader::new(data);
    let list = top.list()?;
    if !top.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(list)
}

/// Splits the item at the front of `data` into (is a list, payload, bytes
/// after the item).
#[inline]
fn split_item(data: &[u8]) -> Result<(bool, &[u8], &[u8]), DecodeError> {
    let (&prefix, rest) = data.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let (is_list, len_of_len, len) = match prefix {
        0x00..=0x7f => return Ok((false, &data[..1], rest)),
        0x80..=0xb7 => (false, 0, (prefix - 0x80) as usize),
        0xb8..=0xbf => {
            let len_of_len = (prefix - 0xb7) as usize;
            (false, len_of_len, read_long_len(rest, len_of_len)?)
        }
        0xc0..=0xf7 => (true, 0, (prefix - 0xc0) as usize),
        0xf8..=0xff => {
            let len_of_len = (prefix - 0xf7) as usize;
            (true, len_of_len, read_long_len(rest, len_of_len)?)
        }
    };
    let end = len_of_len
        .checked_add(len)
        .ok_or(DecodeError::LengthOverflow)?;
    let payload = rest
        .get(len_of_len..end)
        .ok_or(DecodeError::UnexpectedEof)?;
    if !is_list && len == 1 && payload[0] < 0x80 {
        return Err(DecodeError::NonMinimalByte);
    }
    Ok((is_list, payload, &rest[end..]))
}

/// The big-endian length of a long-form item, which must be minimal: no
/// leading zero byte, and more than the 55 the short form covers.
fn read_long_len(rest: &[u8], len_of_len: usize) -> Result<usize, DecodeError> {
    let len_bytes = rest.get(..len_of_len).ok_or(DecodeError::UnexpectedEof)?;
    if len_bytes.first() == Some(&0) {
        return Err(DecodeError::NonMinimalLength);
    }
    if len_of_len > core::mem::size_of::<usize>() {
        return Err(DecodeError::LengthOverflow);
    }
    let len = len_bytes
        .iter()
        .fold(0usize, |len, &b| len << 8 | b as usize);
    if len <= 55 {
        return Err(DecodeError::NonMinimalLength);
    }
    Ok(len)
}

impl<'a> Reader<'a> {
    /// A cursor over `data` read as a run of items.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { rest: data }
    }

    /// True iff no items remain.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Encoded bytes not yet read — an upper bound on the items left.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads the next item, whichever kind it is.
    #[inline]
    pub fn next_item(&mut self) -> Result<Token<'a>, DecodeError> {
        let (is_list, payload, rest) = split_item(self.rest)?;
        self.rest = rest;
        Ok(if is_list {
            Token::List(Reader { rest: payload })
        } else {
            Token::Str(payload)
        })
    }

    /// Reads a byte string, rejecting a list.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        match self.next_item()? {
            Token::Str(bytes) => Ok(bytes),
            Token::List(_) => Err(DecodeError::TypeMismatch),
        }
    }

    /// Reads a list, rejecting a string; returns the cursor over its items.
    #[inline]
    pub fn list(&mut self) -> Result<Reader<'a>, DecodeError> {
        match self.next_item()? {
            Token::List(items) => Ok(items),
            Token::Str(_) => Err(DecodeError::TypeMismatch),
        }
    }

    /// Reads a minimal big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.bytes()?;
        if b.len() > 8 || b.first() == Some(&0) {
            return Err(DecodeError::BadInteger);
        }
        Ok(b.iter().fold(0u64, |v, &byte| v << 8 | byte as u64))
    }

    /// Reads a minimal big-endian [`U256`].
    #[inline]
    pub fn u256(&mut self) -> Result<U256, DecodeError> {
        let b = self.bytes()?;
        if b.len() > 32 || b.first() == Some(&0) {
            return Err(DecodeError::BadInteger);
        }
        Ok(U256::from_be_slice(b))
    }

    /// Reads a 32-byte hash.
    #[inline]
    pub fn h256(&mut self) -> Result<H256, DecodeError> {
        let arr = self.bytes()?.try_into();
        Ok(H256(arr.map_err(|_| DecodeError::BadFixedLen)?))
    }

    /// Reads a 20-byte address.
    #[inline]
    pub fn address(&mut self) -> Result<Address, DecodeError> {
        let arr = self.bytes()?.try_into();
        Ok(Address(arr.map_err(|_| DecodeError::BadFixedLen)?))
    }

    /// Steps over the next item, checking all of it: a list's items are
    /// walked to any depth. For the fields a decoder has no use for but must
    /// not let through malformed.
    pub fn skip(&mut self) -> Result<(), DecodeError> {
        if let Token::List(mut items) = self.next_item()? {
            while !items.is_empty() {
                items.skip()?;
            }
        }
        Ok(())
    }

    /// Counts the remaining items without consuming them, checking each one
    /// as a read would, so a collection can be sized before it is filled.
    pub fn count(&self) -> Result<usize, DecodeError> {
        let mut rest = self.rest;
        let mut n = 0;
        while !rest.is_empty() {
            rest = split_item(rest)?.2;
            n += 1;
        }
        Ok(n)
    }

    /// Asserts the list's arity: errors if items remain unread.
    #[inline]
    pub fn end(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TypeMismatch)
        }
    }
}

pub mod reference {
    //! The item-tree decoder the streaming [`Reader`](super::Reader)
    //! replaced, retained as the oracle: it materializes the whole input as
    //! an owned [`Item`] tree before any field is looked at. Differential
    //! tests hold the reader to its verdicts and the `wire_codec` bench
    //! times it as the "before"; product code does not call it.

    use super::{encode_bytes, list_header, DecodeError, Reader, Token};
    use bp_types::{Address, H256, U256};

    /// An RLP item: either a byte string or a list of items.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum Item {
        /// A byte string.
        Bytes(Vec<u8>),
        /// A heterogeneous list.
        List(Vec<Item>),
    }

    /// Encodes an [`Item`] tree.
    pub fn encode_item(item: &Item) -> Vec<u8> {
        match item {
            Item::Bytes(b) => encode_bytes(b),
            Item::List(items) => {
                let mut payload = Vec::new();
                for it in items {
                    payload.extend_from_slice(&encode_item(it));
                }
                let (header, header_len) = list_header(payload.len());
                let mut out = Vec::with_capacity(payload.len() + header_len);
                out.extend_from_slice(&header[..header_len]);
                out.extend_from_slice(&payload);
                out
            }
        }
    }

    /// Decodes a complete top-level item; rejects trailing bytes.
    pub fn decode(data: &[u8]) -> Result<Item, DecodeError> {
        let (item, used) = decode_at(data)?;
        if used != data.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(item)
    }

    /// Decodes one item at the front of `data`, returning it and the bytes
    /// consumed.
    pub fn decode_at(data: &[u8]) -> Result<(Item, usize), DecodeError> {
        let (&prefix, rest) = data.split_first().ok_or(DecodeError::UnexpectedEof)?;
        match prefix {
            0x00..=0x7f => Ok((Item::Bytes(vec![prefix]), 1)),
            0x80..=0xb7 => {
                let len = (prefix - 0x80) as usize;
                let payload = rest.get(..len).ok_or(DecodeError::UnexpectedEof)?;
                if len == 1 && payload[0] < 0x80 {
                    return Err(DecodeError::NonMinimalByte);
                }
                Ok((Item::Bytes(payload.to_vec()), 1 + len))
            }
            0xb8..=0xbf => {
                let len_of_len = (prefix - 0xb7) as usize;
                let payload = long_payload(rest, len_of_len)?;
                Ok((
                    Item::Bytes(payload.to_vec()),
                    1 + len_of_len + payload.len(),
                ))
            }
            0xc0..=0xf7 => {
                let len = (prefix - 0xc0) as usize;
                let payload = rest.get(..len).ok_or(DecodeError::UnexpectedEof)?;
                Ok((Item::List(decode_list_payload(payload)?), 1 + len))
            }
            0xf8..=0xff => {
                let len_of_len = (prefix - 0xf7) as usize;
                let payload = long_payload(rest, len_of_len)?;
                Ok((
                    Item::List(decode_list_payload(payload)?),
                    1 + len_of_len + payload.len(),
                ))
            }
        }
    }

    fn long_payload(rest: &[u8], len_of_len: usize) -> Result<&[u8], DecodeError> {
        let len = read_long_len(rest, len_of_len, 55)?;
        let end = len_of_len
            .checked_add(len)
            .ok_or(DecodeError::LengthOverflow)?;
        rest.get(len_of_len..end).ok_or(DecodeError::UnexpectedEof)
    }

    fn read_long_len(rest: &[u8], len_of_len: usize, min: usize) -> Result<usize, DecodeError> {
        let len_bytes = rest.get(..len_of_len).ok_or(DecodeError::UnexpectedEof)?;
        if len_bytes.first() == Some(&0) {
            return Err(DecodeError::NonMinimalLength);
        }
        if len_of_len > core::mem::size_of::<usize>() {
            return Err(DecodeError::LengthOverflow);
        }
        let mut len = 0usize;
        for &b in len_bytes {
            len = len
                .checked_mul(256)
                .and_then(|l| l.checked_add(b as usize))
                .ok_or(DecodeError::LengthOverflow)?;
        }
        if len <= min {
            return Err(DecodeError::NonMinimalLength);
        }
        Ok(len)
    }

    fn decode_list_payload(mut payload: &[u8]) -> Result<Vec<Item>, DecodeError> {
        let mut items = Vec::new();
        while !payload.is_empty() {
            let (item, used) = decode_at(payload)?;
            items.push(item);
            payload = &payload[used..];
        }
        Ok(items)
    }

    impl Item {
        /// Reads the next item off a streaming [`Reader`] into tree form —
        /// how tests put what the reader saw next to what [`decode`] did.
        pub fn read(r: &mut Reader<'_>) -> Result<Item, DecodeError> {
            Ok(match r.next_item()? {
                Token::Str(bytes) => Item::Bytes(bytes.to_vec()),
                Token::List(mut items) => {
                    let mut list = Vec::new();
                    while !items.is_empty() {
                        list.push(Item::read(&mut items)?);
                    }
                    Item::List(list)
                }
            })
        }

        /// Extracts a byte string, rejecting lists.
        pub fn as_bytes(&self) -> Result<&[u8], DecodeError> {
            match self {
                Item::Bytes(b) => Ok(b),
                Item::List(_) => Err(DecodeError::TypeMismatch),
            }
        }

        /// Extracts a list, rejecting strings.
        pub fn as_list(&self) -> Result<&[Item], DecodeError> {
            match self {
                Item::List(l) => Ok(l),
                Item::Bytes(_) => Err(DecodeError::TypeMismatch),
            }
        }

        /// Decodes a minimal big-endian `u64`.
        pub fn as_u64(&self) -> Result<u64, DecodeError> {
            let b = self.as_bytes()?;
            if b.len() > 8 || b.first() == Some(&0) {
                return Err(DecodeError::BadInteger);
            }
            let mut v = 0u64;
            for &byte in b {
                v = v << 8 | byte as u64;
            }
            Ok(v)
        }

        /// Decodes a minimal big-endian [`U256`].
        pub fn as_u256(&self) -> Result<U256, DecodeError> {
            let b = self.as_bytes()?;
            if b.len() > 32 || b.first() == Some(&0) {
                return Err(DecodeError::BadInteger);
            }
            Ok(U256::from_be_slice(b))
        }

        /// Decodes a 32-byte hash.
        pub fn as_h256(&self) -> Result<H256, DecodeError> {
            let b = self.as_bytes()?;
            let arr: [u8; 32] = b.try_into().map_err(|_| DecodeError::BadFixedLen)?;
            Ok(H256(arr))
        }

        /// Decodes a 20-byte address.
        pub fn as_address(&self) -> Result<Address, DecodeError> {
            let b = self.as_bytes()?;
            let arr: [u8; 20] = b.try_into().map_err(|_| DecodeError::BadFixedLen)?;
            Ok(Address(arr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{encode_item, Item};
    use super::*;

    /// Reads one top-level item through the [`Reader`] into the oracle's
    /// tree form, and holds the result to the oracle's own.
    fn decode(data: &[u8]) -> Result<Item, DecodeError> {
        let mut r = Reader::new(data);
        let read = Item::read(&mut r).and_then(|item| match r.is_empty() {
            true => Ok(item),
            false => Err(DecodeError::TrailingBytes),
        });
        assert_eq!(read, reference::decode(data), "reader vs reference");
        read
    }

    #[test]
    fn canonical_vectors() {
        // From the Ethereum wiki RLP test vectors.
        assert_eq!(encode_bytes(b"dog"), vec![0x83, b'd', b'o', b'g']);
        assert_eq!(encode_bytes(b""), vec![0x80]);
        assert_eq!(encode_bytes(&[0x0f]), vec![0x0f]);
        assert_eq!(encode_bytes(&[0x04, 0x00]), vec![0x82, 0x04, 0x00]);
        let cat_dog = Item::List(vec![
            Item::Bytes(b"cat".to_vec()),
            Item::Bytes(b"dog".to_vec()),
        ]);
        assert_eq!(
            encode_item(&cat_dog),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
        assert_eq!(encode_item(&Item::List(vec![])), vec![0xc0]);
    }

    #[test]
    fn set_theoretical_representation_of_three() {
        // [ [], [[]], [ [], [[]] ] ]
        let empty = Item::List(vec![]);
        let one = Item::List(vec![empty.clone()]);
        let three = Item::List(vec![
            empty.clone(),
            one.clone(),
            Item::List(vec![empty, one]),
        ]);
        assert_eq!(
            encode_item(&three),
            vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]
        );
    }

    #[test]
    fn long_string_header() {
        // The canonical >55-byte test string from the Ethereum wiki.
        let s = b"Lorem ipsum dolor sit amet, consectetur adipisicing elit";
        assert_eq!(s.len(), 56);
        let enc = encode_bytes(s);
        assert_eq!(enc[0], 0xb8);
        assert_eq!(enc[1], 56);
        assert_eq!(&enc[2..], s);
    }

    #[test]
    fn integer_encoding() {
        let mut s = RlpStream::new();
        s.append_u64(0);
        assert_eq!(s.out(), vec![0x80]);
        let mut s = RlpStream::new();
        s.append_u64(15);
        assert_eq!(s.out(), vec![0x0f]);
        let mut s = RlpStream::new();
        s.append_u64(1024);
        assert_eq!(s.out(), vec![0x82, 0x04, 0x00]);
    }

    #[test]
    fn stream_nested_lists() {
        // ["cat", ["puppy", "cow"], "horse"]
        let mut s = RlpStream::new();
        s.begin_list(3);
        s.append_bytes(b"cat");
        s.begin_list(2);
        s.append_bytes(b"puppy");
        s.append_bytes(b"cow");
        s.append_bytes(b"horse");
        let enc = s.out();
        let dec = decode(&enc).unwrap();
        let l = dec.as_list().unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l[0].as_bytes().unwrap(), b"cat");
        assert_eq!(l[1].as_list().unwrap()[0].as_bytes().unwrap(), b"puppy");
        assert_eq!(l[2].as_bytes().unwrap(), b"horse");
    }

    #[test]
    fn decode_rejects_trailing() {
        let mut enc = encode_bytes(b"dog");
        enc.push(0x00);
        assert_eq!(decode(&enc), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = encode_bytes(b"dog");
        assert_eq!(decode(&enc[..2]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_non_minimal_byte() {
        // 0x81 0x05 should have been just 0x05.
        assert_eq!(decode(&[0x81, 0x05]), Err(DecodeError::NonMinimalByte));
        // 0x81 0x80 is fine (0x80 needs the header).
        assert_eq!(decode(&[0x81, 0x80]).unwrap(), Item::Bytes(vec![0x80]));
    }

    #[test]
    fn decode_rejects_non_minimal_long_length() {
        // Long form used for a 3-byte string.
        assert_eq!(
            decode(&[0xb8, 0x03, b'd', b'o', b'g']),
            Err(DecodeError::NonMinimalLength)
        );
        // Leading zero in the length-of-length bytes.
        let mut bad = vec![0xb9, 0x00, 0x38];
        bad.extend_from_slice(&[0u8; 56]);
        assert_eq!(decode(&bad), Err(DecodeError::NonMinimalLength));
    }

    #[test]
    fn typed_readers() {
        let mut s = RlpStream::new();
        s.begin_list(4);
        s.append_u64(42);
        s.append_u256(&(U256::ONE << 128));
        s.append_h256(&H256::from_low_u64(9));
        s.append_address(&Address::from_index(7));
        let enc = s.out();
        let mut l = decode_list(&enc).unwrap();
        assert_eq!(l.count(), Ok(4));
        // Wrong type access fails (on a copy: a failed read leaves no
        // promise about the cursor).
        assert_eq!({ l }.list().err(), Some(DecodeError::TypeMismatch));
        assert_eq!({ l }.h256(), Err(DecodeError::BadFixedLen));
        assert_eq!(l.u64().unwrap(), 42);
        assert_eq!({ l }.u64(), Err(DecodeError::BadInteger)); // 17 bytes
        assert_eq!(l.u256().unwrap(), U256::ONE << 128);
        assert_eq!({ l }.address(), Err(DecodeError::BadFixedLen));
        assert_eq!(l.h256().unwrap(), H256::from_low_u64(9));
        assert_eq!({ l }.end(), Err(DecodeError::TypeMismatch)); // one left
        assert_eq!(l.address().unwrap(), Address::from_index(7));
        assert_eq!({ l }.bytes(), Err(DecodeError::UnexpectedEof)); // none left
        l.end().unwrap();
        // The top level is one list, all of the input.
        assert_eq!(
            decode_list(&[0x83, b'd', b'o', b'g']).err(),
            Some(DecodeError::TypeMismatch)
        );
        assert_eq!(
            decode_list(&[0xc1, 0x80, 0x80]).err(),
            Some(DecodeError::TrailingBytes)
        );
        assert_eq!(decode_list(&[]).err(), Some(DecodeError::UnexpectedEof));
        // The oracle's accessors agree.
        let dec = reference::decode(&enc).unwrap();
        let items = dec.as_list().unwrap();
        assert_eq!(items[0].as_u64().unwrap(), 42);
        assert_eq!(items[1].as_u256().unwrap(), U256::ONE << 128);
        assert_eq!(items[2].as_h256().unwrap(), H256::from_low_u64(9));
        assert_eq!(items[3].as_address().unwrap(), Address::from_index(7));
        assert!(items[0].as_list().is_err());
        assert!(dec.as_bytes().is_err());
    }

    #[test]
    fn integer_with_leading_zero_rejected() {
        // 0x82 0x00 0x01 is a valid string but not a valid integer.
        let enc = [0x82, 0x00, 0x01];
        assert_eq!(Reader::new(&enc).bytes(), Ok(&[0x00, 0x01][..]));
        assert_eq!(Reader::new(&enc).u64(), Err(DecodeError::BadInteger));
        assert_eq!(Reader::new(&enc).u256(), Err(DecodeError::BadInteger));
        let item = decode(&enc).unwrap();
        assert_eq!(item.as_u64(), Err(DecodeError::BadInteger));
        assert_eq!(item.as_u256(), Err(DecodeError::BadInteger));
    }

    #[test]
    fn count_and_skip_check_what_they_step_over() {
        // [ "a", [ "b", <0x81 0x05: non-minimal> ], "c" ]
        let enc = [0xc6, b'a', 0xc3, b'b', 0x81, 0x05, b'c'];
        let mut l = decode_list(&enc).unwrap();
        // The pre-count checks this level's headers only...
        assert_eq!(l.count(), Ok(3));
        assert_eq!(l.bytes(), Ok(&b"a"[..]));
        // ...skip walks the nested list and finds the bad byte,
        assert_eq!({ l }.skip(), Err(DecodeError::NonMinimalByte));
        // as does the nested list's own cursor once it gets there.
        let mut inner = l.list().unwrap();
        assert_eq!(inner.count(), Err(DecodeError::NonMinimalByte));
        assert_eq!(inner.bytes(), Ok(&b"b"[..]));
        assert_eq!(inner.bytes(), Err(DecodeError::NonMinimalByte));
        // A payload that overruns its list is caught by the count too.
        let overrun = [0xc2, 0x83, b'd'];
        assert_eq!(
            decode_list(&overrun).unwrap().count(),
            Err(DecodeError::UnexpectedEof)
        );
        // A well-formed nested item skips clean.
        let ok = [0xc4, 0xc2, b'x', 0xc0, b'y'];
        let mut l = decode_list(&ok).unwrap();
        l.skip().unwrap();
        assert_eq!(l.bytes(), Ok(&b"y"[..]));
        l.end().unwrap();
    }

    #[test]
    fn length_overflow_is_an_error_not_a_wrap() {
        // An 8-byte length of 2^64 - 1: header + length wraps a usize.
        let mut enc = vec![0xbf];
        enc.extend_from_slice(&[0xff; 8]);
        enc.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode(&enc), Err(DecodeError::LengthOverflow));
        enc[0] = 0xff;
        assert_eq!(decode(&enc), Err(DecodeError::LengthOverflow));
    }

    #[test]
    fn stack_stream_matches_the_heap_stream() {
        let values = [0u64, 1, 0x7f, 0x80, 0xff, 0x100, u64::MAX];
        for &v in &values {
            for big in [U256::ZERO, U256::from(v), U256::from(v) << 190] {
                let mut heap = RlpStream::new();
                heap.append_u64(v);
                heap.append_u256(&big);
                heap.append_bytes(&v.to_le_bytes());
                let mut stack = StackStream::<64>::new();
                stack.append_u64(v);
                stack.append_u256(&big);
                stack.append_bytes(&v.to_le_bytes());
                assert_eq!(stack.as_slice(), &heap.out()[..]);
            }
        }
    }

    #[test]
    fn empty_list_in_stream() {
        let mut s = RlpStream::new();
        s.begin_list(2);
        s.begin_list(0);
        s.append_bytes(b"x");
        let enc = s.out();
        assert_eq!(enc, vec![0xc2, 0xc0, b'x']);
    }

    #[test]
    fn buffer_reuse_matches_fresh_encoder() {
        let encode = |mut s: RlpStream| {
            s.begin_list(2);
            s.append_bytes(&[0x7Eu8; 100]);
            s.append_u64(77);
            s.out()
        };
        let fresh = encode(RlpStream::new());
        let seeded = encode(RlpStream::with_capacity(256));
        // Reuse a dirty buffer: contents must not leak into the output.
        let reused = encode(RlpStream::from_vec(vec![0xFF; 512]));
        assert_eq!(fresh, seeded);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn large_payload_roundtrip() {
        let big = vec![0x7Eu8; 10_000];
        let enc = encode_bytes(&big);
        assert_eq!(enc[0], 0xb9); // 2-byte length
        let dec = decode(&enc).unwrap();
        assert_eq!(dec.as_bytes().unwrap(), &big[..]);
    }
}
