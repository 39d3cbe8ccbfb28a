//! The chain log's record format.
//!
//! ```text
//! record  = kind:u8 | len:u32 BE | payload[len] | keccak256(kind | len | payload)
//! genesis = encode_world(genesis state)            kind 1, once, first
//! block   = encode_block(block)                    kind 2
//! commit  = head:32 | offset:u64 BE | group:32     kind 3
//! ```
//!
//! A commit marker closes a group: `offset` is where the marker itself
//! starts and `group` is the keccak of the checksums of the group's records,
//! in order. The offset lets recovery recognise a marker without parsing
//! what precedes it; the group digest ties the marker to exactly the records
//! it covers.

use bp_crypto::keccak256;
use bp_types::H256;

/// The genesis world-state record.
pub(crate) const GENESIS: u8 = 1;
/// A block record.
pub(crate) const BLOCK: u8 = 2;
/// A commit marker.
pub(crate) const COMMIT: u8 = 3;

/// Bytes before a record's payload: the kind byte and the length prefix.
pub(crate) const HEADER: usize = 5;
/// Bytes a record adds to its payload: the header and the trailing checksum.
pub(crate) const FRAME_OVERHEAD: usize = HEADER + 32;
/// Payload length of a commit marker.
pub const COMMIT_LEN: usize = 32 + 8 + 32;

/// On-disk length of a record carrying `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    (FRAME_OVERHEAD + payload_len) as u64
}

/// Appends one framed record to `out` and returns its checksum.
pub(crate) fn frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) -> H256 {
    let len = u32::try_from(payload.len()).expect("a record payload is under 4 GiB");
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
    let checksum = keccak256(&out[start..]);
    out.extend_from_slice(&checksum.0);
    checksum
}

/// One record that framed and verified.
pub(crate) struct Record<'a> {
    /// The kind byte.
    pub(crate) kind: u8,
    /// Offset of the payload in the log.
    pub(crate) payload_at: usize,
    /// The payload.
    pub(crate) payload: &'a [u8],
    /// The record's checksum.
    pub(crate) checksum: H256,
    /// Offset just past the record.
    pub(crate) end: usize,
}

/// The record starting at `at`, or `None` when it is cut short or fails its
/// checksum.
pub(crate) fn read(log: &[u8], at: usize) -> Option<Record<'_>> {
    let header = log.get(at..at + HEADER)?;
    let len = u32::from_be_bytes(header[1..].try_into().expect("4 bytes")) as usize;
    let payload_at = at + HEADER;
    let end = payload_at.checked_add(len)?.checked_add(32)?;
    let (framed, stored) = log.get(at..end)?.split_at(end - 32 - at);
    let checksum = keccak256(framed);
    if stored != checksum.0 {
        return None;
    }
    Some(Record {
        kind: header[0],
        payload_at,
        payload: &log[payload_at..end - 32],
        checksum,
        end,
    })
}

/// A commit marker's fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Commit {
    /// The committed head block.
    pub(crate) head: H256,
    /// Where the marker record starts.
    pub(crate) offset: u64,
    /// [`group_digest`] of the records the marker covers.
    pub(crate) group: H256,
}

impl Commit {
    /// The marker's payload.
    pub(crate) fn encode(&self) -> [u8; COMMIT_LEN] {
        let mut out = [0u8; COMMIT_LEN];
        out[..32].copy_from_slice(&self.head.0);
        out[32..40].copy_from_slice(&self.offset.to_be_bytes());
        out[40..].copy_from_slice(&self.group.0);
        out
    }

    /// Parses a marker's payload; `None` if it has the wrong length.
    pub(crate) fn decode(payload: &[u8]) -> Option<Commit> {
        if payload.len() != COMMIT_LEN {
            return None;
        }
        Some(Commit {
            head: H256(payload[..32].try_into().expect("32 bytes")),
            offset: u64::from_be_bytes(payload[32..40].try_into().expect("8 bytes")),
            group: H256(payload[40..].try_into().expect("32 bytes")),
        })
    }
}

/// The digest a commit marker carries: keccak over its group's record
/// checksums.
pub(crate) fn group_digest(checksums: &[H256]) -> H256 {
    let bytes: Vec<u8> = checksums.iter().flat_map(|sum| sum.0).collect();
    keccak256(&bytes)
}

/// True iff a commit marker that verifies and names its own offset starts
/// at `at`. Cheap to call at every offset: the offset field is compared
/// before anything is hashed.
pub(crate) fn is_commit_at(log: &[u8], at: usize) -> bool {
    let offset_at = at + HEADER + 32;
    let names_itself = log
        .get(offset_at..offset_at + 8)
        .is_some_and(|offset| offset == (at as u64).to_be_bytes());
    names_itself
        && log[at] == COMMIT
        && log[at + 1..at + HEADER] == (COMMIT_LEN as u32).to_be_bytes()
        && read(log, at).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_frame_and_read_back() {
        let mut log = Vec::new();
        let a = frame(BLOCK, b"first", &mut log);
        let marker = Commit {
            head: H256::from_low_u64(7),
            offset: log.len() as u64,
            group: group_digest(&[a]),
        };
        frame(COMMIT, &marker.encode(), &mut log);
        assert_eq!(log.len() as u64, frame_len(5) + frame_len(COMMIT_LEN));

        let first = read(&log, 0).unwrap();
        assert_eq!(
            (first.kind, first.payload, first.checksum),
            (BLOCK, &b"first"[..], a)
        );
        let second = read(&log, first.end).unwrap();
        assert_eq!(Commit::decode(second.payload), Some(marker));
        assert!(is_commit_at(&log, first.end));
        assert!(!is_commit_at(&log, 0));
    }

    #[test]
    fn a_cut_or_flipped_record_does_not_read() {
        let mut log = Vec::new();
        frame(BLOCK, &[0xAB; 40], &mut log);
        for cut in 0..log.len() {
            assert!(read(&log[..cut], 0).is_none(), "cut at {cut}");
        }
        for at in 0..log.len() {
            let mut flipped = log.clone();
            flipped[at] ^= 0x01;
            assert!(read(&flipped, 0).is_none(), "flip at {at}");
        }
    }
}
