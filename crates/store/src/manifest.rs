//! Crash-safe manifest: the store's single source of durable truth.
//!
//! A manifest records the committed head, the durable byte lengths of the
//! block and node logs, and the retained state roots. Two slots
//! (`manifest.0`, `manifest.1`) are written alternately — always the one
//! *not* holding the current manifest — each protected by a trailing keccak
//! checksum and stamped with a monotonically increasing generation.
//!
//! The swap is atomic in effect without a rename: a crash mid-write corrupts
//! only the slot being written, whose checksum then fails, and the previous
//! generation in the other slot remains authoritative. On open, the newest
//! slot that (a) passes its checksum and (b) records lengths no longer than
//! the actual data files wins; (b) is what lets a store whose *data* file
//! lost its tail (torn final record) fall back a generation instead of
//! trusting a manifest that points past the end of the file.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bp_crypto::{keccak256, rlp, RlpStream};
use bp_types::{BlockHash, H256};

use crate::StoreError;

/// One durable commit point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestData {
    /// Monotonic commit counter; the larger generation wins on open.
    pub generation: u64,
    /// The committed canonical head (`None` before genesis is initialized).
    pub head: Option<BlockHash>,
    /// Durable byte length of `blocks.log` at commit time.
    pub blocks_len: u64,
    /// Durable byte length of `nodes.log` at commit time.
    pub nodes_len: u64,
    /// Retained state roots, as a multiset (consecutive identical states —
    /// e.g. empty blocks — legitimately retain the same root twice).
    pub roots: Vec<H256>,
}

const SLOTS: [&str; 2] = ["manifest.0", "manifest.1"];

/// Path of manifest slot `slot` under `dir`.
pub fn slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(SLOTS[slot])
}

/// Serializes a manifest: RLP payload followed by its keccak checksum.
fn encode(data: &ManifestData) -> Vec<u8> {
    let mut s = RlpStream::new();
    s.begin_list(5);
    s.append_u64(data.generation);
    s.append_h256(&data.head.unwrap_or(BlockHash::ZERO));
    s.append_u64(data.blocks_len);
    s.append_u64(data.nodes_len);
    if data.roots.is_empty() {
        s.begin_list(0);
    } else {
        s.begin_list(data.roots.len());
        for r in &data.roots {
            s.append_h256(r);
        }
    }
    let mut out = s.out();
    let checksum = keccak256(&out);
    out.extend_from_slice(&checksum.0);
    out
}

/// Deserializes and checksum-verifies one slot's bytes.
fn decode(bytes: &[u8]) -> Option<ManifestData> {
    if bytes.len() < 32 {
        return None;
    }
    let (payload, checksum) = bytes.split_at(bytes.len() - 32);
    if keccak256(payload).0 != checksum {
        return None;
    }
    let mut list = rlp::decode_list(payload).ok()?;
    let generation = list.u64().ok()?;
    let head_raw = list.h256().ok()?;
    let head = if head_raw == BlockHash::ZERO {
        None
    } else {
        Some(head_raw)
    };
    let blocks_len = list.u64().ok()?;
    let nodes_len = list.u64().ok()?;
    let mut root_items = list.list().ok()?;
    list.end().ok()?;
    let mut roots = Vec::new();
    while !root_items.is_empty() {
        roots.push(root_items.h256().ok()?);
    }
    Some(ManifestData {
        generation,
        head,
        blocks_len,
        nodes_len,
        roots,
    })
}

/// Reads one slot, returning `None` for a missing, torn, or corrupt file —
/// all equivalent from the recovery protocol's point of view.
pub fn read_slot(dir: &Path, slot: usize) -> Option<ManifestData> {
    let mut bytes = Vec::new();
    File::open(slot_path(dir, slot))
        .ok()?
        .read_to_end(&mut bytes)
        .ok()?;
    decode(&bytes)
}

/// Durably writes `data` into `slot`: write, fsync the file, then fsync the
/// directory so the entry itself survives a crash.
pub fn write_slot(dir: &Path, slot: usize, data: &ManifestData) -> Result<(), StoreError> {
    let path = slot_path(dir, slot);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)?;
    file.write_all(&encode(data))?;
    file.sync_all()?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Loads both slots and picks the authoritative manifest: highest generation
/// whose recorded lengths fit the actual data files. Returns the winner (if
/// any), plus the slot index and generation the *next* commit must use.
pub fn load(
    dir: &Path,
    blocks_actual: u64,
    nodes_actual: u64,
) -> (Option<ManifestData>, usize, u64) {
    let slots = [read_slot(dir, 0), read_slot(dir, 1)];
    let max_gen = slots
        .iter()
        .flatten()
        .map(|m| m.generation)
        .max()
        .unwrap_or(0);
    let mut candidates: Vec<(usize, ManifestData)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|m| (i, m)))
        .collect();
    candidates.sort_by_key(|(_, m)| std::cmp::Reverse(m.generation));
    let active = candidates
        .into_iter()
        .find(|(_, m)| m.blocks_len <= blocks_actual && m.nodes_len <= nodes_actual);
    match active {
        Some((slot, data)) => (Some(data), 1 - slot, max_gen + 1),
        None => (None, 0, max_gen + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::test_dir;

    fn manifest(generation: u64, blocks_len: u64) -> ManifestData {
        ManifestData {
            generation,
            head: Some(H256::from_low_u64(generation)),
            blocks_len,
            nodes_len: 10,
            roots: vec![H256::from_low_u64(1), H256::from_low_u64(1)],
        }
    }

    #[test]
    fn roundtrip_through_slot_files() {
        let dir = test_dir("manifest-roundtrip");
        let data = manifest(3, 100);
        write_slot(&dir, 0, &data).unwrap();
        assert_eq!(read_slot(&dir, 0), Some(data));
        assert_eq!(read_slot(&dir, 1), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_slot_is_ignored() {
        let dir = test_dir("manifest-corrupt");
        let data = manifest(1, 50);
        write_slot(&dir, 0, &data).unwrap();
        // Flip a payload byte: checksum fails, slot reads as absent.
        let path = slot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_slot(&dir, 0), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_prefers_newest_fitting_generation() {
        let dir = test_dir("manifest-load");
        write_slot(&dir, 0, &manifest(1, 50)).unwrap();
        write_slot(&dir, 1, &manifest(2, 80)).unwrap();
        // Both fit: generation 2 wins, next write goes to slot 0.
        let (active, next_slot, next_gen) = load(&dir, 100, 10);
        assert_eq!(active.as_ref().unwrap().generation, 2);
        assert_eq!(next_slot, 0);
        assert_eq!(next_gen, 3);
        // Data file truncated below generation 2's length: fall back to 1,
        // but the next generation still exceeds every slot on disk.
        let (active, next_slot, next_gen) = load(&dir, 60, 10);
        assert_eq!(active.as_ref().unwrap().generation, 1);
        assert_eq!(next_slot, 1);
        assert_eq!(next_gen, 3);
        // Truncated below both: nothing is trustworthy.
        let (active, _, _) = load(&dir, 10, 10);
        assert_eq!(active, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
