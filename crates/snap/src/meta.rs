//! Crash-safe snapshot metadata: the flat base's single source of durable
//! truth.
//!
//! A [`SnapMeta`] records which flat-base file generation is current, the
//! durable byte lengths of the flat log and the layer journal, and the root
//! and height the base answers reads for. Two slots (`snapmeta.0`,
//! `snapmeta.1`) are written alternately — always the one *not* holding the
//! current meta — each protected by a trailing keccak checksum and stamped
//! with a monotonically increasing generation, exactly mirroring the store
//! manifest's recovery protocol.
//!
//! On open, the newest slot that (a) passes its checksum and (b) records
//! lengths no longer than the actual files wins; (b) is what lets a base
//! whose data file lost its tail (torn final batch) fall back a generation
//! — to the last durable flatten — instead of trusting a meta that points
//! past the end of the file.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use bp_crypto::{keccak256, rlp, RlpStream};
use bp_types::H256;

use crate::SnapError;

/// One durable snapshot commit point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapMeta {
    /// Monotonic commit counter; the larger generation wins on open.
    pub generation: u64,
    /// Which `flat.<file_gen>.log` holds the base records (bumped by
    /// compaction, which rewrites live records into a fresh file).
    pub file_gen: u64,
    /// Durable byte length of `flat.<file_gen>.log`.
    pub flat_len: u64,
    /// Which `layers.<layer_gen>.log` holds the diff-layer journal (bumped
    /// when flattening rewrites the retained set).
    pub layer_gen: u64,
    /// Durable byte length of `layers.<layer_gen>.log`.
    pub layers_len: u64,
    /// The state root the flat base answers reads for.
    pub root: H256,
    /// The block height of `root`.
    pub height: u64,
}

const SLOTS: [&str; 2] = ["snapmeta.0", "snapmeta.1"];

/// Path of meta slot `slot` under `dir`.
pub fn slot_path(dir: &Path, slot: usize) -> PathBuf {
    dir.join(SLOTS[slot])
}

/// Path of flat-base file generation `file_gen` under `dir`.
pub fn flat_path(dir: &Path, file_gen: u64) -> PathBuf {
    dir.join(format!("flat.{file_gen}.log"))
}

/// Path of layer-journal generation `layer_gen` under `dir`.
pub fn layers_path(dir: &Path, layer_gen: u64) -> PathBuf {
    dir.join(format!("layers.{layer_gen}.log"))
}

/// Serializes a meta: RLP payload followed by its keccak checksum.
fn encode(data: &SnapMeta) -> Vec<u8> {
    let mut s = RlpStream::new();
    s.begin_list(7);
    s.append_u64(data.generation);
    s.append_u64(data.file_gen);
    s.append_u64(data.flat_len);
    s.append_u64(data.layer_gen);
    s.append_u64(data.layers_len);
    s.append_h256(&data.root);
    s.append_u64(data.height);
    let mut out = s.out();
    let checksum = keccak256(&out);
    out.extend_from_slice(&checksum.0);
    out
}

/// Deserializes and checksum-verifies one slot's bytes.
fn decode(bytes: &[u8]) -> Option<SnapMeta> {
    if bytes.len() < 32 {
        return None;
    }
    let (payload, checksum) = bytes.split_at(bytes.len() - 32);
    if keccak256(payload).0 != checksum {
        return None;
    }
    let mut list = rlp::decode_list(payload).ok()?;
    let meta = SnapMeta {
        generation: list.u64().ok()?,
        file_gen: list.u64().ok()?,
        flat_len: list.u64().ok()?,
        layer_gen: list.u64().ok()?,
        layers_len: list.u64().ok()?,
        root: list.h256().ok()?,
        height: list.u64().ok()?,
    };
    list.end().ok()?;
    Some(meta)
}

/// Reads one slot, returning `None` for a missing, torn, or corrupt file.
pub fn read_slot(dir: &Path, slot: usize) -> Option<SnapMeta> {
    let mut bytes = Vec::new();
    File::open(slot_path(dir, slot))
        .ok()?
        .read_to_end(&mut bytes)
        .ok()?;
    decode(&bytes)
}

/// Durably writes `data` into `slot`: write, fsync the file, then fsync the
/// directory so the entry itself survives a crash.
pub fn write_slot(dir: &Path, slot: usize, data: &SnapMeta) -> Result<(), SnapError> {
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

/// Loads both slots and picks the authoritative meta: highest generation
/// whose recorded lengths fit the actual files (flat file length looked up
/// per slot, since slots may reference different file generations). Returns
/// the winner (if any), plus the slot index and generation the *next*
/// commit must use.
pub fn load(dir: &Path) -> (Option<SnapMeta>, usize, u64) {
    let slots = [read_slot(dir, 0), read_slot(dir, 1)];
    let max_gen = slots
        .iter()
        .flatten()
        .map(|m| m.generation)
        .max()
        .unwrap_or(0);
    let mut candidates: Vec<(usize, SnapMeta)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|m| (i, m)))
        .collect();
    candidates.sort_by_key(|(_, m)| std::cmp::Reverse(m.generation));
    let active = candidates.into_iter().find(|(_, m)| {
        let flat_actual = std::fs::metadata(flat_path(dir, m.file_gen))
            .map(|f| f.len())
            .unwrap_or(0);
        let layers_actual = std::fs::metadata(layers_path(dir, m.layer_gen))
            .map(|f| f.len())
            .unwrap_or(0);
        m.flat_len <= flat_actual && m.layers_len <= layers_actual
    });
    match active {
        Some((slot, data)) => (Some(data), 1 - slot, max_gen + 1),
        None => (None, 0, max_gen + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn meta(generation: u64, flat_len: u64) -> SnapMeta {
        SnapMeta {
            generation,
            file_gen: 0,
            flat_len,
            layer_gen: 0,
            layers_len: 0,
            root: H256::from_low_u64(generation),
            height: generation,
        }
    }

    #[test]
    fn roundtrip_through_slot_files() {
        let dir = test_dir("snapmeta-roundtrip");
        let data = meta(3, 0);
        write_slot(&dir, 0, &data).unwrap();
        assert_eq!(read_slot(&dir, 0), Some(data));
        assert_eq!(read_slot(&dir, 1), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_slot_is_ignored() {
        let dir = test_dir("snapmeta-corrupt");
        write_slot(&dir, 0, &meta(1, 0)).unwrap();
        let path = slot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_slot(&dir, 0), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_prefers_newest_fitting_generation() {
        let dir = test_dir("snapmeta-load");
        std::fs::write(flat_path(&dir, 0), vec![0u8; 80]).unwrap();
        write_slot(&dir, 0, &meta(1, 50)).unwrap();
        write_slot(&dir, 1, &meta(2, 80)).unwrap();
        let (active, next_slot, next_gen) = load(&dir);
        assert_eq!(active.as_ref().unwrap().generation, 2);
        assert_eq!(next_slot, 0);
        assert_eq!(next_gen, 3);
        // Flat file truncated below generation 2's length: fall back to 1.
        std::fs::write(flat_path(&dir, 0), vec![0u8; 60]).unwrap();
        let (active, next_slot, next_gen) = load(&dir);
        assert_eq!(active.as_ref().unwrap().generation, 1);
        assert_eq!(next_slot, 1);
        assert_eq!(next_gen, 3);
        // Truncated below both: nothing is trustworthy.
        std::fs::write(flat_path(&dir, 0), vec![0u8; 10]).unwrap();
        let (active, _, _) = load(&dir);
        assert_eq!(active, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
