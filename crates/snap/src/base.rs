//! The flat base layer: every account body and live storage slot of one
//! committed state, as key→value records.
//!
//! Two backings share one index structure:
//!
//! * **memory** — values held inline; used by tests and short-lived trees.
//! * **file** — an append-only record log (`flat.<gen>.log`); the in-memory
//!   index maps each key to its record's byte offset, and point reads
//!   `pread` the value back. Memory cost is O(keys), not O(bytes): code
//!   blobs and values live on disk.
//!
//! [`FlatBase::apply`] appends one batch of records (a folded
//! [`StateDelta`]) and fsyncs; durability of the new length is the caller's
//! to record (via [`crate::meta`]) — a torn tail past the recorded length
//! is truncated on open. When dead records outgrow live ones 4:1 the caller
//! is told to [`FlatBase::compact`], which rewrites live records into
//! `flat.<gen+1>.log`.
//!
//! Record formats (all integers big-endian):
//!
//! ```text
//! ACC_PUT  = 0x01 | addr(20) | nonce(8) | balance(32) | code_len(4) | code
//! ACC_DEL  = 0x02 | addr(20)
//! SLOT_PUT = 0x03 | addr(20) | slot(32) | value(32)
//! SLOT_DEL = 0x04 | addr(20) | slot(32)
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bp_state::{BaseAccount, StateDelta};
use bp_types::{Address, H256, U256};

use crate::meta::flat_path;
use crate::SnapError;

const ACC_PUT: u8 = 0x01;
const ACC_DEL: u8 = 0x02;
const SLOT_PUT: u8 = 0x03;
const SLOT_DEL: u8 = 0x04;

/// Fixed bytes of an `ACC_PUT` before the code blob.
const ACC_PUT_HEAD: u64 = 1 + 20 + 8 + 32 + 4;
/// Size of an `ACC_DEL` record.
const ACC_DEL_SIZE: u64 = 1 + 20;
/// Size of a `SLOT_PUT` record.
const SLOT_PUT_SIZE: u64 = 1 + 20 + 32 + 32;
/// Size of a `SLOT_DEL` record.
const SLOT_DEL_SIZE: u64 = 1 + 20 + 32;

/// Where one account body lives.
#[derive(Clone, Debug)]
enum AcctEntry {
    Inline(BaseAccount),
    /// Record starts at `offset`; the code blob is `code_len` bytes.
    Disk {
        offset: u64,
        code_len: u32,
    },
}

/// Where one storage value lives.
#[derive(Clone, Copy, Debug)]
enum SlotEntry {
    Inline(U256),
    /// Record starts at `offset`; the value is the trailing 32 bytes.
    Disk {
        offset: u64,
    },
}

/// File-mode state.
#[derive(Debug)]
struct FileBacking {
    file: File,
    dir: PathBuf,
    /// Generation of `flat.<file_gen>.log`.
    file_gen: u64,
    /// Current (fsynced) length of the file.
    len: u64,
    /// Bytes occupied by records the index still points at.
    live: u64,
}

/// The flat base layer of one committed state.
#[derive(Debug)]
pub struct FlatBase {
    accounts: HashMap<Address, AcctEntry>,
    storage: HashMap<Address, HashMap<H256, SlotEntry>>,
    file: Option<FileBacking>,
    /// The state root this base answers reads for.
    root: H256,
    /// The block height of `root`.
    height: u64,
}

impl FlatBase {
    /// An empty in-memory base at the empty root.
    pub fn memory() -> Self {
        FlatBase {
            accounts: HashMap::new(),
            storage: HashMap::new(),
            file: None,
            root: bp_state::empty_root(),
            height: 0,
        }
    }

    /// Opens (or creates) the file-backed base `flat.<file_gen>.log` under
    /// `dir`, trusting exactly `flat_len` bytes: anything beyond is a torn
    /// tail from a crash and is truncated away. The index is rebuilt by
    /// replaying the records.
    pub fn open_file(
        dir: &Path,
        file_gen: u64,
        flat_len: u64,
        root: H256,
        height: u64,
    ) -> Result<Self, SnapError> {
        let path = flat_path(dir, file_gen);
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let actual = file.metadata()?.len();
        if actual < flat_len {
            return Err(SnapError::Corrupt(format!(
                "flat file shorter than durable length: {actual} < {flat_len}"
            )));
        }
        if actual > flat_len {
            file.set_len(flat_len)?;
        }
        let mut base = FlatBase {
            accounts: HashMap::new(),
            storage: HashMap::new(),
            file: Some(FileBacking {
                file,
                dir: dir.to_path_buf(),
                file_gen,
                len: flat_len,
                live: 0,
            }),
            root,
            height,
        };
        base.replay()?;
        Ok(base)
    }

    /// Rebuilds the index from the record log (file mode only).
    fn replay(&mut self) -> Result<(), SnapError> {
        let backing = self.file.as_ref().expect("replay requires file mode");
        let len = backing.len;
        let mut buf = vec![0u8; len as usize];
        read_exact_at(&backing.file, &mut buf, 0)?;
        let mut live = 0u64;
        let mut off = 0u64;
        let bytes = &buf[..];
        while off < len {
            let rec_start = off;
            let tag = bytes[off as usize];
            let need = |n: u64| -> Result<(), SnapError> {
                if off + n > len {
                    Err(SnapError::Corrupt(format!(
                        "flat record at {rec_start} overruns durable length {len}"
                    )))
                } else {
                    Ok(())
                }
            };
            match tag {
                ACC_PUT => {
                    need(ACC_PUT_HEAD)?;
                    let addr = read_addr(bytes, off + 1);
                    let code_len = u32::from_be_bytes(slice4(bytes, off + ACC_PUT_HEAD - 4)) as u64;
                    need(ACC_PUT_HEAD + code_len)?;
                    let size = ACC_PUT_HEAD + code_len;
                    live += size;
                    live -= self.evict_account(&addr);
                    self.accounts.insert(
                        addr,
                        AcctEntry::Disk {
                            offset: rec_start,
                            code_len: code_len as u32,
                        },
                    );
                    off += size;
                }
                ACC_DEL => {
                    need(ACC_DEL_SIZE)?;
                    let addr = read_addr(bytes, off + 1);
                    live -= self.evict_account(&addr);
                    self.accounts.remove(&addr);
                    off += ACC_DEL_SIZE;
                }
                SLOT_PUT => {
                    need(SLOT_PUT_SIZE)?;
                    let addr = read_addr(bytes, off + 1);
                    let slot = read_h256(bytes, off + 21);
                    live += SLOT_PUT_SIZE;
                    live -= self.evict_slot(&addr, &slot);
                    self.storage
                        .entry(addr)
                        .or_default()
                        .insert(slot, SlotEntry::Disk { offset: rec_start });
                    off += SLOT_PUT_SIZE;
                }
                SLOT_DEL => {
                    need(SLOT_DEL_SIZE)?;
                    let addr = read_addr(bytes, off + 1);
                    let slot = read_h256(bytes, off + 21);
                    live -= self.evict_slot(&addr, &slot);
                    if let Some(slots) = self.storage.get_mut(&addr) {
                        slots.remove(&slot);
                        if slots.is_empty() {
                            self.storage.remove(&addr);
                        }
                    }
                    off += SLOT_DEL_SIZE;
                }
                other => {
                    return Err(SnapError::Corrupt(format!(
                        "unknown flat record tag {other:#x} at {rec_start}"
                    )))
                }
            }
        }
        self.file.as_mut().unwrap().live = live;
        Ok(())
    }

    /// Bytes of the record an existing account entry occupies (0 if absent
    /// or inline).
    fn evict_account(&self, addr: &Address) -> u64 {
        match self.accounts.get(addr) {
            Some(AcctEntry::Disk { code_len, .. }) => ACC_PUT_HEAD + *code_len as u64,
            _ => 0,
        }
    }

    /// Bytes of the record an existing slot entry occupies.
    fn evict_slot(&self, addr: &Address, slot: &H256) -> u64 {
        match self.storage.get(addr).and_then(|s| s.get(slot)) {
            Some(SlotEntry::Disk { .. }) => SLOT_PUT_SIZE,
            _ => 0,
        }
    }

    /// The state root this base answers reads for.
    pub fn root(&self) -> H256 {
        self.root
    }

    /// The block height of [`FlatBase::root`].
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Current file generation (0 in memory mode).
    pub fn file_gen(&self) -> u64 {
        self.file.as_ref().map(|f| f.file_gen).unwrap_or(0)
    }

    /// Durable byte length of the flat log (0 in memory mode).
    pub fn flat_len(&self) -> u64 {
        self.file.as_ref().map(|f| f.len).unwrap_or(0)
    }

    /// Number of indexed keys (account bodies + storage slots).
    pub fn key_count(&self) -> usize {
        self.accounts.len() + self.storage.values().map(|s| s.len()).sum::<usize>()
    }

    /// Folds `delta` into the base, advancing it to `root` at `height`.
    /// File mode appends one batch of records and fsyncs them; the caller
    /// must then persist the new [`FlatBase::flat_len`] via the meta for
    /// the batch to become durable. Folds must move forward in height —
    /// rewinding would silently serve stale values for keys whose newest
    /// write lies between the two roots.
    pub fn apply(&mut self, delta: &StateDelta, root: H256, height: u64) -> Result<(), SnapError> {
        if height < self.height {
            return Err(SnapError::Corrupt(format!(
                "flat base fold rewinds height: {} < {}",
                height, self.height
            )));
        }
        match &mut self.file {
            None => {
                for (addr, acct) in &delta.accounts {
                    match acct {
                        Some(a) => {
                            self.accounts.insert(*addr, AcctEntry::Inline(a.clone()));
                        }
                        None => {
                            self.accounts.remove(addr);
                        }
                    }
                }
                for (addr, slots) in &delta.storage {
                    let mine = self.storage.entry(*addr).or_default();
                    for (slot, value) in slots {
                        match value {
                            Some(v) if !v.is_zero() => {
                                mine.insert(*slot, SlotEntry::Inline(*v));
                            }
                            _ => {
                                mine.remove(slot);
                            }
                        }
                    }
                    if mine.is_empty() {
                        self.storage.remove(addr);
                    }
                }
            }
            Some(_) => self.append_batch(delta)?,
        }
        self.root = root;
        self.height = height;
        Ok(())
    }

    /// File-mode half of [`FlatBase::apply`]: encode, append, fsync, index.
    fn append_batch(&mut self, delta: &StateDelta) -> Result<(), SnapError> {
        let start = self.file.as_ref().unwrap().len;
        let mut buf: Vec<u8> = Vec::new();
        // (key, disk entry) pairs to index once the batch is on disk.
        let mut acct_idx: Vec<(Address, Option<AcctEntry>)> = Vec::new();
        let mut slot_idx: Vec<(Address, H256, Option<SlotEntry>)> = Vec::new();
        for (addr, acct) in &delta.accounts {
            let offset = start + buf.len() as u64;
            match acct {
                Some(a) => {
                    buf.push(ACC_PUT);
                    buf.extend_from_slice(addr.as_bytes());
                    buf.extend_from_slice(&a.nonce.to_be_bytes());
                    buf.extend_from_slice(&a.balance.to_be_bytes());
                    buf.extend_from_slice(&(a.code.len() as u32).to_be_bytes());
                    buf.extend_from_slice(&a.code);
                    acct_idx.push((
                        *addr,
                        Some(AcctEntry::Disk {
                            offset,
                            code_len: a.code.len() as u32,
                        }),
                    ));
                }
                None => {
                    buf.push(ACC_DEL);
                    buf.extend_from_slice(addr.as_bytes());
                    acct_idx.push((*addr, None));
                }
            }
        }
        for (addr, slots) in &delta.storage {
            for (slot, value) in slots {
                let offset = start + buf.len() as u64;
                match value {
                    Some(v) if !v.is_zero() => {
                        buf.push(SLOT_PUT);
                        buf.extend_from_slice(addr.as_bytes());
                        buf.extend_from_slice(slot.as_bytes());
                        buf.extend_from_slice(&v.to_be_bytes());
                        slot_idx.push((*addr, *slot, Some(SlotEntry::Disk { offset })));
                    }
                    _ => {
                        buf.push(SLOT_DEL);
                        buf.extend_from_slice(addr.as_bytes());
                        buf.extend_from_slice(slot.as_bytes());
                        slot_idx.push((*addr, *slot, None));
                    }
                }
            }
        }
        {
            let backing = self.file.as_mut().unwrap();
            backing.file.write_all(&buf)?;
            backing.file.sync_data()?;
            backing.len += buf.len() as u64;
        }
        // Only after the bytes are down: swing the index and live counts.
        for (addr, entry) in acct_idx {
            let dead = self.evict_account(&addr);
            let backing = self.file.as_mut().unwrap();
            backing.live -= dead;
            match entry {
                Some(e) => {
                    if let AcctEntry::Disk { code_len, .. } = e {
                        backing.live += ACC_PUT_HEAD + code_len as u64;
                    }
                    self.accounts.insert(addr, e);
                }
                None => {
                    self.accounts.remove(&addr);
                }
            }
        }
        for (addr, slot, entry) in slot_idx {
            let dead = self.evict_slot(&addr, &slot);
            let backing = self.file.as_mut().unwrap();
            backing.live -= dead;
            match entry {
                Some(e) => {
                    backing.live += SLOT_PUT_SIZE;
                    self.storage.entry(addr).or_default().insert(slot, e);
                }
                None => {
                    if let Some(slots) = self.storage.get_mut(&addr) {
                        slots.remove(&slot);
                        if slots.is_empty() {
                            self.storage.remove(&addr);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// True when dead bytes dominate: the file has grown past 64 KiB and
    /// holds more than 4× its live records.
    pub fn wants_compaction(&self) -> bool {
        match &self.file {
            Some(f) => f.len > 65_536 && f.len > 4 * f.live.max(1),
            None => false,
        }
    }

    /// Rewrites every live record into `flat.<gen+1>.log`, fsyncs it, and
    /// swings the index to the new file. The caller must persist the new
    /// generation + length via the meta, after which
    /// [`FlatBase::remove_stale_files`] may delete the old generation.
    pub fn compact(&mut self) -> Result<(), SnapError> {
        let (dir, old_gen) = match &self.file {
            Some(f) => (f.dir.clone(), f.file_gen),
            None => return Ok(()),
        };
        let new_gen = old_gen + 1;
        let new_path = flat_path(&dir, new_gen);
        let mut new_file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .truncate(false)
            .open(&new_path)?;
        new_file.set_len(0)?;

        let mut buf: Vec<u8> = Vec::new();
        let mut new_accounts: HashMap<Address, AcctEntry> = HashMap::new();
        let mut new_storage: HashMap<Address, HashMap<H256, SlotEntry>> = HashMap::new();
        for addr in self.accounts.keys().copied().collect::<Vec<_>>() {
            let offset = buf.len() as u64;
            let a = self
                .account(&addr)?
                .expect("indexed account must resolve during compaction");
            buf.push(ACC_PUT);
            buf.extend_from_slice(addr.as_bytes());
            buf.extend_from_slice(&a.nonce.to_be_bytes());
            buf.extend_from_slice(&a.balance.to_be_bytes());
            buf.extend_from_slice(&(a.code.len() as u32).to_be_bytes());
            buf.extend_from_slice(&a.code);
            new_accounts.insert(
                addr,
                AcctEntry::Disk {
                    offset,
                    code_len: a.code.len() as u32,
                },
            );
        }
        for addr in self.storage.keys().copied().collect::<Vec<_>>() {
            let slots = self.storage[&addr].keys().copied().collect::<Vec<_>>();
            for slot in slots {
                let offset = buf.len() as u64;
                let value = self
                    .slot(&addr, &slot)?
                    .expect("indexed slot must resolve during compaction");
                buf.push(SLOT_PUT);
                buf.extend_from_slice(addr.as_bytes());
                buf.extend_from_slice(slot.as_bytes());
                buf.extend_from_slice(&value.to_be_bytes());
                new_storage
                    .entry(addr)
                    .or_default()
                    .insert(slot, SlotEntry::Disk { offset });
            }
        }
        new_file.write_all(&buf)?;
        new_file.sync_data()?;

        let backing = self.file.as_mut().unwrap();
        backing.file = new_file;
        backing.file_gen = new_gen;
        backing.len = buf.len() as u64;
        backing.live = buf.len() as u64;
        self.accounts = new_accounts;
        self.storage = new_storage;
        Ok(())
    }

    /// Deletes flat-file generations other than the current one — call only
    /// after the current generation is durably recorded in the meta.
    pub fn remove_stale_files(&self) -> Result<(), SnapError> {
        let backing = match &self.file {
            Some(f) => f,
            None => return Ok(()),
        };
        for entry in std::fs::read_dir(&backing.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(gen) = name
                .strip_prefix("flat.")
                .and_then(|r| r.strip_suffix(".log"))
                .and_then(|g| g.parse::<u64>().ok())
            {
                if gen != backing.file_gen {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }
        Ok(())
    }

    /// The account body at `addr`, if the base holds one.
    pub fn account(&self, addr: &Address) -> Result<Option<BaseAccount>, SnapError> {
        match self.accounts.get(addr) {
            None => Ok(None),
            Some(AcctEntry::Inline(a)) => Ok(Some(a.clone())),
            Some(AcctEntry::Disk { offset, code_len }) => {
                let backing = self.file.as_ref().expect("disk entry without file");
                let mut head = [0u8; 44];
                read_exact_at(&backing.file, &mut head, offset + 21)?;
                let nonce = u64::from_be_bytes(head[0..8].try_into().unwrap());
                let balance = U256::from_be_bytes(head[8..40].try_into().unwrap());
                let mut code = vec![0u8; *code_len as usize];
                read_exact_at(&backing.file, &mut code, offset + ACC_PUT_HEAD)?;
                Ok(Some(BaseAccount {
                    nonce,
                    balance,
                    code: Arc::new(code),
                }))
            }
        }
    }

    /// The storage value at `(addr, slot)`, if the base holds one.
    pub fn slot(&self, addr: &Address, slot: &H256) -> Result<Option<U256>, SnapError> {
        match self.storage.get(addr).and_then(|s| s.get(slot)) {
            None => Ok(None),
            Some(SlotEntry::Inline(v)) => Ok(Some(*v)),
            Some(SlotEntry::Disk { offset }) => {
                let backing = self.file.as_ref().expect("disk entry without file");
                let mut value = [0u8; 32];
                read_exact_at(&backing.file, &mut value, offset + 53)?;
                Ok(Some(U256::from_be_bytes(value)))
            }
        }
    }

    /// Every live storage entry of `addr`.
    pub fn storage_entries(&self, addr: &Address) -> Result<Vec<(H256, U256)>, SnapError> {
        let slots = match self.storage.get(addr) {
            Some(s) => s,
            None => return Ok(Vec::new()),
        };
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots.keys() {
            let value = self.slot(addr, slot)?.expect("indexed slot must resolve");
            out.push((*slot, value));
        }
        Ok(out)
    }

    /// Every address with a body or storage in the base.
    pub fn addresses(&self) -> Vec<Address> {
        let mut addrs: Vec<Address> = self.accounts.keys().copied().collect();
        for addr in self.storage.keys() {
            if !self.accounts.contains_key(addr) {
                addrs.push(*addr);
            }
        }
        addrs
    }
}

/// `pread`-style positional read (does not move the file cursor).
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), SnapError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)?;
        Ok(())
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
        Ok(())
    }
}

fn read_addr(bytes: &[u8], off: u64) -> Address {
    let mut a = [0u8; 20];
    a.copy_from_slice(&bytes[off as usize..off as usize + 20]);
    Address(a)
}

fn read_h256(bytes: &[u8], off: u64) -> H256 {
    let mut h = [0u8; 32];
    h.copy_from_slice(&bytes[off as usize..off as usize + 32]);
    H256(h)
}

fn slice4(bytes: &[u8], off: u64) -> [u8; 4] {
    bytes[off as usize..off as usize + 4].try_into().unwrap()
}
