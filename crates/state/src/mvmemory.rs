//! Multi-version memory for the Block-STM proposer engine.
//!
//! Where [`crate::mvstate::MultiVersionState`] keys its version chains by
//! *commit version* (OCC-WSI allocates versions at commit time, so the chain
//! order is the commit order), Block-STM executes a **preset** transaction
//! order and keys every entry by `(transaction index, incarnation)`. A read
//! by transaction `j` returns the value written by the highest-index
//! transaction `i < j` — the same answer a serial execution of the preset
//! order would see, once every entry is final.
//!
//! Aborted incarnations do not delete their entries: they are flagged as
//! **ESTIMATE** markers ([`MvMemory::convert_to_estimates`]). An ESTIMATE is
//! dependency estimation seeded from the prior abort's write set — the next
//! incarnation will very likely write the same locations, so a reader that
//! lands on one learns *which* transaction it must wait for instead of
//! optimistically reading stale data, executing, failing validation and
//! retrying blind.
//!
//! Every read records a [`ReadOrigin`]; re-validation
//! ([`MvMemory::validate_reads`]) re-resolves each recorded read and compares
//! origins, which is exact (value equality is not enough — ABA through an
//! abort/rewrite must invalidate).

use std::sync::Arc;

use bp_concurrent::sync::Mutex;
use bp_concurrent::ShardedMap;
use bp_types::{AccessKey, Address, WriteSet, U256};

use crate::world::WorldState;

/// Index of a transaction in the preset block order.
pub type TxIndex = u32;

/// In-block code deployments for one address: `(deployer index, code)`
/// ascending by index.
type CodeVersions = Vec<(TxIndex, Arc<Vec<u8>>)>;

/// Where a read was satisfied from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOrigin {
    /// The pre-block world satisfied the read.
    Base,
    /// Incarnation `incarnation` of preset transaction `tx` satisfied it.
    Version {
        /// Writing transaction's preset index.
        tx: TxIndex,
        /// Which incarnation of that transaction wrote the value.
        incarnation: u32,
    },
}

/// Result of a versioned read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MvRead {
    /// A committed (non-ESTIMATE) value and its origin.
    Value {
        /// The value read.
        value: U256,
        /// Who wrote it.
        origin: ReadOrigin,
    },
    /// The read landed on an ESTIMATE: `writer` aborted and is expected to
    /// rewrite this location. `fallback` is the aborted incarnation's stale
    /// value, letting an infallible reader continue speculatively while the
    /// caller records the dependency.
    Estimate {
        /// The transaction the reader should wait for.
        writer: TxIndex,
        /// Stale value for speculative continuation.
        fallback: U256,
    },
}

/// Outcome of re-validating a transaction's recorded read set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadValidation {
    /// Every read re-resolves to the same origin.
    Valid,
    /// Some read now resolves differently — the incarnation is stale.
    Invalid,
    /// No mismatch, but at least one read landed on an ESTIMATE: the writer
    /// is mid-re-execution, so the verdict is deferred (the scheduler
    /// guarantees a later validation once the writer finishes).
    SawEstimate,
}

#[derive(Clone, Copy)]
struct Entry {
    tx: TxIndex,
    incarnation: u32,
    value: U256,
    estimate: bool,
}

/// The pre-block world plus per-location version lists keyed by preset
/// transaction index, with ESTIMATE markers (Block-STM's multi-version
/// data structure).
pub struct MvMemory {
    base: Arc<WorldState>,
    /// Per-key entries, ascending by transaction index. At most one entry
    /// per transaction per key (the latest recorded incarnation's write).
    data: ShardedMap<AccessKey, Vec<Entry>>,
    /// Code deployed in-block: per address, `(deployer index, code)`
    /// ascending by index.
    code: ShardedMap<Address, CodeVersions>,
    /// Per-transaction bookkeeping for the latest recorded incarnation.
    written: Vec<Mutex<Vec<AccessKey>>>,
    deployed: Vec<Mutex<Vec<Address>>>,
    reads: Vec<Mutex<Vec<(AccessKey, ReadOrigin)>>>,
}

impl MvMemory {
    /// Memory over `base` for a preset block of `txs` transactions, sized
    /// for `threads` workers.
    pub fn new(base: Arc<WorldState>, txs: usize, threads: usize) -> Self {
        MvMemory {
            base,
            data: ShardedMap::for_threads(threads),
            code: ShardedMap::for_threads(threads),
            written: (0..txs).map(|_| Mutex::new(Vec::new())).collect(),
            deployed: (0..txs).map(|_| Mutex::new(Vec::new())).collect(),
            reads: (0..txs).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The pre-block world.
    pub fn base(&self) -> &Arc<WorldState> {
        &self.base
    }

    /// Reads `key` as seen by transaction `reader`: the entry of the
    /// highest-index transaction `< reader`, falling back to the base world.
    pub fn read(&self, key: &AccessKey, reader: TxIndex) -> MvRead {
        let hit = self.data.with(key, |chain| {
            chain.and_then(|c| c.iter().rev().find(|e| e.tx < reader).copied())
        });
        match hit {
            Some(e) if e.estimate => MvRead::Estimate {
                writer: e.tx,
                fallback: e.value,
            },
            Some(e) => MvRead::Value {
                value: e.value,
                origin: ReadOrigin::Version {
                    tx: e.tx,
                    incarnation: e.incarnation,
                },
            },
            None => MvRead::Value {
                value: self.base.read_key(key),
                origin: ReadOrigin::Base,
            },
        }
    }

    /// Code of `addr` as seen by transaction `reader` (latest in-block
    /// deployment by a lower-index transaction, else base code).
    pub fn code_at(&self, addr: &Address, reader: TxIndex) -> Arc<Vec<u8>> {
        let hit = self.code.with(addr, |chain| {
            chain.and_then(|c| c.iter().rev().find(|(tx, _)| *tx < reader).cloned())
        });
        match hit {
            Some((_, code)) => code,
            None => self.base.code(addr),
        }
    }

    /// Records the outcome of incarnation `incarnation` of transaction `tx`:
    /// its reads (with origins), its write set, and any deployed code.
    /// Entries of the previous incarnation not re-written are removed, and
    /// re-written ones lose their ESTIMATE flag.
    ///
    /// Returns `true` iff the write set covers a location the previous
    /// incarnation did not (the scheduler must then revalidate every
    /// higher-index transaction, not just this one).
    pub fn record(
        &self,
        tx: TxIndex,
        incarnation: u32,
        reads: Vec<(AccessKey, ReadOrigin)>,
        writes: &WriteSet,
        deployed: impl Iterator<Item = (Address, Arc<Vec<u8>>)>,
    ) -> bool {
        *self.reads[tx as usize].lock() = reads;

        let mut prev = self.written[tx as usize].lock();
        let wrote_new = writes.keys().any(|k| !prev.contains(k));
        for (key, value) in writes {
            self.data.update(*key, |slot| {
                let chain = slot.get_or_insert_with(Vec::new);
                let pos = chain.partition_point(|e| e.tx < tx);
                let entry = Entry {
                    tx,
                    incarnation,
                    value: *value,
                    estimate: false,
                };
                if chain.get(pos).is_some_and(|e| e.tx == tx) {
                    chain[pos] = entry;
                } else {
                    chain.insert(pos, entry);
                }
            });
        }
        for key in prev.iter().filter(|k| !writes.contains_key(*k)) {
            self.data.update(*key, |slot| {
                if let Some(chain) = slot.as_mut() {
                    chain.retain(|e| e.tx != tx);
                }
            });
        }
        *prev = writes.keys().copied().collect();
        drop(prev);

        let mut prev_deployed = self.deployed[tx as usize].lock();
        let mut new_deployed = Vec::new();
        for (addr, bytecode) in deployed {
            new_deployed.push(addr);
            self.code.update(addr, |slot| {
                let chain = slot.get_or_insert_with(Vec::new);
                let pos = chain.partition_point(|(t, _)| *t < tx);
                if chain.get(pos).is_some_and(|(t, _)| *t == tx) {
                    chain[pos] = (tx, bytecode);
                } else {
                    chain.insert(pos, (tx, bytecode));
                }
            });
        }
        for addr in prev_deployed.iter().filter(|a| !new_deployed.contains(a)) {
            self.code.update(*addr, |slot| {
                if let Some(chain) = slot.as_mut() {
                    chain.retain(|(t, _)| *t != tx);
                }
            });
        }
        *prev_deployed = new_deployed;

        wrote_new
    }

    /// Flags every location the latest incarnation of `tx` wrote as an
    /// ESTIMATE (called after a validation abort, before the re-execution):
    /// readers that land on one wait for `tx` instead of consuming the stale
    /// value.
    pub fn convert_to_estimates(&self, tx: TxIndex) {
        for key in self.written[tx as usize].lock().iter() {
            self.data.update(*key, |slot| {
                if let Some(chain) = slot.as_mut() {
                    if let Some(e) = chain.iter_mut().find(|e| e.tx == tx) {
                        e.estimate = true;
                    }
                }
            });
        }
    }

    /// Re-resolves every read the latest incarnation of `tx` recorded and
    /// compares origins.
    pub fn validate_reads(&self, tx: TxIndex) -> ReadValidation {
        let reads = self.reads[tx as usize].lock();
        let mut saw_estimate = false;
        for (key, origin) in reads.iter() {
            match self.read(key, tx) {
                MvRead::Value { origin: cur, .. } => {
                    if cur != *origin {
                        return ReadValidation::Invalid;
                    }
                }
                MvRead::Estimate { .. } => saw_estimate = true,
            }
        }
        if saw_estimate {
            ReadValidation::SawEstimate
        } else {
            ReadValidation::Valid
        }
    }

    /// Materializes the world as the prefix `0..cut` of the preset order
    /// left it: base plus, per key, the highest-index entry below `cut`.
    ///
    /// Must only be called after the scheduler converged — no entry below
    /// `cut` may still be an ESTIMATE (debug-asserted).
    pub fn materialize(&self, cut: TxIndex) -> WorldState {
        let mut world = self.base.snapshot();
        let mut writes: WriteSet = Default::default();
        for (key, chain) in self.data.snapshot() {
            if let Some(e) = chain.iter().rev().find(|e| e.tx < cut) {
                debug_assert!(!e.estimate, "ESTIMATE below the seal cut");
                writes.insert(key, e.value);
            }
        }
        world.apply_writes(&writes);
        for (addr, chain) in self.code.snapshot() {
            if let Some((_, code)) = chain.iter().rev().find(|(t, _)| *t < cut) {
                world.set_code(addr, (**code).clone());
            }
        }
        world
    }

    /// Number of keys with at least one recorded write.
    pub fn written_key_count(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_types::H256;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn bal(i: u64) -> AccessKey {
        AccessKey::Balance(addr(i))
    }

    fn ws(pairs: &[(AccessKey, u64)]) -> WriteSet {
        pairs.iter().map(|(k, v)| (*k, U256::from(*v))).collect()
    }

    fn mem() -> MvMemory {
        let mut base = WorldState::new();
        base.set_balance(addr(1), U256::from(100u64));
        base.set_storage(addr(2), H256::from_low_u64(1), U256::from(7u64));
        MvMemory::new(Arc::new(base), 8, 4)
    }

    fn no_code() -> std::iter::Empty<(Address, Arc<Vec<u8>>)> {
        std::iter::empty()
    }

    #[test]
    fn reads_see_only_lower_indices() {
        let m = mem();
        m.record(3, 0, Vec::new(), &ws(&[(bal(1), 50)]), no_code());
        // Transaction 2 reads below the write; 4 reads above it.
        assert_eq!(
            m.read(&bal(1), 2),
            MvRead::Value {
                value: U256::from(100u64),
                origin: ReadOrigin::Base
            }
        );
        assert_eq!(
            m.read(&bal(1), 4),
            MvRead::Value {
                value: U256::from(50u64),
                origin: ReadOrigin::Version {
                    tx: 3,
                    incarnation: 0
                }
            }
        );
        // A transaction never reads its own entry.
        assert_eq!(
            m.read(&bal(1), 3),
            MvRead::Value {
                value: U256::from(100u64),
                origin: ReadOrigin::Base
            }
        );
    }

    #[test]
    fn estimates_redirect_readers_to_the_writer() {
        let m = mem();
        m.record(1, 0, Vec::new(), &ws(&[(bal(1), 60)]), no_code());
        m.convert_to_estimates(1);
        assert_eq!(
            m.read(&bal(1), 5),
            MvRead::Estimate {
                writer: 1,
                fallback: U256::from(60u64)
            }
        );
        // Re-recording (the re-execution) clears the flag.
        m.record(1, 1, Vec::new(), &ws(&[(bal(1), 61)]), no_code());
        assert_eq!(
            m.read(&bal(1), 5),
            MvRead::Value {
                value: U256::from(61u64),
                origin: ReadOrigin::Version {
                    tx: 1,
                    incarnation: 1
                }
            }
        );
    }

    #[test]
    fn reexecution_removes_unwritten_locations() {
        let m = mem();
        m.record(
            2,
            0,
            Vec::new(),
            &ws(&[(bal(1), 10), (bal(3), 20)]),
            no_code(),
        );
        // Incarnation 1 no longer writes bal(3).
        let wrote_new = m.record(2, 1, Vec::new(), &ws(&[(bal(1), 11)]), no_code());
        assert!(!wrote_new, "subset of previous write set");
        assert_eq!(
            m.read(&bal(3), 5),
            MvRead::Value {
                value: U256::ZERO,
                origin: ReadOrigin::Base
            }
        );
        // A genuinely new location reports wrote_new.
        assert!(m.record(
            2,
            2,
            Vec::new(),
            &ws(&[(bal(1), 12), (bal(4), 1)]),
            no_code()
        ));
    }

    #[test]
    fn validation_compares_origins_not_values() {
        let m = mem();
        m.record(1, 0, Vec::new(), &ws(&[(bal(1), 100)]), no_code());
        // Transaction 3 read bal(1) from the base (value 100).
        m.record(3, 0, vec![(bal(1), ReadOrigin::Base)], &ws(&[]), no_code());
        // Same value, different origin: must invalidate (ABA).
        assert_eq!(m.validate_reads(3), ReadValidation::Invalid);

        // Matching origin validates.
        m.record(
            4,
            0,
            vec![(
                bal(1),
                ReadOrigin::Version {
                    tx: 1,
                    incarnation: 0,
                },
            )],
            &ws(&[]),
            no_code(),
        );
        assert_eq!(m.validate_reads(4), ReadValidation::Valid);

        // An ESTIMATE defers the verdict instead of failing it.
        m.convert_to_estimates(1);
        assert_eq!(m.validate_reads(4), ReadValidation::SawEstimate);
    }

    #[test]
    fn materialize_takes_the_prefix() {
        let m = mem();
        m.record(0, 0, Vec::new(), &ws(&[(bal(1), 10)]), no_code());
        m.record(
            2,
            1,
            Vec::new(),
            &ws(&[(bal(1), 30), (bal(5), 5)]),
            no_code(),
        );
        let at1 = m.materialize(1);
        assert_eq!(at1.balance(&addr(1)), U256::from(10u64));
        assert_eq!(at1.balance(&addr(5)), U256::ZERO);
        let at3 = m.materialize(3);
        assert_eq!(at3.balance(&addr(1)), U256::from(30u64));
        assert_eq!(at3.balance(&addr(5)), U256::from(5u64));
        // Cut 0 is the base.
        assert_eq!(m.materialize(0).state_root(), m.base().state_root());
    }

    #[test]
    fn code_deployments_are_versioned_and_revertible() {
        let m = mem();
        let code = Arc::new(vec![0xAA]);
        m.record(
            2,
            0,
            Vec::new(),
            &ws(&[]),
            std::iter::once((addr(9), Arc::clone(&code))),
        );
        assert!(m.code_at(&addr(9), 2).is_empty());
        assert_eq!(*m.code_at(&addr(9), 3), vec![0xAA]);
        assert_eq!(*m.materialize(3).code(&addr(9)), vec![0xAA]);
        // The re-execution deploys nothing: the stale deployment vanishes.
        m.record(2, 1, Vec::new(), &ws(&[]), no_code());
        assert!(m.code_at(&addr(9), 3).is_empty());
    }

    #[test]
    fn concurrent_record_and_read_stay_consistent() {
        use std::thread;
        let m = Arc::new(mem());
        let writer = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                for round in 0..200u64 {
                    m.record(
                        1,
                        round as u32,
                        Vec::new(),
                        &ws(&[(bal(1), round + 1)]),
                        no_code(),
                    );
                }
            })
        };
        for _ in 0..1000 {
            match m.read(&bal(1), 4) {
                MvRead::Value { value, origin } => {
                    if origin == ReadOrigin::Base {
                        assert_eq!(value, U256::from(100u64));
                    } else {
                        assert!(value >= U256::ONE && value <= U256::from(200u64));
                    }
                }
                MvRead::Estimate { .. } => panic!("no estimates in this test"),
            }
        }
        writer.join().unwrap();
        assert_eq!(
            m.read(&bal(1), 4),
            MvRead::Value {
                value: U256::from(200u64),
                origin: ReadOrigin::Version {
                    tx: 1,
                    incarnation: 199
                }
            }
        );
    }
}
