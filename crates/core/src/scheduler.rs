//! The validator's transaction scheduler (§4.3, preparation phase).
//!
//! From the block profile's read/write sets the scheduler builds a
//! dependency graph, groups conflicting transactions into **subgraphs**
//! (connected components — any two transactions in different components are
//! conflict-free), and assigns subgraphs to worker lanes by gas-weighted
//! longest-processing-time: heaviest subgraph first onto the least-loaded
//! lane, gas being the paper's execution-time proxy.
//!
//! Transactions inside one lane run serially **in block order**; lanes run in
//! parallel. Because every pair of conflicting transactions shares a lane,
//! replaying a lane serially observes exactly the same values a full serial
//! replay of the block would — this is the invariant the property tests pin
//! down.

use bp_block::BlockProfile;
use bp_types::{AccessKey, Address, FxHashMap, Gas};

/// Granularity at which two transactions are considered conflicting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictGranularity {
    /// The paper's choice: any two touches of the same **account** conflict
    /// (balances change every transaction; storage writes update the
    /// account's storage root). Coarse but cheap.
    Account,
}

/// One connected component of the dependency graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Subgraph {
    /// Member transaction indices, ascending (block order).
    pub txs: Vec<usize>,
    /// Total gas — the scheduler's time estimate for the component.
    pub gas: Gas,
}

/// A complete lane assignment for one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// `lanes[t]` lists the transaction indices lane `t` executes, in block
    /// order. Every index appears in exactly one lane.
    pub lanes: Vec<Vec<usize>>,
    /// The subgraphs the lanes were packed from, heaviest first.
    pub subgraphs: Vec<Subgraph>,
    /// Total gas of the block.
    pub total_gas: Gas,
}

impl Schedule {
    /// Fraction of the block's transactions in the largest subgraph — the
    /// x-axis of the paper's Figure 8 (hotspot analysis).
    pub fn largest_subgraph_ratio(&self) -> f64 {
        let n: usize = self.lanes.iter().map(Vec::len).sum();
        if n == 0 {
            return 0.0;
        }
        let largest = self
            .subgraphs
            .iter()
            .map(|s| s.txs.len())
            .max()
            .unwrap_or(0);
        largest as f64 / n as f64
    }
}

/// Builds schedules from block profiles, at account granularity.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scheduler;

impl Scheduler {
    /// A scheduler detecting conflicts at `granularity`.
    pub fn new(granularity: ConflictGranularity) -> Self {
        match granularity {
            ConflictGranularity::Account => Scheduler,
        }
    }

    /// Builds the dependency subgraphs and packs them into `lanes` lanes.
    ///
    /// Schedules directly off the profile's borrowed key maps — no
    /// per-transaction [`bp_types::RwSet`] clones.
    pub fn schedule(&self, profile: &BlockProfile, lanes: usize) -> Schedule {
        let gas: Vec<Gas> = profile.entries.iter().map(|e| e.gas_used).collect();
        let subgraphs = self.subgraphs_with_gas(profile, &gas);
        self.pack(subgraphs, &gas, lanes)
    }

    /// Builds the heaviest-first dependency subgraphs of a block without
    /// packing them into lanes — the unit of work for subgraph-granular
    /// dispatch, where every component becomes its own crew task.
    pub fn subgraphs(&self, profile: &BlockProfile) -> Vec<Subgraph> {
        let gas: Vec<Gas> = profile.entries.iter().map(|e| e.gas_used).collect();
        self.subgraphs_with_gas(profile, &gas)
    }

    fn subgraphs_with_gas(&self, profile: &BlockProfile, gas: &[Gas]) -> Vec<Subgraph> {
        let key_count: usize = profile
            .entries
            .iter()
            .map(|e| e.reads.len() + e.writes.len())
            .sum();
        self.components(profile.entries.len(), gas, key_count, |i, visit| {
            let entry = &profile.entries[i];
            for key in entry.reads.keys() {
                visit(key, false);
            }
            for key in entry.writes.keys() {
                visit(key, true);
            }
        })
    }

    /// Union-find over the conflict graph, visiting each transaction's keys
    /// through a borrowed-key visitor (`visit(key, is_write)`), then collects
    /// connected components, heaviest first.
    fn components(
        &self,
        n: usize,
        gas: &[Gas],
        key_count: usize,
        for_each_key: impl Fn(usize, &mut dyn FnMut(&AccessKey, bool)),
    ) -> Vec<Subgraph> {
        let mut uf = UnionFind::new(n);

        // Two passes over the keys. The first records each account's first
        // toucher and whether anybody writes it; the second joins every
        // toucher of a written account to that account's first toucher.
        // Read-only accounts create no edges. Capacity from the profile's
        // total key count bounds the distinct-account count from above, so
        // the map never rehashes.
        let mut accounts: FxHashMap<Address, (usize, bool)> =
            FxHashMap::with_capacity_and_hasher(key_count, Default::default());
        for i in 0..n {
            for_each_key(i, &mut |key, is_write| {
                accounts.entry(key.address()).or_insert((i, false)).1 |= is_write;
            });
        }
        for i in 0..n {
            for_each_key(i, &mut |key, _| {
                let (first, has_writer) = accounts[&key.address()];
                if has_writer {
                    uf.union(first, i);
                }
            });
        }

        // Members grouped by their union-find root; visiting transactions
        // in block order keeps every member list ascending.
        let mut subgraph_of_root: Vec<Option<usize>> = vec![None; n];
        let mut subgraphs: Vec<Subgraph> = Vec::new();
        for (i, &tx_gas) in gas.iter().enumerate() {
            let at = *subgraph_of_root[uf.find(i)].get_or_insert_with(|| {
                subgraphs.push(Subgraph {
                    txs: Vec::new(),
                    gas: 0,
                });
                subgraphs.len() - 1
            });
            subgraphs[at].txs.push(i);
            subgraphs[at].gas += tx_gas;
        }
        // Heaviest-path-first (deterministic tiebreak on first member).
        subgraphs.sort_by(|a, b| b.gas.cmp(&a.gas).then(a.txs[0].cmp(&b.txs[0])));
        subgraphs
    }

    /// LPT-packs heaviest-first subgraphs onto `lanes` lanes: each onto the
    /// least-loaded lane by gas.
    fn pack(&self, subgraphs: Vec<Subgraph>, gas: &[Gas], lanes: usize) -> Schedule {
        assert!(lanes > 0, "need at least one lane");
        let mut lane_txs: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        let mut lane_load: Vec<Gas> = vec![0; lanes];
        for sg in &subgraphs {
            let target = (0..lanes)
                .min_by_key(|&t| (lane_load[t], t))
                .expect("lanes > 0");
            lane_load[target] += sg.gas;
            lane_txs[target].extend_from_slice(&sg.txs);
        }
        for lane in &mut lane_txs {
            lane.sort_unstable(); // block order within the lane
        }

        Schedule {
            lanes: lane_txs,
            subgraphs,
            total_gas: gas.iter().sum(),
        }
    }
}

/// Path-halving union-find.
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_block::TxProfile;
    use bp_types::{RwSet, U256};

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    /// Builds a profile entry reading `reads` and writing `writes` (balance
    /// keys of the given account indices), with `gas`.
    fn entry(reads: &[u64], writes: &[u64], gas: Gas) -> TxProfile {
        let mut rw = RwSet::new();
        for &r in reads {
            rw.record_read(AccessKey::Balance(addr(r)), 0);
        }
        for &w in writes {
            rw.record_write(AccessKey::Balance(addr(w)), U256::ONE);
        }
        TxProfile::from_owned_rw(rw, Default::default(), gas)
    }

    fn profile(entries: Vec<TxProfile>) -> BlockProfile {
        BlockProfile { entries }
    }

    /// Gas load of each lane.
    fn lane_gas(s: &Schedule, profile: &BlockProfile) -> Vec<Gas> {
        s.lanes
            .iter()
            .map(|lane| lane.iter().map(|&i| profile.entries[i].gas_used).sum())
            .collect()
    }

    /// The heaviest lane's gas.
    fn makespan_gas(s: &Schedule, profile: &BlockProfile) -> Gas {
        lane_gas(s, profile).into_iter().max().unwrap_or(0)
    }

    /// Number of non-empty lanes.
    fn active_lanes(s: &Schedule) -> usize {
        s.lanes.iter().filter(|l| !l.is_empty()).count()
    }

    #[test]
    fn independent_txs_spread_over_lanes() {
        let p = profile(vec![
            entry(&[], &[1], 10),
            entry(&[], &[2], 10),
            entry(&[], &[3], 10),
            entry(&[], &[4], 10),
        ]);
        let s = Scheduler.schedule(&p, 4);
        assert_eq!(s.subgraphs.len(), 4);
        assert_eq!(active_lanes(&s), 4);
        assert_eq!(makespan_gas(&s, &p), 10);
        assert!((s.largest_subgraph_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn conflicting_txs_share_a_lane() {
        // 0 writes A; 1 reads A; 2 writes B — {0,1} conflict, 2 is free.
        let p = profile(vec![
            entry(&[], &[1], 10),
            entry(&[1], &[2], 10),
            entry(&[], &[3], 10),
        ]);
        let s = Scheduler.schedule(&p, 4);
        assert_eq!(s.subgraphs.len(), 2);
        let lane_of = |i: usize| s.lanes.iter().position(|l| l.contains(&i)).unwrap();
        assert_eq!(lane_of(0), lane_of(1));
        assert_ne!(lane_of(0), lane_of(2));
    }

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let p = profile(vec![entry(&[9], &[1], 10), entry(&[9], &[2], 10)]);
        let s = Scheduler.schedule(&p, 2);
        assert_eq!(s.subgraphs.len(), 2);
    }

    #[test]
    fn transitive_conflicts_merge() {
        // 0-1 share A, 1-2 share B: one subgraph of 3.
        let p = profile(vec![
            entry(&[], &[1], 10),
            entry(&[1], &[2], 10),
            entry(&[2], &[3], 10),
        ]);
        let s = Scheduler.schedule(&p, 4);
        assert_eq!(s.subgraphs.len(), 1);
        assert_eq!(s.subgraphs[0].txs, vec![0, 1, 2]);
        assert!((s.largest_subgraph_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_preserve_block_order() {
        // All conflict: one lane must hold 0..5 ascending.
        let p = profile((0..5).map(|_| entry(&[], &[1], 10)).collect());
        let s = Scheduler.schedule(&p, 3);
        let lane = s.lanes.iter().find(|l| !l.is_empty()).unwrap();
        assert_eq!(lane, &vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn lpt_balances_by_gas_not_count() {
        // One heavy subgraph (gas 100) and four light ones (gas 10): with two
        // lanes, LPT puts the heavy one alone and the light ones together.
        let p = profile(vec![
            entry(&[], &[1], 100),
            entry(&[], &[2], 10),
            entry(&[], &[3], 10),
            entry(&[], &[4], 10),
            entry(&[], &[5], 10),
        ]);
        let s = Scheduler.schedule(&p, 2);
        let loads = lane_gas(&s, &p);
        assert_eq!(loads.iter().max(), Some(&100));
        assert_eq!(loads.iter().sum::<u64>(), 140);
        assert_eq!(makespan_gas(&s, &p), 100);
    }

    #[test]
    fn every_tx_in_exactly_one_lane() {
        let p = profile(
            (0..20)
                .map(|i| entry(&[i % 5], &[i % 3 + 10], 10 + i))
                .collect(),
        );
        let s = Scheduler.schedule(&p, 4);
        let mut seen = vec![false; 20];
        for lane in &s.lanes {
            for &i in lane {
                assert!(!seen[i], "tx {i} scheduled twice");
                seen[i] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn empty_profile_schedules_cleanly() {
        let p = profile(vec![]);
        let s = Scheduler.schedule(&p, 4);
        assert_eq!(active_lanes(&s), 0);
        assert_eq!(s.total_gas, 0);
        assert_eq!(s.largest_subgraph_ratio(), 0.0);
        assert_eq!(makespan_gas(&s, &p), 0);
    }

    #[test]
    fn single_lane_degenerates_to_serial() {
        let p = profile((0..6).map(|i| entry(&[], &[i + 1], 10)).collect());
        let s = Scheduler.schedule(&p, 1);
        assert_eq!(s.lanes.len(), 1);
        assert_eq!(s.lanes[0], (0..6).collect::<Vec<_>>());
        assert_eq!(makespan_gas(&s, &p), 60);
    }
}
