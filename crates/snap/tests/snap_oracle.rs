//! Property-style oracle test: a `SnapTree` driven through random
//! commit / fork / flatten / reopen sequences must answer every read
//! exactly like a per-root `MapReader` oracle (a plain `HashMap` mirror of
//! the same deltas).
//!
//! The sequences are drawn from `bp_types::Rng` over fixed seeds —
//! deterministic, replayable by seed, and byte-for-byte stable across runs.
//! They include
//! forked same-height siblings, account/slot deletions, zero-value writes
//! (which must read back as absent), empty-delta layers, idempotent
//! re-adds, window flattens that strand loser forks below the new base,
//! and (in file mode) full reopen-from-disk between operations.

use std::collections::HashMap;
use std::sync::Arc;

use bp_snap::{test_dir, SnapTree};
use bp_state::{BaseAccount, MapReader, StateDelta, StateReader};
use bp_types::{Address, Rng, H256, U256};

fn root_id(n: u64) -> H256 {
    H256::from_low_u64(0x1000_0000 + n)
}

/// A random delta over a small universe of addresses and slots, mixing
/// upserts, body deletions, slot deletions, and explicit zero writes.
fn random_delta(rng: &mut Rng) -> StateDelta {
    let mut d = StateDelta::default();
    let ops = rng.gen_range(1..=5u64);
    for _ in 0..ops {
        let addr = Address::from_index(rng.gen_range(0..8u64));
        match rng.gen_range(0..10u64) {
            0 => {
                d.accounts.insert(addr, None);
            }
            1..=4 => {
                d.accounts.insert(
                    addr,
                    Some(BaseAccount {
                        nonce: rng.gen_range(0..50u64),
                        balance: U256::from(rng.gen_range(0..1_000_000u64)),
                        code: Arc::new(Vec::new()),
                    }),
                );
            }
            5 => {
                d.storage
                    .entry(addr)
                    .or_default()
                    .insert(H256::from_low_u64(rng.gen_range(0..6u64)), None);
            }
            6 => {
                // An explicit zero write must behave exactly like a delete.
                d.storage
                    .entry(addr)
                    .or_default()
                    .insert(H256::from_low_u64(rng.gen_range(0..6u64)), Some(U256::ZERO));
            }
            _ => {
                d.storage.entry(addr).or_default().insert(
                    H256::from_low_u64(rng.gen_range(0..6u64)),
                    Some(U256::from(rng.gen_range(1..=9999u64))),
                );
            }
        }
    }
    d
}

/// The oracle side: per-live-root flat maps plus the parent/height shape of
/// the layer tree, updated by the same rules the real tree promises.
struct Model {
    base_root: H256,
    oracles: HashMap<H256, MapReader>,
    parents: HashMap<H256, H256>,
    heights: HashMap<H256, u64>,
}

impl Model {
    fn new(base_root: H256, genesis: MapReader) -> Self {
        let mut oracles = HashMap::new();
        oracles.insert(base_root, genesis);
        let mut heights = HashMap::new();
        heights.insert(base_root, 0);
        Model {
            base_root,
            oracles,
            parents: HashMap::new(),
            heights,
        }
    }

    fn live_roots(&self) -> Vec<H256> {
        let mut v: Vec<H256> = self.oracles.keys().copied().collect();
        v.sort();
        v
    }

    fn commit(&mut self, parent: H256, root: H256, delta: &StateDelta) -> u64 {
        let mut oracle = self.oracles[&parent].clone();
        oracle.apply(delta);
        let height = self.heights[&parent] + 1;
        self.oracles.insert(root, oracle);
        self.parents.insert(root, parent);
        self.heights.insert(root, height);
        height
    }

    /// Mirrors `SnapTree::retain(head, keep)`: fold the chain beyond `keep`
    /// into the base and drop every layer no longer reachable from the new
    /// base via parent links.
    fn retain(&mut self, head: H256, keep: usize) {
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(p) = self.parents.get(&cur) {
            cur = *p;
            chain.push(cur);
        }
        // chain = [head .. first-layer, base_root]; layers only:
        chain.pop();
        if chain.len() <= keep {
            return;
        }
        let new_base = chain[keep];
        // Reachability fixpoint from the new base over parent links.
        let mut survivors: Vec<H256> = vec![new_base];
        loop {
            let before = survivors.len();
            for (root, parent) in &self.parents {
                if survivors.contains(parent) && !survivors.contains(root) {
                    survivors.push(*root);
                }
            }
            if survivors.len() == before {
                break;
            }
        }
        self.oracles.retain(|r, _| survivors.contains(r));
        self.parents
            .retain(|r, _| survivors.contains(r) && *r != new_base);
        self.heights.retain(|r, _| survivors.contains(r));
        self.base_root = new_base;
    }
}

/// Every live root's reader must agree with its oracle on every account
/// body, every storage slot, and the full storage-entry listing.
fn check(tree: &SnapTree, model: &Model, ctx: &str) {
    assert_eq!(tree.base_root(), model.base_root, "{ctx}: base root");
    assert_eq!(
        tree.layer_count(),
        model.oracles.len() - 1,
        "{ctx}: layer count"
    );
    for root in model.live_roots() {
        let reader = tree
            .reader(root)
            .unwrap_or_else(|e| panic!("{ctx}: live root {root:?} unreadable: {e}"));
        let oracle = &model.oracles[&root];
        let mut addrs: Vec<Address> = reader.base_accounts();
        addrs.extend(oracle.accounts.keys().copied());
        addrs.extend(oracle.storage.keys().copied());
        addrs.sort();
        addrs.dedup();
        for addr in addrs {
            assert_eq!(
                reader.base_account(&addr),
                oracle.base_account(&addr),
                "{ctx}: root {root:?} account {addr:?}"
            );
            let mut got = reader.base_storage_entries(&addr);
            got.sort();
            let mut want = oracle.base_storage_entries(&addr);
            want.sort();
            assert_eq!(got, want, "{ctx}: root {root:?} storage of {addr:?}");
            for slot in 0..6u64 {
                let slot = H256::from_low_u64(slot);
                assert_eq!(
                    reader.base_storage(&addr, &slot),
                    oracle.base_storage(&addr, &slot),
                    "{ctx}: root {root:?} slot {slot:?} of {addr:?}"
                );
            }
        }
    }
}

/// One full random run against `tree`; `dir` enables reopen-from-disk
/// crash-free restarts between operations when present.
fn run_sequence(seed: u64, dir: Option<&std::path::Path>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut next_root = 1u64;

    let tree = match dir {
        Some(d) => SnapTree::open(d).unwrap(),
        None => SnapTree::memory(),
    };
    let genesis_delta = {
        let mut d = StateDelta::default();
        for i in 0..4u64 {
            d.fold(&random_delta(&mut rng));
            d.accounts
                .entry(Address::from_index(i))
                .or_insert(Some(BaseAccount {
                    nonce: i,
                    balance: U256::from(1000u64),
                    code: Arc::new(Vec::new()),
                }));
        }
        d
    };
    let base_root = root_id(0);
    tree.seed(&genesis_delta, base_root, 0).unwrap();
    let mut genesis_oracle = MapReader::new();
    genesis_oracle.apply(&genesis_delta);
    let mut model = Model::new(base_root, genesis_oracle);

    let mut tree = tree;
    for step in 0..70u64 {
        let ctx = format!("seed {seed} step {step}");
        let live = model.live_roots();
        match rng.gen_range(0..10u64) {
            // Flatten: random live head, random window.
            0 | 1 => {
                let head = live[rng.gen_range(0..live.len())];
                let keep = rng.gen_range(0..3usize);
                tree.retain(head, keep)
                    .unwrap_or_else(|e| panic!("{ctx}: retain({head:?}, {keep}) failed: {e}"));
                model.retain(head, keep);
            }
            // Idempotent re-add of a known root must be a no-op.
            2 if !model.parents.is_empty() => {
                let known: Vec<H256> = model.parents.keys().copied().collect();
                let victim = known[rng.gen_range(0..known.len())];
                let parent = model.parents[&victim];
                let h = model.heights[&victim];
                let added = tree
                    .add_layer(victim, parent, h, StateDelta::default())
                    .unwrap();
                assert!(!added, "{ctx}: re-add of {victim:?} was not a no-op");
            }
            // Commit a child of a random live root — picking non-tip
            // parents naturally produces forked same-height siblings.
            _ => {
                let parent = live[rng.gen_range(0..live.len())];
                let root = root_id(next_root);
                next_root += 1;
                let delta = if rng.gen_range(0..12u64) == 0 {
                    StateDelta::default() // empty block
                } else {
                    random_delta(&mut rng)
                };
                let height = model.commit(parent, root, &delta);
                let added = tree.add_layer(root, parent, height, delta).unwrap();
                assert!(added, "{ctx}: fresh root {root:?} rejected");
            }
        }
        // Unknown roots must stay unreadable.
        assert!(tree.reader(root_id(0xDEAD_0000)).is_err(), "{ctx}");
        check(&tree, &model, &ctx);

        // File mode: periodically drop everything and recover from disk.
        if let Some(d) = dir {
            if rng.gen_range(0..7u64) == 0 {
                drop(tree);
                tree = SnapTree::open(d).unwrap();
                check(&tree, &model, &format!("{ctx} (reopened)"));
            }
        }
    }
}

#[test]
fn random_sequences_match_oracle_in_memory() {
    for seed in [3, 7, 0xBEEF, 0x5EED_5EED] {
        run_sequence(seed, None);
    }
}

#[test]
fn random_sequences_match_oracle_on_disk_with_reopens() {
    for seed in [11, 0xCAFE, 0x1234_5678] {
        let dir = test_dir("oracle");
        run_sequence(seed, Some(&dir));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
