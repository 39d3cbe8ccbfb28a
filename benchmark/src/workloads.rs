//! The three workloads: what each generates, why it exists, and how many
//! blocks a second of `--seconds` buys in each phase.

use bp_types::Gas;
use bp_workload::{TxMix, WorkloadConfig};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the report: the layers it stresses.
    pub why: &'static str,
    /// Block gas limit of the `node` phase. The node's ingest keeps a
    /// 1024-transaction pool full, so the gas limit alone sets the block
    /// size; each value is chosen so `node.txs_per_block` lands in 120–145
    /// (paper: 132). The `path` phase packs whole generated batches
    /// (132 ± 24) under the engine's default limit instead.
    pub node_gas_limit: Gas,
    /// Blocks of the `node` phase per second of `--seconds`. Pinned at seed
    /// speed so the phase, with its set-up and its equivalence check, takes
    /// about a third of `--seconds` there; a fixed count, not a deadline, so
    /// both sides of a comparison do identical work.
    pub node_blocks_per_s: f64,
    /// Blocks of each `path` pass (and so of the replayed chain) per second
    /// of `--seconds`: pass A and the three replays about a third each.
    pub path_blocks_per_s: f64,
    /// Blocks of pass A's chain that a traced run replays in memory and again
    /// on an on-disk store, per second of `--seconds`: about 0.15 × of it at
    /// this disk's 20–35 ms per committed block, 0.5 × on `wide_transfers`,
    /// where a commit takes half a second.
    pub store_blocks_per_s: f64,
    /// Peak resident memory of a run per second of `--seconds`, in MB: how
    /// much memory the harness warms before the first phase.
    pub resident_mb_per_s: f64,
    config: fn() -> WorkloadConfig,
}

impl Workload {
    /// The generator configuration for one run; `seed` picks the inputs.
    pub fn config(&self, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            // Spread neighbouring seeds over the generator's whole stream.
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xB10C_9107,
            ..(self.config)()
        }
    }
}

fn mainnet_mix() -> WorkloadConfig {
    WorkloadConfig::default()
}

/// The high-contention row of the paper-figure harness (`fig8_hotspot`):
/// 70 % AMM swaps, the rest split 62/38 transfer/token, Zipf-1.2 accounts.
fn hot_amm() -> WorkloadConfig {
    WorkloadConfig {
        mix: TxMix {
            transfer: 0.30 * 0.62,
            token: 0.30 * 0.38,
            amm: 0.70,
            blind: 0.0,
            mint: 0.0,
        },
        zipf_accounts: 1.20,
        ..WorkloadConfig::default()
    }
}

fn wide_transfers() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 100_000,
        // No token transaction runs; one token keeps genesis to the accounts
        // plus one holder slot each.
        tokens: 1,
        mix: TxMix {
            transfer: 1.0,
            token: 0.0,
            amm: 0.0,
            blind: 0.0,
            mint: 0.0,
        },
        zipf_accounts: 0.0,
        ..WorkloadConfig::default()
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mainnet_mix",
        why: "paper's evaluation mix (132 tx, 60/36/4 transfer/token/amm, largest subgraph ~27.5%): every layer does comparable work, so fixed per-block cost shows",
        node_gas_limit: 3_450_000,
        node_blocks_per_s: 24.0,
        path_blocks_per_s: 22.0,
        store_blocks_per_s: 5.0,
        resident_mb_per_s: 70.0,
        config: mainnet_mix,
    },
    Workload {
        name: "hot_amm",
        why: "70% AMM swaps on Zipf-1.2 accounts: one block-wide dependency chain, so EVM, proposer aborts and the validator's serial lane dominate; root hashing and parallelism do little",
        node_gas_limit: 4_080_000,
        node_blocks_per_s: 48.0,
        path_blocks_per_s: 27.0,
        store_blocks_per_s: 5.0,
        resident_mb_per_s: 75.0,
        config: hot_amm,
    },
    Workload {
        name: "wide_transfers",
        why: "plain transfers over 100k uniform accounts: no bytecode, no conflicts, ~132 singleton subgraphs, so trie depth, root, apply and snapshot dominate; large set-up and memory",
        node_gas_limit: 2_772_000,
        node_blocks_per_s: 7.0,
        path_blocks_per_s: 5.0,
        store_blocks_per_s: 1.0,
        resident_mb_per_s: 65.0,
        config: wide_transfers,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
