//! Shared harness plumbing for the per-figure benchmark binaries.
//!
//! Every figure harness follows the same pattern: generate a seeded stream
//! of mainnet-like blocks, run the algorithm under test in gas-time, and
//! print the same rows/series the paper reports through [`modeled!`].
//! [`BlockFixture`] packages one generated block with everything the
//! harnesses need (transactions, profile, gas, pre-state), built once by the
//! serial oracle.

#![warn(missing_docs)]

use std::sync::Arc;

use bp_baseline::execute_block_serially;
use bp_block::BlockProfile;
use bp_evm::{BlockEnv, Transaction};
use bp_state::WorldState;
use bp_types::Gas;
use bp_workload::{WorkloadConfig, WorkloadGen};

/// One generated block, pre-executed by the serial oracle.
pub struct BlockFixture {
    /// Transactions in a valid serial order.
    pub txs: Vec<Transaction>,
    /// The serial oracle's footprints (identical content to a proposer's
    /// block profile).
    pub profile: BlockProfile,
    /// Total gas — the serial execution time in gas-time.
    pub gas_used: Gas,
    /// Execution environment.
    pub env: BlockEnv,
    /// The state this block executes on.
    pub pre_state: Arc<WorldState>,
    /// The post state of serial execution.
    pub post_state: Arc<WorldState>,
}

/// Generates `count` block fixtures from one seeded workload, all executing
/// on the same genesis-descended chain state (each block applies on the
/// previous block's post-state, like the paper's consecutive mainnet range).
pub fn generate_fixtures(config: WorkloadConfig, count: usize) -> Vec<BlockFixture> {
    let mut gen = WorkloadGen::new(config);
    let mut state = Arc::new(gen.genesis_state());
    let mut fixtures = Vec::with_capacity(count);
    for height in 1..=count as u64 {
        let env = gen.block_env(height);
        let txs = gen.next_block_txs();
        let out = execute_block_serially(&state, &env, &txs).expect("generated blocks replay");
        let post = Arc::new(out.post_state);
        fixtures.push(BlockFixture {
            txs,
            profile: out.profile,
            gas_used: out.gas_used,
            env,
            pre_state: Arc::clone(&state),
            post_state: Arc::clone(&post),
        });
        state = post;
    }
    fixtures
}

/// Reads the harness block count from `BP_BLOCKS` (default `default`).
pub fn block_count(default: usize) -> usize {
    std::env::var("BP_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile (0–100) by nearest-rank on a sorted copy.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Histogram of `values` over `buckets` equal bins spanning `[lo, hi)`;
/// returns per-bin percentages.
pub fn histogram(values: &[f64], lo: f64, hi: f64, buckets: usize) -> Vec<f64> {
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let t = ((v - lo) / (hi - lo) * buckets as f64).floor();
        let idx = (t.max(0.0) as usize).min(buckets - 1);
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .map(|c| 100.0 * c as f64 / values.len().max(1) as f64)
        .collect()
}

/// `println!` for what a gas-time model produced: every line carries the
/// `modeled` tag, so that nothing a figure or ablation harness prints can be
/// quoted as a measurement of the host it ran on.
#[macro_export]
macro_rules! modeled {
    ($($arg:tt)*) => {
        for line in format!($($arg)*).split('\n') {
            println!("modeled | {line}");
        }
    };
}

/// Prints an ASCII bar chart row.
pub fn bar(label: &str, value: f64, scale: f64) {
    let width = (value * scale).round().max(0.0) as usize;
    modeled!(
        "  {label:>18} | {:<50} {value:.2}",
        "#".repeat(width.min(50))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
        let h = histogram(&[0.5, 1.5, 1.6, 3.9], 0.0, 4.0, 4);
        assert_eq!(h, vec![25.0, 50.0, 0.0, 25.0]);
    }

    #[test]
    fn fixtures_chain_states() {
        let config = WorkloadConfig {
            accounts: 50,
            txs_per_block: 10,
            tx_jitter: 0,
            ..Default::default()
        };
        let fixtures = generate_fixtures(config, 3);
        assert_eq!(fixtures.len(), 3);
        for f in &fixtures {
            assert_eq!(f.txs.len(), 10);
            assert_eq!(f.profile.len(), 10);
            assert!(f.gas_used > 0);
        }
        // Block 2 executes on block 1's post-state.
        assert!(Arc::ptr_eq(&fixtures[1].pre_state, &fixtures[0].post_state));
    }
}
