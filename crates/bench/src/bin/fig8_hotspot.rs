//! Figure 8: effect of the hotspot problem — largest-subgraph ratio vs
//! validator speedup at 16 threads.
//!
//! Paper: the mean largest subgraph holds 27.5% of a block's transactions;
//! blocks whose largest subgraph is ~10% reach >4×, while single-subgraph
//! blocks run at the serial EVM's speed.
//!
//! To cover the full ratio range the harness sweeps the workload's hotspot
//! intensity (AMM share and contract skew), then buckets blocks by their
//! measured largest-subgraph ratio, exactly as the paper's scatter plot
//! aggregates real blocks.
//!
//! Usage: `cargo run -p bp-bench --release --bin fig8_hotspot`

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_validator, CostModel};
use bp_workload::{TxMix, WorkloadConfig};

fn main() {
    let per_setting = block_count(25);
    modeled!("=== Figure 8: hotspot problem (largest subgraph vs speedup) ===");
    modeled!("workload: sweep of hotspot intensity, {per_setting} blocks each, 16 threads\n");

    let scheduler = Scheduler::new(ConflictGranularity::Account);
    let model = CostModel::default();

    // Sweep hotspot intensity: AMM share from none to block-wide, then the
    // NFT-mint storm — a *single* hot storage key, the regime past what any
    // AMM share produces (every transaction in one subgraph).
    let sweeps: Vec<(f64, f64, f64)> = vec![
        // (amm share, account zipf, mint share)
        (0.00, 0.30, 0.0),
        (0.02, 0.45, 0.0),
        (0.04, 0.50, 0.0),
        (0.10, 0.60, 0.0),
        (0.20, 0.80, 0.0),
        (0.40, 1.00, 0.0),
        (0.70, 1.20, 0.0),
        (1.00, 1.20, 0.0),
        (0.00, 0.00, 1.0),
    ];
    let mut samples: Vec<(f64, f64)> = Vec::new(); // (ratio, speedup)
    for (i, (amm, zipf, mint)) in sweeps.iter().enumerate() {
        let config = WorkloadConfig {
            seed: 0xF168 + i as u64,
            mix: TxMix {
                transfer: (1.0 - amm - mint) * 0.62,
                token: (1.0 - amm - mint) * 0.38,
                amm: *amm,
                blind: 0.0,
                mint: *mint,
            },
            zipf_accounts: *zipf,
            ..WorkloadConfig::default()
        };
        for f in generate_fixtures(config, per_setting) {
            let schedule = scheduler.schedule(&f.profile, 16);
            let r = simulate_validator(&schedule, &f.profile, &model);
            samples.push((r.largest_subgraph_ratio, r.speedup));
        }
    }

    let ratios: Vec<f64> = samples.iter().map(|s| s.0).collect();
    modeled!(
        "mean largest-subgraph ratio across sweep: {:.1}%  (paper workload mean: 27.5%)\n",
        100.0 * mean(&ratios)
    );

    modeled!(
        "{:>22} {:>8} {:>12} {:>14}",
        "largest-subgraph %",
        "blocks",
        "mean speedup",
        "paper trend"
    );
    let paper_trend = [">4x", "~4x", "~3x", "~2.5x", "~2x", "~1.5x", "~1.2x", "~1x"];
    for (i, lo) in (0..8).map(|i| (i, i as f64 * 0.125)) {
        let hi = lo + 0.125;
        let bucket: Vec<f64> = samples
            .iter()
            .filter(|(r, _)| *r >= lo && (*r < hi || (i == 7 && *r <= 1.0)))
            .map(|(_, s)| *s)
            .collect();
        if bucket.is_empty() {
            continue;
        }
        modeled!(
            "{:>20.0}-{:<3.0}% {:>6} {:>11.2}x {:>14}",
            100.0 * lo,
            100.0 * hi,
            bucket.len(),
            mean(&bucket),
            paper_trend[i]
        );
    }
}
