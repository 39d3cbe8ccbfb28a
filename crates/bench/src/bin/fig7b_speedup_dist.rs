//! Figure 7(b): distribution of single-block validator speedups at 16
//! worker threads.
//!
//! Paper: 99.8% of blocks are accelerated; most land between 2× and 5×,
//! with a tail of hotspot-bound blocks near 1×.
//!
//! Usage: `cargo run -p bp-bench --release --bin fig7b_speedup_dist`

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_bench::{bar, block_count, generate_fixtures, histogram, mean, modeled, percentile};
use bp_sim::{simulate_validator, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(200);
    modeled!("=== Figure 7(b): validator speedup distribution (16 threads) ===");
    modeled!("workload: {blocks} mainnet-like blocks (seeded)\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let scheduler = Scheduler::new(ConflictGranularity::Account);
    let model = CostModel::default();

    let speedups: Vec<f64> = fixtures
        .iter()
        .map(|f| {
            let schedule = scheduler.schedule(&f.profile, 16);
            simulate_validator(&schedule, &f.profile, &model).speedup
        })
        .collect();

    let accelerated =
        100.0 * speedups.iter().filter(|&&s| s > 1.0).count() as f64 / speedups.len() as f64;
    modeled!("blocks accelerated : {accelerated:.1}%   (paper: 99.8%)");
    modeled!(
        "mean speedup       : {:.2}x (paper: 3.18x)",
        mean(&speedups)
    );
    modeled!(
        "p10 / p50 / p90    : {:.2}x / {:.2}x / {:.2}x\n",
        percentile(&speedups, 10.0),
        percentile(&speedups, 50.0),
        percentile(&speedups, 90.0)
    );

    modeled!("speedup histogram (% of blocks, bin width 0.5x):");
    let hist = histogram(&speedups, 0.0, 8.0, 16);
    for (i, pct) in hist.iter().enumerate() {
        if *pct > 0.0 {
            let lo = i as f64 * 0.5;
            bar(&format!("{:.1}x-{:.1}x", lo, lo + 0.5), *pct, 1.0);
        }
    }
}
