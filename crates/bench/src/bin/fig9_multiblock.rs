//! Figure 9: multi-block evaluation of the validator pipeline.
//!
//! Paper: executing the same-height block B ∈ {1..8} times concurrently on
//! 16 worker threads, the speedup (vs serial execution of all B blocks)
//! rises from the single-block 3.18× to a peak of 7.72× at 4 blocks, then
//! declines slightly — limited threads plus cross-block communication.
//!
//! The harness mirrors the paper's §5.6 setup exactly: each block is
//! replicated B times at the same height and pushed through the pipeline
//! model together.
//!
//! Usage: `cargo run -p bp-bench --release --bin fig9_multiblock`

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_multiblock, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(60);
    modeled!("=== Figure 9: multi-block validator pipeline (16 workers) ===");
    modeled!("workload: {blocks} mainnet-like blocks, each replicated B times at one height\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let scheduler = Scheduler::new(ConflictGranularity::Account);
    let model = CostModel::default();

    let paper = [
        (1usize, 3.18f64),
        (2, 5.20),
        (3, 6.80),
        (4, 7.72),
        (6, 7.50),
        (8, 7.20),
    ];
    modeled!(
        "{:>8} {:>12} {:>12} {:>10} {:>14}",
        "blocks",
        "speedup",
        "paper",
        "ratio",
        "switches/blk"
    );
    for (b, paper_speedup) in paper {
        let mut speedups = Vec::with_capacity(fixtures.len());
        let mut switches = 0u64;
        for f in &fixtures {
            let replicas: Vec<_> = (0..b)
                .map(|_| (scheduler.schedule(&f.profile, 16), &f.profile))
                .collect();
            let r = simulate_multiblock(&replicas, 16, &model);
            speedups.push(r.speedup);
            switches += r.switches;
        }
        let m = mean(&speedups);
        modeled!(
            "{b:>8} {m:>11.2}x {paper_speedup:>11.2}x {:>10.2} {:>14.1}",
            m / paper_speedup,
            switches as f64 / fixtures.len() as f64
        );
    }
    modeled!("\n(paper values for 2/3/6/8 blocks are read off Figure 9's curve;");
    modeled!(" the printed numbers are the curve the pipeline model produces.)");
}
