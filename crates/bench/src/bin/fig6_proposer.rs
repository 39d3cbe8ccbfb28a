//! Figure 6: proposer (OCC-WSI) speedup distribution, 2–16 threads.
//!
//! Paper: proposers average 1.82×/2.60×/3.56×/4.89× at 2/4/8/16 threads,
//! with 99.7% of blocks accelerated; proposers beat validators because any
//! serializable order is acceptable.
//!
//! Usage: `cargo run -p bp-bench --release --bin fig6_proposer`
//! (`BP_BLOCKS=N` overrides the sample size).

use bp_bench::{bar, block_count, generate_fixtures, histogram, mean, modeled};
use bp_sim::{simulate_proposer, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(60);
    modeled!("=== Figure 6: proposer (OCC-WSI) parallel speedup ===");
    modeled!("workload: {blocks} mainnet-like pending-pool snapshots (seeded)\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let model = CostModel::default();
    let paper = [(2usize, 1.82f64), (4, 2.60), (8, 3.56), (16, 4.89)];

    let mut per_thread: Vec<(usize, Vec<f64>, u64)> = Vec::new();
    for (threads, _) in paper {
        let mut speedups = Vec::with_capacity(fixtures.len());
        let mut aborts = 0u64;
        for f in &fixtures {
            let r = simulate_proposer(&f.pre_state, &f.env, &f.txs, threads, &model);
            assert_eq!(r.committed, f.txs.len(), "all txs must commit");
            speedups.push(r.speedup);
            aborts += r.aborts;
        }
        per_thread.push((threads, speedups, aborts));
    }

    modeled!(
        "{:>8} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "threads",
        "mean",
        "paper",
        "ratio",
        "accelerated",
        "aborts/blk"
    );
    for ((threads, speedups, aborts), (_, paper_speedup)) in per_thread.iter().zip(paper) {
        let m = mean(speedups);
        let accelerated =
            100.0 * speedups.iter().filter(|&&s| s > 1.0).count() as f64 / speedups.len() as f64;
        modeled!(
            "{threads:>8} {m:>11.2}x {paper_speedup:>11.2}x {:>14.2} {accelerated:>11.1}% {:>12.1}",
            m / paper_speedup,
            *aborts as f64 / speedups.len() as f64
        );
    }

    // The paper's Figure 6 is a histogram of per-block speedups at each
    // thread count; print the 16-thread distribution.
    let (_, speedups16, _) = &per_thread[per_thread.len() - 1];
    modeled!("\n16-thread speedup distribution (% of blocks):");
    let hist = histogram(speedups16, 0.0, 16.0, 16);
    for (i, pct) in hist.iter().enumerate() {
        if *pct > 0.0 {
            bar(&format!("{}x-{}x", i, i + 1), *pct, 1.0);
        }
    }
}
