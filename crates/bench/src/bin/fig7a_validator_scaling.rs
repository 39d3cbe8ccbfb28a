//! Figure 7(a): single-block validator scalability, BlockPilot vs OCC [27].
//!
//! Paper: validators average 1.7×/2.5×/3.03×/3.18× at 2/4/8/16 threads,
//! scaling well to ~6 threads; BlockPilot beats the OCC baseline throughout.
//!
//! Usage: `cargo run -p bp-bench --release --bin fig7a_validator_scaling`
//! (`BP_BLOCKS=N` overrides the sample size).

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_baseline::occ_two_phase;
use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_validator, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(120);
    modeled!("=== Figure 7(a): single-block validator scalability ===");
    modeled!("workload: {blocks} mainnet-like blocks (seeded), account-level conflicts\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let scheduler = Scheduler::new(ConflictGranularity::Account);
    let model = CostModel::default();

    modeled!(
        "{:>8} {:>12} {:>12} {:>14} {:>14}",
        "threads",
        "BlockPilot",
        "OCC [27]",
        "paper(BP)",
        "ratio-to-paper"
    );
    let paper = [
        (2usize, 1.7f64),
        (4, 2.5),
        (6, 2.9),
        (8, 3.03),
        (12, 3.1),
        (16, 3.18),
    ];
    for (threads, paper_speedup) in paper {
        let mut bp = Vec::with_capacity(fixtures.len());
        let mut occ = Vec::with_capacity(fixtures.len());
        for f in &fixtures {
            let schedule = scheduler.schedule(&f.profile, threads);
            bp.push(simulate_validator(&schedule, &f.profile, &model).speedup);
            let o = occ_two_phase(&f.pre_state, &f.env, &f.txs).expect("fixture replays");
            // OCC pays the same dispatch overhead per execution in gas-time.
            let occ_makespan = o.makespan_gas(threads)
                + model.per_tx_dispatch * f.txs.len() as u64 / threads as u64;
            occ.push(o.gas_used as f64 / occ_makespan as f64);
        }
        let bp_mean = mean(&bp);
        let occ_mean = mean(&occ);
        modeled!(
            "{threads:>8} {bp_mean:>11.2}x {occ_mean:>11.2}x {paper_speedup:>13.2}x {:>14.2}",
            bp_mean / paper_speedup
        );
    }
}
