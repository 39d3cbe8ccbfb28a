//! Ablation: account-level vs slot-level conflict detection in the
//! validator scheduler (DESIGN.md §5, decision 2).
//!
//! The paper detects conflicts at account granularity. Slot granularity
//! produces smaller subgraphs (more parallelism) at a higher analysis cost;
//! this ablation reports both sides of the trade.
//!
//! Usage: `cargo run -p bp-bench --release --bin ablation_conflict_granularity`

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_validator, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(60);
    modeled!("=== Ablation: conflict-detection granularity (validator, 16 threads) ===");
    modeled!("workload: {blocks} mainnet-like blocks\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let model = CostModel::default();

    modeled!(
        "{:>10} {:>14} {:>18} {:>16}",
        "mode",
        "mean speedup",
        "largest subgraph",
        "subgraphs/blk"
    );
    for granularity in [ConflictGranularity::Account, ConflictGranularity::Slot] {
        let scheduler = Scheduler::new(granularity);
        let mut speedups = Vec::new();
        let mut ratios = Vec::new();
        let mut counts = Vec::new();
        for f in &fixtures {
            let schedule = scheduler.schedule(&f.profile, 16);
            let r = simulate_validator(&schedule, &f.profile, &model);
            speedups.push(r.speedup);
            ratios.push(r.largest_subgraph_ratio);
            counts.push(schedule.subgraphs.len() as f64);
        }
        modeled!(
            "{:>10} {:>13.2}x {:>17.1}% {:>16.1}",
            format!("{granularity:?}"),
            mean(&speedups),
            100.0 * mean(&ratios),
            mean(&counts)
        );
    }
    modeled!("\nSlot granularity yields finer subgraphs and higher idealized speedup;");
    modeled!("account granularity is what the paper ships (cheap, and safe even when");
    modeled!("storage writes move the account's storage root).");
}
