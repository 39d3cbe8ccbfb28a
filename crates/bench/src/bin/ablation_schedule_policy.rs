//! Ablation: lane-assignment policy in the validator scheduler
//! (DESIGN.md §5, decision 3).
//!
//! The paper assigns subgraphs by gas-weighted longest-processing-time
//! ("the transaction's gas can serve as a reasonable estimation of
//! execution time"). This ablation compares gas-LPT against count-LPT and
//! round-robin.
//!
//! Usage: `cargo run -p bp-bench --release --bin ablation_schedule_policy`

use blockpilot_core::scheduler::{AssignPolicy, ConflictGranularity, Scheduler};
use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_validator, CostModel};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(60);
    modeled!("=== Ablation: lane-assignment policy (validator, 16 threads) ===");
    modeled!("workload: {blocks} mainnet-like blocks\n");

    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let model = CostModel::default();

    modeled!(
        "{:>12} {:>14} {:>20}",
        "policy",
        "mean speedup",
        "mean makespan (gas)"
    );
    for policy in [
        AssignPolicy::GasLpt,
        AssignPolicy::CountLpt,
        AssignPolicy::RoundRobin,
    ] {
        let scheduler = Scheduler::with_policy(ConflictGranularity::Account, policy);
        let mut speedups = Vec::new();
        let mut makespans = Vec::new();
        for f in &fixtures {
            let schedule = scheduler.schedule(&f.profile, 16);
            let r = simulate_validator(&schedule, &f.profile, &model);
            speedups.push(r.speedup);
            makespans.push(r.makespan as f64);
        }
        modeled!(
            "{:>12} {:>13.2}x {:>20.0}",
            format!("{policy:?}"),
            mean(&speedups),
            mean(&makespans)
        );
    }
    modeled!("\nGas-LPT balances lane *time*, not lane length; round-robin leaves the");
    modeled!("heaviest lane overloaded and drags the block's critical path out.");
}
