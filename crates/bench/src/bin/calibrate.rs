//! Workload calibration probe (not a paper figure): prints the dependency
//! statistics the generator is tuned against — mean transactions per block,
//! largest-subgraph ratio by transaction count and by gas — so workload
//! parameter changes can be checked against the paper's §5.5 numbers
//! (mean largest subgraph ≈ 27.5% of transactions).

use blockpilot_core::scheduler::{ConflictGranularity, Scheduler};
use bp_bench::{block_count, generate_fixtures, mean, modeled, percentile};
use bp_workload::WorkloadConfig;

fn main() {
    let blocks = block_count(60);
    let fixtures = generate_fixtures(WorkloadConfig::default(), blocks);
    let scheduler = Scheduler::new(ConflictGranularity::Account);

    let mut tx_counts = Vec::new();
    let mut ratios = Vec::new();
    let mut gas_ratios = Vec::new();
    let mut subgraph_counts = Vec::new();
    for f in &fixtures {
        let s = scheduler.schedule(&f.profile, 16);
        tx_counts.push(f.txs.len() as f64);
        ratios.push(s.largest_subgraph_ratio());
        let max_gas = s.subgraphs.iter().map(|sg| sg.gas).max().unwrap_or(0);
        gas_ratios.push(max_gas as f64 / f.gas_used.max(1) as f64);
        subgraph_counts.push(s.subgraphs.len() as f64);
    }
    modeled!("blocks                    : {blocks}");
    modeled!(
        "mean txs/block            : {:.1} (paper: 132)",
        mean(&tx_counts)
    );
    modeled!(
        "largest subgraph (txs)    : mean {:.1}%  p50 {:.1}%  p90 {:.1}%  (paper mean: 27.5%)",
        100.0 * mean(&ratios),
        100.0 * percentile(&ratios, 50.0),
        100.0 * percentile(&ratios, 90.0)
    );
    modeled!(
        "largest subgraph (gas)    : mean {:.1}%  p50 {:.1}%",
        100.0 * mean(&gas_ratios),
        100.0 * percentile(&gas_ratios, 50.0)
    );
    modeled!("mean subgraphs/block      : {:.1}", mean(&subgraph_counts));
}
