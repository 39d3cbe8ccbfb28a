//! `blockpilot` — a small CLI over the library: run the node service, or
//! inspect the workload's conflict statistics.
//!
//! ```text
//! blockpilot node  [--blocks N] [--validators N]
//!                  [--store DIR] [--group-commit [N]]
//! blockpilot stats [--blocks N]
//! ```
//!
//! `node` prints a JSON summary on shutdown with the run counters and every
//! stage's occupancy/stall/queue-depth stats. Run again on the same
//! `--store DIR`, it resumes the stored chain `--blocks` heights further.

use blockpilot::core::{ConflictGranularity, Scheduler};
use blockpilot::workload::{WorkloadConfig, WorkloadGen};

/// The whole number after flag `name`, or `default` when the flag is absent
/// or followed by nothing or by another flag. A value that is not a whole
/// number exits 2 with a message.
fn arg(args: &[String], name: &str, default: u64) -> u64 {
    parse_arg(args, name, default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

fn parse_arg(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let value = args
        .iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"));
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} takes a whole number, not `{v}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("node") => node(&args),
        Some("stats") => stats(&args),
        _ => {
            eprintln!("usage: blockpilot <node|stats> [options]");
            eprintln!("  node  [--blocks N] [--validators N]");
            eprintln!("        [--store DIR] [--group-commit [N]]");
            eprintln!("  stats [--blocks N]");
            std::process::exit(2);
        }
    }
}

/// The streaming node service: proposer, codec and validators on bounded
/// channels, with the serial-replay equivalence gate.
fn node(args: &[String]) {
    use blockpilot::node::{run_node, NodeConfig};
    use blockpilot::store::GroupCommitConfig;
    // Without the flag a group of one; with it and no count, eight blocks.
    let grouped = args.iter().any(|a| a == "--group-commit");
    let group_commit = GroupCommitConfig {
        max_blocks: arg(args, "--group-commit", if grouped { 8 } else { 1 }) as usize,
        ..GroupCommitConfig::default()
    };
    let store_dir = args
        .iter()
        .position(|a| a == "--store")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if grouped && store_dir.is_none() {
        eprintln!("--group-commit requires --store DIR (nothing to fsync otherwise)");
        std::process::exit(2);
    }
    let report = run_node(NodeConfig {
        blocks: arg(args, "--blocks", 20),
        validators: arg(args, "--validators", 2) as usize,
        store_dir,
        group_commit,
        workload: WorkloadConfig {
            accounts: 300,
            txs_per_block: 48,
            tx_jitter: 8,
            ..WorkloadConfig::default()
        },
        ..NodeConfig::default()
    });
    println!(
        "heights {}..={} ({} blocks), {} txs in {:.2}s ({:.0} tx/s sustained)",
        report.first_height,
        report.heads[0].1,
        report.committed_blocks,
        report.committed_txs,
        report.wall_micros as f64 / 1e6,
        report.committed_tx_per_sec
    );
    println!(
        "proposer occupancy {:.0}%, stall {:.0}%; codec occupancy {:.0}%",
        report.proposer.occupancy(report.wall_micros) * 100.0,
        report.proposer.stall_share(report.wall_micros) * 100.0,
        report.codec.occupancy(report.wall_micros) * 100.0
    );
    for (i, v) in report.validators.iter().enumerate() {
        println!(
            "validator {i}: {} blocks, occupancy {:.0}%",
            v.items,
            v.occupancy(report.wall_micros) * 100.0
        );
    }
    let eq = report.equivalence.as_ref().expect("gate runs by default");
    println!(
        "equivalence over {} blocks: {} (root {:?})",
        eq.blocks,
        if eq.ok { "ok" } else { "MISMATCH" },
        eq.node_root
    );
    println!("{}", node_summary_json(&report));
    assert!(report.healthy(), "unhealthy node run");
}

/// Machine-readable shutdown summary: one JSON object with the run counters
/// and every stage's [`StageStats`], so CI and scripts can gate on the same
/// numbers the human-readable lines show.
fn node_summary_json(report: &blockpilot::node::NodeReport) -> String {
    fn stage(name: &str, s: &blockpilot::node::StageStats, wall: u64) -> String {
        format!(
            "    {{\"stage\": \"{name}\", \"items\": {}, \"busy_micros\": {}, \
             \"wait_micros\": {}, \"stall_micros\": {}, \"injected_micros\": {}, \
             \"max_queue_depth\": {}, \"occupancy\": {:.4}, \"stall_share\": {:.4}}}",
            s.items,
            s.busy_micros,
            s.wait_micros,
            s.stall_micros,
            s.injected_micros,
            s.max_queue_depth,
            s.occupancy(wall),
            s.stall_share(wall),
        )
    }
    let wall = report.wall_micros;
    let mut stages = vec![
        stage("ingest", &report.ingest, wall),
        stage("proposer", &report.proposer, wall),
        stage("codec", &report.codec, wall),
    ];
    for (i, v) in report.validators.iter().enumerate() {
        stages.push(stage(&format!("validator-{i}"), v, wall));
    }
    let equivalence = match &report.equivalence {
        Some(eq) => format!(
            "{{\"blocks\": {}, \"ok\": {}, \"serial_root\": \"{:?}\", \"node_root\": \"{:?}\"}}",
            eq.blocks, eq.ok, eq.serial_root, eq.node_root
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"first_height\": {},\n  \
         \"committed_blocks\": {}, \"committed_txs\": {}, \"wall_micros\": {},\n  \
         \"committed_tx_per_sec\": {:.1}, \"proposer_aborts\": {}, \
         \"validation_failures\": {},\n  \"final_root\": \"{:?}\", \"healthy\": {},\n  \
         \"equivalence\": {},\n  \"stages\": [\n{}\n  ]\n}}",
        report.first_height,
        report.committed_blocks,
        report.committed_txs,
        wall,
        report.committed_tx_per_sec,
        report.proposer_aborts,
        report.validation_failures,
        report.final_root,
        report.healthy(),
        equivalence,
        stages.join(",\n"),
    )
}

/// Workload conflict statistics (the Figure 8 x-axis): what the generator
/// is tuned against, the paper's §5.5 numbers (132 transactions a block, a
/// mean largest subgraph of 27.5 % of them).
fn stats(args: &[String]) {
    let blocks = arg(args, "--blocks", 20) as usize;
    let mut gen = WorkloadGen::new(WorkloadConfig::default());
    let genesis = gen.genesis_state();
    let scheduler = Scheduler::new(ConflictGranularity::Account);
    let mut state = genesis;
    let (mut tx_counts, mut ratios, mut gas_ratios, mut subgraph_counts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for height in 1..=blocks as u64 {
        let env = gen.block_env(height);
        let txs = gen.next_block_txs();
        let out = blockpilot::baseline::execute_block_serially(&state, &env, &txs)
            .expect("workload blocks replay");
        let schedule = scheduler.schedule(&out.profile, 16);
        let largest_gas = schedule
            .subgraphs
            .iter()
            .map(|sg| sg.gas)
            .max()
            .unwrap_or(0);
        let gas_ratio = largest_gas as f64 / out.gas_used.max(1) as f64;
        println!(
            "block {height:>3}: {:>3} txs, {:>2} subgraphs, largest {:>4.1}% of txs, {:>4.1}% of gas",
            txs.len(),
            schedule.subgraphs.len(),
            100.0 * schedule.largest_subgraph_ratio(),
            100.0 * gas_ratio,
        );
        tx_counts.push(txs.len() as f64);
        ratios.push(schedule.largest_subgraph_ratio());
        gas_ratios.push(gas_ratio);
        subgraph_counts.push(schedule.subgraphs.len() as f64);
        state = out.post_state;
    }
    println!("\nblocks                 : {blocks}");
    println!(
        "mean txs/block         : {:.1} (paper: 132)",
        mean(&tx_counts)
    );
    println!(
        "largest subgraph (txs) : mean {:.1}%  p50 {:.1}%  p90 {:.1}%  (paper mean: 27.5%)",
        100.0 * mean(&ratios),
        100.0 * percentile(&ratios, 50.0),
        100.0 * percentile(&ratios, 90.0)
    );
    println!(
        "largest subgraph (gas) : mean {:.1}%  p50 {:.1}%",
        100.0 * mean(&gas_ratios),
        100.0 * percentile(&gas_ratios, 50.0)
    );
    println!("mean subgraphs/block   : {:.1}", mean(&subgraph_counts));
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank percentile (0–100).
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_malformed_flag_value_is_an_error_not_the_default() {
        let a = args("node --blocks 1e5 --validators 3 --group-commit --store d");
        assert_eq!(
            parse_arg(&a, "--blocks", 20),
            Err("--blocks takes a whole number, not `1e5`".to_string())
        );
        assert_eq!(parse_arg(&a, "--validators", 2), Ok(3));
        // Absent, or followed by another flag: the default.
        assert_eq!(parse_arg(&a, "--group-commit", 8), Ok(8));
        assert_eq!(parse_arg(&a, "--seed", 1), Ok(1));
        assert_eq!(parse_arg(&args("stats --blocks"), "--blocks", 20), Ok(20));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
