//! Ablation: write-snapshot isolation vs classic backward OCC validation.
//!
//! OCC-WSI aborts only on read-set staleness; classic OCC also aborts on
//! write-write overlap. This ablation quantifies how much of the proposer's
//! speedup comes from tolerating blind write-write conflicts (DESIGN.md §5,
//! decision 1).
//!
//! Usage: `cargo run -p bp-bench --release --bin ablation_wsi_vs_occ`

use bp_bench::{block_count, generate_fixtures, mean, modeled};
use bp_sim::{simulate_proposer_with_rule, CostModel, ValidationRule};
use bp_workload::{TxMix, WorkloadConfig};

fn main() {
    let blocks = block_count(40);
    modeled!("=== Ablation: WSI vs classic OCC commit validation (proposer) ===");
    modeled!("workload: {blocks} mainnet-like blocks\n");

    // Include blind registry writes: the transaction class where WSI's
    // write-write tolerance actually differs from classic OCC (ordinary EVM
    // balance/storage updates read before writing).
    let fixtures = generate_fixtures(
        WorkloadConfig {
            mix: TxMix {
                transfer: 0.50,
                token: 0.28,
                amm: 0.04,
                blind: 0.18,
                mint: 0.0,
            },
            ..WorkloadConfig::default()
        },
        blocks,
    );
    let model = CostModel::default();

    modeled!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "threads",
        "WSI speedup",
        "OCC speedup",
        "WSI aborts",
        "OCC aborts"
    );
    for threads in [2usize, 4, 8, 16] {
        let mut results = Vec::new();
        for rule in [ValidationRule::Wsi, ValidationRule::ClassicOcc] {
            let mut speedups = Vec::new();
            let mut aborts = 0u64;
            for f in &fixtures {
                let r = simulate_proposer_with_rule(
                    &f.pre_state,
                    &f.env,
                    &f.txs,
                    threads,
                    &model,
                    rule,
                );
                speedups.push(r.speedup);
                aborts += r.aborts;
            }
            results.push((mean(&speedups), aborts as f64 / fixtures.len() as f64));
        }
        modeled!(
            "{threads:>8} {:>13.2}x {:>13.2}x {:>14.1} {:>14.1}",
            results[0].0,
            results[1].0,
            results[0].1,
            results[1].1
        );
    }
    modeled!("\nREPRODUCTION FINDING: the two columns are identical. In an");
    modeled!("account-model EVM with Ethereum gas rules there are no blind writes —");
    modeled!("every balance update is read-modify-write and even a 'blind' SSTORE");
    modeled!("reads the old value for its set-vs-reset gas price, putting the slot");
    modeled!("in the read set. OCC-WSI's write-write tolerance therefore never");
    modeled!("fires, and WSI validation degenerates to classic backward (read-set)");
    modeled!("OCC validation. The registry workload above was built specifically");
    modeled!("to maximize write-write-only conflicts and still shows no gap.");
}
