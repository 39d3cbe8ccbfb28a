//! Records the `BENCH_state_root.json` baseline: cold (from-scratch) vs
//! incremental (dirty-tracked) state-root computation, for both fully
//! resident worlds and worlds whose reads resolve through a `bp-snap`
//! layered flat base on disk. Plain wall-clock timing so the baseline can
//! be (re)captured anywhere.
//!
//! Usage: `cargo run -p bp-bench --release --bin state_root_baseline [out.json]`
//!
//! Environment knobs (CI smoke and deep sweeps share this binary):
//!
//! * `BP_SR_ACCOUNTS` — comma-separated account counts (default
//!   `1000,10000,100000,1000000`);
//! * `BP_SR_FRACTIONS` — comma-separated dirty fractions (default
//!   `0.001,0.01,0.1`);
//! * `BP_SR_BLOCKS` — override the per-scenario measurement repetitions
//!   ("block budget"; default auto-scales with size);
//! * `BP_SR_10M` — `1` appends a 10M-account sweep (slow; opt-in);
//! * `BP_SR_LAYERED` — `0` skips the snap-backed layered scenarios;
//! * `BP_SR_APPEND` — `1` appends rows to an existing out file instead of
//!   overwriting it.

use std::sync::Arc;
use std::time::Instant;

use bp_snap::SnapTree;
use bp_state::WorldState;
use bp_types::{Address, H256, U256};

struct Row {
    scenario: String,
    accounts: u64,
    dirty_accounts: usize,
    cold_ms: f64,
    incremental_ms: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.incremental_ms
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v == "true")
        .unwrap_or(false)
}

fn env_list<T: std::str::FromStr + Copy>(name: &str, default: &[T]) -> Vec<T> {
    match std::env::var(name) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

fn build_world(accounts: u64, slots_per_account: u64) -> WorldState {
    let mut world = WorldState::new();
    for i in 0..accounts {
        let addr = Address::from_index(i);
        world.set_balance(addr, U256::from(1_000_000 + i));
        world.set_nonce(addr, i % 7);
        for s in 0..slots_per_account {
            world.set_storage(addr, H256::from_low_u64(s), U256::from(i * 10 + s + 1));
        }
    }
    world
}

fn dirty_accounts(world: &mut WorldState, total: u64, count: usize, salt: u64) {
    for i in 0..count {
        let addr = Address::from_index((i as u64 * 97 + salt) % total);
        world.set_balance(addr, U256::from(salt * 1000 + i as u64 + 1));
        world.set_storage(addr, H256::from_low_u64(1), U256::from(salt + i as u64 + 1));
    }
}

/// Average milliseconds of `reps` runs of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

/// Measures `world` in place: one cold rebuild (priced separately so huge
/// layered worlds do not pay it `reps` times) and `reps` incremental
/// dirty-then-recommit rounds.
fn measure_world(
    world: &mut WorldState,
    scenario: &str,
    accounts: u64,
    dirty: usize,
    reps: usize,
) -> Row {
    let _ = world.state_root(); // prime the incremental memo
    let cold_reps = if accounts >= 1_000_000 {
        1
    } else {
        reps.min(3)
    };
    let cold_ms = time_ms(cold_reps, || {
        std::hint::black_box(world.rebuild_root());
    });
    let mut salt = 0u64;
    let incremental_ms = time_ms(reps, || {
        salt += 1;
        dirty_accounts(world, accounts, dirty, salt);
        std::hint::black_box(world.state_root());
    });
    Row {
        scenario: scenario.to_string(),
        accounts,
        dirty_accounts: dirty,
        cold_ms,
        incremental_ms,
    }
}

fn measure(scenario: &str, accounts: u64, dirty: usize, reps: usize) -> Row {
    let mut world = build_world(accounts, 2);
    measure_world(&mut world, scenario, accounts, dirty, reps)
}

/// The same sweep, but with the world rebased onto a disk-backed snapshot
/// base: resident account bodies are shed, every miss resolves through the
/// flat file, and the incremental recommit pays real layer/disk probes.
fn measure_layered(accounts: u64, fraction: f64, dirty: usize, reps: usize) -> Row {
    let mut world = build_world(accounts, 2);
    let root = world.state_root();
    let dir = std::env::temp_dir().join(format!("bp-sr-layered-{accounts}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = SnapTree::open(&dir).expect("open snapshot dir");
    tree.seed(&world.full_delta(), root, 0)
        .expect("seed flat base");
    world.rebase(Arc::new(tree.reader(root).expect("reader at seeded root")));
    let row = measure_world(
        &mut world,
        &format!("layered_f{fraction}"),
        accounts,
        dirty,
        reps,
    );
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// One 132-transaction block of transfers over a 10k-account world: each
/// transfer dirties the sender's balance+nonce and the recipient's balance.
fn measure_block_scenario(reps: usize) -> Row {
    let accounts = 10_000u64;
    let mut world = build_world(accounts, 2);
    let _ = world.state_root();
    let cold_ms = time_ms(reps, || {
        std::hint::black_box(world.rebuild_root());
    });
    let mut salt = 0u64;
    let incremental_ms = time_ms(reps, || {
        salt += 1;
        for t in 0..132u64 {
            let sender = Address::from_index((t * 37 + salt) % accounts);
            let recipient = Address::from_index((t * 61 + salt * 13) % accounts);
            world.set_balance(sender, U256::from(salt * 7 + t));
            world.set_nonce(sender, salt + t);
            world.set_balance(recipient, U256::from(salt * 11 + t));
        }
        std::hint::black_box(world.state_root());
    });
    Row {
        scenario: "block_132tx".to_string(),
        accounts,
        dirty_accounts: 264,
        cold_ms,
        incremental_ms,
    }
}

/// Default measurement repetitions for a world size, unless `BP_SR_BLOCKS`
/// pins the budget.
fn reps_for(accounts: u64, budget: Option<u64>) -> usize {
    if let Some(b) = budget {
        return b.max(1) as usize;
    }
    match accounts {
        0..=1_000 => 50,
        1_001..=10_000 => 20,
        10_001..=100_000 => 3,
        _ => 1,
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "run with --release: debug builds cross-check every incremental root \
             against a from-scratch rebuild, which is exactly what this measures"
        );
        std::process::exit(2);
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_state_root.json".to_string());

    let mut account_counts = env_list("BP_SR_ACCOUNTS", &[1_000u64, 10_000, 100_000, 1_000_000]);
    if env_flag("BP_SR_10M") {
        account_counts.push(10_000_000);
    }
    let fractions = env_list("BP_SR_FRACTIONS", &[0.001f64, 0.01, 0.1]);
    let budget = env_u64("BP_SR_BLOCKS");
    let layered = !std::env::var("BP_SR_LAYERED")
        .map(|v| v == "0")
        .unwrap_or(false);

    let mut rows = Vec::new();
    for &accounts in &account_counts {
        let reps = reps_for(accounts, budget);
        for &fraction in &fractions {
            let dirty = ((accounts as f64 * fraction) as usize).max(1);
            rows.push(measure(
                &format!("dirty_f{fraction}"),
                accounts,
                dirty,
                reps,
            ));
            if layered {
                rows.push(measure_layered(accounts, fraction, dirty, reps));
            }
        }
    }
    rows.push(measure_block_scenario(reps_for(10_000, budget)));

    println!(
        "{:>14} {:>9} {:>7} {:>12} {:>14} {:>9}",
        "scenario", "accounts", "dirty", "cold(ms)", "increm(ms)", "speedup"
    );
    let mut row_lines = String::new();
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:>14} {:>9} {:>7} {:>12.3} {:>14.4} {:>8.1}x",
            r.scenario,
            r.accounts,
            r.dirty_accounts,
            r.cold_ms,
            r.incremental_ms,
            r.speedup()
        );
        row_lines.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"accounts\": {}, \"dirty_accounts\": {}, \
             \"cold_ms\": {:.4}, \"incremental_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
            r.scenario,
            r.accounts,
            r.dirty_accounts,
            r.cold_ms,
            r.incremental_ms,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }

    let fresh = format!(
        "{{\n  \"bench\": \"state_root\",\n  \"unit\": \"ms\",\n  \"rows\": [\n{row_lines}  ]\n}}\n"
    );
    let json = if env_flag("BP_SR_APPEND") {
        match std::fs::read_to_string(&out_path) {
            Ok(existing) if existing.contains("\"rows\": [") => {
                // Splice the new rows in front of the closing "  ]".
                let cut = existing.rfind("  ]").expect("rows array close");
                let mut head = existing[..cut].trim_end().to_string();
                if !head.ends_with('[') {
                    head.push(',');
                }
                head.push('\n');
                format!("{head}{row_lines}  ]\n}}\n")
            }
            _ => fresh,
        }
    } else {
        fresh
    };
    std::fs::write(&out_path, json).expect("write baseline json");
    println!("\nwrote {out_path}");

    let block = rows.last().expect("block scenario present");
    assert!(
        block.speedup() >= 5.0,
        "acceptance: 132-tx block over 10k accounts must be >= 5x vs cold, got {:.1}x",
        block.speedup()
    );
}
