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
//! * `BP_SR_THREADS` — comma-separated worker counts for the parallel
//!   commit sweep (default `1,2,4,8,16`; `0` skips the sweep);
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

/// One cell of the parallel-commit sweep: the same 1%-dirty incremental
/// recommit with the commit thread cap pinned to `threads`, measured on
/// *this* host. Measured only: a commit hands its shards — storage tries and
/// account bodies included — to whichever thread is free, which calibrated
/// trie-only subtree costs packed over lanes would not describe.
struct ThreadRow {
    accounts: u64,
    dirty_accounts: usize,
    threads: usize,
    incremental_ms: f64,
    final_root: H256,
}

/// Sweeps `set_commit_threads` over `threads_list` on identical worlds and
/// identical dirty sequences, so every cell commits the exact same state.
/// Returns one row per worker count; the caller asserts the roots agree.
fn measure_thread_sweep(
    accounts: u64,
    fraction: f64,
    threads_list: &[usize],
    reps: usize,
) -> Vec<ThreadRow> {
    let dirty = ((accounts as f64 * fraction) as usize).max(1);
    let base = build_world(accounts, 2);
    let _ = base.state_root(); // prime the memo once; clones share it
    threads_list
        .iter()
        .map(|&threads| {
            let mut world = base.clone();
            world.set_commit_threads(threads.max(1));
            let mut salt = 0u64;
            let incremental_ms = time_ms(reps, || {
                salt += 1;
                dirty_accounts(&mut world, accounts, dirty, salt);
                std::hint::black_box(world.state_root());
            });
            ThreadRow {
                accounts,
                dirty_accounts: dirty,
                threads,
                incremental_ms,
                final_root: world.state_root(),
            }
        })
        .collect()
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

    let threads_list: Vec<usize> = env_list("BP_SR_THREADS", &[1usize, 2, 4, 8, 16])
        .into_iter()
        .filter(|&t| t > 0)
        .collect();

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

    // Parallel-commit sweep: 1%-dirty recommit across worker counts, only
    // for worlds big enough for subtree hashing to matter.
    let mut thread_rows: Vec<ThreadRow> = Vec::new();
    if !threads_list.is_empty() {
        for &accounts in account_counts.iter().filter(|&&a| a >= 10_000) {
            let sweep =
                measure_thread_sweep(accounts, 0.01, &threads_list, reps_for(accounts, budget));
            // Equality gate: every worker count commits the same root.
            for pair in sweep.windows(2) {
                assert_eq!(
                    pair[0].final_root, pair[1].final_root,
                    "parallel commit diverged at {accounts} accounts: t{} vs t{}",
                    pair[0].threads, pair[1].threads
                );
            }
            thread_rows.extend(sweep);
        }
    }

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

    // Per-account-size t=1 baselines give each sweep cell its speedup.
    let t1_ms = |accounts: u64| {
        thread_rows
            .iter()
            .find(|r| r.accounts == accounts && r.threads == 1)
            .map(|r| r.incremental_ms)
    };
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep_lines = String::new();
    if !thread_rows.is_empty() {
        println!("\nparallel commit sweep ({host_threads} real thread(s) on this host):");
        println!(
            "{:>9} {:>7} {:>8} {:>14} {:>9}",
            "accounts", "dirty", "threads", "increm(ms)", "vs t1"
        );
        for (i, r) in thread_rows.iter().enumerate() {
            let speedup = t1_ms(r.accounts).map(|t1| t1 / r.incremental_ms);
            println!(
                "{:>9} {:>7} {:>8} {:>14.4} {:>8}",
                r.accounts,
                r.dirty_accounts,
                r.threads,
                r.incremental_ms,
                speedup
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".to_string()),
            );
            sweep_lines.push_str(&format!(
                "    {{\"accounts\": {}, \"dirty_accounts\": {}, \"threads\": {}, \
                 \"host_threads\": {}, \"incremental_ms\": {:.4}, \"speedup_vs_t1\": {}, \
                 \"root\": \"{:?}\"}}{}\n",
                r.accounts,
                r.dirty_accounts,
                r.threads,
                host_threads,
                r.incremental_ms,
                speedup
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "null".to_string()),
                r.final_root,
                if i + 1 == thread_rows.len() { "" } else { "," }
            ));
        }
    }
    // `thread_sweep` sits before `rows` so the append-mode splice (which
    // targets the file's last array close) keeps landing inside `rows`.
    let fresh = format!(
        "{{\n  \"bench\": \"state_root\",\n  \"unit\": \"ms\",\n  \
         \"thread_sweep\": [\n{sweep_lines}  ],\n  \"rows\": [\n{row_lines}  ]\n}}\n"
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
    // Acceptance for the parallel commit: 8 threads must clear 1.5x over
    // serial on the 1M-account / 1%-dirty recommit — on a host that has the
    // cores to show it, and when the sweep ran at that size (CI smokes run
    // reduced grids).
    let t8_ms = thread_rows
        .iter()
        .find(|r| r.accounts == 1_000_000 && r.threads == 8)
        .map(|r| r.incremental_ms);
    if let (Some(t1), Some(t8), true) = (t1_ms(1_000_000), t8_ms, host_threads >= 8) {
        assert!(
            t1 / t8 >= 1.5,
            "acceptance: parallel commit at 8 threads must be >= 1.5x over serial \
             on 1M accounts / 1% dirty, got {:.2}x ({t1:.2}ms -> {t8:.2}ms)",
            t1 / t8
        );
    }
}
