//! The first commit of a large world: how long building a
//! `wide_transfers`-shaped genesis takes, and its first state root, on the
//! process crew and on one thread.
//!
//! Usage: `cargo run --release --example first_commit -- [accounts] [rounds]`
//! (defaults: 100 000 accounts, 5 rounds).
//!
//! The world is `accounts` funded EOAs plus one token holding a balance slot
//! for each of them, as the benchmark's `wide_transfers` workload starts
//! from. Each round builds the world twice and asks for its root once on the
//! process crew and once on a crew without helpers, and prints the times,
//! the process's CPU time over wall time for the root (2.0 is two cores
//! busy) and the minor page faults it took, read from `/proc/self/stat`
//! (zeros where that file does not exist). Every root is checked against
//! the from-scratch rebuild.

use std::time::Instant;

use blockpilot::concurrent::Crew;
use blockpilot::workload::{TxMix, WorkloadConfig, WorkloadGen};

/// CPU time (user + system, in seconds) and minor faults of this process so
/// far.
fn usage() -> (f64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the command name, which ends at the last `)`:
    // state is the first, minor faults the eighth, utime and stime the
    // twelfth and thirteenth, in ticks of 1/100 s.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ((field(11) + field(12)) as f64 / 100.0, field(7))
}

/// What one timed call cost.
struct Cost {
    wall_ms: f64,
    cpu_per_wall: f64,
    faults: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (cpu, faults) = usage();
    let started = Instant::now();
    let out = f();
    let wall = started.elapsed().as_secs_f64();
    let (cpu_after, faults_after) = usage();
    let cost = Cost {
        wall_ms: wall * 1e3,
        cpu_per_wall: (cpu_after - cpu) / wall,
        faults: faults_after - faults,
    };
    (out, cost)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut arg = |default: usize| {
        args.next()
            .map_or(default, |a| a.parse().expect("a whole number"))
    };
    let accounts = arg(100_000);
    let rounds = arg(5).max(1);
    let gen = WorkloadGen::new(WorkloadConfig {
        accounts,
        tokens: 1,
        mix: TxMix {
            transfer: 1.0,
            token: 0.0,
            amm: 0.0,
            blind: 0.0,
            mint: 0.0,
        },
        zipf_accounts: 0.0,
        ..WorkloadConfig::default()
    });
    let one_thread = Crew::new(0);
    let crews: [(&str, Option<&Crew>); 2] = [("crew", None), ("one thread", Some(&one_thread))];
    println!(
        "{accounts} accounts + 1 token of {accounts} slots, {} crew helpers",
        Crew::global().helpers()
    );
    let mut medians = vec![Vec::new(); 3];
    for round in 0..rounds {
        for (i, (name, crew)) in crews.iter().enumerate() {
            let (world, genesis) = timed(|| gen.genesis_state());
            let (root, cost) = timed(|| match crew {
                Some(crew) => crew.install(|| world.state_root()),
                None => world.state_root(),
            });
            assert_eq!(root, world.rebuild_root(), "{name} root");
            println!(
                "round {round} {name:>10}: genesis {:7.1} ms, root {:7.1} ms, \
                 cpu/wall {:4.2}, {} minor faults",
                genesis.wall_ms, cost.wall_ms, cost.cpu_per_wall, cost.faults
            );
            medians[i].push(cost.wall_ms);
            medians[2].push(genesis.wall_ms);
        }
    }
    let [crew, one, genesis] = [0, 1, 2].map(|i| median(std::mem::take(&mut medians[i])));
    println!(
        "median: genesis {genesis:.1} ms, root {crew:.1} ms on the crew, {one:.1} ms on one thread"
    );
}
