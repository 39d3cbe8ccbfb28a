//! The BlockPilot benchmark. See README.md for every metric's definition,
//! why each workload exists, and what is not measured.
//!
//! ```text
//! bp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! bp-benchmark --all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! bp-benchmark compare A.json B.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bp_benchmark::compare;
use bp_benchmark::json::{self, obj, Json};
use bp_benchmark::phases::{self, WorkDir};
use bp_benchmark::report;
use bp_benchmark::workloads::{self, Workload, WORKLOADS};

/// `--seconds` when `--all` is not told otherwise: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Untraced runs per workload of `--all`, on consecutive seeds.
const DEFAULT_RUNS: u64 = 5;
/// A phase never runs fewer blocks than this, however small `--seconds`.
const MIN_BLOCKS: f64 = 8.0;

fn blocks_for(per_second: f64, seconds: f64) -> usize {
    (per_second * seconds).round().max(MIN_BLOCKS) as usize
}

/// Length of the stretch of pass A's chain a traced run replays on a store.
fn store_blocks(wl: &Workload, seconds: f64) -> usize {
    blocks_for(wl.store_blocks_per_s, seconds).min(blocks_for(wl.path_blocks_per_s, seconds))
}

/// One run of one workload: `node`, `path` pass A, then three replays
/// (untraced: the end-to-end metrics) or the traced pass B with its probes
/// and the replay on an on-disk store (traced: the per-layer metrics). Prints
/// the metrics and the result line; returns whether every check passed.
fn run(
    wl: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<bool, String> {
    let node_blocks = blocks_for(wl.node_blocks_per_s, seconds);
    let path_blocks = blocks_for(wl.path_blocks_per_s, seconds);
    println!(
        "# {}: seed {seed}, node {node_blocks} blocks, path {path_blocks} blocks ({} warm-up), {}",
        wl.name,
        phases::warmup_of(path_blocks),
        if traced { "traced" } else { "untraced" },
    );

    phases::warm_memory((wl.resident_mb_per_s * seconds) as usize);
    let node = phases::node_phase(wl, seed, node_blocks as u64);
    let pass_a = phases::path_phase(wl, seed, path_blocks, false)?;
    let mut ops = node.ops;
    ops += pass_a.ops;

    let metrics = if traced {
        let pass_b = phases::path_phase(wl, seed, path_blocks, true)?;
        ops += pass_b.ops;
        print!("{}", report::ledger_table(&pass_b));
        if let (Some(file), Some(trace)) = (trace_out, &pass_b.trace) {
            std::fs::write(file, report::spans_as_json_lines(trace))
                .map_err(|e| format!("{}: {e}", file.display()))?;
        }
        // The same stretch of chain replayed in memory and on a store: the
        // gap between the two is the persistence cost.
        let stretch = &pass_a.wire[..store_blocks(wl, seconds)];
        let work = WorkDir::new().map_err(|e| format!("work directory: {e}"))?;
        let in_memory = phases::replay_phase(&pass_a.genesis, stretch, None)?;
        let on_store = phases::replay_phase(&pass_a.genesis, stretch, Some(&work.store()))?;
        ops += in_memory.ops;
        ops += on_store.ops;
        report::per_layer(&node, &pass_a, &pass_b, &in_memory, &on_store)
    } else {
        let mut replays = Vec::new();
        for _ in 0..phases::REPLAY_REPS {
            let replay = phases::replay_phase(&pass_a.genesis, &pass_a.wire, None)?;
            ops += replay.ops;
            replays.push(replay);
        }
        let mut setups = vec![pass_a.setup_s];
        setups.extend(phases::extra_setups(wl, seed, pass_a.setup_s));
        report::end_to_end(&node, &pass_a, &replays, &setups)
    };

    for m in &metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    // A metric that is not a finite number is a harness fault, not a result.
    let correct = ops.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    // The result line is the last line of standard output.
    println!("{}", report::result_line(correct, ops, &metrics).to_line());
    Ok(correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What two result files must share to be comparable at a glance.
fn header(seed: u64, seconds: f64, runs: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("nproc", Json::from(nproc)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("runs", Json::from(runs)),
        (
            "thread_shape",
            obj([
                ("proposer_threads", Json::from(phases::PROPOSER_THREADS)),
                ("pipeline_workers", Json::from(phases::PIPELINE_WORKERS)),
                ("validators", Json::from(phases::VALIDATORS)),
            ]),
        ),
        ("replay_window", Json::from(phases::REPLAY_WINDOW)),
        ("replay_reps", Json::from(phases::REPLAY_REPS)),
        ("warmup_blocks", Json::from(phases::WARMUP_BLOCKS)),
        (
            "blocks",
            obj(WORKLOADS.iter().map(|wl| {
                (
                    wl.name,
                    obj([
                        (
                            "node",
                            Json::from(blocks_for(wl.node_blocks_per_s, seconds)),
                        ),
                        (
                            "path",
                            Json::from(blocks_for(wl.path_blocks_per_s, seconds)),
                        ),
                        ("store_replay", Json::from(store_blocks(wl, seconds))),
                    ]),
                )
            })),
        ),
        // The resolved product settings of the node phase: engine, dispatch,
        // commit path, group commit and the rest, as the product prints them.
        (
            "node_config",
            Json::from(format!("{:?}", phases::node_config(&WORKLOADS[0], seed, 0))),
        ),
        (
            "external_crates",
            Json::from("local stand-ins under benchmark/stubs (no registry in the container)"),
        ),
    ])
}

/// One run in a process of its own, the way the driver runs them: a run
/// leaves the allocator's heaps in a state the next would inherit. Passes the
/// child's report through and returns its result line.
fn run_in_child(wl: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", wl.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} seed {seed}: no result line ({})", wl.name, out.status))?;
    json::parse(line)
}

/// `--all`: every workload, `runs` untraced runs on consecutive seeds and one
/// traced run; prints the result file and writes it to `out`.
fn run_all(seed: u64, seconds: f64, runs: u64, out: Option<&Path>) -> Result<bool, String> {
    let mut correct = true;
    let mut workloads = Vec::new();
    for wl in &WORKLOADS {
        let mut counts = [0.0; 2];
        let mut tally = |result: &Json| {
            correct &= result.get("correct") == Some(&Json::Bool(true));
            for (count, key) in counts.iter_mut().zip(["attempted", "failed"]) {
                *count += result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            }
        };
        let mut run_rows = Vec::new();
        for run_seed in seed..seed + runs {
            let result = run_in_child(wl, run_seed, seconds, false)?;
            tally(&result);
            let values = result.get("metrics").map_or(&[][..], Json::as_object);
            run_rows.push(obj([
                ("seed", Json::from(run_seed)),
                (
                    "metrics",
                    obj(values.iter().map(|(name, m)| {
                        (name.as_str(), m.get("value").cloned().unwrap_or(Json::Null))
                    })),
                ),
            ]));
        }
        let traced = run_in_child(wl, seed, seconds, true)?;
        tally(&traced);
        workloads.push(obj([
            ("name", Json::from(wl.name)),
            ("why", Json::from(wl.why)),
            ("attempted", Json::from(counts[0])),
            ("failed", Json::from(counts[1])),
            ("runs", Json::Arr(run_rows)),
            (
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Json::Null),
            ),
        ]));
    }
    let file = obj([
        ("header", header(seed, seconds, runs)),
        ("workloads", Json::Arr(workloads)),
        ("correct", Json::from(correct)),
        // This program measures; it claims no gain.
        ("claim", Json::Null),
    ]);
    let text = file.to_pretty();
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{text}");
    Ok(correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Default)]
struct Args {
    all: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<u64>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--runs" => parsed.runs = Some(value.parse().map_err(|_| bad())?),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: compare A.json B.json".into());
        };
        let (table, regressed) = compare::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{table}");
        return Ok(!regressed);
    }
    let args = parse_args(args)?;
    if args.all {
        return run_all(
            args.seed.unwrap_or(1),
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            args.runs.unwrap_or(DEFAULT_RUNS).max(1),
            args.out.as_deref(),
        );
    }
    let name = args
        .workload
        .ok_or("usage: --workload NAME --seed N --seconds S --trace 0|1, --all, or compare A B")?;
    let wl = workloads::find(&name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    run(
        wl,
        args.seed.unwrap_or(1),
        args.seconds.unwrap_or(DEFAULT_SECONDS),
        args.trace.unwrap_or(false),
        args.trace_out.as_deref(),
    )
}

/// Tells glibc's allocator to keep freed memory inside the process instead
/// of returning it to the kernel (no heap trimming, no per-allocation mmap
/// below 32 MiB, the largest threshold it accepts).
///
/// The product allocates and frees hundreds of megabytes per second, and on
/// the hypervisor this runs under a page fault costs 2–25 µs, varying from
/// run to run with what the host has backed. With the default thresholds that
/// churn reaches the kernel and every metric spreads by 10–15 % between
/// identical runs; kept in the process, by 3–5 %, with medians within 3 % of
/// the default. Same setting on both sides of any comparison.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning call. It takes two plain
    // integers, changes only the allocator's own parameters, and runs here
    // before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() -> bool {
    false
}

fn main() -> ExitCode {
    if !keep_freed_memory() {
        eprintln!("bp-benchmark: allocator thresholds not set; expect wider spreads");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bp-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
