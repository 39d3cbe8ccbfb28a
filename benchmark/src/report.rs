//! Turns what the phases measured into named metrics, the ledger table and
//! the result line.

use std::fmt::Write as _;

use crate::json::{obj, Json};
use crate::phases::{NodeRun, Ops, PathRun, ReplayRun, Trace};
use crate::stats::{mean, median, residual_share, tail, tail_percentile};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

const HIGHER: &str = "higher";
const LOWER: &str = "lower";

/// An end-to-end metric's definition: `BENCHMARK.json` carries the same
/// table (a test compares them), and `compare` judges by these bounds.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the base's median by which the metric may get worse before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "node_tx_s",
        unit: "tx/s",
        better: HIGHER,
        bound: 0.25,
    },
    EndToEnd {
        name: "path_ms_p50",
        unit: "ms",
        better: LOWER,
        bound: 0.25,
    },
    EndToEnd {
        name: "replay_tx_s",
        unit: "tx/s",
        better: HIGHER,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: LOWER,
        bound: 0.25,
    },
];

/// Values of [`END_TO_END`], in its order.
pub fn end_to_end(
    node: &NodeRun,
    pass_a: &PathRun,
    replays: &[ReplayRun],
    setups: &[f64],
) -> Vec<Metric> {
    let replay_tx_s: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.window_tx_s.iter().copied())
        .collect();
    let values = [
        median(&node.window_tx_s),
        median(&pass_a.block_ms),
        median(&replay_tx_s),
        median(setups),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| metric(def.name, def.unit, value))
        .collect()
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-block series of a traced pass, warm-up left out, in height order.
struct Series<'a> {
    trace: &'a Trace,
    warmup: u64,
}

impl Series<'_> {
    /// Durations in µs of every span called `name`.
    fn span(&self, name: &str) -> Vec<f64> {
        self.trace
            .spans
            .iter()
            .filter(|s| s.name == name && s.height > self.warmup)
            .map(|s| s.micros())
            .collect()
    }

    /// Every recorded value called `name`.
    fn value(&self, name: &str) -> Vec<f64> {
        self.trace
            .values
            .iter()
            .filter(|(height, n, _)| *n == name && *height > self.warmup)
            .map(|&(_, _, v)| v)
            .collect()
    }

    fn sum(&self, name: &str) -> f64 {
        self.value(name).iter().sum()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The spans directly under `block`, in call order.
pub const BLOCK_SPANS: [&str; 6] = [
    "txpool.add",
    "proposer.propose",
    "codec.encode",
    "codec.decode",
    "validator.validate",
    "validator.commit",
];

/// The isolated probes, run between blocks.
pub const PROBE_SPANS: [&str; 4] = [
    "state.snapshot",
    "evm.exec",
    "state.root",
    "scheduler.schedule",
];

/// Every per-layer metric, from the traced pass B, the untraced pass A, the
/// node report, and one stretch of chain replayed in memory and on a store.
pub fn per_layer(
    node: &NodeRun,
    pass_a: &PathRun,
    pass_b: &PathRun,
    in_memory: &ReplayRun,
    on_store: &ReplayRun,
) -> Vec<Metric> {
    let trace = pass_b.trace.as_ref().expect("pass B is the traced pass");
    let s = Series {
        trace,
        warmup: pass_b.warmup as u64,
    };
    let blocks = s.span("block");
    let propose = s.span("proposer.propose");
    let pack = s.value("proposer.pack_us");
    let seal: Vec<f64> = propose.iter().zip(&pack).map(|(p, k)| p - k).collect();
    let snapshot = s.span("state.snapshot");
    // The serial executor's time without the pre-state snapshot it begins
    // with, which the probe before it timed on the same state.
    let exec: Vec<f64> = s
        .span("evm.exec")
        .iter()
        .zip(&snapshot)
        .map(|(exec, snap)| (exec - snap).max(0.0))
        .collect();
    let root = s.span("state.root");
    let validate = s.span("validator.validate");
    let commit = s.span("validator.commit");
    let children: Vec<f64> = BLOCK_SPANS
        .iter()
        .map(|name| s.span(name).iter().sum())
        .collect();

    let r = &node.report;
    let wall = r.wall_micros as f64;
    let share = |micros: u64| ratio(micros as f64, wall);
    let validator = &r.validators[0];
    let path_tx_s = ratio(pass_a.txs as f64, pass_a.block_ms.iter().sum::<f64>() / 1e3);
    let store = on_store
        .store
        .as_ref()
        .expect("the second replay ran on a store");
    let store_tx_s = median(&on_store.window_tx_s);

    vec![
        metric("txpool.add_us", "us", median(&s.span("txpool.add"))),
        metric("txpool.rejected", "count", s.sum("txpool.rejected")),
        metric("proposer.propose_us", "us", median(&propose)),
        metric("proposer.propose_us_tail", "us", tail(&propose)),
        metric("proposer.pack_us", "us", median(&pack)),
        metric("proposer.seal_us", "us", median(&seal)),
        // What proposing costs beyond running the transactions once and
        // hashing the root once: threads, scratch state, retries.
        metric(
            "proposer.overhead_us",
            "us",
            median(&propose) - median(&exec) - median(&root),
        ),
        metric(
            "proposer.aborts_per_block",
            "count",
            mean(&s.value("proposer.aborts")),
        ),
        metric(
            "proposer.executions_per_commit",
            "ratio",
            ratio(s.sum("proposer.executions"), s.sum("proposer.committed")),
        ),
        metric("evm.exec_us", "us", median(&exec)),
        metric(
            "evm.gas_per_us",
            "gas/us",
            ratio(s.sum("evm.gas"), exec.iter().sum()),
        ),
        metric("state.snapshot_us", "us", median(&snapshot)),
        metric("state.root_us", "us", median(&root)),
        metric(
            "state.dirty_accounts_per_block",
            "count",
            mean(&s.value("state.dirty_accounts")),
        ),
        metric(
            "scheduler.schedule_us",
            "us",
            median(&s.span("scheduler.schedule")),
        ),
        metric(
            "scheduler.subgraphs_per_block",
            "count",
            mean(&s.value("scheduler.subgraphs")),
        ),
        metric(
            "scheduler.largest_subgraph_ratio",
            "ratio",
            mean(&s.value("scheduler.largest_subgraph_ratio")),
        ),
        metric("codec.encode_us", "us", median(&s.span("codec.encode"))),
        metric("codec.decode_us", "us", median(&s.span("codec.decode"))),
        metric(
            "codec.bytes_per_tx",
            "B",
            ratio(s.sum("codec.bytes"), s.sum("block.txs")),
        ),
        metric("validator.validate_us", "us", median(&validate)),
        metric("validator.validate_us_tail", "us", tail(&validate)),
        metric(
            "validator.prepare_us",
            "us",
            median(&s.value("validator.prepare_us")),
        ),
        metric(
            "validator.queue_wait_us",
            "us",
            median(&s.value("validator.queue_wait_us")),
        ),
        metric(
            "validator.execute_us",
            "us",
            median(&s.value("validator.execute_us")),
        ),
        metric(
            "validator.apply_us",
            "us",
            median(&s.value("validator.apply_us")),
        ),
        metric("validator.commit_us", "us", median(&commit)),
        metric("validator.commit_us_tail", "us", tail(&commit)),
        metric(
            "validator.early_aborts",
            "count",
            s.sum("validator.early_aborts"),
        ),
        metric("store.create_s", "s", store.create_s),
        metric("store.replay_tx_s", "tx/s", store_tx_s),
        // How much slower a validator syncs the same stretch of chain on a
        // store than in memory.
        metric(
            "store.replay_slowdown",
            "ratio",
            ratio(median(&in_memory.window_tx_s), store_tx_s),
        ),
        metric("store.commit_us", "us", median(&on_store.commit_us)),
        metric(
            "store.bytes_per_block",
            "B",
            ratio(store.bytes as f64, on_store.blocks as f64),
        ),
        metric("store.reopen_s", "s", store.reopen_s),
        metric(
            "store.reopen_head_ok",
            "count",
            f64::from(u8::from(store.head_ok)),
        ),
        metric(
            "node.txs_per_block",
            "count",
            ratio(r.committed_txs as f64, r.committed_blocks as f64),
        ),
        metric("node.wall_s", "s", wall / 1e6),
        metric(
            "node.proposer_busy_share",
            "ratio",
            share(r.proposer.busy_micros),
        ),
        metric(
            "node.proposer_wait_share",
            "ratio",
            share(r.proposer.wait_micros),
        ),
        metric(
            "node.proposer_stall_share",
            "ratio",
            share(r.proposer.stall_micros),
        ),
        metric("node.codec_busy_share", "ratio", share(r.codec.busy_micros)),
        metric(
            "node.validator_busy_share",
            "ratio",
            share(validator.busy_micros),
        ),
        metric(
            "node.validator_wait_share",
            "ratio",
            share(validator.wait_micros),
        ),
        metric(
            "node.ingest_stall_share",
            "ratio",
            share(r.ingest.stall_micros),
        ),
        metric(
            "node.max_wire_depth",
            "count",
            r.codec.max_queue_depth as f64,
        ),
        metric(
            "node.proposer_aborts_per_block",
            "count",
            ratio(r.proposer_aborts as f64, r.committed_blocks as f64),
        ),
        // How much of the proposer/validator overlap (paper Fig. 1) the
        // service realises over running the same layers back to back.
        metric(
            "node.overlap_gain",
            "ratio",
            ratio(median(&node.window_tx_s), path_tx_s),
        ),
        metric("path.samples", "count", blocks.len() as f64),
        metric("path.tail_percentile", "%", tail_percentile(blocks.len())),
        metric("path.block_ms_tail", "ms", tail(&blocks) / 1e3),
        metric(
            "path.ledger_residual_share",
            "ratio",
            residual_share(blocks.iter().sum(), &children),
        ),
        // Of the traced run: node, pass A and pass B. Not end-to-end because
        // the allocator's per-thread arenas make it spread by 10-30 % between
        // identical runs.
        metric("process.peak_rss_mb", "MB", peak_rss_mb()),
        metric(
            "trace.overhead_share",
            "ratio",
            ratio(median(&blocks) / 1e3, median(&pass_a.block_ms)) - 1.0,
        ),
    ]
}

/// The ledger of pass B: each span under `block` with its median, tail and
/// share of the block, then what the spans leave unaccounted, then the
/// probes for scale.
pub fn ledger_table(pass_b: &PathRun) -> String {
    let trace = pass_b.trace.as_ref().expect("pass B is the traced pass");
    let s = Series {
        trace,
        warmup: pass_b.warmup as u64,
    };
    let blocks = s.span("block");
    let whole: f64 = blocks.iter().sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<22} {:>12} {:>12} {:>8}   ({} blocks, tail = p{})",
        "span",
        "median us",
        "tail us",
        "share",
        blocks.len(),
        tail_percentile(blocks.len())
    );
    let mut row = |label: &str, series: &[f64]| {
        let _ = writeln!(
            out,
            "  {:<22} {:>12.1} {:>12.1} {:>7.1}%",
            label,
            median(series),
            tail(series),
            100.0 * ratio(series.iter().sum(), whole)
        );
    };
    row("block", &blocks);
    let mut accounted = Vec::new();
    for name in BLOCK_SPANS {
        let series = s.span(name);
        row(&format!("  {name}"), &series);
        accounted.push(series.iter().sum());
    }
    let residual = residual_share(whole, &accounted);
    for name in PROBE_SPANS {
        row(&format!("probe {name}"), &s.span(name));
    }
    let _ = writeln!(
        out,
        "  (probe evm.exec includes the state.snapshot before it; evm.exec_us does not)"
    );
    let _ = writeln!(
        out,
        "  spans under block sum to {:.1}% of it (residual {:.1}%)",
        100.0 * (1.0 - residual),
        100.0 * residual
    );
    out
}

/// Every span of a traced pass as JSON lines.
pub fn spans_as_json_lines(trace: &Trace) -> String {
    let mut out = String::new();
    for span in &trace.spans {
        let line = obj([
            ("height", Json::from(span.height)),
            ("name", Json::from(span.name)),
            ("parent", Json::from(span.parent)),
            ("start_us", Json::from(span.start_us)),
            ("end_us", Json::from(span.end_us)),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> Json {
    obj(metrics.iter().map(|m| {
        (
            m.name,
            obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }))
}

/// The one-line result the contract asks for.
pub fn result_line(correct: bool, ops: Ops, metrics: &[Metric]) -> Json {
    obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(ops.attempted)),
        ("failed", Json::from(ops.failed)),
        ("metrics", metrics_json(metrics)),
    ])
}
