//! `compare A.json B.json`: judges two result files of `--all`, A as the
//! base, per workload and end-to-end metric.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{EndToEnd, END_TO_END};
use crate::stats::{median, quartile_spread};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs inside one set spread wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Judgement {
    pub base: f64,
    pub change: f64,
    /// Share of the base's median by which the change is worse (negative
    /// when it is better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares the medians of two sets of runs of one metric against its bound.
pub fn judge(def: &EndToEnd, base: &[f64], change: &[f64]) -> Judgement {
    let higher_is_better = def.better == "higher";
    let (a, b) = (median(base), median(change));
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let spread = quartile_spread(base).max(quartile_spread(change));
    let every_run_better = base.iter().all(|&x| {
        change
            .iter()
            .all(|&y| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if spread > def.bound && !every_run_better {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Judgement {
        base: a,
        change: b,
        worse_by,
        spread,
        verdict,
    }
}

/// The values of `metric` over the runs of `workload` in a result file.
fn runs_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .flat_map(|w| w.get("runs").map_or(&[][..], Json::as_array))
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

fn failed_ops(file: &Json) -> f64 {
    file.get("workloads")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|w| w.get("failed")?.as_f64())
        .sum()
}

/// The comparison table and whether anything regressed. A workload or metric
/// missing from either file is an error: the two sets are not comparable.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>12} {:>12} {:>9} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "worse by", "spread", "bound"
    );
    let names: Vec<&str> = a
        .get("workloads")
        .map_or(&[][..], Json::as_array)
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if names.is_empty() {
        return Err("A holds no workloads".into());
    }
    for workload in names {
        for def in &END_TO_END {
            let base = runs_of(a, workload, def.name);
            let change = runs_of(b, workload, def.name);
            if base.is_empty() || change.is_empty() {
                return Err(format!("{workload}/{}: missing from one file", def.name));
            }
            let j = judge(def, &base, &change);
            regressed |= j.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<20} {:<12} {:>12.4} {:>12.4} {:>9.4} {:>+8.3} {:>7.3} {:>6.2}  {} ({} {}, {}+{} runs)",
                workload,
                def.name,
                j.base,
                j.change,
                if j.base == 0.0 { 0.0 } else { j.change / j.base },
                j.worse_by,
                j.spread,
                def.bound,
                j.verdict.label(),
                def.better,
                def.unit,
                base.len(),
                change.len(),
            );
        }
    }
    for (label, file) in [("A", a), ("B", b)] {
        let failed = failed_ops(file);
        let _ = writeln!(out, "ops_failed in {label}: {failed}");
        // More failed operations is a regression whatever the speeds say.
        regressed |= failed > 0.0;
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: EndToEnd = EndToEnd {
        name: "node_tx_s",
        unit: "tx/s",
        better: "higher",
        bound: 0.10,
    };
    const LOWER: EndToEnd = EndToEnd {
        name: "path_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };

    #[test]
    fn within_the_bound_is_ok_and_beyond_it_regressed() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&HIGHER, &base, &[95.0, 96.0, 94.0]).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&HIGHER, &base, &[85.0, 86.0, 84.0]).verdict,
            Verdict::Regressed
        );
        // The same numbers read the other way for a lower-is-better metric.
        assert_eq!(
            judge(&LOWER, &base, &[115.0, 116.0, 114.0]).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&LOWER, &base, &[85.0, 86.0, 84.0]).verdict,
            Verdict::Ok
        );
        let j = judge(&LOWER, &base, &[110.0]);
        assert!((j.worse_by - 0.10).abs() < 1e-12);
        assert_eq!(j.verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&HIGHER, &noisy, &[95.0, 105.0, 100.0]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&HIGHER, &noisy, &[130.0, 125.0, 140.0]).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn compare_reads_result_files_and_flags_regressions_and_failures() {
        let file = |tx_s: f64, failed: u64| {
            let metrics = crate::json::obj(END_TO_END.iter().map(|d| {
                (
                    d.name,
                    Json::from(if d.name == "node_tx_s" { tx_s } else { 1.0 }),
                )
            }));
            crate::json::obj([(
                "workloads",
                Json::Arr(vec![crate::json::obj([
                    ("name", Json::from("w")),
                    ("failed", Json::from(failed)),
                    (
                        "runs",
                        Json::Arr(vec![crate::json::obj([("metrics", metrics)])]),
                    ),
                ])]),
            )])
        };
        let bound = END_TO_END[0].bound;
        let within = 100.0 * (1.0 - bound / 2.0);
        let beyond = 100.0 * (1.0 - bound * 2.0);
        let (table, regressed) = compare(&file(100.0, 0), &file(within, 0)).expect("comparable");
        assert!(!regressed, "{table}");
        assert!(table.contains("node_tx_s") && table.contains("ok"));
        assert!(
            compare(&file(100.0, 0), &file(beyond, 0))
                .expect("comparable")
                .1
        );
        assert!(
            compare(&file(100.0, 0), &file(100.0, 1))
                .expect("comparable")
                .1
        );
        assert!(compare(&file(100.0, 0), &crate::json::obj::<String>([])).is_err());
    }
}
