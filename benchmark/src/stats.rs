//! Order statistics for the report: medians, the tail-percentile rule, the
//! quartile spread the acceptance rule uses, and the ledger arithmetic.

/// Percentiles the tail rule chooses from, highest first, each with the
/// share of samples beyond it in thousandths (whole numbers, so that the
/// rule is exact at the boundaries).
const TAIL_CANDIDATES: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; with fewer the value is one or two outliers, not a percentile.
const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorted copy of `values` (they are all finite: times and counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile of [`TAIL_CANDIDATES`] that still has at least ten
/// of `n` samples beyond it; the median when even p75 does not.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= MIN_SAMPLES_BEYOND * 1000)
        .map_or(50.0, |(percentile, _)| percentile)
}

/// The value at [`tail_percentile`] of the sample.
pub fn tail(values: &[f64]) -> f64 {
    percentile(values, tail_percentile(values.len()))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method: rank `i * (n + 1) / 4`, clamped to the
/// sample). `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the spread the
/// acceptance rule compares with a metric's bound. 0 for a single value.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Share of the whole that its parts leave unaccounted: `1 - Σparts / whole`.
/// The ledger must sum back to the block, so this is what the trace missed.
pub fn residual_share(whole: f64, parts: &[f64]) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        1.0 - parts.iter().sum::<f64>() / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        // p99.9 needs 10 000 samples, p99 1 000, p95 200, p90 100, p75 40.
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&[1.0]), 0.0);
    }

    #[test]
    fn ledger_parts_sum_back_to_the_whole() {
        assert!((residual_share(100.0, &[40.0, 35.0, 20.0]) - 0.05).abs() < 1e-12);
        assert_eq!(residual_share(100.0, &[60.0, 40.0]), 0.0);
        assert_eq!(residual_share(0.0, &[1.0]), 0.0);
    }
}
