//! A Zipf-distributed sampler over `{0, 1, ..., n-1}`.
//!
//! Account popularity on Ethereum is heavy-tailed: a few hotspot contracts
//! and exchange wallets attract a large share of all transactions (the
//! paper's §5.5). The workload generator draws senders, recipients and
//! contracts from this distribution.

use bp_types::Rng;

/// Inverse-CDF Zipf sampler: `P(k) ∝ 1 / (k+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// larger `s` is more skewed; Ethereum-like workloads use `s ≈ 1`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Domain size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the domain has one element.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(zipf: &Zipf, draws: usize) -> Vec<usize> {
        let mut rng = Rng::seed_from_u64(42);
        let mut counts = vec![0usize; zipf.len()];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn all_samples_in_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(20, 1.2);
        let counts = histogram(&z, 50_000);
        // Rank 0 clearly dominates rank 10.
        assert!(counts[0] > counts[10] * 3, "{counts:?}");
        // Monotone (roughly): first rank is the mode.
        assert_eq!(counts.iter().max(), Some(&counts[0]));
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let counts = histogram(&z, 40_000);
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "{counts:?}");
        }
    }

    #[test]
    fn single_element_domain() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    fn zipf_frequencies_match_theory() {
        // For s=1, P(0)/P(1) = 2.
        let z = Zipf::new(50, 1.0);
        let counts = histogram(&z, 200_000);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }
}
