//! Offline stand-in for `rand` 0.8: a seeded `StdRng` (splitmix64) behind the
//! `Rng` / `SeedableRng` surface the workload generator uses. The streams
//! differ from the published crate's ChaCha12, so generated workloads are
//! statistically equivalent, not bit-identical, to a build against it.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Integer types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `low..=high`; `low <= high`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    fn before(self) -> Self;
}

/// A range `Rng::gen_range` accepts. Generic over the element type as in
/// rand 0.8, so integer literals infer from the expected result type.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Standard for f64 {
    /// 53 random mantissa bits: uniform in `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }

        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "gen_range: empty range");
                // Width of the range minus one, in the u64 domain (wrapping
                // arithmetic makes this right for signed types too).
                let span = (high as u64).wrapping_sub(low as u64);
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                // Multiply-shift maps 64 random bits onto span + 1 values;
                // the bias is below 2^-64 * (span + 1).
                let draw = ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
                (low as u64).wrapping_add(draw) as $t
            }

            fn before(self) -> $t {
                self - 1
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_inclusive(rng, self.start, self.end.before())
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(rng, low, high)
    }
}

pub mod rngs {
    /// splitmix64: one add, two xor-shift-multiplies per draw.
    #[derive(Clone, Debug)]
    pub struct StdRng(u64);

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl super::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = a.gen_range(1..=100);
            assert_eq!(x, b.gen_range(1..=100));
            assert!((1..=100).contains(&x));
            let y = a.gen_range(0..2u8);
            assert_eq!(y, b.gen_range(0..2u8));
            assert!(y < 2);
            let u: f64 = a.gen();
            assert_eq!(u, b.gen::<f64>());
            assert!((0.0..1.0).contains(&u));
        }
        let full: u64 = a.gen_range(1..=u64::MAX);
        assert!(full >= 1);
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<i64> = (0..2000).map(|_| rng.gen_range(-2..=2)).collect();
        assert!(draws.contains(&-2) && draws.contains(&2));
        assert!(draws.iter().all(|d| (-2..=2).contains(d)));
    }
}
