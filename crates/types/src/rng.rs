//! The one seeded generator in the tree: splitmix64 behind the four calls the
//! workload generator, the network simulation and the tests make.
//!
//! The stream, the multiply-shift range mapping and the 53-bit float are the
//! ones every `benchmark/` number since PR 11 was drawn from; a
//! `bp-workload` test pins them, because changing any of the three changes
//! the transactions the benchmark measures.

use std::ops::{Bound, RangeBounds};

/// splitmix64: one add, two xor-shift-multiplies per draw.
#[derive(Clone, Debug)]
pub struct Rng(u64);

/// An integer type [`Rng::gen_range`] can draw uniformly.
pub trait UniformInt: Copy + PartialOrd {
    /// Smallest value of the type.
    const MIN: Self;
    /// Largest value of the type.
    const MAX: Self;
    /// `self as u64` (sign-extending).
    fn to_u64(self) -> u64;
    /// `v as Self` (truncating).
    fn from_u64(v: u64) -> Self;
}

macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> $t {
                v as $t
            }
        }
    )*};
}

uniform_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `range` (`a..b`, `a..=b`, `a..`, `..`); one draw. Panics on
    /// an empty range.
    pub fn gen_range<T: UniformInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let low = match range.start_bound() {
            Bound::Included(&low) => low,
            Bound::Excluded(_) => panic!("gen_range: a start bound is included or open"),
            Bound::Unbounded => T::MIN,
        };
        let high = match range.end_bound() {
            Bound::Included(&high) => high,
            Bound::Excluded(&end) => {
                assert!(low < end, "gen_range: empty range");
                T::from_u64(end.to_u64().wrapping_sub(1))
            }
            Bound::Unbounded => T::MAX,
        };
        assert!(low <= high, "gen_range: empty range");
        // Width of the range minus one, in the u64 domain (wrapping
        // arithmetic makes this right for signed types too).
        let span = high.to_u64().wrapping_sub(low.to_u64());
        if span == u64::MAX {
            return T::from_u64(self.next_u64());
        }
        // Multiply-shift maps 64 random bits onto span + 1 values; the bias
        // is below 2^-64 * (span + 1).
        let draw = ((self.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
        T::from_u64(low.to_u64().wrapping_add(draw))
    }

    /// Uniform in `[0, 1)`: 53 random mantissa bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u64 = a.gen_range(1..=100);
            assert_eq!(x, b.gen_range(1..=100));
            assert!((1..=100).contains(&x));
            let y = a.gen_range(0..2u8);
            assert_eq!(y, b.gen_range(0..2u8));
            assert!(y < 2);
            let u = a.gen_f64();
            assert_eq!(u, b.gen_f64());
            assert!((0.0..1.0).contains(&u));
        }
        let full: u64 = a.gen_range(1..=u64::MAX);
        assert!(full >= 1);
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut rng = Rng::seed_from_u64(1);
        let draws: Vec<i64> = (0..2000).map(|_| rng.gen_range(-2..=2)).collect();
        assert!(draws.contains(&-2) && draws.contains(&2));
        assert!(draws.iter().all(|d| (-2..=2).contains(d)));
    }
}
