//! A 256-bit unsigned integer.
//!
//! The EVM is a 256-bit word machine, and Ethereum balances and storage values
//! are 256-bit words. [`U256`] stores four little-endian `u64` limbs and
//! provides the arithmetic the interpreter in `bp-evm` needs. Arithmetic
//! follows EVM semantics: addition, subtraction and multiplication wrap
//! modulo 2^256; division and remainder by zero yield zero (the EVM's `DIV`
//! and `MOD` rules) through [`U256::div_mod`].

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{
    Add, AddAssign, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub, SubAssign,
};

/// 256-bit unsigned integer: four 64-bit limbs, least significant first.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Builds a value from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Builds a value from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns the low 64 bits, discarding the rest.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Converts to `u64` if the value fits.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Converts to `usize` if the value fits.
    #[inline]
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// True iff the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Number of significant bits (`0` for zero; `256` for `MAX`).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i` (little-endian bit order); bits past 255 read as 0.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the byte at `index`, big-endian (index 0 = most significant).
    ///
    /// This matches the EVM `BYTE` opcode; indices ≥ 32 yield 0.
    #[inline]
    pub fn byte_be(&self, index: usize) -> u8 {
        if index >= 32 {
            return 0;
        }
        self.to_be_bytes()[index]
    }

    /// Wrapping addition; also returns the carry flag.
    #[inline]
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *limb = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction; also returns the borrow flag.
    #[inline]
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *limb = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Checked addition: `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction: `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Saturating subtraction: clamps at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Wrapping multiplication modulo 2^256; also returns whether the true
    /// product overflowed.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let idx = i + j;
                let cur = out[idx] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
            }
            // Propagate the final carry into the upper half.
            let mut idx = i + 4;
            while carry != 0 && idx < 8 {
                let cur = out[idx] as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        let overflow = out[4..].iter().any(|&w| w != 0);
        (U256([out[0], out[1], out[2], out[3]]), overflow)
    }

    /// Checked multiplication: `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Simultaneous quotient and remainder.
    ///
    /// Division by zero returns `(0, 0)`, matching EVM `DIV`/`MOD` semantics.
    pub fn div_mod(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < rhs {
            return (U256::ZERO, self);
        }
        if rhs.bits() <= 64 {
            return self.div_mod_u64(rhs.0[0]);
        }
        // Schoolbook binary long division on the remaining (rare) path.
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        let n = self.bits();
        for i in (0..n).rev() {
            remainder = remainder << 1;
            if self.bit(i as usize) {
                remainder.0[0] |= 1;
            }
            if remainder >= rhs {
                remainder = remainder.overflowing_sub(rhs).0;
                quotient.0[(i / 64) as usize] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// Fast path for division by a 64-bit divisor.
    fn div_mod_u64(self, d: u64) -> (U256, U256) {
        debug_assert!(d != 0);
        let mut rem: u128 = 0;
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            let cur = (rem << 64) | self.0[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (U256(out), U256::from_u64(rem as u64))
    }

    /// `(self + rhs) % modulus` without intermediate overflow. Zero modulus
    /// yields zero (EVM `ADDMOD`).
    pub fn add_mod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = self.overflowing_add(rhs);
        if !carry {
            return sum.div_mod(modulus).1;
        }
        // sum + 2^256 mod m == (sum mod m + 2^256 mod m) mod m.
        let wrap = (U256::MAX.div_mod(modulus).1 + U256::ONE)
            .div_mod(modulus)
            .1;
        sum.div_mod(modulus).1.add_mod(wrap, modulus)
    }

    /// `(self * rhs) % modulus` via 512-bit intermediate. Zero modulus yields
    /// zero (EVM `MULMOD`).
    pub fn mul_mod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        // Russian-peasant multiplication in the modular ring avoids a 512-bit
        // division routine.
        let mut acc = U256::ZERO;
        let mut a = self.div_mod(modulus).1;
        let mut b = rhs;
        while !b.is_zero() {
            if b.bit(0) {
                acc = acc.add_mod(a, modulus);
            }
            a = a.add_mod(a, modulus);
            b = b >> 1;
        }
        acc
    }

    /// Exponentiation modulo 2^256 (EVM `EXP`).
    pub fn pow(self, mut exp: U256) -> U256 {
        let mut base = self;
        let mut acc = U256::ONE;
        while !exp.is_zero() {
            if exp.bit(0) {
                acc = acc.overflowing_mul(base).0;
            }
            base = base.overflowing_mul(base).0;
            exp = exp >> 1;
        }
        acc
    }

    /// True iff bit 255 is set (the value is negative under two's
    /// complement interpretation, as EVM signed opcodes use).
    #[inline]
    pub fn is_negative_signed(&self) -> bool {
        self.bit(255)
    }

    /// Two's-complement negation modulo 2^256.
    #[inline]
    pub fn wrapping_neg(self) -> U256 {
        (!self).overflowing_add(U256::ONE).0
    }

    /// Signed division (EVM `SDIV`): truncated toward zero; division by
    /// zero yields zero; `MIN / -1` wraps to `MIN`.
    pub fn sdiv(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let neg = self.is_negative_signed() != rhs.is_negative_signed();
        let a = if self.is_negative_signed() {
            self.wrapping_neg()
        } else {
            self
        };
        let b = if rhs.is_negative_signed() {
            rhs.wrapping_neg()
        } else {
            rhs
        };
        let q = a / b;
        if neg {
            q.wrapping_neg()
        } else {
            q
        }
    }

    /// Signed remainder (EVM `SMOD`): sign follows the dividend; modulus by
    /// zero yields zero.
    pub fn smod(self, rhs: U256) -> U256 {
        if rhs.is_zero() {
            return U256::ZERO;
        }
        let a = if self.is_negative_signed() {
            self.wrapping_neg()
        } else {
            self
        };
        let b = if rhs.is_negative_signed() {
            rhs.wrapping_neg()
        } else {
            rhs
        };
        let r = a % b;
        if self.is_negative_signed() {
            r.wrapping_neg()
        } else {
            r
        }
    }

    /// Signed less-than (EVM `SLT`).
    pub fn slt(&self, rhs: &U256) -> bool {
        match (self.is_negative_signed(), rhs.is_negative_signed()) {
            (true, false) => true,
            (false, true) => false,
            _ => self < rhs,
        }
    }

    /// Sign-extends from byte `k` (EVM `SIGNEXTEND`): byte 0 is the least
    /// significant; `k ≥ 31` is the identity.
    pub fn sign_extend(self, k: U256) -> U256 {
        let Some(k) = k.to_usize().filter(|&k| k < 31) else {
            return self;
        };
        let sign_bit = 8 * k + 7;
        if self.bit(sign_bit) {
            // Set all bits above the sign bit.
            self | (U256::MAX << (sign_bit as u32 + 1))
        } else {
            self & !(U256::MAX << (sign_bit as u32 + 1))
        }
    }

    /// Arithmetic right shift (EVM `SAR`): fills with the sign bit.
    pub fn sar(self, shift: u32) -> U256 {
        if shift >= 256 {
            return if self.is_negative_signed() {
                U256::MAX
            } else {
                U256::ZERO
            };
        }
        let logical = self >> shift;
        if self.is_negative_signed() && shift > 0 {
            logical | (U256::MAX << (256 - shift).min(255))
        } else {
            logical
        }
    }

    /// Big-endian 32-byte encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Decodes a big-endian 32-byte encoding.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[(3 - i) * 8..(4 - i) * 8]);
            limbs[i] = u64::from_be_bytes(w);
        }
        U256(limbs)
    }

    /// Decodes a big-endian slice of at most 32 bytes (shorter slices are
    /// zero-extended on the left, as in RLP integer decoding).
    pub fn from_be_slice(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 32, "U256::from_be_slice: more than 32 bytes");
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Self::from_be_bytes(buf)
    }

    /// Minimal big-endian encoding with no leading zero bytes (empty for 0),
    /// as required when RLP-encoding integers.
    pub fn to_be_bytes_trimmed(&self) -> Vec<u8> {
        let full = self.to_be_bytes();
        let first = full.iter().position(|&b| b != 0).unwrap_or(32);
        full[first..].to_vec()
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u8> for U256 {
    fn from(v: u8) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<usize> for U256 {
    fn from(v: usize) -> Self {
        U256::from_u64(v as u64)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    /// Wrapping addition (EVM `ADD`).
    fn add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }
}

impl AddAssign for U256 {
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl Sub for U256 {
    type Output = U256;
    /// Wrapping subtraction (EVM `SUB`).
    fn sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }
}

impl SubAssign for U256 {
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl Mul for U256 {
    type Output = U256;
    /// Wrapping multiplication (EVM `MUL`).
    fn mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }
}

impl Div for U256 {
    type Output = U256;
    /// EVM `DIV`: division by zero yields zero.
    fn div(self, rhs: U256) -> U256 {
        self.div_mod(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    /// EVM `MOD`: remainder by zero yields zero.
    fn rem(self, rhs: U256) -> U256 {
        self.div_mod(rhs).1
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    /// Left shift; shifts ≥ 256 yield zero (EVM `SHL`).
    fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift != 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    /// Logical right shift; shifts ≥ 256 yield zero (EVM `SHR`).
    fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, limb) in out.iter_mut().enumerate().take(4 - limb_shift) {
            *limb = self.0[i + limb_shift] >> bit_shift;
            if bit_shift != 0 && i + limb_shift + 1 < 4 {
                *limb |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{self:x})")
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_mod(ten);
            digits.push(b'0' + r.low_u64() as u8);
            cur = q;
        }
        digits.reverse();
        f.write_str(core::str::from_utf8(&digits).expect("decimal digits are ASCII"))
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                write!(f, "{:016x}", self.0[i])?;
            } else if self.0[i] != 0 || i == 0 {
                write!(f, "{:x}", self.0[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_basic_and_carry() {
        assert_eq!(u(2) + u(3), u(5));
        let max64 = U256::from_u64(u64::MAX);
        let sum = max64 + U256::ONE;
        assert_eq!(sum, U256([0, 1, 0, 0]));
    }

    #[test]
    fn add_wraps_at_max() {
        let (v, carry) = U256::MAX.overflowing_add(U256::ONE);
        assert!(carry);
        assert_eq!(v, U256::ZERO);
        assert_eq!(U256::MAX + U256::ONE, U256::ZERO);
    }

    #[test]
    fn sub_basic_and_borrow() {
        assert_eq!(u(5) - u(3), u(2));
        let (v, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(v, U256::MAX);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(U256::MAX.checked_add(U256::ONE), None);
        assert_eq!(U256::ZERO.checked_sub(U256::ONE), None);
        assert_eq!(u(7).checked_add(u(8)), Some(u(15)));
        assert_eq!(U256::MAX.checked_mul(u(2)), None);
        assert_eq!(u(6).checked_mul(u(7)), Some(u(42)));
        assert_eq!(u(3).saturating_sub(u(10)), U256::ZERO);
    }

    #[test]
    fn mul_cross_limb() {
        let a = U256::from_u128(u128::MAX);
        let b = u(2);
        let expect = U256([u64::MAX - 1, u64::MAX, 1, 0]);
        assert_eq!(a * b, expect);
    }

    #[test]
    fn mul_overflow_detected() {
        let big = U256::ONE << 200;
        let (_, ovf) = big.overflowing_mul(big);
        assert!(ovf);
        let (_, ok) = (U256::ONE << 100).overflowing_mul(U256::ONE << 100);
        assert!(!ok);
    }

    #[test]
    fn div_mod_small() {
        let (q, r) = u(17).div_mod(u(5));
        assert_eq!((q, r), (u(3), u(2)));
    }

    #[test]
    fn div_mod_by_zero_is_zero() {
        assert_eq!(u(17) / U256::ZERO, U256::ZERO);
        assert_eq!(u(17) % U256::ZERO, U256::ZERO);
    }

    #[test]
    fn div_mod_large_divisor() {
        let a = (U256::ONE << 200) + u(12345);
        let b = (U256::ONE << 100) + u(7);
        let (q, r) = a.div_mod(b);
        assert_eq!(q * b + r, a);
        assert!(r < b);
    }

    #[test]
    fn div_identity() {
        let a = U256([
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
            0xdead_beef,
            42,
        ]);
        let b = U256([99999, 1, 0, 0]);
        let (q, r) = a.div_mod(b);
        assert_eq!(q * b + r, a);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        assert_eq!(u(3).pow(u(0)), U256::ONE);
        assert_eq!(u(3).pow(u(7)), u(2187));
        assert_eq!(u(2).pow(u(255)), U256::ONE << 255);
        // 2^256 wraps to zero.
        assert_eq!(u(2).pow(u(256)), U256::ZERO);
    }

    #[test]
    fn add_mod_with_carry() {
        let m = u(1000);
        assert_eq!(u(999).add_mod(u(2), m), u(1));
        // Values whose sum wraps 2^256.
        let a = U256::MAX - u(1);
        let b = u(5);
        // (2^256 - 2 + 5) mod 7 == (2^256 + 3) mod 7
        let got = a.add_mod(b, u(7));
        // 2^256 mod 7: 2^256 = (2^3)^85 * 2 -> 8^85 ≡ 1^85, so 2^256 ≡ 2 (mod 7); +3 => 5.
        assert_eq!(got, u(5));
        assert_eq!(a.add_mod(b, U256::ZERO), U256::ZERO);
    }

    #[test]
    fn mul_mod_large() {
        let a = U256::ONE << 200;
        let b = U256::ONE << 100;
        // (2^300) mod (2^17 - 1): 2^300 = 2^(17*17 + 11) ≡ 2^11 (mod 2^17-1).
        let m = (U256::ONE << 17) - U256::ONE;
        assert_eq!(a.mul_mod(b, m), u(1 << 11));
        assert_eq!(a.mul_mod(b, U256::ZERO), U256::ZERO);
    }

    #[test]
    fn shifts() {
        assert_eq!(U256::ONE << 64, U256([0, 1, 0, 0]));
        assert_eq!(U256::ONE << 255 >> 255, U256::ONE);
        assert_eq!(U256::MAX << 256, U256::ZERO);
        assert_eq!(U256::MAX >> 256, U256::ZERO);
        assert_eq!(u(0b1010) >> 1, u(0b101));
        assert_eq!((U256([0, 0, 0, 1]) >> 192), U256::ONE);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!((U256::ONE << 200).bits(), 201);
        assert_eq!(U256::MAX.bits(), 256);
        assert!((U256::ONE << 77).bit(77));
        assert!(!(U256::ONE << 77).bit(78));
        assert!(!U256::MAX.bit(600));
    }

    #[test]
    fn byte_be_matches_evm_byte() {
        let v = U256::from_be_slice(&[0xAB, 0xCD]);
        assert_eq!(v.byte_be(31), 0xCD);
        assert_eq!(v.byte_be(30), 0xAB);
        assert_eq!(v.byte_be(0), 0);
        assert_eq!(v.byte_be(32), 0);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256([1, 2, 3, 4]);
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        let b = v.to_be_bytes();
        // Most significant limb (4) lands in the first 8 bytes.
        assert_eq!(&b[0..8], &4u64.to_be_bytes());
    }

    #[test]
    fn trimmed_bytes() {
        assert!(U256::ZERO.to_be_bytes_trimmed().is_empty());
        assert_eq!(u(0x0400).to_be_bytes_trimmed(), vec![0x04, 0x00]);
        assert_eq!(
            U256::from_be_slice(&[1, 0, 0]).to_be_bytes_trimmed(),
            vec![1, 0, 0]
        );
    }

    #[test]
    fn ordering() {
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert!(u(3) < u(4));
        assert_eq!(u(9).cmp(&u(9)), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(u(1234567890).to_string(), "1234567890");
        assert_eq!(
            U256::MAX.to_string(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
    }

    #[test]
    fn hex_format() {
        assert_eq!(format!("{:x}", U256::ZERO), "0");
        assert_eq!(format!("{:x}", u(0xdeadbeef)), "deadbeef");
        assert_eq!(format!("{:x}", U256::ONE << 64), "10000000000000000");
    }

    #[test]
    fn signed_division() {
        let neg = |v: u64| U256::from(v).wrapping_neg();
        assert_eq!(neg(6).sdiv(U256::from(3u64)), neg(2));
        assert_eq!(U256::from(6u64).sdiv(neg(3)), neg(2));
        assert_eq!(neg(6).sdiv(neg(3)), U256::from(2u64));
        assert_eq!(U256::from(7u64).sdiv(U256::from(2u64)), U256::from(3u64));
        assert_eq!(neg(7).sdiv(U256::from(2u64)), neg(3)); // truncate toward zero
        assert_eq!(U256::from(5u64).sdiv(U256::ZERO), U256::ZERO);
        // MIN / -1 wraps to MIN (EVM rule).
        let min = U256::ONE << 255;
        assert_eq!(min.sdiv(neg(1)), min);
    }

    #[test]
    fn signed_remainder() {
        let neg = |v: u64| U256::from(v).wrapping_neg();
        assert_eq!(neg(7).smod(U256::from(3u64)), neg(1)); // sign of dividend
        assert_eq!(U256::from(7u64).smod(neg(3)), U256::ONE);
        assert_eq!(U256::from(7u64).smod(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn signed_comparison() {
        let neg_one = U256::MAX;
        assert!(neg_one.slt(&U256::ZERO));
        assert!(!U256::ZERO.slt(&neg_one));
        assert!(U256::ONE.slt(&U256::from(2u64)));
        assert!(neg_one.wrapping_neg().slt(&U256::from(2u64))); // 1 < 2
        assert!(!neg_one.slt(&neg_one));
    }

    #[test]
    fn sign_extension() {
        // 0xFF extended from byte 0 becomes -1.
        assert_eq!(U256::from(0xFFu64).sign_extend(U256::ZERO), U256::MAX);
        // 0x7F stays positive.
        assert_eq!(
            U256::from(0x7Fu64).sign_extend(U256::ZERO),
            U256::from(0x7Fu64)
        );
        // High bytes above k are masked off for positive values.
        assert_eq!(U256::from(0x1FFu64).sign_extend(U256::ZERO), U256::MAX);
        assert_eq!(
            U256::from(0x100FFu64).sign_extend(U256::ONE),
            U256::from(0xFFu64)
        );
        // k ≥ 31 is identity.
        assert_eq!(U256::MAX.sign_extend(U256::from(31u64)), U256::MAX);
        assert_eq!(U256::MAX.sign_extend(U256::from(1000u64)), U256::MAX);
    }

    #[test]
    fn arithmetic_shift_right() {
        let neg_four = U256::from(4u64).wrapping_neg();
        assert_eq!(neg_four.sar(1), U256::from(2u64).wrapping_neg());
        assert_eq!(U256::from(4u64).sar(1), U256::from(2u64));
        assert_eq!(neg_four.sar(300), U256::MAX);
        assert_eq!(U256::from(4u64).sar(300), U256::ZERO);
        assert_eq!(U256::MAX.sar(255), U256::MAX);
    }

    #[test]
    fn wrapping_neg_roundtrip() {
        for v in [0u64, 1, 12345, u64::MAX] {
            let x = U256::from(v);
            assert_eq!(x.wrapping_neg().wrapping_neg(), x);
        }
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
    }

    #[test]
    fn sum_iterator() {
        let total: U256 = (1..=10u64).map(U256::from).sum();
        assert_eq!(total, u(55));
    }
}
