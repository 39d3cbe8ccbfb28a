//! Property-based tests for U256 arithmetic laws.

use bp_testkit::prelude::*;
use bp_types::U256;

fn arb_u256() -> impl Strategy<Value = U256> {
    // Mix of full-range values and small/structured ones so carries, borrows
    // and limb boundaries all get exercised.
    prop_oneof![
        any::<[u64; 4]>().prop_map(U256),
        any::<u64>().prop_map(U256::from_u64),
        (any::<u64>(), 0u32..256).prop_map(|(v, s)| U256::from_u64(v) << s),
        Just(U256::ZERO),
        Just(U256::ONE),
        Just(U256::MAX),
    ]
}

proptest! {
    #[test]
    fn add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn add_sub_inverse(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a + b - b, a);
    }

    #[test]
    fn sub_is_add_of_wrapping_negation(a in arb_u256(), b in arb_u256()) {
        // a - b == a + (2^256 - b)  (mod 2^256)
        let neg_b = U256::ZERO - b;
        prop_assert_eq!(a - b, a + neg_b);
    }

    #[test]
    fn mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn mul_identity_and_zero(a in arb_u256()) {
        prop_assert_eq!(a * U256::ONE, a);
        prop_assert_eq!(a * U256::ZERO, U256::ZERO);
    }

    #[test]
    fn div_mod_reconstructs(a in arb_u256(), b in arb_u256()) {
        let (q, r) = a.div_mod(b);
        if b.is_zero() {
            prop_assert_eq!(q, U256::ZERO);
            prop_assert_eq!(r, U256::ZERO);
        } else {
            prop_assert!(r < b);
            prop_assert_eq!(q * b + r, a);
            // q*b must not overflow when reconstructing.
            prop_assert!(q.checked_mul(b).is_some());
        }
    }

    #[test]
    fn add_mod_matches_wide_semantics(a in arb_u256(), b in arb_u256(), m in arb_u256()) {
        let got = a.add_mod(b, m);
        if m.is_zero() {
            prop_assert_eq!(got, U256::ZERO);
        } else {
            prop_assert!(got < m);
            // Check against the definition via 128-bit arithmetic when
            // everything fits.
            if let (Some(ax), Some(bx), Some(mx)) = (a.to_u64(), b.to_u64(), m.to_u64()) {
                prop_assert_eq!(got, U256::from(((ax as u128 + bx as u128) % mx as u128) as u64));
            }
        }
    }

    #[test]
    fn mul_mod_matches_small_case(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        let got = U256::from(a).mul_mod(U256::from(b), U256::from(m));
        let expect = ((a as u128 * b as u128) % m as u128) as u64;
        prop_assert_eq!(got, U256::from(expect));
    }

    #[test]
    fn shifts_compose(a in arb_u256(), s in 0u32..256, t in 0u32..256) {
        let both = s.saturating_add(t);
        prop_assert_eq!((a << s) << t, a << both.min(256));
        prop_assert_eq!((a >> s) >> t, a >> both.min(256));
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_u256(), s in 0u32..255) {
        prop_assert_eq!(a << s, a * U256::from(2u64).pow(U256::from(s as u64)));
    }

    #[test]
    fn be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
        prop_assert_eq!(U256::from_be_slice(&a.to_be_bytes_trimmed()), a);
    }

    #[test]
    fn trimmed_bytes_no_leading_zero(a in arb_u256()) {
        let t = a.to_be_bytes_trimmed();
        if !t.is_empty() {
            prop_assert_ne!(t[0], 0);
        } else {
            prop_assert!(a.is_zero());
        }
    }

    #[test]
    fn ordering_consistent_with_sub(a in arb_u256(), b in arb_u256()) {
        let (_, borrow) = a.overflowing_sub(b);
        prop_assert_eq!(borrow, a < b);
    }

    #[test]
    fn bitops_de_morgan(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(!(a & b), !a | !b);
        prop_assert_eq!(!(a | b), !a & !b);
    }

    #[test]
    fn display_parse_roundtrip_small(v in any::<u64>()) {
        let s = U256::from(v).to_string();
        prop_assert_eq!(s.parse::<u64>().unwrap(), v);
    }

    #[test]
    fn pow_addition_law_small(b in 0u64..32, e1 in 0u64..8, e2 in 0u64..8) {
        // b^(e1+e2) == b^e1 * b^e2 when everything fits in 256 bits
        // (32^16 < 2^80, so it always fits here).
        let base = U256::from(b);
        prop_assert_eq!(
            base.pow(U256::from(e1 + e2)),
            base.pow(U256::from(e1)) * base.pow(U256::from(e2))
        );
    }
}
