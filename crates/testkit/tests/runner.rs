//! The runner's own contract: a false property fails on a printed input and
//! on the same case every time, rejections are replaced, every arm of a
//! weighted choice is reached.

use std::cell::Cell;

use bp_testkit::prelude::*;
use bp_testkit::{check, run};

#[test]
fn a_property_false_for_one_input_fails_there_and_again_on_a_rerun() {
    let config = ProptestConfig::with_cases(4096);
    let holds_but_for_137 = |(x,): (u16,)| {
        prop_assert!(x != 137, "{x} is the one");
        Ok(())
    };
    let first = check("one_in_300", &config, &(0u16..300,), holds_but_for_137)
        .expect_err("4096 draws from 300 values reach 137");
    assert_eq!(first.message, "137 is the one");
    assert!(
        first.input.contains("137"),
        "input printed: {}",
        first.input
    );
    let again = check("one_in_300", &config, &(0u16..300,), holds_but_for_137);
    assert_eq!(again, Err(first.clone()));
    // Another test name draws another sequence.
    let other = check("another_name", &config, &(0u16..300,), holds_but_for_137)
        .expect_err("reaches 137 too");
    assert_ne!(other.case, first.case);

    let report =
        std::panic::catch_unwind(|| run("one_in_300", &config, &(0u16..300,), holds_but_for_137))
            .expect_err("run panics where check fails");
    let report = report.downcast_ref::<String>().expect("a formatted panic");
    assert!(report.contains(&format!("case {} failed", first.case)));
    assert!(report.contains("137"));
}

#[test]
fn rejected_cases_are_replaced_not_counted() {
    let (accepted, rejected) = (Cell::new(0), Cell::new(0));
    run(
        "halves",
        &ProptestConfig::with_cases(100),
        &(any::<bool>(),),
        |(keep,)| {
            if !keep {
                rejected.set(rejected.get() + 1);
            }
            prop_assume!(keep);
            accepted.set(accepted.get() + 1);
            Ok(())
        },
    );
    assert_eq!(accepted.get(), 100);
    assert!(rejected.get() > 0);
}

#[test]
#[should_panic(expected = "gave up after 1024 rejected cases")]
fn a_precondition_nothing_meets_gives_up() {
    run("never", &ProptestConfig::default(), &(0u8..4,), |(x,)| {
        prop_assume!(x > 10);
        Ok(())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ranges keep their bounds, `Index` scales into any size, `vec` keeps
    /// its length range — through the macro, as the suites use them.
    #[test]
    fn drawn_values_respect_their_strategies(
        small in 3u8..7,
        closed in 1usize..=16,
        open in 1u64..,
        at in any::<prop::sample::Index>(),
        items in prop::collection::vec((any::<u8>(), prop::option::of(Just(9u8))), 2..5),
    ) {
        prop_assert!((3..7).contains(&small));
        prop_assert!((1..=16).contains(&closed));
        prop_assert_ne!(open, 0);
        prop_assert!(at.index(items.len()) < items.len());
        prop_assert!((2..5).contains(&items.len()));
        for (_, nine) in items {
            prop_assert_eq!(nine.unwrap_or(9), 9);
        }
    }
}

#[test]
fn weighted_choice_reaches_every_arm_about_in_proportion() {
    let arms = prop_oneof![8 => Just(0usize), 1 => Just(1usize), 1 => 2usize..3];
    let mut hits = [0u32; 3];
    let mut rng = bp_types::Rng::seed_from_u64(5);
    for _ in 0..1000 {
        hits[arms.generate(&mut rng)] += 1;
    }
    assert!(hits[0] > 700 && hits[1] > 50 && hits[2] > 50, "{hits:?}");
}
