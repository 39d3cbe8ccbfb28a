//! A small property-test runner, under the names the suites spell.
//!
//! A [`Strategy`] draws a value from the tree's one seeded generator
//! ([`bp_types::Rng`]); [`proptest!`] turns `fn name(x in strategy, ..)`
//! into a `#[test]` that checks its body against
//! [`ProptestConfig::cases`] drawn inputs. Case `i` of a test is a function
//! of the test's path and `i` alone, so a failure reproduces by running the
//! test again: there is no persistence file, no environment variable and no
//! shrinking — the failing input is printed with `Debug` as drawn.
//!
//! [`within`] is the suites' watchdog: a test whose wait is never released,
//! or whose loop never ends, fails after [`DEADLINE`] instead of hanging.

#![forbid(unsafe_code)]

use std::fmt::Debug;
use std::ops::{Range, RangeFrom, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use bp_types::rng::UniformInt;
use bp_types::Rng;

/// A recipe for drawing values of one type.
pub trait Strategy {
    /// What the strategy draws.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;

    /// The strategy that draws from `self` and applies `f`.
    fn prop_map<T: Debug>(self, f: impl Fn(Self::Value) -> T) -> impl Strategy<Value = T>
    where
        Self: Sized,
    {
        FromFn(move |rng: &mut Rng| f(self.generate(rng)))
    }

    /// `self` behind a pointer: one nameable, clonable type per value type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// A recursive structure with `self` as its leaves: `recurse` is given
    /// the strategy for one level down and returns the strategy for a node.
    /// Every level draws a leaf half the time, so trees stay small; `depth`
    /// bounds the nesting, the two size hints are accepted and not used.
    fn prop_recursive<S>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: impl Fn(BoxedStrategy<Self::Value>) -> S,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        (0..depth).fold(leaf.clone(), |inner, _| {
            one_of(vec![(1, leaf.clone()), (1, recurse(inner).boxed())]).boxed()
        })
    }
}

/// A strategy from a closure over the generator.
struct FromFn<F>(F);

impl<T: Debug, F: Fn(&mut Rng) -> T> Strategy for FromFn<F> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        (self.0)(rng)
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        self.0.generate(rng)
    }
}

/// Always the same value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut Rng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($range:ident),*) => {$(
        /// Uniform over the range.
        impl<T: UniformInt + Debug> Strategy for $range<T> {
            type Value = T;
            fn generate(&self, rng: &mut Rng) -> T {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(Range, RangeInclusive, RangeFrom);

macro_rules! tuple_strategies {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
}

/// One of `arms`, each with probability proportional to its weight; what
/// [`prop_oneof!`] expands to.
pub fn one_of<T: Debug>(arms: Vec<(u32, BoxedStrategy<T>)>) -> impl Strategy<Value = T> {
    let total: u32 = arms.iter().map(|(weight, _)| weight).sum();
    FromFn(move |rng: &mut Rng| {
        let mut pick = rng.gen_range(0..total);
        for (weight, arm) in &arms {
            if pick < *weight {
                return arm.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("pick < total weight")
    })
}

/// A type with a canonical strategy, for [`any`].
pub trait Arbitrary: Debug + Sized {
    /// Draws one value from the whole type.
    fn arbitrary(rng: &mut Rng) -> Self;
}

/// The canonical strategy of `T`: uniform over the whole type.
pub fn any<T: Arbitrary>() -> impl Strategy<Value = T> {
    FromFn(T::arbitrary)
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut Rng) -> $t {
                rng.gen_range(..)
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut Rng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// Strategies for collections.
pub mod collection {
    use super::*;

    /// A `Vec` of `element`s whose length is uniform in `size`.
    pub fn vec<S: Strategy>(
        element: S,
        size: Range<usize>,
    ) -> impl Strategy<Value = Vec<S::Value>> {
        FromFn(move |rng: &mut Rng| {
            let len = rng.gen_range(size.clone());
            (0..len).map(|_| element.generate(rng)).collect()
        })
    }
}

/// Strategies for `Option`.
pub mod option {
    use super::*;

    /// `None` or `Some` of `inner`, half and half.
    pub fn of<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        FromFn(move |rng: &mut Rng| bool::arbitrary(rng).then(|| inner.generate(rng)))
    }
}

/// Positions in collections whose size is not known when the case is drawn.
pub mod sample {
    use super::*;

    /// A position drawn before the size is known; [`Index::index`] scales
    /// it.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// A position in `0..size`. Panics if `size` is zero.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index: empty collection");
            ((self.0 as u128 * size as u128) >> 64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut Rng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// How many cases a property is checked on.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Cases that must pass; rejected cases do not count.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration that checks `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// Why a case did not pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestCaseError {
    /// The input does not meet the property's precondition
    /// ([`prop_assume!`]); another is drawn in its place.
    Reject(String),
    /// The property does not hold on the input.
    Fail(String),
}

/// A property's first failing case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Index of the case, rejected ones included.
    pub case: u64,
    /// The input, `Debug`-printed.
    pub input: String,
    /// What the property reported.
    pub message: String,
}

/// Rejected cases after which a property is given up on.
const MAX_REJECTS: u64 = 1024;

/// How long [`within`] lets a test body run.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `f` on a thread of its own and returns what it returns, failing if
/// it has not returned within [`DEADLINE`]; a panic in `f` is resumed here.
/// What `f` started keeps running after a timeout: the test fails, and the
/// process ends with the suite.
#[track_caller]
pub fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    match done_rx.recv_timeout(DEADLINE) {
        Ok(value) => {
            worker.join().unwrap();
            value
        }
        // The sender was dropped without sending: `f` panicked.
        Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
        Err(RecvTimeoutError::Timeout) => panic!("not done after {DEADLINE:?}"),
    }
}

/// Checks `test` on `config.cases` inputs drawn from `strategy` and returns
/// the first failure. A panic inside `test` is reported with its input on
/// stderr and resumed.
pub fn check<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) -> Result<(), Failure> {
    // Case `i` is seeded by FNV-1a of the name plus `i`; the generator's
    // output function separates the streams of neighbouring seeds.
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let draw = |case| strategy.generate(&mut Rng::seed_from_u64(seed.wrapping_add(case)));
    // The input is drawn again for the report: a case costs no clone and no
    // formatting unless it fails.
    let input = |case| format!("{:#?}", draw(case));
    let (mut passed, mut case) = (0, 0u64);
    while passed < config.cases {
        match catch_unwind(AssertUnwindSafe(|| test(draw(case)))) {
            Ok(Ok(())) => passed += 1,
            Ok(Err(TestCaseError::Reject(why))) => assert!(
                case - (passed as u64) < MAX_REJECTS,
                "{name}: gave up after {MAX_REJECTS} rejected cases (last: {why})"
            ),
            Ok(Err(TestCaseError::Fail(message))) => {
                return Err(Failure {
                    case,
                    input: input(case),
                    message,
                })
            }
            Err(panic) => {
                eprintln!("{name}: case {case} panicked on input {}", input(case));
                resume_unwind(panic);
            }
        }
        case += 1;
    }
    Ok(())
}

/// [`check`], panicking with the failing case; what [`proptest!`] calls.
pub fn run<S: Strategy>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    if let Err(failure) = check(name, config, strategy, test) {
        panic!(
            "{name}: case {} failed: {}\ninput: {}",
            failure.case, failure.message, failure.input
        );
    }
}

/// Everything a suite imports.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests: `fn name(x in strategy, ..) { body }` items,
/// optionally after `#![proptest_config(config)]`. The body may use `?` on
/// `Result<_, TestCaseError>` and the `prop_assert*!` macros.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@tests ($config) $($rest)*);
    };
    (@tests ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                concat!(module_path!(), "::", stringify!($name)),
                &$config,
                &($($strategy,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@tests ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Fails the case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "{}: `{} == {}`\n  left: {:?}\n right: {:?}",
                format_args!($($fmt)+), stringify!($left), stringify!($right), left, right
            ),
        }
    };
}

/// Fails the case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left != *right,
                "`{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            ),
        }
    };
}

/// Rejects the case unless the precondition holds; a rejected case is
/// replaced, not counted.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(stringify!($cond).into()));
        }
    };
}

/// One of several strategies of the same value type, `weight => strategy`
/// or equally weighted.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![$(($weight, $crate::Strategy::boxed($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}
