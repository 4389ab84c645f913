//! The workspace's property-test runner (a dev-dependency only).
//!
//! A property is a [`Strategy`] that draws an input from the workspace's
//! seeded generator and a body that returns `Err` through the
//! `prop_assert*!` macros. [`run_cases`] — which [`proptest!`] expands to —
//! seeds every case from the test's name and the case index, so the cases
//! of a test are the same on every run and machine: a failure names its
//! case and seed and prints the input, and re-running the test replays it.
//! There is no shrinking and no environment variable.
//!
//! The surface is exactly what the workspace's property suites use:
//! numeric ranges, tuples, [`collection::vec`], [`Strategy::prop_map`] /
//! [`Strategy::prop_flat_map`], [`Just`], [`bool::ANY`], [`option::of`],
//! [`sample::select`] / [`sample::Index`], [`any`], [`prop_oneof!`] and
//! `"[class]{m,n}"` string patterns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emap_dsp::rng::SeededRng;

pub mod strategy;

pub use strategy::{any, boxed, Just, OneOf, Strategy};

/// What the suites import: `use emap_testkit::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Strategies for collections.
pub mod collection {
    pub use crate::strategy::{vec, SizeRange};
}

/// Strategies for `bool`.
pub mod bool {
    /// Either value, equally likely.
    pub const ANY: crate::strategy::Any<bool> = crate::strategy::Any::NEW;
}

/// Strategies for `Option`.
pub mod option {
    pub use crate::strategy::of;
}

/// Strategies that pick from given values, and [`sample::Index`].
pub mod sample {
    pub use crate::strategy::{select, Index};
}

/// How many cases a property runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Cases that must pass (rejected cases do not count).
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The property does not hold for this input.
    Fail(String),
    /// The input does not meet a `prop_assume!` precondition; another is
    /// drawn in its place.
    Reject,
}

impl TestCaseError {
    /// A failure with `reason`.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(reason) => write!(f, "failed: {reason}"),
            TestCaseError::Reject => f.write_str("input rejected"),
        }
    }
}

/// Rejected cases a property may draw before it is reported as vacuous.
const MAX_REJECTS: u32 = 1024;

/// The seed of case `index` of the property `name`: FNV-1a over the name,
/// offset by the index (the generator's splitmix64 expansion decorrelates
/// neighbouring seeds).
fn case_seed(name: &str, index: u32) -> u64 {
    let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    hash.wrapping_add(u64::from(index))
}

/// Runs `test` on `config.cases` inputs drawn from `strategy`.
///
/// # Panics
///
/// Panics on the first failing case, naming the case, its seed and the
/// `Debug` form of its input, and when more than 1024 cases are rejected.
pub fn run_cases<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    name: &str,
    mut test: impl FnMut(S::Value) -> Result<(), TestCaseError>,
) {
    let (mut passed, mut rejected, mut index) = (0u32, 0u32, 0u32);
    while passed < config.cases {
        let seed = case_seed(name, index);
        match test(strategy.generate(&mut SeededRng::seed_from_u64(seed))) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= MAX_REJECTS,
                    "property `{name}` rejected {rejected} inputs and passed only {passed}"
                );
            }
            Err(TestCaseError::Fail(reason)) => {
                // The body consumed the input; the seed draws it again.
                let input = strategy.generate(&mut SeededRng::seed_from_u64(seed));
                panic!(
                    "property `{name}` failed in case {index} (seed {seed:#018x}): {reason}\n\
                     input: {input:#?}"
                );
            }
        }
        index += 1;
    }
}

/// Declares `#[test]` functions whose arguments are drawn from strategies:
///
/// ```
/// use emap_testkit::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     # /*
///     #[test]
///     # */
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # addition_commutes();
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_cases(
                    &$config,
                    &($($strategy,)+),
                    stringify!($name),
                    |($($arg,)+)| {
                        $body
                        Ok(())
                    },
                );
            }
        )*
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
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the case unless both sides are equal, printing them.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "{} == {}", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => {
                if !(*left == *right) {
                    return Err($crate::TestCaseError::fail(format!(
                        "{}\n  left: {:?}\n right: {:?}",
                        format_args!($($fmt)+),
                        left,
                        right
                    )));
                }
            }
        }
    };
}

/// Rejects the case (another input is drawn) unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// One of the given strategies (all of one value type), equally likely.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::run_cases;

    /// The message `run` panics with.
    fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(run).expect_err("the property must fail");
        payload
            .downcast_ref::<String>()
            .expect("panic! with a format string")
            .clone()
    }

    fn drawn<S: Strategy>(strategy: &S, name: &str, cases: u32) -> Vec<String> {
        let mut seen = Vec::new();
        run_cases(
            &ProptestConfig::with_cases(cases),
            strategy,
            name,
            |value| {
                seen.push(format!("{value:?}"));
                Ok(())
            },
        );
        seen
    }

    #[test]
    fn same_name_same_cases_and_other_name_other_cases() {
        let strategy = (0u64..1 << 40, prop::collection::vec(-1.0f32..1.0, 0..5));
        let a = drawn(&strategy, "some_property", 40);
        assert_eq!(a.len(), 40);
        assert_eq!(a, drawn(&strategy, "some_property", 40));
        assert_ne!(a, drawn(&strategy, "another_property", 40));
        assert_eq!(ProptestConfig::default().cases, 256);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every strategy stays inside what it was asked for.
        #[test]
        fn strategies_respect_their_bounds(
            (a, b, c) in (-30i8..=30, 5usize..9, 0u64..1 << 48),
            (x, y) in (-480.0f32..480.0, 2.5f64..=2.5),
            v in prop::collection::vec(any::<u8>(), 2..=4),
            fixed in prop::collection::vec(prop::bool::ANY, 3),
            picked in prop::sample::select(vec![1e-3f32, 0.7, 30.0]),
            at in any::<prop::sample::Index>(),
            maybe in prop::option::of(8usize..200),
            label in "[a-zA-Z0-9][a-z /-]{0,13}x",
            one in prop_oneof![Just(128.0f64), (0.0f64..1.0).prop_map(|v| v + 200.0)],
            nested in (1usize..4).prop_flat_map(|n| prop::collection::vec(Just(n), n)),
        ) {
            prop_assert!((-30..=30).contains(&a) && (5..9).contains(&b) && c < 1 << 48);
            prop_assert!((-480.0..480.0).contains(&x));
            prop_assert_eq!(y, 2.5);
            prop_assert!((2..=4).contains(&v.len()));
            prop_assert_eq!(fixed.len(), 3);
            prop_assert!([1e-3f32, 0.7, 30.0].contains(&picked));
            prop_assert!(at.index(7) < 7);
            prop_assert!(maybe.is_none_or(|m| (8..200).contains(&m)));
            let chars: Vec<char> = label.chars().collect();
            prop_assert!((2..=15).contains(&chars.len()), "{:?}", label);
            prop_assert!(chars[0].is_ascii_alphanumeric() && chars[chars.len() - 1] == 'x');
            prop_assert!(chars[1..chars.len() - 1]
                .iter()
                .all(|c| c.is_ascii_lowercase() || " /-".contains(*c)));
            prop_assert!(one == 128.0 || (200.0..201.0).contains(&one));
            prop_assert_eq!(&nested, &vec![nested.len(); nested.len()]);
        }
    }

    #[test]
    fn ranges_cover_both_ends_and_options_both_arms() {
        let ints = drawn(&(0u8..3), "ends", 200);
        for v in ["0", "1", "2"] {
            assert!(ints.iter().any(|s| s == v), "{v} never drawn");
        }
        let options = drawn(&prop::option::of(Just(1)), "arms", 200);
        assert!(options.iter().any(|s| s == "None") && options.iter().any(|s| s == "Some(1)"));
        let bools = drawn(&any::<bool>(), "coin", 200);
        assert!(bools.iter().any(|s| s == "true") && bools.iter().any(|s| s == "false"));
    }

    #[test]
    fn a_failing_property_reports_case_seed_and_input_and_replays() {
        let failing = || {
            run_cases(
                &ProptestConfig::with_cases(64),
                &(0u32..1000, "[a-z]{3}"),
                "fails_above_500",
                |(n, _label)| {
                    prop_assert!(n < 500, "n = {}", n);
                    Ok(())
                },
            );
        };
        let first = panic_message(failing);
        assert!(
            first.contains("property `fails_above_500` failed in case "),
            "{first}"
        );
        assert!(first.contains("(seed 0x"), "{first}");
        assert!(first.contains("n = "), "{first}");
        assert!(first.contains("input: (\n"), "{first}");
        // Re-running is the replay: same case, same seed, same input.
        assert_eq!(first, panic_message(failing));

        let eq = panic_message(|| {
            run_cases(&ProptestConfig::default(), &Just(2), "eq", |n| {
                prop_assert_eq!(n + 1, 2, "off by {}", 1);
                Ok(())
            });
        });
        assert!(eq.contains("off by 1\n  left: 3\n right: 2"), "{eq}");
        let helper = panic_message(|| {
            run_cases(&ProptestConfig::default(), &Just(2), "helper", |_| {
                Err(TestCaseError::fail("wrong message type back"))
            });
        });
        assert!(helper.contains("wrong message type back"), "{helper}");
    }

    #[test]
    fn rejected_cases_are_redrawn_and_an_unsatisfiable_assumption_is_reported() {
        let mut evens = 0;
        run_cases(
            &ProptestConfig::with_cases(50),
            &(0u32..100),
            "evens_only",
            |n| {
                prop_assume!(n % 2 == 0);
                evens += 1;
                Ok(())
            },
        );
        assert_eq!(evens, 50);
        let vacuous = panic_message(|| {
            run_cases(&ProptestConfig::default(), &Just(1), "never", |n| {
                prop_assume!(n == 0);
                Ok(())
            });
        });
        assert!(vacuous.contains("rejected 1025 inputs"), "{vacuous}");
    }
}
