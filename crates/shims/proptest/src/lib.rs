//! Vendored work-alike shim for the slice of `proptest` this workspace
//! uses: the `proptest!` macro, `Strategy` with `prop_map` /
//! `prop_filter` / `prop_flat_map`, range and tuple strategies,
//! `prop::collection::vec`, `prop::sample::select`, `prop::num::f32::NORMAL`,
//! `any::<T>()`, and the `prop_assert*` macros.
//!
//! Each test runs `ProptestConfig::cases` deterministic cases (seeded from
//! the test's module path), with filter rejections retried. There is no
//! shrinking: a failing case reports its assertion message and the case
//! index, which together with determinism is enough to reproduce.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Strategy constructors, namespaced as upstream (`prop::collection::vec`…).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::{vec, SizeRange, VecStrategy};
    }
    /// Sampling strategies.
    pub mod sample {
        pub use crate::strategy::{select, Select};
    }
    /// Numeric bit-pattern strategies.
    pub mod num {
        /// `f32` strategies.
        pub mod f32 {
            pub use crate::strategy::NORMAL;
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] items — not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            let mut rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut case: u32 = 0;
            let mut attempts: u32 = 0;
            while case < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(200).max(10_000),
                    "proptest {}: too many strategy rejections",
                    stringify!($name)
                );
                let ($($arg,)+) =
                    match $crate::strategy::Strategy::generate(&strategy, &mut rng) {
                        Some(v) => v,
                        None => continue, // filter rejection — resample
                    };
                let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                })();
                if let Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}: {}",
                        stringify!($name),
                        case,
                        e
                    );
                }
                case += 1;
            }
        }
    )*};
}

/// Assert inside a `proptest!` body, failing the case (not the process
/// outright) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} ({:?} != {:?})", format!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..10, y in -4i32..=4, z in 0.5f32..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.5..2.0).contains(&z));
        }

        #[test]
        fn map_filter_flat_map_compose(
            v in (1usize..5).prop_flat_map(|n| prop::collection::vec(0u32..100, n)),
            odd in (0u32..1000).prop_map(|x| x * 2 + 1).prop_filter("odd", |x| x % 2 == 1),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(odd % 2 == 1, "odd was {}", odd);
        }

        #[test]
        fn select_and_any(t in prop::sample::select(vec![32u32, 64, 128]), bits in any::<u16>()) {
            prop_assert!(t == 32 || t == 64 || t == 128);
            let _ = bits;
        }

        #[test]
        fn normal_floats_are_normal(x in prop::num::f32::NORMAL) {
            prop_assert!(x.is_normal());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::from_name("fixed");
        let mut b = crate::test_runner::TestRng::from_name("fixed");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            #[allow(unused)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
