//! Minimal `proptest` shim.
//!
//! Keeps the `proptest! { #[test] fn f(x in strategy, y: Type) { .. } }`
//! surface, `Strategy` combinators (`prop_map`, `collection::vec`,
//! `sample::select`, `any::<T>()`), and the `prop_assert*` macros. Cases
//! are sampled from a deterministic per-test RNG (seeded from the test's
//! module path), run N times, and failures panic with the formatted
//! message. There is **no shrinking** — a failing case reports the raw
//! inputs via the assertion message instead.

use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64 core — self-contained on purpose).
// ---------------------------------------------------------------------------

/// The RNG handed to strategies during sampling.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniformly-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, bound) via multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Config + runner used by the proptest! expansion.
// ---------------------------------------------------------------------------

/// Subset of proptest's run configuration: just the case count.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to sample per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Drives one `proptest!`-generated test: owns the RNG and case count.
pub struct TestRunner {
    rng: TestRng,
    cases: u32,
}

impl TestRunner {
    /// Runner seeded deterministically from the test's full path.
    pub fn new(config: ProptestConfig, name: &str) -> Self {
        TestRunner {
            rng: TestRng::from_seed(fnv1a(name)),
            cases: config.cases,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The sampling RNG.
    pub fn rng(&mut self) -> &mut TestRng {
        &mut self.rng
    }
}

// ---------------------------------------------------------------------------
// Strategy trait + combinators.
// ---------------------------------------------------------------------------

/// A recipe for generating values of `Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        MapStrategy { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for MapStrategy<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}
strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! strategy_for_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}
strategy_for_float_range!(f32, f64);

macro_rules! strategy_for_tuple {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}
strategy_for_tuple! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

// ---------------------------------------------------------------------------
// any::<T>() / Arbitrary.
// ---------------------------------------------------------------------------

/// Types with a canonical whole-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_for_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_for_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.unit_f64()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------------
// collection / sample modules.
// ---------------------------------------------------------------------------

/// Collection strategies (`vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start
                + if span == 0 {
                    0
                } else {
                    rng.below(span) as usize
                };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec<T>` of a length drawn from `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Sampling strategies (`select`, `Index`).
pub mod sample {
    use super::{Arbitrary, Strategy, TestRng};

    /// Strategy returned by [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            assert!(!self.options.is_empty(), "select of empty options");
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// One of `options`, uniformly.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        Select { options }
    }

    /// A deferred index: resolves against a collection length at use time.
    #[derive(Clone, Copy, Debug)]
    pub struct Index {
        raw: u64,
    }

    impl Index {
        /// This index resolved modulo a collection of length `len`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.raw % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index {
                raw: rng.next_u64(),
            }
        }
    }
}

/// The usual proptest imports.
pub mod prelude {
    /// `prop::sample::...` / `prop::collection::...` path alias.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestRng, TestRunner,
    };
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Property-test harness: samples each parameter from its strategy and
/// runs the body `config.cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$attr:meta])*
        fn $name:ident($($params:tt)*) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(
                config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..runner.cases() {
                $crate::proptest!(@bind runner, ($($params)*) {
                    let outcome = (|| -> ::std::result::Result<(), ::std::string::String> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                    if let Err(msg) = outcome {
                        panic!(
                            "proptest {} failed at case {}: {}",
                            stringify!($name), case, msg
                        );
                    }
                });
            }
        }
    )*};
    // Parameter binding: `name in strategy` or `name: Type`, in any mix.
    (@bind $runner:ident, () $done:block) => { $done };
    (@bind $runner:ident, ($p:ident in $s:expr) $done:block) => {{
        let $p = $crate::Strategy::sample(&($s), $runner.rng());
        $done
    }};
    (@bind $runner:ident, ($p:ident in $s:expr, $($rest:tt)*) $done:block) => {{
        let $p = $crate::Strategy::sample(&($s), $runner.rng());
        $crate::proptest!(@bind $runner, ($($rest)*) $done)
    }};
    (@bind $runner:ident, ($p:ident : $t:ty) $done:block) => {{
        let $p: $t = $crate::Strategy::sample(&$crate::any::<$t>(), $runner.rng());
        $done
    }};
    (@bind $runner:ident, ($p:ident : $t:ty, $($rest:tt)*) $done:block) => {{
        let $p: $t = $crate::Strategy::sample(&$crate::any::<$t>(), $runner.rng());
        $crate::proptest!(@bind $runner, ($($rest)*) $done)
    }};
    // No config attribute: fall through with the default.
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err(format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($a), stringify!($b), a
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in -2.0f64..2.0, z: bool) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            let _ = z;
        }

        #[test]
        fn vec_and_tuple_strategies(v in prop::collection::vec((0u8..4, 0.0f64..1.0), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for (n, f) in v {
                prop_assert!(n < 4);
                prop_assert!((0.0..1.0).contains(&f));
            }
        }

        #[test]
        fn select_and_map(cmd in prop::sample::select(vec![10u32, 20, 30]).prop_map(|c| c + 1),
                          idx in any::<prop::sample::Index>()) {
            prop_assert!(cmd == 11 || cmd == 21 || cmd == 31);
            prop_assert!(idx.index(7) < 7);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRunner::new(ProptestConfig::with_cases(4), "x");
        let mut b = TestRunner::new(ProptestConfig::with_cases(4), "x");
        for _ in 0..16 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }
}
