//! Offline vendored subset of the `proptest` property-testing crate.
//!
//! The build environment has no crates.io access, so this crate
//! reimplements the slice of the proptest API the workspace's tests
//! use: the `proptest!` macro (including `#![proptest_config(..)]`
//! headers), `prop_assert!`/`prop_assert_eq!`/`prop_assume!`, integer,
//! float and boolean strategies, ranges, tuples, `Just`,
//! `prop_oneof!`, `collection::vec`, and `prop::sample::Index`.
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! deterministic case number; runs are reproducible because the RNG is
//! seeded from the test's module path), and no persistence files.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A source of values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    /// Maps a strategy's output through a function.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Extension adapters (the upstream methods live on `Strategy`).
    pub trait StrategyExt: Strategy + Sized {
        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F> {
            Map { inner: self, f }
        }
    }

    impl<S: Strategy + Sized> StrategyExt for S {}

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    if span == 0 {
                        // Full-width u64 range: any value.
                        return rng.next_u64() as $t;
                    }
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (rng.unit() as $t) * (self.end - self.start)
                }
            }
        )*};
    }

    impl_float_range!(f32, f64);

    macro_rules! impl_tuple {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple!(A);
    impl_tuple!(A, B);
    impl_tuple!(A, B, C);
    impl_tuple!(A, B, C, D);
    impl_tuple!(A, B, C, D, E);
    impl_tuple!(A, B, C, D, E, F);

    /// `any::<T>()` support.
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// Types with a canonical "arbitrary" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit()
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            // Printable ASCII keeps failures readable.
            (0x20u8 + (rng.below(0x5F)) as u8) as char
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        /// The inclusive length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helper types.

    use crate::strategy::Arbitrary;
    use crate::test_runner::TestRng;

    /// An index into a collection of as-yet-unknown size.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Resolves the index against a collection of `len` elements.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "index into empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod test_runner {
    //! Deterministic case generation and configuration.

    /// Run configuration (`cases` is the only knob this subset uses).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// Why a case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the property is falsified.
        Fail(String),
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
    }

    /// The deterministic per-test RNG (splitmix64 core).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test's identifier so every run of a given test
        /// binary generates the same cases.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name: stable across builds and platforms.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// The next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            // Widening multiply; bias is irrelevant for test generation.
            (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
        }

        /// Uniform value in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).

    pub use crate::strategy::{any, Arbitrary, Just, Strategy, StrategyExt};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    pub mod prop {
        //! The `prop::` namespace of the upstream prelude.

        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Defines property tests over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!($cfg => $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            $crate::test_runner::ProptestConfig::default() => $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr => ) => {};
    ($cfg:expr =>
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut __case: u32 = 0;
            let mut __attempts: u32 = 0;
            while __case < __cfg.cases {
                __attempts += 1;
                if __attempts > __cfg.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "proptest: too many prop_assume! rejections in {}",
                        stringify!($name)
                    );
                }
                $(let $p = $crate::strategy::Strategy::sample(&($s), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __result {
                    Ok(()) => __case += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => continue,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {} of {} failed: {}",
                            __case, stringify!($name), msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items!($cfg => $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {:?} != {:?}: {}",
            a,
            b,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// Rejects the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(::std::boxed::Box::new($s) as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in 0u8..=4, f in 0.5f64..1.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn tuples_and_vecs(pair in (1u32..5, 0i64..3), v in crate::collection::vec(0u16..100, 2..6)) {
            prop_assert!(pair.0 >= 1 && pair.0 < 5);
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn oneof_and_assume(b in any::<bool>(), idx in any::<crate::sample::Index>()) {
            let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
            let mut rng = TestRng::for_test("inner");
            let v = Strategy::sample(&s, &mut rng);
            prop_assert!((1u8..=3).contains(&v));
            // Rejects roughly half the generated cases, exercising the
            // runner's retry path.
            prop_assume!(b);
            prop_assert!(idx.index(7) < 7);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let mut c = TestRng::for_test("y");
        let v = a.next_u64();
        assert_eq!(v, b.next_u64());
        assert_ne!(v, c.next_u64());
    }
}
