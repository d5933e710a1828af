//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: the [`proptest!`] macro with
//! optional `#![proptest_config(...)]`, `prop_assert*` / `prop_assume!`,
//! [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, [`strategy::Just`], [`arbitrary::any`], and
//! [`collection::vec`]. Differences from upstream: cases are generated
//! from a fixed deterministic seed (no env-controlled RNG, so failures
//! always reproduce), and failing cases are reported but *not* shrunk.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Per-test configuration (only `cases` is honoured).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; 64 keeps the suite fast while
            // still covering the small discrete config spaces used here.
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a generated case did not count as a success.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the message describes it.
        Fail(String),
        /// `prop_assume!` rejected the inputs; retry with fresh ones.
        Reject,
    }

    /// Deterministic RNG driving strategy generation.
    pub struct TestRng(StdRng);

    impl TestRng {
        /// RNG for attempt number `attempt` of the test named `name`.
        /// Same (name, attempt) always yields the same stream.
        pub fn deterministic(name: &str, attempt: u64) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(h ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        }
    }

    impl Rng for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::{Rng, RngExt, SampleRange};
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree / shrinking: `generate`
    /// draws a single concrete value.
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { source: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, T, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        T: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// Strategy that always yields a clone of its value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between same-valued strategies, built by
    /// [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T: Debug + 'static> Union<T> {
        /// Starts a union with one arm.
        pub fn of<S: Strategy<Value = T> + 'static>(s: S) -> Self {
            Union { arms: vec![Box::new(s)] }
        }

        /// Adds an arm.
        pub fn or<S: Strategy<Value = T> + 'static>(mut self, s: S) -> Self {
            self.arms.push(Box::new(s));
            self
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    // Bias 1-in-8 draws to each boundary: small discrete
                    // configs (world sizes, chunk counts) fail at the
                    // edges far more often than in the middle.
                    match rng.next_u64() & 7 {
                        0 => self.start,
                        1 => self.end - 1,
                        _ => rng.random_range(self.clone()),
                    }
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    match rng.next_u64() & 7 {
                        0 => *self.start(),
                        1 => *self.end(),
                        _ => rng.random_range(self.clone()),
                    }
                }
            }
        )*};
    }

    int_range_strategy!(u32, u64, usize, i32, i64);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    SampleRange::sample(self.clone(), rng)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F, 6 G, 7 H)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy, usable via [`any`].
    pub trait Arbitrary: Debug + Sized {
        /// Draws a value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`'s full domain, e.g. `any::<u64>()`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;
    use std::ops::Range;

    /// Length specifications accepted by [`vec`](fn@vec): an exact `usize` or a
    /// `Range<usize>`.
    pub trait IntoSizeRange {
        /// Half-open `[lo, hi)` bounds on the length.
        fn size_bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn size_bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn size_bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// Strategy returned by [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len =
                if self.lo + 1 >= self.hi { self.lo } else { rng.random_range(self.lo..self.hi) };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.size_bounds();
        assert!(lo < hi, "empty size range for collection::vec");
        VecStrategy { element, lo, hi }
    }
}

/// The common imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Uniform choice between strategies yielding the same value type
/// (upstream's weighted form is not supported — all arms are
/// equiprobable).
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $rest:expr)* $(,)?) => {{
        let u = $crate::strategy::Union::of($first);
        $(let u = u.or($rest);)*
        u
    }};
}

/// Fails the current case with a message (formatted like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), format!($($fmt)+), __l, __r
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

/// Rejects the current inputs; the runner retries with fresh ones.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Declares property tests. Supports the upstream surface this workspace
/// uses: an optional leading `#![proptest_config(expr)]` and any number
/// of `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)
     $($(#[$meta:meta])*
       fn $name:ident($($p:pat_param in $s:expr),+ $(,)?) $body:block)*
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let __strategy = ($($s,)+);
            let mut __case: u32 = 0;
            let mut __attempt: u64 = 0;
            let mut __rejects: u32 = 0;
            while __case < __config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name), __attempt);
                __attempt += 1;
                let __vals = $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                let __desc = format!("{:?}", __vals);
                let ($($p,)+) = __vals;
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __result {
                    ::std::result::Result::Ok(()) => {
                        __case += 1;
                        __rejects = 0;
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {
                        __rejects += 1;
                        assert!(
                            __rejects <= 1000,
                            "proptest '{}': too many inputs rejected by prop_assume! \
                             (last rejected: {})",
                            stringify!($name),
                            __desc
                        );
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}:\n  {}\n  inputs: {}",
                            stringify!($name),
                            __case,
                            msg,
                            __desc
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(a in 1usize..10, b in 0u32..=4, f in 0.5f32..1.0) {
            prop_assert!((1..10).contains(&a));
            prop_assert!(b <= 4);
            prop_assert!((0.5..1.0).contains(&f));
        }

        #[test]
        fn map_and_flat_map_compose(v in (1usize..5).prop_flat_map(|n| {
            (Just(n), crate::collection::vec(0i32..100, n))
        })) {
            let (n, items) = v;
            prop_assert_eq!(items.len(), n);
        }

        #[test]
        fn assume_retries(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = (1usize..100, 0.0f64..1.0);
        let a = s.generate(&mut TestRng::deterministic("t", 3));
        let b = s.generate(&mut TestRng::deterministic("t", 3));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0usize..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
