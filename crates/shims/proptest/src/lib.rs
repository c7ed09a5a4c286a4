//! Offline stand-in for `proptest`.
//!
//! The build environment has no registry access, so this workspace-local
//! crate reimplements the slice of the proptest API the test suites use:
//! the [`Strategy`] trait with `prop_map`/`prop_recursive`, `any::<T>()`
//! for primitives and arrays, range and tuple strategies, a regex-lite
//! string strategy (`"[chars]{m,n}"`), `collection::vec`/`btree_map`,
//! `option::of`, and the `proptest!`/`prop_assert*!` macros.
//!
//! Differences from real proptest: cases are generated from a fixed seed
//! (deterministic across runs) and failures are *not* shrunk — the
//! failing input is printed as-is. For regression-style property suites
//! that trade-off is fine, and it keeps this shim small.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

// The `proptest!` macro expansion needs the rand shim regardless of the
// calling crate's own dependency list.
#[doc(hidden)]
pub use rand as __rand;

/// RNG handed to strategies while generating a case.
pub type TestRng = StdRng;

/// Something that can generate random values of type `Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy behind an `Arc` so it can be cloned and
    /// stored uniformly (used by [`prop_oneof!`] and recursion).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Arc::new(self),
        }
    }

    /// Builds recursive structures: `self` generates leaves, and `f`
    /// wraps an inner strategy into a deeper one, up to `depth` levels.
    /// The `_desired_size`/`_expected_branch_size` parameters exist for
    /// signature parity with proptest and are unused here.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let deeper = f(strat).boxed();
            // 25% chance to stop at a leaf at each level so generated
            // trees vary in depth.
            strat = Union {
                arms: vec![leaf.clone(), deeper.clone(), deeper.clone(), deeper],
            }
            .boxed();
        }
        strat
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Arc<dyn Strategy<Value = V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate(rng)
    }
}

/// Uniform choice between same-valued strategies (backs [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Chooses uniformly among `arms` each generation.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn generate(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for any value of an [`Arbitrary`] type.
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The `any::<T>()` entry point.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                // Bias toward edge values: proptest finds boundary bugs
                // because its generators favour extremes; emulate that.
                match rng.gen_range(0u8..8) {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => 1,
                    _ => rng.gen::<u64>() as $t,
                }
            }
        }
    )*};
}

arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<f64>()
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

// Integer ranges are strategies, as in proptest.
macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, f64);

// Tuples of strategies are strategies.
macro_rules! tuple_strategy {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A 0);
tuple_strategy!(A 0, B 1);
tuple_strategy!(A 0, B 1, C 2);
tuple_strategy!(A 0, B 1, C 2, D 3);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9);

/// Regex-lite string strategy: `&str` patterns of the form
/// `[chars]{m,n}`, `[chars]{m}`, or `[chars]` (single char), where the
/// class may contain literal characters and `a-z`-style ranges. This is
/// the subset the workspace's property tests use; anything fancier
/// panics with a clear message rather than silently misgenerating.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (alphabet, min, max) = parse_char_class_pattern(self);
        let len = rng.gen_range(min..=max);
        (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }
}

fn parse_char_class_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let bytes: Vec<char> = pattern.chars().collect();
    assert!(
        bytes.first() == Some(&'['),
        "string strategy shim only supports '[class]{{m,n}}' patterns, got {pattern:?}"
    );
    let close = bytes
        .iter()
        .position(|&c| c == ']')
        .unwrap_or_else(|| panic!("unterminated char class in {pattern:?}"));
    let class = &bytes[1..close];
    let mut alphabet = Vec::new();
    let mut i = 0;
    while i < class.len() {
        if i + 2 < class.len() && class[i + 1] == '-' {
            let (lo, hi) = (class[i], class[i + 2]);
            assert!(lo <= hi, "inverted range in {pattern:?}");
            for c in lo..=hi {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(class[i]);
            i += 1;
        }
    }
    assert!(!alphabet.is_empty(), "empty char class in {pattern:?}");
    let rest: String = bytes[close + 1..].iter().collect();
    if rest.is_empty() {
        return (alphabet, 1, 1);
    }
    assert!(
        rest.starts_with('{') && rest.ends_with('}'),
        "string strategy shim only supports a {{m,n}} quantifier, got {pattern:?}"
    );
    let inner = &rest[1..rest.len() - 1];
    let (min, max) = match inner.split_once(',') {
        Some((m, n)) => (m.trim().parse().unwrap(), n.trim().parse().unwrap()),
        None => {
            let m: usize = inner.trim().parse().unwrap();
            (m, m)
        }
    };
    assert!(min <= max, "inverted quantifier in {pattern:?}");
    (alphabet, min, max)
}

/// Collection strategies (`vec`, `btree_map`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::BTreeMap;

    /// Acceptable length specifications for collections.
    pub trait IntoSizeRange {
        /// Lower and inclusive upper length bound.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty collection size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    /// Strategy for vectors with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.min..=self.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap`s with *up to* the requested number of
    /// entries (duplicate keys collapse, as in proptest).
    pub fn btree_map<K: Strategy, V: Strategy>(
        keys: K,
        values: V,
        size: impl IntoSizeRange,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        let (min, max) = size.bounds();
        BTreeMapStrategy {
            keys,
            values,
            min,
            max,
        }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        keys: K,
        values: V,
        min: usize,
        max: usize,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.min..=self.max);
            (0..len)
                .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
                .collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Generates `None` about a quarter of the time, `Some` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.gen_range(0u8..4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Per-`proptest!` block configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Error type carried by `prop_assert*` failures.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// Result type of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The commonly used names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking immediately) so the harness can report the inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Discards the current case when its inputs don't satisfy a
/// precondition. The shim simply skips the case (no rejection budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares property tests. Supports the standard form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop_name(x in strategy1(), y in strategy2()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[allow(unused_mut)]
        fn $name() {
            let config = $config;
            // Seed differs per property (by name, FNV-1a) but is stable
            // across runs, so failures are reproducible.
            let seed = {
                let name = concat!(module_path!(), "::", stringify!($name));
                let mut h: u64 = 0xcbf29ce484222325;
                for b in name.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
                h
            };
            let mut rng = <$crate::TestRng as $crate::__rand::SeedableRng>::seed_from_u64(seed);
            for case in 0..config.cases {
                // `$arg` is a pattern (`x`, `mut x`, ...), so values are
                // drawn into a tuple and bound by destructuring; the
                // tuple's Debug output doubles as the failure report.
                let inputs = ( $($crate::Strategy::generate(&($strategy), &mut rng),)+ );
                let dump = format!("{:?}", &inputs);
                let result: $crate::TestCaseResult = {
                    let ($($arg,)+) = inputs;
                    (move || {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })()
                };
                if let Err($crate::TestCaseError(msg)) = result {
                    panic!(
                        "property {} failed at case {}/{}:\n{}\ninputs {} = {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        msg,
                        stringify!(($($arg),+)),
                        dump,
                    );
                }
            }
        }
    )*};
    // No inner config attribute: run with the default configuration.
    ($(#[$meta:meta])* fn $($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $(#[$meta])* fn $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn char_class_parsing() {
        let (alphabet, min, max) = super::parse_char_class_pattern("[a-c]{2,5}");
        assert_eq!(alphabet, vec!['a', 'b', 'c']);
        assert_eq!((min, max), (2, 5));
        let (alphabet, min, max) = super::parse_char_class_pattern("[xy]");
        assert_eq!(alphabet, vec!['x', 'y']);
        assert_eq!((min, max), (1, 1));
        let (alphabet, _, _) = super::parse_char_class_pattern("[ ()&|Oorgf0-9.,-]{0,64}");
        assert!(alphabet.contains(&'('));
        assert!(alphabet.contains(&'-'));
        assert!(alphabet.contains(&'7'));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in 0usize..100) {
            prop_assert!((3..9).contains(&x));
            prop_assert!(y < 100);
        }

        #[test]
        fn strings_match_pattern(s in "[a-f]{1,4}") {
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='f').contains(&c)));
        }

        #[test]
        fn vec_lengths_respected(v in crate::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u8..3).prop_map(|x| x as u32),
            (10u8..13).prop_map(|x| x as u32),
        ]) {
            prop_assert!(v < 3 || (10..13).contains(&v));
        }
    }
}
