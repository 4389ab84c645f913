//! [`Strategy`] and its implementations.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

use emap_dsp::rng::SeededRng;

/// A recipe for drawing test inputs from the seeded generator.
pub trait Strategy {
    /// What is drawn; `Debug` so a failing input can be printed.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut SeededRng) -> Self::Value;

    /// The strategy drawing `f(value)`.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// The strategy drawing from the strategy `f(value)` returns.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn generate(&self, rng: &mut SeededRng) -> T {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut SeededRng) -> S2::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// Always the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _: &mut SeededRng) -> T {
        self.0.clone()
    }
}

/// Erases a strategy's type (what [`crate::prop_oneof!`] stores).
pub fn boxed<S: Strategy + 'static>(strategy: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(strategy)
}

/// See [`crate::prop_oneof!`].
pub struct OneOf<T>(Vec<Box<dyn Strategy<Value = T>>>);

impl<T> OneOf<T> {
    /// One of `arms`, equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs a strategy");
        OneOf(arms)
    }
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeededRng) -> T {
        self.0[rng.index(self.0.len())].generate(rng)
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SeededRng) -> $t {
                assert!(self.start < self.end, "empty range");
                int_between(rng, self.start as i128, self.end as i128 - 1) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SeededRng) -> $t {
                assert!(self.start() <= self.end(), "empty range");
                int_between(rng, *self.start() as i128, *self.end() as i128) as $t
            }
        }

        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SeededRng) -> $t {
                rng.u64() as $t
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// Uniform in `lo..=hi` (at most 2⁶⁴ values): a widening multiply maps 64
/// random bits onto the span.
fn int_between(rng: &mut SeededRng, lo: i128, hi: i128) -> i128 {
    let span = (hi - lo + 1) as u128;
    lo + ((u128::from(rng.u64()) * span) >> 64) as i128
}

macro_rules! float_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SeededRng) -> $t {
                let v = rng.range_f64(f64::from(self.start)..f64::from(self.end)) as $t;
                // Narrowing can round up onto the excluded end.
                if v >= self.end { self.start } else { v }
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut SeededRng) -> $t {
                rng.range_f64_inclusive(f64::from(*self.start())..=f64::from(*self.end())) as $t
            }
        }
    )*};
}
float_strategies!(f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut SeededRng) -> Self::Value {
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
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
}

/// How long a [`vec()`] may be: a `usize`, `a..b` or `a..=b`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Vectors of `element` draws whose length is uniform in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SeededRng) -> Vec<S::Value> {
        let len = (self.size.min..=self.size.max).generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// See [`of`].
pub struct OptionStrategy<S>(S);

/// `None` or `Some` of an `inner` draw, equally likely.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy(inner)
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;

    fn generate(&self, rng: &mut SeededRng) -> Option<S::Value> {
        rng.bool(0.5).then(|| self.0.generate(rng))
    }
}

/// See [`select`].
pub struct Select<T>(Vec<T>);

/// One of `values`, equally likely.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn select<T: Clone + Debug>(values: Vec<T>) -> Select<T> {
    assert!(!values.is_empty(), "select needs a value");
    Select(values)
}

impl<T: Clone + Debug> Strategy for Select<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeededRng) -> T {
        self.0[rng.index(self.0.len())].clone()
    }
}

/// A position in a collection whose length is not known when the input is
/// drawn: `any::<Index>()`, then [`Index::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Index(u64);

impl Index {
    /// This position scaled into `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn index(&self, len: usize) -> usize {
        assert!(len > 0, "index into an empty collection");
        ((u128::from(self.0) * len as u128) >> 64) as usize
    }
}

/// Types [`any`] can draw over their whole domain.
pub trait Arbitrary: Debug + Sized {
    /// Draws any value of the type.
    fn arbitrary(rng: &mut SeededRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SeededRng) -> bool {
        rng.bool(0.5)
    }
}

impl Arbitrary for Index {
    fn arbitrary(rng: &mut SeededRng) -> Index {
        Index(rng.u64())
    }
}

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Any<T> {
    pub(crate) const NEW: Self = Any(PhantomData);
}

/// Any value of `T`, uniform over its domain.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any::NEW
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut SeededRng) -> T {
        T::arbitrary(rng)
    }
}

/// A string pattern: atoms — a literal character or a `[class]` of
/// characters and `a-z` ranges (a `-` first or last is itself) — each
/// optionally repeated `{n}` or `{m,n}` times.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut SeededRng) -> String {
        let malformed = || -> ! { panic!("unsupported string pattern `{self}`") };
        let mut out = String::new();
        let mut chars = self.chars().peekable();
        while let Some(c) = chars.next() {
            let mut alphabet = Vec::new();
            if c == '[' {
                let class: Vec<char> = chars.by_ref().take_while(|&c| c != ']').collect();
                let mut i = 0;
                while i < class.len() {
                    if i + 2 < class.len() && class[i + 1] == '-' {
                        alphabet.extend(class[i]..=class[i + 2]);
                        i += 3;
                    } else {
                        alphabet.push(class[i]);
                        i += 1;
                    }
                }
            } else {
                alphabet.push(c);
            }
            if alphabet.is_empty() {
                malformed();
            }
            let mut repeat = SizeRange::from(1);
            if chars.next_if_eq(&'{').is_some() {
                let counts: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let (min, max) = counts.split_once(',').unwrap_or((&counts, &counts));
                match (min.parse::<usize>(), max.parse::<usize>()) {
                    (Ok(min), Ok(max)) if min <= max => repeat = (min..=max).into(),
                    _ => malformed(),
                }
            }
            for _ in 0..(repeat.min..=repeat.max).generate(rng) {
                out.push(alphabet[rng.index(alphabet.len())]);
            }
        }
        out
    }
}
