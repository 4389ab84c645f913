//! Offline stand-in for `rand` 0.8.
//!
//! A real generator (xoshiro256** seeded through splitmix64), so corpora
//! are varied and deterministic, but its streams differ from the published
//! crate's ChaCha12 `StdRng`: a corpus generated here is not the corpus the
//! same seed gives with the real dependency.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Uniform in `[0, 1)` with 53 random bits.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(lo: Self, hi: Self, inclusive: bool, rng: &mut R) -> Self;
}

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
                let v = lo + (hi - lo) * (unit_f64(rng) as $t);
                // Rounding can land on `hi`; an exclusive range must not.
                if !inclusive && v >= hi { lo } else { v }
            }
        }
    )*};
}
uniform_float!(f32, f64);

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(lo: $t, hi: $t, inclusive: bool, rng: &mut R) -> $t {
                assert!(if inclusive { lo <= hi } else { lo < hi }, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + u128::from(inclusive);
                // Widening multiply maps 64 random bits onto the span with
                // bias below 2^-64 per value.
                let offset = ((u128::from(rng.next_u64()) * span) >> 64) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(lo, hi, true, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), state expanded from the seed with
    /// splitmix64 as its authors recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = a.gen_range(2.5..6.0);
            assert_eq!(x, b.gen_range(2.5..6.0));
            assert!((2.5..6.0).contains(&x));
            let n = a.gen_range(0..6usize);
            assert_eq!(n, b.gen_range(0..6usize));
            assert!(n < 6);
            let y = a.gen_range(1.0..=1.0f64);
            assert_eq!(y, 1.0);
            b.gen_range(1.0..=1.0f64);
            assert_eq!(a.gen_bool(0.5), b.gen_bool(0.5));
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
