//! Deterministic pseudo-random numbers.
//!
//! [`Rng`] is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, the
//! standard pairing: SplitMix64 decorrelates arbitrary user seeds (including
//! 0 and small integers) into full 256-bit state, and xoshiro256++ gives a
//! fast, high-quality stream with period 2^256 − 1. The API mirrors the
//! subset of the `rand` crate the workspace used, so call sites read the
//! same: `gen_range`, `gen`, `gen_bool`, plus Gaussian sampling via
//! [`Rng::normal`].
//!
//! Unlike `rand`'s `StdRng` (whose stream may change between crate versions)
//! this generator is frozen: the same seed yields the same sequence on every
//! platform and in every future version of volcast. Seeded experiments are
//! therefore reproducible byte-for-byte.
//!
//! ```
//! use volcast_util::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! let x: f64 = rng.gen();              // uniform [0, 1)
//! let k = rng.gen_range(0..10usize);   // uniform integer
//! let f = rng.gen_range(-1.0..1.0);    // uniform float
//! assert!((0.0..1.0).contains(&x));
//! assert!(k < 10);
//! assert!((-1.0..1.0).contains(&f));
//! ```

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: expands a 64-bit seed into decorrelated state words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Construct with [`Rng::seed_from_u64`]; all sampling methods consume the
/// stream in a fixed, documented order, so a given seed always produces the
/// same values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// A generator for stream `stream` of a family keyed by `base_seed`.
    ///
    /// This is the seed-splitting rule for deterministic parallelism (see
    /// [`crate::par`]): each work item draws from its own generator keyed by
    /// `(base_seed, item_index)`, so the values it sees are independent of
    /// how items are scheduled across threads. The split runs both words
    /// through SplitMix64 before mixing, so `(7, 0)` and `(0, 7)` — and any
    /// other colliding sums — land in decorrelated states.
    pub fn for_stream(base_seed: u64, stream: u64) -> Self {
        let mut a = base_seed;
        let mut b = stream ^ 0x6A09_E667_F3BC_C909; // sqrt(2) bits: offset stream 0
        let mixed = splitmix64(&mut a) ^ splitmix64(&mut b);
        Rng::seed_from_u64(mixed)
    }

    /// The next raw 64-bit output (xoshiro256++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample of type `T` (see [`FromRng`] for the conventions).
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform sample from a range, e.g. `0..10usize`, `-1.0..1.0`, or
    /// `-12i16..=12`. The element type follows the calling context, like
    /// `rand`'s `gen_range`.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// A Gaussian sample with the given mean and standard deviation
    /// (Box–Muller; consumes exactly two uniforms per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // u1 in (0, 1] so ln(u1) is finite.
        let u1 = 1.0 - self.gen::<f64>();
        let u2: f64 = self.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (std::f64::consts::TAU * u2).cos()
    }
}

/// Types that can be drawn uniformly from an [`Rng`].
///
/// Conventions match `rand`'s `Standard` distribution: floats are uniform in
/// `[0, 1)`, integers over their full range, `bool` is a fair coin.
pub trait FromRng {
    /// Draws one value.
    fn from_rng(rng: &mut Rng) -> Self;
}

impl FromRng for u64 {
    fn from_rng(rng: &mut Rng) -> Self {
        rng.next_u64()
    }
}

impl FromRng for u32 {
    fn from_rng(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl FromRng for u16 {
    fn from_rng(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl FromRng for u8 {
    fn from_rng(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl FromRng for bool {
    fn from_rng(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl FromRng for f64 {
    fn from_rng(rng: &mut Rng) -> Self {
        // 53 high bits → uniform in [0, 1) on the dyadic grid.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges over `T` that can be sampled uniformly (`a..b` and `a..=b`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let u: f64 = rng.gen();
        // Clamp keeps rounding at the top of huge ranges inside [start, end).
        (self.start + u * (self.end - self.start)).min(f64_prev(self.end))
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut Rng) -> f32 {
        rng.gen_range(self.start as f64..self.end as f64) as f32
    }
}

/// Largest double strictly below `x` (for half-open float ranges).
fn f64_prev(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() - 1)
    } else {
        x
    }
}

/// Unbiased integer in `[0, bound)` by Lemire's widening-multiply method
/// with rejection.
fn uniform_below(rng: &mut Rng, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (bound as u128);
        let low = m as u64;
        if low >= bound.wrapping_neg() % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )+};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(0);
        let mut b = Rng::seed_from_u64(1);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn known_answer_xoshiro() {
        // Stream freeze: these values must never change across versions.
        let mut rng = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180
            ]
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let k = rng.gen_range(3..17usize);
            assert!((3..17).contains(&k));
            let j = rng.gen_range(-12i16..=12);
            assert!((-12..=12).contains(&j));
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = Rng::seed_from_u64(2);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.gen_range(0u8..=3) {
                0 => saw_lo = true,
                3 => saw_hi = true,
                _ => {}
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn stream_splitting_is_deterministic_and_decorrelated() {
        // Same (base, stream) pair: identical generator.
        let mut a = Rng::for_stream(42, 3);
        let mut b = Rng::for_stream(42, 3);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Distinct streams of the same family diverge, as do the swapped
        // pair and the plain seed of the same integer.
        let first = |mut r: Rng| r.next_u64();
        let seen = [
            first(Rng::for_stream(42, 3)),
            first(Rng::for_stream(42, 4)),
            first(Rng::for_stream(3, 42)),
            first(Rng::for_stream(43, 3)),
            first(Rng::seed_from_u64(45)),
        ];
        for i in 0..seen.len() {
            for j in i + 1..seen.len() {
                assert_ne!(seen[i], seen[j], "streams {i} and {j} collide");
            }
        }
    }
}
