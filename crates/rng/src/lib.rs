//! Deterministic pseudo-random number generation for the whole workspace.
//!
//! Determinism is a design goal of this reproduction (seeded builds must be
//! byte-identical across runs and platforms), so the workspace carries its
//! own PRNG instead of an external dependency: a [`SplitMix64`] stream for
//! seeding and a [`Xoshiro256ss`] (xoshiro256**) stream for bulk
//! generation. [`StdRng`] is the workspace-wide handle: seed it with
//! [`StdRng::seed_from_u64`] and draw with [`StdRng::gen_range`],
//! [`StdRng::gen`], or [`StdRng::gen_bool`].
//!
//! Both generators are the reference algorithms of Blackman & Vigna
//! (<https://prng.di.unimi.it/>); they are small, fast, and pass BigCrush,
//! which is more than enough for index construction, synthetic corpora,
//! and randomized tests.

/// SplitMix64: a tiny 64-bit generator used to expand one `u64` seed into
/// the larger xoshiro state. Also usable standalone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the general-purpose stream behind [`StdRng`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256ss {
    s: [u64; 4],
}

impl Xoshiro256ss {
    /// State expanded from `seed` via [`SplitMix64`] (the seeding scheme
    /// recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        // INVARIANT: `s` is `[u64; 4]` and every index below is a literal
        // in 0..4 — the compiler proves these in-bounds.
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        // INVARIANT: literal indices into `[u64; 4]` (see above).
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        // INVARIANT: literal indices into `[u64; 4]` (see above).
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// The workspace's standard generator: a seeded xoshiro256** stream with
/// the sampling surface the codebase uses (`gen_range`, `gen`, `gen_bool`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    inner: Xoshiro256ss,
}

impl StdRng {
    /// A generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: Xoshiro256ss::seed_from_u64(seed),
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// A uniformly distributed value of `T` (over `T`'s full domain for
    /// integers, `[0, 1)` for floats).
    #[inline]
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range`. Supports half-open (`a..b`) and
    /// inclusive (`a..=b`) ranges over the integer and float primitives.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        self.next_f64() < p
    }

    /// A uniform integer in `[0, bound)` by Lemire's nearly-divisionless
    /// method (unbiased).
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            // INVARIANT: bound > 0 — every caller passes a length or range
            // width that was checked non-empty first (see the asserts in
            // `Range::sample` / `RangeInclusive::sample`, and `shuffle`
            // passes i + 1 >= 2).
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.bounded_u64((i + 1) as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.bounded_u64(slice.len() as u64) as usize])
        }
    }
}

/// Types [`StdRng::gen`] can produce.
pub trait Sample: Sized {
    /// Draws one value from `rng`.
    fn sample(rng: &mut StdRng) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl Sample for $t {
            #[inline]
            fn sample(rng: &mut StdRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Sample for f32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_f32()
    }
}

impl Sample for f64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_f64()
    }
}

/// Ranges [`StdRng::gen_range`] can sample from. Generic over the element
/// type (mirroring `rand`), so an unsuffixed literal range like `-1.0..1.0`
/// infers its type from the call site.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                if span == 0 {
                    // Full-domain u64/i64 range: every output is in range.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span) as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let v = self.start + (self.end - self.start) * rng.$unit();
                // Guard the (rare) rounding case where v lands on `end`.
                if v < self.end { v } else { self.start }
            }
        }
    )*};
}
impl_range_float!(f32 => next_f32, f64 => next_f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // First output for seed 0 of the canonical implementation.
        assert_eq!(a, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn streams_are_deterministic_in_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_int_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let v = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn gen_range_float_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2_000 {
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&v));
            let w: f64 = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&w));
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should occur: {seen:?}"
        );
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(10);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50-element shuffle left input in order");
    }

    #[test]
    fn choose_covers_and_handles_empty() {
        let mut rng = StdRng::seed_from_u64(12);
        let empty: [u32; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let xs = [1, 2, 3];
        for _ in 0..10 {
            assert!(xs.contains(rng.choose(&xs).expect("non-empty")));
        }
    }

    #[test]
    fn uniformity_of_unit_floats() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
