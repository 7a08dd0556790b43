//! Offline vendored subset of the `rand` 0.8 API.
//!
//! The build environment has no network access to crates.io, so this
//! crate provides the exact slice of `rand` the workspace uses:
//! [`rngs::SmallRng`] (xoshiro256++ with SplitMix64 seeding, matching
//! `rand_xoshiro` 0.6 as re-exported by `rand` 0.8 on 64-bit targets),
//! the [`Rng`]/[`RngCore`]/[`SeedableRng`] traits, `gen::<f64>()` with
//! the 53-bit multiply conversion, and Lemire-style `gen_range` for
//! unsigned integers. The bit streams are faithful to upstream so that
//! seeded simulations reproduce the recorded experiment outputs.

#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::todo)]

/// The core of a random number generator.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let v = self.next_u64().to_le_bytes();
            let n = rem.len();
            rem.copy_from_slice(&v[..n]);
        }
    }
}

/// A generator seedable from a fixed-size seed or a `u64`.
pub trait SeedableRng: Sized {
    /// The fixed-size seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Creates a generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` via SplitMix64 (the
    /// `rand_xoshiro` convention).
    fn seed_from_u64(mut state: u64) -> Self {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Marker for the standard distribution of a type.
pub struct Standard;

/// A distribution that can sample values of `T` from a generator.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

impl Distribution<u64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Distribution<u32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        // rand 0.8: one bit from the top of a u32.
        (rng.next_u32() as i32) < 0
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // rand 0.8 `Standard` for f64: 53 high bits, multiply convert.
        let value = rng.next_u64() >> 11;
        value as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A half-open or inclusive range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_unsigned_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let range = (self.end - self.start) as u64;
                // Lemire widening-multiply rejection, as in rand 0.8's
                // `UniformInt::sample_single`.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u64();
                    let m = (v as u128).wrapping_mul(range as u128);
                    let (hi, lo) = ((m >> 64) as u64, m as u64);
                    if lo <= zone {
                        return self.start.wrapping_add(hi as $t);
                    }
                }
            }
        }
    )*};
}

impl_unsigned_range!(u64, usize, u32);

/// Convenience extension over [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T`.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! The non-cryptographic generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256++, the 64-bit `SmallRng` of `rand` 0.8.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
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
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // All-zero state is a fixed point; reseed as upstream does.
                return Self::seed_from_u64(0);
            }
            SmallRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_and_distinct_by_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        let mut c = SmallRng::seed_from_u64(2);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    /// Reference vector for xoshiro256++ seeded via SplitMix64(0),
    /// cross-checked against rand_xoshiro 0.6 / the xoshiro reference
    /// implementation.
    #[test]
    fn matches_upstream_stream() {
        let mut rng = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        // SplitMix64(0) produces the state
        // [e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f, f88bb8a8724c81ec]
        let mut s: [u64; 4] = [
            0xe220a8397b1dcdaf,
            0x6e789e6aa1b965f4,
            0x06c45d188009454f,
            0xf88bb8a8724c81ec,
        ];
        let mut expect = Vec::new();
        for _ in 0..3 {
            let r = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            expect.push(r);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
        }
        assert_eq!(first, expect);
    }
}
