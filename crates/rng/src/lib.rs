//! Seedable, std-only pseudo-random number generation for EasyTime.
//!
//! This crate replaces the external `rand` dependency so the workspace
//! builds hermetically (no network, no registry). It provides two small,
//! well-known generators:
//!
//! * [`SplitMix64`] — a 64-bit mixer used to expand a single `u64` seed
//!   into generator state (and to derive independent streams),
//! * [`Xoshiro256pp`] — xoshiro256++, the general-purpose generator used
//!   everywhere randomness is needed (also exported as [`StdRng`] so call
//!   sites read like the `rand` idiom they replaced).
//!
//! Every generator is deterministic from its seed: identical seeds produce
//! identical sequences on every platform, which is what makes the synthetic
//! benchmark corpus and all randomized tests reproducible.
//!
//! The API is intentionally tiny — exactly what the workspace uses:
//! uniform `u64`/`f64`, bounded ranges, Fisher–Yates shuffle, and a
//! Box–Muller standard normal.

#![forbid(unsafe_code)]

use std::ops::Range;

/// SplitMix64: a fast 64-bit mixing generator.
///
/// Primarily used to expand a single `u64` seed into the 256-bit state of
/// [`Xoshiro256pp`], following the seeding procedure recommended by the
/// xoshiro authors. Usable on its own when a minimal generator suffices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's standard pseudo-random generator.
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality for
/// non-cryptographic use. Seeded from a single `u64` via [`SplitMix64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

/// The workspace's default generator (replaces `rand::rngs::StdRng`).
pub type StdRng = Xoshiro256pp;

impl Xoshiro256pp {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// with [`SplitMix64`]. Identical seeds yield identical sequences.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256pp { s: [mix.next_u64(), mix.next_u64(), mix.next_u64(), mix.next_u64()] }
    }

    /// Derives an independent stream for `index` from this generator's
    /// seed material without advancing `self`. Useful for giving each
    /// worker/series its own generator from one master seed.
    pub fn derive(&self, index: u64) -> Xoshiro256pp {
        let mut mix = SplitMix64::new(
            self.s[0] ^ self.s[2].rotate_left(17) ^ index.wrapping_mul(0xD134_2543_DE82_EF95),
        );
        Xoshiro256pp { s: [mix.next_u64(), mix.next_u64(), mix.next_u64(), mix.next_u64()] }
    }

    /// Returns the next pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    ///
    /// Uses rejection sampling to avoid modulo bias. An empty range
    /// returns `range.start` rather than panicking (library code must not
    /// panic under the repo's lint rules).
    pub fn gen_range(&mut self, range: Range<usize>) -> usize {
        if range.end <= range.start {
            return range.start;
        }
        let span = (range.end - range.start) as u64;
        // Rejection zone: the largest multiple of `span` that fits in u64.
        let zone = u64::MAX - u64::MAX % span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return range.start + (v % span) as usize;
            }
        }
    }

    /// Uniform `f64` in `[low, high)` (returns `low` when the interval is
    /// empty or inverted, or when either bound is NaN).
    #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN bounds must take the early return")]
    pub fn gen_range_f64(&mut self, low: f64, high: f64) -> f64 {
        if !(high > low) {
            return low;
        }
        low + (high - low) * self.gen_f64()
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Standard normal draw (mean 0, variance 1) via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.gen_f64();
            let u2 = self.gen_f64();
            if u1 > 1e-12 {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut g = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(got, vec![6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    #[test]
    fn sequences_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_draws_stay_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn f64_draws_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds_and_hits_all_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = rng.gen_range(10..15);
            assert!((10..15).contains(&v));
            seen[v - 10] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
        // Degenerate ranges do not panic.
        assert_eq!(rng.gen_range(4..4), 4);
        assert_eq!(rng.gen_range(9..2), 9);
    }

    #[test]
    fn gen_range_f64_returns_low_for_empty_inverted_and_nan_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(rng.gen_range_f64(1.0, 1.0), 1.0);
        assert_eq!(rng.gen_range_f64(2.0, 1.0), 2.0);
        assert_eq!(rng.gen_range_f64(1.0, f64::NAN), 1.0);
        assert!(rng.gen_range_f64(f64::NAN, 1.0).is_nan());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle should move elements");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn normal_has_unit_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn derive_yields_independent_streams() {
        let base = StdRng::seed_from_u64(9);
        let mut a = base.derive(0);
        let mut b = base.derive(1);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
        let mut a2 = base.derive(0);
        let xs2: Vec<u64> = (0..16).map(|_| a2.next_u64()).collect();
        assert_eq!(xs, xs2, "derive must be deterministic");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(23);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
