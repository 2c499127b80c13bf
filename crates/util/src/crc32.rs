//! CRC-32 (IEEE 802.3) checksums.
//!
//! Used by the fault-tolerance layer to detect payload corruption: the
//! wire frames of the threaded cluster engine and the on-disk training
//! checkpoints both carry a CRC-32 trailer. The IEEE polynomial
//! (`0xEDB88320` reflected) detects **all** single-bit errors and all
//! burst errors up to 32 bits — exactly the corruption model the
//! deterministic fault injector produces — so a checksum match after a
//! fault-free round-trip is a bit-exactness witness, and any injected
//! bit-flip is guaranteed to be noticed.
//!
//! # Implementation
//!
//! Every frame is sealed once and verified once, so the checksum sits
//! on the sync round's critical path beside the row codec. One kernel
//! per [`crate::simd`] backend, selected through the same dispatch
//! table as the `f32` kernels; both compute the same function, so
//! frames, checkpoints and fingerprints are byte-identical whichever
//! backend produced them:
//!
//! * **scalar table — slice-by-8**: eight compile-time 256-entry tables
//!   absorb eight input bytes per step with eight independent lookups
//!   (safe Rust, any target).
//! * **AVX2 table — PCLMULQDQ folding**: inputs of 64 bytes or more are
//!   folded four 128-bit lanes at a time with carry-less multiplies,
//!   reduced to 32 bits by a Barrett step; the sub-16-byte remainder and
//!   short inputs go through slice-by-8. The entry needs the
//!   `pclmulqdq` and `sse4.1` CPUID bits on top of the table's own
//!   `avx2`+`fma`; where they are missing the AVX2 table carries the
//!   slice-by-8 kernel instead.
//!
//! The byte-at-a-time table loop remains only as the tail handler for
//! the last `< 8` bytes and as the oracle the tests compare against.
//! Throughput is measured, not quoted here: see `util.crc32_gb_per_s`
//! and `gluon.wire.frame_seal_mb_per_s` in a traced
//! `bash benchmark/run.sh` record.

use crate::simd;

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, generated at compile time. `TABLES[0]` is
/// the classic byte-at-a-time table; `TABLES[k][b]` is the state after
/// byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Byte-at-a-time table loop: the `< 8`-byte tail of [`update_slice8`]
/// and the reference the tests hold both kernels to.
#[inline]
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Slice-by-8 state update: the portable kernel behind
/// [`simd::scalar::crc32_update`]. `crc` is the raw (pre-inversion)
/// state; any value is a valid incoming state.
pub(crate) fn update_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, tail)
}

/// PCLMULQDQ folding kernel (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
/// bit-reflected form the IEEE polynomial uses.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod clmul {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// 128-bit lanes folded per step of the main loop, and so the fewest
    /// lanes [`fold_lanes`] accepts.
    const STRIDE: usize = 4;

    // Folding constants `x^n mod P`, bit-reflected and pre-shifted one
    // bit as the reflected multiply needs. Low qword first.
    /// `n = 4·128 + 32`, `4·128 − 32`: advance a lane by one 64-byte step.
    const K1K2: (i64, i64) = (0x0001_5444_2bd4, 0x0001_c6e4_1596);
    /// `n = 128 + 32`, `128 − 32`: advance a lane by 16 bytes.
    const K3K4: (i64, i64) = (0x0001_7519_97d0, 0x0000_ccaa_009e);
    /// `n = 64`: fold the 96-bit remainder to 64 bits.
    const K5: i64 = 0x0001_63cd_6124;
    /// Barrett pair: the polynomial `P'` and `μ = ⌊x^64 / P⌋`.
    const POLY_MU: (i64, i64) = (0x0001_db71_0641, 0x0001_f701_1641);

    /// Whether this CPU has the two feature bits the kernel needs
    /// beyond the AVX2 table's own `avx2`+`fma` test.
    pub fn supported() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Multiplies `x` forward by the distance `k` encodes and adds
    /// `next`: both 64-bit halves carry-less multiplied by their
    /// constant, XORed together with the incoming data.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// CRC state after absorbing `bytes` into `state`: whole 16-byte
    /// lanes are folded when there are at least [`STRIDE`] of them; the
    /// remainder (and any shorter input) takes the slice-by-8 path.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`supported`]).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub unsafe fn update(state: u32, bytes: &[u8]) -> u32 {
        let (lanes, tail) = bytes.as_chunks::<16>();
        if lanes.len() < STRIDE {
            return super::update_slice8(state, bytes);
        }
        // SAFETY: the caller guarantees the CPU features; `lanes` holds
        // at least STRIDE lanes (checked above).
        super::update_slice8(unsafe { fold_lanes(state, lanes) }, tail)
    }

    /// Folds `lanes` (at least [`STRIDE`] of them) into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`. Every load goes
    /// through a `&[u8; 16]`, so a short `lanes` panics at the split
    /// below rather than reading out of bounds.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn fold_lanes(state: u32, lanes: &[[u8; 16]]) -> u32 {
        debug_assert!(
            lanes.len() >= STRIDE,
            "clmul fold needs {STRIDE} lanes, got {}",
            lanes.len()
        );
        let (head, rest) = lanes.split_at(STRIDE);
        let (quads, singles) = rest.as_chunks::<STRIDE>();
        // SAFETY: register-only intrinsics under matching target
        // features; `load` reads exactly the 16 bytes its argument owns.
        unsafe {
            // The incoming state XORs into the first four message bytes,
            // which is what makes streaming `update` calls exact.
            let mut x = [
                _mm_xor_si128(load(&head[0]), _mm_cvtsi32_si128(state as i32)),
                load(&head[1]),
                load(&head[2]),
                load(&head[3]),
            ];
            let k1k2 = _mm_set_epi64x(K1K2.1, K1K2.0);
            for quad in quads {
                for (acc, lane) in x.iter_mut().zip(quad) {
                    *acc = fold(*acc, k1k2, load(lane));
                }
            }
            // Four accumulators → one, then the leftover single lanes.
            let k3k4 = _mm_set_epi64x(K3K4.1, K3K4.0);
            let mut acc = x[0];
            for &next in &x[1..] {
                acc = fold(acc, k3k4, next);
            }
            for lane in singles {
                acc = fold(acc, k3k4, load(lane));
            }
            // 128 → 64 bits.
            let low32 = _mm_setr_epi32(!0, 0, !0, 0);
            let mut r = _mm_xor_si128(
                _mm_srli_si128::<8>(acc),
                _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            );
            r = _mm_xor_si128(
                _mm_srli_si128::<4>(r),
                _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5)),
            );
            // Barrett reduction, 64 → 32 bits.
            let poly_mu = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
            let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), poly_mu);
            let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
            _mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32
        }
    }
}

/// A streaming CRC-32 hasher.
///
/// Feed bytes with [`Crc32::update`]; [`Crc32::finish`] yields the same
/// value [`crc32`] computes over the concatenation of all updates.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a hasher in its initial state.
    #[inline]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs `bytes` into the checksum, through the dispatched
    /// backend's kernel ([`simd::Kernels::crc32_update`]).
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = (simd::kernels().crc32_update)(self.state, bytes);
    }

    /// Returns the checksum of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A kernel under test: `(name, state update)`.
    type Backend = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every kernel this CPU can run.
    fn backends() -> Vec<Backend> {
        let mut all: Vec<Backend> = vec![("slice8", update_slice8)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if clmul::supported() {
            // SAFETY: `supported()` just confirmed the CPU features.
            all.push(("clmul", |s, b| unsafe { clmul::update(s, b) }));
        }
        all
    }

    /// Deterministic bytes with no short period, so a lane mix-up or a
    /// dropped chunk cannot cancel out.
    fn pattern(n: usize, salt: u32) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn reference_vectors() {
        // Standard check values for CRC-32/IEEE, through the dispatched
        // entry and through every kernel directly.
        let vectors: [(&[u8], u32); 3] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ];
        for (input, want) in vectors {
            assert_eq!(crc32(input), want);
            for (name, update) in backends() {
                assert_eq!(update(0xFFFF_FFFF, input) ^ 0xFFFF_FFFF, want, "{name}");
            }
        }
    }

    #[test]
    fn kernels_match_byte_loop_over_lengths_offsets_and_states() {
        // Offsets move the slice start off 16-byte alignment (unaligned
        // loads); lengths 0..600 cross every boundary of both kernels:
        // the 8-byte word, the 16-byte lane, the 64-byte first step, and
        // several 64-byte strides with 0–3 single lanes left over.
        let buf = pattern(600 + 7, 0x5EED);
        let backends = backends();
        for offset in [0usize, 1, 3, 7] {
            for len in 0..600usize {
                let data = &buf[offset..offset + len];
                for state in [0xFFFF_FFFFu32, 0, 0x1234_5678, 0x8000_0001] {
                    let want = update_bytewise(state, data);
                    for (name, update) in &backends {
                        assert_eq!(
                            update(state, data),
                            want,
                            "{name}: offset {offset} len {len} state {state:#010x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = pattern(10_000, 7);
        for chunk_len in [1usize, 7, 37, 64, 100, 4096] {
            let mut h = Crc32::new();
            for chunk in data.chunks(chunk_len) {
                h.update(chunk);
            }
            assert_eq!(h.finish(), crc32(&data), "chunks of {chunk_len}");
        }
        assert_eq!(
            crc32(&data),
            update_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF
        );
    }

    #[test]
    fn detects_every_single_bit_flip() {
        // 93 bytes: long enough that the dispatched kernel folds.
        let data = b"deterministic fault injection: ".repeat(3);
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"abc");
        assert_eq!(h.finish(), h.finish());
    }

    proptest! {
        #[test]
        fn prop_kernels_match_byte_loop(
            buf in proptest::collection::vec(any::<u8>(), 0..2048),
            offset in 0usize..16,
            state in any::<u32>()
        ) {
            let data = &buf[offset.min(buf.len())..];
            let want = update_bytewise(state, data);
            for (name, update) in backends() {
                prop_assert_eq!(update(state, data), want, "{} len {}", name, data.len());
            }
        }

        #[test]
        fn prop_chunked_update_matches_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
            state in any::<u32>()
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            for (name, update) in backends() {
                let (mut chunked, mut from) = (state, 0);
                for &to in &cuts {
                    chunked = update(chunked, &data[from..to]);
                    from = to;
                }
                prop_assert_eq!(chunked, update(state, &data), "{} cuts {:?}", name, cuts);
            }
        }
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn clmul_fold_rejects_a_short_lane_slice_by_panicking() {
        if !clmul::supported() {
            return;
        }
        // The debug assertion fires first; in release the checked split
        // does. Either way no load happens.
        // SAFETY: features confirmed above.
        let short = std::panic::catch_unwind(|| unsafe { clmul::fold_lanes(0, &[[0u8; 16]; 3]) });
        assert!(short.is_err());
    }
}
