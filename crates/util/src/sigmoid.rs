//! Precomputed sigmoid table.
//!
//! The SGNS inner loop evaluates `σ(x)` once per (pair, sample); the C
//! implementation replaces the `exp` call with a 1000-entry table over
//! `[-6, 6]` and saturates the gradient outside that range. We keep the
//! same scheme (and the same constants) so gradients match the reference
//! implementation's quantization behaviour.

/// Table resolution (the C code's `EXP_TABLE_SIZE`).
pub(crate) const EXP_TABLE_SIZE: usize = 1000;
/// Saturation range (the C code's `MAX_EXP`).
pub(crate) const MAX_EXP: f32 = 6.0;
/// Table slots per unit of `x`: inside `(-6, 6)`, `σ(x)` is slot
/// `⌊(x + MAX_EXP) · SLOTS_PER_UNIT⌋`, clamped to the last.
const SLOTS_PER_UNIT: f32 = EXP_TABLE_SIZE as f32 / MAX_EXP / 2.0;

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// A precomputed sigmoid lookup table.
#[derive(Clone, Debug)]
pub struct SigmoidTable {
    table: Vec<f32>,
}

impl SigmoidTable {
    /// Builds the table: entry `i` holds `σ(((i/1000)·2 − 1)·6)`.
    pub fn new() -> Self {
        let table = (0..EXP_TABLE_SIZE)
            .map(|i| {
                let x = (i as f32 / EXP_TABLE_SIZE as f32 * 2.0 - 1.0) * MAX_EXP;
                let e = x.exp();
                e / (e + 1.0)
            })
            .collect();
        Self { table }
    }

    /// `σ(x)` via table lookup; saturates to 0/1 outside `[-6, 6]`
    /// exactly as the C implementation's branch does. A NaN `x` reads
    /// slot 0 (the `as usize` cast sends NaN to 0).
    #[inline]
    pub fn value(&self, x: f32) -> f32 {
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            let idx = ((x + MAX_EXP) * SLOTS_PER_UNIT) as usize;
            self.table[idx.min(EXP_TABLE_SIZE - 1)]
        }
    }

    /// [`value`](Self::value) on eight lanes, bit for bit: the same
    /// add, multiply and truncation give the slot, clamped to
    /// `0..EXP_TABLE_SIZE` (`cvttps` turns NaN into `i32::MIN`, which the
    /// clamp sends to slot 0, where the cast sends it), one gather reads
    /// it, and the lanes at or past ±6 are blended to 1 or 0 after.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn values8(&self, x: __m256) -> __m256 {
        let max_exp = _mm256_set1_ps(MAX_EXP);
        let t = _mm256_mul_ps(_mm256_add_ps(x, max_exp), _mm256_set1_ps(SLOTS_PER_UNIT));
        let slot = _mm256_min_epi32(
            _mm256_max_epi32(_mm256_cvttps_epi32(t), _mm256_setzero_si256()),
            _mm256_set1_epi32(EXP_TABLE_SIZE as i32 - 1),
        );
        // SAFETY: every slot is clamped into the table just above.
        let v = unsafe { _mm256_i32gather_ps::<4>(self.table.as_ptr(), slot) };
        let v = _mm256_blendv_ps(
            v,
            _mm256_set1_ps(1.0),
            _mm256_cmp_ps::<_CMP_GE_OQ>(x, max_exp),
        );
        let low = _mm256_cmp_ps::<_CMP_LE_OQ>(x, _mm256_set1_ps(-MAX_EXP));
        _mm256_blendv_ps(v, _mm256_setzero_ps(), low)
    }
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_sigmoid_within_table_resolution() {
        let t = SigmoidTable::new();
        for i in -60..=60 {
            let x = i as f32 / 10.0;
            let exact = 1.0 / (1.0 + (-x).exp());
            let got = t.value(x);
            assert!((got - exact).abs() < 0.01, "x={x}: {got} vs {exact}");
        }
    }

    #[test]
    fn saturates_outside_range() {
        let t = SigmoidTable::new();
        assert_eq!(t.value(6.0), 1.0);
        assert_eq!(t.value(100.0), 1.0);
        assert_eq!(t.value(-6.0), 0.0);
        assert_eq!(t.value(-100.0), 0.0);
    }

    #[test]
    fn midpoint_is_half() {
        let t = SigmoidTable::new();
        assert!((t.value(0.0) - 0.5).abs() < 0.01);
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn eight_lanes_read_the_slot_value_reads() {
        if !(std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma"))
        {
            return;
        }
        let t = SigmoidTable::new();
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
        ];
        for edge in [MAX_EXP, -MAX_EXP] {
            xs.extend([edge, edge.next_up(), edge.next_down()]);
        }
        xs.extend((-6656..=6656).map(|i| i as f32 / 1024.0));
        xs.resize(xs.len().next_multiple_of(8), 0.0);
        for lanes in xs.chunks(8) {
            let mut got = [0.0f32; 8];
            // SAFETY: avx2 and fma were detected above; both pointers
            // cover eight floats.
            unsafe {
                let v = t.values8(_mm256_loadu_ps(lanes.as_ptr()));
                _mm256_storeu_ps(got.as_mut_ptr(), v);
            }
            for (&x, g) in lanes.iter().zip(got) {
                assert_eq!(g.to_bits(), t.value(x).to_bits(), "x = {x:e}");
            }
        }
    }

    #[test]
    fn monotone() {
        let t = SigmoidTable::new();
        let mut prev = -1.0f32;
        for i in -100..=100 {
            let v = t.value(i as f32 * 0.06);
            assert!(v >= prev - 1e-6);
            prev = v;
        }
    }
}
