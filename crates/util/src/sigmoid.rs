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
    /// exactly as the C implementation's branch does.
    #[inline]
    pub fn value(&self, x: f32) -> f32 {
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            let idx = ((x + MAX_EXP) * (EXP_TABLE_SIZE as f32 / MAX_EXP / 2.0)) as usize;
            self.table[idx.min(EXP_TABLE_SIZE - 1)]
        }
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
