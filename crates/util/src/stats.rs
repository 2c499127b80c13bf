//! The geometric mean the figure binaries report.

/// Geometric mean of strictly-positive values; returns `None` if the input
/// is empty or contains a non-positive value. The paper reports geo-mean
/// speedup across datasets (Table 2).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, -1.0]), None);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!((geomean(&[14.0, 14.6, 14.0]).unwrap() - 14.198).abs() < 0.01);
    }

    proptest! {
        #[test]
        fn prop_geomean_between_min_max(xs in proptest::collection::vec(0.001f64..1e6, 1..100)) {
            let g = geomean(&xs).unwrap();
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(g >= min * (1.0 - 1e-9));
            prop_assert!(g <= max * (1.0 + 1e-9));
        }
    }
}
