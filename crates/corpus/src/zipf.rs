//! Zipf–Mandelbrot rank sampler.
//!
//! Natural-language word frequencies follow a Zipf–Mandelbrot law:
//! `P(rank k) ∝ 1 / (k + q)^s`. The synthetic corpus generator draws its
//! background words from this distribution so the generated vocabulary
//! has the realistic long tail that frequent-word subsampling and the
//! `count^0.75` negative-sampling distribution both depend on.

use gw2v_util::rng::Rng64;

/// Precomputed-CDF Zipf–Mandelbrot sampler over ranks `0..n`.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with exponent `s` and Mandelbrot
    /// shift `q` (use `q = 0.0` for classic Zipf; `s ≈ 1.0`, `q ≈ 2.7`
    /// matches English text well).
    pub fn new(n: usize, s: f64, q: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s > 0.0, "exponent must be positive");
        assert!(q >= 0.0, "shift must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64 + q).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Probability mass of rank `k`.
    #[cfg(test)]
    pub(crate) fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most probable.
    #[inline]
    pub fn sample<R: Rng64>(&self, rng: &mut R) -> usize {
        let u = rng.next_f64();
        // partition_point returns the count of ranks with cdf <= u, i.e.
        // the first rank whose cdf exceeds u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw2v_util::rng::Xoshiro256;

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(100, 1.07, 2.7);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_is_decreasing() {
        let z = ZipfSampler::new(50, 1.0, 0.0);
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn classic_zipf_ratios() {
        // For q=0, s=1: pmf(k) ∝ 1/(k+1); pmf(0)/pmf(1) = 2.
        let z = ZipfSampler::new(10, 1.0, 0.0);
        let ratio = z.pmf(0) / z.pmf(1);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = ZipfSampler::new(20, 1.2, 1.0);
        let mut rng = Xoshiro256::new(13);
        let n = 400_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        #[allow(clippy::needless_range_loop)]
        for k in 0..20 {
            let emp = counts[k] as f64 / n as f64;
            let exp = z.pmf(k);
            assert!(
                (emp - exp).abs() < 0.01 + 0.05 * exp,
                "rank {k}: emp {emp}, exp {exp}"
            );
        }
    }

    #[test]
    fn sample_in_range() {
        let z = ZipfSampler::new(7, 1.0, 0.5);
        let mut rng = Xoshiro256::new(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_rank() {
        let z = ZipfSampler::new(1, 1.0, 0.0);
        let mut rng = Xoshiro256::new(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }
}
