//! Tensor statistics used by the paper's distribution plots (Figures 6
//! and 10): min/max/mean/std, amax, and log2-magnitude histograms.

use crate::tensor::Tensor;

/// Summary statistics of a tensor's value distribution.
///
/// The `log2_hist` buckets count non-zero elements by
/// `floor(log2(|x|))`, clamped to `[-32, 31]`; this is the histogram the
/// paper plots to show which value ranges a format covers.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    /// Minimum element.
    pub min: f32,
    /// Maximum element.
    pub max: f32,
    /// Mean element.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
    /// Maximum absolute value.
    pub amax: f32,
    /// Fraction of exactly-zero elements.
    pub zero_frac: f32,
    /// Histogram over `floor(log2(|x|))` in `[-32, 31]` (64 buckets).
    pub log2_hist: Vec<u64>,
}

impl TensorStats {
    /// Lowest binade tracked by `log2_hist`.
    pub const LOG2_LO: i32 = -32;
    /// Number of histogram buckets.
    pub const BUCKETS: usize = 64;

    /// Compute statistics of `t`.
    pub fn of(t: &Tensor) -> Self {
        let n = t.len().max(1) as f32;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        let mut zeros = 0u64;
        let mut hist = vec![0u64; Self::BUCKETS];
        for &x in t.data() {
            min = min.min(x);
            max = max.max(x);
            sum += x as f64;
            if x == 0.0 {
                zeros += 1;
            } else {
                let b = libm::floorf(libm::log2f(x.abs())) as i32;
                let i = (b - Self::LOG2_LO).clamp(0, Self::BUCKETS as i32 - 1) as usize;
                hist[i] += 1;
            }
        }
        let mean = (sum / n as f64) as f32;
        let var = t
            .data()
            .iter()
            .map(|&x| {
                let d = (x - mean) as f64;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        Self {
            min: if t.is_empty() { 0.0 } else { min },
            max: if t.is_empty() { 0.0 } else { max },
            mean,
            std: libm::sqrt(var) as f32,
            amax: t.amax(),
            zero_frac: zeros as f32 / n,
            log2_hist: hist,
        }
    }

    /// Fraction of non-zero elements whose binade lies in
    /// `[lo_exp, hi_exp]` — e.g. the coverage of a format whose
    /// representable magnitudes span `2^lo_exp ..= 2^hi_exp`.
    pub fn coverage(&self, lo_exp: i32, hi_exp: i32) -> f64 {
        let total: u64 = self.log2_hist.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let lo = ((lo_exp - Self::LOG2_LO).clamp(0, Self::BUCKETS as i32 - 1)) as usize;
        let hi = ((hi_exp - Self::LOG2_LO).clamp(0, Self::BUCKETS as i32 - 1)) as usize;
        let inside: u64 = self.log2_hist[lo..=hi].iter().sum();
        inside as f64 / total as f64
    }

    /// Binade (power-of-two exponent) at a cumulative quantile `q` of the
    /// non-zero magnitude distribution, or `None` if the tensor is all zero.
    pub fn log2_quantile(&self, q: f64) -> Option<i32> {
        let total: u64 = self.log2_hist.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.log2_hist.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return Some(i as i32 + Self::LOG2_LO);
            }
        }
        Some(31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let t = Tensor::from_vec(vec![-2.0, 0.0, 1.0, 4.0], &[4]);
        let s = TensorStats::of(&t);
        assert_eq!(s.min, -2.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.amax, 4.0);
        assert_eq!(s.mean, 0.75);
        assert_eq!(s.zero_frac, 0.25);
    }

    #[test]
    fn histogram_binades() {
        let t = Tensor::from_vec(vec![0.5, 1.0, 1.9, 4.0, -4.0], &[5]);
        let s = TensorStats::of(&t);
        let idx = |e: i32| (e - TensorStats::LOG2_LO) as usize;
        assert_eq!(s.log2_hist[idx(-1)], 1); // 0.5
        assert_eq!(s.log2_hist[idx(0)], 2); // 1.0, 1.9
        assert_eq!(s.log2_hist[idx(2)], 2); // ±4.0
    }

    #[test]
    fn coverage_of_posit8_range() {
        // All values within 2^-12..2^12 → full coverage; a tiny value
        // escapes below.
        let t = Tensor::from_vec(vec![0.001, 1.0, 100.0], &[3]);
        let s = TensorStats::of(&t);
        assert_eq!(s.coverage(-12, 12), 1.0);
        let t2 = Tensor::from_vec(vec![1e-6, 1.0], &[2]);
        let s2 = TensorStats::of(&t2);
        assert_eq!(s2.coverage(-12, 12), 0.5);
    }

    #[test]
    fn quantiles() {
        let t = Tensor::from_vec(vec![0.25, 0.5, 1.0, 2.0], &[4]);
        let s = TensorStats::of(&t);
        assert_eq!(s.log2_quantile(0.0), Some(-2));
        assert_eq!(s.log2_quantile(1.0), Some(1));
        assert_eq!(
            TensorStats::of(&Tensor::zeros(&[3])).log2_quantile(0.5),
            None
        );
    }
}
