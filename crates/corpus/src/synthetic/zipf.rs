//! Zipf-distributed word frequencies.
//!
//! §3.4 of the paper notes that "the term frequency of a natural corpus often
//! follows the power law \[Zipf 1932\]" and uses this to motivate sorting words
//! by descending frequency for load balancing. The synthetic generator
//! therefore biases word probabilities by a Zipf law so that the generated
//! corpora exhibit the same skew (a few very frequent words, a long tail).

/// The Zipf law over ranks `0..n`: rank `r` has probability proportional to
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfLaw {
    cumulative: Vec<f64>,
}

impl ZipfLaw {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf support must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        ZipfLaw { cumulative }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Probability of rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn probability(&self, r: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let lo = if r == 0 { 0.0 } else { self.cumulative[r - 1] };
        (self.cumulative[r] - lo) / total
    }

    /// The normalised probability of every rank, useful as a base measure for
    /// Dirichlet draws.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.len()).map(|r| self.probability(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfLaw::new(50, 1.1);
        let sum: f64 = z.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_is_most_probable() {
        let z = ZipfLaw::new(100, 1.0);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(50));
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfLaw::new(10, 0.0);
        for r in 0..10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn zero_support_panics() {
        ZipfLaw::new(0, 1.0);
    }
}
