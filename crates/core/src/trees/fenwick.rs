//! Fenwick (binary-indexed) tree sampler.
//!
//! F+LDA (Yu et al. 2015) keeps the per-word distribution in a Fenwick tree:
//! construction is `O(K)`, each sample walks `O(log₂ K)` levels. The paper
//! points out (§3.2.4) that the branching factor of 2 leaves a 32-lane warp
//! almost entirely idle during the walk, which is why it proposes the 32-ary
//! tree instead. This implementation exists both as the `PreprocessKind::
//! FenwickTree` configuration and as the substrate of the F+LDA CPU baseline
//! in `saber-baselines`.

use super::TopicSampler;

/// A Fenwick tree over topic weights supporting prefix-sum descent.
///
/// # Examples
///
/// ```
/// use saber_core::trees::{FenwickTree, TopicSampler};
///
/// let t = FenwickTree::new(&[1.0, 0.0, 2.0, 1.0]);
/// assert_eq!(t.total(), 4.0);
/// assert_eq!(t.sample_with(0.5), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FenwickTree {
    /// 1-based Fenwick array of partial sums.
    tree: Vec<f64>,
    n: usize,
    total: f32,
}

impl FenwickTree {
    /// Builds a Fenwick tree from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// value.
    pub fn new(weights: &[f32]) -> Self {
        assert!(
            !weights.is_empty(),
            "Fenwick tree needs at least one weight"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let n = weights.len();
        let mut tree = vec![0.0f64; n + 1];
        // O(K) construction: place each value then propagate to the parent.
        for (i, &w) in weights.iter().enumerate() {
            tree[i + 1] += w as f64;
            let parent = (i + 1) + ((i + 1) & (i + 1).wrapping_neg());
            if parent <= n {
                let v = tree[i + 1];
                tree[parent] += v;
            }
        }
        let total: f32 = weights.iter().sum();
        FenwickTree { tree, n, total }
    }

    /// Finds the smallest index whose inclusive prefix sum is `>= x` by
    /// binary lifting over the Fenwick structure.
    fn descend(&self, x: f64) -> usize {
        let mut idx = 0usize;
        let mut bit = self.n.next_power_of_two();
        let mut remaining = x;
        while bit > 0 {
            let next = idx + bit;
            if next <= self.n && self.tree[next] < remaining {
                idx = next;
                remaining -= self.tree[next];
            }
            bit >>= 1;
        }
        idx.min(self.n - 1)
    }
}

impl TopicSampler for FenwickTree {
    fn total(&self) -> f32 {
        self.total
    }

    fn len(&self) -> usize {
        self.n
    }

    fn sample_with(&self, u: f32) -> usize {
        assert!((0.0..1.0).contains(&u), "u must be in [0, 1), got {u}");
        assert!(
            self.total > 0.0,
            "cannot sample from an all-zero distribution"
        );
        let x = (u as f64 * self.total as f64).max(f64::MIN_POSITIVE);
        self.descend(x)
    }

    fn build_instructions(&self) -> u64 {
        // O(K) scalar work; partially vectorisable but with branching factor 2
        // only a couple of lanes contribute per step. Charge 4 instructions
        // per element with an 8× under-utilisation penalty.
        self.n as u64 * 4 * 8
    }

    fn query_instructions(&self) -> u64 {
        // One compare/subtract pair per level of the binary descent.
        2 * (usize::BITS - self.n.leading_zeros()) as u64
    }

    fn query_shared_bytes(&self) -> u64 {
        // log2(K) scattered 4-byte reads; each lands in its own bank/line.
        4 * (usize::BITS - self.n.leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::test_util::assert_matches_distribution;
    use proptest::prelude::*;

    /// Prefix sum of weights `0..=idx` (inclusive), read off the tree.
    fn prefix_sum(t: &FenwickTree, idx: usize) -> f32 {
        let mut i = idx + 1;
        let mut acc = 0.0f64;
        while i > 0 {
            acc += t.tree[i];
            i -= i & i.wrapping_neg();
        }
        acc as f32
    }

    #[test]
    fn prefix_sums_match_scalar() {
        let weights = [1.0f32, 0.0, 2.0, 3.0, 0.0, 2.0, 0.0, 0.0, 1.0];
        let t = FenwickTree::new(&weights);
        let mut acc = 0.0f32;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            assert!((prefix_sum(&t, i) - acc).abs() < 1e-6, "prefix {i}");
        }
        assert_eq!(t.total(), 9.0);
    }

    #[test]
    fn descent_matches_linear_scan() {
        let weights = [1.0f32, 0.0, 2.0, 3.0, 0.0, 2.0, 0.0, 0.0, 1.0];
        let t = FenwickTree::new(&weights);
        assert_eq!(t.sample_with(7.5 / 9.0), 5);
        assert_eq!(t.sample_with(0.0), 0);
        assert_eq!(t.sample_with(3.5 / 9.0), 3);
        assert_eq!(t.sample_with(8.5 / 9.0), 8);
    }

    #[test]
    fn zero_weights_never_sampled() {
        let weights = [0.0f32, 2.0, 0.0, 1.0, 0.0];
        let t = FenwickTree::new(&weights);
        for i in 0..1000 {
            let k = t.sample_with(i as f32 / 1000.0);
            assert!(weights[k] > 0.0, "sampled zero-weight topic {k}");
        }
    }

    #[test]
    fn distribution_matches_weights() {
        let weights = [0.05f32, 0.45, 0.1, 0.4];
        let t = FenwickTree::new(&weights);
        assert_matches_distribution(&t, &weights, 40_000, 0.015, 21);
    }

    #[test]
    fn single_topic_and_power_of_two_sizes() {
        assert_eq!(FenwickTree::new(&[3.0]).sample_with(0.9), 0);
        let t = FenwickTree::new(&vec![1.0f32; 64]);
        assert_eq!(t.sample_with(0.0), 0);
        assert!(t.sample_with(0.999) >= 62);
    }

    #[test]
    fn cost_model_scales_logarithmically() {
        let small = FenwickTree::new(&[1.0f32; 16]);
        let large = FenwickTree::new(&vec![1.0f32; 4096]);
        assert!(large.query_instructions() > small.query_instructions());
        assert!(large.query_instructions() <= 2 * 13);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_panics() {
        FenwickTree::new(&[]);
    }

    proptest! {
        #[test]
        fn matches_linear_scan_oracle(
            weights in proptest::collection::vec(0.0f32..10.0, 1..200),
            frac in 0.0f32..1.0,
        ) {
            let total: f64 = weights.iter().map(|&w| w as f64).sum();
            prop_assume!(total > 1e-6);
            let t = FenwickTree::new(&weights);
            let x = (frac as f64 * t.total() as f64).max(f64::MIN_POSITIVE);
            let expected = {
                let mut acc = 0.0f64;
                let mut idx = weights.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    acc += w as f64;
                    if acc >= x {
                        idx = i;
                        break;
                    }
                }
                idx
            };
            let got = t.sample_with(frac);
            // Floating point accumulation order differs between the oracle and
            // the tree; allow the boundary-adjacent answer when weights tie.
            prop_assert!(got == expected || (got + 1 == expected && weights[got] > 0.0) || (expected + 1 == got && weights[expected] > 0.0),
                "got {}, expected {}", got, expected);
        }
    }
}
