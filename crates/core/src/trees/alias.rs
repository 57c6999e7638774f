//! Walker's alias table.
//!
//! The alias method (Walker 1977) pre-processes a discrete distribution in
//! `O(K)` time and answers each sample in `O(1)`. It is the structure used by
//! AliasLDA and LightLDA on CPUs, and is the pre-processing baseline in the
//! paper's ablation (the `G0`/`G1` configurations of Fig. 9). Its weakness on
//! a GPU is that the two-stack construction is inherently sequential — one
//! element is moved at a time — so a warp building it leaves 31 of its 32
//! lanes idle, which is exactly what the W-ary tree fixes.

use super::TopicSampler;

/// An alias table over topic weights.
///
/// # Examples
///
/// ```
/// use saber_core::trees::{AliasTable, TopicSampler};
///
/// let table = AliasTable::new(&[0.25, 0.125, 0.375, 0.25]);
/// assert!((table.total() - 1.0).abs() < 1e-6);
/// assert!(table.sample_with(0.7) < 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Probability of keeping slot `i` (scaled so the slot is chosen with
    /// probability `1/K`).
    prob: Vec<f32>,
    /// Alias target of slot `i`.
    alias: Vec<u32>,
    total: f32,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// value.
    pub fn new(weights: &[f32]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        let k = weights.len();
        let total: f32 = weights.iter().sum();
        let mut prob = vec![1.0f32; k];
        let mut alias: Vec<u32> = (0..k as u32).collect();
        if total > 0.0 {
            // Scale weights so the average is exactly 1.
            let scale = k as f32 / total;
            let mut scaled: Vec<f64> = weights.iter().map(|&w| (w * scale) as f64).collect();
            let mut small: Vec<usize> = Vec::new();
            let mut large: Vec<usize> = Vec::new();
            for (i, &s) in scaled.iter().enumerate() {
                if s < 1.0 {
                    small.push(i);
                } else {
                    large.push(i);
                }
            }
            // The classic two-stack pairing loop: strictly sequential.
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                prob[s] = scaled[s] as f32;
                alias[s] = l as u32;
                scaled[l] = (scaled[l] + scaled[s]) - 1.0;
                if scaled[l] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            for &i in small.iter().chain(large.iter()) {
                prob[i] = 1.0;
                alias[i] = i as u32;
            }
        }
        AliasTable { prob, alias, total }
    }
}

impl TopicSampler for AliasTable {
    fn total(&self) -> f32 {
        self.total
    }

    fn len(&self) -> usize {
        self.prob.len()
    }

    fn sample_with(&self, u: f32) -> usize {
        assert!((0.0..1.0).contains(&u), "u must be in [0, 1), got {u}");
        assert!(
            self.total > 0.0,
            "cannot sample from an all-zero distribution"
        );
        // Split one uniform into a slot choice and an accept/alias choice.
        let scaled = u * self.len() as f32;
        let slot = (scaled as usize).min(self.len() - 1);
        let frac = scaled - slot as f32;
        if frac < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }

    fn build_instructions(&self) -> u64 {
        // Sequential scan + two-stack loop: ~8 instructions per element, but
        // only one lane of the warp does useful work, so the warp occupies
        // 32× as many issue slots as the useful work.
        self.len() as u64 * 8 * 32
    }

    fn query_instructions(&self) -> u64 {
        4
    }

    fn query_shared_bytes(&self) -> u64 {
        8 // one probability + one alias entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::test_util::assert_matches_distribution;
    use proptest::prelude::*;

    #[test]
    fn table_is_well_formed() {
        let t = AliasTable::new(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(t.len(), 4);
        assert!(t.prob.iter().all(|&p| (0.0..=1.0 + 1e-5).contains(&p)));
        assert!(t.alias.iter().all(|&a| (a as usize) < 4));
    }

    #[test]
    fn matches_distribution_fig2() {
        let weights = [0.25f32, 0.125, 0.375, 0.25];
        let t = AliasTable::new(&weights);
        assert_matches_distribution(&t, &weights, 40_000, 0.015, 5);
    }

    #[test]
    fn skewed_distribution() {
        let weights = [100.0f32, 1.0, 1.0, 1.0, 1.0];
        let t = AliasTable::new(&weights);
        assert_matches_distribution(&t, &weights, 40_000, 0.02, 6);
    }

    #[test]
    fn zero_weight_topics_are_never_sampled() {
        let weights = [0.0f32, 3.0, 0.0, 1.0];
        let t = AliasTable::new(&weights);
        for i in 0..1000 {
            let k = t.sample_with(i as f32 / 1000.0);
            assert!(weights[k] > 0.0, "sampled zero-weight topic {k}");
        }
    }

    #[test]
    fn single_topic() {
        let t = AliasTable::new(&[0.5]);
        assert_eq!(t.sample_with(0.3), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_panics() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_panics_on_sample() {
        AliasTable::new(&[0.0, 0.0]).sample_with(0.1);
    }

    #[test]
    fn build_cost_reflects_sequential_construction() {
        let t = AliasTable::new(&vec![1.0f32; 1000]);
        assert!(t.build_instructions() >= 1000 * 8);
        assert_eq!(t.query_instructions(), 4);
    }

    proptest! {
        #[test]
        fn never_samples_out_of_range(
            weights in proptest::collection::vec(0.0f32..5.0, 1..100),
            u in 0.0f32..1.0,
        ) {
            let total: f32 = weights.iter().sum();
            prop_assume!(total > 0.0);
            let t = AliasTable::new(&weights);
            let k = t.sample_with(u);
            prop_assert!(k < weights.len());
        }
    }
}
