//! The W-ary sampling tree (§3.2.4, Fig. 6 and 7 of the paper).
//!
//! The tree finds the position of a value in the prefix-sum array of `K`
//! weights using `log_W K` levels of W-wide searches, where `W = 32` is the
//! warp width. Construction is a single warp-parallel prefix sum plus one
//! strided copy per level, so — unlike the alias table — the whole warp stays
//! busy while building, which is what makes per-iteration pre-processing cheap
//! (the G1→G2 step in Fig. 9 removes 98% of pre-processing time).
//!
//! The four-level layout of the paper supports up to `W³ = 32 768` topics:
//! level 1 (the total) and level 2 (32 entries) live in registers, levels 3
//! and 4 in shared memory, so a query touches exactly two shared-memory cache
//! lines.

use saber_gpu_sim::warp::{warp_vote_first_active, WARP_SIZE};

use super::TopicSampler;

/// A 32-ary prefix-sum tree over topic weights.
///
/// # Examples
///
/// ```
/// use saber_core::trees::{TopicSampler, WaryTree};
///
/// // Fig. 7 of the paper uses weights [1, 0, 2, 3, 0, 2, 0, 0, 1].
/// let tree = WaryTree::new(&[1.0, 0.0, 2.0, 3.0, 0.0, 2.0, 0.0, 0.0, 1.0]);
/// assert_eq!(tree.total(), 9.0);
/// // 7.5 / 9.0 falls in the bucket of key 5 (prefix sums 6 → 8).
/// assert_eq!(tree.sample_with(7.5 / 9.0), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaryTree {
    /// Every level in one allocation, bottom (the `K` inclusive prefix sums)
    /// first, the single-entry top level (the total) last.
    arena: Vec<f32>,
    /// Level `l` is `arena[level_starts[l]..level_starts[l + 1]]`; entries
    /// past `depth` are unused.
    level_starts: [u32; MAX_DEPTH + 1],
    depth: usize,
    total: f32,
}

/// Depth of the largest supported tree (`2³¹` weights), whose arena still
/// fits `u32` offsets.
const MAX_DEPTH: usize = 8;

impl WaryTree {
    /// Builds a tree from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a negative or non-finite
    /// value, or if it has more than `2³¹` entries.
    pub fn new(weights: &[f32]) -> Self {
        let mut tree = WaryTree {
            arena: Vec::new(),
            level_starts: [0; MAX_DEPTH + 1],
            depth: 0,
            total: 0.0,
        };
        tree.refill(weights);
        tree
    }

    /// Rebuilds the tree from `weights` in its own allocation: the result
    /// equals [`WaryTree::new`] on the same weights, and the arena is
    /// reallocated only when `weights` needs more room than it has.
    ///
    /// # Panics
    ///
    /// As [`WaryTree::new`]; a tree that panicked while refilling must not
    /// be sampled.
    pub(crate) fn refill(&mut self, weights: &[f32]) {
        assert!(!weights.is_empty(), "W-ary tree needs at least one weight");
        assert!(
            weights.len() <= 1 << 31,
            "W-ary tree supports at most 2^31 weights"
        );
        // Level lengths depend on K alone, so the arena is sized up front.
        let level_starts = &mut self.level_starts;
        *level_starts = [0; MAX_DEPTH + 1];
        let mut depth = 0;
        let mut level_len = weights.len();
        loop {
            level_starts[depth + 1] = level_starts[depth] + level_len as u32;
            depth += 1;
            if level_len == 1 {
                break;
            }
            level_len = level_len.div_ceil(WARP_SIZE);
        }
        let arena = &mut self.arena;
        arena.clear();
        arena.reserve_exact(level_starts[depth] as usize);

        // Bottom level: inclusive prefix sums, computed warp-chunk by
        // warp-chunk exactly as `array_prefix_sum` would on the device, and
        // validated in the same pass.
        let mut acc = 0.0f32;
        let mut valid = true;
        arena.extend(weights.iter().map(|&w| {
            valid &= w.is_finite() && w >= 0.0;
            acc += w;
            acc
        }));
        assert!(valid, "weights must be non-negative and finite");

        // Each upper level copies the last entry of every warp-wide block of
        // the level below.
        for level in 1..depth {
            let lower = level_starts[level - 1] as usize..level_starts[level] as usize;
            for block in (lower.start..lower.end).step_by(WARP_SIZE) {
                let last = (block + WARP_SIZE - 1).min(lower.end - 1);
                arena.push(arena[last]);
            }
        }
        self.depth = depth;
        self.total = acc;
    }

    /// Number of levels in the tree (1 for `K ≤ 1`, 4 for `K ≤ 32³` as in the
    /// paper's fixed-depth layout).
    pub fn depth(&self) -> usize {
        self.depth
    }

    fn level(&self, l: usize) -> &[f32] {
        &self.arena[self.level_starts[l] as usize..self.level_starts[l + 1] as usize]
    }

    /// Finds the smallest index whose prefix sum is `>= x`, descending the
    /// tree one warp-vote per level (Fig. 7's query procedure).
    fn descend(&self, x: f32) -> usize {
        // Start at the topmost level below the single-entry root.
        let mut index = 0usize;
        for l in (0..self.depth).rev() {
            let level = self.level(l);
            let start = index * WARP_SIZE;
            if start >= level.len() {
                // Can only happen through floating-point round-off at the very
                // top of the range; clamp to the last block.
                index = level.len() - 1;
                continue;
            }
            let lanes = WARP_SIZE.min(level.len() - start);
            let found = warp_vote_first_active(lanes, |lane| level[start + lane] >= x);
            index = start + found.unwrap_or(lanes - 1);
        }
        index.min(self.len() - 1)
    }
}

impl TopicSampler for WaryTree {
    fn total(&self) -> f32 {
        self.total
    }

    fn len(&self) -> usize {
        self.level_starts[1] as usize
    }

    fn sample_with(&self, u: f32) -> usize {
        assert!((0.0..1.0).contains(&u), "u must be in [0, 1), got {u}");
        assert!(
            self.total > 0.0,
            "cannot sample from an all-zero distribution"
        );
        // Strictly positive target so that zero-weight prefix plateaus are
        // never selected.
        let x = (u * self.total).max(f32::MIN_POSITIVE);
        self.descend(x)
    }

    fn build_instructions(&self) -> u64 {
        // One warp prefix-sum pass over the bottom level (10 instructions per
        // 32 elements) plus a strided copy per upper level.
        let bottom = self.len() as u64;
        let upper = self.arena.len() as u64 - bottom;
        bottom.div_ceil(32) * 10 + upper
    }

    fn query_instructions(&self) -> u64 {
        // One ballot + ffs per level.
        2 * self.depth() as u64
    }

    fn query_shared_bytes(&self) -> u64 {
        // Levels 1–2 live in registers; levels 3 and 4 cost one 128-byte line
        // each (the paper's "only two shared memory cache lines per query").
        128 * (self.depth().saturating_sub(2) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::test_util::assert_matches_distribution;
    use proptest::prelude::*;

    #[test]
    fn paper_figure7_example() {
        let tree = WaryTree::new(&[1.0, 0.0, 2.0, 3.0, 0.0, 2.0, 0.0, 0.0, 1.0]);
        assert_eq!(tree.total(), 9.0);
        assert_eq!(tree.len(), 9);
        // Prefix sums: [1,1,3,6,6,8,8,8,9].
        assert_eq!(tree.sample_with(0.0), 0);
        assert_eq!(tree.sample_with(0.5 / 9.0), 0);
        assert_eq!(tree.sample_with(2.0 / 9.0), 2);
        assert_eq!(tree.sample_with(7.5 / 9.0), 5);
        assert_eq!(tree.sample_with(8.5 / 9.0), 8);
    }

    #[test]
    fn zero_weight_topics_are_never_sampled() {
        let weights = [0.0f32, 5.0, 0.0, 0.0, 3.0, 0.0];
        let tree = WaryTree::new(&weights);
        for i in 0..1000 {
            let u = i as f32 / 1000.0;
            let k = tree.sample_with(u);
            assert!(weights[k] > 0.0, "u={u} sampled zero-weight topic {k}");
        }
    }

    #[test]
    fn single_topic_tree() {
        let tree = WaryTree::new(&[2.5]);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.sample_with(0.99), 0);
    }

    #[test]
    fn large_k_has_four_levels_like_the_paper() {
        let weights = vec![1.0f32; 10_000];
        let tree = WaryTree::new(&weights);
        assert_eq!(tree.depth(), 4); // 10_000 → 313 → 10 → 1
        assert_eq!(tree.query_shared_bytes(), 256);
        // Uniform weights: u maps linearly onto topics (inclusive prefix sums,
        // so u = 0.5 lands exactly on the boundary of topic 4999).
        assert_eq!(tree.sample_with(0.0), 0);
        assert_eq!(tree.sample_with(0.5), 4_999);
        assert!(tree.sample_with(0.9999) >= 9_998);
    }

    #[test]
    fn distribution_matches_weights() {
        let weights = [0.25f32, 0.125, 0.375, 0.25];
        let tree = WaryTree::new(&weights);
        assert_matches_distribution(&tree, &weights, 40_000, 0.015, 3);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        WaryTree::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        WaryTree::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_distribution_panics_on_sample() {
        WaryTree::new(&[0.0, 0.0]).sample_with(0.5);
    }

    /// The index a left-to-right scan of the prefix sums of `weights` picks
    /// for `x`.
    fn linear_scan(weights: &[f32], x: f32) -> usize {
        let mut acc = 0.0f32;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if acc >= x {
                return i;
            }
        }
        weights.len() - 1
    }

    #[test]
    fn cost_model_inputs_are_pinned_at_level_boundaries() {
        // (K, depth, build, query instructions, query shared bytes), as the
        // per-level `Vec` layout reported them.
        for (k, depth, build, query, shared) in [
            (1usize, 1usize, 10u64, 2u64, 128u64),
            (31, 2, 11, 4, 128),
            (32, 2, 11, 4, 128),
            (33, 3, 23, 6, 128),
            (1_024, 3, 353, 6, 128),
            (1_025, 4, 366, 8, 256),
            (32_768, 4, 11_297, 8, 256),
        ] {
            let tree = WaryTree::new(&vec![0.5f32; k]);
            assert_eq!(tree.len(), k);
            assert_eq!(tree.depth(), depth, "K = {k}");
            assert_eq!(tree.build_instructions(), build, "K = {k}");
            assert_eq!(tree.query_instructions(), query, "K = {k}");
            assert_eq!(tree.query_shared_bytes(), shared, "K = {k}");
        }
    }

    #[test]
    fn refill_equals_a_new_tree_across_depth_changes() {
        // One, two, three and four levels, growing and then shrinking.
        let lengths = [1usize, 32, 33, 1_000, 1_025];
        let weights = |k: usize| -> Vec<f32> { (0..k).map(|i| (i % 7) as f32 * 0.25).collect() };
        let mut tree = WaryTree::new(&[1.0]);
        for &k in lengths.iter().chain(lengths.iter().rev()) {
            let weights = weights(k);
            tree.refill(&weights);
            assert_eq!(tree, WaryTree::new(&weights), "K = {k}");
            assert_eq!(
                tree.build_instructions(),
                WaryTree::new(&weights).build_instructions()
            );
        }
    }

    proptest! {
        #[test]
        fn matches_linear_scan_oracle(
            weights in proptest::collection::vec(0.0f32..10.0, 1..200),
            frac in 0.0f32..1.0,
        ) {
            let total: f32 = weights.iter().sum();
            prop_assume!(total > 0.0);
            let tree = WaryTree::new(&weights);
            let x = (frac * total).max(f32::MIN_POSITIVE);
            prop_assert_eq!(tree.sample_with(frac), linear_scan(&weights, x));
        }

        #[test]
        fn matches_linear_scan_oracle_at_level_boundaries(
            seed_weights in proptest::collection::vec(0.0f32..10.0, 64..65),
            frac in 0.0f32..1.0,
        ) {
            // One, two, three and four levels, each just below, at and just
            // above a power of the warp width.
            for k in [1usize, 31, 32, 33, 1_024, 1_025, 32_768] {
                let weights: Vec<f32> = (0..k)
                    .map(|i| seed_weights[(i * 7 + i / 64) % 64])
                    .collect();
                let tree = WaryTree::new(&weights);
                prop_assume!(tree.total() > 0.0);
                let x = (frac * tree.total()).max(f32::MIN_POSITIVE);
                prop_assert_eq!((k, tree.sample_with(frac)), (k, linear_scan(&weights, x)));
            }
        }

        #[test]
        fn build_cost_is_linear_in_k(k in 1usize..5000) {
            let tree = WaryTree::new(&vec![1.0f32; k]);
            // ~10/32 instructions per element plus upper levels.
            prop_assert!(tree.build_instructions() <= (k as u64) + 64);
        }
    }
}
