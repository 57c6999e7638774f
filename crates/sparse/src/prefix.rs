//! Prefix-sum search.
//!
//! The vanilla multinomial sampler (§2.3 of the paper) and the W-ary sampling
//! tree both reduce to one operation: *find the position of a random value in
//! the prefix-sum array of a probability vector*. [`find_in_prefix_sum`] is
//! that search; `saber-core`'s sparsity-aware sampler draws its sparse branch
//! with it.

/// Finds the position of `u` in the *inclusive* prefix-sum array `prefix`:
/// the smallest index `i` with `u <= prefix[i]`.
///
/// This is "the position of u in the prefix sum array" routine the paper uses
/// in the vanilla sampler (step 3 of §2.3). Returns `prefix.len() - 1` when `u`
/// exceeds the total (which can happen with floating-point round-off when
/// `u` is drawn as `total * uniform(0,1)`), and `0` for an empty array is
/// undefined — callers must not pass an empty prefix array.
///
/// # Panics
///
/// Panics if `prefix` is empty.
///
/// # Examples
///
/// ```
/// use saber_sparse::prefix::find_in_prefix_sum;
/// let p = [0.25, 0.375, 0.75, 1.0]; // prefix sums of 0.25, 0.125, 0.375, 0.25
/// assert_eq!(find_in_prefix_sum(&p, 0.2), 0);
/// assert_eq!(find_in_prefix_sum(&p, 0.3), 1);
/// assert_eq!(find_in_prefix_sum(&p, 0.5), 2);
/// assert_eq!(find_in_prefix_sum(&p, 0.99), 3);
/// ```
#[inline]
pub fn find_in_prefix_sum(prefix: &[f32], u: f32) -> usize {
    assert!(!prefix.is_empty(), "prefix-sum array must not be empty");
    // Binary search for the first element >= u; the standard library's
    // bisection selects instead of branching on the unpredictable compare.
    let first = prefix.partition_point(|&p| p < u);
    first.min(prefix.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn inclusive_prefix_sum(values: &[f32]) -> Vec<f32> {
        values
            .iter()
            .scan(0.0f32, |acc, &v| {
                *acc += v;
                Some(*acc)
            })
            .collect()
    }

    /// Linear-scan oracle for [`find_in_prefix_sum`].
    fn find_in_prefix_sum_linear(prefix: &[f32], u: f32) -> usize {
        prefix
            .iter()
            .position(|&p| u <= p)
            .unwrap_or(prefix.len() - 1)
    }

    #[test]
    fn find_positions_match_paper_example() {
        // Fig. 2 of the paper: probabilities 0.25, 0.125, 0.375, 0.25.
        let p = inclusive_prefix_sum(&[0.25, 0.125, 0.375, 0.25]);
        assert_eq!(find_in_prefix_sum(&p, 0.0), 0);
        assert_eq!(find_in_prefix_sum(&p, 0.25), 0);
        assert_eq!(find_in_prefix_sum(&p, 0.250001), 1);
        assert_eq!(find_in_prefix_sum(&p, 0.75), 2);
        assert_eq!(find_in_prefix_sum(&p, 1.0), 3);
        // Beyond the total clamps to the last bucket.
        assert_eq!(find_in_prefix_sum(&p, 2.0), 3);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn find_panics_on_empty() {
        find_in_prefix_sum(&[], 0.5);
    }

    proptest! {
        #[test]
        fn binary_matches_linear(values in proptest::collection::vec(0.0f32..10.0, 1..200), frac in 0.0f32..1.0) {
            let prefix = inclusive_prefix_sum(&values);
            let total = *prefix.last().unwrap();
            let u = frac * total;
            prop_assert_eq!(find_in_prefix_sum(&prefix, u), find_in_prefix_sum_linear(&prefix, u));
        }
    }
}
