//! Prefix-sum utilities.
//!
//! The vanilla multinomial sampler (§2.3 of the paper) and the W-ary sampling
//! tree both reduce to one operation: *find the position of a random value in
//! the prefix-sum array of a probability vector*. These are the scalar
//! reference implementations that the warp-level versions in `saber-gpu-sim`
//! and `saber-core` are validated against.

/// Computes the inclusive prefix sum of `values` (`out[i] = Σ_{j<=i} values[j]`).
///
/// # Examples
///
/// ```
/// let p = saber_sparse::prefix::inclusive_prefix_sum(&[1.0, 2.0, 3.0]);
/// assert_eq!(p, vec![1.0, 3.0, 6.0]);
/// ```
pub fn inclusive_prefix_sum(values: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0.0f32;
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

/// Computes the exclusive prefix sum of `values` (`out[i] = Σ_{j<i} values[j]`).
///
/// # Examples
///
/// ```
/// let p = saber_sparse::prefix::exclusive_prefix_sum(&[1.0, 2.0, 3.0]);
/// assert_eq!(p, vec![0.0, 1.0, 3.0]);
/// ```
pub fn exclusive_prefix_sum(values: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0.0f32;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    out
}

/// In-place inclusive prefix sum.
pub fn inclusive_prefix_sum_in_place(values: &mut [f32]) {
    let mut acc = 0.0f32;
    for v in values.iter_mut() {
        acc += *v;
        *v = acc;
    }
}

/// Inclusive prefix sum over `u32` counts, producing `u32` offsets.
///
/// Used by the segmented-count key extraction (step 2 of Fig. 8).
pub fn inclusive_prefix_sum_u32(values: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0u32;
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

/// Exclusive prefix sum over `usize` counts, e.g. to turn per-segment sizes
/// into segment start offsets.
pub fn exclusive_prefix_sum_usize(values: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0usize;
    for &v in values {
        out.push(acc);
        acc += v;
    }
    out
}

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
/// use saber_sparse::prefix::{inclusive_prefix_sum, find_in_prefix_sum};
/// let p = inclusive_prefix_sum(&[0.25, 0.125, 0.375, 0.25]);
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

/// Linear-scan variant of [`find_in_prefix_sum`]; used as the oracle in
/// property tests and by the warp-kernel reference path.
pub fn find_in_prefix_sum_linear(prefix: &[f32], u: f32) -> usize {
    assert!(!prefix.is_empty(), "prefix-sum array must not be empty");
    for (i, &p) in prefix.iter().enumerate() {
        if u <= p {
            return i;
        }
    }
    prefix.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inclusive_and_exclusive() {
        let v = [1.0f32, 0.0, 2.5, 3.0];
        assert_eq!(inclusive_prefix_sum(&v), vec![1.0, 1.0, 3.5, 6.5]);
        assert_eq!(exclusive_prefix_sum(&v), vec![0.0, 1.0, 1.0, 3.5]);
        let mut w = v;
        inclusive_prefix_sum_in_place(&mut w);
        assert_eq!(w.to_vec(), inclusive_prefix_sum(&v));
    }

    #[test]
    fn integer_prefix_sums() {
        assert_eq!(
            inclusive_prefix_sum_u32(&[0, 0, 1, 0, 1]),
            vec![0, 0, 1, 1, 2]
        );
        assert_eq!(exclusive_prefix_sum_usize(&[3, 1, 4]), vec![0, 3, 4]);
        assert!(inclusive_prefix_sum_u32(&[]).is_empty());
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

        #[test]
        fn prefix_sum_last_is_total(values in proptest::collection::vec(0.0f32..10.0, 1..100)) {
            let prefix = inclusive_prefix_sum(&values);
            let total: f32 = values.iter().sum();
            prop_assert!((prefix.last().unwrap() - total).abs() < 1e-3);
            // Monotone non-decreasing.
            for w in prefix.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
