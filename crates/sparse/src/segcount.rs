//! Reference *segmented count*.
//!
//! Segmented count is the problem at the heart of rebuilding the
//! document–topic matrix: given tokens grouped into segments (one segment per
//! document) and a topic value per token, produce for every segment the list of
//! distinct topics with their multiplicities (§3.3, Fig. 8 of the paper).
//!
//! This module provides the straightforward host implementation used as the
//! correctness oracle; `saber-core::count::ssc` implements the paper's
//! shuffle-and-segmented-count on the simulated GPU and is property-tested
//! against this one.

use crate::radix::radix_sort_u32;

/// The counts of one segment: parallel `(keys, counts)` arrays with keys in
/// increasing order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentCounts {
    /// Distinct keys (topics) present in the segment, increasing.
    pub keys: Vec<u32>,
    /// Multiplicity of each key.
    pub counts: Vec<u32>,
}

impl SegmentCounts {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` when the segment holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total number of tokens counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }
}

/// Counts distinct values within a single segment using the three-step
/// procedure of Fig. 8: radix sort, adjacent-difference + prefix sum, then
/// scatter/accumulate.
///
/// # Examples
///
/// ```
/// use saber_sparse::segcount::count_segment;
///
/// let counts = count_segment(&[1, 8, 5, 1, 3, 5, 5, 3]);
/// assert_eq!(counts.keys, vec![1, 3, 5, 8]);
/// assert_eq!(counts.counts, vec![2, 2, 3, 1]);
/// ```
pub fn count_segment(values: &[u32]) -> SegmentCounts {
    if values.is_empty() {
        return SegmentCounts::default();
    }
    // (1) radix sort
    let mut sorted = values.to_vec();
    radix_sort_u32(&mut sorted);
    // (2) adjacent difference marks the first occurrence of each key; its
    // prefix sum gives each key's ordinal.
    let mut diff = vec![0u32; sorted.len()];
    for i in 1..sorted.len() {
        diff[i] = u32::from(sorted[i] != sorted[i - 1]);
    }
    let mut ordinal = vec![0u32; sorted.len()];
    let mut acc = 0u32;
    for i in 0..sorted.len() {
        acc += diff[i];
        ordinal[i] = acc;
    }
    let n_keys = (acc + 1) as usize;
    // (3) place keys at their ordinal and accumulate counters.
    let mut keys = vec![0u32; n_keys];
    let mut counts = vec![0u32; n_keys];
    for i in 0..sorted.len() {
        let o = ordinal[i] as usize;
        keys[o] = sorted[i];
        counts[o] += 1;
    }
    SegmentCounts { keys, counts }
}

/// Naive hash-free oracle for [`count_segment`]: dense histogram over the key
/// range.
#[cfg(test)]
fn count_segment_dense_oracle(values: &[u32], key_range: usize) -> SegmentCounts {
    let mut hist = vec![0u32; key_range];
    for &v in values {
        hist[v as usize] += 1;
    }
    let mut keys = Vec::new();
    let mut counts = Vec::new();
    for (k, &c) in hist.iter().enumerate() {
        if c > 0 {
            keys.push(k as u32);
            counts.push(c);
        }
    }
    SegmentCounts { keys, counts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        // Fig. 8: a = [1, 8, 5, 1, 3, 5, 5, 3] → keys [1,3,5,8], counts [2,2,3,1].
        let c = count_segment(&[1, 8, 5, 1, 3, 5, 5, 3]);
        assert_eq!(c.keys, vec![1, 3, 5, 8]);
        assert_eq!(c.counts, vec![2, 2, 3, 1]);
        assert_eq!(c.total(), 8);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn empty_segment() {
        let c = count_segment(&[]);
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn single_value_segment() {
        let c = count_segment(&[7, 7, 7]);
        assert_eq!(c.keys, vec![7]);
        assert_eq!(c.counts, vec![3]);
    }

    proptest! {
        #[test]
        fn matches_dense_oracle(values in proptest::collection::vec(0u32..64, 0..300)) {
            let got = count_segment(&values);
            let expected = count_segment_dense_oracle(&values, 64);
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn totals_preserved(values in proptest::collection::vec(0u32..1000, 0..300)) {
            prop_assert_eq!(count_segment(&values).total(), values.len() as u64);
        }
    }
}
