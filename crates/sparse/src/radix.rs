//! Least-significant-digit radix sort.
//!
//! The SSC count rebuild (Fig. 8 of the paper) starts with a radix sort of the
//! topic assignments of one document segment inside shared memory; the
//! reference [`crate::segcount::count_segment`] sorts with `radix_sort_u32`.
//! `saber-core`'s chunk layout takes [`stable_sort_permutation`]. The property
//! tests compare both against `slice::sort`.

/// Sorts `keys` in place using an 8-bit LSD radix sort.
///
/// Runs in `O(4·n)` passes independent of the key distribution, which is why
/// the paper's in-shared-memory count uses radix rather than comparison
/// sorting.
pub(crate) fn radix_sort_u32(keys: &mut Vec<u32>) {
    if keys.len() <= 1 {
        return;
    }
    let max = *keys.iter().max().expect("non-empty");
    let mut scratch = vec![0u32; keys.len()];
    let mut shift = 0u32;
    while shift < 32 && (shift == 0 || (max >> shift) > 0) {
        sort_pass(keys, &mut scratch, shift, |k| k);
        std::mem::swap(keys, &mut scratch);
        shift += 8;
    }
    // `keys` already holds the sorted data because we swapped after each pass.
}

fn sort_pass<F: Fn(u32) -> u32>(src: &[u32], dst: &mut [u32], shift: u32, key_of: F) {
    let mut hist = [0usize; 257];
    for &k in src {
        hist[((key_of(k) >> shift) & 0xff) as usize + 1] += 1;
    }
    for i in 1..257 {
        hist[i] += hist[i - 1];
    }
    for &k in src {
        let bucket = ((key_of(k) >> shift) & 0xff) as usize;
        dst[hist[bucket]] = k;
        hist[bucket] += 1;
    }
}

/// Computes, for every element of `keys`, its destination index if the array
/// were stably sorted by key. This is the "pre-processed pointer array" that
/// the SSC shuffle uses (§3.3): because document ids never change between
/// iterations, the permutation can be computed once and reused.
pub fn stable_sort_permutation(keys: &[u32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    // order[rank] = original index; invert to dest[original index] = rank.
    let mut dest = vec![0usize; keys.len()];
    for (rank, &orig) in order.iter().enumerate() {
        dest[orig] = rank;
    }
    dest
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_paper_example() {
        let mut v = vec![1u32, 8, 5, 1, 3, 5, 5, 3];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![1, 1, 3, 3, 5, 5, 5, 8]);
    }

    #[test]
    fn sorts_empty_and_single() {
        let mut v: Vec<u32> = vec![];
        radix_sort_u32(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42u32];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn sorts_large_keys() {
        let mut v = vec![u32::MAX, 0, 1 << 24, 77, 1 << 16];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![0, 77, 1 << 16, 1 << 24, u32::MAX]);
    }

    #[test]
    fn permutation_is_stable_sort() {
        let keys = vec![3u32, 1, 3, 0];
        let dest = stable_sort_permutation(&keys);
        // Sorted order: index 3 (key 0), 1 (key 1), 0 (key 3), 2 (key 3).
        assert_eq!(dest, vec![2, 1, 3, 0]);
        let mut placed = vec![u32::MAX; 4];
        for (i, &d) in dest.iter().enumerate() {
            placed[d] = keys[i];
        }
        assert_eq!(placed, vec![0, 1, 3, 3]);
    }

    proptest! {
        #[test]
        fn matches_std_sort(mut v in proptest::collection::vec(any::<u32>(), 0..500)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            radix_sort_u32(&mut v);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn permutation_is_a_bijection(keys in proptest::collection::vec(0u32..50, 0..200)) {
            let dest = stable_sort_permutation(&keys);
            let mut seen = vec![false; keys.len()];
            for &d in &dest {
                prop_assert!(d < keys.len());
                prop_assert!(!seen[d]);
                seen[d] = true;
            }
        }
    }
}
