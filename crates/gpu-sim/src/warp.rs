//! Warp-level primitives.
//!
//! A warp is the basic SIMD unit of a GPU: 32 lanes executing the same
//! instruction (§3.2 of the paper). SaberLDA's kernels are built from a small
//! set of warp collectives:
//!
//! * `warp_prefix_sum` — inclusive scan of 32 values via `shfl_down`, in
//!   `O(log2 32)` steps (Harris et al., GPU Gems 3);
//! * `warp_vote` — `__ballot` of a per-lane predicate followed by `__ffs`,
//!   returning the first lane whose predicate holds;
//! * `warp_copy` — broadcast of one lane's value to the whole warp
//!   (`__shfl`).
//!
//! The functions here compute the same results lane-by-lane on the CPU and
//! expose per-call instruction-count constants so the cost model can charge
//! them realistically.

/// Number of lanes in a warp. 32 on every NVIDIA architecture the paper uses.
pub const WARP_SIZE: usize = 32;

/// Instructions charged for a warp inclusive prefix sum (`log2 32` shuffle +
/// add steps).
pub const PREFIX_SUM_INSTRUCTIONS: u64 = 10;

/// Instructions charged for a ballot + ffs vote.
pub const VOTE_INSTRUCTIONS: u64 = 2;

/// Instructions charged for a reduction (`log2 32` shuffle + add steps).
pub const REDUCE_INSTRUCTIONS: u64 = 10;

/// Instructions charged for a single-lane broadcast.
pub const BROADCAST_INSTRUCTIONS: u64 = 1;

/// In-place inclusive prefix sum over up to one warp's worth of values.
///
/// Mirrors the `warp_prefix_sum` routine the paper's sampling kernel uses
/// (Fig. 5) to locate a random number within 32 partial sums.
///
/// # Panics
///
/// Panics if `vals.len() > WARP_SIZE`.
///
/// # Examples
///
/// ```
/// let mut v = [1.0f32, 2.0, 3.0, 4.0];
/// saber_gpu_sim::warp::warp_inclusive_prefix_sum(&mut v);
/// assert_eq!(v, [1.0, 3.0, 6.0, 10.0]);
/// ```
pub fn warp_inclusive_prefix_sum(vals: &mut [f32]) {
    assert!(
        vals.len() <= WARP_SIZE,
        "a warp prefix sum operates on at most {WARP_SIZE} lanes"
    );
    // Hillis–Steele scan, exactly the shfl_down pattern used on the GPU.
    let n = vals.len();
    let mut snapshot = [0.0f32; WARP_SIZE];
    let mut offset = 1;
    while offset < n.max(1) {
        snapshot[..n].copy_from_slice(vals);
        for lane in offset..n {
            vals[lane] = snapshot[lane] + snapshot[lane - offset];
        }
        offset <<= 1;
    }
}

/// Sum of up to one warp's worth of values (the `warp_sum` of Fig. 5).
///
/// # Panics
///
/// Panics if `vals.len() > WARP_SIZE`.
pub fn warp_reduce_sum(vals: &[f32]) -> f32 {
    assert!(
        vals.len() <= WARP_SIZE,
        "a warp reduction operates on at most {WARP_SIZE} lanes"
    );
    vals.iter().sum()
}

/// The `__ballot` intrinsic: builds a 32-bit mask whose bit `i` is set when
/// `pred(i)` holds. Lanes `>= active_lanes` are treated as inactive.
///
/// # Panics
///
/// Panics if `active_lanes > WARP_SIZE`.
pub fn warp_ballot<F: FnMut(usize) -> bool>(active_lanes: usize, mut pred: F) -> u32 {
    assert!(active_lanes <= WARP_SIZE, "at most {WARP_SIZE} lanes");
    let mut mask = 0u32;
    for lane in 0..active_lanes {
        if pred(lane) {
            mask |= 1 << lane;
        }
    }
    mask
}

/// The `__ffs` intrinsic: index of the least-significant set bit, or `None`
/// when the mask is zero. (CUDA's `__ffs` returns 1-based positions with 0 for
/// an empty mask; we use `Option` for the same information.)
pub fn ffs(mask: u32) -> Option<usize> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// The paper's `warp_vote`: index of the first lane (among the full warp)
/// whose predicate holds, or `None` if no lane votes.
///
/// # Examples
///
/// ```
/// use saber_gpu_sim::warp::warp_vote_first;
/// assert_eq!(warp_vote_first(|lane| lane >= 7), Some(7));
/// assert_eq!(warp_vote_first(|_| false), None);
/// ```
pub fn warp_vote_first<F: FnMut(usize) -> bool>(pred: F) -> Option<usize> {
    ffs(warp_ballot(WARP_SIZE, pred))
}

/// Like [`warp_vote_first`] but only the first `active_lanes` lanes
/// participate (used at the ragged tail of a sparse row).
pub fn warp_vote_first_active<F: FnMut(usize) -> bool>(
    active_lanes: usize,
    pred: F,
) -> Option<usize> {
    ffs(warp_ballot(active_lanes, pred))
}

/// The `warp_copy(a, id)` helper of Fig. 5: broadcasts lane `lane`'s value to
/// the whole warp; on the CPU this is simply a bounds-checked read.
///
/// # Panics
///
/// Panics if `lane >= vals.len()`.
pub fn warp_copy(vals: &[f32], lane: usize) -> f32 {
    assert!(lane < vals.len(), "broadcast lane {lane} out of range");
    vals[lane]
}

/// Splits a row of `len` elements into the per-warp-iteration chunks the
/// hardware would process: each iteration covers `WARP_SIZE` consecutive
/// elements (the last one possibly ragged). Returns `(start, lanes)` pairs.
pub fn warp_iterations(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(WARP_SIZE)
        .map(move |start| (start, WARP_SIZE.min(len - start)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_sum_full_warp() {
        let mut v = [1.0f32; 32];
        warp_inclusive_prefix_sum(&mut v);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i + 1) as f32);
        }
    }

    #[test]
    fn prefix_sum_partial_warp_and_empty() {
        let mut v = [2.0f32, 4.0, 8.0];
        warp_inclusive_prefix_sum(&mut v);
        assert_eq!(v, [2.0, 6.0, 14.0]);
        let mut empty: [f32; 0] = [];
        warp_inclusive_prefix_sum(&mut empty);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn prefix_sum_rejects_oversized_input() {
        let mut v = [0.0f32; 33];
        warp_inclusive_prefix_sum(&mut v);
    }

    #[test]
    fn reduce_sum_matches_iter_sum() {
        let v: Vec<f32> = (0..32).map(|i| i as f32).collect();
        assert_eq!(warp_reduce_sum(&v), (0..32).sum::<i32>() as f32);
        assert_eq!(warp_reduce_sum(&[]), 0.0);
    }

    #[test]
    fn ballot_and_ffs() {
        let mask = warp_ballot(32, |lane| lane % 8 == 3);
        assert_eq!(ffs(mask), Some(3));
        assert_eq!(mask.count_ones(), 4);
        assert_eq!(ffs(0), None);
        assert_eq!(ffs(1 << 31), Some(31));
    }

    #[test]
    fn vote_first_finds_first_true_lane() {
        assert_eq!(warp_vote_first(|lane| lane >= 20), Some(20));
        assert_eq!(warp_vote_first(|lane| lane == 0), Some(0));
        assert_eq!(warp_vote_first(|_| false), None);
        assert_eq!(warp_vote_first_active(4, |lane| lane >= 4), None);
        assert_eq!(warp_vote_first_active(4, |lane| lane >= 2), Some(2));
    }

    #[test]
    fn broadcast_reads_requested_lane() {
        let v = [5.0f32, 6.0, 7.0];
        assert_eq!(warp_copy(&v, 2), 7.0);
    }

    #[test]
    fn warp_iterations_cover_row_exactly() {
        let iters: Vec<(usize, usize)> = warp_iterations(70).collect();
        assert_eq!(iters, vec![(0, 32), (32, 32), (64, 6)]);
        assert_eq!(warp_iterations(0).count(), 0);
        assert_eq!(warp_iterations(32).collect::<Vec<_>>(), vec![(0, 32)]);
    }

    proptest! {
        #[test]
        fn prefix_sum_matches_scalar_scan(vals in proptest::collection::vec(0.0f32..100.0, 0..32)) {
            let mut warp = vals.clone();
            warp_inclusive_prefix_sum(&mut warp);
            let mut acc = 0.0f32;
            for (i, &v) in vals.iter().enumerate() {
                acc += v;
                // The Hillis–Steele scan adds in a different order; allow
                // floating-point slack proportional to the running total.
                prop_assert!((warp[i] - acc).abs() <= 1e-3 * acc.max(1.0));
            }
        }

        #[test]
        fn vote_first_is_min_matching_lane(bits in any::<u32>()) {
            let expected = (0..32).find(|&l| bits & (1 << l) != 0);
            prop_assert_eq!(warp_vote_first(|l| bits & (1 << l) != 0), expected);
        }
    }
}
