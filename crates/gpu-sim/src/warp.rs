//! Warp-level primitives.
//!
//! A warp is the basic SIMD unit of a GPU: 32 lanes executing the same
//! instruction (§3.2 of the paper). SaberLDA's kernels are built from a small
//! set of warp collectives:
//!
//! * `warp_prefix_sum` — inclusive scan of 32 values via `shfl_down`, in
//!   `O(log2 32)` steps (Harris et al., GPU Gems 3);
//! * `warp_sum` — the matching reduction;
//! * `warp_vote` — `__ballot` of a per-lane predicate followed by `__ffs`,
//!   returning the first lane whose predicate holds.
//!
//! The sampling kernel computes its sums on the CPU in scalar order and
//! charges the first two collectives through the instruction-count constants
//! below. The vote is also executed: the W-ary tree descends through
//! [`warp_vote_first_active`], which computes the ballot and `ffs` lane by
//! lane.

/// Number of lanes in a warp. 32 on every NVIDIA architecture the paper uses.
pub const WARP_SIZE: usize = 32;

/// Instructions charged for a warp inclusive prefix sum (`log2 32` shuffle +
/// add steps).
pub const PREFIX_SUM_INSTRUCTIONS: u64 = 10;

/// Instructions charged for a ballot + ffs vote.
pub const VOTE_INSTRUCTIONS: u64 = 2;

/// Instructions charged for a reduction (`log2 32` shuffle + add steps).
pub const REDUCE_INSTRUCTIONS: u64 = 10;

/// The `__ballot` intrinsic: builds a 32-bit mask whose bit `i` is set when
/// `pred(i)` holds. Lanes `>= active_lanes` are treated as inactive.
///
/// # Panics
///
/// Panics if `active_lanes > WARP_SIZE`.
pub(crate) fn warp_ballot<F: FnMut(usize) -> bool>(active_lanes: usize, mut pred: F) -> u32 {
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

/// The paper's `warp_vote`: index of the first lane in `0..active_lanes`
/// whose predicate holds, or `None` if no lane votes. Fewer than
/// [`WARP_SIZE`] lanes take part at the ragged tail of a sparse row.
///
/// # Examples
///
/// ```
/// use saber_gpu_sim::warp::warp_vote_first_active;
/// assert_eq!(warp_vote_first_active(32, |lane| lane >= 7), Some(7));
/// assert_eq!(warp_vote_first_active(4, |lane| lane >= 7), None);
/// ```
pub fn warp_vote_first_active<F: FnMut(usize) -> bool>(
    active_lanes: usize,
    pred: F,
) -> Option<usize> {
    ffs(warp_ballot(active_lanes, pred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(
            warp_vote_first_active(WARP_SIZE, |lane| lane >= 20),
            Some(20)
        );
        assert_eq!(warp_vote_first_active(WARP_SIZE, |lane| lane == 0), Some(0));
        assert_eq!(warp_vote_first_active(WARP_SIZE, |_| false), None);
        assert_eq!(warp_vote_first_active(4, |lane| lane >= 4), None);
        assert_eq!(warp_vote_first_active(4, |lane| lane >= 2), Some(2));
    }

    proptest! {
        #[test]
        fn vote_first_is_min_matching_lane(bits in any::<u32>()) {
            let expected = (0..32).find(|&l| bits & (1 << l) != 0);
            prop_assert_eq!(warp_vote_first_active(WARP_SIZE, |l| bits & (1 << l) != 0), expected);
        }
    }
}
