//! Shared-memory (per-block scratchpad) modelling.
//!
//! Each CUDA block owns a small software-managed scratchpad ("shared memory",
//! 48 KB per block on the paper's GPUs). SaberLDA stages the current word's
//! rows `B̂_v` and `B_v`, the probability vector `P`, and the lower levels of
//! the W-ary sampling tree there (§3.1.3, §3.2). This module sizes that
//! working set; the trainer divides a multiprocessor's shared memory by it to
//! bound how many blocks can be resident at once (Fig. 10c). The traffic is
//! counted by [`crate::MemoryTracker`] and charged by the cost model.

/// Computes the shared-memory working set of SaberLDA's sampling kernel for a
/// given number of topics: one `f32` row of `B̂_v`, one `u32` row of `B_v`,
/// and the two shared-memory levels of the W-ary tree (levels 3 and 4, ≈ K +
/// K/32 floats). The probability vector `P` is bounded by the number of
/// non-zeros per document and is charged separately by the kernel.
pub fn sampling_kernel_working_set(n_topics: usize) -> u64 {
    let bhat_row = 4 * n_topics as u64;
    let b_row = 4 * n_topics as u64;
    let tree_l4 = 4 * n_topics as u64;
    let tree_l3 = 4 * n_topics.div_ceil(32) as u64;
    bhat_row + b_row + tree_l4 + tree_l3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_scales_with_topics() {
        let k1000 = sampling_kernel_working_set(1000);
        let k10000 = sampling_kernel_working_set(10_000);
        assert!(k10000 > 9 * k1000);
        // K = 1000 must fit in a 48 KB block: ≈ 12.1 KB.
        assert!(k1000 <= 48 * 1024);
        // K = 10000 does not fit entirely; the kernel then keeps the tree in
        // global memory (checked by the trainer, not here).
        assert!(k10000 > 48 * 1024);
    }
}
