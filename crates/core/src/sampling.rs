//! The sparsity-aware sampling primitive (Alg. 2 of the paper).
//!
//! The E-step samples each token's topic from
//!
//! ```text
//! p(k) ∝ (A_dk + α) · B̂_vk
//!       = A_dk · B̂_vk   +   α · B̂_vk
//!         └── Problem 1 ──┘   └─ Problem 2 ─┘
//! ```
//!
//! Problem 1 only involves the `K_d` non-zero topics of the document's row
//! `A_d`, so its cost is `O(K_d)`; Problem 2 only depends on the word and is
//! served by a pre-processed structure ([`crate::trees`]). A coin flip with
//! probability `S / (S + Q)` (where `S = Σ_k A_dk·B̂_vk` and
//! `Q = α · Σ_k B̂_vk`) decides which sub-problem produces the sample.
//!
//! Alg. 2 is kept in two halves. The **chain** ([`product_chain`]) turns
//! `A_d` and `B̂_v` into the running sums of `P`; it depends on the pair
//! `(d, v)` only, so [`crate::kernel`] runs it once per pair, several pairs
//! side by side. The **draw** (`draw_topic`) spends a token's random numbers
//! on those sums. [`sample_token`] composes the two, one token at a time.

use rand::Rng;
use saber_sparse::prefix::find_in_prefix_sum;
use saber_sparse::SparseRowView;

use crate::trees::TopicSampler;

/// Chains [`product_chains`] advances together: the adds of one chain wait
/// for each other, those of its neighbours fill the wait.
pub(crate) const LANES: usize = 4;

/// Scratch state reused across calls to avoid per-token allocation.
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    /// Per lane, the running sums of the element-wise products
    /// `P_k = A_dk · B̂_vk` over the non-zero topics. Only grows; a chain uses
    /// the first `K_d` slots, [`sample_token`] lane 0.
    sums: [Vec<f32>; LANES],
}

impl SampleScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        SampleScratch::default()
    }
}

/// The first `len` slots of a scratch lane, grown on demand.
fn lane(sums: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if sums.len() < len {
        sums.resize(len, 0.0);
    }
    &mut sums[..len]
}

/// Problem 1's chain, continued from the running sum `s`:
/// `sums[i] = sums[i-1] + counts[i] · bhat_row[indices[i]]`. This loop *is*
/// the summation order: `f32`, left to right, every partial sum kept — the
/// sequence a search of `P`'s prefix sums would recompute, non-decreasing
/// because no term is negative.
///
/// # Panics
///
/// Panics if a topic index is out of range of `bhat_row`.
pub fn product_chain(
    indices: &[u32],
    counts: &[u32],
    bhat_row: &[f32],
    mut s: f32,
    sums: &mut [f32],
) {
    for ((slot, &k), &count) in sums.iter_mut().zip(indices).zip(counts) {
        s += count as f32 * bhat_row[k as usize];
        *slot = s;
    }
}

/// [`product_chain`] for [`LANES`] independent `(row of A, row of B̂)` pairs
/// (an absent lane is an empty row), returning each lane's sums: one loop
/// advances every chain over the length of the shortest row, then each
/// finishes alone, so a lane performs exactly [`product_chain`]'s additions.
pub(crate) fn product_chains<'s>(
    rows: &[(SparseRowView<'_, u32>, &[f32]); LANES],
    scratch: &'s mut SampleScratch,
) -> [&'s [f32]; LANES] {
    let shortest = rows.iter().map(|(row, _)| row.nnz()).min().unwrap_or(0);
    let mut lanes = rows.iter().zip(&mut scratch.sums);
    let mut sums: [&mut [f32]; LANES] = std::array::from_fn(|_| {
        let ((row, _), sums) = lanes.next().expect("a scratch lane per row");
        lane(sums, row.nnz())
    });
    // Cut to one length up front, so that the loop indexes without checks.
    let heads = sums.each_mut().map(|sums| &mut sums[..shortest]);
    let indices = rows.each_ref().map(|(row, _)| &row.indices()[..shortest]);
    let counts = rows.each_ref().map(|(row, _)| &row.values()[..shortest]);
    let mut s = [0.0f32; LANES];
    for i in 0..shortest {
        for l in 0..LANES {
            s[l] += counts[l][i] as f32 * rows[l].1[indices[l][i] as usize];
            heads[l][i] = s[l];
        }
    }
    for ((&s, (row, bhat_row)), sums) in s.iter().zip(rows).zip(&mut sums) {
        let (indices, counts) = (&row.indices()[shortest..], &row.values()[shortest..]);
        product_chain(indices, counts, bhat_row, s, &mut sums[shortest..]);
    }
    sums.map(|sums| &*sums)
}

/// Problem 1 or Problem 2: spends one token's random numbers — a coin, then
/// a position in `sums` ([`product_chain`]'s output over the topics
/// `indices`) or in the word's pre-processed structure for
/// `p₂(k) ∝ B̂_vk`, whose [`TopicSampler::total`] must equal `Σ_k B̂_vk`.
pub(crate) fn draw_topic<R: Rng + ?Sized, S: TopicSampler + ?Sized>(
    sums: &[f32],
    indices: &[u32],
    alpha: f32,
    word_sampler: &S,
    rng: &mut R,
) -> u32 {
    let s = sums.last().copied().unwrap_or(0.0);
    let q = alpha * word_sampler.total();

    // Choose the sub-problem.
    let coin: f32 = rng.gen_range(0.0..1.0);
    if s > 0.0 && coin < s / (s + q) {
        // Sample from the sparse product: the first running sum to reach a
        // random number. Floating-point round-off can leave `x` above the
        // last sum: the search then answers the last non-zero topic.
        let x = rng.gen_range(0.0..s).max(f32::MIN_POSITIVE);
        indices[find_in_prefix_sum(sums, x)]
    } else {
        // Sample from the pre-processed dense distribution.
        let u: f32 = rng.gen_range(0.0..1.0);
        word_sampler.sample_with(u) as u32
    }
}

/// Draws a new topic for one token (Alg. 2): [`product_chain`] over
/// `doc_row` — the document's row of the document–topic matrix `A` (sparse,
/// topics as indices, counts as values) — and `bhat_row` — the word's row of
/// `B̂` (dense, length `K`) — then `draw_topic`.
///
/// # Panics
///
/// Panics if a topic index in `doc_row` is out of range of `bhat_row`.
pub fn sample_token<R, S>(
    doc_row: SparseRowView<'_, u32>,
    bhat_row: &[f32],
    alpha: f32,
    word_sampler: &S,
    scratch: &mut SampleScratch,
    rng: &mut R,
) -> u32
where
    R: Rng + ?Sized,
    S: TopicSampler + ?Sized,
{
    let indices = doc_row.indices();
    let sums = lane(&mut scratch.sums[0], indices.len());
    product_chain(indices, doc_row.values(), bhat_row, 0.0, sums);
    draw_topic(sums, indices, alpha, word_sampler, rng)
}

/// The vanilla `O(K)` sampler of §2.3, used by the dense GPU baseline
/// (BIDMach-like systems) and as the correctness oracle for the sparsity-aware
/// path: it samples from the exact same distribution `p(k) ∝ (A_dk + α)·B̂_vk`
/// but touches every topic.
pub fn sample_token_dense<R: Rng + ?Sized>(
    doc_row_dense: &[f32],
    bhat_row: &[f32],
    alpha: f32,
    rng: &mut R,
) -> u32 {
    debug_assert_eq!(doc_row_dense.len(), bhat_row.len());
    let mut total = 0.0f32;
    for (a, b) in doc_row_dense.iter().zip(bhat_row.iter()) {
        total += (a + alpha) * b;
    }
    let x = rng.gen_range(0.0..total).max(f32::MIN_POSITIVE);
    let mut acc = 0.0f32;
    for (k, (a, b)) in doc_row_dense.iter().zip(bhat_row.iter()).enumerate() {
        acc += (a + alpha) * b;
        if acc >= x {
            return k as u32;
        }
    }
    (bhat_row.len() - 1) as u32
}

/// Computes the exact conditional distribution `p(k) ∝ (A_dk + α)·B̂_vk`
/// (normalised): the ground truth the tests hold the samplers to.
#[cfg(test)]
pub(crate) fn exact_conditional(
    doc_row: SparseRowView<'_, u32>,
    bhat_row: &[f32],
    alpha: f32,
) -> Vec<f64> {
    let mut dense = vec![0.0f64; bhat_row.len()];
    for (k, &c) in doc_row.iter() {
        dense[k as usize] = c as f64;
    }
    let mut p: Vec<f64> = dense
        .iter()
        .zip(bhat_row.iter())
        .map(|(&a, &b)| (a + alpha as f64) * b as f64)
        .collect();
    let z: f64 = p.iter().sum();
    if z > 0.0 {
        for x in &mut p {
            *x /= z;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::WaryTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use saber_sparse::SparseVec;

    fn bhat_row() -> Vec<f32> {
        vec![0.1, 0.5, 0.2, 0.15, 0.05]
    }

    #[test]
    fn sparsity_aware_matches_exact_distribution() {
        let bhat = bhat_row();
        let doc: SparseVec<u32> = vec![(1u32, 3u32), (3, 1)].into_iter().collect();
        let alpha = 0.3f32;
        let tree = WaryTree::new(&bhat);
        let exact = exact_conditional(doc.as_view(), &bhat, alpha);

        let mut rng = StdRng::seed_from_u64(42);
        let mut scratch = SampleScratch::new();
        let n = 200_000;
        let mut counts = vec![0usize; bhat.len()];
        for _ in 0..n {
            let k = sample_token(doc.as_view(), &bhat, alpha, &tree, &mut scratch, &mut rng);
            counts[k as usize] += 1;
        }
        for k in 0..bhat.len() {
            let observed = counts[k] as f64 / n as f64;
            assert!(
                (observed - exact[k]).abs() < 0.01,
                "topic {k}: observed {observed:.4}, exact {:.4}",
                exact[k]
            );
        }
    }

    #[test]
    fn dense_sampler_matches_exact_distribution() {
        let bhat = bhat_row();
        let doc_dense = vec![0.0f32, 3.0, 0.0, 1.0, 0.0];
        let doc: SparseVec<u32> = vec![(1u32, 3u32), (3, 1)].into_iter().collect();
        let alpha = 0.3f32;
        let exact = exact_conditional(doc.as_view(), &bhat, alpha);

        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = vec![0usize; bhat.len()];
        for _ in 0..n {
            let k = sample_token_dense(&doc_dense, &bhat, alpha, &mut rng);
            counts[k as usize] += 1;
        }
        for k in 0..bhat.len() {
            let observed = counts[k] as f64 / n as f64;
            assert!(
                (observed - exact[k]).abs() < 0.01,
                "topic {k}: observed {observed:.4}, exact {:.4}",
                exact[k]
            );
        }
    }

    #[test]
    fn empty_document_row_always_uses_problem_two() {
        let bhat = bhat_row();
        let doc: SparseVec<u32> = SparseVec::new();
        let tree = WaryTree::new(&bhat);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = SampleScratch::new();
        for _ in 0..1000 {
            let k = sample_token(doc.as_view(), &bhat, 0.1, &tree, &mut scratch, &mut rng);
            assert!((k as usize) < bhat.len());
        }
    }

    #[test]
    fn small_alpha_prefers_document_topics() {
        // With a tiny alpha and a document fully committed to topic 2, nearly
        // every sample should be topic 2.
        let bhat = vec![0.2f32; 5];
        let doc: SparseVec<u32> = vec![(2u32, 50u32)].into_iter().collect();
        let tree = WaryTree::new(&bhat);
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = SampleScratch::new();
        let hits = (0..2000)
            .filter(|_| {
                sample_token(doc.as_view(), &bhat, 1e-4, &tree, &mut scratch, &mut rng) == 2
            })
            .count();
        assert!(
            hits > 1950,
            "only {hits}/2000 samples hit the dominant topic"
        );
    }

    #[test]
    fn exact_conditional_is_normalised() {
        let bhat = bhat_row();
        let doc: SparseVec<u32> = vec![(0u32, 1u32), (4, 2)].into_iter().collect();
        let p = exact_conditional(doc.as_view(), &bhat, 0.5);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(p.len(), 5);
    }
}
