//! Fold-in inference for unseen documents, shared by evaluation and serving.
//!
//! Two estimators of a document's topic proportions `θ_d` against fixed
//! topic–word distributions `B̂` live here:
//!
//! * [`fold_in_em`] — the dense soft-EM fold-in historically private to
//!   [`crate::eval`]. Every word touches all `K` topics, cost `O(N_d · K)`
//!   per iteration. Exact responsibilities, no sampling noise; used for
//!   held-out likelihood so the paper's convergence targets stay comparable.
//! * [`fold_in_esca`] — the sparsity-aware collapsed-Gibbs fold-in used by
//!   the serving subsystem (`saber-serve`). Each token is resampled with the
//!   ESCA decomposition of Alg. 2 via [`crate::sampling::sample_token`]:
//!   `p(k) ∝ A_dk·B̂_vk + α·B̂_vk`, where the first sub-problem only touches
//!   the `K_d` topics present in the document (`O(K_d)` per token) and the
//!   second is answered by the pre-processed per-word structures of
//!   [`crate::trees`]. This is the same cost profile that makes training
//!   sparsity-aware, applied to inference.
//!
//! Both return a dense `θ` of length `K` summing to 1. They read `B̂`
//! through [`TopicRows`] (and ESCA its per-word samplers through
//! [`SampledRows`]), so evaluation's dense matrix and a serving snapshot's
//! shared per-word rows run the same code.
//!
//! # Decomposition for sharded serving
//!
//! Both estimators are expressed in terms of *partial* building blocks so a
//! vocabulary-sharded deployment (`saber-serve`'s `ShardRouter`) can compute
//! the same answers from per-shard pieces:
//!
//! * EM: each iteration's sufficient statistic — the responsibility-count
//!   vector — is a **sum over words** ([`em_accumulate`]), so shards holding
//!   disjoint word ranges produce partial counts that add exactly; the
//!   θ update ([`em_update`]) runs once per iteration on the merged counts.
//!   Sharded EM is therefore *algebraically identical* to unsharded EM (the
//!   only differences are floating-point summation order).
//! * ESCA: the Gibbs chain over a word subset yields a raw measured-count
//!   accumulator ([`fold_in_esca_partial`]); accumulators from disjoint
//!   subsets add, and [`esca_theta`] turns the merged counts into θ. With
//!   one subset this reproduces [`fold_in_esca`] bit-for-bit; with several,
//!   cross-shard Gibbs coupling is approximated (the chains are
//!   independent), which is the fast-path trade-off documented in
//!   `saber-serve`.

use rand::Rng;
use saber_sparse::{DenseMatrix, SparseRowView};

use crate::sampling::{sample_token, SampleScratch};
use crate::trees::TopicSampler;

/// Row lookup into a topic–word matrix `B̂` (`V × K`, columns normalised):
/// what the fold-ins read, whatever holds the rows.
pub trait TopicRows {
    /// Topic count `K`: the length of every row.
    fn n_topics(&self) -> usize;

    /// Word `v`'s `B̂` row.
    ///
    /// # Panics
    ///
    /// May panic if `v` is out of vocabulary range.
    fn topic_row(&self, v: usize) -> &[f32];
}

impl TopicRows for DenseMatrix<f32> {
    fn n_topics(&self) -> usize {
        self.cols()
    }

    fn topic_row(&self, v: usize) -> &[f32] {
        self.row(v)
    }
}

/// [`TopicRows`] plus one pre-processed structure per word for the dense
/// sub-problem `p₂(k) ∝ B̂_vk`: what the ESCA fold-in reads.
pub trait SampledRows: TopicRows {
    /// The per-word structure.
    type Sampler: TopicSampler;

    /// Word `v`'s `B̂` row and its sampler, in one lookup.
    ///
    /// # Panics
    ///
    /// May panic if `v` is out of vocabulary range.
    fn sampled_row(&self, v: usize) -> (&[f32], &Self::Sampler);
}

/// Estimates `θ_d` from observed words by soft-EM iterations against fixed
/// topic–word distributions `bhat` (`V × K`, columns normalised).
///
/// Returns the uniform distribution when `words` is empty.
///
/// # Panics
///
/// Panics if a word id in `words` is out of range of `bhat`.
pub fn fold_in_em<B: TopicRows + ?Sized>(
    words: &[u32],
    bhat: &B,
    alpha: f32,
    iterations: usize,
) -> Vec<f64> {
    let k = bhat.n_topics();
    let mut theta = vec![1.0f64 / k as f64; k];
    if words.is_empty() {
        return theta;
    }
    let mut counts = vec![0.0f64; k];
    for _ in 0..iterations {
        counts.fill(0.0);
        em_accumulate(words, bhat, &theta, &mut counts);
        em_update(&mut theta, &counts, words.len(), alpha);
    }
    theta
}

/// One EM fold-in iteration's count accumulation for a word subset: adds
/// each word's topic responsibilities under the current `theta` into
/// `counts`.
///
/// This is the decomposable half of [`fold_in_em`]: responsibilities are
/// per-word, so partial counts computed over disjoint word subsets (e.g. by
/// vocabulary shards holding only their own `B̂` rows) sum to exactly the
/// counts a single pass over all words would produce, up to floating-point
/// summation order.
///
/// # Panics
///
/// Panics if a word id is out of range of `bhat`, or if `theta` / `counts`
/// are shorter than `K`.
pub fn em_accumulate<B: TopicRows + ?Sized>(
    words: &[u32],
    bhat: &B,
    theta: &[f64],
    counts: &mut [f64],
) {
    // Without these, the zips below would silently truncate to the shorter
    // slice and under-count topics instead of failing.
    let k = bhat.n_topics();
    assert!(
        theta.len() >= k && counts.len() >= k,
        "theta ({}) and counts ({}) must cover all K = {k} topics",
        theta.len(),
        counts.len()
    );
    // One responsibility buffer for the whole document, not one per word.
    let mut resp = vec![0.0f64; k];
    for &v in words {
        let row = bhat.topic_row(v as usize);
        for ((r, &t), &b) in resp.iter_mut().zip(theta).zip(row) {
            *r = t * b as f64;
        }
        let z: f64 = resp.iter().sum();
        if z <= 0.0 {
            continue;
        }
        for (c, &r) in counts.iter_mut().zip(&resp) {
            *c += r / z;
        }
    }
}

/// The EM fold-in θ update: `θ_k = (counts_k + α) / (n_words + K·α)`,
/// written into `theta`. `n_words` is the total document length the counts
/// were accumulated over (summed across shards in a sharded deployment).
pub fn em_update(theta: &mut [f64], counts: &[f64], n_words: usize, alpha: f32) {
    let alpha = alpha as f64;
    let k = theta.len();
    let denom = n_words as f64 + k as f64 * alpha;
    for (t, &c) in theta.iter_mut().zip(counts.iter()) {
        *t = (c + alpha) / denom;
    }
}

/// A document's topic counts kept sparse, so fold-in sampling touches only
/// the `K_d` topics the document currently uses.
///
/// Backed by parallel index/value vectors with indices kept **sorted**, so
/// [`SparseDocTopics::as_view`] honours the full [`SparseRowView`] contract
/// (its `get` binary-searches). Increments and decrements are `O(K_d)`,
/// which beats any tree for the short documents inference sees.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseDocTopics {
    indices: Vec<u32>,
    values: Vec<u32>,
}

impl SparseDocTopics {
    /// Creates an empty counter.
    pub fn new() -> Self {
        SparseDocTopics::default()
    }

    /// View compatible with the sparsity-aware sampler.
    pub fn as_view(&self) -> SparseRowView<'_, u32> {
        SparseRowView::new(&self.indices, &self.values)
    }

    /// Adds one count of `topic`.
    pub fn add(&mut self, topic: u32) {
        match self.indices.binary_search(&topic) {
            Ok(i) => self.values[i] += 1,
            Err(i) => {
                self.indices.insert(i, topic);
                self.values.insert(i, 1);
            }
        }
    }

    /// Removes one count of `topic`.
    ///
    /// # Panics
    ///
    /// Panics if `topic` has no counts.
    pub fn remove(&mut self, topic: u32) {
        let Ok(i) = self.indices.binary_search(&topic) else {
            panic!("removing topic {topic} with zero count");
        };
        self.values[i] -= 1;
        if self.values[i] == 0 {
            self.indices.remove(i);
            self.values.remove(i);
        }
    }

    /// Accumulates the counts into a dense vector.
    pub(crate) fn accumulate_into(&self, dense: &mut [f64]) {
        for (&t, &c) in self.indices.iter().zip(self.values.iter()) {
            dense[t as usize] += c as f64;
        }
    }
}

/// Estimates `θ_d` by sparsity-aware collapsed Gibbs fold-in (the ESCA
/// decomposition applied to inference).
///
/// * `words` — the document's word ids;
/// * `rows` — topic–word probabilities (`V × K`, columns normalised), each
///   word's row with its pre-processed structure for `p₂(k) ∝ B̂_vk` (e.g. a
///   serving snapshot's `WordSampler` rows);
/// * `alpha` — document–topic smoothing;
/// * `burn_in` — sweeps discarded before measuring;
/// * `n_samples` — sweeps averaged into the estimate (at least 1 is used);
/// * `rng` — sampling is deterministic given the RNG state.
///
/// Returns the uniform distribution when `words` is empty. Per-token cost is
/// `O(K_d)` plus one query of the word's pre-processed structure, never
/// `O(K)`.
///
/// # Panics
///
/// Panics if a word id is out of range of `rows`.
pub fn fold_in_esca<R, W>(
    words: &[u32],
    rows: &W,
    alpha: f32,
    burn_in: usize,
    n_samples: usize,
    rng: &mut R,
) -> Vec<f64>
where
    R: Rng + ?Sized,
    W: SampledRows + ?Sized,
{
    let k = rows.n_topics();
    if words.is_empty() {
        return vec![1.0f64 / k as f64; k];
    }
    let partial = fold_in_esca_partial(words, rows, alpha, burn_in, n_samples, rng);
    esca_theta(partial.counts, partial.n_words, n_samples, alpha)
}

/// Partial sufficient statistics of a fold-in over a word subset: the raw
/// per-topic count accumulator plus the number of words it covers.
///
/// Partials over disjoint word subsets merge by element-wise summing
/// `counts` and adding `n_words`; see [`esca_theta`] and [`em_update`] for
/// the finishing steps.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFoldIn {
    /// Per-topic accumulated counts (length `K`). For ESCA these are the
    /// measured-sweep sums; for one EM round, responsibility sums.
    pub counts: Vec<f64>,
    /// Number of words folded into `counts`.
    pub n_words: usize,
}

impl PartialFoldIn {
    /// An empty partial for `k` topics (zero counts, zero words) — the
    /// identity element of [`PartialFoldIn::merge`].
    pub fn empty(k: usize) -> Self {
        PartialFoldIn {
            counts: vec![0.0f64; k],
            n_words: 0,
        }
    }

    /// Element-wise adds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the topic counts differ in length.
    pub fn merge(&mut self, other: &PartialFoldIn) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "partial fold-ins disagree on K"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n_words += other.n_words;
    }
}

/// The chain half of [`fold_in_esca`]: runs the sparsity-aware collapsed
/// Gibbs fold-in over `words` and returns the **raw** measured-count
/// accumulator instead of a normalised θ.
///
/// A vocabulary shard calls this with its own word subset (ids local to its
/// rows) and an independently seeded `rng`; the router sums the
/// partial counts and finishes with [`esca_theta`]. With the full word list
/// and the same RNG state this is exactly the computation inside
/// [`fold_in_esca`], so a single-shard deployment reproduces it
/// bit-for-bit.
///
/// # Panics
///
/// Panics if a word id is out of range of `rows`.
pub fn fold_in_esca_partial<R, W>(
    words: &[u32],
    rows: &W,
    alpha: f32,
    burn_in: usize,
    n_samples: usize,
    rng: &mut R,
) -> PartialFoldIn
where
    R: Rng + ?Sized,
    W: SampledRows + ?Sized,
{
    let k = rows.n_topics();
    if words.is_empty() {
        return PartialFoldIn::empty(k);
    }
    let n_samples = n_samples.max(1);

    // Initialise each token from its word's dense distribution p₂(k) ∝ B̂_vk:
    // a data-driven start that needs no document statistics.
    let mut counts = SparseDocTopics::new();
    let mut assignments: Vec<u32> = words
        .iter()
        .map(|&v| {
            let u: f32 = rng.gen_range(0.0..1.0);
            let z = rows.sampled_row(v as usize).1.sample_with(u) as u32;
            counts.add(z);
            z
        })
        .collect();

    let mut scratch = SampleScratch::new();
    let mut acc = vec![0.0f64; k];
    for sweep in 0..burn_in + n_samples {
        for (i, &v) in words.iter().enumerate() {
            counts.remove(assignments[i]);
            let (bhat_row, sampler) = rows.sampled_row(v as usize);
            let z = sample_token(
                counts.as_view(),
                bhat_row,
                alpha,
                sampler,
                &mut scratch,
                rng,
            );
            counts.add(z);
            assignments[i] = z;
        }
        if sweep >= burn_in {
            counts.accumulate_into(&mut acc);
        }
    }
    PartialFoldIn {
        counts: acc,
        n_words: words.len(),
    }
}

/// Turns (possibly merged) ESCA measured counts into θ: the posterior mean
/// over the measured sweeps, α-smoothed and normalised. Each sweep's counts
/// sum to the document length, so the smoothed average divides through
/// exactly.
///
/// `n_words` is the total number of folded words across all merged
/// partials and `n_samples` the per-chain measured-sweep count (shards run
/// the same sweep schedule, so it is not summed).
pub fn esca_theta(mut counts: Vec<f64>, n_words: usize, n_samples: usize, alpha: f32) -> Vec<f64> {
    let n_samples = n_samples.max(1);
    let k = counts.len();
    let alpha = alpha as f64;
    let denom = n_words as f64 + k as f64 * alpha;
    for a in &mut counts {
        *a = (*a / n_samples as f64 + alpha) / denom;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PreprocessKind;
    use crate::trees::WordSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `B̂` whose columns are (almost) point masses on disjoint words.
    fn planted_bhat(vocab: usize, k: usize) -> DenseMatrix<f32> {
        let mut b = DenseMatrix::<f32>::zeros(vocab, k);
        for topic in 0..k {
            for v in 0..vocab {
                b[(v, topic)] = if v % k == topic {
                    0.9 / (vocab / k) as f32
                } else {
                    0.1 / (vocab - vocab / k) as f32
                };
            }
        }
        b
    }

    /// A dense `B̂` with one sampler per row, as the ESCA fold-in reads it.
    struct Sampled {
        bhat: DenseMatrix<f32>,
        samplers: Vec<WordSampler>,
    }

    impl TopicRows for Sampled {
        fn n_topics(&self) -> usize {
            self.bhat.cols()
        }

        fn topic_row(&self, v: usize) -> &[f32] {
            self.bhat.row(v)
        }
    }

    impl SampledRows for Sampled {
        type Sampler = WordSampler;

        fn sampled_row(&self, v: usize) -> (&[f32], &WordSampler) {
            (self.bhat.row(v), &self.samplers[v])
        }
    }

    fn sampled_rows(bhat: &DenseMatrix<f32>, kind: PreprocessKind) -> Sampled {
        Sampled {
            bhat: bhat.clone(),
            samplers: (0..bhat.rows())
                .map(|v| WordSampler::build(kind, bhat.row(v)))
                .collect(),
        }
    }

    #[test]
    fn em_fold_in_recovers_dominant_topic() {
        let bhat = planted_bhat(10, 2);
        let theta = fold_in_em(&[0, 2, 4, 6, 8, 0, 2], &bhat, 0.05, 10);
        assert!(theta[0] > 0.8, "theta = {theta:?}");
        let s: f64 = theta.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn em_fold_in_of_empty_document_is_uniform() {
        let bhat = planted_bhat(10, 2);
        let theta = fold_in_em(&[], &bhat, 0.1, 5);
        assert!((theta[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn esca_fold_in_recovers_dominant_topic_with_both_sampler_kinds() {
        let bhat = planted_bhat(12, 3);
        for kind in [PreprocessKind::WaryTree, PreprocessKind::AliasTable] {
            let rows = sampled_rows(&bhat, kind);
            let mut rng = StdRng::seed_from_u64(11);
            // Words ≡ 1 (mod 3): planted topic 1.
            let theta = fold_in_esca(&[1, 4, 7, 10, 1, 4, 7], &rows, 0.05, 5, 10, &mut rng);
            let argmax = theta
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, 1, "{kind:?}: theta = {theta:?}");
            let s: f64 = theta.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn esca_fold_in_is_deterministic_for_a_seed() {
        let bhat = planted_bhat(12, 3);
        let rows = sampled_rows(&bhat, PreprocessKind::WaryTree);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            fold_in_esca(&[0, 3, 6, 9, 1], &rows, 0.1, 3, 4, &mut rng)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn esca_fold_in_of_empty_document_is_uniform() {
        let bhat = planted_bhat(6, 2);
        let rows = sampled_rows(&bhat, PreprocessKind::WaryTree);
        let mut rng = StdRng::seed_from_u64(0);
        let theta = fold_in_esca(&[], &rows, 0.1, 2, 2, &mut rng);
        assert_eq!(theta, vec![0.5, 0.5]);
    }

    #[test]
    fn esca_and_em_fold_in_broadly_agree() {
        let bhat = planted_bhat(20, 4);
        let rows = sampled_rows(&bhat, PreprocessKind::WaryTree);
        let words: Vec<u32> = vec![2, 6, 10, 14, 18, 2, 6, 10];
        let em = fold_in_em(&words, &bhat, 0.05, 10);
        let mut rng = StdRng::seed_from_u64(42);
        let esca = fold_in_esca(&words, &rows, 0.05, 10, 40, &mut rng);
        for k in 0..4 {
            assert!(
                (em[k] - esca[k]).abs() < 0.12,
                "topic {k}: em {:.3} vs esca {:.3}",
                em[k],
                esca[k]
            );
        }
    }

    #[test]
    fn esca_partial_plus_finish_reproduces_fold_in_bit_for_bit() {
        let bhat = planted_bhat(12, 3);
        let rows = sampled_rows(&bhat, PreprocessKind::WaryTree);
        let words = [0u32, 3, 6, 9, 1, 4, 2];
        let mut rng = StdRng::seed_from_u64(21);
        let direct = fold_in_esca(&words, &rows, 0.1, 4, 6, &mut rng);
        let mut rng = StdRng::seed_from_u64(21);
        let partial = fold_in_esca_partial(&words, &rows, 0.1, 4, 6, &mut rng);
        assert_eq!(partial.n_words, words.len());
        let finished = esca_theta(partial.counts, partial.n_words, 6, 0.1);
        assert_eq!(
            direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            finished.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn em_rounds_over_word_shards_match_unsharded_em() {
        // Drive EM through the decomposed building blocks with the document
        // split across "shards" by word id parity; the merged trajectory
        // must match plain fold_in_em to floating-point summation order.
        let bhat = planted_bhat(20, 4);
        let words: Vec<u32> = vec![2, 6, 10, 14, 18, 3, 7, 2, 11, 0];
        let iterations = 13;
        let direct = fold_in_em(&words, &bhat, 0.05, iterations);

        let (even, odd): (Vec<u32>, Vec<u32>) = words.iter().partition(|&&v| v % 2 == 0);
        let mut theta = vec![1.0f64 / 4.0; 4];
        for _ in 0..iterations {
            let mut merged = PartialFoldIn::empty(4);
            for shard_words in [&even, &odd] {
                let mut partial = PartialFoldIn::empty(4);
                em_accumulate(shard_words, &bhat, &theta, &mut partial.counts);
                partial.n_words = shard_words.len();
                merged.merge(&partial);
            }
            assert_eq!(merged.n_words, words.len());
            em_update(&mut theta, &merged.counts, merged.n_words, 0.05);
        }
        for (k, (&a, &b)) in direct.iter().zip(theta.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "topic {k}: unsharded {a} vs sharded {b}"
            );
        }
    }

    #[test]
    fn em_single_shard_rounds_are_bit_identical_to_fold_in_em() {
        // With one "shard" holding every word there is no summation
        // reordering at all: the decomposed driver must be bit-identical.
        let bhat = planted_bhat(12, 3);
        let words: Vec<u32> = vec![1, 4, 7, 10, 1, 4, 5];
        let direct = fold_in_em(&words, &bhat, 0.2, 7);
        let mut theta = vec![1.0f64 / 3.0; 3];
        let mut counts = vec![0.0f64; 3];
        for _ in 0..7 {
            counts.fill(0.0);
            em_accumulate(&words, &bhat, &theta, &mut counts);
            em_update(&mut theta, &counts, words.len(), 0.2);
        }
        assert_eq!(
            direct.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn partial_fold_in_merge_is_elementwise() {
        let mut a = PartialFoldIn {
            counts: vec![1.0, 2.0],
            n_words: 3,
        };
        let b = PartialFoldIn {
            counts: vec![0.5, 4.0],
            n_words: 2,
        };
        a.merge(&b);
        assert_eq!(a.counts, vec![1.5, 6.0]);
        assert_eq!(a.n_words, 5);
        let empty = PartialFoldIn::empty(2);
        a.merge(&empty);
        assert_eq!(a.counts, vec![1.5, 6.0]);
    }

    #[test]
    fn sparse_doc_topics_tracks_counts() {
        let mut c = SparseDocTopics::new();
        c.add(3);
        c.add(3);
        c.add(7);
        assert_eq!(c.as_view().nnz(), 2);
        assert_eq!(c.as_view().get(3), Some(2));
        c.remove(3);
        c.remove(3);
        assert_eq!(c.as_view().nnz(), 1);
        assert_eq!(c.as_view().get(3), None);
        let mut dense = vec![0.0f64; 8];
        c.accumulate_into(&mut dense);
        assert_eq!(dense[7], 1.0);
    }

    #[test]
    fn sparse_doc_topics_view_stays_sorted_under_churn() {
        // Out-of-order inserts and removals must keep the view's indices
        // sorted, because SparseRowView::get binary-searches them.
        let mut c = SparseDocTopics::new();
        for &t in &[5u32, 9, 3, 7, 3, 1, 9, 0] {
            c.add(t);
        }
        c.remove(9);
        c.remove(3);
        let view = c.as_view();
        assert!(view.indices().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(view.get(3), Some(1));
        assert_eq!(view.get(9), Some(1));
        assert_eq!(view.get(0), Some(1));
        assert_eq!(view.get(4), None);
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn sparse_doc_topics_rejects_underflow() {
        SparseDocTopics::new().remove(0);
    }
}
