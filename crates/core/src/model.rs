//! The learned LDA model: word–topic counts `B` and probabilities `B̂`.

use saber_sparse::DenseMatrix;

use crate::{Result, SaberError};

/// A trained (or in-training) LDA model.
///
/// The model is fully described by the word–topic count matrix `B` (`V × K`)
/// together with the smoothing parameters: the word–topic probability matrix
/// `B̂` is the column-normalised, β-smoothed version of `B` (Eq. 2 of the
/// paper),
///
/// ```text
/// B̂_vk = (B_vk + β) / (Σ_v B_vk + V·β)
/// ```
///
/// # Examples
///
/// ```
/// use saber_core::LdaModel;
///
/// let mut model = LdaModel::new(5, 3, 0.1, 0.01).unwrap();
/// model.word_topic_mut()[(0, 2)] = 4;
/// model.word_topic_mut()[(1, 2)] = 1;
/// model.refresh_probabilities();
/// let row = model.word_topic_prob().row(0);
/// assert!(row[2] > row[0]);
/// ```
#[derive(Debug, Clone)]
pub struct LdaModel {
    vocab_size: usize,
    n_topics: usize,
    alpha: f32,
    beta: f32,
    /// Word–topic counts `B`.
    word_topic: DenseMatrix<u32>,
    /// Word–topic probabilities `B̂`.
    word_topic_prob: DenseMatrix<f32>,
    /// Column sums of `B` (tokens per topic), cached by `refresh_probabilities`.
    topic_totals: Vec<u64>,
}

/// Whether `x` can smooth a Dirichlet prior: finite and positive (a bare
/// `x <= 0.0` test lets NaN through).
pub(crate) fn valid_smoothing(x: f32) -> bool {
    x.is_finite() && x > 0.0
}

impl LdaModel {
    /// Creates an empty model.
    ///
    /// # Errors
    ///
    /// Returns [`SaberError::InvalidConfig`] if any dimension is zero or a
    /// smoothing parameter is not finite and positive.
    pub fn new(vocab_size: usize, n_topics: usize, alpha: f32, beta: f32) -> Result<Self> {
        if vocab_size == 0 || n_topics == 0 {
            return Err(SaberError::InvalidConfig {
                detail: "vocab_size and n_topics must be positive".into(),
            });
        }
        if !valid_smoothing(alpha) || !valid_smoothing(beta) {
            return Err(SaberError::InvalidConfig {
                detail: "alpha and beta must be finite and positive".into(),
            });
        }
        Ok(LdaModel {
            vocab_size,
            n_topics,
            alpha,
            beta,
            word_topic: DenseMatrix::zeros(vocab_size, n_topics),
            word_topic_prob: DenseMatrix::zeros(vocab_size, n_topics),
            topic_totals: vec![0; n_topics],
        })
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Number of topics `K`.
    pub fn n_topics(&self) -> usize {
        self.n_topics
    }

    /// Document–topic smoothing α.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Topic–word smoothing β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// The word–topic count matrix `B`.
    pub fn word_topic(&self) -> &DenseMatrix<u32> {
        &self.word_topic
    }

    /// Mutable access to `B` (the M-step rebuilds it; callers must invoke
    /// [`LdaModel::refresh_probabilities`] afterwards).
    pub fn word_topic_mut(&mut self) -> &mut DenseMatrix<u32> {
        &mut self.word_topic
    }

    /// The word–topic probability matrix `B̂`.
    pub fn word_topic_prob(&self) -> &DenseMatrix<f32> {
        &self.word_topic_prob
    }

    /// Tokens currently assigned to each topic (column sums of `B`), as of the
    /// last [`LdaModel::refresh_probabilities`] call.
    pub fn topic_totals(&self) -> &[u64] {
        &self.topic_totals
    }

    /// Recomputes `B̂` from `B` following Eq. 2 (the `Preprocess` function of
    /// Alg. 1). Returns the number of matrix elements written, which the
    /// trainer charges to the pre-processing phase.
    pub fn refresh_probabilities(&mut self) -> usize {
        // Column sums in one pass along the rows `B` is stored by.
        self.topic_totals.fill(0);
        for counts in self.word_topic.iter_rows() {
            for (total, &c) in self.topic_totals.iter_mut().zip(counts) {
                *total += u64::from(c);
            }
        }
        self.write_probability_rows(0..self.vocab_size);
        self.vocab_size * self.n_topics
    }

    /// Recomputes `B̂` for only the given rows, reusing the per-topic
    /// denominators (`topic_totals`) cached by the last full
    /// [`LdaModel::refresh_probabilities`] — the incremental `Preprocess`
    /// behind continuous publication. Keeping the denominators deliberately
    /// stale between full refreshes is what makes this exact for delta
    /// publication: a row not in `rows` keeps its previous bits, so the set
    /// of changed `B̂` rows is precisely `rows`, and shipping only those
    /// rows reconstructs the full matrix bit-for-bit on the serving side
    /// (the standard lazy-denominator approximation of online LDA; a
    /// periodic full refresh rebases the drift). Returns the number of
    /// matrix elements written.
    ///
    /// # Panics
    ///
    /// Panics if any row id is `>= vocab_size`.
    pub fn refresh_probability_rows(&mut self, rows: &[u32]) -> usize {
        self.write_probability_rows(rows.iter().map(|&v| v as usize));
        rows.len() * self.n_topics
    }

    /// Eq. 2 for the given rows against the cached `topic_totals`; the `K`
    /// denominators are computed once, not once per row.
    fn write_probability_rows(&mut self, rows: impl Iterator<Item = usize>) {
        let vbeta = self.vocab_size as f32 * self.beta;
        let denominators: Vec<f32> = self
            .topic_totals
            .iter()
            .map(|&total| total as f32 + vbeta)
            .collect();
        for v in rows {
            let counts = self.word_topic.row(v);
            let probs = self.word_topic_prob.row_mut(v);
            for ((p, &c), &denominator) in probs.iter_mut().zip(counts).zip(&denominators) {
                *p = (c as f32 + self.beta) / denominator;
            }
        }
    }

    /// Rebuilds `B` from scratch given every token's `(word, topic)` pair
    /// (the `CountByVZ` function of Alg. 1) and refreshes `B̂`.
    pub fn rebuild_from_assignments<'a, I>(&mut self, assignments: I)
    where
        I: IntoIterator<Item = (u32, u32)> + 'a,
    {
        self.word_topic.clear();
        for (word, topic) in assignments {
            self.word_topic[(word as usize, topic as usize)] += 1;
        }
        self.refresh_probabilities();
    }

    /// The `n` highest-probability words of topic `k`, as `(word id,
    /// probability)` pairs ordered by probability, descending
    /// ([`f32::total_cmp`]), then by word id, ascending. Every word with the
    /// same count in topic `k` has a bit-equal `B̂_vk`, so ties are common;
    /// this order defines which tied words make the cut at `n`. A partial
    /// select keeps the sort to the returned prefix.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n_topics`.
    pub fn top_words(&self, k: usize, n: usize) -> Vec<(u32, f32)> {
        assert!(k < self.n_topics, "topic {k} out of range");
        let n = n.min(self.vocab_size);
        if n == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(u32, f32)> = (0..self.vocab_size)
            .map(|v| (v as u32, self.word_topic_prob[(v, k)]))
            .collect();
        let order = |a: &(u32, f32), b: &(u32, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        if n < scored.len() {
            scored.select_nth_unstable_by(n - 1, order);
            scored.truncate(n);
        }
        scored.sort_unstable_by(order);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_inputs() {
        assert!(LdaModel::new(0, 3, 0.1, 0.1).is_err());
        assert!(LdaModel::new(5, 0, 0.1, 0.1).is_err());
        assert!(LdaModel::new(5, 3, 0.0, 0.1).is_err());
        assert!(LdaModel::new(5, 3, 0.1, -1.0).is_err());
        assert!(LdaModel::new(5, 3, f32::NAN, 0.1).is_err());
        assert!(LdaModel::new(5, 3, 0.1, f32::NAN).is_err());
        assert!(LdaModel::new(5, 3, f32::INFINITY, 0.1).is_err());
        assert!(LdaModel::new(5, 3, 0.1, 0.1).is_ok());
    }

    #[test]
    fn probabilities_follow_equation_2() {
        let mut m = LdaModel::new(3, 2, 0.1, 0.5).unwrap();
        // Topic 0: word 0 twice, word 1 once. Topic 1: empty.
        m.word_topic_mut()[(0, 0)] = 2;
        m.word_topic_mut()[(1, 0)] = 1;
        m.refresh_probabilities();
        let vbeta = 3.0 * 0.5;
        assert!((m.word_topic_prob()[(0, 0)] - (2.0 + 0.5) / (3.0 + vbeta)).abs() < 1e-6);
        assert!((m.word_topic_prob()[(2, 0)] - 0.5 / (3.0 + vbeta)).abs() < 1e-6);
        // Empty topic: uniform 1/V.
        assert!((m.word_topic_prob()[(0, 1)] - 0.5 / vbeta).abs() < 1e-6);
        assert_eq!(m.topic_totals(), &[3, 0]);
    }

    #[test]
    fn columns_of_bhat_sum_to_one() {
        let mut m = LdaModel::new(10, 4, 0.1, 0.01).unwrap();
        m.word_topic_mut()[(3, 1)] = 7;
        m.word_topic_mut()[(9, 1)] = 2;
        m.word_topic_mut()[(0, 3)] = 1;
        m.refresh_probabilities();
        for k in 0..4 {
            let col_sum: f32 = (0..10).map(|v| m.word_topic_prob()[(v, k)]).sum();
            assert!((col_sum - 1.0).abs() < 1e-5, "column {k} sums to {col_sum}");
        }
    }

    #[test]
    fn rebuild_from_assignments_counts_tokens() {
        let mut m = LdaModel::new(4, 3, 0.1, 0.01).unwrap();
        m.rebuild_from_assignments(vec![(0u32, 1u32), (0, 1), (2, 0), (3, 2), (3, 2)]);
        assert_eq!(m.word_topic()[(0, 1)], 2);
        assert_eq!(m.word_topic()[(3, 2)], 2);
        assert_eq!(m.word_topic()[(1, 0)], 0);
        assert_eq!(m.topic_totals(), &[1, 2, 2]);
    }

    #[test]
    fn top_words_are_sorted_by_probability() {
        let mut m = LdaModel::new(5, 2, 0.1, 0.01).unwrap();
        m.rebuild_from_assignments(vec![(4u32, 0u32), (4, 0), (4, 0), (1, 0), (2, 1)]);
        let top = m.top_words(0, 2);
        assert_eq!(top[0].0, 4);
        assert_eq!(top[1].0, 1);
        assert!(top[0].1 > top[1].1);
        assert_eq!(m.top_words(0, 100).len(), 5);
        assert!(m.top_words(0, 0).is_empty());
    }

    #[test]
    fn top_words_break_ties_by_ascending_word_id() {
        // Topic 0 holds words 19 (twice) and 1; every other word ties at the
        // bare-β probability, and the cut takes the lowest ids among them.
        let mut m = LdaModel::new(20, 2, 0.1, 0.01).unwrap();
        m.rebuild_from_assignments(vec![(19u32, 0u32), (19, 0), (1, 0), (0, 1)]);
        let ids: Vec<u32> = m.top_words(0, 5).iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, [19, 1, 0, 2, 3]);
        let ids: Vec<u32> = m.top_words(0, 20).iter().map(|&(v, _)| v).collect();
        assert_eq!(ids[..3], [19, 1, 0]);
        assert!(ids[2..].windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    }

    #[test]
    fn row_refresh_reuses_cached_denominators_and_leaves_other_rows_untouched() {
        let mut m = LdaModel::new(6, 3, 0.1, 0.05).unwrap();
        m.rebuild_from_assignments(vec![(0u32, 0u32), (1, 1), (2, 2), (3, 0)]);
        let before: Vec<Vec<u32>> = (0..6)
            .map(|v| {
                m.word_topic_prob()
                    .row(v)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect()
            })
            .collect();
        // Mutate counts of rows 1 and 4, then refresh only those rows.
        m.word_topic_mut()[(1, 1)] = 9;
        m.word_topic_mut()[(4, 0)] = 3;
        let written = m.refresh_probability_rows(&[1, 4]);
        assert_eq!(written, 2 * 3);
        for v in [0usize, 2, 3, 5] {
            let bits: Vec<u32> = m
                .word_topic_prob()
                .row(v)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(bits, before[v], "untouched row {v} changed bits");
        }
        // Refreshed rows use the *cached* totals (still those of the last
        // full refresh), not recomputed column sums.
        let vbeta = 6.0 * 0.05;
        let expected = (9.0 + 0.05) / (m.topic_totals()[1] as f32 + vbeta);
        assert_eq!(m.word_topic_prob()[(1, 1)].to_bits(), expected.to_bits());
        assert_eq!(m.topic_totals(), &[2, 1, 1], "totals must stay cached");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn top_words_panics_on_bad_topic() {
        LdaModel::new(5, 2, 0.1, 0.01).unwrap().top_words(2, 1);
    }
}
