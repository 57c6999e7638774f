//! Shared state and helpers for the baseline trainers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_core::model::LdaModel;
use saber_corpus::Corpus;
use saber_gpu_sim::DeviceSpec;
use saber_sparse::DenseMatrix;

/// A device model of the paper's host: two Intel E5-2670 v3 CPUs (24 cores,
/// ~68 GB/s of aggregate memory bandwidth). Expressed as a [`DeviceSpec`] so
/// the same roofline cost model prices CPU baselines; the "warp" width is the
/// 8-lane AVX2 vector unit.
pub(crate) fn cpu_host_spec() -> DeviceSpec {
    DeviceSpec {
        name: "2x Xeon E5-2670 v3".to_string(),
        sm_count: 24,
        cuda_cores: 24 * 8,
        core_clock_ghz: 2.3,
        global_mem_bytes: 128 * 1024 * 1024 * 1024,
        mem_bandwidth_gb_s: 68.0,
        l2_cache_bytes: 30 * 1024 * 1024,
        shared_mem_per_block: 256 * 1024,
        warp_size: 8,
        pcie_bandwidth_gb_s: 0.0,
    }
}

/// Token-level training state shared by every baseline: the flattened token
/// list, per-document topic counts and the word–topic model.
#[derive(Debug)]
pub(crate) struct BaselineState {
    /// Document id per token.
    pub doc_ids: Vec<u32>,
    /// Word id per token.
    pub word_ids: Vec<u32>,
    /// Current topic per token.
    pub topics: Vec<u32>,
    /// Per-document dense topic counts (`D × K`).
    pub doc_topic: DenseMatrix<u32>,
    /// The word–topic model (`B`, `B̂`).
    pub model: LdaModel,
    /// Document–topic smoothing.
    pub alpha: f32,
    /// RNG (seeded; training is deterministic).
    pub rng: StdRng,
}

impl BaselineState {
    /// Initialises state from a corpus with uniformly random topics and a
    /// consistent first M-step.
    ///
    /// # Panics
    ///
    /// Panics if `n_topics == 0` or the corpus is empty.
    pub fn new(corpus: &Corpus, n_topics: usize, alpha: f32, beta: f32, seed: u64) -> Self {
        assert!(n_topics > 0, "n_topics must be positive");
        assert!(corpus.n_tokens() > 0, "corpus must contain tokens");
        let (doc_ids, word_ids): (Vec<u32>, Vec<u32>) = corpus
            .documents()
            .iter()
            .enumerate()
            .flat_map(|(d, doc)| doc.words().iter().map(move |&w| (d as u32, w)))
            .unzip();
        let mut rng = StdRng::seed_from_u64(seed);
        let topics = word_ids
            .iter()
            .map(|_| rng.gen_range(0..n_topics) as u32)
            .collect();
        let model = LdaModel::new(corpus.vocab_size(), n_topics, alpha, beta)
            .expect("validated parameters");
        let mut state = BaselineState {
            doc_ids,
            word_ids,
            topics,
            doc_topic: DenseMatrix::zeros(corpus.n_docs(), n_topics),
            model,
            alpha,
            rng,
        };
        state.m_step();
        state
    }

    /// Number of tokens.
    pub fn n_tokens(&self) -> u64 {
        self.topics.len() as u64
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.model.n_topics()
    }

    /// Rebuilds the document–topic counts and the word–topic model from the
    /// current assignments (the BSP M-step all baselines share).
    pub fn m_step(&mut self) {
        self.doc_topic.clear();
        for i in 0..self.topics.len() {
            self.doc_topic[(self.doc_ids[i] as usize, self.topics[i] as usize)] += 1;
        }
        self.model.rebuild_from_assignments(
            self.word_ids
                .iter()
                .copied()
                .zip(self.topics.iter().copied())
                .collect::<Vec<_>>(),
        );
    }

    /// Average number of distinct topics per document (`K_d`), used by the
    /// cost accounting of the sparsity-aware baselines.
    pub fn mean_doc_topics(&self) -> f64 {
        let d = self.doc_topic.rows();
        if d == 0 {
            return 0.0;
        }
        let nnz: usize = (0..d)
            .map(|r| self.doc_topic.row(r).iter().filter(|&&c| c > 0).count())
            .sum();
        nnz as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_corpus::Document;

    #[test]
    fn state_initialisation_is_consistent() {
        let corpus = SyntheticSpec::small_test().generate(0);
        let state = BaselineState::new(&corpus, 7, 0.1, 0.01, 3);
        assert_eq!(state.n_tokens(), corpus.n_tokens());
        assert_eq!(state.n_topics(), 7);
        assert_eq!(state.doc_topic.total(), corpus.n_tokens());
        assert_eq!(state.model.word_topic().total(), corpus.n_tokens());
        assert!(state.topics.iter().all(|&t| t < 7));
        assert!(state.mean_doc_topics() >= 1.0);
        assert!(state.mean_doc_topics() <= 7.0);
    }

    #[test]
    fn state_is_deterministic_per_seed() {
        let corpus = SyntheticSpec::small_test().generate(1);
        let a = BaselineState::new(&corpus, 5, 0.1, 0.01, 9);
        let b = BaselineState::new(&corpus, 5, 0.1, 0.01, 9);
        assert_eq!(a.topics, b.topics);
    }

    fn fig1_corpus() -> Corpus {
        Corpus::from_documents(
            5,
            vec![
                Document::new(vec![0, 1]),
                Document::new(vec![2, 3, 2, 0]),
                Document::new(vec![2, 4]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn initial_topics_in_range_and_seeded() {
        let corpus = fig1_corpus();
        let a = BaselineState::new(&corpus, 7, 0.1, 0.01, 1);
        let b = BaselineState::new(&corpus, 7, 0.1, 0.01, 1);
        assert_eq!(a.topics, b.topics);
        assert!(a.topics.iter().all(|&k| k < 7));
        let c = BaselineState::new(&corpus, 7, 0.1, 0.01, 2);
        // Overwhelmingly likely to differ with 8 tokens and 7 topics.
        assert_ne!(a.topics, c.topics);
    }

    #[test]
    fn state_flattens_the_corpus_in_document_order() {
        let state = BaselineState::new(&fig1_corpus(), 3, 0.1, 0.01, 0);
        assert_eq!(state.doc_ids, [0, 0, 1, 1, 1, 1, 2, 2]);
        assert_eq!(state.word_ids, [0, 1, 2, 3, 2, 0, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "n_topics must be positive")]
    fn zero_topics_panics() {
        let corpus = SyntheticSpec::small_test().generate(0);
        BaselineState::new(&corpus, 0, 0.1, 0.01, 0);
    }

    #[test]
    fn cpu_spec_is_slower_than_gpu() {
        let cpu = cpu_host_spec();
        let gpu = DeviceSpec::gtx_1080();
        assert!(cpu.mem_bandwidth_gb_s < gpu.mem_bandwidth_gb_s / 3.0);
        assert!(cpu.global_mem_bytes > gpu.global_mem_bytes);
    }
}
