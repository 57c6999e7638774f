//! The common interface every LDA trainer implements.
//!
//! Fig. 11 of the paper compares SaberLDA with a GPU baseline (BIDMach) and
//! three CPU systems (ESCA, DMLC F+LDA, WarpLDA) by running each until its
//! held-out log-likelihood reaches a target. The comparison harness only needs
//! three capabilities from each system — run one iteration, report how long it
//! took, and expose the current model — which is exactly this trait. The
//! SaberLDA trainer implements it in `saber-core`, and every baseline in
//! `saber-baselines` does too.

use saber_sparse::DenseMatrix;

/// The outcome of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationOutcome {
    /// Time attributed to this iteration, in seconds.
    ///
    /// Modelled time: the roofline cost model's estimate on the system's
    /// device (the CPU baselines are priced on a model of the paper's host),
    /// so it is the same on every run. It is the quantity the
    /// convergence-over-time figures plot.
    pub seconds: f64,
    /// Number of tokens processed.
    pub tokens: u64,
}

/// A system that can train an LDA model one iteration at a time.
pub trait LdaTrainer {
    /// Human-readable system name ("SaberLDA", "BIDMach-like dense GPU", …).
    fn name(&self) -> String;

    /// Number of topics `K`.
    fn n_topics(&self) -> usize;

    /// Document–topic smoothing α (needed by the held-out evaluator).
    fn alpha(&self) -> f32;

    /// Runs one full training iteration (E-step + M-step).
    fn step(&mut self) -> IterationOutcome;

    /// The current word–topic probability matrix `B̂` (`V × K`), columns
    /// summing to one.
    fn word_topic_prob(&self) -> &DenseMatrix<f32>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial trainer used to exercise the trait's object safety and the
    /// default usage pattern.
    #[derive(Debug)]
    struct DummyTrainer {
        bhat: DenseMatrix<f32>,
        steps: usize,
    }

    impl LdaTrainer for DummyTrainer {
        fn name(&self) -> String {
            "dummy".to_string()
        }

        fn n_topics(&self) -> usize {
            self.bhat.cols()
        }

        fn alpha(&self) -> f32 {
            0.1
        }

        fn step(&mut self) -> IterationOutcome {
            self.steps += 1;
            IterationOutcome {
                seconds: 0.5,
                tokens: 100,
            }
        }

        fn word_topic_prob(&self) -> &DenseMatrix<f32> {
            &self.bhat
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let mut trainer: Box<dyn LdaTrainer> = Box::new(DummyTrainer {
            bhat: DenseMatrix::zeros(4, 2),
            steps: 0,
        });
        assert_eq!(trainer.name(), "dummy");
        assert_eq!(trainer.n_topics(), 2);
        let out = trainer.step();
        assert_eq!(out.tokens, 100);
        assert!(out.seconds > 0.0);
        assert_eq!(trainer.word_topic_prob().shape(), (4, 2));
    }
}
