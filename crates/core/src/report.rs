//! Training reports: per-phase timings, throughput and convergence tracking.
//!
//! Fig. 9 of the paper decomposes each iteration into four phases — sampling,
//! rebuilding the document–topic matrix `A`, pre-processing (recomputing `B̂`
//! and the per-word sampling structures), and host↔device transfer. The
//! trainer fills a [`PhaseTimes`] per iteration; the ablation and tuning
//! harnesses read them back.

use saber_gpu_sim::KernelStats;

/// Estimated time of each phase of one iteration, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// The E-step sampling kernel.
    pub sampling: f64,
    /// Rebuilding the document–topic matrix `A` (and accumulating `B`).
    pub a_update: f64,
    /// Recomputing `B̂` and building the per-word sampling structures.
    pub preprocessing: f64,
    /// Host↔device transfer time *not hidden* behind compute.
    pub transfer: f64,
}

impl PhaseTimes {
    /// Total time of the iteration.
    pub fn total(&self) -> f64 {
        self.sampling + self.a_update + self.preprocessing + self.transfer
    }

    /// Element-wise sum of two phase breakdowns.
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.sampling += other.sampling;
        self.a_update += other.a_update;
        self.preprocessing += other.preprocessing;
        self.transfer += other.transfer;
    }
}

impl std::ops::Add for PhaseTimes {
    type Output = PhaseTimes;

    fn add(mut self, rhs: PhaseTimes) -> PhaseTimes {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for PhaseTimes {
    fn sum<I: Iterator<Item = PhaseTimes>>(iter: I) -> PhaseTimes {
        iter.fold(PhaseTimes::default(), |acc, p| acc + p)
    }
}

/// Wall-clock seconds the host CPU spent in each phase of one iteration —
/// measured, where [`PhaseTimes`] is the GPU cost model's estimate of the
/// same work. The fields carry the names of the benchmark's `core.*` layers.
///
/// The phases are disjoint stretches of the caller's wall clock. Work done
/// on another thread is counted in the stretch it overlaps: every chunk but
/// the last is counted beside the next chunk's sampling, inside
/// `sampling_s`, so the two count fields cover the last chunk only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseWall {
    /// The E-step: `kernel::sample_chunk` over every chunk, with the
    /// execution accounting beside the sampling loop, and the counting of
    /// every chunk but the last beside the next chunk's sampling.
    pub sampling_s: f64,
    /// `count::rebuild_doc_topic` of the last chunk.
    pub rebuild_doc_topic_s: f64,
    /// `count::accumulate_word_topic` of the last chunk.
    pub accumulate_word_topic_s: f64,
    /// `LdaModel::refresh_probabilities`.
    pub refresh_s: f64,
    /// Rebuilding the per-word sampling structures, on two threads.
    pub trees_s: f64,
}

impl PhaseWall {
    /// Seconds attributed to a phase; the rest of
    /// [`IterationStats::wall_seconds`] went into the cost model.
    pub fn total(&self) -> f64 {
        self.sampling_s
            + self.rebuild_doc_topic_s
            + self.accumulate_word_topic_s
            + self.refresh_s
            + self.trees_s
    }

    /// Element-wise sum of two breakdowns.
    pub fn merge(&mut self, other: &PhaseWall) {
        self.sampling_s += other.sampling_s;
        self.rebuild_doc_topic_s += other.rebuild_doc_topic_s;
        self.accumulate_word_topic_s += other.accumulate_word_topic_s;
        self.refresh_s += other.refresh_s;
        self.trees_s += other.trees_s;
    }
}

/// Statistics of one training iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationStats {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Phase breakdown (estimated device time).
    pub phases: PhaseTimes,
    /// Number of tokens sampled.
    pub tokens: u64,
    /// Wall-clock seconds the host spent simulating the iteration.
    pub wall_seconds: f64,
    /// Where those seconds went, phase by phase.
    pub measured: PhaseWall,
    /// DRAM bytes moved by the sampling kernel
    /// (`sampling_stats.dram_bytes()`).
    pub sampling_dram_bytes: u64,
    /// The sampling kernel's counters, summed over every chunk.
    pub sampling_stats: KernelStats,
    /// `B̂` elements the M-step's preprocessing wrote: `V·K` for the dense
    /// refresh ([`crate::LdaModel::refresh_probabilities`]).
    pub preprocessed_elements: usize,
    /// Training-set log-likelihood per token, if it was evaluated this
    /// iteration (`None` otherwise).
    pub log_likelihood: Option<f64>,
}

/// The full record of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
}

impl TrainingReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        TrainingReport::default()
    }

    /// Total estimated device time across all iterations.
    pub fn total_seconds(&self) -> f64 {
        self.iterations.iter().map(|i| i.phases.total()).sum()
    }

    /// Sum of per-phase times across all iterations (the bars of Fig. 9).
    pub fn phase_totals(&self) -> PhaseTimes {
        self.iterations.iter().map(|i| i.phases).sum()
    }

    /// Sum of the measured per-phase wall-clock times across all iterations.
    pub fn measured_totals(&self) -> PhaseWall {
        let mut total = PhaseWall::default();
        for it in &self.iterations {
            total.merge(&it.measured);
        }
        total
    }

    /// Total wall-clock seconds the host spent across all iterations.
    pub fn wall_seconds(&self) -> f64 {
        self.iterations.iter().map(|i| i.wall_seconds).sum()
    }

    /// Mean throughput over all iterations, in Mtoken/s.
    pub fn mean_throughput_mtokens_per_s(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        let tokens: u64 = self.iterations.iter().map(|i| i.tokens).sum();
        let time = self.total_seconds();
        if time <= 0.0 {
            0.0
        } else {
            tokens as f64 / time / 1e6
        }
    }

    /// `(cumulative seconds, log-likelihood)` pairs for every iteration where
    /// the likelihood was evaluated — the curves of Fig. 11 and 12.
    pub fn convergence_curve(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut elapsed = 0.0;
        for it in &self.iterations {
            elapsed += it.phases.total();
            if let Some(ll) = it.log_likelihood {
                out.push((elapsed, ll));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(i: usize, sampling: f64, ll: Option<f64>) -> IterationStats {
        IterationStats {
            iteration: i,
            phases: PhaseTimes {
                sampling,
                a_update: 0.1,
                preprocessing: 0.05,
                transfer: 0.02,
            },
            tokens: 1_000_000,
            wall_seconds: 0.5,
            measured: PhaseWall {
                sampling_s: 0.25,
                refresh_s: 0.125,
                ..PhaseWall::default()
            },
            sampling_dram_bytes: 0,
            sampling_stats: KernelStats::default(),
            preprocessed_elements: 0,
            log_likelihood: ll,
        }
    }

    #[test]
    fn phase_totals_accumulate() {
        let p = PhaseTimes {
            sampling: 1.0,
            a_update: 2.0,
            preprocessing: 3.0,
            transfer: 4.0,
        };
        assert_eq!(p.total(), 10.0);
        let sum: PhaseTimes = vec![p, p].into_iter().sum();
        assert_eq!(sum.sampling, 2.0);
        assert_eq!(sum.total(), 20.0);
    }

    #[test]
    fn report_aggregates_and_converges() {
        let report = TrainingReport {
            iterations: vec![
                iteration(0, 1.0, Some(-9.0)),
                iteration(1, 1.0, None),
                iteration(2, 1.0, Some(-8.0)),
                iteration(3, 1.0, Some(-7.5)),
            ],
        };
        assert!((report.total_seconds() - 4.0 * 1.17).abs() < 1e-9);
        let curve = report.convergence_curve();
        assert_eq!(curve.len(), 3);
        assert!(curve[0].0 < curve[1].0);
        assert!(report.mean_throughput_mtokens_per_s() > 0.0);
        assert_eq!(report.phase_totals().a_update, 0.4);
        assert_eq!(report.wall_seconds(), 2.0);
        let measured = report.measured_totals();
        assert_eq!((measured.sampling_s, measured.refresh_s), (1.0, 0.5));
        assert_eq!(measured.total(), 1.5);
    }

    #[test]
    fn empty_report_is_harmless() {
        let report = TrainingReport::new();
        assert_eq!(report.total_seconds(), 0.0);
        assert_eq!(report.mean_throughput_mtokens_per_s(), 0.0);
        assert!(report.convergence_curve().is_empty());
    }
}
