//! Composite load scenarios: traffic replayed against a fleet that is
//! *changing* underneath it.
//!
//! The plain replay engine ([`mod@crate::replay`]) drives a static
//! snapshot. [`serve_while_training`] instead pairs a replay with a live
//! [`TrainingPipeline`]: a training
//! thread ingests a document stream and pushes delta epochs through the
//! two-phase publish protocol while the dispatcher threads keep querying
//! the same fleet. The invariants under test are the serving stack's
//! strongest — **zero requests dropped** across every epoch swap, and
//! every fan-out answered by a single epoch (the router pins every leg to
//! it) —
//! plus the pipeline's own accounting of how much each publication
//! actually shipped.

use std::sync::Arc;

use saber_pipeline::{DocumentFeed, PipelineError, TrainingPipeline};
use saber_serve::{InferenceBackend, PipelineStats};

use crate::replay::{replay_with_chaos, RateProfile, ReplayConfig, ReplayOutcome};
use crate::trace::RequestTrace;

/// What a [`serve_while_training`] run observed on both sides of the
/// fleet: the replay's view (latency, drops) and the pipeline's
/// ([`PipelineStats`] totals at the end of the run).
#[derive(Debug)]
pub struct ServeTrainReport {
    /// The replay side: requests, drops, latency, optional θs.
    pub outcome: ReplayOutcome,
    /// Epochs pushed while traffic flowed (including the final flush).
    pub epochs_published: u64,
    /// Epochs where every staging operation took the delta path.
    pub delta_epochs: u64,
    /// `B̂` rows actually sent across the publish seam.
    pub rows_shipped: u64,
    /// Rows the fleet serves times staging operations — the full-publish
    /// cost the delta path is measured against.
    pub rows_total: u64,
    /// Staging operations that fell back to a full slice.
    pub fallbacks: u64,
    /// The epoch the fleet serves after the run.
    pub final_epoch: u64,
}

impl ServeTrainReport {
    /// Whether every dispatched request was answered successfully.
    pub fn zero_drops(&self) -> bool {
        self.outcome.ok == self.outcome.requests
    }

    fn from_parts(outcome: ReplayOutcome, stats: Option<PipelineStats>, final_epoch: u64) -> Self {
        let stats = stats.unwrap_or(PipelineStats {
            epochs_published: 0,
            delta_epochs: 0,
            rows_shipped: 0,
            rows_total: 0,
            fallbacks: 0,
            last_publish_micros: 0,
            publish_micros_total: 0,
        });
        ServeTrainReport {
            outcome,
            epochs_published: stats.epochs_published,
            delta_epochs: stats.delta_epochs,
            rows_shipped: stats.rows_shipped,
            rows_total: stats.rows_total,
            fallbacks: stats.fallbacks,
            final_epoch,
        }
    }
}

/// Replays `trace` against `pipeline`'s fleet **while** the pipeline
/// drains `feed` on a separate thread, publishing epochs mid-stream.
///
/// Returns the joint report and the pipeline (so callers can keep
/// querying the now-refreshed fleet, e.g. for differential checks,
/// before shutting it down).
///
/// # Errors
///
/// Propagates the training side's [`PipelineError`]; the replay side
/// never errors (failures land in the outcome's counters).
///
/// # Panics
///
/// Panics if the training thread panics.
pub fn serve_while_training(
    mut pipeline: TrainingPipeline,
    mut feed: DocumentFeed,
    trace: &RequestTrace,
    profile: &RateProfile,
    config: &ReplayConfig,
) -> Result<(ServeTrainReport, TrainingPipeline), PipelineError> {
    let backend: Arc<dyn InferenceBackend> = Arc::clone(pipeline.router()) as _;
    let (outcome, pipeline, run) = std::thread::scope(|scope| {
        let training = scope.spawn(move || {
            let run = pipeline.run(&mut feed);
            (pipeline, run)
        });
        let outcome = replay_with_chaos(&backend, trace, profile, config, None);
        let (pipeline, run) = training.join().expect("training thread panicked");
        (outcome, pipeline, run)
    });
    run?;
    let stats = pipeline.router().router_stats().pipeline;
    let final_epoch = pipeline.served_epoch();
    Ok((
        ServeTrainReport::from_parts(outcome, stats, final_epoch),
        pipeline,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_trace;
    use saber_core::{SaberLda, SaberLdaConfig};
    use saber_corpus::synthetic::SyntheticSpec;
    use saber_pipeline::PipelineConfig;
    use saber_serve::ServeConfig;
    use std::time::Duration;

    #[test]
    fn traffic_survives_training_with_zero_drops() {
        let spec = SyntheticSpec::small_test();
        let warmup = spec.generate(3);
        let trainer_config = SaberLdaConfig::builder()
            .n_topics(8)
            .n_iterations(3)
            .seed(5)
            .build()
            .unwrap();
        let mut trainer = SaberLda::new(trainer_config, &warmup).unwrap();
        trainer.train();
        let pipeline = TrainingPipeline::bootstrap_local(
            trainer,
            2,
            ServeConfig {
                n_workers: 2,
                ..ServeConfig::default()
            },
            PipelineConfig {
                batch_docs: 16,
                iterations_per_batch: 1,
                publish_every: 1,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        let feed = DocumentFeed::synthetic(
            &SyntheticSpec {
                n_docs: 64,
                ..spec.clone()
            },
            17,
        );
        let trace = synthesize_trace(&spec, 120, 23);
        let (report, pipeline) = serve_while_training(
            pipeline,
            feed,
            &trace,
            &RateProfile::Fixed { qps: 2_000.0 },
            &ReplayConfig {
                threads: 4,
                deadline: Duration::from_secs(5),
                collect_thetas: false,
            },
        )
        .unwrap();
        assert!(
            report.zero_drops(),
            "dropped requests: {:?}",
            report.outcome
        );
        assert_eq!(report.outcome.requests, 120);
        // 64 docs / 16 per batch, publish every tick; the cadence leaves
        // nothing for the final flush.
        assert_eq!(report.epochs_published, 4);
        assert_eq!(report.final_epoch, 5);
        assert_eq!(pipeline.router().epoch(), 5);
        assert!(
            report.rows_shipped <= report.rows_total,
            "delta accounting must never exceed the full-publish cost"
        );
        pipeline.shutdown();
    }
}
