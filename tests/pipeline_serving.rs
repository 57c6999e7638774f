//! Serve-while-training differential suite (ISSUE 10).
//!
//! The pipeline's claim is strong: a fleet refreshed continuously through
//! `SABRDELTA` publications — only the `B̂` rows the trainer touched cross
//! the wire — must be *indistinguishable* from one refreshed with full
//! snapshots, and from one cold-booted at each epoch's model. These tests
//! pin that:
//!
//! * at every pinned epoch, the delta-published fleet, the full-snapshot
//!   fleet and a cold-booted baseline answer bit-identically under ESCA
//!   (and within 1e-5 L∞ of the direct server under EM);
//! * a synthetic trace sent to a fleet refreshed **mid-stream** drops zero
//!   requests and every θ matches exactly the before- or after-refresh
//!   reference — no answer ever mixes epochs;
//! * a `TrainingPipeline` run publishes every epoch under read load and
//!   drops no read;
//! * the same holds over real localhost TCP, where `POST /publish-delta`
//!   carries the rows and a stale base falls back to full slices;
//! * the trainer's incremental sampler rebuild touches only the rows it
//!   reports (counter asserted) — the `O(changed·K)` publish cost claim.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use saber_loadgen::{synthesize_trace, RequestTrace};
use saber_pipeline::{DocumentFeed, PipelineConfig, TrainingPipeline};
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    FoldInKind, FoldInParams, InferenceBackend, InferenceSnapshot, ServeConfig, ShardPlan,
    ShardRouter, TopicServer,
};
use saberlda::{LdaModel, SaberLda, SaberLdaConfig};

const K: usize = 8;
const N_SHARDS: usize = 2;

fn spec() -> SyntheticSpec {
    SyntheticSpec::small_test() // V = 200
}

fn serve_config(kind: FoldInKind) -> ServeConfig {
    ServeConfig {
        n_workers: 2,
        fold_in: FoldInParams {
            kind,
            ..FoldInParams::default()
        },
        ..ServeConfig::default()
    }
}

/// A trainer warmed up with a short batch run — the state the fleet boots
/// from before the stream starts.
fn warm_trainer(seed: u64) -> SaberLda {
    let corpus = spec().generate(seed);
    let config = SaberLdaConfig::builder()
        .n_topics(K)
        .n_iterations(3)
        .n_chunks(2)
        .seed(seed)
        .build()
        .unwrap();
    let mut trainer = SaberLda::new(config, &corpus).unwrap();
    trainer.train();
    trainer
}

/// One stream batch: `n_docs` synthetic documents over the same vocabulary.
fn stream_batch(n_docs: usize, seed: u64) -> Vec<Vec<u32>> {
    SyntheticSpec { n_docs, ..spec() }
        .generate(seed)
        .documents()
        .iter()
        .map(|d| d.words().to_vec())
        .collect()
}

mod common;
use common::{bits, linf, send_requests, spawn_shard_fleet};

fn local_fleet(model: &LdaModel, kind: FoldInKind) -> ShardRouter {
    ShardRouter::from_model(
        model,
        ShardPlan::uniform(model.vocab_size(), N_SHARDS).unwrap(),
        serve_config(kind),
    )
    .unwrap()
}

/// Sends `trace` and returns every request's θ bit pattern.
fn replay_thetas(router: &ShardRouter, trace: &RequestTrace) -> Vec<Option<Vec<u32>>> {
    let outcomes = send_requests(router, trace.requests(), None);
    assert!(
        outcomes.iter().all(Result::is_ok),
        "reference replay dropped requests"
    );
    outcomes.into_iter().map(Result::ok).collect()
}

#[test]
fn every_pinned_epoch_answers_identically_across_delta_full_and_cold_boot() {
    for kind in [FoldInKind::Esca, FoldInKind::Em] {
        let mut trainer = warm_trainer(11);
        let sampler = serve_config(kind).sampler;
        let delta_fleet = local_fleet(trainer.model(), kind);
        let full_fleet = local_fleet(trainer.model(), kind);
        // The warmup's M-steps touched every row; both fleets already
        // serve that state, so drain the set before the stream starts.
        let initial = trainer.take_touched_rows();
        assert_eq!(initial.len(), trainer.model().vocab_size());

        let rows_rebuilt_before = trainer.rows_rebuilt();
        let full_rebuilds_before = trainer.full_rebuilds();
        let trace = synthesize_trace(&spec(), 40, 97);
        let mut base = delta_fleet.epoch();
        let mut touched_total = 0u64;
        for step in 0..3u64 {
            trainer.ingest(stream_batch(6, 300 + step)).unwrap();
            trainer.iterate_incremental();
            trainer.iterate_incremental();
            let touched = trainer.take_touched_rows();
            assert!(
                !touched.is_empty() && touched.len() < trainer.model().vocab_size(),
                "step {step}: incremental training must touch a strict subset of rows"
            );
            touched_total += touched.len() as u64;
            let snapshot = InferenceSnapshot::from_model(trainer.model(), sampler);
            let d = delta_fleet
                .publish_incremental(snapshot.clone(), &touched, base)
                .unwrap();
            let f = full_fleet.publish(snapshot).unwrap();
            assert_eq!(d, f, "fleets must advance in lockstep");
            base = d;

            // Pinned-epoch differential: delta fleet ≡ full fleet ≡ a
            // fleet cold-booted from this epoch's model.
            let cold = local_fleet(trainer.model(), kind);
            let from_delta = replay_thetas(&delta_fleet, &trace);
            let from_full = replay_thetas(&full_fleet, &trace);
            let from_cold = replay_thetas(&cold, &trace);
            assert_eq!(
                from_delta, from_full,
                "{kind:?} epoch {d}: delta-published fleet diverged from full-snapshot fleet"
            );
            assert_eq!(
                from_delta, from_cold,
                "{kind:?} epoch {d}: delta-published fleet diverged from a cold boot"
            );
            if kind == FoldInKind::Em {
                // EM through shards vs the direct (unsharded) server: the
                // merge is floating-point, so within 1e-5 L∞.
                let direct = TopicServer::from_model(trainer.model(), serve_config(kind)).unwrap();
                for request in trace.requests().iter().take(10) {
                    let a = delta_fleet
                        .infer_with_deadline(request.words.clone(), request.seed, Duration::MAX)
                        .unwrap();
                    let b = direct
                        .infer_with_deadline(request.words.clone(), request.seed, Duration::MAX)
                        .unwrap();
                    assert!(
                        linf(&a.theta, &b.theta) <= 1e-5,
                        "EM sharded vs direct exceeded 1e-5 L∞"
                    );
                }
                direct.shutdown();
            }
            cold.shutdown();
        }

        // The publish-cost claim: the incremental path rebuilt only the
        // rows it reported — no full O(V·K) rebuild ran during the
        // stream, and the per-row counter stayed well under one.
        assert_eq!(
            trainer.full_rebuilds(),
            full_rebuilds_before,
            "{kind:?}: the stream must never trigger a full rebuild"
        );
        let rebuilt = trainer.rows_rebuilt() - rows_rebuilt_before;
        assert!(rebuilt >= touched_total, "every exported row was rebuilt");
        // 9 refresh passes (3 steps × ingest + 2 incremental iterations)
        // of a full rebuild would be 9·V rows.
        assert!(
            rebuilt < 9 * trainer.model().vocab_size() as u64,
            "{kind:?}: rebuilt {rebuilt} rows — not incremental"
        );

        // And the fleet-side accounting agrees: every epoch was a pure
        // delta epoch that shipped fewer rows than a full publish.
        let stats = delta_fleet.router_stats().pipeline.unwrap();
        assert_eq!(stats.epochs_published, 3);
        assert_eq!(stats.delta_epochs, 3, "{kind:?}: a publication fell back");
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.rows_shipped < stats.rows_total);
        assert_eq!(
            stats.rows_shipped, touched_total,
            "rows shipped must equal rows the trainer touched"
        );

        delta_fleet.shutdown();
        full_fleet.shutdown();
    }
}

#[test]
fn mid_replay_delta_refresh_drops_nothing_and_never_mixes_epochs() {
    // The live fleet starts at epoch 1 (trainer's warm model) and is
    // refreshed to epoch 2 by a SABRDELTA publication fired from a
    // dispatcher thread mid-replay.
    let mut trainer = warm_trainer(13);
    let kind = FoldInKind::Esca;
    let sampler = serve_config(kind).sampler;
    let live = local_fleet(trainer.model(), kind);
    let before_model = trainer.model().clone();
    let _ = trainer.take_touched_rows();

    trainer.ingest(stream_batch(6, 41)).unwrap();
    trainer.iterate_incremental();
    let touched = trainer.take_touched_rows();
    let next_snapshot = InferenceSnapshot::from_model(trainer.model(), sampler);

    // References: the unrefreshed baseline, and a fleet refreshed with the
    // FULL snapshot (so matching it also proves delta ≡ full mid-stream).
    let trace = synthesize_trace(&spec(), 160, 53);
    let unrefreshed = local_fleet(&before_model, kind);
    let refreshed = local_fleet(&before_model, kind);
    refreshed.publish(next_snapshot.clone()).unwrap();
    let theta_before = replay_thetas(&unrefreshed, &trace);
    let theta_after = replay_thetas(&refreshed, &trace);
    assert_ne!(
        theta_before, theta_after,
        "the refresh must actually change answers for the mix check to bite"
    );

    // The live replay, with the delta publication injected after 60
    // completions.
    let fired = AtomicBool::new(false);
    let publish = || {
        let epoch = live
            .publish_incremental(next_snapshot, &touched, 1)
            .unwrap();
        assert_eq!(epoch, 2);
        fired.store(true, Ordering::SeqCst);
    };
    let outcome = send_requests(&live, trace.requests(), Some((60, Box::new(publish))));
    assert!(fired.load(Ordering::SeqCst), "the publication never fired");
    assert!(
        outcome.iter().all(Result::is_ok),
        "requests dropped during the epoch swap"
    );
    assert_eq!(live.epoch(), 2);
    let stats = live.router_stats().pipeline.unwrap();
    assert_eq!(stats.epochs_published, 1);
    assert_eq!(
        stats.delta_epochs, 1,
        "the mid-stream publication fell back"
    );

    // Every answer is exactly the before- or after-refresh reference —
    // an answer matching neither would mean a fan-out mixed epochs.
    let (mut saw_before, mut saw_after) = (0u64, 0u64);
    for (i, theta) in outcome.iter().enumerate() {
        let theta = theta.as_ref().expect("request was answered");
        let matches_before = Some(theta) == theta_before[i].as_ref();
        let matches_after = Some(theta) == theta_after[i].as_ref();
        assert!(
            matches_before || matches_after,
            "request {i}: θ matches neither epoch — a mixed-version fan-out"
        );
        if matches_before {
            saw_before += 1;
        }
        if matches_after {
            saw_after += 1;
        }
    }
    assert!(saw_before > 0, "no request saw the pre-refresh epoch");
    assert!(saw_after > 0, "no request saw the post-refresh epoch");

    unrefreshed.shutdown();
    refreshed.shutdown();
    live.shutdown();
}

#[test]
fn serve_while_training_pipeline_drops_nothing_and_lands_on_the_trained_model() {
    // The full composite: a TrainingPipeline drains a feed (publishing
    // every tick) while a trace is sent to its fleet again and again until
    // the run returns, so every publication happens under read load.
    let trainer = warm_trainer(17);
    let mut pipeline = TrainingPipeline::bootstrap_local(
        trainer,
        N_SHARDS,
        serve_config(FoldInKind::Esca),
        PipelineConfig {
            batch_docs: 12,
            iterations_per_batch: 2,
            publish_every: 1,
            full_refresh_every: 0,
        },
    )
    .unwrap();
    let mut feed = DocumentFeed::synthetic(
        &SyntheticSpec {
            n_docs: 48,
            ..spec()
        },
        29,
    );
    let trace = synthesize_trace(&spec(), 200, 59);
    let router = Arc::clone(pipeline.router());
    let mut dropped = Vec::new();
    std::thread::scope(|scope| {
        let training = scope.spawn(|| pipeline.run(&mut feed));
        loop {
            let outcomes = send_requests(&*router, trace.requests(), None);
            dropped.extend(outcomes.into_iter().filter_map(Result::err));
            if training.is_finished() {
                break;
            }
        }
        training.join().unwrap().unwrap();
    });
    drop(router);
    assert!(dropped.is_empty(), "{dropped:?}");
    let stats = pipeline.router().router_stats().pipeline.unwrap();
    assert_eq!(stats.epochs_published, 4);
    assert_eq!(pipeline.served_epoch(), 5);
    assert!(stats.rows_shipped < stats.rows_total);

    // After the stream, the fleet serves exactly the trainer's final
    // model: a cold boot from it answers bit-identically.
    let cold = local_fleet(pipeline.trainer().model(), FoldInKind::Esca);
    for seed in [0u64, 31, 77] {
        let words = vec![0u32, 17, 42, 199, 17, 3];
        let a = pipeline
            .router()
            .infer_with_deadline(words.clone(), seed, Duration::MAX)
            .unwrap();
        let b = cold
            .infer_with_deadline(words, seed, Duration::MAX)
            .unwrap();
        assert_eq!(bits(&a.theta), bits(&b.theta));
    }
    cold.shutdown();
    pipeline.shutdown();
}

#[test]
fn delta_publication_over_real_tcp_matches_the_local_fleet() {
    let kind = FoldInKind::Esca;
    let cfg = serve_config(kind);
    let mut trainer = warm_trainer(19);
    let plan = ShardPlan::uniform(trainer.model().vocab_size(), N_SHARDS).unwrap();
    let (shards, transports) = spawn_shard_fleet(trainer.model(), &plan, cfg);
    let remote = ShardRouter::with_transports(plan, transports, cfg).unwrap();
    let local = Arc::new(local_fleet(trainer.model(), kind));
    let _ = trainer.take_touched_rows();

    // Evolve one epoch with a small batch so each range's delta beats its
    // full slice and actually rides `POST /publish-delta`.
    trainer.ingest(stream_batch(4, 71)).unwrap();
    trainer.iterate_incremental();
    let touched = trainer.take_touched_rows();
    let snapshot = InferenceSnapshot::from_model(trainer.model(), cfg.sampler);
    assert_eq!(
        remote
            .publish_incremental(snapshot.clone(), &touched, 1)
            .unwrap(),
        2
    );
    assert_eq!(
        local
            .publish_incremental(snapshot.clone(), &touched, 1)
            .unwrap(),
        2
    );
    let stats = remote.router_stats().pipeline.unwrap();
    assert_eq!(
        stats.delta_epochs, 1,
        "the TCP publication fell back to full slices"
    );
    assert_eq!(stats.rows_shipped, touched.len() as u64);

    // Refreshed-over-TCP ≡ refreshed-in-process, bit for bit.
    let trace = synthesize_trace(&spec(), 30, 83);
    for request in trace.requests() {
        let a = remote
            .infer_with_deadline(request.words.clone(), request.seed, Duration::MAX)
            .unwrap();
        let b = local
            .infer_with_deadline(request.words.clone(), request.seed, Duration::MAX)
            .unwrap();
        assert_eq!(a.snapshot_version, 2);
        assert_eq!(bits(&a.theta), bits(&b.theta), "TCP delta fleet diverged");
    }

    // A stale base over TCP declines the delta (409 on the wire) and the
    // router falls back to full slices — the publication still lands.
    trainer.ingest(stream_batch(4, 72)).unwrap();
    trainer.iterate_incremental();
    let touched = trainer.take_touched_rows();
    let snapshot = InferenceSnapshot::from_model(trainer.model(), cfg.sampler);
    assert_eq!(
        remote.publish_incremental(snapshot, &touched, 1).unwrap(),
        3,
        "stale-base publication must still land as full slices"
    );
    let stats = remote.router_stats().pipeline.unwrap();
    assert_eq!(stats.epochs_published, 2);
    assert_eq!(stats.delta_epochs, 1);
    assert!(stats.fallbacks >= 1);
    assert_eq!(remote.epoch(), 3);

    remote.shutdown();
    Arc::try_unwrap(local).unwrap().shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}
