//! `pipeline_publish_under_read`: writes beside reads.
//!
//! The 2-shard remote fleet serves model M while a `TrainingPipeline`
//! over the warm trainer that produced M ingests batches through the
//! incremental path and publishes an epoch after every tick (SABRDELTA
//! over TCP, two-phase commit), and one open-loop reader lane queries the
//! fleet through its front listener the whole time. Trainer and fleet
//! compete for the same two cores: a publish-path gain that taxes readers,
//! or a read-path gain that slows publication, shows here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use saber_core::model_io::{load_delta, save_delta, snapshot_encoded_bytes};
use saber_core::{LdaModel, SaberLda};
use saber_pipeline::{PipelineConfig, TrainingPipeline};
use saber_serve::{HttpTransport, InferenceSnapshot, ShardRouter};

use super::{Report, RunArgs, Setup, Traced};
use crate::inputs::{
    generate_inputs, heldout_perplexity, ingest_batches, serve_config, shortdoc_spec,
    train_model_m, RemoteFleet, Requests, REFERENCE_DEADLINE,
};
use crate::loadgen::{fetch_replies, open_loop, same_bits, PhaseOutcome};
use crate::machine::Machine;
use crate::result::{peak_rss_mb, RunResult};
use crate::spans::SpanLog;
use crate::stats;

const BATCH_DOCS: usize = 32;
/// Tick + publish pairs per second of `--seconds`. Every tick resamples
/// every chunk ingested so far, so the pairs get slower as they go; 1.6/s
/// fills the run at the commit that added the benchmark.
const TICKS_PER_SECOND: f64 = 1.6;
const TRACED_TICKS_PER_SECOND: f64 = 0.6;
/// The reader's fixed open-loop rate, req/s, on one lane: far below what
/// the fleet sustains, so reader latency shows contention, not load.
const READER_RATE: f64 = 250.0;
/// Segments the untraced run's pairs are taken in.
const SEGMENTS: usize = 5;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        batch_docs: BATCH_DOCS,
        iterations_per_batch: 2,
        // The benchmark publishes explicitly after every tick, so that
        // ingest and publication are timed apart.
        publish_every: usize::MAX,
        full_refresh_every: 0,
    }
}

fn reader_requests(seed: u64) -> Requests {
    Requests::synthesize(&shortdoc_spec(), 3000, 6000, seed)
}

/// Runs `writer` on this thread while one reader lane sends `requests`,
/// from request `first` on, at [`READER_RATE`] to the fleet's front
/// listener until the writer is done.
fn under_read<R>(
    fleet: &RemoteFleet,
    requests: &Requests,
    first: usize,
    writer: impl FnOnce() -> R,
) -> (PhaseOutcome, R) {
    let done = AtomicBool::new(false);
    let addr = fleet.addr();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            open_loop(
                addr,
                &requests.bytes,
                first,
                usize::MAX,
                READER_RATE,
                1,
                &|| done.load(Ordering::SeqCst),
            )
            .expect("the front listener accepts loopback connections")
        });
        let written = writer();
        done.store(true, Ordering::SeqCst);
        (reader.join().expect("the reader lane panicked"), written)
    })
}

/// θ bits of the checked requests as the live fleet answers them over
/// HTTP against a fleet cold-booted from `trainer`'s final model.
fn check_equals_cold_boot(
    report: &mut Report,
    fleet: &RemoteFleet,
    requests: &Requests,
    trainer: &SaberLda,
) {
    let indices = requests.checked_indices();
    let outcome = fetch_replies(fleet.addr(), &requests.bytes, &indices).and_then(|replies| {
        let cold = ShardRouter::from_model(trainer.model(), fleet.plan.clone(), serve_config())
            .map_err(|e| format!("cold boot: {e}"))?;
        let mut matching = 0;
        for ((theta, _), &i) in replies.iter().zip(&indices) {
            let reference = cold
                .infer_with_deadline(
                    requests.words[i].clone(),
                    requests.seeds[i],
                    REFERENCE_DEADLINE,
                )
                .map_err(|e| format!("cold-boot request {i}: {e}"))?;
            matching += usize::from(same_bits(theta, &reference.theta));
        }
        Ok((matching, indices.len()))
    });
    match outcome {
        Ok((matching, n)) => report.check(
            "fleet_equals_cold_boot_after_last_epoch",
            matching == n,
            format!("{matching} of {n} sampled answers carry a cold-booted fleet's f32 bits"),
        ),
        Err(e) => report.check("fleet_equals_cold_boot_after_last_epoch", false, e),
    }
}

/// Checks the reader's answers; returns the p99 and the maximum of how late
/// the reader lane sent, in µs.
fn check_reads(report: &mut Report, reads: &PhaseOutcome, published: &[u64]) -> (f64, f64) {
    // 503 is the front listener's documented "try again": the router gives
    // up on a request that saw mixed epochs on every one of its retries
    // while a commit was walking the shards. It is a failed operation (it
    // counts in `failed` and has no latency), not a wrong output. Any other
    // failure is.
    let refused = reads.samples.iter().filter(|s| s.status == 503).count() as u64;
    let mut broken: Vec<u16> = reads
        .samples
        .iter()
        .filter(|s| !s.ok() && s.status != 503)
        .map(|s| s.status)
        .collect();
    broken.sort_unstable();
    broken.dedup();
    report.check(
        "every_read_answered_or_refused_with_503",
        broken.is_empty(),
        format!(
            "{} reads, {refused} refused with 503, other failing statuses {broken:?} (0 = no HTTP reply)",
            reads.attempted()
        ),
    );
    let strangers = reads
        .samples
        .iter()
        .filter(|s| s.ok() && !published.contains(&s.snapshot_version))
        .count();
    report.check(
        "every_answer_from_a_published_epoch",
        strangers == 0,
        format!(
            "{strangers} answers carried a snapshot_version outside the {} published epochs",
            published.len()
        ),
    );
    report.lateness(reads)
}

/// A copy of `model` with `B̂` recomputed from its counts. The incremental
/// path refreshes rows against denominators cached at the last full sweep
/// (and this workload never rebases them), so the served `B̂` columns no
/// longer sum to one; a likelihood needs probabilities that do.
fn renormalised(model: &LdaModel) -> LdaModel {
    let mut copy = LdaModel::new(
        model.vocab_size(),
        model.n_topics(),
        model.alpha(),
        model.beta(),
    )
    .expect("the dimensions of an existing model are valid");
    copy.word_topic_mut()
        .as_mut_slice()
        .copy_from_slice(model.word_topic().as_slice());
    copy.refresh_probabilities();
    copy
}

/// The 2-shard remote fleet serving `trainer`'s model, and the pipeline
/// that owns the trainer and publishes to that fleet.
fn boot_pipeline(trainer: SaberLda) -> (RemoteFleet, TrainingPipeline<HttpTransport>) {
    let snapshot = InferenceSnapshot::from_model(trainer.model(), serve_config().sampler);
    let fleet = RemoteFleet::boot(&snapshot);
    drop(snapshot);
    let pipeline = TrainingPipeline::new(trainer, Arc::clone(&fleet.router), pipeline_config())
        .expect("the fleet was booted from the trainer's own model");
    (fleet, pipeline)
}

/// One tick + publish pair as timed, in seconds.
struct Pair {
    tick_s: f64,
    publish_s: f64,
}

pub fn run(args: &RunArgs, machine: &mut Machine) -> RunResult {
    let mut report = Report::new();
    let mut setup = Setup::default();
    let inputs = setup.step(machine, || generate_inputs(args.seed));
    let trainer = setup.model_m(machine, args, &inputs.corpus);
    let n_ticks = args.scaled(TICKS_PER_SECOND, 3);
    let ((fleet, mut pipeline), batches, requests) = setup.step(machine, || {
        (
            boot_pipeline(trainer),
            ingest_batches(args.seed, n_ticks, BATCH_DOCS),
            reader_requests(args.seed),
        )
    });
    let mut published = vec![pipeline.served_epoch()];
    report.set_corrected("setup_s", setup.spent.corrected, setup.spent.raw);

    // The pairs run in segments, each between two probes of the machine
    // taken while the reader is stopped, so that a probe measures the
    // machine and not the fleet.
    let (mut ingested, mut resampled, mut failures) = (0u64, 0u64, 0u64);
    let mut reads = PhaseOutcome::default();
    let mut corrected_latencies = Vec::new();
    let mut raw_pairs = Vec::with_capacity(n_ticks);
    let mut corrected_pairs = Vec::with_capacity(n_ticks);
    for segment in batches.chunks(n_ticks.div_ceil(SEGMENTS)) {
        let first = reads.samples.len();
        let ((segment_reads, pairs), slow) = machine.around(|| {
            under_read(&fleet, &requests, first, || {
                let mut pairs = Vec::with_capacity(segment.len());
                for batch in segment {
                    let started = Instant::now();
                    match pipeline.tick(batch.clone()) {
                        Ok(tick) => {
                            ingested += tick.tokens_ingested;
                            resampled += tick.tokens_resampled;
                        }
                        Err(_) => failures += 1,
                    }
                    let tick_s = started.elapsed().as_secs_f64();
                    let started = Instant::now();
                    match pipeline.push_epoch() {
                        Ok(epoch) => published.push(epoch.epoch),
                        Err(_) => failures += 1,
                    }
                    pairs.push(Pair {
                        tick_s,
                        publish_s: started.elapsed().as_secs_f64(),
                    });
                }
                pairs
            })
        });
        // The reads are served requests; a pair is the trainer thread's
        // work.
        let (read_slowdown, pair_slowdown) = (slow.serving(), slow.training());
        corrected_latencies.extend(
            segment_reads
                .latencies_us()
                .iter()
                .map(|l| l / read_slowdown),
        );
        reads.extend(segment_reads);
        for pair in pairs {
            corrected_pairs.push(Pair {
                tick_s: pair.tick_s / pair_slowdown,
                publish_s: pair.publish_s / pair_slowdown,
            });
            raw_pairs.push(pair);
        }
    }

    report.phase("tick_and_publish", 2 * n_ticks as u64, failures);
    report.phase("read", reads.attempted(), reads.failed());
    let (_, late_max) = check_reads(&mut report, &reads, &published);
    check_equals_cold_boot(&mut report, &fleet, &requests, pipeline.trainer());
    let perplexity = heldout_perplexity(
        &renormalised(pipeline.trainer().model()),
        &inputs.held_out,
        args.seed,
    );

    // One publication in three takes two to four times the usual (fresh
    // 40 MB snapshots faulting in, a fallback to whole slices), and which
    // ones do is luck: the pairs' wall time counts every publication at the
    // median publication time.
    let pair_wall = |pairs: &[Pair]| {
        let publish: Vec<f64> = pairs.iter().map(|p| p.publish_s).collect();
        pairs.iter().map(|p| p.tick_s).sum::<f64>() + pairs.len() as f64 * stats::median(&publish)
    };
    // The first publication follows a full sweep, which touches every
    // row: it ships whole slices and is reported apart from the deltas.
    let publish_p50 =
        |pairs: &[Pair]| stats::median(&pairs[1..].iter().map(|p| p.publish_s).collect::<Vec<_>>());
    let raw_latencies = reads.latencies_us();
    let corrected_latencies = stats::sorted(&corrected_latencies);
    report.set_corrected(
        "tokens_per_s",
        ingested as f64 / pair_wall(&corrected_pairs),
        ingested as f64 / pair_wall(&raw_pairs),
    );
    report.set_corrected(
        "op_p50_us",
        stats::percentile(&corrected_latencies, 0.5),
        stats::percentile(&raw_latencies, 0.5),
    );
    report.diagnostic(
        "op_p95_us",
        stats::percentile(&corrected_latencies, 0.95),
        "us",
    );
    report.set("heldout_perplexity", perplexity);
    report.set("peak_rss_mb", peak_rss_mb());
    report.diagnostic("publish_epoch_p50_s", publish_p50(&corrected_pairs), "s");
    report.diagnostic("raw_publish_epoch_p50_s", publish_p50(&raw_pairs), "s");
    report.diagnostic("publish_first_epoch_s", corrected_pairs[0].publish_s, "s");
    report.diagnostic(
        "tick_p50_s",
        stats::median(&corrected_pairs.iter().map(|p| p.tick_s).collect::<Vec<_>>()),
        "s",
    );
    report.diagnostic(
        "resample_ratio",
        resampled as f64 / ingested as f64,
        "ratio",
    );
    report.diagnostic(
        "infer_p99_us",
        stats::percentile(&corrected_latencies, 0.99),
        "us",
    );
    report.diagnostic("read_samples", raw_latencies.len() as f64, "count");
    report.diagnostic("reader_rate", READER_RATE, "1/s");
    report.diagnostic("loadgen.max_late_us", late_max, "us");
    if let Some(stats) = fleet.router.router_stats().pipeline {
        report.diagnostic("delta_epochs", stats.delta_epochs as f64, "count");
        report.diagnostic("publish_fallbacks", stats.fallbacks as f64, "count");
    }
    report.machine(machine);
    report.finish_end_to_end(args)
}

/// What the untraced `TrainingPipeline` reference run ended on.
struct Reference {
    final_epoch: u64,
    word_topic: Vec<u32>,
    wall_s: f64,
}

fn reference_run(
    trainer: SaberLda,
    batches: &[Vec<Vec<u32>>],
    requests: &Requests,
    report: &mut Report,
) -> Reference {
    let (fleet, mut pipeline) = boot_pipeline(trainer);
    let started = Instant::now();
    let (reads, failures) = under_read(&fleet, requests, 0, || {
        let mut failures = 0u64;
        for batch in batches {
            failures += u64::from(pipeline.tick(batch.clone()).is_err());
            failures += u64::from(pipeline.push_epoch().is_err());
        }
        failures
    });
    let wall_s = started.elapsed().as_secs_f64();
    report.phase("tick_and_publish", 2 * batches.len() as u64, failures);
    report.phase("read", reads.attempted(), reads.failed());
    Reference {
        final_epoch: pipeline.served_epoch(),
        word_topic: pipeline.trainer().model().word_topic().as_slice().to_vec(),
        wall_s,
    }
}

pub fn trace(args: &RunArgs) -> Traced {
    let mut report = Report::new();
    let mut log = SpanLog::new();
    let inputs = log.time("corpus.generate", None, 0, || generate_inputs(args.seed));
    // Two identical warm trainers: one for the `TrainingPipeline`
    // reference, one for the replay from its public parts. Half the usual
    // sweeps each, so the traced run's set-up costs what the untraced one's
    // does.
    let m_iterations = args.model_m_iterations().div_ceil(2);
    let reference_trainer = train_model_m(&inputs.corpus, m_iterations);
    let mut trainer = train_model_m(&inputs.corpus, m_iterations);
    let n_ticks = args.scaled(TRACED_TICKS_PER_SECOND, 3);
    let batches = ingest_batches(args.seed, n_ticks, BATCH_DOCS);
    let requests = reader_requests(args.seed);

    let reference = reference_run(reference_trainer, &batches, &requests, &mut report);

    // The replay: tick + push_epoch on a bare `SaberLda` and the router.
    let snapshot = log.time("serve.snapshot.from_model", None, 0, || {
        InferenceSnapshot::from_model(trainer.model(), serve_config().sampler)
    });
    report.set("serve.snapshot.bytes", snapshot.memory_bytes() as f64);
    let fleet = RemoteFleet::boot(&snapshot);
    drop(snapshot);
    let sampler = fleet.router.config().sampler;
    let mut served_epoch = fleet.router.epoch();
    let mut published = vec![served_epoch];
    let (mut ingested, mut resampled, mut failures) = (0u64, 0u64, 0u64);
    let mut changed_rows = Vec::with_capacity(n_ticks);
    let mut last_changed = Vec::new();
    let replay_started = Instant::now();
    let (reads, ()) = under_read(&fleet, &requests, 0, || {
        for (id, batch) in batches.iter().enumerate() {
            let id = id as u64;
            let tick = log.begin("pipeline.tick", None, id);
            let batch = batch.clone();
            match log.time("pipeline.ingest", Some(tick), id, || trainer.ingest(batch)) {
                Ok(tokens) => ingested += tokens,
                Err(_) => failures += 1,
            }
            for _ in 0..pipeline_config().iterations_per_batch {
                resampled += log.time("pipeline.iterate_incremental", Some(tick), id, || {
                    trainer.iterate_incremental()
                });
            }
            log.end(tick);

            let epoch = log.begin("publish.epoch", None, id);
            let changed = trainer.take_touched_rows();
            let snapshot = log.time("publish.snapshot_export", Some(epoch), id, || {
                InferenceSnapshot::from_model(trainer.model(), sampler)
            });
            let pushed = log.time("publish.incremental", Some(epoch), id, || {
                fleet
                    .router
                    .publish_incremental(snapshot, &changed, served_epoch)
            });
            log.end(epoch);
            match pushed {
                Ok(new_epoch) => {
                    served_epoch = new_epoch;
                    published.push(new_epoch);
                }
                Err(_) => {
                    trainer.restore_touched_rows(&changed);
                    failures += 1;
                }
            }
            changed_rows.push(changed.len() as f64);
            last_changed = changed;
        }
    });
    let replay_wall_s = replay_started.elapsed().as_secs_f64();
    report.phase("replayed_tick_and_publish", 2 * n_ticks as u64, failures);
    report.phase("replayed_read", reads.attempted(), reads.failed());
    let (late_p99, late_max) = check_reads(&mut report, &reads, &published);
    let same_counts = trainer.model().word_topic().as_slice() == reference.word_topic.as_slice();
    report.check(
        "decomposed_tick_and_push_equals_pipeline",
        same_counts && served_epoch == reference.final_epoch,
        format!(
            "replay ended on epoch {served_epoch}, TrainingPipeline on {}; word-topic counts bit-identical: {same_counts}",
            reference.final_epoch
        ),
    );
    check_equals_cold_boot(&mut report, &fleet, &requests, &trainer);

    // Per-tick medians of the spans' self times.
    let by_name = log.self_seconds_by_name_and_id();
    let median_of = |name: &str| stats::median(by_name.get(name).map_or(&[][..], Vec::as_slice));
    let span_median = |name: &str| stats::median(&log.durations_s(name));
    report.set("pipeline.ingest_s", median_of("pipeline.ingest"));
    report.set(
        "pipeline.iterate_incremental_s",
        median_of("pipeline.iterate_incremental"),
    );
    report.set("pipeline.tick_s", span_median("pipeline.tick"));
    report.set(
        "pipeline.resample_ratio",
        resampled as f64 / ingested as f64,
    );
    // The first epoch follows a full sweep and ships every row.
    report.set(
        "pipeline.changed_rows_per_epoch",
        stats::median(&changed_rows[1..]),
    );
    report.set(
        "publish.snapshot_export_s",
        median_of("publish.snapshot_export"),
    );
    report.set("publish.incremental_s", median_of("publish.incremental"));
    if let Some(stats) = fleet.router.router_stats().pipeline {
        report.set(
            "publish.rows_shipped_share",
            stats.rows_shipped as f64 / stats.rows_total.max(1) as f64,
        );
        report.set(
            "publish.delta_epochs_share",
            stats.delta_epochs as f64 / stats.epochs_published.max(1) as f64,
        );
        report.set("publish.fallbacks", stats.fallbacks as f64);
    }
    report.router_counters(&fleet.router.router_stats());
    let read_latencies = reads.latencies_us();
    report.set("infer_p95_us", stats::percentile(&read_latencies, 0.95));
    report.set("infer_p99_us", stats::percentile(&read_latencies, 0.99));
    report.set("loadgen.late_p99_us", late_p99);
    report.set("loadgen.max_late_us", late_max);
    report.set(
        "trace_overhead_share",
        replay_wall_s / reference.wall_s - 1.0,
    );
    for (span, metric) in [
        ("corpus.generate", "corpus.generate_s"),
        ("serve.snapshot.from_model", "serve.snapshot.from_model_s"),
    ] {
        report.set(metric, span_median(span));
    }

    // The delta codec on the last epoch's rows, standalone, and one
    // explicit full publication for scale.
    let final_snapshot = InferenceSnapshot::from_model(trainer.model(), sampler);
    let (mut encode_s, mut apply_s, mut delta_bytes, mut full_bytes) = (0.0, 0.0, 0usize, 0u64);
    for (s, range) in fleet.plan.ranges().enumerate() {
        let started = Instant::now();
        let delta = final_snapshot.shard_delta(
            range.clone(),
            &last_changed,
            served_epoch,
            served_epoch + 1,
        );
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("writing a delta to memory succeeds");
        encode_s += started.elapsed().as_secs_f64();
        delta_bytes += bytes.len();
        let base = fleet.shard_servers[s].snapshot();
        let started = Instant::now();
        let decoded = load_delta(bytes.as_slice()).expect("the delta just written loads");
        std::hint::black_box(
            base.apply_delta(&decoded)
                .expect("the delta matches the slice it was cut for"),
        );
        apply_s += started.elapsed().as_secs_f64();
        full_bytes += snapshot_encoded_bytes(
            u64::from(range.end - range.start),
            final_snapshot.n_topics() as u64,
        )
        .unwrap_or(0);
    }
    report.set("publish.delta_encode_s", encode_s);
    report.set("publish.delta_apply_s", apply_s);
    report.set("publish.delta_bytes", delta_bytes as f64);
    report.set("publish.full_bytes", full_bytes as f64);
    let started = Instant::now();
    let full = fleet.router.publish(final_snapshot);
    report.set("publish.full_s", started.elapsed().as_secs_f64());
    report.phase("full_publish", 1, u64::from(full.is_err()));

    Traced {
        result: report.finish_per_layer(args),
        spans: log,
    }
}
