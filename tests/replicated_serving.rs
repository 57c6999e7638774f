//! Differential suite for the replicated, self-healing shard fleet
//! (ISSUE 9): replica sets must change *availability*, never *answers*.
//!
//! Contracts under test:
//!
//! * a replicated local fleet answers bit-identically to the
//!   single-replica router over the same plan — replica selection is
//!   seed-deterministic and replicas serve identical slices;
//! * killing a replica mid-stream over real TCP drops nothing and leaves
//!   ESCA θ bit-identical (EM within 1e-5 L∞ of direct serving and
//!   bit-identical to local routing), version-pure across the failure;
//! * a replica's circuit breaker trips after `FAILURE_THRESHOLD`
//!   consecutive transport failures and re-admits once a health probe sees
//!   the replica back;
//! * **regression (deadline-skew bug)**: a fan-out that keeps observing
//!   version skew fails with `DeadlineExceeded`, not `ShardVersionSkew`,
//!   once the caller's deadline has passed;
//! * skew that clears within about a millisecond (one commit window) is
//!   outlasted by the backed-off retries: answered, never a 503;
//! * **regression (wrong-K bug)**: a partial over another topic count than
//!   the fleet's is a transport error naming the shard, not a panic in the
//!   merge;
//! * **regression (transient-transport bug)**: one transient transport
//!   failure costs one bounded retry (counted, traced), not the request;
//! * the router-backed `GET /healthz` degrades to 503 when a plan range
//!   has lost every replica;
//! * a loadgen chaos replay (kill a replica after N requests) drops
//!   nothing and replays θ bit-identically to the healthy fleet.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_loadgen::replay::{
    replay, replay_model, replay_with_chaos, ChaosTrigger, RateProfile, ReplayConfig, Topology,
    TopologyHandle,
};
use saber_loadgen::synth::synthesize_trace;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    derive_replica_choice, derive_shard_seed, FoldInKind, HttpConfig, HttpServer,
    InferenceSnapshot, LocalTransport, PartialRequest, PartialResponse, PendingPartial,
    ServeConfig, ServeError, ShardInfo, ShardPlan, ShardRouter, ShardTransport, TopicServer,
    FAILURE_THRESHOLD,
};
use saberlda::trace::{TraceBuilder, TraceContext, TraceId};
use saberlda::LdaModel;

mod common;
use common::{bits, config, linf, random_doc, random_model, spawn_replicated_fleet, K, VOCAB};

fn shutdown_fleet(fleet: Vec<Vec<Option<HttpServer>>>) {
    for server in fleet.into_iter().flatten().flatten() {
        server.shutdown();
    }
}

/// Seeds whose deterministic replica choice for `shard` lands on
/// `replica` — so a test can aim requests at a specific (possibly dead)
/// replica.
fn seeds_choosing(shard: usize, replica: usize, n_replicas: usize, count: usize) -> Vec<u64> {
    (0..10_000u64)
        .filter(|&seed| derive_replica_choice(seed, shard, n_replicas) == replica)
        .take(count)
        .collect()
}

// ---------------------------------------------------------------------------
// Replication never changes answers
// ---------------------------------------------------------------------------

#[test]
fn replicated_local_fleet_is_bit_identical_to_single_replica() {
    // The foundation of every failover guarantee: replicas serve identical
    // slices with identical shard-derived seeds, so WHICH replica answers
    // can never show up in θ.
    for kind in [FoldInKind::Esca, FoldInKind::Em] {
        let model = random_model(11);
        let cfg = config(kind);
        let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
        let single = ShardRouter::from_model(&model, plan.clone(), cfg).unwrap();
        for n_replicas in [2usize, 3] {
            let snapshot = InferenceSnapshot::from_model(&model, cfg.sampler);
            let sets = plan
                .ranges()
                .map(|range| {
                    (0..n_replicas)
                        .map(|_| {
                            let server = TopicServer::start(snapshot.shard(range.clone()), cfg);
                            LocalTransport::with_range(server.unwrap(), range.clone())
                        })
                        .collect()
                })
                .collect();
            let replicated = ShardRouter::with_replica_sets(plan.clone(), sets, cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(50);
            for seed in 0..8u64 {
                let doc = random_doc(&mut rng, 4 + (seed as usize) * 3);
                let a = single.infer_topics(doc.clone(), seed).unwrap();
                let b = replicated.infer_topics(doc, seed).unwrap();
                assert_eq!(
                    bits(&a.theta),
                    bits(&b.theta),
                    "{kind:?} seed {seed}: {n_replicas}-replica fleet diverged from single-replica"
                );
                assert_eq!(a.snapshot_version, b.snapshot_version);
                assert_eq!(a.n_oov, b.n_oov);
            }
            replicated.shutdown();
        }
        single.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Kill a replica mid-stream — differential proof over real TCP
// ---------------------------------------------------------------------------

#[test]
fn killed_replica_mid_stream_keeps_esca_answers_bit_identical() {
    let model = random_model(3);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let reference = ShardRouter::from_model(&model, plan.clone(), cfg).unwrap();

    let (mut fleet, sets) = spawn_replicated_fleet(&model, &plan, 2, cfg);
    let router = ShardRouter::with_replica_sets(plan, sets, cfg).unwrap();

    let mut rng = StdRng::seed_from_u64(77);
    // Pre-kill phase: any seed. Post-kill phase: seeds whose shard-0
    // replica choice IS the dead replica, so the failover path is
    // genuinely exercised, not dodged by selection.
    let before: Vec<u64> = (0..6).collect();
    let after = seeds_choosing(0, 1, 2, 6);
    let docs: Vec<Vec<u32>> = (0..before.len() + after.len())
        .map(|i| random_doc(&mut rng, 5 + i * 2))
        .collect();

    for (i, &seed) in before.iter().enumerate() {
        let a = reference.infer_topics(docs[i].clone(), seed).unwrap();
        let b = router.infer_topics(docs[i].clone(), seed).unwrap();
        assert_eq!(bits(&a.theta), bits(&b.theta), "pre-kill doc {i} diverged");
        assert_eq!(b.snapshot_version, 1, "pre-kill doc {i} off-version");
    }

    // Kill shard 0's replica 1 mid-stream — in-flight and future requests
    // aimed at it must fail over, not fail.
    fleet[0][1].take().unwrap().shutdown();

    for (j, &seed) in after.iter().enumerate() {
        let i = before.len() + j;
        let a = reference.infer_topics(docs[i].clone(), seed).unwrap();
        let b = router
            .infer_topics(docs[i].clone(), seed)
            .unwrap_or_else(|e| panic!("post-kill doc {i} dropped: {e:?}"));
        assert_eq!(bits(&a.theta), bits(&b.theta), "post-kill doc {i} diverged");
        assert_eq!(b.snapshot_version, 1, "post-kill doc {i} off-version");
    }

    let stats = router.router_stats();
    assert!(
        stats.transport_retries >= 1,
        "post-kill requests aimed at the dead replica must have retried: {stats:?}"
    );
    assert_eq!(stats.requests, (before.len() + after.len()) as u64);

    reference.shutdown();
    router.shutdown();
    shutdown_fleet(fleet);
}

#[test]
fn killed_replica_mid_stream_keeps_em_answers_within_tolerance() {
    let model = random_model(7);
    let cfg = config(FoldInKind::Em);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let direct = TopicServer::from_model(&model, cfg).unwrap();
    let local = ShardRouter::from_model(&model, plan.clone(), cfg).unwrap();

    let (mut fleet, sets) = spawn_replicated_fleet(&model, &plan, 2, cfg);
    let router = ShardRouter::with_replica_sets(plan, sets, cfg).unwrap();

    let mut rng = StdRng::seed_from_u64(13);
    let seeds = seeds_choosing(1, 0, 2, 8);
    let docs: Vec<Vec<u32>> = seeds
        .iter()
        .enumerate()
        .map(|(i, _)| random_doc(&mut rng, 6 + i * 3))
        .collect();

    // Kill shard 1's replica 0 — every one of these seeds prefers it
    // there, so each EM round's fan-out to shard 1 must fail over.
    fleet[1][0].take().unwrap().shutdown();

    for (i, (&seed, doc)) in seeds.iter().zip(&docs).enumerate() {
        let reference = direct.infer_topics(doc.clone(), seed).unwrap();
        let via_local = local.infer_topics(doc.clone(), seed).unwrap();
        let answer = router
            .infer_topics(doc.clone(), seed)
            .unwrap_or_else(|e| panic!("post-kill EM doc {i} dropped: {e:?}"));
        let err = linf(&reference.theta, &answer.theta);
        assert!(
            err <= 1e-5,
            "post-kill EM doc {i}: L∞ = {err} vs direct exceeds 1e-5"
        );
        assert_eq!(
            bits(&via_local.theta),
            bits(&answer.theta),
            "post-kill EM doc {i} diverged from local routing"
        );
        assert_eq!(
            answer.snapshot_version, 1,
            "post-kill EM doc {i} off-version"
        );
    }

    direct.shutdown();
    local.shutdown();
    router.shutdown();
    shutdown_fleet(fleet);
}

// ---------------------------------------------------------------------------
// Mock transports for deterministic failure injection
// ---------------------------------------------------------------------------

fn injected_transport_error() -> ServeError {
    ServeError::Transport {
        detail: "injected fault".into(),
        shard: None,
        addr: None,
    }
}

/// Delegates to a `LocalTransport` but refuses everything while `dead` —
/// a deterministic stand-in for an unreachable replica.
#[derive(Debug)]
struct FlakyTransport {
    inner: LocalTransport,
    dead: Arc<AtomicBool>,
}

impl ShardTransport for FlakyTransport {
    type Pending = <LocalTransport as ShardTransport>::Pending;

    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(injected_transport_error());
        }
        self.inner.submit_partial(words, request, deadline, trace)
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        self.inner.top_words(k, n)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        self.inner.shard_info()
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(injected_transport_error());
        }
        self.inner.observe_epoch()
    }

    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError> {
        self.inner.prepare_publish(slice, epoch)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        self.inner.commit_publish(epoch)
    }
}

fn local_transport(model: &LdaModel, cfg: ServeConfig) -> LocalTransport {
    let snapshot = InferenceSnapshot::from_model(model, cfg.sampler);
    let server = TopicServer::start(snapshot.shard(0..VOCAB as u32), cfg).unwrap();
    LocalTransport::with_range(server, 0..VOCAB as u32)
}

#[test]
fn breaker_trips_on_repeated_failures_and_readmits_after_recovery() {
    let model = random_model(21);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::single(VOCAB).unwrap();
    let reference = TopicServer::from_model(&model, cfg).unwrap();

    let dead = Arc::new(AtomicBool::new(false));
    let replicas = vec![vec![
        FlakyTransport {
            inner: local_transport(&model, cfg),
            dead: Arc::new(AtomicBool::new(false)),
        },
        FlakyTransport {
            inner: local_transport(&model, cfg),
            dead: Arc::clone(&dead),
        },
    ]];
    let router = ShardRouter::with_replica_sets(plan, replicas, cfg).unwrap();

    let mut rng = StdRng::seed_from_u64(4);
    let threshold = FAILURE_THRESHOLD as usize;
    let seeds = seeds_choosing(0, 1, 2, threshold + 2);

    // Healthy: requests aimed at replica 1 answer there, bit-identically
    // to direct serving.
    let doc = random_doc(&mut rng, 9);
    let healthy = router.infer_topics(doc.clone(), seeds[0]).unwrap();
    assert_eq!(
        bits(&reference.infer_topics(doc.clone(), seeds[0]).unwrap().theta),
        bits(&healthy.theta),
    );
    assert_eq!(router.router_stats().breaker_trips, 0);

    // Replica 1 dies. Each request aimed at it fails over at submit time,
    // and the FAILURE_THRESHOLD-th consecutive failure trips the breaker.
    dead.store(true, Ordering::SeqCst);
    for &seed in &seeds[1..=threshold] {
        let failed_over = router.infer_topics(doc.clone(), seed).unwrap();
        assert_eq!(
            bits(&reference.infer_topics(doc.clone(), seed).unwrap().theta),
            bits(&failed_over.theta),
            "failover changed the answer"
        );
    }
    let stats = router.router_stats();
    assert!(stats.breaker_trips >= 1, "breaker never tripped: {stats:?}");
    assert_eq!(
        stats.replica_health,
        vec![vec![true, false]],
        "tripped replica still reported admitted"
    );

    // Replica recovers; a health probe sees it and re-admits.
    dead.store(false, Ordering::SeqCst);
    let health = router.fleet_health();
    assert!(!health.degraded);
    assert!(
        health.shards[0][1].reachable && health.shards[0][1].admitted,
        "probe did not re-admit the recovered replica: {health:?}"
    );
    let stats = router.router_stats();
    assert!(
        stats.breaker_readmits >= 1,
        "re-admission not counted: {stats:?}"
    );
    assert_eq!(stats.replica_health, vec![vec![true, true]]);

    // And it serves again, still bit-identically.
    let recovered = router
        .infer_topics(doc.clone(), seeds[threshold + 1])
        .unwrap();
    assert_eq!(
        bits(
            &reference
                .infer_topics(doc.clone(), seeds[threshold + 1])
                .unwrap()
                .theta
        ),
        bits(&recovered.theta)
    );

    reference.shutdown();
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Regression: skew retries must honour the deadline
// ---------------------------------------------------------------------------

/// What a [`SkewTransport`] does to each reply before the router sees it.
#[derive(Debug, Clone, Copy)]
struct Script {
    /// Sleep this long before handing the reply over.
    pause: Duration,
    /// Rewrite the snapshot version to a fresh counter value for this long
    /// after the fleet's first submission, so a 2-shard fan-out observes
    /// version skew on every attempt — the publish storm (`Duration::MAX`)
    /// or one commit window (≈ 1 ms), on demand.
    skew_for: Duration,
    /// Topics appended to the partial: a shard serving another `K`.
    extra_topics: usize,
}

impl Script {
    const PERSISTENT_SKEW: Script = Script {
        pause: Duration::from_millis(5),
        skew_for: Duration::MAX,
        extra_topics: 0,
    };
}

/// A `LocalTransport` whose replies are rewritten by a [`Script`].
#[derive(Debug)]
struct SkewTransport {
    inner: LocalTransport,
    script: Script,
    version: Arc<AtomicU64>,
    first_submission: Arc<OnceLock<Instant>>,
}

#[derive(Debug)]
struct SkewPending {
    inner: <LocalTransport as ShardTransport>::Pending,
    script: Script,
    version: Arc<AtomicU64>,
    first_submission: Instant,
}

impl PendingPartial for SkewPending {
    fn wait(self, _deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        std::thread::sleep(self.script.pause);
        // Ignore the caller's deadline on the inner wait: the reply is
        // already computed, and the point of this mock is to prove the
        // DEADLINE error comes from the router's retry check, not the leg.
        self.inner.wait(None).map(|mut response| {
            if self.first_submission.elapsed() < self.script.skew_for {
                response.snapshot_version = self.version.fetch_add(1, Ordering::SeqCst);
            }
            let k = response.partial.counts.len() + self.script.extra_topics;
            response.partial.counts.resize(k, 0.0);
            response
        })
    }
}

impl ShardTransport for SkewTransport {
    type Pending = SkewPending;

    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        Ok(SkewPending {
            first_submission: *self.first_submission.get_or_init(Instant::now),
            inner: self.inner.submit_partial(words, request, deadline, trace)?,
            script: self.script,
            version: Arc::clone(&self.version),
        })
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        self.inner.top_words(k, n)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        self.inner.shard_info()
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        self.inner.observe_epoch()
    }

    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError> {
        self.inner.prepare_publish(slice, epoch)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        self.inner.commit_publish(epoch)
    }
}

/// A 2-shard router whose shard `s` replies through `scripts[s]`.
fn skew_router(scripts: [Script; 2]) -> ShardRouter<SkewTransport> {
    let model = random_model(31);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let snapshot = InferenceSnapshot::from_model(&model, cfg.sampler);
    let version = Arc::new(AtomicU64::new(100));
    let first_submission = Arc::new(OnceLock::new());
    let transports = plan
        .ranges()
        .zip(scripts)
        .map(|(range, script)| {
            let server = TopicServer::start(snapshot.shard(range.clone()), cfg).unwrap();
            SkewTransport {
                inner: LocalTransport::with_range(server, range),
                script,
                version: Arc::clone(&version),
                first_submission: Arc::clone(&first_submission),
            }
        })
        .collect::<Vec<_>>();
    ShardRouter::with_transports(plan, transports, cfg).unwrap()
}

#[test]
fn skew_retry_honours_the_deadline() {
    // Doc touching both shards, so every attempt sees two (always
    // different) versions.
    let doc: Vec<u32> = vec![1, 2, 31, 32];

    // Without a deadline the router exhausts its retries and reports skew
    // — the mock really does manufacture persistent skew.
    let router = skew_router([Script::PERSISTENT_SKEW; 2]);
    match router.infer_topics(doc.clone(), 0) {
        Err(ServeError::ShardVersionSkew) => {}
        other => panic!("expected ShardVersionSkew without a deadline, got {other:?}"),
    }
    assert_eq!(router.router_stats().skew_retries, 3);
    router.shutdown();

    // With a deadline that expires during the retries, the router must
    // fail with DeadlineExceeded — the bug reported exhausted-skew
    // instead, burning a full extra fan-out after the caller's budget was
    // already gone.
    let router = skew_router([Script::PERSISTENT_SKEW; 2]);
    match router.infer_with_deadline(doc, 0, Duration::from_millis(25)) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded past the deadline, got {other:?}"),
    }
    assert!(
        router.router_stats().skew_retries >= 1,
        "the deadline check must sit on the retry path, not before the first attempt"
    );
    router.shutdown();
}

#[test]
fn skew_retries_outlast_one_commit_window() {
    // Skew that clears 1.3 ms after the first submission: one two-phase
    // commit passing over the fleet. Four back-to-back fan-outs of this
    // tiny model can all fit inside it — the 503 from a healthy fleet that
    // benchmark/README.md documents — while the backed-off retries
    // (200 + 400 + 800 µs of pauses alone) always outlast it.
    let clearing = Script {
        pause: Duration::ZERO,
        skew_for: Duration::from_micros(1300),
        extra_topics: 0,
    };
    let router = skew_router([clearing; 2]);
    let answer = router
        .infer_with_deadline(vec![1, 2, 31, 32], 0, Duration::from_secs(5))
        .unwrap_or_else(|e| {
            panic!("skew that cleared within the retries failed the request: {e:?}")
        });
    assert_eq!(answer.theta.len(), K);
    let stats = router.router_stats();
    assert!(
        (1..=3).contains(&stats.skew_retries),
        "the window must cost at least one retry and at most all three: {stats:?}"
    );
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Regression: a partial over the wrong K is a 502 naming the shard, not a panic
// ---------------------------------------------------------------------------

#[test]
fn wrong_k_partial_is_a_transport_error_naming_the_shard() {
    // Shard 1 answers over K + 1 topics — republished with another K after
    // `validate_replica`, or another build. The merge's length assert used
    // to panic the caller's thread; it must be this request's 502 instead.
    let honest = Script {
        pause: Duration::ZERO,
        skew_for: Duration::ZERO,
        extra_topics: 0,
    };
    let wrong_k = Script {
        extra_topics: 1,
        ..honest
    };
    let router = skew_router([honest, wrong_k]);
    match router.infer_topics(vec![1, 2, 31, 32], 0) {
        Err(e @ ServeError::Transport { shard: Some(1), .. }) => {
            let text = e.to_string();
            assert!(text.contains("6 topics"), "{text}");
            assert!(
                text.contains("shard 1"),
                "the 502 must name the shard: {text}"
            );
        }
        other => panic!("expected a transport error naming shard 1, got {other:?}"),
    }
    // A document that stays on the honest shard is still answered.
    let answer = router.infer_topics(vec![1, 2, 3], 0).unwrap();
    assert_eq!(answer.theta.len(), K);
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Regression: transient transport failure costs one retry, not the request
// ---------------------------------------------------------------------------

/// First submission hands back a pending that fails its wait with a
/// transport error; every later submission is genuine. The shape of a
/// connection reset racing a reply.
#[derive(Debug)]
struct FailOnceTransport {
    inner: LocalTransport,
    submissions: AtomicU32,
}

#[derive(Debug)]
enum FailOncePending {
    Fail,
    Real(<LocalTransport as ShardTransport>::Pending),
}

impl PendingPartial for FailOncePending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        match self {
            FailOncePending::Fail => Err(injected_transport_error()),
            FailOncePending::Real(pending) => pending.wait(deadline),
        }
    }
}

impl ShardTransport for FailOnceTransport {
    type Pending = FailOncePending;

    fn submit_partial(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        if self.submissions.fetch_add(1, Ordering::SeqCst) == 0 {
            return Ok(FailOncePending::Fail);
        }
        Ok(FailOncePending::Real(
            self.inner.submit_partial(words, request, deadline, trace)?,
        ))
    }

    fn top_words(&self, k: usize, n: usize) -> Result<Vec<(u32, f32)>, ServeError> {
        self.inner.top_words(k, n)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        self.inner.shard_info()
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        self.inner.observe_epoch()
    }

    fn prepare_publish(&self, slice: InferenceSnapshot, epoch: u64) -> Result<(), ServeError> {
        self.inner.prepare_publish(slice, epoch)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        self.inner.commit_publish(epoch)
    }
}

#[test]
fn transient_transport_failure_costs_one_bounded_retry() {
    let model = random_model(41);
    let cfg = config(FoldInKind::Esca);
    let reference = TopicServer::from_model(&model, cfg).unwrap();
    let router = ShardRouter::with_transports(
        ShardPlan::single(VOCAB).unwrap(),
        vec![FailOnceTransport {
            inner: local_transport(&model, cfg),
            submissions: AtomicU32::new(0),
        }],
        cfg,
    )
    .unwrap();

    let doc: Vec<u32> = (0..12).map(|i| (i * 5 % VOCAB) as u32).collect();
    let seed = 2u64;
    let mut trace = TraceBuilder::new(TraceId::mint());
    let root = trace.begin(None, "ingress");
    let answer = router
        .infer_with_trace(doc.clone(), seed, Duration::from_secs(5), &mut trace, root)
        .unwrap_or_else(|e| panic!("a single transient failure dropped the request: {e:?}"));
    trace.end(root);
    let done = trace.finish();

    // Same bytes as if nothing had gone wrong (shard 0's derived seed is
    // the raw request seed, so direct serving is the reference).
    assert_eq!(derive_shard_seed(seed, 0), seed);
    let expected = reference.infer_topics(doc, seed).unwrap();
    assert_eq!(bits(&expected.theta), bits(&answer.theta));

    // Exactly one bounded retry, counted and traced.
    let stats = router.router_stats();
    assert_eq!(stats.transport_retries, 1, "{stats:?}");
    let events: Vec<&str> = done
        .spans
        .iter()
        .flat_map(|span| span.events.iter())
        .map(|event| event.message.as_str())
        .collect();
    assert!(
        events.contains(&"transport retry shard 0"),
        "retry not announced in the trace: {events:?}"
    );

    reference.shutdown();
    router.shutdown();
}

// ---------------------------------------------------------------------------
// Router-backed /healthz degrades when a range loses every replica
// ---------------------------------------------------------------------------

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_default()
        .to_string();
    (status, body)
}

#[test]
fn router_healthz_degrades_to_503_when_a_range_loses_every_replica() {
    let model = random_model(51);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::single(VOCAB).unwrap();
    let (mut fleet, sets) = spawn_replicated_fleet(&model, &plan, 2, cfg);
    let router = Arc::new(ShardRouter::with_replica_sets(plan, sets, cfg).unwrap());
    let front = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        None,
        HttpConfig::default(),
    )
    .unwrap();

    // Healthy: 200, and the body carries per-replica fleet health.
    let (status, body) = http_get(front.local_addr(), "/healthz");
    assert_eq!(status, 200, "healthy fleet: {body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(
        body.contains("\"fleet\":[[{\"reachable\":true,\"admitted\":true},{\"reachable\":true,\"admitted\":true}]]"),
        "{body}"
    );

    // One replica down: still serving, still 200 — that is the point of
    // replication.
    fleet[0][0].take().unwrap().shutdown();
    let (status, body) = http_get(front.local_addr(), "/healthz");
    assert_eq!(status, 200, "one live replica left is not degraded: {body}");
    assert!(body.contains("\"reachable\":false"), "{body}");

    // Every replica of the range down: degraded, 503 — the bug reported
    // 200 \"ok\" while the fleet could not answer a single request.
    fleet[0][1].take().unwrap().shutdown();
    assert!(router.fleet_health().degraded);
    let (status, body) = http_get(front.local_addr(), "/healthz");
    assert_eq!(status, 503, "dead fleet must fail the health check: {body}");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");

    front.shutdown();
    match Arc::try_unwrap(router) {
        Ok(router) => router.shutdown(),
        Err(_) => panic!("router still shared"),
    }
    shutdown_fleet(fleet);
}

// ---------------------------------------------------------------------------
// Loadgen chaos replay: kill a replica under load, drop nothing
// ---------------------------------------------------------------------------

#[test]
fn chaos_replay_kills_a_replica_and_drops_nothing() {
    let trace = synthesize_trace(&SyntheticSpec::small_test(), 60, 0xC0FFEE);
    let model = replay_model(trace.vocab_size() as usize, 8, 7).unwrap();
    let topology = Topology::ReplicatedShards {
        shards: 2,
        replicas: 2,
    };
    let replay_config = ReplayConfig {
        threads: 4,
        deadline: Duration::from_secs(10),
        collect_thetas: true,
    };
    let profile = RateProfile::Fixed { qps: 20_000.0 };

    let healthy = TopologyHandle::build(topology, &model, &ServeConfig::default()).unwrap();
    let baseline = replay(&healthy.backend(), &trace, &profile, &replay_config);
    healthy.shutdown();
    assert_eq!(baseline.ok, baseline.requests, "healthy replay dropped");

    let handle =
        Arc::new(TopologyHandle::build(topology, &model, &ServeConfig::default()).unwrap());
    let chaos = {
        let handle = Arc::clone(&handle);
        ChaosTrigger::new(20, move || {
            assert!(handle.kill_replica(0, 1), "kill target missing");
        })
    };
    let outcome = replay_with_chaos(
        &handle.backend(),
        &trace,
        &profile,
        &replay_config,
        Some(&chaos),
    );
    assert!(chaos.fired(), "chaos trigger never fired");
    drop(chaos);
    assert_eq!(
        outcome.ok, outcome.requests,
        "killing a replica mid-replay dropped requests: {outcome:?}"
    );

    let healthy_thetas = baseline.thetas.expect("collect_thetas");
    let chaos_thetas = outcome.thetas.expect("collect_thetas");
    for (i, (a, b)) in healthy_thetas.iter().zip(chaos_thetas.iter()).enumerate() {
        assert!(a.is_some(), "healthy request {i} has no θ");
        assert_eq!(
            a, b,
            "request {i}: θ changed when a replica died mid-replay"
        );
    }

    match Arc::try_unwrap(handle) {
        Ok(handle) => handle.shutdown(),
        Err(_) => panic!("topology handle still shared"),
    }
}
