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
//! * **regression (wrong-K bug)**: a partial over another topic count than
//!   the fleet's is a transport error naming the shard, not a panic in the
//!   merge;
//! * **regression (transient-transport bug)**: one transient transport
//!   failure costs one bounded retry (counted, traced), not the request;
//! * the router-backed `GET /healthz` degrades to 503 when a plan range
//!   has lost every replica;
//! * a synthetic trace sent from four threads while a replica is killed
//!   after 20 answers drops nothing and answers θ bit-identically to the
//!   healthy fleet.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_loadgen::synthesize_trace;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    derive_replica_choice, derive_shard_seed, FoldInKind, HttpConfig, HttpServer, HttpTransport,
    InferenceSnapshot, LocalTransport, PartialRequest, PartialResponse, PendingPartial,
    ServeConfig, ServeError, ShardInfo, ShardPlan, ShardRouter, ShardTransport, TopicServer,
    FAILURE_THRESHOLD,
};
use saberlda::trace::{TraceBuilder, TraceContext, TraceId};
use saberlda::LdaModel;

mod common;
use common::{
    bits, config, linf, random_doc, random_model, send_requests, spawn_replicated_fleet, K, VOCAB,
};

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
        let model = random_model(VOCAB, K, 11);
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
    let model = random_model(VOCAB, K, 3);
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
    let model = random_model(VOCAB, K, 7);
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

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(injected_transport_error());
        }
        self.inner
            .submit_partial_pinned(words, request, epoch, deadline, trace)
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
    let model = random_model(VOCAB, K, 21);
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
// Regression: a partial over the wrong K is a 502 naming the shard, not a panic
// ---------------------------------------------------------------------------

/// A `LocalTransport` whose partials come back over `extra_topics` more
/// topics than the shard serves.
#[derive(Debug)]
struct ExtraTopicsTransport {
    inner: LocalTransport,
    extra_topics: usize,
}

#[derive(Debug)]
struct ExtraTopicsPending(<LocalTransport as ShardTransport>::Pending, usize);

impl PendingPartial for ExtraTopicsPending {
    fn wait(self, deadline: Option<Instant>) -> Result<PartialResponse, ServeError> {
        self.0.wait(deadline).map(|mut response| {
            let k = response.partial.counts.len() + self.1;
            response.partial.counts.resize(k, 0.0);
            response
        })
    }
}

impl ShardTransport for ExtraTopicsTransport {
    type Pending = ExtraTopicsPending;

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        let pending = self
            .inner
            .submit_partial_pinned(words, request, epoch, deadline, trace)?;
        Ok(ExtraTopicsPending(pending, self.extra_topics))
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
fn wrong_k_partial_is_a_transport_error_naming_the_shard() {
    // Shard 1 answers over K + 1 topics — republished with another K after
    // `validate_replica`, or another build. The merge's length assert used
    // to panic the caller's thread; it must be this request's 502 instead.
    let model = random_model(VOCAB, K, 31);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let snapshot = InferenceSnapshot::from_model(&model, cfg.sampler);
    let transports = plan
        .ranges()
        .zip([0, 1])
        .map(|(range, extra_topics)| {
            let server = TopicServer::start(snapshot.shard(range.clone()), cfg).unwrap();
            ExtraTopicsTransport {
                inner: LocalTransport::with_range(server, range),
                extra_topics,
            }
        })
        .collect();
    let router = ShardRouter::with_transports(plan, transports, cfg).unwrap();
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

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        if self.submissions.fetch_add(1, Ordering::SeqCst) == 0 {
            return Ok(FailOncePending::Fail);
        }
        let pending = self
            .inner
            .submit_partial_pinned(words, request, epoch, deadline, trace)?;
        Ok(FailOncePending::Real(pending))
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
    let model = random_model(VOCAB, K, 41);
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
    let model = random_model(VOCAB, K, 51);
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
// Chaos replay: kill a replica under load, drop nothing
// ---------------------------------------------------------------------------

/// A 2-range × 2-replica fleet over real TCP serving `model`, and its
/// router.
fn replicated_2x2(model: &LdaModel) -> (Vec<Vec<Option<HttpServer>>>, ShardRouter<HttpTransport>) {
    let cfg = ServeConfig::default();
    let plan = ShardPlan::uniform(model.vocab_size(), 2).unwrap();
    let (fleet, sets) = spawn_replicated_fleet(model, &plan, 2, cfg);
    (
        fleet,
        ShardRouter::with_replica_sets(plan, sets, cfg).unwrap(),
    )
}

#[test]
fn chaos_replay_kills_a_replica_and_drops_nothing() {
    let trace = synthesize_trace(&SyntheticSpec::small_test(), 60, 0xC0FFEE);
    let model = random_model(trace.vocab_size() as usize, 8, 7);

    let (healthy_fleet, healthy) = replicated_2x2(&model);
    let baseline = send_requests(&healthy, trace.requests(), None);
    healthy.shutdown();
    shutdown_fleet(healthy_fleet);
    assert!(baseline.iter().all(Result::is_ok), "healthy replay dropped");

    let (fleet, router) = replicated_2x2(&model);
    let fleet = Mutex::new(fleet);
    let fired = AtomicBool::new(false);
    let kill = || {
        let replica = fleet.lock().unwrap()[0][1].take();
        replica.expect("kill target missing").shutdown();
        fired.store(true, Ordering::SeqCst);
    };
    let outcome = send_requests(&router, trace.requests(), Some((20, Box::new(kill))));
    assert!(fired.load(Ordering::SeqCst), "chaos trigger never fired");
    let dropped: Vec<_> = outcome.iter().filter(|o| o.is_err()).collect();
    assert!(
        dropped.is_empty(),
        "killing a replica mid-replay dropped requests: {dropped:?}"
    );

    for (i, (a, b)) in baseline.iter().zip(outcome.iter()).enumerate() {
        assert!(a.is_ok(), "healthy request {i} has no θ");
        assert_eq!(
            a.as_ref().ok(),
            b.as_ref().ok(),
            "request {i}: θ changed when a replica died mid-replay"
        );
    }

    router.shutdown();
    shutdown_fleet(fleet.into_inner().unwrap());
}
