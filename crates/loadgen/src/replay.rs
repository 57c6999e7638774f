//! Open-loop trace replay against the serving stack's three topologies.
//!
//! The replay engine is *open-loop*: request `i` is dispatched at its
//! scheduled offset whether or not earlier requests have completed, so an
//! overloaded backend accumulates queue wait (and sheds load as
//! [`ServeError::Overloaded`]) exactly as it would under real traffic,
//! instead of the harness politely slowing down and hiding the problem.
//!
//! Determinism: each request carries its trace seed into
//! [`InferenceBackend::infer_with_deadline`], and
//! [`derive_shard_seed`](saber_serve::derive_shard_seed) keeps shard 0's
//! seed equal to the raw seed — so the same trace replayed twice against
//! any topology, or against a direct server vs a one-shard router, yields
//! bit-identical θ. The differential suite in `tests/loadgen_replay.rs`
//! pins this.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_core::LdaModel;
use saber_serve::{
    HistogramSnapshot, HttpConfig, HttpServer, HttpTransport, InferenceBackend, InferenceSnapshot,
    LatencyHistogram, RequestRecorder, ServeConfig, ServeError, ShardPlan, ShardRouter,
    TopicServer,
};

use crate::trace::RequestTrace;

/// Which serving arrangement a replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One [`TopicServer`] called in process.
    Direct,
    /// A [`ShardRouter`] over `n` in-process shards
    /// ([`LocalTransport`](saber_serve::LocalTransport)).
    LocalShards(usize),
    /// A [`ShardRouter`] over `n` shards each behind its own HTTP listener
    /// on localhost TCP ([`HttpTransport`]) — real wire codecs end to end.
    RemoteShards(usize),
    /// [`Topology::RemoteShards`] with every plan range served by a
    /// replica set: `shards × replicas` HTTP listeners, each replica an
    /// identical slice behind its own [`HttpTransport`]. The topology
    /// survives [`TopologyHandle::kill_replica`] — the chaos knob the
    /// replicated differential suites drive.
    ReplicatedShards {
        /// Plan ranges (vocabulary shards).
        shards: usize,
        /// Replicas per range.
        replicas: usize,
    },
}

impl Topology {
    /// Stable label for progress lines and test messages (`direct`,
    /// `local-2`, `remote-2`, `replicated-2x2`, …).
    pub fn label(&self) -> String {
        match self {
            Topology::Direct => "direct".to_string(),
            Topology::LocalShards(n) => format!("local-{n}"),
            Topology::RemoteShards(n) => format!("remote-{n}"),
            Topology::ReplicatedShards { shards, replicas } => {
                format!("replicated-{shards}x{replicas}")
            }
        }
    }

    /// Parses a label of the form `direct`, `local:N`, `remote:N` or
    /// `replicated:SxR`.
    pub fn parse(s: &str) -> Option<Topology> {
        if s == "direct" {
            return Some(Topology::Direct);
        }
        let (kind, n) = s.split_once(':')?;
        if kind == "replicated" {
            let (shards, replicas) = n.split_once('x')?;
            let shards: usize = shards.parse().ok().filter(|&n| n > 0)?;
            let replicas: usize = replicas.parse().ok().filter(|&n| n > 0)?;
            return Some(Topology::ReplicatedShards { shards, replicas });
        }
        let n: usize = n.parse().ok().filter(|&n| n > 0)?;
        match kind {
            "local" => Some(Topology::LocalShards(n)),
            "remote" => Some(Topology::RemoteShards(n)),
            _ => None,
        }
    }
}

/// A live backend for one topology, plus whatever infrastructure keeps it
/// alive (the HTTP shard fleet for [`Topology::RemoteShards`] and
/// [`Topology::ReplicatedShards`]).
#[derive(Debug)]
pub struct TopologyHandle {
    backend: Arc<dyn InferenceBackend>,
    /// Shard listeners, `None` once killed by [`TopologyHandle::kill_replica`]
    /// (behind a mutex so chaos actions can fire mid-replay from any
    /// dispatcher thread).
    fleet: Mutex<Vec<Option<HttpServer>>>,
    /// `replica_slots[s][r]` is the `fleet` index of replica `r` of shard
    /// `s`; empty for in-process topologies.
    replica_slots: Vec<Vec<usize>>,
}

impl TopologyHandle {
    /// Builds the topology over `model` with uniform vocabulary shards.
    ///
    /// # Errors
    ///
    /// [`ServeError`] from server/router construction, or a transport
    /// connect failure for the remote fleet.
    pub fn build(
        topology: Topology,
        model: &LdaModel,
        config: &ServeConfig,
    ) -> Result<Self, ServeError> {
        match topology {
            Topology::Direct => {
                let server = Arc::new(TopicServer::from_model(model, *config)?);
                Ok(TopologyHandle {
                    backend: server,
                    fleet: Mutex::new(Vec::new()),
                    replica_slots: Vec::new(),
                })
            }
            Topology::LocalShards(n) => {
                let plan = ShardPlan::uniform(model.vocab_size(), n)?;
                let router = Arc::new(ShardRouter::from_model(model, plan, *config)?);
                Ok(TopologyHandle {
                    backend: router,
                    fleet: Mutex::new(Vec::new()),
                    replica_slots: Vec::new(),
                })
            }
            Topology::RemoteShards(n) => {
                let plan = ShardPlan::uniform(model.vocab_size(), n)?;
                let snapshot = InferenceSnapshot::from_model(model, config.sampler);
                let mut fleet = Vec::new();
                let mut replica_slots = Vec::new();
                let mut transports = Vec::new();
                for range in plan.ranges() {
                    let (http, transport) = bind_shard(&snapshot, range, config, fleet.len())?;
                    transports.push(transport);
                    replica_slots.push(vec![fleet.len()]);
                    fleet.push(Some(http));
                }
                let router = Arc::new(ShardRouter::with_transports(plan, transports, *config)?);
                Ok(TopologyHandle {
                    backend: router,
                    fleet: Mutex::new(fleet),
                    replica_slots,
                })
            }
            Topology::ReplicatedShards { shards, replicas } => {
                let plan = ShardPlan::uniform(model.vocab_size(), shards)?;
                let snapshot = InferenceSnapshot::from_model(model, config.sampler);
                let mut fleet = Vec::new();
                let mut replica_slots = Vec::new();
                let mut sets = Vec::new();
                for range in plan.ranges() {
                    let mut set = Vec::new();
                    let mut slots = Vec::new();
                    for _ in 0..replicas.max(1) {
                        let (http, transport) =
                            bind_shard(&snapshot, range.clone(), config, fleet.len())?;
                        set.push(transport);
                        slots.push(fleet.len());
                        fleet.push(Some(http));
                    }
                    sets.push(set);
                    replica_slots.push(slots);
                }
                let router = Arc::new(ShardRouter::with_replica_sets(plan, sets, *config)?);
                Ok(TopologyHandle {
                    backend: router,
                    fleet: Mutex::new(fleet),
                    replica_slots,
                })
            }
        }
    }

    /// The backend to replay against.
    pub fn backend(&self) -> Arc<dyn InferenceBackend> {
        Arc::clone(&self.backend)
    }

    /// The chaos knob: kills replica `r` of shard `s` by shutting its HTTP
    /// listener down mid-stream, exactly like a crashed shard process
    /// (in-flight exchanges fail with connection errors; the router's
    /// failover, retry and breaker paths take over). Returns `false` when
    /// the slot does not exist or was already killed. Safe to call from a
    /// [`ChaosTrigger`] while a replay is dispatching.
    pub fn kill_replica(&self, shard: usize, replica: usize) -> bool {
        let Some(&slot) = self.replica_slots.get(shard).and_then(|s| s.get(replica)) else {
            return false;
        };
        let server = {
            let mut fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
            fleet.get_mut(slot).and_then(Option::take)
        };
        match server {
            Some(http) => {
                http.shutdown();
                true
            }
            None => false,
        }
    }

    /// Tears the topology down, closing any shard listeners.
    pub fn shutdown(self) {
        drop(self.backend);
        let fleet = {
            let mut fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *fleet)
        };
        for http in fleet.into_iter().flatten() {
            http.shutdown();
        }
    }
}

/// Starts one shard slice behind its own HTTP listener and connects a
/// transport to it — one replica of one plan range.
fn bind_shard(
    snapshot: &InferenceSnapshot,
    range: std::ops::Range<u32>,
    config: &ServeConfig,
    slot: usize,
) -> Result<(HttpServer, HttpTransport), ServeError> {
    let shard = Arc::new(TopicServer::start(snapshot.shard(range.clone()), *config)?);
    let http = HttpServer::bind(
        "127.0.0.1:0",
        shard,
        None,
        HttpConfig {
            shard_range: Some((range.start, range.end)),
            ..HttpConfig::default()
        },
    )
    .map_err(|e| ServeError::Transport {
        detail: format!("binding shard listener: {e}"),
        shard: Some(slot),
        addr: Some("127.0.0.1:0".to_string()),
    })?;
    let transport = HttpTransport::connect(http.local_addr())?;
    Ok((http, transport))
}

/// How replay paces request dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProfile {
    /// Honour the offsets stored in the trace (what a recorder captured).
    AsRecorded,
    /// A fixed open-loop rate in requests per second.
    Fixed {
        /// Requests per second.
        qps: f64,
    },
    /// A linear ramp from one rate to another across the trace.
    Ramp {
        /// Rate at the first request.
        from_qps: f64,
        /// Rate at the last request.
        to_qps: f64,
    },
    /// A base rate with periodic bursts: every `period` requests, the next
    /// `burst_len` requests arrive at `burst_qps`.
    Burst {
        /// Steady-state rate.
        base_qps: f64,
        /// Rate inside a burst.
        burst_qps: f64,
        /// Requests per burst cycle.
        period: usize,
        /// Burst length at the start of each cycle.
        burst_len: usize,
    },
}

impl RateProfile {
    /// The dispatch offset (µs since replay start) of every request in
    /// `trace` under this profile. Offsets are non-decreasing.
    pub fn schedule(&self, trace: &RequestTrace) -> Vec<u64> {
        let n = trace.len();
        match self {
            RateProfile::AsRecorded => trace.requests().iter().map(|r| r.offset_micros).collect(),
            RateProfile::Fixed { qps } => {
                let gap = 1e6 / qps.max(f64::MIN_POSITIVE);
                (0..n).map(|i| (i as f64 * gap) as u64).collect()
            }
            RateProfile::Ramp { from_qps, to_qps } => {
                let mut offsets = Vec::with_capacity(n);
                let mut t = 0.0f64;
                for i in 0..n {
                    offsets.push(t as u64);
                    let frac = if n > 1 {
                        i as f64 / (n - 1) as f64
                    } else {
                        0.0
                    };
                    let qps = from_qps + (to_qps - from_qps) * frac;
                    t += 1e6 / qps.max(f64::MIN_POSITIVE);
                }
                offsets
            }
            RateProfile::Burst {
                base_qps,
                burst_qps,
                period,
                burst_len,
            } => {
                let period = (*period).max(1);
                let mut offsets = Vec::with_capacity(n);
                let mut t = 0.0f64;
                for i in 0..n {
                    offsets.push(t as u64);
                    let qps = if i % period < (*burst_len).min(period) {
                        *burst_qps
                    } else {
                        *base_qps
                    };
                    t += 1e6 / qps.max(f64::MIN_POSITIVE);
                }
                offsets
            }
        }
    }
}

/// Replay tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Dispatcher threads; request `i` is owned by thread `i % threads`.
    pub threads: usize,
    /// Per-request deadline handed to the backend.
    pub deadline: Duration,
    /// Collect every response's θ as `f32` bit patterns (for differential
    /// tests). Costs memory proportional to `requests × K`.
    pub collect_thetas: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            threads: 4,
            deadline: Duration::from_secs(5),
            collect_thetas: false,
        }
    }
}

/// What one replay run observed, measured from the load generator's side.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Requests dispatched.
    pub requests: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests shed with [`ServeError::Overloaded`] (backpressure).
    pub overloaded: u64,
    /// Requests that exceeded their deadline.
    pub deadline_exceeded: u64,
    /// Any other error.
    pub other_errors: u64,
    /// Tokens across successfully answered requests.
    pub tokens_ok: u64,
    /// Wall-clock time from first dispatch to last completion.
    pub wall: Duration,
    /// Loadgen-side latency (dispatch to reply) per request.
    pub latency: HistogramSnapshot,
    /// Per-request θ bit patterns (`Some` only for successful requests),
    /// indexed like the trace; `None` unless
    /// [`ReplayConfig::collect_thetas`].
    pub thetas: Option<Vec<Option<Vec<u32>>>>,
}

impl ReplayOutcome {
    /// Achieved completion rate in requests per second.
    pub fn achieved_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// Token throughput over successful requests.
    pub fn tokens_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.tokens_ok as f64 / secs
        } else {
            0.0
        }
    }
}

/// One line: counts, achieved rate and loadgen-side p50/p99 — what the
/// `replay` and `serve-train` subcommands print per run.
impl fmt::Display for ReplayOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ok / {} dispatched ({} overloaded, {} deadline, {} other) in {:.3} s: \
             {:.1} qps, {:.0} tokens/s, p50 {:.0} µs, p99 {:.0} µs",
            self.ok,
            self.requests,
            self.overloaded,
            self.deadline_exceeded,
            self.other_errors,
            self.wall.as_secs_f64(),
            self.achieved_qps(),
            self.tokens_per_second(),
            self.latency.p50().unwrap_or(0.0),
            self.latency.p99().unwrap_or(0.0),
        )
    }
}

/// A one-shot fault injected into a running replay: after
/// `after_requests` dispatches have completed, the action fires exactly
/// once on whichever dispatcher thread crosses the threshold (e.g.
/// [`TopologyHandle::kill_replica`] — a shard process dying mid-stream
/// while requests are still in flight).
pub struct ChaosTrigger {
    after_requests: u64,
    dispatched: AtomicU64,
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for ChaosTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosTrigger")
            .field("after_requests", &self.after_requests)
            .field("dispatched", &self.dispatched.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ChaosTrigger {
    /// Fires `action` once, after `after_requests` requests have been
    /// dispatched and answered.
    pub fn new(after_requests: u64, action: impl FnOnce() + Send + 'static) -> ChaosTrigger {
        ChaosTrigger {
            after_requests,
            dispatched: AtomicU64::new(0),
            action: Mutex::new(Some(Box::new(action))),
        }
    }

    /// Whether the trigger has fired yet.
    pub fn fired(&self) -> bool {
        self.action
            .lock()
            .map(|slot| slot.is_none())
            .unwrap_or(true)
    }

    /// Counts one completed dispatch and fires the action when the
    /// threshold is crossed.
    fn note_dispatch(&self) {
        let n = self.dispatched.fetch_add(1, Ordering::Relaxed) + 1;
        if n < self.after_requests {
            return;
        }
        let action = {
            let mut slot = self.action.lock().unwrap_or_else(|e| e.into_inner());
            slot.take()
        };
        if let Some(action) = action {
            action();
        }
    }
}

/// Replays `trace` against `backend` open-loop under `profile`.
///
/// Requests are partitioned round-robin across [`ReplayConfig::threads`]
/// dispatcher threads; each thread sleeps until a request's scheduled
/// offset, dispatches it synchronously, and records the observed latency.
/// Dispatch order within a thread follows trace order, so replays are
/// deterministic in *content* (θ per request) even though interleaving
/// across threads varies.
pub fn replay(
    backend: &Arc<dyn InferenceBackend>,
    trace: &RequestTrace,
    profile: &RateProfile,
    config: &ReplayConfig,
) -> ReplayOutcome {
    replay_with_chaos(backend, trace, profile, config, None)
}

/// [`replay`] with an optional [`ChaosTrigger`] injecting a fault
/// mid-stream — the path the replicated-fleet differential suites drive
/// (kill a replica after N requests, then prove θ never changed and
/// nothing dropped).
pub fn replay_with_chaos(
    backend: &Arc<dyn InferenceBackend>,
    trace: &RequestTrace,
    profile: &RateProfile,
    config: &ReplayConfig,
    chaos: Option<&ChaosTrigger>,
) -> ReplayOutcome {
    let schedule = profile.schedule(trace);
    let threads = config.threads.max(1);
    let latency = LatencyHistogram::new();
    let ok = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let other_errors = AtomicU64::new(0);
    let tokens_ok = AtomicU64::new(0);
    let thetas: Option<Mutex<Vec<Option<Vec<u32>>>>> = config
        .collect_thetas
        .then(|| Mutex::new(vec![None; trace.len()]));

    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let schedule = &schedule;
            let latency = &latency;
            let (ok, overloaded, deadline_exceeded, other_errors, tokens_ok) = (
                &ok,
                &overloaded,
                &deadline_exceeded,
                &other_errors,
                &tokens_ok,
            );
            let thetas = thetas.as_ref();
            let backend = Arc::clone(backend);
            let deadline = config.deadline;
            scope.spawn(move || {
                for (i, request) in trace.requests().iter().enumerate().skip(t).step_by(threads) {
                    let due = Duration::from_micros(schedule[i]);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let dispatched = Instant::now();
                    let result =
                        backend.infer_with_deadline(request.words.clone(), request.seed, deadline);
                    latency.record(dispatched.elapsed());
                    match result {
                        Ok(response) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            tokens_ok.fetch_add(request.words.len() as u64, Ordering::Relaxed);
                            if let Some(thetas) = thetas {
                                if let Ok(mut slots) = thetas.lock() {
                                    slots[i] =
                                        Some(response.theta.iter().map(|x| x.to_bits()).collect());
                                }
                            }
                        }
                        Err(ServeError::Overloaded) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::DeadlineExceeded) => {
                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            other_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(chaos) = chaos {
                        chaos.note_dispatch();
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    ReplayOutcome {
        requests: trace.len() as u64,
        ok: ok.into_inner(),
        overloaded: overloaded.into_inner(),
        deadline_exceeded: deadline_exceeded.into_inner(),
        other_errors: other_errors.into_inner(),
        tokens_ok: tokens_ok.into_inner(),
        wall,
        latency: latency.snapshot(),
        thetas: thetas.map(|m| m.into_inner().unwrap_or_default()),
    }
}

/// Drives the first `limit` requests of `trace` through a real HTTP
/// ingress with recording enabled, and returns the trace the
/// [`RequestRecorder`] captured there — word ids, seeds and true arrival
/// offsets as the server observed them.
///
/// This is the recorded-trace path end to end: requests travel over
/// localhost TCP as `POST /infer` with the seed in the JSON body, exactly
/// like external traffic, so the captured trace replays the same θ the
/// live answers carried.
///
/// # Errors
///
/// [`ServeError`] from server construction, or
/// [`ServeError::Transport`] when an HTTP exchange fails.
pub fn record_over_http(
    trace: &RequestTrace,
    model: &LdaModel,
    config: &ServeConfig,
    limit: usize,
) -> Result<RequestTrace, ServeError> {
    let recorder = Arc::new(RequestRecorder::new(limit.max(1)));
    let server = Arc::new(TopicServer::from_model(model, *config)?);
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        None,
        HttpConfig {
            recorder: Some(Arc::clone(&recorder)),
            ..HttpConfig::default()
        },
    )
    .map_err(|e| ServeError::Transport {
        detail: format!("binding recording listener: {e}"),
        shard: None,
        addr: Some("127.0.0.1:0".to_string()),
    })?;
    let addr = http.local_addr();
    let result = trace
        .requests()
        .iter()
        .take(limit)
        .try_for_each(|request| post_infer(addr, &request.words, request.seed));
    http.shutdown();
    result?;
    RequestTrace::from_recorded(trace.vocab_size(), recorder.drain()).map_err(|e| {
        ServeError::Internal {
            detail: format!("recorded requests failed trace validation: {e}"),
        }
    })
}

/// One blocking `POST /infer` over a fresh connection; succeeds on any
/// HTTP 200 reply.
fn post_infer(addr: SocketAddr, words: &[u32], seed: u64) -> Result<(), ServeError> {
    let transport_err = |detail: String| ServeError::Transport {
        detail,
        shard: None,
        addr: Some(addr.to_string()),
    };
    let mut body = String::from("{\"words\":[");
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&word.to_string());
    }
    body.push_str("],\"seed\":");
    body.push_str(&seed.to_string());
    body.push('}');
    let mut stream =
        TcpStream::connect(addr).map_err(|e| transport_err(format!("connect: {e}")))?;
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| transport_err(format!("send: {e}")))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| transport_err(format!("recv: {e}")))?;
    let head = String::from_utf8_lossy(&reply[..reply.len().min(64)]).into_owned();
    if head.starts_with("HTTP/1.1 200") || head.starts_with("HTTP/1.0 200") {
        Ok(())
    } else {
        Err(transport_err(format!(
            "non-200 reply to /infer: {}",
            head.lines().next().unwrap_or("<empty>")
        )))
    }
}

/// A dense random model sized for a trace: every word mixes topics, so
/// replay answers are sensitive to any bookkeeping error. Deterministic
/// per `(vocab_size, n_topics, seed)`.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] when the dimensions are rejected by
/// [`LdaModel::new`].
pub fn replay_model(vocab_size: usize, n_topics: usize, seed: u64) -> Result<LdaModel, ServeError> {
    let mut model =
        LdaModel::new(vocab_size, n_topics, 0.08, 0.01).map_err(|e| ServeError::InvalidConfig {
            detail: format!("replay model dimensions rejected: {e}"),
        })?;
    let mut rng = StdRng::seed_from_u64(seed);
    for v in 0..vocab_size {
        for k in 0..n_topics {
            model.word_topic_mut()[(v, k)] = rng.gen_range(0u32..20);
        }
        let hot = rng.gen_range(0usize..n_topics);
        model.word_topic_mut()[(v, hot)] += 5;
    }
    model.refresh_probabilities();
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_labels_roundtrip() {
        for t in [
            Topology::Direct,
            Topology::LocalShards(2),
            Topology::RemoteShards(3),
            Topology::ReplicatedShards {
                shards: 2,
                replicas: 3,
            },
        ] {
            let label = t.label();
            let back = Topology::parse(&label.replacen('-', ":", 1)).unwrap();
            assert_eq!(back, t);
        }
        assert_eq!(Topology::parse("local:0"), None);
        assert_eq!(Topology::parse("weird:2"), None);
        assert_eq!(Topology::parse("replicated:2x0"), None);
        assert_eq!(Topology::parse("replicated:2"), None);
    }

    #[test]
    fn outcome_displays_counts_rates_and_quantiles_on_one_line() {
        let latency = LatencyHistogram::new();
        latency.record(Duration::from_micros(200));
        let mut outcome = ReplayOutcome {
            requests: 4,
            ok: 2,
            overloaded: 1,
            deadline_exceeded: 1,
            other_errors: 0,
            tokens_ok: 100,
            wall: Duration::from_millis(500),
            latency: latency.snapshot(),
            thetas: None,
        };
        let line = outcome.to_string();
        assert!(
            line.starts_with(
                "2 ok / 4 dispatched (1 overloaded, 1 deadline, 0 other) in 0.500 s: \
                 4.0 qps, 200 tokens/s, p50 "
            ),
            "{line}"
        );
        assert!(!line.contains('\n'), "{line}");

        // A replay that took no measurable time (or answered nothing)
        // prints zero rates and quantiles, never NaN or inf.
        outcome.wall = Duration::ZERO;
        outcome.latency = HistogramSnapshot::default();
        let line = outcome.to_string();
        assert!(
            line.ends_with("in 0.000 s: 0.0 qps, 0 tokens/s, p50 0 µs, p99 0 µs"),
            "{line}"
        );
    }

    #[test]
    fn chaos_trigger_fires_exactly_once_at_the_threshold() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let chaos = ChaosTrigger::new(3, move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        chaos.note_dispatch();
        chaos.note_dispatch();
        assert!(!chaos.fired());
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        chaos.note_dispatch();
        assert!(chaos.fired());
        chaos.note_dispatch();
        assert_eq!(fired.load(Ordering::Relaxed), 1, "must fire exactly once");
    }

    #[test]
    fn schedules_are_monotone() {
        let spec = saber_corpus::synthetic::SyntheticSpec::small_test();
        let trace = crate::synth::synthesize_trace(&spec, 40, 1);
        for profile in [
            RateProfile::AsRecorded,
            RateProfile::Fixed { qps: 500.0 },
            RateProfile::Ramp {
                from_qps: 100.0,
                to_qps: 1000.0,
            },
            RateProfile::Burst {
                base_qps: 100.0,
                burst_qps: 2000.0,
                period: 10,
                burst_len: 3,
            },
        ] {
            let schedule = profile.schedule(&trace);
            assert_eq!(schedule.len(), trace.len());
            assert!(schedule.windows(2).all(|w| w[0] <= w[1]), "{profile:?}");
        }
    }

    #[test]
    fn ramp_accelerates() {
        let spec = saber_corpus::synthetic::SyntheticSpec::small_test();
        let trace = crate::synth::synthesize_trace(&spec, 100, 2);
        let schedule = RateProfile::Ramp {
            from_qps: 100.0,
            to_qps: 1000.0,
        }
        .schedule(&trace);
        let first_gap = schedule[1] - schedule[0];
        let last_gap = schedule[99] - schedule[98];
        assert!(first_gap > 5 * last_gap, "{first_gap} vs {last_gap}");
    }
}
