//! `serve_direct_longdoc` and `serve_fleet_shortdoc`: real `POST /infer`
//! over keep-alive loopback TCP against model M.
//!
//! Direct, long documents: fold-in is most of each request and the router
//! and transport do nothing. Fleet, short documents: fold-in is small and
//! three HTTP hops, the JSON codecs and the fan-out dominate. A change to
//! one side should show on its workload and barely on the other.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use saber_core::trees::WordSampler;
use saber_core::SaberLda;
use saber_corpus::Corpus;
use saber_serve::{
    derive_shard_seed, wire, HttpTransport, InferResponse, InferenceBackend, InferenceSnapshot,
    PartialRequest, PendingPartial, ShardRouter, ShardTransport,
};
use saber_trace::TraceContext;

use super::{sample_with_ns, Report, RunArgs, Setup, Traced};
use crate::inputs::{
    generate_inputs, heldout_perplexity, longdoc_spec, serve_config, shortdoc_spec, train_model_m,
    DirectServer, RemoteFleet, Requests, REFERENCE_DEADLINE,
};
use crate::loadgen::{
    closed_loop, fetch_replies, infer_body, open_loop, open_loop_count, same_bits, Lane,
    PhaseOutcome, HEALTHZ_REQUEST,
};
use crate::machine::{Machine, Seconds};
use crate::result::{peak_rss_mb, RunResult};
use crate::spans::SpanLog;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    Direct,
    Fleet,
}

impl Topology {
    /// The open-loop cruise rate, req/s: about a quarter of the closed-loop
    /// saturation measured at the commit that added the benchmark, so the
    /// queue is short now and a threefold slowdown still fits.
    fn cruise_rate(self) -> f64 {
        match self {
            Topology::Direct => 300.0,
            Topology::Fleet => 600.0,
        }
    }

    fn requests(self, seed: u64) -> Requests {
        match self {
            Topology::Direct => Requests::synthesize(&longdoc_spec(), 1000, 4000, seed),
            Topology::Fleet => Requests::synthesize(&shortdoc_spec(), 3000, 6000, seed),
        }
    }
}

/// Share of `--seconds` each phase of the untraced run takes, over all
/// rounds.
const CRUISE_SHARE: f64 = 0.60;
const SAT_SHARE: f64 = 0.35;
/// An untraced run is this many rounds of boot → warm-up → cruise → sat on
/// a freshly booted system. Under the sat load a long-lived fleet falls,
/// for seconds at a time, into a state where the same clients get two
/// thirds of the throughput (its many threads settle on the two vCPUs
/// badly); a fresh boot starts over, so the rounds are independent and
/// their median throughput ignores the odd slow one.
const ROUNDS: usize = 6;
/// A `--quick` run only has to show that a re-boot works.
const QUICK_ROUNDS: usize = 2;
const ROUND_WARMUP: Duration = Duration::from_millis(250);
/// Sender threads and keep-alive connections of the open-loop phases: the
/// machine has two vCPUs.
const LANES: usize = 2;
/// Closed-loop clients of the sat phase. Two clients leave a two-worker
/// server waiting on client round trips, so their throughput is the inverse
/// of a chain of thread wake-ups; eight keep both vCPUs busy, and the
/// throughput is the servers' capacity.
const SAT_CLIENTS: usize = 8;

/// Model M, its snapshot and the system serving it.
struct Served {
    held_out: Corpus,
    trainer: SaberLda,
    snapshot: InferenceSnapshot,
    requests: Requests,
}

enum System {
    Direct(DirectServer),
    Fleet(RemoteFleet),
}

impl System {
    fn boot(topology: Topology, snapshot: &InferenceSnapshot) -> System {
        match topology {
            Topology::Direct => System::Direct(DirectServer::boot(snapshot.clone())),
            Topology::Fleet => System::Fleet(RemoteFleet::boot(snapshot)),
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            System::Direct(s) => s.addr(),
            System::Fleet(f) => f.addr(),
        }
    }
}

/// The traced run's set-up: spans around the layers it calls.
fn boot(args: &RunArgs, topology: Topology, log: &mut SpanLog) -> (Served, System) {
    let inputs = log.time("corpus.generate", None, 0, || generate_inputs(args.seed));
    let trainer = train_model_m(&inputs.corpus, args.model_m_iterations());
    let snapshot = log.time("serve.snapshot.from_model", None, 0, || {
        InferenceSnapshot::from_model(trainer.model(), serve_config().sampler)
    });
    let system = System::boot(topology, &snapshot);
    let served = Served {
        held_out: inputs.held_out,
        trainer,
        snapshot,
        requests: topology.requests(args.seed),
    };
    (served, system)
}

/// The in-process reference the HTTP answers must match bit for bit:
/// the served `TopicServer` itself for direct, a `ShardRouter` over
/// in-process shards cut by the same plan for the fleet.
fn reference_answers(
    served: &Served,
    system: &System,
    indices: &[usize],
) -> Result<Vec<InferResponse>, String> {
    let ask = |backend: &dyn InferenceBackend| {
        indices
            .iter()
            .map(|&i| {
                backend
                    .infer_with_deadline(
                        served.requests.words[i].clone(),
                        served.requests.seeds[i],
                        REFERENCE_DEADLINE,
                    )
                    .map_err(|e| format!("reference request {i}: {e}"))
            })
            .collect()
    };
    match system {
        System::Direct(direct) => ask(direct.server.as_ref()),
        System::Fleet(fleet) => {
            let local =
                ShardRouter::start(served.snapshot.clone(), fleet.plan.clone(), serve_config())
                    .map_err(|e| format!("in-process reference fleet: {e}"))?;
            ask(&local)
        }
    }
}

fn check_bit_identical(report: &mut Report, served: &Served, system: &System) {
    let indices = served.requests.checked_indices();
    let outcome =
        fetch_replies(system.addr(), &served.requests.bytes, &indices).and_then(|replies| {
            let references = reference_answers(served, system, &indices)?;
            let matching = replies
                .iter()
                .zip(&references)
                .filter(|((theta, version), reference)| {
                    *version == reference.snapshot_version && same_bits(theta, &reference.theta)
                })
                .count();
            Ok((matching, indices.len()))
        });
    match outcome {
        Ok((matching, n)) => report.check(
            "theta_bit_identical_to_in_process_reference",
            matching == n,
            format!("{matching} of {n} sampled HTTP answers carry the reference's f32 bits"),
        ),
        Err(e) => report.check("theta_bit_identical_to_in_process_reference", false, e),
    }
}

/// What one round of the untraced run measured, with the machine's
/// slowdown around each phase.
struct Round {
    boot: Seconds,
    cruise: PhaseOutcome,
    cruise_slowdown: f64,
    sat: PhaseOutcome,
    sat_slowdown: f64,
}

pub fn run(args: &RunArgs, machine: &mut Machine, topology: Topology) -> RunResult {
    let mut report = Report::new();
    let mut setup = Setup::default();
    let inputs = setup.step(machine, || generate_inputs(args.seed));
    let trainer = setup.model_m(machine, args, &inputs.corpus);
    let served = setup.step(machine, || Served {
        snapshot: InferenceSnapshot::from_model(trainer.model(), serve_config().sampler),
        requests: topology.requests(args.seed),
        held_out: inputs.held_out,
        trainer,
    });
    let bytes = &served.requests.bytes;
    let tokens = served.requests.token_counts();
    let rate = topology.cruise_rate();
    let n_rounds = if args.quick { QUICK_ROUNDS } else { ROUNDS };
    let share = |share: f64| share * args.seconds / n_rounds as f64;
    let segment_count = open_loop_count(rate, share(CRUISE_SHARE));

    // Connections are opened by each phase before its clock starts.
    let mut rounds = Vec::with_capacity(n_rounds);
    let mut warmup = PhaseOutcome::default();
    for round in 0..n_rounds {
        let first = round * segment_count;
        let (system, boot) = machine.timed(|| System::boot(topology, &served.snapshot));
        let addr = system.addr();
        warmup.extend(
            closed_loop(addr, bytes, first, LANES, ROUND_WARMUP)
                .expect("the listener accepts loopback connections"),
        );
        let (cruise, cruise_slow) = machine.around(|| {
            open_loop(addr, bytes, first, segment_count, rate, LANES, &|| false)
                .expect("the listener accepts loopback connections")
        });
        let (sat, sat_slow) = machine.around(|| {
            let duration = Duration::from_secs_f64(share(SAT_SHARE));
            closed_loop(addr, bytes, first, SAT_CLIENTS, duration)
                .expect("the listener accepts loopback connections")
        });
        if round + 1 == n_rounds {
            check_bit_identical(&mut report, &served, &system);
        }
        rounds.push(Round {
            boot,
            cruise,
            cruise_slowdown: cruise_slow.serving(),
            sat,
            sat_slowdown: sat_slow.serving(),
        });
    }
    let perplexity = heldout_perplexity(served.trainer.model(), &served.held_out, args.seed);

    // Set-up is what ran once plus one boot, the median of the rounds'.
    let over_rounds =
        |pick: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(pick).collect::<Vec<_>>());
    let boot_s = over_rounds(&|r| r.boot.corrected);
    report.set_corrected(
        "setup_s",
        setup.spent.corrected + boot_s,
        setup.spent.raw + over_rounds(&|r| r.boot.raw),
    );
    // Every latency is divided by the slowdown around its round; the
    // percentiles are over all corrected samples.
    let mut cruise = PhaseOutcome::default();
    let mut sat = PhaseOutcome::default();
    let corrected_latencies = stats::sorted(
        &rounds
            .iter()
            .flat_map(|r| {
                let slowdown = r.cruise_slowdown;
                r.cruise
                    .latencies_us()
                    .into_iter()
                    .map(move |l| l / slowdown)
            })
            .collect::<Vec<_>>(),
    );
    let corrected_percentile = |q: f64| stats::percentile(&corrected_latencies, q);
    // Saturation is the median round: a round that fell into the slow
    // state does not count.
    let sat_corrected = over_rounds(&|r| r.sat.tokens_per_s(&tokens) * r.sat_slowdown);
    for round in rounds {
        cruise.extend(round.cruise);
        sat.extend(round.sat);
    }
    for (name, outcome) in [("warmup", &warmup), ("cruise", &cruise), ("sat", &sat)] {
        report.phase(name, outcome.attempted(), outcome.failed());
    }
    let latencies = cruise.latencies_us();
    let (late_p99, late_max) = report.lateness(&cruise);
    report.set_corrected(
        "op_p50_us",
        corrected_percentile(0.5),
        stats::percentile(&latencies, 0.5),
    );
    report.diagnostic("op_p95_us", corrected_percentile(0.95), "us");
    report.diagnostic("infer_p99_us", corrected_percentile(0.99), "us");
    report.set_corrected("tokens_per_s", sat_corrected, sat.tokens_per_s(&tokens));
    report.set("heldout_perplexity", perplexity);
    report.set("peak_rss_mb", peak_rss_mb());
    report.diagnostic("boot_s", boot_s, "s");
    report.diagnostic("cruise_rate", rate, "1/s");
    report.diagnostic("cruise_samples", latencies.len() as f64, "count");
    report.diagnostic(
        "sat_requests_per_s",
        (sat.attempted() - sat.failed()) as f64 / sat.wall.as_secs_f64(),
        "1/s",
    );
    report.diagnostic(
        "mean_request_tokens",
        served.requests.mean_tokens(),
        "count",
    );
    report.diagnostic("loadgen.late_p99_us", late_p99, "us");
    report.diagnostic("loadgen.max_late_us", late_max, "us");
    report.machine(machine);
    report.finish_end_to_end(args)
}

/// `sample_with` cost on model-M rows (every 16th word's sampler).
fn tree_sample_ns(trainer: &SaberLda) -> f64 {
    let model = trainer.model();
    let samplers: Vec<WordSampler> = (0..model.vocab_size())
        .step_by(16)
        .map(|v| WordSampler::build(trainer.config().preprocess, model.word_topic_prob().row(v)))
        .collect();
    sample_with_ns(&samplers)
}

/// The highest rate of a fixed 1.25× ladder above the cruise rate that
/// keeps p95 ≤ 10 ms with no failure and no growing backlog (the last
/// tenth of its sends no more than 10 ms late).
fn slo_ladder(args: &RunArgs, addr: SocketAddr, bytes: &[Vec<u8>], base_rate: f64) -> f64 {
    const SLO_P95_US: f64 = 10_000.0;
    const STEPS: i32 = 6;
    let step_seconds = 0.075 * args.seconds;
    let mut passed = 0.0;
    for step in 1..=STEPS {
        let rate = base_rate * 1.25f64.powi(step);
        let count = open_loop_count(rate, step_seconds);
        let Ok(outcome) = open_loop(
            addr,
            bytes,
            step as usize * 997,
            count,
            rate,
            LANES,
            &|| false,
        ) else {
            break;
        };
        let latencies = outcome.latencies_us();
        let tail_from = count - count / 10 - 1;
        let backlog = outcome
            .samples
            .iter()
            .filter(|s| s.order >= tail_from)
            .map(|s| s.late_us)
            .fold(0.0, f64::max);
        let ok = outcome.failed() == 0
            && stats::percentile(&latencies, 0.95) <= SLO_P95_US
            && backlog <= SLO_P95_US;
        if !ok {
            break;
        }
        passed = rate;
    }
    passed
}

/// The calls into one layer: each is a span in the log and a duration
/// here, so the layer's median needs no pass over the log.
struct LayerTimes {
    name: &'static str,
    micros: Vec<f64>,
}

impl LayerTimes {
    fn new(name: &'static str) -> Self {
        LayerTimes {
            name,
            micros: Vec::new(),
        }
    }

    /// Times `work` as a span of request `id`; returns its result and its
    /// duration in microseconds without recording the duration.
    fn span<R>(&self, log: &mut SpanLog, id: usize, work: impl FnOnce() -> R) -> (R, f64) {
        let span = log.begin(self.name, None, id as u64);
        let result = work();
        log.end(span);
        (result, log.spans()[span].duration_ns() as f64 / 1e3)
    }

    fn time<R>(&mut self, log: &mut SpanLog, id: usize, work: impl FnOnce() -> R) -> R {
        let (result, micros) = self.span(log, id, work);
        self.micros.push(micros);
        result
    }

    fn p50(&self) -> f64 {
        stats::median(&self.micros)
    }
}

/// The passes run block by block — every layer over requests 0‥n/4, then
/// every layer over the next quarter — so that a slow drift of the machine
/// (frequency, a noisy neighbour) lands on all layers alike and cancels in
/// the differences that define the self times.
const BLOCKS: usize = 4;

fn blocks(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..BLOCKS).map(move |b| b * n / BLOCKS..(b + 1) * n / BLOCKS)
}

/// One shard leg of a routed request: shard, shard-local words, shard seed.
type Leg = (usize, Vec<u32>, u64);

/// The legs the router fans request `i` out to; the slowest sets the
/// answer's time.
fn legs_of(fleet: &RemoteFleet, requests: &Requests, i: usize) -> Vec<Leg> {
    fleet
        .plan
        .split(&requests.words[i])
        .expect("trace words are in vocabulary")
        .into_iter()
        .enumerate()
        .filter(|(_, shard_words)| !shard_words.is_empty())
        .map(|(s, shard_words)| (s, shard_words, derive_shard_seed(requests.seeds[i], s)))
        .collect()
}

pub fn trace(args: &RunArgs, topology: Topology) -> Traced {
    let mut report = Report::new();
    let mut log = SpanLog::new();
    let (served, system) = boot(args, topology, &mut log);
    let addr = system.addr();
    let requests = &served.requests;
    let params = serve_config().fold_in;
    let n = args.scaled(25.0, 20).min(requests.len());
    let mut lane = Lane::connect(addr).expect("the listener accepts loopback connections");
    // `/healthz` on a router probes its shards; the transport floor of one
    // hop is a plain listener's, so the fleet asks a shard's.
    let floor_addr = match &system {
        System::Direct(direct) => direct.addr(),
        System::Fleet(fleet) => fleet.shard_https[0].local_addr(),
    };
    let mut floor_lane =
        Lane::connect(floor_addr).expect("the listener accepts loopback connections");
    let backend: &dyn InferenceBackend = match &system {
        System::Direct(direct) => direct.server.as_ref(),
        System::Fleet(fleet) => fleet.router.as_ref(),
    };
    let bodies: Vec<String> = (0..n)
        .map(|i| infer_body(&requests.words[i], requests.seeds[i]))
        .collect();

    let mut fold_in = LayerTimes::new("core.infer.fold_in");
    let mut http = LayerTimes::new("serve.http.infer");
    let mut healthz = LayerTimes::new("serve.http.healthz");
    let mut backend_call = LayerTimes::new(match topology {
        Topology::Direct => "serve.server.infer",
        Topology::Fleet => "serve.router.remote_infer",
    });
    let mut decode = LayerTimes::new("serve.wire.decode_infer");
    let mut encode = LayerTimes::new("serve.wire.encode_infer_response");
    let mut fleet_layers = FleetLayers::new();
    let mut body = Vec::new();
    let (mut failed, mut response_bytes) = (0u64, 0usize);
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);

    // The same n requests through each nested layer, one at a time.
    for block in blocks(n) {
        for i in block.clone() {
            fold_in.time(&mut log, i, || {
                std::hint::black_box(served.snapshot.infer_topics(
                    &requests.words[i],
                    requests.seeds[i],
                    params,
                ))
            });
        }
        // Plain clock reads first, then the same pass under span
        // recording: the difference is what recording costs.
        let started = Instant::now();
        for i in block.clone() {
            failed += u64::from(lane.exchange(&requests.bytes[i], &mut body).ok() != Some(200));
        }
        untraced_wall += started.elapsed().as_secs_f64();
        let started = Instant::now();
        for i in block.clone() {
            let status = http.time(&mut log, i, || lane.exchange(&requests.bytes[i], &mut body));
            failed += u64::from(status.ok() != Some(200));
            response_bytes += body.len();
        }
        traced_wall += started.elapsed().as_secs_f64();
        for i in block.clone() {
            healthz.time(&mut log, i, || {
                let _ = floor_lane.exchange(HEALTHZ_REQUEST, &mut body);
            });
        }
        for i in block.clone() {
            // The handler owns the words it passes down; so does this call.
            let words = requests.words[i].clone();
            let answer = backend_call.time(&mut log, i, || {
                backend
                    .infer_with_deadline(words, requests.seeds[i], REFERENCE_DEADLINE)
                    .expect("an in-process request with a 30 s deadline is answered")
            });
            decode.time(&mut log, i, || {
                std::hint::black_box(
                    wire::decode_infer(&bodies[i]).expect("the benchmark's own body decodes"),
                )
            });
            encode.time(&mut log, i, || {
                std::hint::black_box(
                    wire::encode_infer_response(&answer, requests.seeds[i]).to_string(),
                )
            });
        }
        if let System::Fleet(fleet) = &system {
            fleet_layers.run_block(&mut log, &served, fleet, block);
        }
    }
    report.phase("http_infer", 2 * n as u64, failed);

    let (fold_in_us, rtt_us, backend_us) = (fold_in.p50(), http.p50(), backend_call.p50());
    let wire_us = decode.p50() + encode.p50();
    report.set("core.infer.fold_in_us", fold_in_us);
    report.set(
        "core.infer.ns_per_token_sweep",
        fold_in_us * 1e3 / (requests.mean_tokens() * params.total_sweeps() as f64),
    );
    report.set("core.trees.sample_ns", tree_sample_ns(&served.trainer));
    report.set(
        "serve.snapshot.bytes",
        served.snapshot.memory_bytes() as f64,
    );
    report.set("serve.wire.decode_infer_us", decode.p50());
    report.set("serve.wire.encode_infer_response_us", encode.p50());
    report.set(
        "serve.wire.request_bytes",
        bodies.iter().map(String::len).sum::<usize>() as f64 / n as f64,
    );
    report.set(
        "serve.wire.response_bytes",
        response_bytes as f64 / n as f64,
    );
    report.set("serve.http.infer_rtt_us", rtt_us);
    report.set("serve.http.healthz_rtt_us", healthz.p50());
    report.set("serve.http.self_us", rtt_us - backend_us - wire_us);
    report.set("trace_overhead_share", traced_wall / untraced_wall - 1.0);

    match &system {
        System::Direct(direct) => {
            report.set("serve.server.infer_us", backend_us);
            report.set("serve.server.self_us", backend_us - fold_in_us);
            let stats = direct.server.stats();
            report.set(
                "serve.server.queue_wait_mean_us",
                stats.queue_wait.mean_micros().unwrap_or(0.0),
            );
            report.set("serve.server.mean_batch_size", stats.mean_batch_size());
            report.set("serve.http.errors", direct.http.stats().errors as f64);
            // Every part measured on its own, the hop by its floor.
            report.diagnostic(
                "reconciled_share_of_rtt",
                (backend_us + wire_us + healthz.p50()) / rtt_us,
                "share",
            );
        }
        System::Fleet(fleet) => {
            fleet_layers.report(&mut report, fleet, backend_us);
            // Front hop, codecs, router, and the slowest leg's own hop
            // (which contains the shard server), each measured on its own.
            report.diagnostic(
                "reconciled_share_of_rtt",
                (healthz.p50() + wire_us + fleet_layers.local_infer.p50()
                    - fleet_layers.server_partial.p50()
                    + fleet_layers.transport_partial.p50())
                    / rtt_us,
                "share",
            );
        }
    }
    for (span, metric) in [
        ("corpus.generate", "corpus.generate_s"),
        ("serve.snapshot.from_model", "serve.snapshot.from_model_s"),
    ] {
        report.set(metric, log.durations_s(span).iter().sum());
    }

    // A short cruise for the generator's own numbers, then the ladder.
    let rate = topology.cruise_rate();
    let count = open_loop_count(rate, 0.2 * args.seconds);
    let cruise = open_loop(addr, &requests.bytes, 0, count, rate, LANES, &|| false)
        .expect("the listener accepts loopback connections");
    report.phase("cruise", cruise.attempted(), cruise.failed());
    let (late_p99, late_max) = report.lateness(&cruise);
    report.set("loadgen.late_p99_us", late_p99);
    report.set("loadgen.max_late_us", late_max);
    let cruise_latencies = cruise.latencies_us();
    report.set("infer_p95_us", stats::percentile(&cruise_latencies, 0.95));
    report.set("infer_p99_us", stats::percentile(&cruise_latencies, 0.99));
    report.set("serve.server.overloaded", cruise.overloaded() as f64);
    report.set(
        "infer_slo_qps",
        slo_ladder(args, addr, &requests.bytes, rate),
    );
    check_bit_identical(&mut report, &served, &system);
    Traced {
        result: report.finish_per_layer(args),
        spans: log,
    }
}

/// The layers only the fleet has: router, transport, partial codecs and
/// the shard servers behind them.
struct FleetLayers {
    /// Built on first use: an in-process router over the same plan, the
    /// shard slices, and a transport of the benchmark's own to each shard.
    parts: Option<FleetParts>,
    shard_s: f64,
    local_infer: LayerTimes,
    split: LayerTimes,
    partial_fold_in: LayerTimes,
    server_partial: LayerTimes,
    transport_partial: LayerTimes,
    codecs: [LayerTimes; 4],
}

struct FleetParts {
    local: ShardRouter,
    slices: Vec<InferenceSnapshot>,
    transports: Vec<HttpTransport>,
}

impl FleetLayers {
    fn new() -> Self {
        FleetLayers {
            parts: None,
            shard_s: 0.0,
            local_infer: LayerTimes::new("serve.router.local_infer"),
            split: LayerTimes::new("serve.router.split"),
            partial_fold_in: LayerTimes::new("core.infer.partial_fold_in"),
            server_partial: LayerTimes::new("serve.server.infer_partial"),
            transport_partial: LayerTimes::new("serve.transport.partial"),
            codecs: [
                LayerTimes::new("serve.wire.encode_partial_request"),
                LayerTimes::new("serve.wire.decode_partial_request"),
                LayerTimes::new("serve.wire.encode_partial_response"),
                LayerTimes::new("serve.wire.decode_partial_response"),
            ],
        }
    }

    fn run_block(
        &mut self,
        log: &mut SpanLog,
        served: &Served,
        fleet: &RemoteFleet,
        block: std::ops::Range<usize>,
    ) {
        let requests = &served.requests;
        let params = serve_config().fold_in;
        let parts = self.parts.get_or_insert_with(|| {
            let started = Instant::now();
            let slices: Vec<InferenceSnapshot> = fleet
                .plan
                .ranges()
                .map(|range| served.snapshot.shard(range))
                .collect();
            self.shard_s = started.elapsed().as_secs_f64();
            FleetParts {
                local: ShardRouter::start(
                    served.snapshot.clone(),
                    fleet.plan.clone(),
                    serve_config(),
                )
                .expect("the plan covers the snapshot"),
                slices,
                transports: fleet
                    .shard_https
                    .iter()
                    .map(|http| {
                        HttpTransport::connect(http.local_addr())
                            .expect("a loopback address resolves")
                    })
                    .collect(),
            }
        });

        for i in block.clone() {
            let words = requests.words[i].clone();
            self.local_infer.time(log, i, || {
                parts
                    .local
                    .infer_with_deadline(words, requests.seeds[i], REFERENCE_DEADLINE)
                    .expect("an in-process request with a 30 s deadline is answered")
            });
            self.split.time(log, i, || {
                std::hint::black_box(
                    fleet
                        .plan
                        .split(&requests.words[i])
                        .expect("trace words are in vocabulary"),
                )
            });
        }
        // One leg at a time; per request the slowest leg is what counts.
        for i in block.clone() {
            let mut slowest = 0.0f64;
            for (s, words, seed) in legs_of(fleet, requests, i) {
                let ((), us) = self.partial_fold_in.span(log, i, || {
                    std::hint::black_box(parts.slices[s].partial_fold_in(&words, seed, params));
                });
                slowest = slowest.max(us);
            }
            self.partial_fold_in.micros.push(slowest);
        }
        for i in block.clone() {
            let mut slowest = 0.0f64;
            let mut first_leg = true;
            for (s, words, seed) in legs_of(fleet, requests, i) {
                let request = PartialRequest::FoldIn { seed };
                let leg_words = words.clone();
                let (partial, us) = self.server_partial.span(log, i, || {
                    fleet.shard_servers[s]
                        .infer_partial(leg_words, request.clone())
                        .expect("a shard answers an in-vocabulary partial")
                });
                slowest = slowest.max(us);
                if std::mem::take(&mut first_leg) {
                    // The four partial codecs, on the first leg's messages.
                    let range = fleet.plan.range(s);
                    let [encode_request, decode_request, encode_response, decode_response] =
                        &mut self.codecs;
                    let request_body = encode_request.time(log, i, || {
                        wire::encode_partial_request(&words, &request).to_string()
                    });
                    decode_request.time(log, i, || {
                        std::hint::black_box(
                            wire::decode_partial_request(&request_body)
                                .expect("an encoded partial request decodes"),
                        )
                    });
                    let response_body = encode_response.time(log, i, || {
                        wire::encode_partial_response(&partial, (range.start, range.end))
                            .to_string()
                    });
                    decode_response.time(log, i, || {
                        std::hint::black_box(
                            wire::decode_partial_response(&response_body)
                                .expect("an encoded partial response decodes"),
                        )
                    });
                }
            }
            self.server_partial.micros.push(slowest);
        }
        for i in block {
            let mut slowest = 0.0f64;
            for (s, words, seed) in legs_of(fleet, requests, i) {
                let ((), us) = self.transport_partial.span(log, i, || {
                    parts.transports[s]
                        .submit_partial(
                            words,
                            PartialRequest::FoldIn { seed },
                            None,
                            TraceContext::disabled(),
                        )
                        .and_then(|pending| pending.wait(None))
                        .map(drop)
                        .expect("a shard answers an in-vocabulary partial over HTTP")
                });
                slowest = slowest.max(us);
            }
            self.transport_partial.micros.push(slowest);
        }
    }

    fn report(&self, report: &mut Report, fleet: &RemoteFleet, remote_infer_us: f64) {
        let (local_infer_us, server_partial_us) =
            (self.local_infer.p50(), self.server_partial.p50());
        report.set("serve.snapshot.shard_s", self.shard_s);
        report.set("serve.server.infer_us", server_partial_us);
        report.set(
            "serve.server.self_us",
            server_partial_us - self.partial_fold_in.p50(),
        );
        report.set(
            "serve.wire.partial_codec_us",
            self.codecs.iter().map(LayerTimes::p50).sum(),
        );
        report.set("serve.router.local_infer_us", local_infer_us);
        report.set("serve.router.self_us", local_infer_us - server_partial_us);
        report.set("serve.router.split_us", self.split.p50());
        report.set(
            "serve.transport.partial_rtt_us",
            self.transport_partial.p50(),
        );
        report.set("serve.transport.self_us", remote_infer_us - local_infer_us);
        report.router_counters(&fleet.router.router_stats());
        let mut shard_stats = fleet.shard_servers[0].stats();
        for server in &fleet.shard_servers[1..] {
            shard_stats.merge(&server.stats());
        }
        report.set(
            "serve.server.queue_wait_mean_us",
            shard_stats.queue_wait.mean_micros().unwrap_or(0.0),
        );
        report.set(
            "serve.server.mean_batch_size",
            shard_stats.mean_batch_size(),
        );
        let errors = fleet.front.stats().errors
            + fleet
                .shard_https
                .iter()
                .map(|h| h.stats().errors)
                .sum::<u64>();
        report.set("serve.http.errors", errors as f64);
    }
}
