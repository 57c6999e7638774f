//! What the serving integration suites share: the 60-word, 5-topic toy
//! models, the θ comparisons, shard fleets over real localhost TCP, and a
//! concurrent sender for synthetic request traces. Each suite uses a
//! subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saber_loadgen::TraceRequest;
use saberlda::serve::{
    FoldInKind, FoldInParams, HttpConfig, HttpServer, HttpTransport, InferenceBackend,
    InferenceSnapshot, ServeConfig, ServeError, ShardPlan, TopicServer,
};
use saberlda::LdaModel;

pub const VOCAB: usize = 60;
pub const K: usize = 5;

/// A `vocab × k` model with dense random counts — every word genuinely
/// mixes topics, so any bookkeeping error (cross-shard, cross-machine,
/// tracing-induced) shows up in θ instead of being masked by a peaked
/// posterior.
pub fn random_model(vocab: usize, k: usize, seed: u64) -> LdaModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = LdaModel::new(vocab, k, 0.08, 0.01).unwrap();
    for v in 0..vocab {
        for t in 0..k {
            model.word_topic_mut()[(v, t)] = rng.gen_range(0u32..20);
        }
        // Guarantee at least one count per word so B̂ rows are well formed.
        let hot = rng.gen_range(0usize..k);
        model.word_topic_mut()[(v, hot)] += 5;
    }
    model.refresh_probabilities();
    model
}

/// A model whose topics own disjoint word sets: word `v` belongs to topic
/// `(v + shift) % K`. Distinguishable per `shift`, for the swap tests.
pub fn planted_model(shift: usize) -> LdaModel {
    let mut model = LdaModel::new(VOCAB, K, 0.05, 0.01).unwrap();
    for v in 0..VOCAB {
        model.word_topic_mut()[(v, (v + shift) % K)] = 50;
    }
    model.refresh_probabilities();
    model
}

pub fn random_doc(rng: &mut StdRng, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| rng.gen_range(0u32..VOCAB as u32))
        .collect()
}

pub fn config(kind: FoldInKind) -> ServeConfig {
    ServeConfig {
        n_workers: 2,
        fold_in: FoldInParams {
            kind,
            ..FoldInParams::default()
        },
        ..ServeConfig::default()
    }
}

pub fn bits(theta: &[f32]) -> Vec<u32> {
    theta.iter().map(|x| x.to_bits()).collect()
}

pub fn linf(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// One shard process stand-in: a `TopicServer` over a snapshot slice
/// behind its own HTTP listener on an OS-assigned localhost port. Real TCP
/// end to end — exactly what a shard on another machine would expose.
pub struct ShardProcess {
    pub http: HttpServer,
}

/// One `ShardProcess` per plan range, and a transport to each.
pub fn spawn_shard_fleet(
    model: &LdaModel,
    plan: &ShardPlan,
    serve_config: ServeConfig,
) -> (Vec<ShardProcess>, Vec<HttpTransport>) {
    let (fleet, sets) = spawn_replicated_fleet(model, plan, 1, serve_config);
    let shards = fleet.into_iter().flatten().flatten();
    (
        shards.map(|http| ShardProcess { http }).collect(),
        sets.into_iter().flatten().collect(),
    )
}

/// A replicated shard fleet over real localhost TCP: `replicas` HTTP
/// listeners per plan range, each its own `TopicServer` over the same
/// slice. Servers ride in `Option` so a test can kill one mid-stream.
pub fn spawn_replicated_fleet(
    model: &LdaModel,
    plan: &ShardPlan,
    replicas: usize,
    serve_config: ServeConfig,
) -> (Vec<Vec<Option<HttpServer>>>, Vec<Vec<HttpTransport>>) {
    let snapshot = InferenceSnapshot::from_model(model, serve_config.sampler);
    let mut fleet = Vec::new();
    let mut sets = Vec::new();
    for range in plan.ranges() {
        let mut servers = Vec::new();
        let mut transports = Vec::new();
        for _ in 0..replicas {
            let server =
                Arc::new(TopicServer::start(snapshot.shard(range.clone()), serve_config).unwrap());
            let http = HttpServer::bind(
                "127.0.0.1:0",
                server,
                None,
                HttpConfig {
                    shard_range: Some((range.start, range.end)),
                    ..HttpConfig::default()
                },
            )
            .unwrap();
            transports.push(HttpTransport::connect(http.local_addr()).unwrap());
            servers.push(Some(http));
        }
        fleet.push(servers);
        sets.push(transports);
    }
    (fleet, sets)
}

/// Threads [`send_requests`] sends from.
pub const SEND_THREADS: usize = 4;
/// The deadline of every request [`send_requests`] sends.
pub const SEND_DEADLINE: Duration = Duration::from_secs(10);

/// An action to run once in the middle of [`send_requests`], after the
/// given number of answers.
pub type MidStream<'a> = (usize, Box<dyn FnOnce() + Send + 'a>);

/// Sends every request to `backend` from [`SEND_THREADS`] threads, request
/// `i` on thread `i % SEND_THREADS` and each thread in request order, and
/// returns each answer's θ bits, or its error, in request order.
///
/// `mid_stream = Some((n, action))` runs `action` once, on the thread that
/// received the `n`-th answer, before that thread sends its next request.
pub fn send_requests<B: InferenceBackend + ?Sized>(
    backend: &B,
    requests: &[TraceRequest],
    mid_stream: Option<MidStream<'_>>,
) -> Vec<Result<Vec<u32>, ServeError>> {
    let (after, action) = match mid_stream {
        Some((n, action)) => (n, Some(action)),
        None => (0, None),
    };
    let action = Mutex::new(action);
    let answered = AtomicUsize::new(0);
    let mut outcomes: Vec<Option<Result<Vec<u32>, ServeError>>> =
        requests.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SEND_THREADS)
            .map(|t| {
                let (action, answered) = (&action, &answered);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, request) in requests.iter().enumerate().skip(t).step_by(SEND_THREADS) {
                        let outcome = backend
                            .infer_with_deadline(request.words.clone(), request.seed, SEND_DEADLINE)
                            .map(|response| bits(&response.theta));
                        mine.push((i, outcome));
                        if answered.fetch_add(1, Ordering::SeqCst) + 1 == after {
                            let action = action.lock().unwrap().take();
                            action.expect("the mid-stream action runs once")();
                        }
                    }
                    mine
                })
            })
            .collect();
        for sender in senders {
            for (i, outcome) in sender.join().unwrap() {
                outcomes[i] = Some(outcome);
            }
        }
    });
    outcomes.into_iter().map(Option::unwrap).collect()
}
