//! Inputs generated from `--seed`, and the systems under test built on them.
//!
//! Everything the program under test sees — training corpus, request
//! traces, ingest batches, held-out documents — is generated here from the
//! seed; the trainer's own seed is a constant so that the seed varies the
//! input and not the algorithm.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use saber_core::{HeldOutEvaluator, LdaModel, SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::synthetic::SyntheticSpec;
use saber_corpus::Corpus;
use saber_loadgen::synthesize_trace;
use saber_serve::{
    HttpConfig, HttpServer, HttpTransport, InferenceSnapshot, ServeConfig, ShardPlan, ShardRouter,
    TopicServer,
};

use crate::loadgen::encode_infer_request;

pub const N_TOPICS: usize = 1000;
pub const N_CHUNKS: usize = 4;
pub const TRAINER_SEED: u64 = 42;
pub const N_SHARDS: usize = 2;
/// Held-out documents behind `heldout_perplexity`.
pub const HELDOUT_DOCS: usize = 200;
/// Requests whose θ is compared bit for bit with the in-process reference.
pub const CHECKED_REQUESTS: usize = 64;

/// Seeds of the derived inputs: each differs from the corpus seed so no
/// request or held-out document is a training document.
const HELDOUT_SALT: u64 = 0x4845_4c44;
const TRACE_SALT: u64 = 0x5452_4143;
const FEED_SALT: u64 = 0x4645_4544;

/// The long-document corpus spec: NYTimes statistics at 1/100 scale —
/// 3 000 documents, ≈1.0 M tokens, V = 10 200, mean length 332.
pub fn longdoc_spec() -> SyntheticSpec {
    DatasetPreset::NyTimes.synthetic_spec(100)
}

/// Short query-like documents over the same vocabulary.
pub fn shortdoc_spec() -> SyntheticSpec {
    SyntheticSpec {
        mean_doc_len: 24.0,
        ..longdoc_spec()
    }
}

pub fn trainer_config() -> SaberLdaConfig {
    SaberLdaConfig::builder()
        .n_topics(N_TOPICS)
        .n_chunks(N_CHUNKS)
        .seed(TRAINER_SEED)
        .build()
        .expect("the benchmark's trainer configuration is valid")
}

/// Servers run two workers on the two shared vCPUs.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        n_workers: 2,
        ..ServeConfig::default()
    }
}

/// "Model M": `SaberLda` on `corpus`, `iterations` full sweeps.
pub fn train_model_m(corpus: &Corpus, iterations: usize) -> SaberLda {
    let mut trainer =
        SaberLda::new(trainer_config(), corpus).expect("the generated corpus is trainable");
    for _ in 0..iterations {
        trainer.iterate();
    }
    trainer
}

/// The training corpus and [`HELDOUT_DOCS`] further documents drawn from
/// the same planted topics, which no trainer ever sees.
#[derive(Debug)]
pub struct Inputs {
    pub corpus: Corpus,
    pub held_out: Corpus,
}

/// Generates the long-document corpus for `seed` and holds its last
/// [`HELDOUT_DOCS`] documents out.
pub fn generate_inputs(seed: u64) -> Inputs {
    let spec = longdoc_spec();
    let n_train = spec.n_docs;
    let all = SyntheticSpec {
        n_docs: n_train + HELDOUT_DOCS,
        ..spec
    }
    .generate(seed);
    Inputs {
        corpus: all.select_documents(0..n_train),
        held_out: all.select_documents(n_train..n_train + HELDOUT_DOCS),
    }
}

/// `exp(−log-likelihood per held-out token)` of `model` on the held-out
/// documents (each split 50/50 into observed and evaluated tokens);
/// deterministic for a seed.
pub fn heldout_perplexity(model: &LdaModel, held_out: &Corpus, seed: u64) -> f64 {
    let evaluator = HeldOutEvaluator::new(held_out, seed ^ HELDOUT_SALT)
        .expect("a fixed 0.5 split fraction is valid");
    (-evaluator.log_likelihood(model.word_topic_prob(), model.alpha())).exp()
}

/// A request trace with every request already encoded to HTTP bytes.
#[derive(Debug)]
pub struct Requests {
    pub words: Vec<Vec<u32>>,
    pub seeds: Vec<u64>,
    pub bytes: Vec<Vec<u8>>,
}

impl Requests {
    /// `n_requests` requests over `n_docs` distinct documents of `spec`.
    pub fn synthesize(spec: &SyntheticSpec, n_docs: usize, n_requests: usize, seed: u64) -> Self {
        let spec = SyntheticSpec {
            n_docs,
            ..spec.clone()
        };
        let trace = synthesize_trace(&spec, n_requests, seed ^ TRACE_SALT);
        let mut requests = Requests {
            words: Vec::with_capacity(n_requests),
            seeds: Vec::with_capacity(n_requests),
            bytes: Vec::with_capacity(n_requests),
        };
        // An empty document has no topics to infer; the generator's gamma
        // lengths can produce one, and a benchmark request must not.
        for request in trace.requests().iter().filter(|r| !r.words.is_empty()) {
            requests
                .bytes
                .push(encode_infer_request(&request.words, request.seed));
            requests.words.push(request.words.clone());
            requests.seeds.push(request.seed);
        }
        requests
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn token_counts(&self) -> Vec<usize> {
        self.words.iter().map(Vec::len).collect()
    }

    pub fn mean_tokens(&self) -> f64 {
        self.words.iter().map(Vec::len).sum::<usize>() as f64 / self.len() as f64
    }

    /// [`CHECKED_REQUESTS`] indices spread evenly over the trace.
    pub fn checked_indices(&self) -> Vec<usize> {
        let n = CHECKED_REQUESTS.min(self.len());
        (0..n).map(|i| i * self.len() / n).collect()
    }
}

/// Ingest batches for the pipeline: long documents not in the corpus.
pub fn ingest_batches(seed: u64, n_batches: usize, batch_docs: usize) -> Vec<Vec<Vec<u32>>> {
    let docs = SyntheticSpec {
        n_docs: n_batches * batch_docs,
        ..longdoc_spec()
    }
    .generate(seed ^ FEED_SALT);
    docs.documents()
        .chunks(batch_docs)
        .map(|batch| {
            batch
                .iter()
                .map(|d| d.words().to_vec())
                .filter(|w| !w.is_empty())
                .collect()
        })
        .collect()
}

/// One `TopicServer` behind an `HttpServer` on a loopback port.
#[derive(Debug)]
pub struct DirectServer {
    pub http: HttpServer,
    pub server: Arc<TopicServer>,
}

impl DirectServer {
    pub fn boot(snapshot: InferenceSnapshot) -> Self {
        let server = Arc::new(
            TopicServer::start(snapshot, serve_config()).expect("the serve configuration is valid"),
        );
        let http = HttpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&server),
            None,
            HttpConfig::default(),
        )
        .expect("a loopback listener binds");
        DirectServer { http, server }
    }

    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }
}

/// A front `HttpServer` over a `ShardRouter<HttpTransport>` over
/// [`N_SHARDS`] vocabulary shards, each its own `HttpServer` +
/// `TopicServer` slice — three HTTP hops per request, all on loopback.
#[derive(Debug)]
pub struct RemoteFleet {
    // Fields drop in this order, outside in: a listener's shutdown joins
    // its connection threads, and a shard's keep-alive connection only
    // closes once the router's transport on its other end is gone.
    pub front: HttpServer,
    pub router: Arc<ShardRouter<HttpTransport>>,
    pub shard_https: Vec<HttpServer>,
    pub shard_servers: Vec<Arc<TopicServer>>,
    pub plan: ShardPlan,
}

impl RemoteFleet {
    pub fn boot(snapshot: &InferenceSnapshot) -> Self {
        let plan = ShardPlan::uniform(snapshot.vocab_size(), N_SHARDS)
            .expect("the vocabulary splits into two shards");
        let mut shard_servers = Vec::new();
        let mut shard_https = Vec::new();
        let mut transports = Vec::new();
        for range in plan.ranges() {
            let server = Arc::new(
                TopicServer::start(snapshot.shard(range.clone()), serve_config())
                    .expect("the serve configuration is valid"),
            );
            let http = HttpServer::bind(
                "127.0.0.1:0",
                Arc::clone(&server),
                None,
                HttpConfig {
                    shard_range: Some((range.start, range.end)),
                    // A full-slice publication is a ≈20 MB SABRSNAP body;
                    // the 1 MiB default would answer it with 413.
                    max_body_bytes: 64 << 20,
                    ..HttpConfig::default()
                },
            )
            .expect("a loopback listener binds");
            transports.push(
                HttpTransport::connect(http.local_addr()).expect("a loopback address resolves"),
            );
            shard_servers.push(server);
            shard_https.push(http);
        }
        let router = Arc::new(
            ShardRouter::with_transports(plan.clone(), transports, serve_config())
                .expect("the freshly booted shards agree with the plan"),
        );
        let front = HttpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&router),
            None,
            HttpConfig::default(),
        )
        .expect("a loopback listener binds");
        RemoteFleet {
            front,
            router,
            shard_https,
            shard_servers,
            plan,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }
}

/// The deadline in-process reference calls use: far above any latency the
/// benchmark sees, so a reference never times out.
pub const REFERENCE_DEADLINE: Duration = Duration::from_secs(30);
