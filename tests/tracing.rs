//! End-to-end tests for distributed request tracing (ISSUE 7).
//!
//! Two contracts under test:
//!
//! * **Tracing is zero-cost on the answer.** The trace recorder only reads
//!   clocks and copies ids — it never touches a seed, a chain or a float
//!   path — so θ must be **bit-identical** with tracing on and off, and a
//!   traced HTTP response must be byte-identical to an untraced one.
//! * **One request, one tree.** A traced request through a
//!   `ShardRouter<HttpTransport>` whose shards are separate HTTP servers
//!   over real localhost TCP must leave ONE assembled trace in the
//!   router's ring — ingress → parse → fan-out → per-shard subtrees
//!   (stitched from the `/infer-partial` responses) → merge → encode —
//!   and each shard process must hold its own subtree in its own ring
//!   under the same trace id.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saberlda::corpus::OovPolicy;
use saberlda::serve::wire;
use saberlda::serve::{
    FoldInKind, HttpConfig, HttpServer, InferResponse, InferenceBackend, ShardPlan, ShardRouter,
    TopicServer,
};
use saberlda::trace::{Trace, TraceBuilder, TraceId};
use saberlda::Vocabulary;

mod common;
use common::{bits, config, random_doc, random_model, spawn_shard_fleet, K, VOCAB};

/// One request over a real socket; returns the response body.
fn http_body(addr: std::net::SocketAddr, request: &str) -> String {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    reply
        .split("\r\n\r\n")
        .nth(1)
        .expect("response has a body")
        .to_string()
}

fn trace_recent(addr: std::net::SocketAddr) -> Vec<Trace> {
    wire::decode_trace_recent(&http_body(
        addr,
        "GET /trace/recent HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    ))
    .unwrap()
}

/// The three shapes of the one request path — `infer_with_deadline`,
/// `infer_with_trace` under a disabled builder (which must stay empty) and
/// under an enabled one — must agree bit for bit; returns the answer.
fn call_shapes_agree(backend: &dyn InferenceBackend, doc: &[u32], seed: u64) -> InferResponse {
    let deadline = Duration::from_secs(5);
    let untraced = backend
        .infer_with_deadline(doc.to_vec(), seed, deadline)
        .unwrap();
    let mut off = TraceBuilder::disabled();
    let disabled = backend
        .infer_with_trace(doc.to_vec(), seed, deadline, &mut off, 0)
        .unwrap();
    assert!(off.spans().is_empty(), "a disabled builder recorded spans");
    let mut on = TraceBuilder::new(TraceId::mint());
    let root = on.begin(None, "ingress");
    let enabled = backend
        .infer_with_trace(doc.to_vec(), seed, deadline, &mut on, root)
        .unwrap();
    assert!(on.spans().len() >= 3, "too few spans: {:?}", on.spans());
    for other in [&disabled, &enabled] {
        assert_eq!(bits(&untraced.theta), bits(&other.theta));
        assert_eq!(untraced.snapshot_version, other.snapshot_version);
        assert_eq!(untraced.n_oov, other.n_oov);
    }
    untraced
}

#[test]
fn tracing_never_changes_theta_bit_for_bit() {
    // The differential zero-cost check, at the API layer: the same
    // document and seed through `infer_topics` (untraced) and
    // `infer_with_trace` must produce bit-identical θ — under both
    // fold-in kinds, on a direct server and across 1-, 2- and 3-shard
    // fan-outs, whichever shape of the request path carries it.
    for kind in [FoldInKind::Esca, FoldInKind::Em] {
        let model = random_model(VOCAB, K, 3);
        let cfg = config(kind);
        let server = TopicServer::from_model(&model, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for seed in 0..5u64 {
            let doc = random_doc(&mut rng, 6 + seed as usize * 3);
            let plain = server
                .infer_with_deadline(doc.clone(), seed, Duration::MAX)
                .unwrap();
            let shaped = call_shapes_agree(&server, &doc, seed);
            assert_eq!(bits(&plain.theta), bits(&shaped.theta), "{kind:?}/{seed}");
        }
        server.shutdown();
        for n_shards in 1..=3 {
            let router =
                ShardRouter::from_model(&model, ShardPlan::uniform(VOCAB, n_shards).unwrap(), cfg)
                    .unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            for seed in 0..5u64 {
                let doc = random_doc(&mut rng, 6 + seed as usize * 3);
                let plain = router
                    .infer_with_deadline(doc.clone(), seed, Duration::MAX)
                    .unwrap();
                let shaped = call_shapes_agree(&router, &doc, seed);
                assert_eq!(bits(&plain.theta), bits(&shaped.theta), "{kind:?}/{seed}");
                let mut trace = TraceBuilder::new(TraceId::mint());
                let root = trace.begin(None, "ingress");
                let traced = router
                    .infer_with_trace(doc, seed, Duration::from_secs(5), &mut trace, root)
                    .unwrap();
                trace.end(root);
                let done = trace.finish();
                assert!(
                    done.spans.len() >= 4,
                    "{kind:?} seed {seed}: traced run recorded too few spans: {:?}",
                    done.spans
                );
                assert_eq!(
                    bits(&plain.theta),
                    bits(&traced.theta),
                    "{kind:?} seed {seed}: tracing perturbed θ"
                );
                assert_eq!(plain.snapshot_version, traced.snapshot_version);
                assert_eq!(plain.n_oov, traced.n_oov);
            }
            router.shutdown();
        }
    }
}

#[test]
fn traced_and_untraced_http_responses_are_byte_identical() {
    // The same check at the wire: joining a distributed trace via
    // X-Saber-Trace must not change a single response byte — tracing is
    // invisible to the client that opted in, and the trace itself is
    // retrievable from the ring afterwards.
    let model = random_model(VOCAB, K, 5);
    let server = Arc::new(TopicServer::from_model(&model, config(FoldInKind::Esca)).unwrap());
    let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
    let body = r#"{"words":[0,15,31,45,59,2],"seed":9}"#;
    let untraced = http_body(
        http.local_addr(),
        &format!(
            "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    let traced = http_body(
        http.local_addr(),
        &format!(
            "POST /infer HTTP/1.1\r\nHost: x\r\nX-Saber-Trace: 00000000000000ab\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    assert_eq!(untraced, traced, "tracing changed the response bytes");
    let recent = trace_recent(http.local_addr());
    assert!(
        recent.iter().any(|t| t.trace_id.raw() == 0xab),
        "the joined trace id never reached the ring: {recent:?}"
    );
    // The untraced request was traced too — under a minted id.
    assert!(
        recent.len() >= 2,
        "every /infer request should leave a trace: {recent:?}"
    );
    http.shutdown();
}

#[test]
fn a_two_shard_tcp_request_assembles_one_cross_process_trace() {
    // The headline acceptance test: one traced request through two
    // real shard processes leaves ONE tree (≥ 6 spans) in the router's
    // ring, with both shards' `infer-partial` subtrees stitched in, and
    // each shard process holds its own subtree under the same trace id.
    let model = random_model(VOCAB, K, 7);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
    let router = Arc::new(ShardRouter::with_transports(plan, transports, cfg).unwrap());
    let front = HttpServer::bind("127.0.0.1:0", router, None, HttpConfig::default()).unwrap();

    let body = r#"{"words":[0,15,31,45,59,2],"seed":9}"#;
    let response = http_body(
        front.local_addr(),
        &format!(
            "POST /infer HTTP/1.1\r\nHost: x\r\nX-Saber-Trace: 00000000000000ab\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    assert!(response.contains(r#""theta""#), "{response}");

    let recent = trace_recent(front.local_addr());
    let trace = recent
        .iter()
        .find(|t| t.trace_id.raw() == 0xab)
        .expect("the traced request must be in the router's ring");

    assert!(
        trace.spans.len() >= 6,
        "expected >= 6 spans in the assembled tree, got {}: {:?}",
        trace.spans.len(),
        trace.spans
    );
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for needed in [
        "ingress", "parse", "fan-out", "shard 0", "shard 1", "merge", "encode",
    ] {
        assert!(
            names.contains(&needed),
            "assembled tree is missing a {needed:?} span: {names:?}"
        );
    }

    // Exactly one root, and every parent id resolves: a single connected
    // tree, not a forest of half-stitched fragments.
    assert_eq!(
        trace.spans.iter().filter(|s| s.parent.is_none()).count(),
        1,
        "the assembled trace must have exactly one root: {:?}",
        trace.spans
    );
    let ids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    assert!(
        trace
            .spans
            .iter()
            .all(|s| s.parent.is_none_or(|p| ids.contains(&p))),
        "dangling parent reference in the assembled trace: {:?}",
        trace.spans
    );

    // Both shard processes contributed a child subtree: each router-side
    // `shard N` span has the shard's own `infer-partial` span under it.
    for s in 0..2usize {
        let shard_span = trace
            .spans
            .iter()
            .find(|sp| sp.name == format!("shard {s}"))
            .unwrap();
        assert!(
            trace
                .spans
                .iter()
                .any(|sp| sp.parent == Some(shard_span.id) && sp.name == "infer-partial"),
            "shard {s} subtree is missing its remote infer-partial span: {:?}",
            trace.spans
        );
    }

    // The epoch observation rides as an event on the fan-out parent.
    assert!(
        trace
            .spans
            .iter()
            .flat_map(|s| s.events.iter())
            .any(|e| e.message.contains("epoch observed")),
        "missing the epoch-observed event: {:?}",
        trace.spans
    );

    // "Ring buffer per process": each shard recorded its local subtree
    // into its OWN ring under the same distributed trace id.
    for (s, shard) in shards.iter().enumerate() {
        let shard_recent = trace_recent(shard.http.local_addr());
        assert!(
            shard_recent.iter().any(|t| t.trace_id.raw() == 0xab),
            "shard {s}'s ring is missing the distributed trace: {shard_recent:?}"
        );
    }

    front.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}

#[test]
fn a_raw_token_request_through_a_router_is_traced_like_word_ids() {
    // Raw tokens are encoded at the HTTP layer and then take the same call
    // as word ids, so a router-backed `{"tokens": …}` request must carry
    // the whole fan-out subtree — and answer with the bytes of the
    // in-process raw-token path.
    let model = random_model(VOCAB, K, 13);
    let cfg = config(FoldInKind::Esca);
    let router = Arc::new(
        ShardRouter::from_model(&model, ShardPlan::uniform(VOCAB, 2).unwrap(), cfg).unwrap(),
    );
    let vocab = Vocabulary::synthetic(VOCAB);
    let front = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        Some(vocab.clone()),
        HttpConfig::default(),
    )
    .unwrap();

    // Words 0 and 2 live on shard 0, word 59 on shard 1; one token is OOV.
    let body = r#"{"tokens":["w00000","w00059","nope","w00002"],"oov":"skip","seed":6}"#;
    let response = http_body(
        front.local_addr(),
        &format!(
            "POST /infer HTTP/1.1\r\nHost: x\r\nX-Saber-Trace: 00000000000000ef\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    let encoded = vocab
        .encode(["w00000", "w00059", "nope", "w00002"], OovPolicy::Skip)
        .unwrap();
    let mut reference = router
        .infer_with_deadline(encoded.ids, 6, Duration::MAX)
        .unwrap();
    reference.n_oov += encoded.n_oov;
    assert_eq!(reference.n_oov, 1);
    assert_eq!(
        response,
        wire::encode_infer_response(&reference, 6).to_string()
    );

    let recent = trace_recent(front.local_addr());
    let trace = recent
        .iter()
        .find(|t| t.trace_id.raw() == 0xef)
        .expect("the raw-token request must be in the router's ring");
    let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
    for needed in [
        "ingress",
        "parse",
        "fan-out",
        "shard 0",
        "shard 1",
        "queue-wait",
        "handler",
        "merge",
        "encode",
    ] {
        assert!(
            names.contains(&needed),
            "raw-token trace is missing a {needed:?} span: {names:?}"
        );
    }
    front.shutdown();
}

#[test]
fn em_fan_out_traces_carry_per_round_spans() {
    // Under EM fold-in every synchronisation round is its own span, so a
    // slow round is attributable; the per-shard subtrees hang off the
    // round, not the request root.
    let model = random_model(VOCAB, K, 11);
    let cfg = config(FoldInKind::Em);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
    let router = Arc::new(ShardRouter::with_transports(plan, transports, cfg).unwrap());
    let front = HttpServer::bind("127.0.0.1:0", router, None, HttpConfig::default()).unwrap();
    let body = r#"{"words":[0,15,31,45,59,2],"seed":4}"#;
    http_body(
        front.local_addr(),
        &format!(
            "POST /infer HTTP/1.1\r\nHost: x\r\nX-Saber-Trace: 00000000000000cd\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    let recent = trace_recent(front.local_addr());
    let trace = recent
        .iter()
        .find(|t| t.trace_id.raw() == 0xcd)
        .expect("the traced EM request must be in the router's ring");
    assert!(
        trace.spans.iter().any(|s| s.name.starts_with("em-round")),
        "EM trace has no per-round spans: {:?}",
        trace.spans
    );
    front.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}
