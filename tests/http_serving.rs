//! End-to-end HTTP serving: real TCP round-trips against the hand-rolled
//! listener — concurrent clients, seed-header replay, overload that answers
//! `429` instead of hanging, deadline `503`s, a snapshot swap observed over
//! a live keep-alive connection, and `/stats` percentiles after traffic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use saberlda::core::json;
use saberlda::corpus::OovPolicy;
use saberlda::serve::http::{HttpConfig, HttpServer};
use saberlda::serve::{
    wire, FoldInParams, InferenceBackend, PartialRequest, Publication, ServeConfig, ShardPlan,
    ShardRouter, SnapshotSampler, TopicServer,
};
use saberlda::{InferenceSnapshot, LdaModel, Vocabulary};

const K: usize = 4;
const VOCAB: usize = 40;

/// A model whose topics own disjoint word sets: word `v` belongs to topic
/// `(v + shift) % K`.
fn planted_model(shift: usize) -> LdaModel {
    let mut model = LdaModel::new(VOCAB, K, 0.05, 0.01).unwrap();
    for v in 0..VOCAB {
        model.word_topic_mut()[(v, (v + shift) % K)] = 50;
    }
    model.refresh_probabilities();
    model
}

/// Word ids drawn purely from the set topic `k` owns at shift 0.
fn planted_doc(k: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| (k + K * (i % (VOCAB / K))) as u32)
        .collect()
}

fn start(
    serve: ServeConfig,
    http: HttpConfig,
    vocab: Option<Vocabulary>,
) -> (Arc<TopicServer>, HttpServer) {
    let server = Arc::new(TopicServer::from_model(&planted_model(0), serve).unwrap());
    let front = HttpServer::bind("127.0.0.1:0", Arc::clone(&server), vocab, http).unwrap();
    (server, front)
}

/// One request over a throwaway connection. Returns `(status, body)`.
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    split_response(&response)
}

fn split_response(response: &str) -> (u16, String) {
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post_infer(addr: SocketAddr, payload: &str, headers: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        ),
    )
}

fn words_payload(words: &[u32], seed: u64) -> String {
    format!(
        "{{\"words\":[{}],\"seed\":{seed}}}",
        words
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    )
}

#[test]
fn healthz_and_infer_round_trip_over_real_tcp() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("snapshot_version").unwrap().as_u64(), Some(1));
    assert_eq!(health.get("n_topics").unwrap().as_u64(), Some(K as u64));

    let (status, body) = post_infer(addr, &words_payload(&planted_doc(2, 12), 7), "");
    assert_eq!(status, 200, "{body}");
    let reply = json::parse(&body).unwrap();
    assert_eq!(reply.get("dominant_topic").unwrap().as_u64(), Some(2));
    assert_eq!(reply.get("snapshot_version").unwrap().as_u64(), Some(1));
    assert_eq!(reply.get("seed").unwrap().as_u64(), Some(7));
    let theta: Vec<f64> = reply
        .get("theta")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect();
    assert_eq!(theta.len(), K);
    assert!((theta.iter().sum::<f64>() - 1.0).abs() < 1e-3);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

/// `Duration::MAX` is a deadline too far to represent as an `Instant`: every
/// backend, the router's fan-out and the HTTP read budget take it as no
/// deadline, and answer.
#[test]
fn a_deadline_too_far_to_represent_is_no_deadline() {
    let doc = planted_doc(1, 12);
    let server =
        Arc::new(TopicServer::from_model(&planted_model(0), ServeConfig::default()).unwrap());
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let router = ShardRouter::from_model(&planted_model(0), plan, ServeConfig::default()).unwrap();
    let router = Arc::new(router);
    for backend in [&*server as &dyn InferenceBackend, &*router] {
        let response = backend.infer_with_deadline(doc.clone(), 3, Duration::MAX);
        assert_eq!(response.unwrap().dominant_topic(), 1, "{backend:?}");
    }
    let unbounded = HttpConfig {
        request_deadline: Duration::MAX,
        ..HttpConfig::default()
    };
    let front = HttpServer::bind("127.0.0.1:0", router, None, unbounded).unwrap();
    let (status, body) = post_infer(front.local_addr(), &words_payload(&doc, 3), "");
    assert_eq!(status, 200, "{body}");
    let patient = HttpConfig {
        read_timeout: Duration::MAX,
        ..HttpConfig::default()
    };
    let front = HttpServer::bind("127.0.0.1:0", server, None, patient).unwrap();
    assert_eq!(get(front.local_addr(), "/healthz").0, 200);
}

#[test]
fn seed_header_replays_bit_identically() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();
    // A soft model would be more discriminating, but even on the planted
    // one the bytes must match exactly; the header must also beat the body
    // seed.
    let payload = words_payload(&planted_doc(1, 10), 999);
    let header = "X-Saber-Seed: 1234\r\n";
    let (s1, first) = post_infer(addr, &payload, header);
    let (s2, second) = post_infer(addr, &payload, header);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(first, second, "same seed header must give identical bytes");
    let reply = json::parse(&first).unwrap();
    assert_eq!(
        reply.get("seed").unwrap().as_u64(),
        Some(1234),
        "header seed must override the body seed"
    );
    // A different seed is a different request (echoed seed differs even if
    // θ coincides on a peaked model).
    let (_, other) = post_infer(addr, &payload, "X-Saber-Seed: 77\r\n");
    assert_ne!(first, other);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn concurrent_http_clients_recover_planted_topics() {
    let (server, front) = start(
        ServeConfig {
            n_workers: 4,
            ..ServeConfig::default()
        },
        HttpConfig::default(),
        None,
    );
    let addr = front.local_addr();
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                for i in 0..20 {
                    let topic = (c + i) % K;
                    let (status, body) = post_infer(
                        addr,
                        &words_payload(&planted_doc(topic, 12), (c * 100 + i) as u64),
                        "",
                    );
                    assert_eq!(status, 200, "client {c} request {i}: {body}");
                    let reply = json::parse(&body).unwrap();
                    assert_eq!(
                        reply.get("dominant_topic").unwrap().as_u64(),
                        Some(topic as u64),
                        "client {c} request {i}: {body}"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    assert_eq!(server.stats().requests, 80);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn overload_answers_429_instead_of_hanging() {
    // One worker, a depth-1 queue and slow fold-in: concurrent clients must
    // overflow admission. The contract: every client gets *an answer* (200
    // from the queue, 429 when it is full, 503 when the deadline passes) —
    // never an unbounded wait.
    let (server, front) = start(
        ServeConfig {
            n_workers: 1,
            queue_depth: 1,
            fold_in: FoldInParams {
                burn_in: 30,
                samples: 30,
                ..FoldInParams::default()
            },
            ..ServeConfig::default()
        },
        HttpConfig {
            request_deadline: Duration::from_secs(10),
            ..HttpConfig::default()
        },
        None,
    );
    let addr = front.local_addr();
    let heavy: Vec<u32> = planted_doc(0, 4000);
    let clients: Vec<_> = (0..12)
        .map(|c| {
            let payload = words_payload(&heavy, c as u64);
            std::thread::spawn(move || post_infer(addr, &payload, "").0)
        })
        .collect();
    let statuses: Vec<u16> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        statuses.iter().all(|s| [200, 429, 503].contains(s)),
        "unexpected statuses: {statuses:?}"
    );
    assert!(
        statuses.contains(&429),
        "12 concurrent heavy requests against a depth-1 queue must shed load: {statuses:?}"
    );
    assert!(
        statuses.contains(&200),
        "the pool must still serve some requests under overload: {statuses:?}"
    );

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn missed_deadline_answers_503() {
    // A deadline far below the service time of a heavy request: admission
    // succeeds (empty queue) but the reply cannot arrive in time.
    let (server, front) = start(
        ServeConfig {
            n_workers: 1,
            fold_in: FoldInParams {
                burn_in: 40,
                samples: 40,
                ..FoldInParams::default()
            },
            ..ServeConfig::default()
        },
        HttpConfig {
            request_deadline: Duration::from_millis(1),
            ..HttpConfig::default()
        },
        None,
    );
    let addr = front.local_addr();
    let (status, body) = post_infer(addr, &words_payload(&planted_doc(0, 8000), 1), "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("deadline"), "{body}");

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn missed_deadline_answers_503_on_an_idle_shard_partial() {
    // An idle shard answers /infer-partial on its connection thread, not
    // through the queue; a reply computed past the deadline is still a 503.
    let (server, front) = start(
        ServeConfig {
            n_workers: 1,
            fold_in: FoldInParams {
                burn_in: 40,
                samples: 40,
                ..FoldInParams::default()
            },
            ..ServeConfig::default()
        },
        HttpConfig {
            request_deadline: Duration::from_millis(1),
            ..HttpConfig::default()
        },
        None,
    );
    let words = planted_doc(0, 8000);
    let payload = wire::encode_partial_request(&words, &PartialRequest::FoldIn { seed: 1 });
    let payload = payload.to_string();
    let (status, body) = request(
        front.local_addr(),
        &format!(
            "POST /infer-partial HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        ),
    );
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("deadline"), "{body}");
    let stats = server.stats();
    assert_eq!(
        stats.queue_wait.count(),
        1,
        "the abandoned answer is counted"
    );
    assert_eq!(stats.queue_wait.sum_micros(), 0, "and was never queued");

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn snapshot_swap_is_visible_over_a_live_keep_alive_connection() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();

    // One persistent connection for the whole test: the swap must be
    // observable between two requests on the *same* socket.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |payload: &str| -> (u16, String) {
        let raw = format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        // Read the status line and headers, then exactly content-length
        // bytes of body, leaving the connection open for the next request.
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    };

    let doc = planted_doc(0, 12);
    let (status, body) = send(&words_payload(&doc, 9));
    assert_eq!(status, 200);
    let before = json::parse(&body).unwrap();
    assert_eq!(before.get("snapshot_version").unwrap().as_u64(), Some(1));
    assert_eq!(before.get("dominant_topic").unwrap().as_u64(), Some(0));

    // Publish a shifted model (word v moves to topic (v+1) % K) while the
    // connection stays open.
    let shifted = InferenceSnapshot::from_model(&planted_model(1), SnapshotSampler::WaryTree);
    server.stage(2, Publication::Slice(shifted)).unwrap();
    assert_eq!(server.commit(2).unwrap(), 2);

    let (status, body) = send(&words_payload(&doc, 9));
    assert_eq!(status, 200);
    let after = json::parse(&body).unwrap();
    assert_eq!(after.get("snapshot_version").unwrap().as_u64(), Some(2));
    assert_eq!(
        after.get("dominant_topic").unwrap().as_u64(),
        Some(1),
        "the same document must follow the swapped model: {body}"
    );

    drop(reader);
    drop(stream);
    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn raw_tokens_round_trip() {
    let vocab = Vocabulary::synthetic(VOCAB);
    let (server, front) = start(
        ServeConfig::default(),
        HttpConfig::default(),
        Some(vocab.clone()),
    );
    let addr = front.local_addr();

    // Raw tokens: w00000 and w00004 belong to topic 0; one OOV is skipped.
    let payload = r#"{"tokens":["w00000","w00004","notaword"],"oov":"skip","seed":3}"#;
    let (status, body) = post_infer(addr, payload, "");
    assert_eq!(status, 200, "{body}");
    let reply = json::parse(&body).unwrap();
    assert_eq!(reply.get("n_oov").unwrap().as_u64(), Some(1));
    assert_eq!(reply.get("dominant_topic").unwrap().as_u64(), Some(0));
    // The raw-token request takes the same path as word ids once encoded:
    // its bytes are those of the in-process answer, it is traced end to
    // end, and it feeds the endpoint's queue-wait/handler split a real
    // sample (not the 0 µs one an untraced call used to leave).
    let encoded = vocab
        .encode(["w00000", "w00004", "notaword"], OovPolicy::Skip)
        .unwrap();
    let mut reference = server
        .infer_with_deadline(encoded.ids, 3, Duration::MAX)
        .unwrap();
    reference.n_oov += encoded.n_oov;
    assert_eq!(body, wire::encode_infer_response(&reference, 3).to_string());
    let (_, traces) = get(addr, "/trace/recent");
    let recent = wire::decode_trace_recent(&traces).unwrap();
    let names: Vec<&str> = recent[0].spans.iter().map(|s| s.name.as_str()).collect();
    for needed in ["ingress", "parse", "queue-wait", "handler", "encode"] {
        assert!(
            names.contains(&needed),
            "raw-token trace is missing a {needed:?} span: {names:?}"
        );
    }
    // (`total` is recorded after the response is written; wait for it.)
    while front.stats().infer.total.count() == 0 {
        std::thread::yield_now();
    }
    let split = front.stats().infer;
    assert_eq!(split.queue_wait.count(), split.total.count());
    assert_eq!(split.handler.count(), split.total.count());
    // Under "fail" the same document is a client error.
    let payload = r#"{"tokens":["notaword"],"oov":"fail"}"#;
    let (status, _) = post_infer(addr, payload, "");
    assert_eq!(status, 400);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn protocol_errors_get_4xx_not_a_dead_socket() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();

    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/infer").0, 405, "GET on a POST endpoint");
    let (status, _) = request(
        addr,
        "DELETE /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 405);
    assert_eq!(post_infer(addr, "{not json", "").0, 400);
    assert_eq!(
        post_infer(addr, r#"{"words":[99999]}"#, "").0,
        400,
        "OOV id"
    );
    assert_eq!(
        post_infer(addr, r#"{"tokens":["x"]}"#, "").0,
        400,
        "raw tokens need a vocabulary"
    );
    // Deleted endpoints are unknown paths; a query string is ignored.
    assert_eq!(get(addr, "/top-words?topic=1").0, 404);
    assert_eq!(get(addr, "/similar?a=1&b=2").0, 404);
    assert_eq!(get(addr, "/healthz?probe=1").0, 200);
    let (status, _) = request(
        addr,
        "POST /infer HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 411, "POST without content-length");
    let (status, _) = request(addr, "GARBAGE\r\n\r\n");
    assert_eq!(status, 400);
    // A header line may hold 8 KiB before its line feed and not a byte
    // more, however the bytes are spread over socket reads. (The rejected
    // request ends with the offending byte, so nothing is left unread for
    // the close to reset.)
    let padded = |pad: usize| format!("GET /healthz HTTP/1.1\r\nX-Pad: {}", "a".repeat(pad));
    let at_limit = padded(8192 - "X-Pad: \r".len()) + "\r\nConnection: close\r\n\r\n";
    assert_eq!(request(addr, &at_limit).0, 200);
    assert_eq!(request(addr, &padded(8193 - "X-Pad: ".len())).0, 431);

    // The server survives all of the above and still serves.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn trickled_request_is_cut_off_by_the_read_budget() {
    // A slowloris client stays inside the per-read timeout but must not be
    // able to hold the request open past the whole-request budget.
    let (server, front) = start(
        ServeConfig::default(),
        HttpConfig {
            read_timeout: Duration::from_millis(200),
            ..HttpConfig::default()
        },
        None,
    );
    let addr = front.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Poll for the server's reaction between trickled bytes; writing after
    // the server closes can elicit a reset that discards a buffered
    // response, so detection must happen inside the loop.
    stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut cut_off = false;
    let mut response = Vec::new();
    let mut buf = [0u8; 256];
    // One byte every 50 ms (never completing the request line): each read
    // on the server side succeeds well within the 200 ms per-read timeout,
    // so only the whole-request budget can stop this.
    for _ in 0..60 {
        if stream.write_all(b"X").is_err() {
            cut_off = true;
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                cut_off = true;
                break;
            }
            Ok(n) => {
                response.extend_from_slice(&buf[..n]);
                cut_off = true;
                break;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                cut_off = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        cut_off,
        "server let a trickling request run for {:?} without cutting it off",
        started.elapsed()
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "cut-off took {:?}",
        started.elapsed()
    );
    if !response.is_empty() {
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 408"),
            "expected 408 for a trickled request, got {text:?}"
        );
    }

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn expect_100_continue_gets_the_interim_response() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Send headers only, as a strict client would, and wait for the 100.
    let payload = words_payload(&planted_doc(0, 8), 5);
    let head = format!(
        "POST /infer HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut interim = String::new();
    reader.read_line(&mut interim).unwrap();
    assert!(
        interim.starts_with("HTTP/1.1 100"),
        "expected an interim 100 Continue, got {interim:?}"
    );
    let mut blank = String::new();
    reader.read_line(&mut blank).unwrap();

    // Only now send the body; the final response must be a normal 200.
    stream.write_all(payload.as_bytes()).unwrap();
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    let (status, body) = split_response(&rest);
    assert_eq!(status, 200, "{rest}");
    let reply = json::parse(&body).unwrap();
    assert_eq!(reply.get("dominant_topic").unwrap().as_u64(), Some(0));

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}

#[test]
fn stats_report_latency_percentiles_after_traffic() {
    let (server, front) = start(ServeConfig::default(), HttpConfig::default(), None);
    let addr = front.local_addr();

    for seed in 0..40u64 {
        let (status, _) = post_infer(addr, &words_payload(&planted_doc(0, 12), seed), "");
        assert_eq!(status, 200);
    }
    get(addr, "/healthz");

    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats = json::parse(&body).unwrap();
    let server_stats = stats.get("server").unwrap();
    assert_eq!(server_stats.get("requests").unwrap().as_u64(), Some(40));
    let server_latency = server_stats.get("latency").unwrap();
    assert_eq!(server_latency.get("count").unwrap().as_u64(), Some(40));
    // The queue-wait/handler decomposition covers every request too.
    for split in ["queue_wait", "handler"] {
        let h = server_stats.get(split).unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(40), "{split}");
    }

    let infer = stats
        .get("http")
        .unwrap()
        .get("endpoints")
        .unwrap()
        .get("infer")
        .unwrap();
    let infer_total = infer.get("total").unwrap();
    assert_eq!(infer_total.get("count").unwrap().as_u64(), Some(40));
    for split in ["queue_wait", "handler"] {
        let h = infer.get(split).unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(40), "{split}");
    }
    let p50 = infer_total.get("p50_us").unwrap().as_f64().unwrap();
    let p95 = infer_total.get("p95_us").unwrap().as_f64().unwrap();
    let p99 = infer_total.get("p99_us").unwrap().as_f64().unwrap();
    assert!(p50 > 0.0);
    assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");

    // The front-end's own view agrees with what went over the wire.
    let http_stats = front.stats();
    assert_eq!(http_stats.infer.total.count(), 40);
    assert!(http_stats.healthz.total.count() >= 1);
    assert!(http_stats.requests >= 42);

    front.shutdown();
    Arc::try_unwrap(server).unwrap().shutdown();
}
