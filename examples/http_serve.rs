//! HTTP serving demo: train a model, stand up the HTTP/1.1 front-end, and
//! exercise every endpoint over real TCP — including deterministic replay
//! via the `X-Saber-Seed` header and the `/stats` latency percentiles.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example http_serve
//! ```
//!
//! By default the example binds an OS-assigned port, drives a short demo
//! workload against itself, prints the equivalent `curl` commands, and
//! exits. To keep the server up for interactive `curl`ing:
//!
//! ```text
//! SABER_HTTP_HOLD=1 SABER_HTTP_ADDR=127.0.0.1:8080 \
//!     cargo run --release --example http_serve
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::http::{HttpConfig, HttpServer};
use saberlda::serve::{ServeConfig, SnapshotSampler, TopicServer};
use saberlda::{SaberLda, SaberLdaConfig};

/// One blocking HTTP request over a fresh connection; returns the raw
/// response (status line, headers, body).
fn http(addr: std::net::SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const K: usize = 8;

    // 1. Train a model on a synthetic corpus with an attached vocabulary so
    //    the raw-token `/infer` path works.
    let corpus = SyntheticSpec {
        n_docs: 400,
        vocab_size: 800,
        mean_doc_len: 60.0,
        n_topics: K,
        attach_vocabulary: true,
        ..SyntheticSpec::default()
    }
    .generate(11);
    let config = SaberLdaConfig::builder()
        .n_topics(K)
        .n_iterations(10)
        .seed(3)
        .build()?;
    let mut lda = SaberLda::new(config, &corpus)?;
    lda.train();
    println!(
        "trained: {} docs, {} tokens, K = {K}",
        corpus.n_docs(),
        corpus.n_tokens()
    );

    // 2. Publish to a TopicServer and put the HTTP listener in front of it.
    let server = Arc::new(TopicServer::from_model(
        lda.model(),
        ServeConfig {
            n_workers: 4,
            sampler: SnapshotSampler::WaryTree,
            ..ServeConfig::default()
        },
    )?);
    let addr = std::env::var("SABER_HTTP_ADDR").unwrap_or_else(|_| "127.0.0.1:0".into());
    let http_server = HttpServer::bind(
        &addr,
        Arc::clone(&server),
        corpus.vocabulary().cloned(),
        HttpConfig::default(),
    )?;
    let addr = http_server.local_addr();
    println!("listening on http://{addr}\n");
    println!("try it with curl:");
    println!("  curl http://{addr}/healthz");
    println!("  curl -X POST http://{addr}/infer -d '{{\"words\": [0, 8, 16], \"seed\": 7}}'");
    println!("  curl -X POST http://{addr}/infer -H 'X-Saber-Seed: 7' -d '{{\"tokens\": [\"w00000\", \"w00008\"], \"oov\": \"skip\"}}'");
    println!("  curl http://{addr}/stats\n");

    if std::env::var("SABER_HTTP_HOLD").is_ok() {
        println!("SABER_HTTP_HOLD set: serving until killed (ctrl-c)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }

    // 3. Demo workload over real TCP. Health first:
    let health = http(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n",
    )?;
    println!("GET /healthz -> {}", body_of(&health));

    // Word-id inference with a seed in the body.
    let doc = corpus.document(0).words();
    let payload = format!(
        "{{\"words\":[{}],\"seed\":42}}",
        doc.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    );
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    let first = http(addr, &request)?;
    println!("POST /infer (doc 0, seed 42) -> {}", body_of(&first));

    // Deterministic replay: the same request again is bit-identical.
    let replay = http(addr, &request)?;
    assert_eq!(
        body_of(&first),
        body_of(&replay),
        "equal seeds must replay bit-identically"
    );
    println!("replay: second POST with seed 42 returned an identical body");

    // Raw tokens with the seed supplied via header instead of body.
    let payload = r#"{"tokens":["w00000","w00001","definitely-not-a-word"],"oov":"skip"}"#;
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: demo\r\nX-Saber-Seed: 7\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    println!(
        "POST /infer (raw tokens) -> {}",
        body_of(&http(addr, &request)?)
    );

    // A little traffic so /stats has percentiles to report.
    for seed in 0..32u64 {
        let payload = format!("{{\"words\":[0,8,16,24],\"seed\":{seed}}}");
        let request = format!(
            "POST /infer HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        );
        http(addr, &request)?;
    }
    let stats = http(
        addr,
        "GET /stats HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n",
    )?;
    println!("GET /stats -> {}", body_of(&stats));

    http_server.shutdown();
    Arc::try_unwrap(server)
        .expect("http server released its handle")
        .shutdown();
    println!("\nlistener and worker pool drained; bye");
    Ok(())
}
