//! Cross-machine sharded serving demo: one shard **process** per port.
//!
//! This is the `saber-shardd` deployment shape behind ISSUE 5: each shard
//! is a separate OS process that boots a [`TopicServer`] from a snapshot
//! slice saved on disk (no retraining) and exposes the shard protocol over
//! HTTP (`/infer-partial`, `/shard-info`, `/publish-shard`,
//! `/publish-delta`, `/commit-epoch`). A `ShardRouter<HttpTransport>` in the parent process
//! fans documents out over real localhost TCP, checks the answers against
//! an in-process `ShardRouter<LocalTransport>` reference, performs a
//! remote all-or-nothing epoch publication, and shuts the fleet down.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example saber_shardd
//! ```
//!
//! The same binary *is* the shard daemon: the parent re-invokes itself as
//!
//! ```text
//! saber_shardd --shard <snapshot-file> <global-start> <global-end>
//! ```
//!
//! which is exactly how you would run real shards on real machines (one
//! snapshot slice file and one listening address per host).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use saberlda::serve::{
    FoldInKind, FoldInParams, HttpConfig, HttpServer, HttpTransport, InferenceSnapshot,
    ServeConfig, ShardPlan, ShardRouter, TopicServer,
};
use saberlda::LdaModel;

const VOCAB: usize = 120;
const K: usize = 8;
const N_SHARDS: usize = 2;

/// The one serving configuration shared by every shard process and the
/// router — fold-in parameters must agree across the fleet (the router
/// refuses a shard that disagrees).
fn serve_config() -> ServeConfig {
    ServeConfig {
        n_workers: 2,
        fold_in: FoldInParams {
            kind: FoldInKind::Em,
            ..FoldInParams::default()
        },
        ..ServeConfig::default()
    }
}

/// A deterministic "trained" model: every word mixes two topics so the
/// differential check exercises real cross-shard mass.
fn model(shift: usize) -> LdaModel {
    let mut model = LdaModel::new(VOCAB, K, 0.08, 0.01).unwrap();
    for v in 0..VOCAB {
        model.word_topic_mut()[(v, (v + shift) % K)] = 30;
        model.word_topic_mut()[(v, (v + shift + 1) % K)] = 10 + (v % 7) as u32;
    }
    model.refresh_probabilities();
    model
}

/// Shard-daemon mode: boot from the snapshot file and serve until killed.
fn run_shard(snapshot_path: &str, start: u32, end: u32) -> Result<(), Box<dyn std::error::Error>> {
    let snapshot = InferenceSnapshot::load_file(snapshot_path)?;
    let server = Arc::new(TopicServer::start(snapshot, serve_config())?);
    let http = HttpServer::bind(
        "127.0.0.1:0",
        server,
        None,
        HttpConfig {
            shard_range: Some((start, end)),
            ..HttpConfig::default()
        },
    )?;
    // The parent parses this line to learn the OS-assigned port.
    println!("LISTENING {}", http.local_addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

struct ShardChild {
    process: Child,
    addr: String,
}

impl Drop for ShardChild {
    /// Kill-on-drop: a failed differential check (or any early `?`) must
    /// not orphan shard processes that would otherwise sleep forever —
    /// the CI smoke run relies on unconditional cleanup.
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

fn spawn_shard(snapshot_path: &std::path::Path, start: u32, end: u32) -> ShardChild {
    let exe = std::env::current_exe().expect("own executable path");
    let mut process = Command::new(exe)
        .arg("--shard")
        .arg(snapshot_path)
        .arg(start.to_string())
        .arg(end.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("failed to spawn shard process");
    let stdout = process.stdout.take().expect("child stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("shard exited before listening")
            .expect("shard stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    ShardChild { process, addr }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--shard") {
        let (path, start, end) = (&args[2], args[3].parse()?, args[4].parse()?);
        return run_shard(path, start, end);
    }

    // 1. "Train" a model and cut the plan.
    let plan = ShardPlan::uniform(VOCAB, N_SHARDS)?;
    let snapshot = InferenceSnapshot::from_model(&model(0), serve_config().sampler);
    println!(
        "model: V = {VOCAB}, K = {K}; plan: {} shards of ~{} words",
        plan.n_shards(),
        VOCAB / N_SHARDS
    );

    // 2. Persist one snapshot slice per shard — what you would ship to
    //    each machine — and spawn one shard process per slice.
    let dir = std::env::temp_dir().join(format!("saber_shardd_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut children = Vec::new();
    for (s, range) in plan.ranges().enumerate() {
        let path = dir.join(format!("shard-{s}.snap"));
        snapshot.shard(range.clone()).save_file(&path)?;
        let child = spawn_shard(&path, range.start, range.end);
        println!(
            "  shard {s}: words {}..{} -> pid {} on {}",
            range.start,
            range.end,
            child.process.id(),
            child.addr
        );
        children.push(child);
    }

    // 3. A router over HTTP transports, plus an in-process reference.
    let transports = children
        .iter()
        .map(|c| HttpTransport::connect(c.addr.as_str()))
        .collect::<Result<Vec<_>, _>>()?;
    let remote = ShardRouter::with_transports(plan.clone(), transports, serve_config())?;
    let reference = ShardRouter::start(snapshot, plan, serve_config())?;

    // 4. Differential check: EM fan-out over TCP is bit-identical to the
    //    in-process fleet (θ and partial counts round-trip JSON exactly).
    let docs: Vec<Vec<u32>> = (0..8)
        .map(|i| (0..20).map(|j| ((i * 31 + j * 7) % VOCAB) as u32).collect())
        .collect();
    for (i, doc) in docs.iter().enumerate() {
        let a = reference.infer_with_deadline(doc.clone(), i as u64, Duration::MAX)?;
        let b = remote.infer_with_deadline(doc.clone(), i as u64, Duration::MAX)?;
        assert_eq!(
            a.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "remote fan-out diverged from the in-process fleet"
        );
    }
    println!(
        "remote == local on {} documents (bit-identical EM)",
        docs.len()
    );

    // 5. Remote epoch publication: stage + commit over the wire, all or
    //    nothing. Both fleets move from epoch 1 to 2 in lockstep.
    let refreshed = InferenceSnapshot::from_model(&model(1), serve_config().sampler);
    let epoch = remote.publish(refreshed.clone())?;
    reference.publish(refreshed)?;
    let after = remote.infer_with_deadline(docs[0].clone(), 99, Duration::MAX)?;
    println!(
        "published epoch {epoch} over HTTP; next answer served from epoch {}",
        after.snapshot_version
    );
    assert_eq!(after.snapshot_version, 2);

    // 6. Fleet-wide observability through the same transports.
    let merged = remote.stats();
    let routed = remote.router_stats();
    println!(
        "routed {} documents as {:?} shard requests ({} total, {} transport retries)",
        routed.requests, routed.shard_requests, merged.requests, routed.transport_retries
    );

    // 7. Clean shutdown: close the transports, then stop the shard
    //    processes (kill-on-drop) and remove their slice files.
    remote.shutdown();
    reference.shutdown();
    for (s, child) in children.into_iter().enumerate() {
        drop(child);
        println!("  shard {s} stopped");
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("fleet drained and shut down cleanly");
    Ok(())
}
