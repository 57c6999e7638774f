//! Thread census (Linux): an `HttpTransport` does its I/O on the thread
//! that calls it, so building transports and routing through them starts
//! **no** thread on the router's side.
//!
//! A file of its own, so the process holds nothing but this test: the
//! stand-in shards run in-process here, and the only threads allowed to
//! appear are theirs — the per-connection `saber-http-conn` threads that
//! the router's dials make the shards' listeners spawn, which on a real
//! fleet live in other processes.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saberlda::serve::{FoldInKind, HttpTransport, ShardPlan, ShardRouter};

mod common;
use common::{config, random_doc, random_model, spawn_shard_fleet, K, VOCAB};

fn task_ids() -> BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn routing_over_http_transports_starts_no_thread_in_the_router() {
    let model = random_model(VOCAB, K, 3);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let (shards, _) = spawn_shard_fleet(&model, &plan, cfg);
    let before = task_ids();

    let transports: Vec<HttpTransport> = shards
        .iter()
        .map(|shard| HttpTransport::connect(shard.http.local_addr()).unwrap())
        .collect();
    let router = ShardRouter::with_transports(plan, transports, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    for seed in 0..200u64 {
        let doc = random_doc(&mut rng, 12);
        router
            .infer_with_deadline(doc, seed, Duration::MAX)
            .unwrap();
    }
    assert_eq!(router.router_stats().requests, 200);

    let started: Vec<String> = task_ids()
        .difference(&before)
        .map(|tid| std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap())
        .collect();
    assert!(
        started.iter().all(|comm| comm.trim() == "saber-http-conn"),
        "the router's side started threads: {started:?}"
    );
    router.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}
