//! Differential tests proving cross-machine sharding equivalent to
//! in-process sharding — over real localhost TCP.
//!
//! The contract under test (ISSUE 5): a `ShardRouter<HttpTransport>` whose
//! shards are separate HTTP servers must answer exactly like a
//! `ShardRouter<LocalTransport>` over the same plan —
//!
//! * with **one shard under ESCA**, bit-identically (the chain seed rides
//!   the wire untouched and `f64` counts round-trip exactly);
//! * with **N shards under EM**, within 1e-5 L∞ of the *direct* server
//!   (and, because the JSON codec round-trips `f64` exactly, bit-identical
//!   to the local router);
//! * and across a **remote epoch publication** (stage + commit over HTTP),
//!   without any answer ever mixing two snapshot versions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saberlda::serve::{
    FoldInKind, HttpConfig, HttpServer, HttpTransport, InferenceSnapshot, ServeError, ShardPlan,
    ShardRouter, SnapshotSampler, TopicServer,
};

mod common;
use common::{
    bits, config, linf, planted_model, random_doc, random_model, spawn_shard_fleet, ShardProcess,
    K, VOCAB,
};

#[test]
fn one_shard_esca_over_tcp_is_bit_identical_to_direct_serving() {
    // The headline acceptance test: ESCA through a single remote
    // shard reproduces the direct server's bytes — seed, chain and counts
    // all survive the wire exactly.
    for model_seed in [1u64, 2, 3] {
        let model = random_model(VOCAB, K, model_seed);
        let cfg = config(FoldInKind::Esca);
        let plan = ShardPlan::single(VOCAB).unwrap();
        let direct = TopicServer::from_model(&model, cfg).unwrap();
        let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
        let remote = ShardRouter::with_transports(plan, transports, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(100 + model_seed);
        for request_seed in 0..6u64 {
            let doc = random_doc(&mut rng, 3 + (request_seed as usize) * 4);
            let a = direct.infer_topics(doc.clone(), request_seed).unwrap();
            let b = remote.infer_topics(doc, request_seed).unwrap();
            assert_eq!(
                bits(&a.theta),
                bits(&b.theta),
                "model {model_seed} seed {request_seed}: remote 1-shard ESCA diverged"
            );
            assert_eq!(a.snapshot_version, b.snapshot_version);
            assert_eq!(a.n_oov, b.n_oov);
        }
        direct.shutdown();
        remote.shutdown();
        for shard in shards {
            shard.http.shutdown();
        }
    }
}

#[test]
fn n_shard_em_over_tcp_matches_local_routing_bit_for_bit() {
    // EM across ≥2 remote shards: within 1e-5 L∞ of the direct server
    // (the acceptance bound), and — stronger — bit-identical to the local
    // router, since θ and the partial counts round-trip the JSON codec
    // exactly and merge in the same shard order.
    let model = random_model(VOCAB, K, 7);
    let cfg = config(FoldInKind::Em);
    let direct = TopicServer::from_model(&model, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let docs: Vec<Vec<u32>> = (0..5).map(|i| random_doc(&mut rng, 4 + i * 5)).collect();
    for n_shards in [2usize, 3] {
        let plan = ShardPlan::uniform(VOCAB, n_shards).unwrap();
        let local = ShardRouter::from_model(&model, plan.clone(), cfg).unwrap();
        let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
        let remote = ShardRouter::with_transports(plan, transports, cfg).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            let reference = direct.infer_topics(doc.clone(), i as u64).unwrap();
            let via_local = local.infer_topics(doc.clone(), i as u64).unwrap();
            let via_tcp = remote.infer_topics(doc.clone(), i as u64).unwrap();
            let err = linf(&reference.theta, &via_tcp.theta);
            assert!(
                err <= 1e-5,
                "{n_shards} shards doc {i}: remote EM L∞ = {err} exceeds 1e-5"
            );
            assert_eq!(
                bits(&via_local.theta),
                bits(&via_tcp.theta),
                "{n_shards} shards doc {i}: remote EM diverged from local routing"
            );
            assert_eq!(via_local.n_oov, via_tcp.n_oov);
        }
        local.shutdown();
        remote.shutdown();
        for shard in shards {
            shard.http.shutdown();
        }
    }
    direct.shutdown();
}

#[test]
fn remote_epoch_swap_never_serves_a_mixed_version_answer() {
    // Clients hammer a 3-shard remote EM router while the main thread
    // publishes a shifted model THROUGH THE WIRE (stage + commit per
    // shard). EM is deterministic per epoch, so every legal answer equals
    // one of two precomputed θ vectors bit-for-bit; an answer mixing shard
    // epochs would match neither.
    let cfg = config(FoldInKind::Em);
    let plan = ShardPlan::uniform(VOCAB, 3).unwrap();
    let doc: Vec<u32> = (0..24).map(|i| (i * 7 % VOCAB) as u32).collect();
    let seed = 5u64;

    let expected: Vec<Vec<u32>> = [planted_model(0), planted_model(1)]
        .iter()
        .map(|model| {
            let reference = ShardRouter::from_model(model, plan.clone(), cfg).unwrap();
            let theta = bits(&reference.infer_topics(doc.clone(), seed).unwrap().theta);
            reference.shutdown();
            theta
        })
        .collect();
    assert_ne!(expected[0], expected[1], "epochs must be distinguishable");

    let (shards, transports) = spawn_shard_fleet(&planted_model(0), &plan, cfg);
    let router = Arc::new(ShardRouter::with_transports(plan, transports, cfg).unwrap());
    assert_eq!(router.epoch(), 1);
    let published = Arc::new(AtomicU64::new(1));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let router = Arc::clone(&router);
            let doc = doc.clone();
            let published = Arc::clone(&published);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000u64 {
                    let response = router.infer_topics(doc.clone(), seed).unwrap();
                    match response.snapshot_version {
                        1 => assert_eq!(
                            bits(&response.theta),
                            expected[0],
                            "epoch-1 answer diverged (mixed remote shard set?)"
                        ),
                        2 => {
                            assert!(
                                published.load(Ordering::SeqCst) == 2,
                                "served epoch 2 before it was published"
                            );
                            assert_eq!(
                                bits(&response.theta),
                                expected[1],
                                "epoch-2 answer diverged (mixed remote shard set?)"
                            );
                            return true;
                        }
                        v => panic!("unexpected epoch {v}"),
                    }
                }
                false
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(20));
    let snapshot = InferenceSnapshot::from_model(&planted_model(1), SnapshotSampler::WaryTree);
    published.store(2, Ordering::SeqCst);
    assert_eq!(router.publish(snapshot).unwrap(), 2);

    let exits: Vec<bool> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        exits.iter().all(|&saw| saw),
        "not every client observed the swapped shard set"
    );
    let stats = router.router_stats();
    assert_eq!(stats.epoch, 2);
    assert_eq!(stats.n_shards, 3);
    assert!(stats.shard_requests.iter().all(|&n| n > 0));
    Arc::try_unwrap(router).unwrap().shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}

#[test]
fn remote_fleet_stats_and_top_words_merge_like_local_ones() {
    let model = random_model(VOCAB, K, 11);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 3).unwrap();
    let local = ShardRouter::from_model(&model, plan.clone(), cfg).unwrap();
    let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
    let remote = ShardRouter::with_transports(plan, transports, cfg).unwrap();
    // Same global top-words merge through both transports.
    for k in 0..K {
        assert_eq!(
            local.top_words(k, 7).unwrap(),
            remote.top_words(k, 7).unwrap(),
            "topic {k} top-words diverged over the wire"
        );
    }
    assert!(matches!(
        remote.top_words(K, 3),
        Err(ServeError::BadRequest { .. })
    ));
    // Stats aggregate across remote shards, histograms included.
    for seed in 0..4 {
        remote.infer_topics(vec![0, 21, 41], seed).unwrap();
    }
    let merged = remote.stats();
    assert_eq!(merged.requests, 12, "3 shard requests per document");
    assert_eq!(merged.tokens, 12);
    assert_eq!(merged.latency.count(), 12);
    let per_shard = remote.shard_stats();
    assert_eq!(per_shard.len(), 3);
    assert!(per_shard.iter().all(|s| s.requests == 4));
    assert_eq!(remote.router_stats().shard_requests, vec![4, 4, 4]);
    local.shutdown();
    remote.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}

#[test]
fn fleet_validation_rejects_a_mismatched_remote_shard() {
    // A plan wider than the shard actually serving is caught at
    // construction, not at first divergent answer.
    let model = random_model(VOCAB, K, 2);
    let cfg = config(FoldInKind::Esca);
    let narrow_plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let (shards, transports) = spawn_shard_fleet(&model, &narrow_plan, cfg);
    // Feed those 2 transports to a 2-shard plan over a SMALLER vocabulary:
    // shard widths disagree with what the processes hold.
    let wrong_plan = ShardPlan::uniform(VOCAB - 10, 2).unwrap();
    match ShardRouter::with_transports(wrong_plan, transports, cfg) {
        Err(ServeError::InvalidConfig { detail }) => {
            assert!(detail.contains("words"), "detail was: {detail}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Fold-in disagreement is also caught: the shard processes serve ESCA
    // parameters, the router wants EM.
    let transports: Vec<HttpTransport> = shards
        .iter()
        .map(|s| HttpTransport::connect(s.http.local_addr()).unwrap())
        .collect();
    assert!(matches!(
        ShardRouter::with_transports(narrow_plan.clone(), transports, config(FoldInKind::Em)),
        Err(ServeError::InvalidConfig { .. })
    ));
    // A transport vector wired up in the WRONG ORDER: both shards are 30
    // words wide, so only the declared global ranges can catch the swap —
    // silently routing words 0..30 to the shard holding 30..60 would
    // produce wrong answers with no error.
    let reversed: Vec<HttpTransport> = shards
        .iter()
        .rev()
        .map(|s| HttpTransport::connect(s.http.local_addr()).unwrap())
        .collect();
    match ShardRouter::with_transports(narrow_plan, reversed, cfg) {
        Err(ServeError::InvalidConfig { detail }) => {
            assert!(detail.contains("global words"), "detail was: {detail}")
        }
        other => panic!("expected InvalidConfig for reversed transports, got {other:?}"),
    }
    for shard in shards {
        shard.http.shutdown();
    }
}

#[test]
fn a_shard_process_boots_from_a_saved_snapshot() {
    // The persistence satellite end to end: slice a snapshot, save it to
    // disk, boot a "shard process" from the file, and get bit-identical
    // fan-out answers.
    let model = random_model(VOCAB, K, 21);
    let cfg = config(FoldInKind::Esca);
    let plan = ShardPlan::uniform(VOCAB, 2).unwrap();
    let snapshot = InferenceSnapshot::from_model(&model, cfg.sampler);
    let dir = std::env::temp_dir().join("saberlda_remote_sharding_test");
    std::fs::create_dir_all(&dir).unwrap();

    let mut shards = Vec::new();
    let mut transports = Vec::new();
    for (s, range) in plan.ranges().enumerate() {
        let path = dir.join(format!("shard-{s}.snap"));
        snapshot.shard(range.clone()).save_file(&path).unwrap();
        let from_disk = InferenceSnapshot::load_file(&path).unwrap();
        let server = Arc::new(TopicServer::start(from_disk, cfg).unwrap());
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
        shards.push(ShardProcess { http });
        std::fs::remove_file(&path).ok();
    }
    let remote = ShardRouter::with_transports(plan.clone(), transports, cfg).unwrap();
    let local = ShardRouter::start(snapshot, plan, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    for seed in 0..4u64 {
        let doc = random_doc(&mut rng, 12);
        let a = local.infer_topics(doc.clone(), seed).unwrap();
        let b = remote.infer_topics(doc, seed).unwrap();
        assert_eq!(
            bits(&a.theta),
            bits(&b.theta),
            "disk-booted shard fleet diverged"
        );
    }
    local.shutdown();
    remote.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
}
