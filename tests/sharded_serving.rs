//! Differential tests proving sharded serving equivalent to unsharded
//! serving.
//!
//! The contract under test (ISSUE 4): a [`ShardRouter`] fronting N
//! vocabulary shards must answer exactly like one [`TopicServer`] over the
//! whole model —
//!
//! * with **one shard**, bit-identically (both fold-in kinds);
//! * with **N shards under EM fold-in**, within 1e-5 L∞ (the merge math is
//!   exact; only floating-point summation order differs);
//! * with **N shards under ESCA fold-in**, statistically (independent
//!   per-shard Gibbs chains approximate the cross-shard coupling);
//! * and across a **whole-shard-set hot swap**, without any answer ever
//!   mixing two snapshot versions.
//!
//! A synthetic request trace sent from four threads at once is answered
//! bit-identically by two fresh direct servers, by direct serving and a
//! one-shard router ([`derive_shard_seed`] keeps shard 0's seed equal to
//! the request seed), and by a two-shard router over in-process shards and
//! over shards behind real-TCP HTTP listeners.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use saber_loadgen::{synthesize_trace, RequestTrace};
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    derive_shard_seed, FoldInKind, FoldInParams, InferenceBackend, ServeConfig, ShardPlan,
    ShardRouter, SnapshotSampler, TopicServer,
};
use saberlda::{InferenceSnapshot, LdaModel};

mod common;
use common::{
    bits, config, linf, planted_model, random_doc, random_model, send_requests, spawn_shard_fleet,
    K, VOCAB,
};

#[test]
fn one_shard_router_is_bit_identical_to_direct_serving() {
    // The headline single-shard guarantee, for random corpora and seeds:
    // routing through ShardPlan::single + partial fold-in + merge + finish
    // must reproduce the direct server's bytes under BOTH fold-in kinds.
    for kind in [FoldInKind::Esca, FoldInKind::Em] {
        for model_seed in [1u64, 2, 3] {
            let model = random_model(VOCAB, K, model_seed);
            let direct = TopicServer::from_model(&model, config(kind)).unwrap();
            let routed =
                ShardRouter::from_model(&model, ShardPlan::single(VOCAB).unwrap(), config(kind))
                    .unwrap();
            let mut rng = StdRng::seed_from_u64(100 + model_seed);
            for request_seed in 0..8u64 {
                let doc = random_doc(&mut rng, 3 + (request_seed as usize) * 4);
                let a = direct
                    .infer_with_deadline(doc.clone(), request_seed, Duration::MAX)
                    .unwrap();
                let b = routed
                    .infer_with_deadline(doc, request_seed, Duration::MAX)
                    .unwrap();
                assert_eq!(
                    bits(&a.theta),
                    bits(&b.theta),
                    "{kind:?} model {model_seed} seed {request_seed}: \
                     1-shard router diverged from direct serving"
                );
                assert_eq!(a.snapshot_version, b.snapshot_version);
                assert_eq!(a.n_oov, b.n_oov);
            }
            direct.shutdown();
            routed.shutdown();
        }
    }
}

#[test]
fn n_shard_em_matches_unsharded_within_1e5_linf() {
    // The exact-merge guarantee across ≥ 3 shard counts: EM fold-in over
    // 2, 3, 5 and 7 shards agrees with the unsharded server to 1e-5 L∞
    // for the same request seed (EM is seed-independent, but the request
    // path still carries the seed end to end).
    let model = random_model(VOCAB, K, 7);
    let direct = TopicServer::from_model(&model, config(FoldInKind::Em)).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let docs: Vec<Vec<u32>> = (0..6).map(|i| random_doc(&mut rng, 4 + i * 5)).collect();
    let references: Vec<Vec<f32>> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            direct
                .infer_with_deadline(doc.clone(), i as u64, Duration::MAX)
                .unwrap()
                .theta
        })
        .collect();
    for n_shards in [2usize, 3, 5, 7] {
        let routed = ShardRouter::from_model(
            &model,
            ShardPlan::uniform(VOCAB, n_shards).unwrap(),
            config(FoldInKind::Em),
        )
        .unwrap();
        for (i, doc) in docs.iter().enumerate() {
            let response = routed
                .infer_with_deadline(doc.clone(), i as u64, Duration::MAX)
                .unwrap();
            let err = linf(&references[i], &response.theta);
            assert!(
                err <= 1e-5,
                "{n_shards} shards, doc {i}: L∞ = {err} exceeds 1e-5\n\
                 unsharded: {:?}\n  sharded: {:?}",
                references[i],
                response.theta
            );
        }
        routed.shutdown();
    }
    direct.shutdown();
}

#[test]
fn n_shard_esca_agrees_statistically_with_unsharded() {
    // Independent per-shard chains lose cross-shard coupling, so ESCA
    // sharding is approximate; with a generous measurement budget the
    // merged posterior mean must still land close and keep the ranking.
    let model = planted_model(0);
    let heavy = ServeConfig {
        fold_in: FoldInParams {
            burn_in: 10,
            samples: 60,
            kind: FoldInKind::Esca,
        },
        ..ServeConfig::default()
    };
    let direct = TopicServer::from_model(&model, heavy).unwrap();
    for n_shards in [2usize, 3, 4] {
        let routed =
            ShardRouter::from_model(&model, ShardPlan::uniform(VOCAB, n_shards).unwrap(), heavy)
                .unwrap();
        for topic in 0..K {
            // A document drawn from one topic's words, spread over shards.
            let doc: Vec<u32> = (0..12).map(|i| (topic + K * (i % 6)) as u32).collect();
            let a = direct
                .infer_with_deadline(doc.clone(), topic as u64, Duration::MAX)
                .unwrap();
            let b = routed
                .infer_with_deadline(doc, topic as u64, Duration::MAX)
                .unwrap();
            assert_eq!(a.dominant_topic(), topic);
            assert_eq!(
                b.dominant_topic(),
                topic,
                "{n_shards} shards: sharded ESCA lost the dominant topic"
            );
            let err = linf(&a.theta, &b.theta);
            assert!(
                err < 0.05,
                "{n_shards} shards topic {topic}: L∞ = {err}\n\
                 unsharded: {:?}\n  sharded: {:?}",
                a.theta,
                b.theta
            );
        }
        routed.shutdown();
    }
    direct.shutdown();
}

#[test]
fn esca_shard_seeds_derive_from_the_request_seed() {
    // Replaying a request against a multi-shard ESCA router is
    // bit-identical (per-shard seeds are pure functions of the request
    // seed), and changing the request seed changes the per-shard seeds.
    let model = random_model(VOCAB, K, 4);
    let routed = ShardRouter::from_model(
        &model,
        ShardPlan::uniform(VOCAB, 3).unwrap(),
        config(FoldInKind::Esca),
    )
    .unwrap();
    let doc: Vec<u32> = vec![0, 21, 41, 59, 5, 25, 45, 0, 21];
    let a = routed
        .infer_with_deadline(doc.clone(), 1234, Duration::MAX)
        .unwrap();
    let b = routed
        .infer_with_deadline(doc.clone(), 1234, Duration::MAX)
        .unwrap();
    assert_eq!(bits(&a.theta), bits(&b.theta), "replay diverged");
    let c = routed
        .infer_with_deadline(doc, 1235, Duration::MAX)
        .unwrap();
    assert_ne!(a.theta, c.theta, "different seeds must differ");
    for s in 1..3 {
        assert_ne!(derive_shard_seed(1234, s), 1234);
    }
    routed.shutdown();
}

#[test]
fn mid_stream_shard_set_swap_never_serves_a_mixed_version_answer() {
    // Clients hammer a 3-shard EM router while the main thread publishes a
    // shifted model. EM is deterministic per epoch, so every legal answer
    // equals one of two precomputed θ vectors bit-for-bit; an answer mixing
    // shard versions would match neither. Reference routers over the same
    // plan/config provide the per-epoch expectations (the EM trajectory
    // depends only on snapshot contents, split and merge order).
    let plan = || ShardPlan::uniform(VOCAB, 3).unwrap();
    let cfg = config(FoldInKind::Em);
    let doc: Vec<u32> = (0..24).map(|i| (i * 7 % VOCAB) as u32).collect();
    let seed = 5u64;

    let expected: Vec<Vec<u32>> = [planted_model(0), planted_model(1)]
        .iter()
        .map(|model| {
            let reference = ShardRouter::from_model(model, plan(), cfg).unwrap();
            let theta = bits(
                &reference
                    .infer_with_deadline(doc.clone(), seed, Duration::MAX)
                    .unwrap()
                    .theta,
            );
            reference.shutdown();
            theta
        })
        .collect();
    assert_ne!(expected[0], expected[1], "epochs must be distinguishable");

    let router = Arc::new(ShardRouter::from_model(&planted_model(0), plan(), cfg).unwrap());
    let published = Arc::new(AtomicU64::new(1));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let router = Arc::clone(&router);
            let doc = doc.clone();
            let published = Arc::clone(&published);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..50_000u64 {
                    let response = router
                        .infer_with_deadline(doc.clone(), seed, Duration::MAX)
                        .unwrap();
                    match response.snapshot_version {
                        1 => assert_eq!(
                            bits(&response.theta),
                            expected[0],
                            "epoch-1 answer diverged (mixed shard set?)"
                        ),
                        2 => {
                            assert!(
                                published.load(Ordering::SeqCst) == 2,
                                "served epoch 2 before it was published"
                            );
                            assert_eq!(
                                bits(&response.theta),
                                expected[1],
                                "epoch-2 answer diverged (mixed shard set?)"
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

    std::thread::sleep(std::time::Duration::from_millis(5));
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
    Arc::try_unwrap(router).unwrap().shutdown();
}

#[test]
fn budgeted_plan_serves_within_its_per_shard_budget() {
    // End to end: cut the model by a byte budget, serve through the
    // resulting fleet, and verify both the answers and the budget.
    let model = random_model(VOCAB, K, 11);
    let sampler = SnapshotSampler::WaryTree;
    let full = InferenceSnapshot::from_model(&model, sampler);
    let budget = full.memory_bytes() / 4 + 1;
    let plan = ShardPlan::by_budget(VOCAB, K, sampler, budget).unwrap();
    assert!(plan.n_shards() >= 4, "plan = {plan:?}");
    for s in 0..plan.n_shards() {
        assert!(plan.shard_bytes(s, K, sampler) <= budget);
        assert!(full.shard(plan.range(s)).memory_bytes() <= budget);
    }
    let direct = TopicServer::from_model(&model, config(FoldInKind::Em)).unwrap();
    let routed = ShardRouter::from_model(&model, plan, config(FoldInKind::Em)).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for seed in 0..4u64 {
        let doc = random_doc(&mut rng, 15);
        let a = direct
            .infer_with_deadline(doc.clone(), seed, Duration::MAX)
            .unwrap();
        let b = routed
            .infer_with_deadline(doc, seed, Duration::MAX)
            .unwrap();
        assert!(linf(&a.theta, &b.theta) <= 1e-5);
        assert_eq!(a.dominant_topic(), b.dominant_topic());
    }
    direct.shutdown();
    routed.shutdown();
}

#[test]
fn raw_token_documents_route_identically() {
    // Raw tokens are encoded against the FULL vocabulary before the router
    // splits the ids, so θ matches the direct server and no shard drops a
    // word.
    let model = random_model(VOCAB, K, 13);
    let vocab = saberlda::corpus::Vocabulary::synthetic(VOCAB);
    let direct = TopicServer::from_model(&model, config(FoldInKind::Em)).unwrap();
    let routed = ShardRouter::from_model(
        &model,
        ShardPlan::uniform(VOCAB, 3).unwrap(),
        config(FoldInKind::Em),
    )
    .unwrap();
    let tokens = ["w00000", "unknown-token", "w00030", "w00059", "w00007"];
    let encoded = vocab
        .encode(tokens, saberlda::corpus::OovPolicy::Skip)
        .unwrap();
    assert_eq!(encoded.n_oov, 1);
    let a = direct
        .infer_with_deadline(encoded.ids.clone(), 8, Duration::MAX)
        .unwrap();
    let b = routed
        .infer_with_deadline(encoded.ids, 8, Duration::MAX)
        .unwrap();
    assert_eq!((a.n_oov, b.n_oov), (0, 0));
    assert!(linf(&a.theta, &b.theta) <= 1e-5);
    direct.shutdown();
    routed.shutdown();
}

// ---------------------------------------------------------------------------
// Synthetic traces under concurrent load, across topologies
// ---------------------------------------------------------------------------

fn test_trace(n: usize, seed: u64) -> RequestTrace {
    synthesize_trace(&SyntheticSpec::small_test(), n, seed)
}

/// The 8-topic random model every topology of a trace differential serves.
fn trace_model(trace: &RequestTrace) -> LdaModel {
    random_model(trace.vocab_size() as usize, 8, 7)
}

/// Every request's θ bits from `backend`, which must answer them all.
fn answered_thetas<B: InferenceBackend + ?Sized>(
    backend: &B,
    trace: &RequestTrace,
    topology: &str,
) -> Vec<Option<Vec<u32>>> {
    let outcomes = send_requests(backend, trace.requests(), None);
    let dropped = outcomes.iter().filter(|outcome| outcome.is_err()).count();
    assert_eq!(dropped, 0, "{topology} dropped requests: {outcomes:?}");
    outcomes.into_iter().map(Result::ok).collect()
}

fn direct_thetas(trace: &RequestTrace) -> Vec<Option<Vec<u32>>> {
    let server = TopicServer::from_model(&trace_model(trace), ServeConfig::default()).unwrap();
    let thetas = answered_thetas(&server, trace, "direct");
    server.shutdown();
    thetas
}

fn local_thetas(trace: &RequestTrace, n_shards: usize) -> Vec<Option<Vec<u32>>> {
    let model = trace_model(trace);
    let plan = ShardPlan::uniform(model.vocab_size(), n_shards).unwrap();
    let router = ShardRouter::from_model(&model, plan, ServeConfig::default()).unwrap();
    let thetas = answered_thetas(&router, trace, &format!("local:{n_shards}"));
    router.shutdown();
    thetas
}

fn remote_thetas(trace: &RequestTrace, n_shards: usize) -> Vec<Option<Vec<u32>>> {
    let model = trace_model(trace);
    let cfg = ServeConfig::default();
    let plan = ShardPlan::uniform(model.vocab_size(), n_shards).unwrap();
    let (shards, transports) = spawn_shard_fleet(&model, &plan, cfg);
    let router = ShardRouter::with_transports(plan, transports, cfg).unwrap();
    let thetas = answered_thetas(&router, trace, &format!("remote:{n_shards}"));
    router.shutdown();
    for shard in shards {
        shard.http.shutdown();
    }
    thetas
}

#[test]
fn same_trace_twice_direct_is_bit_identical() {
    let trace = test_trace(120, 0xDECAF);
    let first = direct_thetas(&trace);
    let second = direct_thetas(&trace);
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert_eq!(a, b, "request {i} differed between identical replays");
        assert!(a.is_some(), "request {i} has no θ");
    }
}

#[test]
fn direct_vs_one_shard_router_is_bit_identical_under_load() {
    let trace = test_trace(120, 0xBEEF);
    let direct = direct_thetas(&trace);
    let routed = local_thetas(&trace, 1);
    for (i, (a, b)) in direct.iter().zip(routed.iter()).enumerate() {
        assert_eq!(
            a, b,
            "request {i} differed between direct and 1-shard router"
        );
    }
}

#[test]
fn two_shard_router_is_bit_identical_across_transports() {
    let trace = test_trace(120, 0xC0FFEE);
    // `answered_thetas` fails if either topology drops a request.
    let local = local_thetas(&trace, 2);
    let remote = remote_thetas(&trace, 2);
    assert_eq!(local.len(), trace.len());
    for (i, (a, b)) in local.iter().zip(remote.iter()).enumerate() {
        assert_eq!(a, b, "request {i} differed between local:2 and remote:2");
    }
}
