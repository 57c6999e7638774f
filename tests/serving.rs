//! End-to-end serving: train → publish → concurrent inference, with
//! deterministic replay and a mid-stream hot snapshot swap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    FoldInParams, InferenceBackend, Publication, ServeConfig, SnapshotSampler, TopicServer,
};
use saberlda::{InferenceSnapshot, LdaModel, SaberLda, SaberLdaConfig};

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

/// A document drawn purely from the words topic `k` owns (at `shift` 0).
fn planted_doc(k: usize, len: usize) -> Vec<u32> {
    (0..len)
        .map(|i| (k + K * (i % (VOCAB / K))) as u32)
        .collect()
}

fn server(n_workers: usize, sampler: SnapshotSampler) -> TopicServer {
    TopicServer::from_model(
        &planted_model(0),
        ServeConfig {
            n_workers,
            sampler,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn trained_model_snapshot_recovers_planted_topics() {
    // Train on a corpus with planted structure, then serve the *trained*
    // model and check inference agrees with training's own view of B̂.
    let corpus = SyntheticSpec {
        n_docs: 200,
        vocab_size: 120,
        mean_doc_len: 40.0,
        n_topics: K,
        ..SyntheticSpec::default()
    }
    .generate(5);
    let config = SaberLdaConfig::builder()
        .n_topics(K)
        .n_iterations(15)
        .seed(1)
        .build()
        .unwrap();
    let mut lda = SaberLda::new(config, &corpus).unwrap();
    lda.train();

    let server = TopicServer::from_model(lda.model(), ServeConfig::default()).unwrap();
    // For each topic, a document made of that topic's top trained words must
    // come back dominated by it.
    for k in 0..K {
        let words: Vec<u32> = lda
            .model()
            .top_words(k, 8)
            .into_iter()
            .flat_map(|(w, _)| [w, w])
            .collect();
        let response = server
            .infer_with_deadline(words, 17, Duration::MAX)
            .unwrap();
        assert_eq!(
            response.dominant_topic(),
            k,
            "topic {k}: theta = {:?}",
            response.theta
        );
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_recover_planted_topics_from_four_threads() {
    for sampler in [SnapshotSampler::WaryTree, SnapshotSampler::AliasTable] {
        let server = Arc::new(server(4, sampler));
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let topic = (c + i) % K;
                        let response = server
                            .infer_with_deadline(
                                planted_doc(topic, 12),
                                (c * 100 + i) as u64,
                                Duration::MAX,
                            )
                            .unwrap();
                        assert_eq!(
                            response.dominant_topic(),
                            topic,
                            "{sampler:?}: client {c} request {i}: theta = {:?}",
                            response.theta
                        );
                        assert!(response.theta[topic] > 0.5);
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        let stats = Arc::try_unwrap(server)
            .map(|s| {
                let stats = s.stats();
                s.shutdown();
                stats
            })
            .expect("all clients joined");
        assert_eq!(stats.requests, 100);
        assert_eq!(stats.tokens, 100 * 12);
        assert!(stats.batches >= 1 && stats.batches <= 100);
    }
}

/// A soft model — every word split between two topics — so inference
/// genuinely depends on the sampling stream (the peaked planted model pins
/// every token and answers identically under any seed).
fn soft_model() -> LdaModel {
    let mut model = LdaModel::new(VOCAB, K, 0.5, 0.01).unwrap();
    for v in 0..VOCAB {
        model.word_topic_mut()[(v, v % K)] = 3;
        model.word_topic_mut()[(v, (v + 1) % K)] = 2;
    }
    model.refresh_probabilities();
    model
}

#[test]
fn fixed_seed_is_bit_identical_across_batch_shapes_and_threads() {
    let server = Arc::new(
        TopicServer::from_model(
            &soft_model(),
            ServeConfig {
                n_workers: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap(),
    );
    let words: Vec<u32> = vec![0, 1, 2, 3, 8, 9, 10, 11, 0, 5];
    let reference = server
        .infer_with_deadline(words.clone(), 1234, Duration::MAX)
        .unwrap();

    // Same request replayed alone, inside a large mixed burst (24 requests
    // in flight at once), and from multiple threads at once: the θ bits
    // never change.
    let in_batch: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24)
            .map(|i| {
                let (server, words) = (&server, &words);
                scope.spawn(move || {
                    if i == 13 {
                        server.infer_with_deadline(words.clone(), 1234, Duration::MAX)
                    } else {
                        server.infer_with_deadline(planted_doc(i % K, 9), i as u64, Duration::MAX)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect()
    });
    assert_eq!(in_batch[13].theta, reference.theta);

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let words = words.clone();
            let expected = reference.theta.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let response = server
                        .infer_with_deadline(words.clone(), 1234, Duration::MAX)
                        .unwrap();
                    let got: Vec<u32> = response.theta.iter().map(|x| x.to_bits()).collect();
                    let want: Vec<u32> = expected.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "replay diverged");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // A different seed on the same ambiguous document differs.
    let other = server
        .infer_with_deadline(words, 1235, Duration::MAX)
        .unwrap();
    assert_ne!(other.theta, reference.theta);
}

#[test]
fn mid_stream_snapshot_swap_is_observed_by_subsequent_requests() {
    let server = Arc::new(server(4, SnapshotSampler::WaryTree));
    let doc = planted_doc(0, 12);

    // Before the swap: version 1, dominant topic 0.
    let before = server
        .infer_with_deadline(doc.clone(), 9, Duration::MAX)
        .unwrap();
    assert_eq!(before.snapshot_version, 1);
    assert_eq!(before.dominant_topic(), 0);

    // Client threads hammer the server while the main thread publishes a
    // shifted model (word v moves to topic (v+1) % K) mid-stream. Every
    // response must be consistent: v1 answers say topic 0, v2 answers say
    // topic 1 — never a torn mixture. Each client keeps requesting until it
    // has seen the swap (bounded so a regression fails rather than hangs).
    let published = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let doc = doc.clone();
            let published = Arc::clone(&published);
            std::thread::spawn(move || {
                for i in 0..100_000u64 {
                    let response = server
                        .infer_with_deadline(doc.clone(), i, Duration::MAX)
                        .unwrap();
                    match response.snapshot_version {
                        1 => assert_eq!(response.dominant_topic(), 0),
                        2 => {
                            assert!(
                                published.load(Ordering::SeqCst) == 2,
                                "served v2 before it was published"
                            );
                            assert_eq!(
                                response.dominant_topic(),
                                1,
                                "v2 answer must follow the swapped model: {:?}",
                                response.theta
                            );
                            return true;
                        }
                        v => panic!("unexpected snapshot version {v}"),
                    }
                }
                false
            })
        })
        .collect();

    // Let some v1 traffic through, then swap.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let snapshot = InferenceSnapshot::from_model(&planted_model(1), SnapshotSampler::WaryTree);
    published.store(2, Ordering::SeqCst);
    server.stage(2, Publication::Slice(snapshot)).unwrap();
    assert_eq!(server.commit(2).unwrap(), 2);

    let exits: Vec<bool> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        exits.iter().all(|&saw| saw),
        "not every client observed the swapped snapshot"
    );

    // After the dust settles every new request is served from v2.
    let after = server.infer_with_deadline(doc, 77, Duration::MAX).unwrap();
    assert_eq!(after.snapshot_version, 2);
    assert_eq!(after.dominant_topic(), 1);
}

#[test]
fn fold_in_params_trade_quality_for_latency() {
    // More sweeps sharpen θ on planted documents; the contract here is just
    // that both settings serve correct answers through the public API.
    let model = planted_model(0);
    for fold_in in [
        FoldInParams {
            burn_in: 1,
            samples: 1,
            ..FoldInParams::default()
        },
        FoldInParams {
            burn_in: 8,
            samples: 16,
            ..FoldInParams::default()
        },
    ] {
        let server = TopicServer::start(
            InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree),
            ServeConfig {
                n_workers: 2,
                fold_in,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let response = server
            .infer_with_deadline(planted_doc(2, 16), 3, Duration::MAX)
            .unwrap();
        assert_eq!(response.dominant_topic(), 2);
        server.shutdown();
    }
}
