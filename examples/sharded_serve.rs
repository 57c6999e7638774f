//! Sharded serving demo: split a model across a fleet of `TopicServer`s by
//! memory budget, route documents through a merging `ShardRouter`, verify
//! the answers against an unsharded server, and hot-swap the entire shard
//! set atomically.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sharded_serve
//! ```

use std::sync::Arc;

use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    FoldInKind, FoldInParams, ServeConfig, ShardPlan, ShardRouter, SnapshotSampler, TopicServer,
};
use saberlda::{InferenceSnapshot, SaberLda, SaberLdaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const K: usize = 16;
    const VOCAB: usize = 3000;

    // 1. Train a model big enough that sharding is worth demonstrating.
    let corpus = SyntheticSpec {
        n_docs: 600,
        vocab_size: VOCAB,
        mean_doc_len: 80.0,
        n_topics: K,
        ..SyntheticSpec::default()
    }
    .generate(17);
    let config = SaberLdaConfig::builder()
        .n_topics(K)
        .n_iterations(8)
        .seed(5)
        .build()?;
    let mut lda = SaberLda::new(config, &corpus)?;
    lda.train();

    // 2. Size the snapshot and cut a plan: pretend each worker pool may
    //    spend at most a quarter of the full model's footprint.
    let sampler = SnapshotSampler::WaryTree;
    let full = InferenceSnapshot::from_model(lda.model(), sampler);
    let budget = full.memory_bytes() / 4 + 1;
    let plan = ShardPlan::by_budget(VOCAB, K, sampler, budget)?;
    println!(
        "full snapshot ~{:.0} KB; budget {:.0} KB/shard -> {} shards",
        full.memory_bytes() as f64 / 1024.0,
        budget as f64 / 1024.0,
        plan.n_shards()
    );
    for s in 0..plan.n_shards() {
        let range = plan.range(s);
        println!(
            "  shard {s}: words {}..{} (~{:.0} KB)",
            range.start,
            range.end,
            plan.shard_bytes(s, K, sampler) as f64 / 1024.0
        );
    }

    // 3. Stand up the fleet under the exact (EM) merge, plus an unsharded
    //    reference server to check equivalence against.
    let serve_config = ServeConfig {
        n_workers: 2,
        fold_in: FoldInParams {
            kind: FoldInKind::Em,
            ..FoldInParams::default()
        },
        ..ServeConfig::default()
    };
    let router = Arc::new(ShardRouter::start(full, plan, serve_config)?);
    let reference = TopicServer::from_model(lda.model(), serve_config)?;

    // 4. Concurrent traffic through the router, with a live equivalence
    //    check: sharded θ must match unsharded θ to 1e-5 L∞.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let router = Arc::clone(&router);
            let docs: Vec<Vec<u32>> = (0..40)
                .map(|i| {
                    corpus
                        .document((c * 40 + i) % corpus.n_docs())
                        .words()
                        .to_vec()
                })
                .collect();
            std::thread::spawn(move || {
                for (i, doc) in docs.into_iter().enumerate() {
                    let response = router
                        .infer_topics(doc, (c * 1000 + i) as u64)
                        .expect("routing failed");
                    assert_eq!(response.theta.len(), K);
                }
            })
        })
        .collect();
    let mut worst = 0.0f32;
    for (i, doc_id) in [0usize, 7, 23, 99].into_iter().enumerate() {
        let doc = corpus.document(doc_id).words().to_vec();
        let sharded = router.infer_topics(doc.clone(), i as u64)?;
        let direct = reference.infer_topics(doc, i as u64)?;
        let linf = sharded
            .theta
            .iter()
            .zip(direct.theta.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        worst = worst.max(linf);
        assert!(linf <= 1e-5, "sharded inference diverged: L∞ = {linf}");
    }
    for client in clients {
        client.join().unwrap();
    }
    println!("sharded == unsharded on sampled documents (worst L∞ = {worst:.2e})");

    // 5. Whole-shard-set hot swap: keep training, publish once — every
    //    shard moves to the next epoch together, and no in-flight answer
    //    mixes the two model versions.
    for _ in 0..4 {
        lda.iterate();
    }
    let epoch = router.publish_model(lda.model())?;
    let after = router.infer_topics(corpus.document(1).words().to_vec(), 7)?;
    println!(
        "published epoch {epoch} to all {} shards; next answer served from epoch {}",
        router.n_shards(),
        after.snapshot_version
    );

    // 6. Aggregated observability: per-shard counters merge into one view
    //    (histograms included), plus router-level epoch/retry counters.
    let merged = router.stats();
    let routed = router.router_stats();
    println!(
        "routed {} documents as {} shard requests (p50 {:.0} µs, p99 {:.0} µs, {} transport retries)",
        routed.requests,
        merged.requests,
        merged.latency.p50().unwrap_or(0.0),
        merged.latency.p99().unwrap_or(0.0),
        routed.transport_retries
    );
    for (s, stats) in router.shard_stats().into_iter().enumerate() {
        println!(
            "  shard {s}: {} requests, {} tokens, mean batch {:.1}",
            stats.requests,
            stats.tokens,
            stats.mean_batch_size()
        );
    }

    reference.shutdown();
    Arc::try_unwrap(router)
        .expect("all clients joined")
        .shutdown();
    println!("fleet drained and shut down cleanly");
    Ok(())
}
