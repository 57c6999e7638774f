//! Deterministic-replay differential suite for the loadgen harness
//! (ISSUE 8): replay must be a *measurement* tool, not a noise source, so
//! the θ a replay produces is pinned bit-for-bit across runs and
//! topologies.
//!
//! Contracts:
//!
//! * the same synthetic trace replayed twice against direct serving is
//!   bit-identical in θ — per-request seeds, not wall-clock, drive
//!   sampling;
//! * direct serving vs a one-shard router replay bit-identically under
//!   concurrent load ([`derive_shard_seed`] keeps shard 0's seed equal to
//!   the raw request seed);
//! * a two-shard router answers every request and is transport-agnostic:
//!   in-process shards vs shards behind real-TCP HTTP listeners replay
//!   bit-identically (same plan, same per-shard seeds);
//! * a trace recorded at the HTTP ingress replays the same θ as the
//!   requests that produced it.

use std::time::Duration;

use saber_loadgen::replay::{
    record_over_http, replay, replay_model, RateProfile, ReplayConfig, Topology, TopologyHandle,
};
use saber_loadgen::synth::synthesize_trace;
use saber_loadgen::trace::RequestTrace;
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::ServeConfig;

const K: usize = 8;
const MODEL_SEED: u64 = 7;

fn test_trace(n: usize, seed: u64) -> RequestTrace {
    synthesize_trace(&SyntheticSpec::small_test(), n, seed)
}

/// Flat-out replay config collecting θ, with enough threads to create
/// genuine interleaving.
fn differential_config() -> ReplayConfig {
    ReplayConfig {
        threads: 4,
        deadline: Duration::from_secs(10),
        collect_thetas: true,
    }
}

fn replay_thetas(topology: Topology, trace: &RequestTrace) -> Vec<Option<Vec<u32>>> {
    let model = replay_model(trace.vocab_size() as usize, K, MODEL_SEED).unwrap();
    let handle = TopologyHandle::build(topology, &model, &ServeConfig::default()).unwrap();
    let outcome = replay(
        &handle.backend(),
        trace,
        &RateProfile::Fixed { qps: 50_000.0 },
        &differential_config(),
    );
    handle.shutdown();
    assert_eq!(
        outcome.ok, outcome.requests,
        "replay on {topology:?} dropped requests: {outcome:?}"
    );
    outcome.thetas.expect("collect_thetas was set")
}

#[test]
fn same_trace_twice_direct_is_bit_identical() {
    let trace = test_trace(120, 0xDECAF);
    let first = replay_thetas(Topology::Direct, &trace);
    let second = replay_thetas(Topology::Direct, &trace);
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert_eq!(a, b, "request {i} differed between identical replays");
        assert!(a.is_some(), "request {i} has no θ");
    }
}

#[test]
fn direct_vs_one_shard_router_is_bit_identical_under_load() {
    let trace = test_trace(120, 0xBEEF);
    let direct = replay_thetas(Topology::Direct, &trace);
    let routed = replay_thetas(Topology::LocalShards(1), &trace);
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
    // `replay_thetas` fails if either topology drops a request.
    let local = replay_thetas(Topology::LocalShards(2), &trace);
    let remote = replay_thetas(Topology::RemoteShards(2), &trace);
    assert_eq!(local.len(), trace.len());
    for (i, (a, b)) in local.iter().zip(remote.iter()).enumerate() {
        assert_eq!(a, b, "request {i} differed between local:2 and remote:2");
    }
}

#[test]
fn synthetic_trace_bytes_are_reproducible() {
    let a = test_trace(60, 123).encode();
    let b = test_trace(60, 123).encode();
    assert_eq!(a, b, "synthesis is not deterministic");
    // And survive a file round-trip untouched.
    let path =
        std::env::temp_dir().join(format!("saber_loadgen_rt_{}.sabrtrace", std::process::id()));
    let trace = test_trace(60, 123);
    trace.save(&path).unwrap();
    let loaded = RequestTrace::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, trace);
    assert_eq!(loaded.encode(), a);
}

#[test]
fn recorded_trace_replays_what_was_sent() {
    let trace = test_trace(40, 0xFACE);
    let model = replay_model(trace.vocab_size() as usize, K, MODEL_SEED).unwrap();
    let recorded = record_over_http(&trace, &model, &ServeConfig::default(), 40).unwrap();

    // The capture preserves request content and order exactly; offsets are
    // the server's own arrival clock, so they must be non-decreasing.
    assert_eq!(recorded.len(), 40);
    assert_eq!(recorded.vocab_size(), trace.vocab_size());
    for (i, (sent, captured)) in trace
        .requests()
        .iter()
        .zip(recorded.requests().iter())
        .enumerate()
    {
        assert_eq!(
            captured.words, sent.words,
            "request {i} words changed in capture"
        );
        assert_eq!(
            captured.seed, sent.seed,
            "request {i} seed changed in capture"
        );
    }
    assert!(
        recorded
            .requests()
            .windows(2)
            .all(|w| w[0].offset_micros <= w[1].offset_micros),
        "recorded offsets are not monotone"
    );

    // Replaying the capture answers bit-identically to replaying the
    // original prefix: the recorder lost nothing that matters to θ.
    let original = replay_thetas(Topology::Direct, &trace);
    let from_capture = replay_thetas(Topology::Direct, &recorded);
    for (i, (a, b)) in original.iter().zip(from_capture.iter()).enumerate() {
        assert_eq!(
            a, b,
            "request {i} differed between original and recorded replay"
        );
    }
}
