//! # saber-loadgen — trace-driven load tool for SaberLDA serving
//!
//! Records, synthesises and replays request traffic against the serving
//! stack, optionally while the fleet is being retrained or has replicas
//! killed underneath it. It is a *tool* — the differential suites under
//! `tests/` drive it to prove θ bit-identical across topologies — not a
//! measuring harness: performance claims are made with the `benchmark/`
//! crate (see `docs/BENCHMARKING.md`). Two stages plus one scenario:
//!
//! 1. **Traces** ([`mod@trace`]): the versioned `SABRTRACE` format — an
//!    ordered list of `(offset, seed, words)` requests. Traces are either
//!    *recorded* at the HTTP ingress (opt-in
//!    [`RequestRecorder`](saber_serve::RequestRecorder) hook on
//!    [`HttpConfig`](saber_serve::HttpConfig)) or *synthesised*
//!    deterministically from [`saber_corpus`] generators ([`mod@synth`]), so
//!    the same spec and seed produce the same bytes everywhere.
//! 2. **Replay** ([`mod@replay`]): an open-loop engine that drives a trace at
//!    a controlled rate (fixed, ramp, burst, or as recorded) against any
//!    of three topologies — a direct [`TopicServer`](saber_serve::TopicServer),
//!    a [`ShardRouter`](saber_serve::ShardRouter) over in-process shards,
//!    or a router over real-TCP HTTP shards. Per-request seeds make
//!    replays bit-deterministic in θ; a [`ReplayOutcome`] prints as one
//!    line of counts, achieved rate and loadgen-side p50/p99.
//! 3. **Serving while training** ([`mod@scenario`]): the same replay
//!    against a fleet a [`TrainingPipeline`](saber_pipeline::TrainingPipeline)
//!    is republishing mid-stream — zero drops across every epoch swap.
//!
//! The `saber-loadgen` CLI exposes these as `synth` / `replay` /
//! `serve-train`.
//!
//! # Example
//!
//! ```
//! use saber_loadgen::replay::{replay, RateProfile, ReplayConfig, Topology, TopologyHandle};
//! use saber_loadgen::synth::synthesize_trace;
//! use saber_corpus::synthetic::SyntheticSpec;
//! use saber_serve::ServeConfig;
//!
//! let trace = synthesize_trace(&SyntheticSpec::small_test(), 20, 42);
//! let model = saber_loadgen::replay::replay_model(trace.vocab_size() as usize, 8, 7)?;
//! let handle = TopologyHandle::build(Topology::Direct, &model, &ServeConfig::default())?;
//! let outcome = replay(
//!     &handle.backend(),
//!     &trace,
//!     &RateProfile::Fixed { qps: 2_000.0 },
//!     &ReplayConfig::default(),
//! );
//! assert_eq!(outcome.ok, 20);
//! handle.shutdown();
//! # Ok::<(), saber_serve::ServeError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod replay;
pub mod scenario;
pub mod synth;
pub mod trace;

pub use replay::{
    record_over_http, replay, replay_model, RateProfile, ReplayConfig, ReplayOutcome, Topology,
    TopologyHandle,
};
pub use replay::{replay_with_chaos, ChaosTrigger};
pub use scenario::{serve_while_training, ServeTrainReport};
pub use synth::{preset_spec, request_seed, synthesize_trace};
pub use trace::{RequestTrace, TraceError, TraceRequest};
