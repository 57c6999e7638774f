//! # saber-loadgen — synthetic request traces for SaberLDA serving
//!
//! [`synthesize_trace`] turns a [`saber_corpus`] generator spec and a seed
//! into an ordered list of inference requests, each a document's word ids
//! and the seed that makes its answer reproducible. The same call produces
//! the same requests on every machine, so the differential suites under
//! `tests/` and the `benchmark/` crate build their traffic from it. The
//! crate sends nothing and measures nothing: performance claims are made
//! with the `benchmark/` crate (see `docs/BENCHMARKING.md`).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub(crate) mod synth;

pub use synth::{request_seed, synthesize_trace};

/// One request in a trace: what it asks, and the seed that makes its
/// answer reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRequest {
    /// Sampling seed; sending the request with this seed reproduces θ bit
    /// for bit.
    pub seed: u64,
    /// The document as vocabulary word ids.
    pub words: Vec<u32>,
}

/// An ordered request trace plus the vocabulary bound its word ids
/// respect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    vocab_size: u32,
    requests: Vec<TraceRequest>,
}

impl RequestTrace {
    /// The vocabulary bound every word id respects.
    pub fn vocab_size(&self) -> u32 {
        self.vocab_size
    }

    /// The requests, in order.
    pub fn requests(&self) -> &[TraceRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}
