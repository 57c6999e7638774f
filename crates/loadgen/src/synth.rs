//! Deterministic synthesis of request traces from [`saber_corpus`]
//! generators.
//!
//! A synthetic trace is a pure function of `(spec, n_requests, seed)`:
//! the documents come from [`SyntheticSpec::generate`] (Zipf word base
//! measure, gamma-shaped lengths) and every request's sampling seed is
//! derived with a SplitMix64 step from the trace seed, so the same call
//! produces the same requests on every machine.

use saber_corpus::synthetic::SyntheticSpec;

use crate::{RequestTrace, TraceRequest};

/// One SplitMix64 step — the same finaliser the rest of the workspace uses
/// for seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampling seed of request `index` of a trace synthesised with
/// `trace_seed`. Exposed so differential tests can predict seeds.
pub fn request_seed(trace_seed: u64, index: u64) -> u64 {
    splitmix64(trace_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Synthesises `n_requests` requests from documents generated by `spec`.
///
/// The generated corpus supplies `spec.n_docs` documents; when
/// `n_requests` exceeds that, documents are cycled in order — request `i`
/// asks about document `i % n_docs` with its own derived seed, so repeated
/// documents still exercise distinct sampling chains.
pub fn synthesize_trace(spec: &SyntheticSpec, n_requests: usize, seed: u64) -> RequestTrace {
    let corpus = spec.generate(seed);
    let docs = corpus.documents();
    let requests = if docs.is_empty() {
        Vec::new()
    } else {
        (0..n_requests)
            .map(|i| TraceRequest {
                seed: request_seed(seed, i as u64),
                words: docs[i % docs.len()].words().to_vec(),
            })
            .collect()
    };
    RequestTrace {
        vocab_size: corpus.vocab_size() as u32,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over every request's seed, word count and word ids.
    fn digest(trace: &RequestTrace) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for request in trace.requests() {
            eat(&request.seed.to_le_bytes());
            eat(&(request.words.len() as u32).to_le_bytes());
            for word in &request.words {
                eat(&word.to_le_bytes());
            }
        }
        hash
    }

    #[test]
    fn requests_match_the_pinned_digest() {
        // The benchmark builds its inputs from these requests, so any
        // change to them moves every benchmark number.
        let spec = SyntheticSpec::small_test();
        let trace = synthesize_trace(&spec, 30, 42);
        assert_eq!(trace.len(), 30);
        assert_eq!(trace.vocab_size(), 200);
        assert_eq!(trace.requests()[0].seed, 0xbdd7_3226_2feb_6e95);
        let tokens: usize = trace.requests().iter().map(|r| r.words.len()).sum();
        assert_eq!(tokens, 817);
        assert_eq!(digest(&trace), 0xf06c_d72e_5965_7a3e);
        assert_ne!(digest(&synthesize_trace(&spec, 30, 43)), digest(&trace));
    }

    #[test]
    fn cycling_reuses_documents_with_fresh_seeds() {
        let spec = SyntheticSpec {
            n_docs: 5,
            ..SyntheticSpec::small_test()
        };
        let trace = synthesize_trace(&spec, 12, 7);
        assert_eq!(trace.len(), 12);
        let reqs = trace.requests();
        assert_eq!(reqs[0].words, reqs[5].words);
        assert_ne!(reqs[0].seed, reqs[5].seed);
    }
}
