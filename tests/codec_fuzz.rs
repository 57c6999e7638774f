//! Round-trip and malformed-input fuzz for the codecs load depends on: the
//! `X-Saber-Trace` header (ISSUE 7), the `SABRDELTA` publication format
//! (ISSUE 10) and the tree-free JSON writers and sparse partial protocol
//! of ISSUE 19.
//!
//! The contracts pinned here:
//!
//! * the θ writer prints byte for byte what the `JsonValue` tree it
//!   replaced prints, for any `f32` bit patterns;
//! * `/infer-partial` requests and (sparse) responses round-trip exactly to
//!   the `f64` bit, every truncation errors, byte soup never panics, and
//!   each malformed topic list, an oversized `k` and the pre-sparse dense
//!   body are rejected — the router must never panic on a shard's bytes;
//! * every header a context prints parses back to the same context;
//! * garbage header bytes **degrade to untraced** — `parse` returns
//!   `None`, and a live HTTP server still answers `200` with the same θ
//!   it would have produced without the header (never a 4xx/500);
//! * every `SABRDELTA` encode/decode round-trip is byte-exact, and the
//!   strict decoder rejects truncation, trailing bytes, out-of-range or
//!   non-increasing row ids and non-advancing epochs (ISSUE 10) — the
//!   live `/publish-delta` seam must never panic on hostile input.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use saberlda::serve::{HttpConfig, HttpServer, ServeConfig, TopicServer};
use saberlda::trace::{TraceContext, TraceId};
use saberlda::LdaModel;

// ---------------------------------------------------------------- header

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Printed headers parse back to the identical context, for any live
    /// trace id and any parent span.
    #[test]
    fn trace_header_roundtrips(raw in 1u64..u64::MAX, parent in 0u64..u64::MAX) {
        let id = TraceId::from_raw(raw).expect("nonzero raw id is valid");
        let context = TraceContext::child(id, parent);
        let header = context.header_value().expect("enabled context has a header");
        prop_assert_eq!(TraceContext::parse(&header), Some(context));
    }

    /// Arbitrary bytes never panic the parser; anything that parses must
    /// re-print to a header that parses to the same context (no lossy
    /// accepts).
    #[test]
    fn garbage_headers_degrade_to_untraced(bytes in vec(any::<u8>(), 0..48usize)) {
        let value = String::from_utf8_lossy(&bytes).into_owned();
        if let Some(context) = TraceContext::parse(&value) {
            let reprinted = context.header_value().expect("parsed context is enabled");
            prop_assert_eq!(TraceContext::parse(&reprinted), Some(context));
        }
    }

    /// Single-byte mutations of a valid header either still parse or are
    /// rejected outright — never a panic, and a mutation outside the hex
    /// alphabet is always rejected.
    #[test]
    fn mutated_headers_never_panic(raw in 1u64..u64::MAX, parent in 0u64..u64::MAX, at in 0usize..33, byte in any::<u8>()) {
        let id = TraceId::from_raw(raw).expect("nonzero raw id is valid");
        let mut header = TraceContext::child(id, parent)
            .header_value()
            .expect("enabled context has a header")
            .into_bytes();
        let at = at % header.len();
        header[at] = byte;
        let mutated = String::from_utf8_lossy(&header).into_owned();
        let parsed = TraceContext::parse(&mutated);
        let hex_or_dash = byte.is_ascii_hexdigit() || byte == b'-';
        if !hex_or_dash && !byte.is_ascii_whitespace() {
            prop_assert_eq!(parsed, None);
        }
    }
}

// ------------------------------------------------------------- SABRDELTA

use saberlda::core::model_io::{load_delta, save_delta, DeltaPayload};

/// A canonical delta over a `vocab × k` snapshot: `row_flags` picks the
/// changed rows (strictly increasing by construction), `fill` seeds the
/// probability bits — arbitrary `f32` bit patterns, NaNs included, since
/// the wire format carries raw bits.
fn sample_delta(vocab: u32, k: usize, row_flags: &[bool], fill: u64) -> DeltaPayload {
    let rows: Vec<(u32, Vec<f32>)> = row_flags
        .iter()
        .enumerate()
        .take(vocab as usize)
        .filter(|(_, &on)| on)
        .map(|(v, _)| {
            let probs = (0..k)
                .map(|j| {
                    f32::from_bits(
                        (fill.wrapping_mul(v as u64 + 1).wrapping_add(j as u64) & 0xFFFF_FFFF)
                            as u32,
                    )
                })
                .collect();
            (v as u32, probs)
        })
        .collect();
    DeltaPayload {
        base_version: fill % 1000,
        target_version: fill % 1000 + 1 + fill % 7,
        vocab_size: vocab as usize,
        n_topics: k,
        alpha: 0.05,
        sampler_code: 0,
        rows,
    }
}

/// Byte offset of the `base_version` field in the 57-byte header.
const DELTA_BASE_OFFSET: usize = 12;
/// Byte offset of the `target_version` field.
const DELTA_TARGET_OFFSET: usize = 20;
/// Byte offset of the first row id (header end).
const DELTA_FIRST_ROW_OFFSET: usize = 57;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode/decode round-trips are byte-exact for arbitrary deltas —
    /// including empty ones and NaN probability bits.
    #[test]
    fn sabrdelta_roundtrips_byte_exact(
        vocab in 1u32..300,
        k in 1usize..12,
        row_flags in vec(any::<bool>(), 0..40usize),
        fill in any::<u64>(),
    ) {
        let delta = sample_delta(vocab, k, &row_flags, fill);
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("canonical delta encodes");
        prop_assert_eq!(Some(bytes.len() as u64), delta.encoded_bytes());
        let back = load_delta(bytes.as_slice()).expect("own encoding decodes");
        prop_assert_eq!(back.base_version, delta.base_version);
        prop_assert_eq!(back.target_version, delta.target_version);
        prop_assert_eq!(back.vocab_size, delta.vocab_size);
        prop_assert_eq!(back.n_topics, delta.n_topics);
        prop_assert_eq!(back.sampler_code, delta.sampler_code);
        prop_assert_eq!(back.rows.len(), delta.rows.len());
        // Bit-exactness without f32 comparison traps: re-encoding the
        // decoded payload reproduces the original bytes.
        let mut again = Vec::new();
        save_delta(&back, &mut again).expect("decoded delta re-encodes");
        prop_assert_eq!(again, bytes);
    }

    /// Every strict prefix of a valid delta errors — never panics, never
    /// yields a silently shortened patch.
    #[test]
    fn sabrdelta_truncations_always_error(
        vocab in 1u32..100,
        k in 1usize..8,
        row_flags in vec(any::<bool>(), 1..20usize),
        cut_seed in any::<u64>(),
    ) {
        let delta = sample_delta(vocab, k, &row_flags, 99);
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("canonical delta encodes");
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(load_delta(&bytes[..cut]).is_err());
    }

    /// The decoder consumes exactly the encoded bytes: anything after the
    /// last row is rejected, so a framing bug upstream cannot half-parse.
    #[test]
    fn sabrdelta_trailing_bytes_are_rejected(
        vocab in 1u32..100,
        k in 1usize..8,
        row_flags in vec(any::<bool>(), 0..20usize),
        trailing in vec(any::<u8>(), 1..9usize),
    ) {
        let delta = sample_delta(vocab, k, &row_flags, 7);
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("canonical delta encodes");
        bytes.extend_from_slice(&trailing);
        prop_assert!(load_delta(bytes.as_slice()).is_err());
    }

    /// Patching a row id out of range, or epochs so the target does not
    /// advance past the base, turns a valid delta into a rejected one.
    #[test]
    fn sabrdelta_bad_row_ids_and_epochs_are_rejected(
        vocab in 1u32..100,
        k in 1usize..8,
        fill in any::<u64>(),
    ) {
        let flags = vec![true]; // exactly row 0 changes
        let delta = sample_delta(vocab, k, &flags, fill);
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("canonical delta encodes");

        // Row id ≥ V.
        let mut bad_row = bytes.clone();
        bad_row[DELTA_FIRST_ROW_OFFSET..DELTA_FIRST_ROW_OFFSET + 4]
            .copy_from_slice(&vocab.to_le_bytes());
        prop_assert!(load_delta(bad_row.as_slice()).is_err());

        // Target epoch equal to the base (not advancing).
        let mut bad_epoch = bytes.clone();
        let base = delta.base_version.to_le_bytes();
        bad_epoch[DELTA_TARGET_OFFSET..DELTA_TARGET_OFFSET + 8].copy_from_slice(&base);
        prop_assert!(load_delta(bad_epoch.as_slice()).is_err());

        // Target epoch behind the base.
        let mut behind = bytes;
        behind[DELTA_BASE_OFFSET..DELTA_BASE_OFFSET + 8]
            .copy_from_slice(&(delta.target_version + 1).to_le_bytes());
        prop_assert!(load_delta(behind.as_slice()).is_err());
    }

    /// Non-increasing row ids are rejected — duplicate a neighbour's id.
    #[test]
    fn sabrdelta_non_increasing_rows_are_rejected(
        vocab in 2u32..100,
        k in 1usize..8,
    ) {
        let flags = vec![true, true]; // rows 0 and 1 change
        let delta = sample_delta(vocab, k, &flags, 3);
        let mut bytes = Vec::new();
        save_delta(&delta, &mut bytes).expect("canonical delta encodes");
        let second_row = DELTA_FIRST_ROW_OFFSET + 4 + 4 * k;
        bytes[second_row..second_row + 4].copy_from_slice(&0u32.to_le_bytes());
        prop_assert!(load_delta(bytes.as_slice()).is_err());
    }

    /// Arbitrary byte soup never panics the decoder, framed or not.
    #[test]
    fn sabrdelta_decoder_survives_byte_soup(bytes in vec(any::<u8>(), 0..200usize)) {
        let _ = load_delta(bytes.as_slice());
        let mut framed = b"SABRDELT".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = load_delta(framed.as_slice());
    }
}

// ------------------------------------------------------------- θ writer

use saberlda::core::infer::PartialFoldIn;
use saberlda::core::json::JsonValue;
use saberlda::serve::{wire, InferResponse, PartialRequest, PartialResponse};

/// The `JsonValue` tree `encode_infer_response` built before ISSUE 19 —
/// the oracle the tree-free writer must match byte for byte.
fn infer_response_tree(response: &InferResponse, seed: u64) -> String {
    JsonValue::object([
        ("theta", JsonValue::f32_array(&response.theta)),
        ("dominant_topic", JsonValue::from(response.dominant_topic())),
        (
            "snapshot_version",
            JsonValue::from(response.snapshot_version),
        ),
        ("n_oov", JsonValue::from(response.n_oov)),
        ("seed", JsonValue::from(seed)),
    ])
    .to_string()
}

fn assert_theta_bytes(theta: Vec<f32>) {
    let response = InferResponse {
        theta,
        snapshot_version: 3,
        n_oov: 1,
    };
    assert_eq!(
        wire::encode_infer_response(&response, u64::MAX).to_string(),
        infer_response_tree(&response, u64::MAX),
        "θ = {:?}",
        response.theta
    );
}

#[test]
fn theta_writer_matches_the_tree_on_edge_cases() {
    let base = 0.05f32 / 74.0;
    for theta in [
        vec![],
        vec![0.5],
        vec![0.0, -0.0, 0.0, 0.0, -0.0, -0.0],
        vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -f32::NAN, 1.0],
        vec![
            f32::MIN_POSITIVE,
            1e-40,
            -1e-45,
            f32::MAX,
            f32::MIN,
            f32::EPSILON,
        ],
        // The shape of a short document: one value almost everywhere.
        [
            vec![base; 700],
            vec![0.25, base, base, 0.125],
            vec![base; 300],
        ]
        .concat(),
        vec![base; 4096],
        // More distinct values than any memo holds, each repeated later.
        (0..600).map(|i| (i % 300) as f32 / 7.0).collect(),
    ] {
        assert_theta_bytes(theta);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary `f32` bit patterns (NaNs, infinities, subnormals and both
    /// zeros included) in runs of arbitrary length, K from 0 upwards.
    #[test]
    fn theta_writer_matches_the_tree(
        palette in vec(any::<u32>(), 1..6usize),
        picks in vec(any::<u8>(), 0..40usize),
        runs in vec(1usize..50, 0..40usize),
    ) {
        let theta: Vec<f32> = picks
            .iter()
            .zip(&runs)
            .flat_map(|(&pick, &run)| {
                // Half the picks come from the shared palette (repeats far
                // apart), the rest are the IEEE corner cases.
                let corner = [0.0, -0.0, f32::NAN, f32::INFINITY, 1e-40, 1.0];
                let value = match pick % 12 {
                    c @ 0..=5 => corner[c as usize],
                    p => f32::from_bits(palette[p as usize % palette.len()]),
                };
                std::iter::repeat_n(value, run)
            })
            .collect();
        let response = InferResponse { theta, snapshot_version: 9, n_oov: 0 };
        prop_assert_eq!(
            wire::encode_infer_response(&response, 7).to_string(),
            infer_response_tree(&response, 7)
        );
    }
}

// ------------------------------------------------------- /infer-partial

/// A finite `f64` from arbitrary bits: the wire carries finite numbers
/// only, every other pattern (subnormals, `-0.0`) must survive exactly.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(1 << 62))
    }
}

/// A partial over `k` topics whose non-zero entries are `flags`' set bits.
fn sample_partial(k: usize, flags: &[bool], fill: u64) -> PartialResponse {
    let counts = (0..k)
        .map(|t| match flags.get(t) {
            Some(true) => finite(fill.wrapping_mul(t as u64 + 1).rotate_left(t as u32)),
            _ => 0.0,
        })
        .collect();
    PartialResponse {
        partial: PartialFoldIn {
            counts,
            n_words: (fill % 500) as usize,
        },
        snapshot_version: fill,
        n_oov: (fill % 3) as usize,
        spans: Vec::new(),
    }
}

fn f64_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A sparse partial response decodes to the partial it encoded, exact
    /// to the `f64` bit — what keeps remote merges bit-identical to local
    /// ones — and every strict prefix of its body is an error.
    #[test]
    fn partial_response_roundtrips_to_the_bit(
        k in 0usize..80,
        flags in vec(any::<bool>(), 0..80usize),
        fill in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let response = sample_partial(k, &flags, fill);
        let body = wire::encode_partial_response(&response, (5, 9)).to_string();
        let back = wire::decode_partial_response(&body).expect("own encoding decodes");
        prop_assert_eq!(f64_bits(&back.partial.counts), f64_bits(&response.partial.counts));
        prop_assert_eq!(&back, &response);
        let cut = (cut_seed % body.len() as u64) as usize;
        prop_assert!(wire::decode_partial_response(&body[..cut]).is_err());
    }

    /// Both request kinds decode to what was encoded, θ exact to the bit,
    /// and every strict prefix of either body is an error.
    #[test]
    fn partial_request_roundtrips_to_the_bit(
        words in vec(any::<u32>(), 0..40usize),
        theta_bits in vec(any::<u64>(), 0..40usize),
        seed in any::<u64>(),
        round in 0usize..1000,
        cut_seed in any::<u64>(),
    ) {
        let theta: Vec<f64> = theta_bits.iter().map(|&bits| finite(bits)).collect();
        let em = PartialRequest::EmRound { round, theta: Arc::new(theta.clone()) };
        for request in [PartialRequest::FoldIn { seed }, em] {
            let body = wire::encode_partial_request(&words, &request).to_string();
            let (back_words, back) = wire::decode_partial_request(&body).expect("own encoding decodes");
            prop_assert_eq!(&back_words, &words);
            match (&request, &back) {
                (PartialRequest::FoldIn { seed: a }, PartialRequest::FoldIn { seed: b }) => {
                    prop_assert_eq!(a, b);
                }
                (
                    PartialRequest::EmRound { round: a, theta: sent },
                    PartialRequest::EmRound { round: b, theta: got },
                ) => {
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(f64_bits(got), f64_bits(sent));
                }
                _ => prop_assert!(false, "decoded the other request kind: {:?}", back),
            }
            let cut = (cut_seed % body.len() as u64) as usize;
            prop_assert!(wire::decode_partial_request(&body[..cut]).is_err());
        }
    }

    /// Arbitrary bytes, and a valid body with one byte overwritten, never
    /// panic either decoder; a mutated body that still decodes describes a
    /// partial over the `k` it declares.
    #[test]
    fn partial_decoders_survive_byte_soup(
        bytes in vec(any::<u8>(), 0..200usize),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let soup = String::from_utf8_lossy(&bytes).into_owned();
        let _ = wire::decode_partial_response(&soup);
        let _ = wire::decode_partial_request(&soup);
        let flags = [true, false, true, true];
        let mut body = wire::encode_partial_response(&sample_partial(6, &flags, 77), (0, 4))
            .to_string()
            .into_bytes();
        let at = (at % body.len() as u64) as usize;
        body[at] = byte;
        if let Ok(decoded) = wire::decode_partial_response(&String::from_utf8_lossy(&body)) {
            prop_assert!(decoded.partial.counts.len() <= wire::MAX_PARTIAL_TOPICS);
        }
    }
}

#[test]
fn malformed_partial_responses_are_rejected() {
    let tail = r#""n_words":6,"snapshot_version":3,"n_oov":0,"shard":[0,9]}"#;
    let rejected = |head: &str| {
        wire::decode_partial_response(&format!("{head},{tail}"))
            .expect_err(head)
            .detail
    };
    assert!(wire::decode_partial_response(&format!(
        r#"{{"k":4,"topics":[1,3],"counts":[2,0.5],{tail}"#
    ))
    .is_ok());
    for head in [
        r#"{"k":4,"topics":[3,1],"counts":[2,0.5]"#,   // unsorted
        r#"{"k":4,"topics":[1,1],"counts":[2,0.5]"#,   // duplicate
        r#"{"k":4,"topics":[1,4],"counts":[2,0.5]"#,   // topic ≥ k
        r#"{"k":4,"topics":[1,-3],"counts":[2,0.5]"#,  // not a topic id
        r#"{"k":4,"topics":[1],"counts":[2,0.5]"#,     // fewer topics than counts
        r#"{"k":4,"topics":[1,2,3],"counts":[2,0.5]"#, // more topics than counts
        r#"{"k":4,"topics":[1,3],"counts":[2,null]"#,  // a non-finite count
        r#"{"k":4,"counts":[2,0.5]"#,                  // no topics
        r#"{"topics":[1,3],"counts":[2,0.5]"#,         // no k
        r#"{"k":4,"topics":[1,3]"#,                    // no counts
    ] {
        rejected(head);
    }
    // A `k` no model has is refused by the cap, before the dense
    // accumulator it would size is allocated (2^60 f64s would abort).
    let huge = rejected(r#"{"k":1152921504606846976,"topics":[],"counts":[]"#);
    assert!(huge.contains("limit"), "{huge}");
    rejected(&format!(
        r#"{{"k":{},"topics":[],"counts":[]"#,
        wire::MAX_PARTIAL_TOPICS + 1
    ));
    // A shard still on the dense protocol is named as such, so a half
    // upgraded fleet fails with its cause instead of "missing member".
    let legacy = rejected(r#"{"counts":[4.5,1.5,0]"#);
    assert!(legacy.contains("pre-sparse partial protocol"), "{legacy}");
}

#[test]
fn partial_response_size_follows_the_touched_topics_not_k() {
    // One 24-token document under the default 8 measured sweeps: 192
    // assignments, here over 60 topics.
    let partial = |k: usize| {
        let mut counts = vec![0.0f64; k];
        for draw in 0..192usize {
            counts[(draw % 60) * 16 + 5] += 1.0;
        }
        PartialResponse {
            partial: PartialFoldIn {
                counts,
                n_words: 24,
            },
            snapshot_version: 41,
            n_oov: 0,
            spans: Vec::new(),
        }
    };
    let small = wire::encode_partial_response(&partial(1000), (0, 5100)).to_string();
    let large = wire::encode_partial_response(&partial(4000), (0, 5100)).to_string();
    assert!(small.len() < 1024, "{} bytes: {small}", small.len());
    assert!(
        large.len().abs_diff(small.len()) < 16,
        "{} vs {}",
        small.len(),
        large.len()
    );
    assert_eq!(
        wire::decode_partial_response(&large).unwrap(),
        partial(4000)
    );

    // An EM round's responsibilities touch every topic: sparse in form
    // only, and still the exact inverse.
    let dense = PartialResponse {
        partial: PartialFoldIn {
            counts: (1..=500).map(|t| 1.0 / f64::from(t)).collect(),
            n_words: 24,
        },
        snapshot_version: 41,
        n_oov: 2,
        spans: Vec::new(),
    };
    let body = wire::encode_partial_response(&dense, (0, 5100)).to_string();
    assert_eq!(wire::decode_partial_response(&body).unwrap(), dense);
}

// ----------------------------------------------------- live HTTP ingress

fn tiny_model() -> LdaModel {
    let mut model = LdaModel::new(30, 4, 0.08, 0.01).unwrap();
    for v in 0..30 {
        model.word_topic_mut()[(v, v % 4)] = 10;
    }
    model.refresh_probabilities();
    model
}

fn post_infer_with_header(addr: std::net::SocketAddr, header: Option<&str>) -> String {
    let body = r#"{"words":[1,2,3,4],"seed":7}"#;
    let trace_header = header
        .map(|value| format!("X-Saber-Trace: {value}\r\n"))
        .unwrap_or_default();
    let request = format!(
        "POST /infer HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{trace_header}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    String::from_utf8_lossy(&reply).into_owned()
}

/// A live server treats every garbage `X-Saber-Trace` value as "no trace":
/// the request is served normally (HTTP 200, same θ bytes as the
/// headerless request) instead of being rejected.
#[test]
fn garbage_trace_headers_never_fail_requests() {
    let server = Arc::new(TopicServer::from_model(&tiny_model(), ServeConfig::default()).unwrap());
    let http = HttpServer::bind("127.0.0.1:0", server, None, HttpConfig::default()).unwrap();
    let addr = http.local_addr();

    let reference = post_infer_with_header(addr, None);
    assert!(reference.starts_with("HTTP/1.1 200"), "{reference}");
    let reference_body = reference.split("\r\n\r\n").nth(1).unwrap().to_string();

    for garbage in [
        "",
        "zzzz",
        "deadbeef",                               // 8 hex digits, not 16
        "0000000000000000",                       // zero id is not a valid trace
        "0123456789abcdef-XYZ",                   // bad parent
        "0123456789abcdef-0123456789abcdef-junk", // extra component
        "ffffffffffffffffffffffffffffffff",       // 32 digits, no separator
        "!@#$%^&*()_+|~`",
        "0123456789abcdeg", // one non-hex char
    ] {
        let reply = post_infer_with_header(addr, Some(garbage));
        assert!(
            reply.starts_with("HTTP/1.1 200"),
            "garbage header {garbage:?} changed the status: {}",
            reply.lines().next().unwrap_or("<empty>")
        );
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(
            body, reference_body,
            "garbage header {garbage:?} changed the answer"
        );
    }

    // A valid header still works and gets the same θ (the trace id only
    // adds observability, never changes sampling).
    let traced = post_infer_with_header(addr, Some("0123456789abcdef-0000000000000001"));
    assert!(traced.starts_with("HTTP/1.1 200"));
    assert_eq!(traced.split("\r\n\r\n").nth(1).unwrap(), reference_body);

    http.shutdown();
}
