//! One table over every decoder that reads bytes from outside the process,
//! run under a counting allocator.
//!
//! Rows: `load_model`, `InferenceSnapshot::load`, `load_delta`, the
//! `wire.rs` decoders (the partial response also against a fleet's K), the `X-Saber-Trace` parser (alone, and on `/infer`),
//! and `/publish-shard`, `/publish-delta` and `/commit-epoch`, sent one
//! request at a time to a loopback `HttpServer`. A pure decoder's cases
//! come from one generator: valid bodies of several shapes, every strict
//! prefix of its smallest valid body (a truncation at each field boundary
//! and between them), each byte of that body overwritten, and hand-built
//! inputs: headers whose counts lie over a tiny body, bad magic, α and ids.
//! The endpoints add a foreign shape within the body limit and a
//! `Content-Length` that lies.
//!
//! Every case must hold three invariants:
//! - nothing panics, and an endpoint answers with a status: a `4xx` for a
//!   refusal, never a `5xx` or a dropped connection;
//! - the result re-encodes to the input (`Exact`), or is an error that
//!   names its cause (`Refused`); a mutated input that is accepted
//!   re-encodes to bytes that decode to themselves (`Any`: no lossy
//!   accept);
//! - peak live heap bytes, across every thread of the process and counted
//!   from the case's start, stay within
//!   `c · input bytes + m · shape bytes + FLOOR`. Each row states `c` and
//!   `m` before it runs; `shape` is the served snapshot's `V · K · 4` bytes
//!   for the endpoints, the largest dense partial the cap admits for
//!   partial responses, and 0 otherwise. Each endpoint row starts from a
//!   fresh shard holding one epoch, so no case is credited with freeing
//!   what another row left behind.
//!
//! The table is this binary's only `#[test]`, so no sibling test allocates
//! while a case is measured. With `--nocapture` it prints each decoder's
//! peak, and its peak bytes per input byte on its largest input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Display;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use saberlda::core::infer::PartialFoldIn;
use saberlda::core::json::{self, JsonValue};
use saberlda::core::model_io::{load_delta, load_model, save_delta, save_model, DeltaPayload};
use saberlda::serve::wire::{self, InferBody, InferWire, MAX_PARTIAL_TOPICS};
use saberlda::serve::{HttpConfig, HttpServer, InferenceSnapshot, PartialRequest};
use saberlda::serve::{
    PartialResponse, Publication, ServeConfig, ServeError, SnapshotSampler, TopicServer,
};
use saberlda::trace::{TraceContext, TraceId};
use saberlda::{LdaModel, OovPolicy};

/// Wraps `System`, tracking live and peak heap bytes. `realloc` is left to
/// `GlobalAlloc`'s default (allocate, copy, free), so a growing buffer's
/// old and new blocks count together, as when it moves.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to `System` with the caller's layout and pointer
// unchanged, so `System`'s guarantees are the caller's; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What any case may spend whatever its size: error strings, an
/// `io::Error`, a connection thread's handle and buffers.
const FLOOR: usize = 64 << 10;

/// The JSON decoders' `(c, m, shape)`: a 32-byte `JsonValue` per 2-byte
/// array element, in a vector that doubles.
const JSON: (usize, usize, usize) = (64, 0, 0);

/// What a case's decode must yield.
enum Expect {
    /// Success, re-encoding to these bytes.
    Exact(Vec<u8>),
    /// An error whose text contains this.
    Refused(&'static str),
    /// Either; an accepted input re-encodes to a fixed point.
    Any,
}

/// A case: what it is, its input bytes and its expectation.
struct Case(String, Vec<u8>, Expect);

fn ok(what: impl Display, bytes: impl Into<Vec<u8>>) -> Case {
    let bytes = bytes.into();
    Case(what.to_string(), bytes.clone(), Expect::Exact(bytes))
}

fn no(what: impl Display, bytes: impl Into<Vec<u8>>, cause: &'static str) -> Case {
    Case(what.to_string(), bytes.into(), Expect::Refused(cause))
}

/// `bytes` with `with` written at `offset`.
fn at(bytes: &[u8], offset: usize, with: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[offset..offset + with.len()].copy_from_slice(with);
    out
}

fn le(x: u64) -> [u8; 8] {
    x.to_le_bytes()
}

fn f32s(x: f32) -> [u8; 4] {
    x.to_le_bytes()
}

/// A pure decoder's cases: every strict prefix of `valid[0]` (refused when
/// `prefixes_refused`), each of its bytes overwritten, `valid` exactly,
/// then `refused`.
fn generated(valid: Vec<Vec<u8>>, prefixes_refused: bool, refused: Vec<Case>) -> Vec<Case> {
    let small = valid[0].clone();
    let prefix = || match prefixes_refused {
        true => Expect::Refused(""),
        false => Expect::Any,
    };
    let mut cases: Vec<Case> = (0..small.len())
        .map(|cut| {
            Case(
                format!("prefix of {cut} bytes"),
                small[..cut].into(),
                prefix(),
            )
        })
        .collect();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..small.len() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let byte = rng as u8;
        let mutated = at(&small, i, &[byte]);
        cases.push(Case(format!("byte {i} := {byte}"), mutated, Expect::Any));
    }
    let valid = valid.into_iter().enumerate();
    cases.extend(valid.map(|(i, bytes)| ok(format!("valid body {i}"), bytes)));
    cases.extend(refused);
    cases
}

/// One row's verdict: its largest peak, the peak per input byte on its
/// largest input, and each case that broke an invariant.
#[derive(Default)]
struct Report {
    name: &'static str,
    cases: usize,
    peak: usize,
    len: usize,
    per_byte: f64,
    failures: Vec<String>,
}

/// The table's rows, run in order.
#[derive(Default)]
struct Table(Vec<Report>);

impl Table {
    /// Runs `cases` through `decode` one at a time, each checked against its
    /// expectation and its peak against `c · len + m · shape + FLOOR`.
    fn row<T>(
        &mut self,
        name: &'static str,
        (c, m, shape): (usize, usize, usize),
        decode: impl Fn(&[u8]) -> Result<T, String>,
        encode: impl Fn(&T) -> Vec<u8>,
        cases: Vec<Case>,
    ) {
        let mut report = Report {
            name,
            cases: cases.len(),
            ..Report::default()
        };
        for Case(what, bytes, expect) in cases {
            let start = LIVE.load(Relaxed);
            PEAK.store(start, Relaxed);
            let result = catch_unwind(AssertUnwindSafe(|| decode(&bytes)));
            let peak = PEAK.load(Relaxed).saturating_sub(start);
            let (len, bound) = (bytes.len(), c * bytes.len() + m * shape + FLOOR);
            let per_byte = peak as f64 / len.max(1) as f64;
            report.peak = report.peak.max(peak);
            if len >= report.len {
                (report.len, report.per_byte) = (len, per_byte);
            }
            let judged = catch_unwind(AssertUnwindSafe(|| match (expect, result) {
                _ if peak > bound => Err(format!(
                    "peak {peak} bytes = {per_byte:.1} B per input byte of {len}, over {bound}"
                )),
                (_, Err(_)) => Err("the decoder panicked".to_string()),
                (Expect::Exact(want), Ok(Ok(got))) if encode(&got) == want => Ok(()),
                (Expect::Refused(cause), Ok(Err(e))) if e.contains(cause) => Ok(()),
                (Expect::Any, Ok(Err(_))) => Ok(()),
                (Expect::Any, Ok(Ok(got))) => {
                    let once = encode(&got);
                    let again = decode(&once).map(|t| encode(&t));
                    (again.as_ref() == Ok(&once))
                        .then_some(())
                        .ok_or("a lossy accept".into())
                }
                (_, Ok(Ok(_))) => Err("accepted, or decoded to something else".to_string()),
                (_, Ok(Err(e))) => Err(format!("refused: {e}")),
            }));
            if let Err(e) = judged.unwrap_or_else(|_| Err("panicked re-encoding".into())) {
                // Said at once too: a later case may abort the process.
                eprintln!("{name} · {what}: {e}");
                report.failures.push(format!("{name} · {what}: {e}"));
            }
        }
        self.0.push(report);
    }
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn text(t: impl Display) -> Vec<u8> {
    t.to_string().into_bytes()
}

fn string(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn saved(write: impl FnOnce(&mut Vec<u8>) -> saberlda::core::Result<()>) -> Vec<u8> {
    let mut bytes = Vec::new();
    write(&mut bytes).unwrap();
    bytes
}

fn slice(snapshot: &InferenceSnapshot) -> Vec<u8> {
    saved(|out| snapshot.save(out))
}

fn export(model: &LdaModel, kind: SnapshotSampler) -> Vec<u8> {
    slice(&InferenceSnapshot::from_model(model, kind))
}

fn planted(vocab: usize, k: usize) -> LdaModel {
    let mut model = LdaModel::new(vocab, k, 0.05, 0.01).unwrap();
    for v in 0..vocab {
        model.word_topic_mut()[(v, v % k)] = 10 + v as u32 % 7;
        model.word_topic_mut()[(v, (v * 7 + 3) % k)] += 3;
    }
    model.refresh_probabilities();
    model
}

/// A delta over `vocab × k` changing every `every`-th row to positive bit
/// patterns below 2, subnormals included.
fn delta(vocab: usize, k: usize, every: usize, (base, target): (u64, u64)) -> DeltaPayload {
    let bits = |v: u32, j: u32| f32::from_bits((v.wrapping_mul(2_654_435_761) ^ j) & 0x3fff_ffff);
    let row = |v: u32| (v, (0..k as u32).map(|j| bits(v, j)).collect());
    DeltaPayload {
        base_version: base,
        target_version: target,
        vocab_size: vocab,
        n_topics: k,
        alpha: 0.05,
        sampler_code: 0,
        rows: (0..vocab as u32).step_by(every).map(row).collect(),
    }
}

fn encoded(delta: &DeltaPayload) -> Vec<u8> {
    saved(|out| save_delta(delta, out))
}

#[rustfmt::skip]
fn file_rows(table: &mut Table) {
    // load_model: the counts grow by doubling (3× while one moves), then
    // the model holds them and its probabilities.
    let shapes = [(3, 2), (6, 3), (40, 7), (300, 50)];
    let valid: Vec<_> = shapes.map(|(v, k)| saved(|o| save_model(&planted(v, k), o))).into();
    let s = &valid[0];
    let refused = vec![
        no("V × K = 2^12 × 2^10 over 24 bytes", at(s, 12, &[le(4096), le(1024)].concat()), ""),
        no("V × K = 2^32 × 2^20 over 24 bytes", at(s, 12, &[le(1 << 32), le(1 << 20)].concat()), ""),
        no("K = 2^21", at(s, 20, &le(1 << 21)), "implausible"),
        no("bad magic", at(s, 0, b"NOTALDAX"), "magic"),
        no("version 9", at(s, 8, &[9]), "version"),
    ];
    let decode = |b: &[u8]| load_model(b).map_err(err);
    let encode = |m: &LdaModel| saved(|out| save_model(m, out));
    table.row("load_model", (6, 0, 0), decode, encode, generated(valid, true, refused));

    // InferenceSnapshot::load: per word its row, a sampler (an alias table
    // is twice the row) and ~150 bytes of boxes: a one-topic row costs ~40
    // bytes per 4 input bytes. The endpoints refuse such a shape first.
    let (wary, alias) = (SnapshotSampler::WaryTree, SnapshotSampler::AliasTable);
    let shapes = [(2, 3, wary), (1, 1, alias), (64, 1, wary), (200, 40, alias)];
    let valid: Vec<_> = shapes.map(|(v, k, kind)| export(&planted(v, k), kind)).into();
    let s = &valid[0];
    let refused = vec![
        no("V × K = 2^20 × 1 over 24 bytes", at(s, 12, &[le(1 << 20), le(1)].concat()), ""),
        no("V × K = 1 × 2^20 over 24 bytes", at(s, 12, &[le(1), le(1 << 20)].concat()), ""),
        no("V × K = 2^32 × 2^20 over 24 bytes", at(s, 12, &[le(1 << 32), le(1 << 20)].concat()), ""),
        no("sampler code 7", at(s, 32, &[7]), "sampler"),
        no("a NaN probability", at(s, 33, &f32s(f32::NAN)), "not finite"),
        no("a negative probability", at(s, 37, &f32s(-0.5)), "negative"),
        no("alpha NaN", at(s, 28, &f32s(f32::NAN)), "alpha"),
        no("alpha inf", at(s, 28, &f32s(f32::INFINITY)), "alpha"),
        no("alpha 0", at(s, 28, &f32s(0.0)), "alpha"),
        no("alpha -0.05", at(s, 28, &f32s(-0.05)), "alpha"),
    ];
    let decode = |b: &[u8]| InferenceSnapshot::load(b).map_err(err);
    table.row("InferenceSnapshot::load", (48, 0, 0), decode, slice, generated(valid, true, refused));

    // load_delta: per row a 32-byte (id, Vec) pair in a doubling vector,
    // 12 bytes per 8-byte one-topic row while it moves.
    let empty = DeltaPayload { rows: vec![], ..delta(3, 2, 1, (1, 2)) };
    let deltas = [delta(6, 2, 3, (3, 4)), empty, delta(5, 1, 9, (0, 1)), delta(600, 1, 1, (7, 9))];
    let mut valid: Vec<_> = deltas.iter().map(encoded).collect();
    let s = &valid[0].clone();
    // The format carries raw bits: a NaN or negative probability decodes.
    valid.push(at(s, 61, &[f32s(f32::NAN), f32s(-1.5)].concat()));
    let refused = vec![
        no("V × K = 2^32 × 2^20 over 24 bytes", at(s, 28, &[le(1 << 32), le(1 << 20)].concat()), ""),
        no("7 rows of a 6-word vocabulary", at(s, 49, &le(7)), "rows"),
        no("row id = V", at(s, 57, &[6]), "row ids"),
        no("row ids not increasing", at(s, 69, &[0]), "row ids"),
        no("target = base", at(s, 20, &le(3)), "ahead"),
        no("target behind base", at(s, 12, &le(5)), "ahead"),
        no("a trailing byte", [&s[..], &[0]].concat(), "trailing"),
        no("bad magic", at(s, 0, b"WRONGMAG"), "magic"),
        no("alpha NaN", at(s, 44, &f32s(f32::NAN)), "alpha"),
        no("alpha 0", at(s, 44, &f32s(0.0)), "alpha"),
    ];
    let decode = |b: &[u8]| load_delta(b).map_err(err);
    table.row("load_delta", (16, 0, 0), decode, encoded, generated(valid, true, refused));
}

/// A finite `f64` from arbitrary bits (the wire carries finite numbers).
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    let finite = if x.is_finite() {
        bits
    } else {
        bits & !(1 << 62)
    };
    f64::from_bits(finite)
}

/// A partial over `k` topics, every `every`-th count a finite pattern of
/// `fill`'s bits (subnormals among them), the rest zero.
fn partial(k: usize, every: usize, fill: u64) -> PartialResponse {
    let count = |t: usize| finite(fill.wrapping_mul(t as u64 + 1).rotate_left(t as u32));
    let counts = (0..k).map(|t| {
        if t.is_multiple_of(every) {
            count(t)
        } else {
            0.0
        }
    });
    let partial = PartialFoldIn {
        counts: counts.collect(),
        n_words: fill as usize % 500,
    };
    let (snapshot_version, n_oov, spans) = (fill, fill as usize % 3, Vec::new());
    PartialResponse {
        partial,
        snapshot_version,
        n_oov,
        spans,
    }
}

/// A `/shard-info` body whose latency histogram has `buckets`.
fn shard_info(buckets: &str, alpha: f32) -> String {
    let members = r#""epoch":2,"vocab_size":12,"n_topics":3,"shard":[4,16]"#;
    let fold_in = r#""fold_in":{"kind":"em","burn_in":5,"samples":8}"#;
    let counters = r#""requests":18446744073709551615,"tokens":9,"batches":2,"swaps_observed":1"#;
    let latency = format!(r#""latency":{{"sum_us":91700,"buckets":[{buckets}],"overflow":3}}"#);
    let empty =
        r#""queue_wait":{"sum_us":0,"buckets":[]},"handler":{"sum_us":5,"buckets":[[2,1]]}"#;
    let stats = format!(r#""stats":{{{counters},{latency},{empty}}}"#);
    format!(r#"{{{members},"alpha":{alpha},{fold_in},{stats}}}"#)
}

/// Re-encodes `body` through `decode` and `encode`: the canonical bytes of
/// what it says.
fn canonical<T>(
    body: &str,
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Vec<u8> {
    encode(&decode(body.as_bytes()).unwrap())
}

#[rustfmt::skip]
fn wire_rows(table: &mut Table) {
    let theta = (0..40u64).map(|i| finite(i.wrapping_mul(0x0010_0977_0000_0001)));
    let theta = Arc::new(theta.chain([-0.0, 5e-324]).collect());
    let requests = [
        (vec![1, 2, 3], PartialRequest::FoldIn { seed: u64::MAX }),
        (vec![], PartialRequest::EmRound { round: 3, theta: Arc::new(vec![]) }),
        ((0..300).collect(), PartialRequest::EmRound { round: 999, theta }),
    ];
    let encode = |(words, request): &(Vec<u32>, _)| text(wire::encode_partial_request(words, request));
    let refused = vec![
        no("word id past u32", r#"{"words":[4294967296],"esca":{"seed":1}}"#, ""),
        no("both kinds", r#"{"words":[],"esca":{"seed":1},"em":{"round":0,"theta":[]}}"#, ""),
    ];
    let cases = generated(requests.iter().map(encode).collect(), true, refused);
    let decode = |b: &[u8]| wire::decode_partial_request(&string(b)).map_err(err);
    table.row("decode_partial_request", JSON, decode, encode, cases);

    // The largest `k` the cap admits sizes a dense 8 MiB accumulator.
    let encode = |r: &PartialResponse| text(wire::encode_partial_response(r, (5, 9)));
    let ks = [(6, 2, 77), (0, 1, 1), (500, 1, 3), (80, 7, !0), (MAX_PARTIAL_TOPICS, usize::MAX, 0)];
    let valid = ks.map(|(k, every, fill)| encode(&partial(k, every, fill))).into();
    let tail = r#","n_words":6,"snapshot_version":3,"n_oov":0,"shard":[0,9]}"#;
    let body = |head: &str| format!("{head}{tail}");
    let k = |k: usize| body(&format!(r#"{{"k":{k},"topics":[],"counts":[]"#));
    let refused = vec![
        no("unsorted topics", body(r#"{"k":4,"topics":[3,1],"counts":[2,0.5]"#), ""),
        no("a repeated topic", body(r#"{"k":4,"topics":[1,1],"counts":[2,0.5]"#), ""),
        no("topic = k", body(r#"{"k":4,"topics":[1,4],"counts":[2,0.5]"#), ""),
        no("a negative topic", body(r#"{"k":4,"topics":[1,-3],"counts":[2,0.5]"#), ""),
        no("fewer topics than counts", body(r#"{"k":4,"topics":[1],"counts":[2,0.5]"#), ""),
        no("more topics than counts", body(r#"{"k":4,"topics":[1,2,3],"counts":[2,0.5]"#), ""),
        no("a null count", body(r#"{"k":4,"topics":[1,3],"counts":[2,null]"#), ""),
        no("no topics", body(r#"{"k":4,"counts":[2,0.5]"#), ""),
        no("no k", body(r#"{"topics":[1,3],"counts":[2,0.5]"#), ""),
        no("no counts", body(r#"{"k":4,"topics":[1,3]"#), ""),
        no("k = 2^60", k(1 << 60), "limit"),
        no("k one past the cap", k(MAX_PARTIAL_TOPICS + 1), "limit"),
        no("a dense partial", body(r#"{"counts":[4.5,1.5,0]"#), "pre-sparse partial protocol"),
    ];
    let decode = |b: &[u8]| wire::decode_partial_response(&string(b)).map_err(err);
    let (bound, cases) = ((64, 1, 8 * MAX_PARTIAL_TOPICS), generated(valid, true, refused));
    table.row("decode_partial_response", bound, decode, encode, cases);

    // A router decodes its shards' partials against the fleet's K: a `k`
    // the cap admits but the fleet does not serve is refused before the
    // accumulator is sized, so the peak is bounded by the fleet's shape.
    let valid = [(64, 2, 77), (64, 1, 3), (64, 64, !0)].map(|(k, every, fill)| encode(&partial(k, every, fill)));
    let refused = vec![
        no("k = the cap", k(MAX_PARTIAL_TOPICS), "the fleet serves 64"),
        no("k one short", k(63), "the fleet serves 64"),
        no("k one over", k(65), "the fleet serves 64"),
    ];
    let decode = |b: &[u8]| wire::decode_partial_response_over(&string(b), Some(64)).map_err(err);
    let (bound, cases) = ((64, 1, 8 * 64), generated(valid.into(), true, refused));
    table.row("decode_partial_response_over", bound, decode, encode, cases);

    let encode = |info: &_| text(wire::encode_shard_info(info));
    let decode = |b: &[u8]| wire::decode_shard_info(&string(b)).map_err(err);
    let bodies = [shard_info("[9,2],[16,1]", 0.05), shard_info("", 1e-30), shard_info("[0,7]", 3.0)];
    let valid = bodies.iter().map(|b| canonical(b, decode, encode)).collect();
    let past_u64 = shard_info("[9,18446744073709551615],[16,1]", 0.05);
    let refused = vec![no("bucket counts past u64", past_u64, "'latency.buckets'")];
    table.row("decode_shard_info", JSON, decode, encode, generated(valid, true, refused));

    let encode = |traces: &Vec<_>| text(wire::encode_trace_recent(traces, &[], 0));
    let decode = |b: &[u8]| wire::decode_trace_recent(&string(b)).map_err(err);
    let (event, span) = (r#"{"at_us":7,"message":"x"}"#, r#""start_us":5,"duration_us":40,"events""#);
    let spans = format!(r#"{{"id":1,"name":"http",{span}:[{event}]}},{{"id":2,"parent":1,"name":"fold",{span}:[]}}"#);
    let recent = format!(r#"{{"recent":[{{"trace_id":"000000000000feed","total_us":90,"spans":[{spans}]}}]}}"#);
    let valid = [recent.as_str(), r#"{"recent":[]}"#].map(|b| canonical(b, decode, encode));
    table.row("decode_trace_recent", JSON, decode, encode, generated(valid.into(), true, vec![]));

    let encode = |w: &InferWire| {
        let mut members = match &w.body {
            InferBody::Words(words) => {
                vec![("words", JsonValue::Array(words.iter().map(|&v| u64::from(v).into()).collect()))]
            }
            InferBody::Tokens { tokens, policy } => {
                let tokens = tokens.iter().map(|t| t.as_str().into()).collect();
                let oov = if *policy == OovPolicy::Fail { "fail" } else { "skip" };
                vec![("tokens", JsonValue::Array(tokens)), ("oov", oov.into())]
            }
        };
        members.extend(w.seed.map(|s| ("seed", s.into())));
        text(JsonValue::object(members))
    };
    let decode = |b: &[u8]| wire::decode_infer(&string(b)).map_err(err);
    let bodies = [
        r#"{"words":[1,2,3],"seed":9}"#.to_string(),
        format!("{{\"words\":{:?}}}", (0..2000).collect::<Vec<u32>>()),
        r#"{"tokens":["dog","cat"],"oov":"fail","seed":0}"#.to_string(),
    ];
    let valid = bodies.iter().map(|b| canonical(b, decode, encode)).collect();
    let refused = vec![no("no document", r#"{"seed":1}"#, ""), no("oov 'maybe'", r#"{"tokens":[],"oov":"maybe"}"#, "")];
    table.row("decode_infer", JSON, decode, encode, generated(valid, true, refused));

    let encode = |v: &u64| format!("{{\"snapshot_version\":{v}}}").into_bytes();
    let decode = |b: &[u8]| wire::decode_healthz_version(&string(b)).map_err(err);
    let cases = generated([7, 0, u64::MAX].iter().map(encode).collect(), true, vec![]);
    table.row("decode_healthz_version", JSON, decode, encode, cases);

    // Any body maps onto a `ServeError`: nothing is refused, nothing lost.
    let encode = |e: &ServeError| match e {
        ServeError::Conflict { detail } => text(wire::encode_error(409, detail)),
        other => panic!("a 409 decoded to {other:?}"),
    };
    let valid = ["epoch 3 is not ahead", ""].map(|d| text(wire::encode_error(409, d)));
    let decode = |b: &[u8]| Ok::<_, String>(wire::decode_serve_error(409, &string(b)));
    table.row("decode_serve_error", JSON, decode, encode, generated(valid.into(), false, vec![]));

    // A prefix may still parse: a bare trace id is a root.
    let header = |(id, parent)| TraceContext::child(TraceId::from_raw(id).unwrap(), parent);
    let header = |ids| header(ids).header_value().unwrap().into_bytes();
    let valid: Vec<_> = [(1, 0), (u64::MAX, u64::MAX), (0x0123_4567_89ab_cdef, 42)].map(header).into();
    let mut refused: Vec<Case> = GARBAGE_HEADERS.iter().map(|g| no(g, *g, "")).collect();
    for (i, byte) in [(0, b'g'), (5, b'!'), (16, b'+'), (20, 0xff), (32, b'x')] {
        refused.push(no(format!("byte {i} := {byte:#x}"), at(&valid[2], i, &[byte]), ""));
    }
    let decode = |b: &[u8]| TraceContext::parse(&string(b)).ok_or("untraced".to_string());
    let encode = |c: &TraceContext| c.header_value().unwrap().into_bytes();
    table.row("TraceContext::parse", JSON, decode, encode, generated(valid, false, refused));
}

const GARBAGE_HEADERS: [&str; 9] = [
    "",
    "zzzz",
    "deadbeef",                               // 8 hex digits, not 16
    "0000000000000000",                       // the zero id
    "0123456789abcdef-XYZ",                   // bad parent
    "0123456789abcdef-0123456789abcdef-junk", // extra component
    "ffffffffffffffffffffffffffffffff",       // 32 digits, no separator
    "!@#$%^&*()_+|~`",
    "0123456789abcdeg", // one non-hex digit
];

/// One request to `addr`, the connection closed after it: `Ok(body)` for
/// a `200`, `Err("<status> <body>")` for a `4xx`. Anything else — a `5xx`,
/// a dropped connection — is no typed answer, and panics.
fn send(addr: SocketAddr, request: &[u8]) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let body = reply
        .split_once("\r\n\r\n")
        .map_or("", |(_, body)| body)
        .to_string();
    match reply.get(9..12).and_then(|s| s.parse::<u16>().ok()) {
        Some(200) => Ok(body),
        Some(status @ 400..=499) => Err(format!("{status} {body}")),
        _ => panic!("no typed answer: {reply:?}"),
    }
}

fn post(path: &str, headers: &str, body: &[u8]) -> Vec<u8> {
    let length = body.len();
    let head = format!("POST {path} HTTP/1.1\r\nContent-Length: {length}\r\n{headers}");
    [head.as_bytes(), b"Connection: close\r\n\r\n", body].concat()
}

fn epoch(e: u64) -> String {
    format!("X-Saber-Epoch: {e}\r\n")
}

/// A fresh shard serving `model`'s W-ary export at `epoch` and holding no
/// other epoch, behind a loopback listener.
fn fresh_shard(model: &LdaModel, epoch: u64) -> (Arc<TopicServer>, HttpServer) {
    let server = Arc::new(TopicServer::from_model(model, ServeConfig::default()).unwrap());
    if epoch > 1 {
        let own = InferenceSnapshot::from_model(model, SnapshotSampler::WaryTree);
        server.stage(epoch, Publication::Slice(own)).unwrap();
        server.commit(epoch).unwrap();
        // A stage whose build fails (a row past `V`) releases the epoch the
        // commit replaced and stages nothing.
        let (vocab, k) = (model.vocab_size(), model.n_topics());
        let rows = vec![(vocab as u32, vec![0.5; k])];
        let bad = DeltaPayload {
            rows,
            ..delta(vocab, k, vocab, (epoch, epoch + 1))
        };
        assert!(server.stage(epoch + 1, Publication::Delta(&bad)).is_err());
    }
    let config = HttpConfig::default();
    let http = HttpServer::bind("127.0.0.1:0", Arc::clone(&server), None, config);
    (server, http.unwrap())
}

/// A request whose `Content-Length` claims 2^40 bytes over 3.
fn lying_length(path: &str) -> Case {
    let head = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n{}",
        1u64 << 40,
        epoch(9)
    );
    no(
        "Content-Length 2^40 over 3 bytes",
        format!("{head}\r\nabc"),
        "413",
    )
}

#[rustfmt::skip]
fn endpoint_rows(table: &mut Table) {
    // Served: 1 024 × 64, 256 KiB of B̂, which also bounds a publication's
    // body. A publication holds its body (1×), decodes it (≤ 2×) and builds
    // rows and samplers of the served shape (≤ 3×).
    let (vocab, k) = (1024, 64);
    let bounds = (3, 3, vocab * k * 4);
    let model = planted(vocab, k);
    // A stage's answer, committed: the served bytes must be what was sent.
    let commit = |server: &TopicServer, reply: &String| {
        let staged = json::parse(reply).unwrap().get("staged_epoch").and_then(JsonValue::as_u64);
        server.commit(staged.unwrap()).unwrap();
        slice(&server.snapshot())
    };
    let exact = |what: &str, request, want| Case(what.into(), request, Expect::Exact(want));

    let (server, http) = fresh_shard(&model, 1);
    let addr = http.local_addr();
    let decode = |b: &[u8]| send(addr, b);

    let shard = |e: u64, body: &[u8]| post("/publish-shard", &epoch(e), body);
    let own = export(&model, SnapshotSampler::WaryTree);
    let other = export(&model, SnapshotSampler::AliasTable);
    let patched = |offset, with: &[u8]| shard(4, &at(&own, offset, with));
    let mut cases = vec![
        exact("valid AliasTable slice", shard(2, &other), other.clone()),
        exact("valid W-ary slice", shard(3, &own), own.clone()),
        no("a stale epoch", shard(3, &own), "409"),
        lying_length("/publish-shard"),
        no("a foreign 65536 x 1 slice", patched(12, &[le(65536), le(1)].concat()), "published snapshot is 65536x1"),
        no("V = 2^20 over the served bytes", patched(12, &le(1 << 20)), "400"),
        no("alpha 0.1", patched(28, &f32s(0.1)), "at alpha 0.1"),
        no("sampler code 7", patched(32, &[7]), "sampler code 7"),
        no("a NaN probability", patched(33, &f32s(f32::NAN)), "not finite"),
    ];
    for cut in [0, 8, 12, 20, 28, 32, 33, 37, own.len() / 2, own.len() - 2] {
        cases.push(no(format!("cut at byte {cut}"), shard(4, &own[..cut]), "400"));
    }
    // A slice that failed to build staged nothing.
    cases.push(no("commit of epoch 4", post("/commit-epoch", &epoch(4), br#"{"epoch":4}"#), "409"));
    table.row("POST /publish-shard", bounds, decode, |r| commit(&server, r), cases);
    http.shutdown();

    // Serving the W-ary slice at epoch 3; each valid delta applies over
    // the one before it.
    let (server, http) = fresh_shard(&model, 3);
    let addr = http.local_addr();
    let decode = |b: &[u8]| send(addr, b);
    let publish = |e: u64, d: &DeltaPayload| post("/publish-delta", &epoch(e), &encoded(d));
    let (whole, sparse) = (delta(vocab, k, 1, (3, 4)), delta(vocab, k, 37, (4, 5)));
    let after_whole = server.snapshot().apply_delta(&whole).unwrap();
    let after_sparse = after_whole.apply_delta(&sparse).unwrap();
    let body = encoded(&delta(vocab, k, 5, (5, 6)));
    let next = |e: u64, offset, with: &[u8]| post("/publish-delta", &epoch(e), &at(&body, offset, with));
    // 2^15 + 1 one-topic rows: the decoded rows' vector has just doubled.
    let rows = (0..(1 << 15) + 1).map(|v| (v, vec![0.5])).collect();
    let foreign = DeltaPayload { vocab_size: 1 << 20, n_topics: 1, rows, ..delta(1, 1, 1, (5, 6)) };
    let mut cases = vec![
        exact("delta of every row", publish(4, &whole), slice(&after_whole)),
        exact("delta of every 37th row", publish(5, &sparse), slice(&after_sparse)),
        no("a foreign 1048576 x 1 delta of 32769 rows", publish(6, &foreign), "1048576x1"),
        no("sampler code 1", next(6, 48, &[1]), "sampler code 1"),
        no("alpha 0.1", next(6, 44, &f32s(0.1)), "at alpha 0.1"),
        no("a negative probability", next(6, 61, &f32s(-1.5)), "not finite"),
        no("X-Saber-Epoch 7 for target 6", next(7, 0, &[]), "does not match the delta's target"),
        no("a stale base", next(6, 12, &le(4)), "409"),
        no("V × K = 2^32 × 2^20", next(6, 28, &[le(1 << 32), le(1 << 20)].concat()), "400"),
        lying_length("/publish-delta"),
    ];
    for cut in [0, 12, 20, 28, 36, 44, 48, 49, 57, 61, body.len() - 3] {
        let request = post("/publish-delta", &epoch(6), &body[..cut]);
        cases.push(no(format!("cut at byte {cut}"), request, "400"));
    }
    // A delta that failed to build staged nothing.
    cases.push(no("commit of epoch 6", post("/commit-epoch", &epoch(6), br#"{"epoch":6}"#), "409"));
    table.row("POST /publish-delta", bounds, decode, |r| commit(&server, r), cases);
    http.shutdown();

    // Serving epoch 5; epoch 6 staged here, outside any case.
    let (server, http) = fresh_shard(&model, 5);
    let addr = http.local_addr();
    let decode = |b: &[u8]| send(addr, b);
    let wary = InferenceSnapshot::from_model(&model, SnapshotSampler::WaryTree);
    server.stage(6, Publication::Slice(wary)).unwrap();
    let json = |e: u64| format!("{{\"epoch\":{e}}}");
    let commit = |headers: &str, body: &[u8]| post("/commit-epoch", headers, body);
    let six = json(6);
    let mut cases = vec![
        no("X-Saber-Epoch 7 for epoch 6", commit(&epoch(7), six.as_bytes()), "409"),
        no("nothing staged for epoch 7", commit("", json(7).as_bytes()), "409"),
        exact("epoch 6", commit(&epoch(6), six.as_bytes()), six.clone().into()),
        exact("epoch 6 again", commit("", six.as_bytes()), six.clone().into()),
        no("not UTF-8", commit("", &[0xff, 0xfe]), "400"),
        no("a string epoch", commit("", br#"{"epoch":"6"}"#), "400"),
        no("an epoch past u64", commit("", br#"{"epoch":18446744073709551616}"#), "400"),
        lying_length("/commit-epoch"),
    ];
    for cut in 0..six.len() {
        cases.push(no(format!("prefix of {cut} bytes"), commit("", &six.as_bytes()[..cut]), "400"));
    }
    let version = |reply: &String| json(wire::decode_healthz_version(reply).unwrap()).into();
    table.row("POST /commit-epoch", bounds, decode, version, cases);

    // X-Saber-Trace on a live request: garbage degrades to untraced, and
    // every answer is the untraced one.
    let infer = |header: &str| post("/infer", header, br#"{"words":[1,2,3,4],"seed":7}"#);
    let untraced = send(addr, &infer("")).unwrap().into_bytes();
    let headers = ["0123456789abcdef-0000000000000001"].into_iter().chain(GARBAGE_HEADERS);
    let cases = headers.map(|h| exact(&format!("{h:?}"), infer(&format!("X-Saber-Trace: {h}\r\n")), untraced.clone()));
    let answer = |reply: &String| reply.clone().into_bytes();
    table.row("POST /infer, X-Saber-Trace", bounds, decode, answer, cases.collect());
    http.shutdown();
}

#[test]
fn every_decoder_stays_within_its_memory_bound() {
    let mut table = Table::default();
    file_rows(&mut table);
    wire_rows(&mut table);
    endpoint_rows(&mut table);
    println!(
        "{:<28} {:>5} {:>9} {:>11} {:>8}",
        "decoder", "cases", "peak B", "largest in", "B / in B"
    );
    for r in &table.0 {
        let (name, cases, peak, len, per_byte) = (r.name, r.cases, r.peak, r.len, r.per_byte);
        println!("{name:<28} {cases:>5} {peak:>9} {len:>11} {per_byte:>8.2}");
    }
    let failures: Vec<&str> = table
        .0
        .iter()
        .flat_map(|r| &r.failures)
        .map(String::as_str)
        .collect();
    assert!(
        failures.is_empty(),
        "{} cases failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
