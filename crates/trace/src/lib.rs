//! Dependency-free distributed request tracing for the SaberLDA stack.
//!
//! One serving request can cross a queue, several worker threads, a shard
//! fan-out and — with remote transports — machine boundaries. Aggregate
//! histograms say *that* the p99 moved; this crate records *where inside
//! one request* the time went: a [`TraceId`] minted at ingress (or parsed
//! from an `X-Saber-Trace` header), a [`TraceBuilder`] that grows a span
//! tree as the request moves through parse → queue-wait → fan-out → merge
//! → encode, and a per-process [`TraceRing`] plus [`SlowCapture`] the HTTP
//! layer exposes via `GET /trace/recent`.
//!
//! Design constraints, in the spirit of the rest of the workspace:
//!
//! * **Dependency-free** — ids, hex codecs and clocks are hand-rolled over
//!   `std` only.
//! * **Never on the hot path's critical section** — the ring's writers use
//!   `try_lock` on a single slot and *drop the sample* rather than block a
//!   serving thread; the write cursor itself is a lock-free atomic.
//! * **Zero cost to correctness** — tracing only reads clocks and copies
//!   ids; it never feeds seeds, ordering or float paths, so θ is
//!   bit-identical with tracing on or off (pinned by
//!   `tests/tracing.rs`).
//!
//! Span ids are dense small integers local to one builder; stitching a
//! remote subtree (spans returned inline in an `/infer-partial` response)
//! re-numbers it under the local parent via [`TraceBuilder::attach`], so
//! no cross-process id coordination is needed.
//!
//! The wire format of the `X-Saber-Trace` header is
//! `<trace-id:16 lowercase hex>` or `<trace-id>-<parent-span:16 hex>`;
//! see `docs/OBSERVABILITY.md` for the full header and span taxonomy
//! reference.
//!
//! # Example
//!
//! ```
//! use saber_trace::{TraceBuilder, TraceContext, TraceId};
//!
//! let ctx = TraceContext::parse("00000000000000ff-0000000000000001").unwrap();
//! let mut trace = TraceBuilder::new(ctx.trace_id().unwrap());
//! let root = trace.begin(None, "ingress");
//! let parse = trace.begin(Some(root), "parse");
//! trace.end(parse);
//! trace.end(root);
//! let done = trace.finish();
//! assert_eq!(done.trace_id.to_hex(), "00000000000000ff");
//! assert_eq!(done.spans.len(), 2);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A 64-bit, non-zero request trace identifier.
///
/// Rendered as 16 lowercase hex digits in headers and JSON. Minted ids mix
/// a per-process random base (from the system clock at first use) with an
/// atomic counter through a SplitMix64 finaliser, so concurrent mints never
/// collide within a process and collide across processes only with the
/// birthday probability of 64 random bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-process entropy base every minted id mixes in.
fn mint_base() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5ABE_51DA);
        splitmix64(nanos ^ (std::process::id() as u64) << 32)
    })
}

impl TraceId {
    /// Mints a fresh, process-unique trace id.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mixed = splitmix64(mint_base() ^ n);
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// Wraps a raw non-zero id (e.g. one parsed off the wire).
    /// Returns `None` for zero, which is reserved for "untraced".
    pub fn from_raw(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw 64-bit value (never zero).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The 16-lowercase-hex-digit wire form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-hex-digit wire form; `None` for anything else
    /// (wrong length, non-hex, or the reserved zero id).
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().and_then(TraceId::from_raw)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated half of a trace: which trace a unit of work belongs to
/// and which span is its parent.
///
/// A disabled context (`TraceContext::disabled()`) is the "not traced"
/// sentinel every internal call path can pass cheaply: it carries no id,
/// transports skip the `X-Saber-Trace` header for it, and span recording
/// is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    id: Option<TraceId>,
    parent: u64,
}

impl TraceContext {
    /// The untraced sentinel: no id, no header, no spans.
    pub fn disabled() -> TraceContext {
        TraceContext {
            id: None,
            parent: 0,
        }
    }

    /// A context rooted at the top of trace `id` (no parent span).
    pub fn root(id: TraceId) -> TraceContext {
        TraceContext {
            id: Some(id),
            parent: 0,
        }
    }

    /// A context for work parented under span `parent` of trace `id`.
    pub fn child(id: TraceId, parent: u64) -> TraceContext {
        TraceContext {
            id: Some(id),
            parent,
        }
    }

    /// Whether this context carries a live trace.
    pub fn enabled(&self) -> bool {
        self.id.is_some()
    }

    /// The trace id, when enabled.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.id
    }

    /// The parent span id (0 = root / unknown).
    pub fn parent_span(&self) -> u64 {
        self.parent
    }

    /// The `X-Saber-Trace` header value (`trace-parent`, both 16 hex
    /// digits), or `None` for a disabled context.
    pub fn header_value(&self) -> Option<String> {
        self.id
            .map(|id| format!("{:016x}-{:016x}", id.raw(), self.parent))
    }

    /// Parses an `X-Saber-Trace` header: `<trace>` or `<trace>-<parent>`,
    /// each 16 hex digits. `None` for malformed values (the caller mints a
    /// fresh id instead).
    pub fn parse(value: &str) -> Option<TraceContext> {
        let value = value.trim();
        match value.split_once('-') {
            None => TraceId::parse_hex(value).map(TraceContext::root),
            Some((trace, parent)) => {
                let id = TraceId::parse_hex(trace)?;
                if parent.len() != 16 {
                    return None;
                }
                let parent = u64::from_str_radix(parent, 16).ok()?;
                Some(TraceContext::child(id, parent))
            }
        }
    }
}

/// A timestamped annotation inside a span (`"transport retry shard 1"`,
/// `"epoch observed 3"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Microseconds since the owning trace's origin.
    pub at_us: u64,
    /// Human-readable message.
    pub message: String,
}

/// One node of a span tree: a named, timed unit of work.
///
/// `start_us` is measured from the *recording process's* trace origin;
/// spans stitched in from another machine keep their relative internal
/// offsets but are re-based onto the local clock by
/// [`TraceBuilder::attach`], so cross-machine offsets are approximate
/// (bounded by the submit/observe skew), while durations are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, dense and local to one assembled trace (root spans of a
    /// builder start at 1).
    pub id: u64,
    /// Parent span id within the same trace; `None` for a root.
    pub parent: Option<u64>,
    /// Span name (see the taxonomy in `docs/OBSERVABILITY.md`).
    pub name: String,
    /// Start offset in microseconds from the trace origin.
    pub start_us: u64,
    /// Duration in microseconds (0 until the span is ended).
    pub duration_us: u64,
    /// Timestamped annotations.
    pub events: Vec<SpanEvent>,
}

/// A finished, assembled trace: the span tree of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// End-to-end duration: the latest span end observed, in microseconds.
    pub total_us: u64,
    /// All spans, in recording order (parents precede children).
    pub spans: Vec<SpanRecord>,
}

/// Grows the span tree of one in-flight request.
///
/// Not thread-safe by design: all router-side work for a request happens
/// on its connection thread, and timing measured on *other* threads
/// (worker queue-wait, shard processes) comes back as data — atomics or
/// inline wire spans — and is recorded here by the owning thread.
///
/// [`TraceBuilder::disabled`] is the null object untraced callers pass
/// down the same code path: it reads no clock, allocates nothing, records
/// nothing and hands out disabled [`TraceContext`]s.
#[derive(Debug)]
pub struct TraceBuilder {
    /// Trace id and clock origin; `None` for a disabled builder.
    live: Option<(TraceId, Instant)>,
    spans: Vec<SpanRecord>,
}

impl TraceBuilder {
    /// Starts a builder for trace `id`; the clock origin is now.
    pub fn new(id: TraceId) -> TraceBuilder {
        TraceBuilder {
            live: Some((id, Instant::now())),
            spans: Vec::with_capacity(8),
        }
    }

    /// The untraced null object: every recording method is a no-op that
    /// returns span id 0, and span names and event messages are never
    /// formatted.
    pub fn disabled() -> TraceBuilder {
        TraceBuilder {
            live: None,
            spans: Vec::new(),
        }
    }

    /// The context for work parented under span `parent` of this trace;
    /// [`TraceContext::disabled`] from a disabled builder.
    pub fn context(&self, parent: u64) -> TraceContext {
        match self.live {
            Some((id, _)) => TraceContext::child(id, parent),
            None => TraceContext::disabled(),
        }
    }

    /// Microseconds elapsed since the trace origin (0 when disabled).
    pub fn elapsed_us(&self) -> u64 {
        self.live
            .map_or(0, |(_, origin)| origin.elapsed().as_micros() as u64)
    }

    /// Opens a span starting now; returns its id. Pass the returned id to
    /// [`TraceBuilder::end`] to close it.
    pub fn begin(&mut self, parent: Option<u64>, name: impl Display) -> u64 {
        self.push_span(parent, name, self.elapsed_us(), 0)
    }

    /// Closes span `span`, setting its duration from its start to now.
    /// Unknown ids are ignored.
    pub fn end(&mut self, span: u64) {
        let now = self.elapsed_us();
        if let Some(record) = self.span_mut(span) {
            record.duration_us = now.saturating_sub(record.start_us);
        }
    }

    /// Records a fully-measured span (timing observed elsewhere, e.g. a
    /// worker thread's queue-wait reported through an atomic cell).
    pub fn push_span(
        &mut self,
        parent: Option<u64>,
        name: impl Display,
        start_us: u64,
        duration_us: u64,
    ) -> u64 {
        if self.live.is_none() {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_us,
            duration_us,
            events: Vec::new(),
        });
        id
    }

    /// Appends a timestamped event to span `span` (ignored — and
    /// `message` never formatted — for unknown ids).
    pub fn event(&mut self, span: u64, message: impl Display) {
        let at_us = self.elapsed_us();
        if let Some(record) = self.span_mut(span) {
            record.events.push(SpanEvent {
                at_us,
                message: message.to_string(),
            });
        }
    }

    /// Stitches a remote subtree under local span `parent`: every remote
    /// span is re-numbered into this builder's id space, remote roots are
    /// re-parented onto `parent`, and all offsets shift by `base_us` (the
    /// local elapsed time when the remote work was submitted).
    pub fn attach(&mut self, parent: u64, remote: &[SpanRecord], base_us: u64) {
        let mut mapping: Vec<(u64, u64)> = Vec::with_capacity(remote.len());
        for span in remote {
            let mapped_parent = span
                .parent
                .and_then(|p| mapping.iter().find(|&&(old, _)| old == p))
                .map(|&(_, new)| new);
            let new_id = self.push_span(
                Some(mapped_parent.unwrap_or(parent)),
                &span.name,
                span.start_us.saturating_add(base_us),
                span.duration_us,
            );
            if let Some(record) = self.span_mut(new_id) {
                record.events = span
                    .events
                    .iter()
                    .map(|e| SpanEvent {
                        at_us: e.at_us.saturating_add(base_us),
                        message: e.message.clone(),
                    })
                    .collect();
            }
            mapping.push((span.id, new_id));
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total microseconds spent in spans named `name` (used to attribute
    /// e.g. aggregate queue-wait inside one request).
    pub fn named_total_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us)
            .sum()
    }

    /// Finalises the trace. Still-open spans keep duration 0; the total is
    /// the latest span end observed. A disabled builder recorded nothing to
    /// correlate, so it finishes as an empty trace under a fresh id.
    pub fn finish(self) -> Trace {
        let total_us = self
            .spans
            .iter()
            .map(|s| s.start_us.saturating_add(s.duration_us))
            .max()
            .unwrap_or(0);
        Trace {
            trace_id: self.live.map_or_else(TraceId::mint, |(id, _)| id),
            total_us,
            spans: self.spans,
        }
    }

    fn span_mut(&mut self, span: u64) -> Option<&mut SpanRecord> {
        // Ids are dense (index + 1), so lookup is O(1) without indexing
        // panics.
        span.checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
    }
}

/// A fixed-size ring of the most recent finished traces in this process.
///
/// The write cursor is a lock-free atomic; each slot is guarded by its own
/// mutex that writers only `try_lock` — a slot contended by a concurrent
/// reader or writer drops the incoming sample instead of blocking the
/// serving thread. Readers take slot locks briefly (clone out, release).
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Mutex<Option<Trace>>]>,
    cursor: AtomicUsize,
}

impl TraceRing {
    /// A ring holding up to `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records a finished trace. Never blocks: a contended slot drops the
    /// sample.
    pub fn push(&self, trace: Trace) {
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        if let Some(slot) = self.slots.get(at) {
            if let Ok(mut slot) = slot.try_lock() {
                *slot = Some(trace);
            }
        }
    }

    /// The recorded traces, newest first. Skips slots a writer holds at
    /// the instant of the scan.
    pub fn recent(&self) -> Vec<Trace> {
        let n = self.slots.len();
        let head = self.cursor.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(n);
        for back in 1..=n {
            // Walk backwards from the most recently claimed slot.
            let at = (head.wrapping_add(n).wrapping_sub(back)) % n;
            if let Some(slot) = self.slots.get(at) {
                if let Ok(slot) = slot.try_lock() {
                    if let Some(trace) = slot.as_ref() {
                        out.push(trace.clone());
                    }
                }
            }
        }
        out
    }
}

/// Keeps the `keep` worst (slowest) traces at or above a latency
/// threshold — the "what were my bad requests" capture that survives ring
/// wrap-around.
#[derive(Debug)]
pub struct SlowCapture {
    threshold_us: u64,
    keep: usize,
    worst: Mutex<Vec<Trace>>,
}

impl SlowCapture {
    /// Captures up to `keep` traces whose total is ≥ `threshold`.
    pub fn new(threshold: Duration, keep: usize) -> SlowCapture {
        SlowCapture {
            threshold_us: threshold.as_micros() as u64,
            keep,
            worst: Mutex::new(Vec::with_capacity(keep.min(64))),
        }
    }

    /// The capture threshold.
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Offers a finished trace; it is cloned in only when it qualifies
    /// (at or above the threshold and within the worst `keep`).
    pub fn offer(&self, trace: &Trace) {
        if self.keep == 0 || trace.total_us < self.threshold_us {
            return;
        }
        let mut worst = self.worst.lock().unwrap_or_else(|e| e.into_inner());
        let at = worst
            .iter()
            .position(|t| t.total_us < trace.total_us)
            .unwrap_or(worst.len());
        if at >= self.keep {
            return;
        }
        worst.insert(at, trace.clone());
        worst.truncate(self.keep);
    }

    /// The captured traces, slowest first.
    pub fn worst(&self) -> Vec<Trace> {
        self.worst.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a.raw(), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trip() {
        let id = TraceId::from_raw(0xff).unwrap();
        assert_eq!(id.to_hex(), "00000000000000ff");
        assert_eq!(TraceId::parse_hex("00000000000000ff"), Some(id));
        assert_eq!(TraceId::parse_hex("ff"), None);
        assert_eq!(TraceId::parse_hex("000000000000000g"), None);
        assert_eq!(TraceId::parse_hex("0000000000000000"), None);
        assert_eq!(format!("{id}"), "00000000000000ff");
    }

    #[test]
    fn header_round_trip() {
        let ctx = TraceContext::child(TraceId::from_raw(0xab).unwrap(), 3);
        let header = ctx.header_value().unwrap();
        assert_eq!(header, "00000000000000ab-0000000000000003");
        assert_eq!(TraceContext::parse(&header), Some(ctx));
        let root = TraceContext::parse("00000000000000ab").unwrap();
        assert_eq!(root.parent_span(), 0);
        assert!(root.enabled());
        assert_eq!(TraceContext::parse("xyz"), None);
        assert_eq!(TraceContext::parse("00000000000000ab-zz"), None);
        assert!(!TraceContext::disabled().enabled());
        assert_eq!(TraceContext::disabled().header_value(), None);
    }

    #[test]
    fn builder_grows_a_tree() {
        let mut b = TraceBuilder::new(TraceId::from_raw(7).unwrap());
        let root = b.begin(None, "ingress");
        let child = b.begin(Some(root), "parse");
        b.event(child, "hello");
        b.end(child);
        b.end(root);
        let trace = b.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(root));
        assert_eq!(trace.spans[1].events.len(), 1);
        assert!(trace.total_us >= trace.spans[1].start_us);
    }

    #[test]
    fn a_disabled_builder_records_nothing_and_formats_nothing() {
        /// Flips its flag whenever it is formatted.
        struct Tripwire<'a>(&'a std::cell::Cell<bool>);
        impl Display for Tripwire<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(true);
                f.write_str("tripped")
            }
        }
        let formatted = std::cell::Cell::new(false);
        let remote = SpanRecord {
            id: 1,
            parent: None,
            name: "infer-partial".to_string(),
            start_us: 0,
            duration_us: 40,
            events: Vec::new(),
        };

        let mut off = TraceBuilder::disabled();
        let root = off.begin(None, Tripwire(&formatted));
        assert_eq!(root, 0);
        assert_eq!(off.push_span(Some(root), Tripwire(&formatted), 5, 7), 0);
        off.event(root, Tripwire(&formatted));
        off.end(root);
        off.attach(root, std::slice::from_ref(&remote), 10);
        assert!(off.spans().is_empty());
        assert!(!formatted.get(), "a disabled builder formatted a name");
        assert_eq!(off.elapsed_us(), 0);
        assert_eq!(off.named_total_us("infer-partial"), 0);
        assert_eq!(off.context(3), TraceContext::disabled());
        assert!(off.finish().spans.is_empty());

        // The tripwire is live: an enabled builder does format it — except
        // for an event aimed at a span that does not exist.
        let id = TraceId::from_raw(7).unwrap();
        let mut on = TraceBuilder::new(id);
        on.event(99, Tripwire(&formatted));
        assert!(!formatted.get());
        let root = on.begin(None, Tripwire(&formatted));
        assert!(formatted.get());
        assert_eq!(on.spans()[0].name, "tripped");
        assert_eq!(on.context(root), TraceContext::child(id, root));
    }

    #[test]
    fn attach_renumbers_and_rebases_a_remote_subtree() {
        let mut remote = TraceBuilder::new(TraceId::from_raw(9).unwrap());
        let r = remote.push_span(None, "infer-partial", 0, 40);
        remote.push_span(Some(r), "queue-wait", 0, 10);
        remote.push_span(Some(r), "handler", 10, 30);
        let remote_spans = remote.finish().spans;

        let mut local = TraceBuilder::new(TraceId::from_raw(7).unwrap());
        let root = local.begin(None, "ingress");
        let shard = local.begin(Some(root), "shard 0");
        local.attach(shard, &remote_spans, 100);
        let spans = local.spans();
        assert_eq!(spans.len(), 5);
        // The remote root hangs off the local shard span...
        assert_eq!(spans[2].name, "infer-partial");
        assert_eq!(spans[2].parent, Some(shard));
        assert_eq!(spans[2].start_us, 100);
        // ...and its children keep their internal structure, re-numbered.
        assert_eq!(spans[3].parent, Some(spans[2].id));
        assert_eq!(spans[4].parent, Some(spans[2].id));
        assert_eq!(spans[4].start_us, 110);
        assert_eq!(local.named_total_us("queue-wait"), 10);
    }

    #[test]
    fn ring_wraps_and_reports_newest_first() {
        let ring = TraceRing::new(2);
        assert_eq!(ring.capacity(), 2);
        for total in [1u64, 2, 3] {
            ring.push(Trace {
                trace_id: TraceId::from_raw(total).unwrap(),
                total_us: total,
                spans: Vec::new(),
            });
        }
        let recent = ring.recent();
        assert_eq!(
            recent.iter().map(|t| t.total_us).collect::<Vec<_>>(),
            vec![3, 2]
        );
    }

    #[test]
    fn slow_capture_keeps_the_worst_above_threshold() {
        let capture = SlowCapture::new(Duration::from_micros(100), 2);
        for total in [50u64, 150, 120, 400, 130] {
            capture.offer(&Trace {
                trace_id: TraceId::from_raw(total).unwrap(),
                total_us: total,
                spans: Vec::new(),
            });
        }
        let worst = capture.worst();
        assert_eq!(
            worst.iter().map(|t| t.total_us).collect::<Vec<_>>(),
            vec![400, 150]
        );
        let off = SlowCapture::new(Duration::from_micros(0), 0);
        off.offer(&Trace {
            trace_id: TraceId::from_raw(1).unwrap(),
            total_us: 10,
            spans: Vec::new(),
        });
        assert!(off.worst().is_empty());
    }
}
