//! In-memory spans around calls into a layer, recorded by the traced run.
//!
//! The benchmark measures every layer from outside, so a span here wraps
//! one call into a public function of the repository. Spans live in a
//! `Vec` until the run ends and are then written to
//! `out/trace_<workload>.json`; nothing is written while timing.

use std::collections::BTreeMap;
use std::time::Instant;

use saber_core::json::JsonValue;

/// One recorded call: `[start_ns, end_ns)` since the log's origin, the
/// span that caused it, and the request/iteration/tick it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span recorder.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Records a span around `work`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, parent, id);
        let result = work();
        self.end(span);
        result
    }

    /// Appends an already-measured span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`, in log order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_time_ns(&self, span: usize) -> u64 {
        let me = &self.spans[span];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        covered.sort_unstable();
        let mut child_ns = 0u64;
        let mut reach = me.start_ns;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                child_ns += end - start;
                reach = end;
            }
        }
        me.duration_ns() - child_ns
    }

    /// Σ self time per span name within each `id` (iteration, tick or
    /// request), in seconds: `result[name]` holds one value per id that
    /// has a span of that name, ascending by id.
    pub fn self_seconds_by_name_and_id(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut sums: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            *sums.entry((span.name, span.id)).or_default() += self.self_time_ns(i);
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in sums {
            by_name.entry(name).or_default().push(ns as f64 / 1e9);
        }
        by_name
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object([
                        ("name", JsonValue::from(s.name)),
                        ("start_ns", JsonValue::from(s.start_ns)),
                        ("end_ns", JsonValue::from(s.end_ns)),
                        ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                        ("id", JsonValue::from(s.id)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let mut log = SpanLog::new();
        let root = log.push(span("iterate", 0, 100, None));
        let child = log.push(span("sample", 10, 60, Some(root)));
        log.push(span("probe", 20, 30, Some(child)));
        assert_eq!(log.self_time_ns(root), 50);
        assert_eq!(log.self_time_ns(child), 40);
        assert_eq!(log.self_time_ns(2), 10);
    }

    #[test]
    fn sibling_spans_add_up_and_overlap_counts_once() {
        let mut log = SpanLog::new();
        let root = log.push(span("iterate", 0, 100, None));
        log.push(span("a", 0, 30, Some(root)));
        log.push(span("b", 30, 50, Some(root)));
        assert_eq!(log.self_time_ns(root), 50);
        // An overlapping sibling covers [40, 70): only [50, 70) is new.
        log.push(span("c", 40, 70, Some(root)));
        assert_eq!(log.self_time_ns(root), 30);
        // A child reaching past its parent is clipped to the parent.
        log.push(span("d", 90, 130, Some(root)));
        assert_eq!(log.self_time_ns(root), 20);
    }

    #[test]
    fn self_seconds_group_by_name_and_id() {
        let mut log = SpanLog::new();
        for id in 0..2u64 {
            let base = id * 1_000;
            let root = log.push(Span {
                id,
                ..span("iterate", base, base + 100, None)
            });
            for chunk in 0..2u64 {
                log.push(Span {
                    id,
                    ..span(
                        "sample",
                        base + chunk * 40,
                        base + chunk * 40 + 30,
                        Some(root),
                    )
                });
            }
        }
        let by_name = log.self_seconds_by_name_and_id();
        assert_eq!(by_name["sample"], vec![60e-9, 60e-9]);
        assert_eq!(by_name["iterate"], vec![40e-9, 40e-9]);
    }
}
