//! Names, units and directions of everything the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root carries the same workload and
//! metric lists for whoever drives the benchmark from outside; a unit test
//! keeps the two in step. Later performance claims are made in these names.

use saber_core::json::{self, JsonValue};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The four workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_longdoc_k1000",
        "the paper's regime: K=1000, long documents, full iterate() sweeps from random init; no serving code runs",
    ),
    (
        "serve_direct_longdoc",
        "one TopicServer behind HTTP, long documents: fold-in dominates each request, router and transport do nothing",
    ),
    (
        "serve_fleet_shortdoc",
        "router over 2 remote vocabulary shards, short documents: three HTTP hops, JSON codecs and fan-out dominate, fold-in is small",
    ),
    (
        "pipeline_publish_under_read",
        "incremental ingest and delta publication to the 2-shard fleet while a reader queries it: writes beside reads",
    ),
];

/// End-to-end metrics: `(name, unit, direction, bound)`. Every workload
/// reports every one of them; what the name means on each workload is in
/// `README.md`. `bound` is the share of the parent's median by which a
/// change may worsen the metric.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
    ("tokens_per_s", "tokens/s", Better::Higher, 0.25),
    ("op_p50_us", "us", Better::Lower, 0.25),
    ("heldout_perplexity", "ppl", Better::Lower, 0.15),
];

/// Per-layer metrics from the traced run: `(name, unit, direction)`. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 65] = [
    ("corpus.generate_s", "s", Better::Lower),
    ("core.layout.build_chunks_s", "s", Better::Lower),
    ("core.kernel.sample_chunk_s", "s", Better::Lower),
    ("core.kernel.ns_per_token", "ns", Better::Lower),
    ("core.kernel.share", "share", Better::Lower),
    ("core.count.rebuild_doc_topic_s", "s", Better::Lower),
    ("core.count.accumulate_word_topic_s", "s", Better::Lower),
    ("core.count.mean_kd", "count", Better::Lower),
    ("core.model.refresh_probabilities_s", "s", Better::Lower),
    ("core.trees.build_s", "s", Better::Lower),
    ("core.trees.sample_ns", "ns", Better::Lower),
    ("core.trainer.iterate_s", "s", Better::Lower),
    ("core.trainer.unattributed_share", "share", Better::Lower),
    ("gpu_sim.sim_seconds_per_iter", "s", Better::Lower),
    (
        "gpu_sim.sampling_dram_bytes_per_token",
        "bytes",
        Better::Lower,
    ),
    ("gpu_sim.wall_over_sim", "ratio", Better::Lower),
    ("core.infer.fold_in_us", "us", Better::Lower),
    ("core.infer.ns_per_token_sweep", "ns", Better::Lower),
    ("serve.snapshot.from_model_s", "s", Better::Lower),
    ("serve.snapshot.shard_s", "s", Better::Lower),
    ("serve.snapshot.bytes", "bytes", Better::Lower),
    ("serve.server.infer_us", "us", Better::Lower),
    ("serve.server.self_us", "us", Better::Lower),
    ("serve.server.queue_wait_mean_us", "us", Better::Lower),
    ("serve.server.mean_batch_size", "count", Better::Higher),
    ("serve.server.overloaded", "count", Better::Lower),
    ("serve.wire.decode_infer_us", "us", Better::Lower),
    ("serve.wire.encode_infer_response_us", "us", Better::Lower),
    ("serve.wire.partial_codec_us", "us", Better::Lower),
    ("serve.wire.request_bytes", "bytes", Better::Lower),
    ("serve.wire.response_bytes", "bytes", Better::Lower),
    ("serve.http.infer_rtt_us", "us", Better::Lower),
    ("serve.http.self_us", "us", Better::Lower),
    ("serve.http.healthz_rtt_us", "us", Better::Lower),
    ("serve.http.errors", "count", Better::Lower),
    ("serve.router.local_infer_us", "us", Better::Lower),
    ("serve.router.self_us", "us", Better::Lower),
    ("serve.router.split_us", "us", Better::Lower),
    (
        "serve.router.shard_requests_per_doc",
        "count",
        Better::Lower,
    ),
    ("serve.router.skew_retries", "count", Better::Lower),
    ("serve.router.transport_retries", "count", Better::Lower),
    ("serve.router.hedges", "count", Better::Lower),
    ("serve.transport.partial_rtt_us", "us", Better::Lower),
    ("serve.transport.self_us", "us", Better::Lower),
    ("pipeline.ingest_s", "s", Better::Lower),
    ("pipeline.iterate_incremental_s", "s", Better::Lower),
    ("pipeline.tick_s", "s", Better::Lower),
    ("pipeline.resample_ratio", "ratio", Better::Lower),
    ("pipeline.changed_rows_per_epoch", "count", Better::Lower),
    ("publish.snapshot_export_s", "s", Better::Lower),
    ("publish.delta_encode_s", "s", Better::Lower),
    ("publish.delta_apply_s", "s", Better::Lower),
    ("publish.delta_bytes", "bytes", Better::Lower),
    ("publish.incremental_s", "s", Better::Lower),
    ("publish.full_s", "s", Better::Lower),
    ("publish.full_bytes", "bytes", Better::Lower),
    ("publish.rows_shipped_share", "share", Better::Lower),
    ("publish.delta_epochs_share", "share", Better::Higher),
    ("publish.fallbacks", "count", Better::Lower),
    ("loadgen.late_p99_us", "us", Better::Lower),
    ("loadgen.max_late_us", "us", Better::Lower),
    ("infer_p95_us", "us", Better::Lower),
    ("infer_p99_us", "us", Better::Lower),
    ("infer_slo_qps", "1/s", Better::Higher),
    ("trace_overhead_share", "share", Better::Lower),
];

/// Unit of a metric by name, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, unit, ..)| (n, unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|&(n, _)| n == name)
}

/// One end-to-end metric's gate as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("end_to_end entry lacks '{key}'"))
            };
            let better = match text("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction '{other}'")),
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                better,
                bound: entry
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("end_to_end entry lacks 'bound'")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what an outside driver reads; the tables above
    /// are what the runner emits. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("list present")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let expected: Vec<String> = WORKLOADS.iter().map(|&(n, _)| n.to_string()).collect();
        assert_eq!(names("workloads"), expected);

        let bounds = parse_bounds(&text).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        for (bound, &(name, unit, better, limit)) in bounds.iter().zip(END_TO_END.iter()) {
            assert_eq!(bound.name, name);
            assert_eq!(bound.unit, unit);
            assert_eq!(bound.better, better);
            assert_eq!(bound.bound, limit);
            assert!(limit > 0.0 && limit <= 0.25);
        }

        let layers = doc.get("per_layer").and_then(JsonValue::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(entry.get("name").and_then(JsonValue::as_str), Some(name));
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(better.label())
            );
        }
    }

    #[test]
    fn names_are_unique_and_units_resolve() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|e| e.0))
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
        assert_eq!(unit_of("tokens_per_s"), Some("tokens/s"));
        assert_eq!(unit_of("publish.delta_bytes"), Some("bytes"));
        assert_eq!(unit_of("nope"), None);
    }
}
