//! Every workload, gated metric, layer metric and verdict
//! `BENCH_trajectory.json` names is one `BENCHMARK.json` declares, and every
//! record but the newest names its commit (schema: docs/BENCHMARKING.md).

use saber_core::json::{parse, JsonValue};

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).expect(key)
}

fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    v.get(key).and_then(JsonValue::as_array).expect(key)
}

fn object<'a>(v: &'a JsonValue, key: &str) -> &'a [(String, JsonValue)] {
    match v.get(key) {
        Some(JsonValue::Object(pairs)) => pairs,
        _ => panic!("no object `{key}`"),
    }
}

#[test]
fn trajectory_names_only_what_the_benchmark_declares() {
    let spec = parse(include_str!("../BENCHMARK.json")).unwrap();
    let declared = |key| -> Vec<_> { list(&spec, key).iter().map(|i| text(i, "name")).collect() };
    let (workloads, metrics) = (declared("workloads"), declared("end_to_end"));
    let layers = declared("per_layer");
    let trajectory = parse(include_str!("../BENCH_trajectory.json")).unwrap();
    assert_eq!(text(&trajectory, "schema"), "saber-bench-trajectory/1");
    let records = list(&trajectory, "records");
    for (i, record) in records.iter().enumerate() {
        let pr = record.get("pr").and_then(JsonValue::as_u64).unwrap();
        // Only the newest record may wait for its commit id.
        if i + 1 < records.len() {
            let commit = record.get("commit").and_then(JsonValue::as_str);
            let short_hash = commit.is_some_and(|c| {
                c.len() == 7
                    && c.bytes()
                        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
            });
            assert!(short_hash, "PR {pr}: commit {commit:?}");
        }
        for (workload, entry) in object(record, "workloads") {
            let declared = workloads.contains(&workload.as_str());
            assert!(declared, "PR {pr}: workload {workload}");
            for (metric, cell) in object(entry, "metrics") {
                assert!(metrics.contains(&metric.as_str()), "PR {pr}: {metric}");
                let known = ["better", "within", "unresolved", "worse"];
                assert!(known.contains(&text(cell, "verdict")), "PR {pr}: {cell:?}");
            }
        }
        // The traced layer table is optional (first carried by PR 17).
        let Some(traced) = record.get("layers") else {
            continue;
        };
        for (workload, _) in object(record, "layers") {
            let declared = workloads.contains(&workload.as_str());
            assert!(declared, "PR {pr}: layers of {workload}");
            for (layer, _) in object(traced, workload) {
                assert!(layers.contains(&layer.as_str()), "PR {pr}: {layer}");
            }
        }
    }
}
