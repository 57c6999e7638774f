//! The record one workload run leaves behind, and its JSON form.
//!
//! A run prints its metrics for people, ends its standard output with one
//! summary line for whoever drives it, and writes this record under
//! `out/` so `compare` can set two sets of runs side by side.

use std::path::{Path, PathBuf};

use saber_core::json::{self, JsonValue};

pub const SCHEMA: &str = "saber-benchmark-result/1";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Operations of one phase: a refused or failed operation is `failed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseCount {
    pub phase: String,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl PhaseCount {
    pub fn new(phase: &str, attempted: u64, failed: u64) -> Self {
        PhaseCount {
            phase: phase.to_string(),
            attempted,
            succeeded: attempted - failed,
            failed,
        }
    }
}

/// One output check and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Where the run happened: results from different machines do not compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: u64,
    pub cpu_model: String,
    pub loadavg_start: String,
    pub loadavg_end: String,
}

impl Fingerprint {
    /// Reads the machine's identity and the load average at the start of a
    /// run; [`Fingerprint::finish`] adds the load average at its end.
    pub fn capture() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            cpu_model,
            loadavg_start: loadavg(),
            loadavg_end: String::new(),
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg();
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// A `--quick` functional smoke: its numbers are not comparable.
    pub quick: bool,
    /// The traced run: `metrics` holds per-layer numbers.
    pub traced: bool,
    /// The generator ran more than 50 ms late at some point.
    pub noisy: bool,
    pub phases: Vec<PhaseCount>,
    pub checks: Vec<Check>,
    /// The gated metrics (end-to-end, or per-layer when `traced`).
    pub metrics: Vec<Metric>,
    /// Numbers printed beside the metrics that nothing is gated on.
    pub diagnostics: Vec<Metric>,
    pub fingerprint: Fingerprint,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The last line of a run's standard output.
    pub fn summary_line(&self) -> String {
        let metrics = JsonValue::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        JsonValue::object([
                            ("value", JsonValue::from(m.value)),
                            ("unit", JsonValue::from(m.unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::object([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::from(self.attempted().max(1))),
            ("failed", JsonValue::from(self.failed())),
            ("metrics", metrics),
        ])
        .to_string()
    }

    pub fn to_json(&self) -> JsonValue {
        let metrics = |list: &[Metric]| {
            JsonValue::Array(
                list.iter()
                    .map(|m| {
                        JsonValue::object([
                            ("name", JsonValue::from(m.name.as_str())),
                            ("value", JsonValue::from(m.value)),
                            ("unit", JsonValue::from(m.unit.as_str())),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::object([
            ("schema", JsonValue::from(SCHEMA)),
            ("workload", JsonValue::from(self.workload.as_str())),
            ("seed", JsonValue::from(self.seed)),
            ("seconds", JsonValue::from(self.seconds)),
            ("quick", JsonValue::Bool(self.quick)),
            ("traced", JsonValue::Bool(self.traced)),
            ("noisy", JsonValue::Bool(self.noisy)),
            (
                "phases",
                JsonValue::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            JsonValue::object([
                                ("phase", JsonValue::from(p.phase.as_str())),
                                ("attempted", JsonValue::from(p.attempted)),
                                ("succeeded", JsonValue::from(p.succeeded)),
                                ("failed", JsonValue::from(p.failed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "checks",
                JsonValue::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            JsonValue::object([
                                ("name", JsonValue::from(c.name.as_str())),
                                ("passed", JsonValue::Bool(c.passed)),
                                ("detail", JsonValue::from(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics(&self.metrics)),
            ("diagnostics", metrics(&self.diagnostics)),
            (
                "fingerprint",
                JsonValue::object([
                    ("nproc", JsonValue::from(self.fingerprint.nproc)),
                    (
                        "cpu_model",
                        JsonValue::from(self.fingerprint.cpu_model.as_str()),
                    ),
                    (
                        "loadavg_start",
                        JsonValue::from(self.fingerprint.loadavg_start.as_str()),
                    ),
                    (
                        "loadavg_end",
                        JsonValue::from(self.fingerprint.loadavg_end.as_str()),
                    ),
                ]),
            ),
        ])
    }

    pub fn from_json_str(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text).map_err(|e| format!("result does not parse: {e}"))?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("result lacks '{key}'"));
        let text_of = |v: &JsonValue, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result member lacks text '{key}'"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("'{key}' is not a bool"))
        };
        let count_of = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("result member lacks count '{key}'"))
        };
        let list = |key: &str| -> Result<&[JsonValue], String> {
            field(key)?
                .as_array()
                .ok_or_else(|| format!("'{key}' is not a list"))
        };
        if field("schema")?.as_str() != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        // A non-finite value is written as null.
                        value: m
                            .get("value")
                            .and_then(JsonValue::as_f64)
                            .unwrap_or(f64::NAN),
                        unit: text_of(m, "unit")?,
                    })
                })
                .collect()
        };
        let fingerprint = field("fingerprint")?;
        Ok(RunResult {
            workload: text_of(&doc, "workload")?,
            seed: count_of(&doc, "seed")?,
            seconds: field("seconds")?
                .as_f64()
                .ok_or("'seconds' is not a number")?,
            quick: flag("quick")?,
            traced: flag("traced")?,
            noisy: flag("noisy")?,
            phases: list("phases")?
                .iter()
                .map(|p| {
                    Ok(PhaseCount {
                        phase: text_of(p, "phase")?,
                        attempted: count_of(p, "attempted")?,
                        succeeded: count_of(p, "succeeded")?,
                        failed: count_of(p, "failed")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            checks: list("checks")?
                .iter()
                .map(|c| {
                    Ok(Check {
                        name: text_of(c, "name")?,
                        passed: c
                            .get("passed")
                            .and_then(JsonValue::as_bool)
                            .ok_or("check lacks 'passed'")?,
                        detail: text_of(c, "detail")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            metrics: metrics("metrics")?,
            diagnostics: metrics("diagnostics")?,
            fingerprint: Fingerprint {
                nproc: count_of(fingerprint, "nproc")?,
                cpu_model: text_of(fingerprint, "cpu_model")?,
                loadavg_start: text_of(fingerprint, "loadavg_start")?,
                loadavg_end: text_of(fingerprint, "loadavg_end")?,
            },
        })
    }

    /// Writes the record as `run_<workload>_seed<seed>_<unix-ms>.json` (or
    /// `layers_…` for a traced run) under `dir` and returns the path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let kind = if self.traced { "layers" } else { "run" };
        let path = dir.join(format!(
            "{kind}_{}_seed{}_{stamp}.json",
            self.workload, self.seed
        ));
        std::fs::write(&path, self.to_json().to_string())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> RunResult {
        RunResult {
            workload: "serve_direct_longdoc".into(),
            seed: 7,
            seconds: 20.0,
            quick: false,
            traced: false,
            noisy: true,
            phases: vec![
                PhaseCount::new("cruise", 3600, 2),
                PhaseCount::new("sat", 900, 0),
            ],
            checks: vec![Check {
                name: "theta_bit_identical".into(),
                passed: true,
                detail: "64 of 64 \"sampled\" requests".into(),
            }],
            metrics: vec![
                Metric::new("setup_s", 6.512345, "s"),
                Metric::new("op_p50_us", 2104.25, "us"),
            ],
            diagnostics: vec![Metric::new("infer_p99_us", 7003.5, "us")],
            fingerprint: Fingerprint {
                nproc: 2,
                cpu_model: "Some CPU @ 2.00GHz".into(),
                loadavg_start: "0.10 0.20 0.30 1/80 100".into(),
                loadavg_end: "1.10 0.40 0.35 3/80 200".into(),
            },
        }
    }

    #[test]
    fn result_json_round_trips() {
        let result = sample();
        let text = result.to_json().to_string();
        assert_eq!(RunResult::from_json_str(&text).unwrap(), result);
        assert!(RunResult::from_json_str("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn summary_line_has_exactly_the_driver_keys() {
        let result = sample();
        let doc = json::parse(&result.summary_line()).unwrap();
        let JsonValue::Object(pairs) = &doc else {
            panic!("summary is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(4500));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(2));
        let p50 = doc.get("metrics").and_then(|m| m.get("op_p50_us")).unwrap();
        assert_eq!(p50.get("value").and_then(JsonValue::as_f64), Some(2104.25));
        assert_eq!(p50.get("unit").and_then(JsonValue::as_str), Some("us"));
    }
}
