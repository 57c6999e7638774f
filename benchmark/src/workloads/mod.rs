//! The four workloads, each with an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics).

use std::hint::black_box;
use std::time::Instant;

use saber_core::trees::{TopicSampler, WordSampler};
use saber_core::SaberLda;
use saber_corpus::Corpus;
use saber_serve::RouterStats;

use crate::inputs::trainer_config;
use crate::loadgen::{PhaseOutcome, NOISY_LATE_US};
use crate::machine::{Machine, Seconds};
use crate::result::{Check, Fingerprint, Metric, PhaseCount, RunResult};
use crate::spans::SpanLog;
use crate::spec;
use crate::stats;

pub mod pipeline;
pub mod serve;
pub mod train;

/// What one workload process was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures. Iteration, tick and request counts are
    /// fixed multiples of this, sized at the commit that added the
    /// benchmark, so every commit is given the same work; open-loop phases
    /// last this long by the clock.
    pub seconds: f64,
    pub quick: bool,
    /// The machine and its load when the process started.
    pub fingerprint: Fingerprint,
}

impl RunArgs {
    /// Full sweeps that produce "model M" for the serving and pipeline
    /// workloads. The model only has to be a real K=1000 model over the
    /// real vocabulary; request cost does not depend on how converged it
    /// is, and every sweep is ≈1.2 s of every run's set-up.
    pub fn model_m_iterations(&self) -> usize {
        if self.quick {
            1
        } else {
            4
        }
    }

    /// `count_per_second × seconds`, at least `floor`.
    pub fn scaled(&self, count_per_second: f64, floor: usize) -> usize {
        ((count_per_second * self.seconds).round() as usize).max(floor)
    }
}

/// The set-up of an untraced run, step by step: each step sits between two
/// probes of the machine, and `setup_s` is the sum of the steps' corrected
/// wall times (the probes themselves are not set-up).
#[derive(Debug, Default)]
pub struct Setup {
    pub spent: Seconds,
}

impl Setup {
    pub fn step<R>(&mut self, machine: &mut Machine, work: impl FnOnce() -> R) -> R {
        let (result, seconds) = machine.timed(work);
        self.spent += seconds;
        result
    }

    /// "Model M" as a set-up step per sweep, so that each sweep is
    /// corrected by the machine's speed around it.
    pub fn model_m(&mut self, machine: &mut Machine, args: &RunArgs, corpus: &Corpus) -> SaberLda {
        let mut trainer = self.step(machine, || {
            SaberLda::new(trainer_config(), corpus).expect("the generated corpus is trainable")
        });
        for _ in 0..args.model_m_iterations() {
            self.step(machine, || {
                trainer.iterate();
            });
        }
        trainer
    }
}

/// Collects what a run reports; `finish` turns it into a [`RunResult`].
#[derive(Debug)]
pub struct Report {
    pub phases: Vec<PhaseCount>,
    pub checks: Vec<Check>,
    values: Vec<(String, f64)>,
    pub diagnostics: Vec<Metric>,
    pub noisy: bool,
}

impl Report {
    pub fn new() -> Self {
        Report {
            phases: Vec::new(),
            checks: Vec::new(),
            values: Vec::new(),
            diagnostics: Vec::new(),
            noisy: false,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(spec::unit_of(name).is_some(), "unknown metric {name}");
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// Sets a metric to its machine-corrected value and reports the value
    /// as measured beside it, as the diagnostic `raw_<name>`.
    pub fn set_corrected(&mut self, name: &str, corrected: f64, raw: f64) {
        self.set(name, corrected);
        let unit = spec::unit_of(name).unwrap_or("");
        self.diagnostic(&format!("raw_{name}"), raw, unit);
    }

    /// The medians of the ratios the machine's probes read during the run.
    pub fn machine(&mut self, machine: &Machine) {
        let slowdown = machine.median_slowdown();
        self.diagnostic("machine_slowdown_compute", slowdown.compute, "ratio");
        self.diagnostic("machine_slowdown_memory", slowdown.memory, "ratio");
        self.diagnostic("machine_slowdown_handoff", slowdown.handoff, "ratio");
    }

    pub fn diagnostic(&mut self, name: &str, value: f64, unit: &str) {
        self.diagnostics.push(Metric::new(name, value, unit));
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    pub fn phase(&mut self, phase: &str, attempted: u64, failed: u64) {
        self.phases.push(PhaseCount::new(phase, attempted, failed));
    }

    /// The 99th percentile and the maximum of how late an open-loop phase
    /// sent against its schedule, in µs; marks the run noisy when the
    /// generator fell more than 50 ms behind.
    pub fn lateness(&mut self, phase: &PhaseOutcome) -> (f64, f64) {
        let late = phase.lateness_us();
        let max = late.last().copied().unwrap_or(0.0);
        if max > NOISY_LATE_US {
            self.noisy = true;
        }
        (stats::percentile(&late, 0.99), max)
    }

    /// The router's own counters, as per-layer metrics.
    pub fn router_counters(&mut self, router: &RouterStats) {
        self.set(
            "serve.router.shard_requests_per_doc",
            router.shard_requests.iter().sum::<u64>() as f64 / router.requests.max(1) as f64,
        );
        self.set("serve.router.skew_retries", router.skew_retries as f64);
        self.set(
            "serve.router.transport_retries",
            router.transport_retries as f64,
        );
        self.set("serve.router.hedges", router.hedges as f64);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    /// The end-to-end metrics in `BENCHMARK.json` order. A metric the
    /// workload did not set fails the run: each must be measured.
    pub fn finish_end_to_end(mut self, args: &RunArgs) -> RunResult {
        let mut metrics = Vec::new();
        for &(name, unit, ..) in &spec::END_TO_END {
            let value = self.value(name).unwrap_or(f64::NAN);
            if !(value.is_finite() && value > 0.0) {
                self.check(
                    "metric_measured",
                    false,
                    format!("{name} = {value} is not a positive number"),
                );
            }
            metrics.push(Metric::new(name, value, unit));
        }
        self.finish(args, false, metrics)
    }

    /// The per-layer metrics in `BENCHMARK.json` order; a layer this
    /// workload does not exercise reports 0.
    pub fn finish_per_layer(self, args: &RunArgs) -> RunResult {
        let metrics = spec::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric::new(name, self.value(name).unwrap_or(0.0), unit))
            .collect();
        self.finish(args, true, metrics)
    }

    fn finish(self, args: &RunArgs, traced: bool, metrics: Vec<Metric>) -> RunResult {
        let mut fingerprint = args.fingerprint.clone();
        fingerprint.finish();
        RunResult {
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            traced,
            noisy: self.noisy,
            phases: self.phases,
            checks: self.checks,
            metrics,
            diagnostics: self.diagnostics,
            fingerprint,
        }
    }
}

/// Nanoseconds per `TopicSampler::sample_with`, over every sampler in
/// `samplers` with a fixed stride of uniform numbers.
pub fn sample_with_ns(samplers: &[WordSampler]) -> f64 {
    const DRAWS_PER_SAMPLER: usize = 64;
    let start = Instant::now();
    let mut sink = 0usize;
    for sampler in samplers {
        for i in 0..DRAWS_PER_SAMPLER {
            let u = (i as f32 + 0.5) / DRAWS_PER_SAMPLER as f32;
            sink = sink.wrapping_add(black_box(sampler).sample_with(black_box(u)));
        }
    }
    black_box(sink);
    start.elapsed().as_secs_f64() * 1e9 / (samplers.len() * DRAWS_PER_SAMPLER) as f64
}

/// What a traced run hands back: its result and the spans to write out.
#[derive(Debug)]
pub struct Traced {
    pub result: RunResult,
    pub spans: SpanLog,
}

/// Runs `args.workload` untraced, every measured segment between two
/// probes of `machine`.
pub fn run(args: &RunArgs, machine: &mut Machine) -> RunResult {
    match args.workload.as_str() {
        "train_longdoc_k1000" => train::run(args, machine),
        "serve_direct_longdoc" => serve::run(args, machine, serve::Topology::Direct),
        "serve_fleet_shortdoc" => serve::run(args, machine, serve::Topology::Fleet),
        "pipeline_publish_under_read" => pipeline::run(args, machine),
        other => unreachable!("workload '{other}' was validated by the command line"),
    }
}

/// Runs `args.workload` traced.
pub fn trace(args: &RunArgs) -> Traced {
    match args.workload.as_str() {
        "train_longdoc_k1000" => train::trace(args),
        "serve_direct_longdoc" => serve::trace(args, serve::Topology::Direct),
        "serve_fleet_shortdoc" => serve::trace(args, serve::Topology::Fleet),
        "pipeline_publish_under_read" => pipeline::trace(args),
        other => unreachable!("workload '{other}' was validated by the command line"),
    }
}
