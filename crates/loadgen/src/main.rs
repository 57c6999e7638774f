//! `saber-loadgen` — record, synthesise and replay serving load.
//!
//! ```text
//! saber-loadgen synth --out trace.sabrtrace [--preset nytimes|pubmed|clueweb]
//!                     [--requests N] [--seed S]
//! saber-loadgen replay --trace trace.sabrtrace [--topology direct|local:N|remote:N]...
//!                      [--rate recorded|fixed:QPS|ramp:FROM:TO|burst:BASE:PEAK]
//!                      [--topics K] [--threads N] [--deadline-ms MS]
//! saber-loadgen serve-train [--requests N] [--stream-docs N] [--topics K]
//!                           [--shards N] [--seed S] [--rate PROFILE]
//! ```
//!
//! `replay` prints one line per topology (counts, achieved rate,
//! loadgen-side p50/p99); it judges nothing — performance claims are made
//! with `benchmark/` (`docs/BENCHMARKING.md`).
//!
//! Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 requests
//! dropped during `serve-train`.

use std::process::ExitCode;
use std::time::Duration;

use saber_corpus::synthetic::SyntheticSpec;
use saber_loadgen::replay::{
    replay, replay_model, RateProfile, ReplayConfig, Topology, TopologyHandle,
};
use saber_loadgen::synth::{preset_spec, synthesize_trace};
use saber_loadgen::trace::RequestTrace;
use saber_serve::ServeConfig;

const USAGE: &str = "usage: saber-loadgen <synth|replay|serve-train> [options]
  synth   --out FILE [--preset nytimes|pubmed|clueweb] [--requests N] [--seed S]
  replay  --trace FILE [--topology direct|local:N|remote:N]... [--rate PROFILE]
          [--topics K] [--threads N] [--deadline-ms MS]
  serve-train [--requests N] [--stream-docs N] [--topics K] [--shards N]
          [--seed S] [--rate PROFILE]";

/// Why a command did not run to completion; decides the exit code.
#[derive(Debug)]
enum Failure {
    /// The command line is malformed: exit 1, message then the usage text.
    Usage(String),
    /// The command started and failed: exit 2.
    Runtime(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Runtime(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Failure::Usage(message)) => {
            eprintln!("saber-loadgen: {message}\n{USAGE}");
            ExitCode::from(1)
        }
        Err(Failure::Runtime(message)) => {
            eprintln!("saber-loadgen: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Failure> {
    let Some((command, rest)) = args.split_first() else {
        return Err(Failure::Usage("no command given".to_string()));
    };
    match command.as_str() {
        "synth" => cmd_synth(rest),
        "replay" => cmd_replay(rest),
        "serve-train" => cmd_serve_train(rest),
        _ => Err(Failure::Usage(format!("unknown command {command:?}"))),
    }
}

/// Pulls `--flag value` pairs out of `args`; rejects unknown flags.
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, Failure> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(Failure::Usage(format!("unknown flag {flag:?}")));
            }
            let value = it
                .next()
                .ok_or_else(|| Failure::Usage(format!("flag {flag} expects a value")))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, flag: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn parse_num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, Failure> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Failure::Usage(format!("flag {flag} has invalid value {v:?}"))),
        }
    }

    /// The value of a flag the command cannot run without.
    fn require(&self, flag: &str) -> Result<&str, Failure> {
        self.get(flag)
            .ok_or_else(|| Failure::Usage(format!("missing required flag {flag}")))
    }
}

fn cmd_synth(args: &[String]) -> Result<ExitCode, Failure> {
    let flags = Flags::parse(args, &["--out", "--preset", "--requests", "--seed"])?;
    let out = flags.require("--out")?;
    let spec = match flags.get("--preset") {
        Some(name) => {
            preset_spec(name).ok_or_else(|| Failure::Usage(format!("unknown preset {name:?}")))?
        }
        None => SyntheticSpec::small_test(),
    };
    let requests = flags.parse_num("--requests", 240usize)?;
    let seed = flags.parse_num("--seed", 42u64)?;
    let trace = synthesize_trace(&spec, requests, seed);
    trace.save(out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} requests, {} tokens, vocab {})",
        out,
        trace.len(),
        trace.total_tokens(),
        trace.vocab_size()
    );
    Ok(ExitCode::SUCCESS)
}

fn parse_rate(s: &str) -> Result<RateProfile, Failure> {
    if s == "recorded" {
        return Ok(RateProfile::AsRecorded);
    }
    let parts: Vec<&str> = s.split(':').collect();
    let num = |v: &str| -> Result<f64, Failure> {
        v.parse()
            .map_err(|_| Failure::Usage(format!("invalid rate component {v:?} in {s:?}")))
    };
    match parts.as_slice() {
        ["fixed", qps] => Ok(RateProfile::Fixed { qps: num(qps)? }),
        ["ramp", from, to] => Ok(RateProfile::Ramp {
            from_qps: num(from)?,
            to_qps: num(to)?,
        }),
        ["burst", base, peak] => Ok(RateProfile::Burst {
            base_qps: num(base)?,
            burst_qps: num(peak)?,
            period: 20,
            burst_len: 5,
        }),
        _ => Err(Failure::Usage(format!(
            "invalid rate {s:?} (want recorded, fixed:QPS, ramp:FROM:TO or burst:BASE:PEAK)"
        ))),
    }
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, Failure> {
    let flags = Flags::parse(
        args,
        &[
            "--trace",
            "--topology",
            "--rate",
            "--topics",
            "--threads",
            "--deadline-ms",
        ],
    )?;
    let trace_path = flags.require("--trace")?;
    let topology_flags = flags.get_all("--topology");
    let topologies: Vec<Topology> = if topology_flags.is_empty() {
        vec![Topology::Direct]
    } else {
        topology_flags
            .iter()
            .map(|s| {
                Topology::parse(s).ok_or_else(|| Failure::Usage(format!("invalid topology {s:?}")))
            })
            .collect::<Result<_, _>>()?
    };
    let rate = parse_rate(flags.get("--rate").unwrap_or("fixed:500"))?;
    let topics = flags.parse_num("--topics", 16usize)?;
    let config = ReplayConfig {
        threads: flags.parse_num("--threads", 4usize)?,
        deadline: Duration::from_millis(flags.parse_num("--deadline-ms", 5_000u64)?),
        collect_thetas: false,
    };

    let trace = RequestTrace::load(trace_path).map_err(|e| e.to_string())?;
    let model = replay_model(trace.vocab_size() as usize, topics, 7).map_err(|e| e.to_string())?;
    for topology in topologies {
        let label = topology.label();
        eprintln!("replaying {} requests on {label}…", trace.len());
        let handle = TopologyHandle::build(topology, &model, &ServeConfig::default())
            .map_err(|e| format!("building topology {label}: {e}"))?;
        let outcome = replay(&handle.backend(), &trace, &rate, &config);
        handle.shutdown();
        println!("{label}: {outcome}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve_train(args: &[String]) -> Result<ExitCode, Failure> {
    use saber_core::{SaberLda, SaberLdaConfig};
    use saber_loadgen::scenario::serve_while_training;
    use saber_pipeline::{DocumentFeed, PipelineConfig, TrainingPipeline};

    let flags = Flags::parse(
        args,
        &[
            "--requests",
            "--stream-docs",
            "--topics",
            "--shards",
            "--seed",
            "--rate",
        ],
    )?;
    let requests = flags.parse_num("--requests", 240usize)?;
    let stream_docs = flags.parse_num("--stream-docs", 128usize)?;
    let topics = flags.parse_num("--topics", 16usize)?;
    let shards = flags.parse_num("--shards", 2usize)?;
    let seed = flags.parse_num("--seed", 7u64)?;
    let rate = parse_rate(flags.get("--rate").unwrap_or("fixed:1000"))?;

    let spec = SyntheticSpec::small_test();
    let warmup = SyntheticSpec {
        n_docs: 128,
        ..spec.clone()
    }
    .generate(seed);
    let trainer_config = SaberLdaConfig::builder()
        .n_topics(topics)
        .n_iterations(5)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let mut trainer = SaberLda::new(trainer_config, &warmup).map_err(|e| e.to_string())?;
    trainer.train();
    let pipeline = TrainingPipeline::bootstrap_local(
        trainer,
        shards,
        ServeConfig::default(),
        PipelineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let feed = DocumentFeed::synthetic(
        &SyntheticSpec {
            n_docs: stream_docs,
            ..spec.clone()
        },
        seed ^ 0x5AB3_0002,
    );
    let trace = synthesize_trace(&spec, requests, seed ^ 0x5AB3_0003);
    eprintln!(
        "serve-train: {requests} requests vs {stream_docs} streamed docs on {shards} shard(s)…"
    );
    let (report, pipeline) = serve_while_training(
        pipeline,
        feed,
        &trace,
        &rate,
        &ReplayConfig {
            threads: 4,
            deadline: Duration::from_secs(5),
            collect_thetas: false,
        },
    )
    .map_err(|e| e.to_string())?;
    pipeline.shutdown();
    println!("requests: {}", report.outcome);
    println!(
        "pipeline: {} epochs ({} pure delta), {}/{} rows shipped, {} fallbacks, final epoch {}",
        report.epochs_published,
        report.delta_epochs,
        report.rows_shipped,
        report.rows_total,
        report.fallbacks,
        report.final_epoch
    );
    if !report.zero_drops() {
        eprintln!("FAIL: requests were dropped during training");
        return Ok(ExitCode::from(3));
    }
    println!("zero drops across {} epoch swaps", report.epochs_published);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<ExitCode, Failure> {
        run(&line.split(' ').map(String::from).collect::<Vec<_>>())
    }

    /// The removed `smoke` subcommand and baseline flags are usage errors
    /// (exit 1 with the usage text), not silently accepted.
    #[test]
    fn removed_surface_is_a_usage_error() {
        for line in [
            "smoke",
            "replay --baseline x",
            "replay --trace t --tolerance 1.0",
            "replay --trace t --profile mine --out-dir d",
        ] {
            assert!(
                matches!(run_line(line), Err(Failure::Usage(_))),
                "{line:?} must be rejected as a usage error"
            );
        }
        // A well-formed command line that fails later is a runtime failure.
        assert!(matches!(
            run_line("replay --trace /nonexistent/t.sabrtrace"),
            Err(Failure::Runtime(_))
        ));
    }
}
