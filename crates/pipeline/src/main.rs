//! `saber-traind` — the continuous training→serving daemon.
//!
//! ```text
//! saber-traind [--preset nytimes|pubmed|clueweb] [--feed FILE]
//!              [--stream-docs N] [--topics K] [--shards N] [--seed S]
//!              [--warmup-docs N] [--warmup-iters N]
//!              [--batch-docs N] [--iters-per-batch N]
//!              [--publish-every N] [--full-refresh-every N]
//! ```
//!
//! Boots an in-process fleet from a warmed-up trainer, then drains the
//! document feed — synthetic (default or `--preset`) or a line-delimited
//! file (`--feed`, one document per line, word ids separated by
//! whitespace) — publishing delta epochs as it goes. Prints one line per
//! publication and a final pipeline-stats summary.
//!
//! Exit codes: 0 success, 1 usage error, 2 runtime failure.

use std::path::Path;
use std::process::ExitCode;

use saber_core::{SaberLda, SaberLdaConfig};
use saber_corpus::presets::DatasetPreset;
use saber_corpus::synthetic::SyntheticSpec;
use saber_pipeline::{DocumentFeed, PipelineConfig, TrainingPipeline};
use saber_serve::{ServeConfig, ShardPlan};

const USAGE: &str = "usage: saber-traind [options]
  --preset nytimes|pubmed|clueweb   synthetic stream modelled on a paper dataset
  --feed FILE                       line-delimited documents (word ids) instead
  --stream-docs N                   synthetic stream length   (default 512)
  --topics K                        topics                    (default 32)
  --shards N                        fleet shards              (default 2)
  --seed S                          RNG seed                  (default 7)
  --warmup-docs N                   bootstrap corpus size     (default 256)
  --warmup-iters N                  bootstrap Gibbs sweeps    (default 10)
  --batch-docs N                    documents per tick        (default 32)
  --iters-per-batch N               incremental passes/tick   (default 2)
  --publish-every N                 ticks between epochs      (default 1)
  --full-refresh-every N            rebase every Nth epoch    (default 0 = never)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => {
            eprintln!("saber-traind: {message}\n{USAGE}");
            ExitCode::from(1)
        }
        Err(Failure::Runtime(message)) => {
            eprintln!("saber-traind: {message}");
            ExitCode::from(2)
        }
    }
}

/// Why the daemon stopped: a bad command line (exit 1) or a failure while
/// running (exit 2).
enum Failure {
    Usage(String),
    Runtime(String),
}

fn runtime(error: impl std::fmt::Display) -> Failure {
    Failure::Runtime(error.to_string())
}

fn usage(error: impl std::fmt::Display) -> Failure {
    Failure::Usage(error.to_string())
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

    fn parse_num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, Failure> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Failure::Usage(format!("flag {flag} has invalid value {v:?}"))),
        }
    }
}

fn parse_preset(name: &str) -> Option<DatasetPreset> {
    match name {
        "nytimes" => Some(DatasetPreset::NyTimes),
        "pubmed" => Some(DatasetPreset::PubMed),
        "clueweb" => Some(DatasetPreset::ClueWeb),
        _ => None,
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::parse(
        args,
        &[
            "--preset",
            "--feed",
            "--stream-docs",
            "--topics",
            "--shards",
            "--seed",
            "--warmup-docs",
            "--warmup-iters",
            "--batch-docs",
            "--iters-per-batch",
            "--publish-every",
            "--full-refresh-every",
        ],
    )?;
    let topics = flags.parse_num("--topics", 32usize)?;
    let shards = flags.parse_num("--shards", 2usize)?;
    let seed = flags.parse_num("--seed", 7u64)?;
    let warmup_docs = flags.parse_num("--warmup-docs", 256usize)?;
    let warmup_iters = flags.parse_num("--warmup-iters", 10usize)?;
    let stream_docs = flags.parse_num("--stream-docs", 512usize)?;
    if warmup_docs == 0 || stream_docs == 0 {
        return Err(usage("--warmup-docs and --stream-docs must be at least 1"));
    }
    let config = PipelineConfig {
        batch_docs: flags.parse_num("--batch-docs", 32usize)?,
        iterations_per_batch: flags.parse_num("--iters-per-batch", 2usize)?,
        publish_every: flags.parse_num("--publish-every", 1usize)?,
        full_refresh_every: flags.parse_num("--full-refresh-every", 0usize)?,
    };

    // The document source: a synthetic spec shapes both the warmup corpus
    // and (absent --feed) the stream itself.
    let spec = match flags.get("--preset") {
        Some(name) => {
            let preset = parse_preset(name)
                .ok_or_else(|| Failure::Usage(format!("unknown preset {name:?}")))?;
            // Scale the preset down to its bench spec — a daemon demo, not
            // a full paper run.
            preset.bench_spec()
        }
        None => SyntheticSpec::small_test(),
    };
    // Every value is checked before the warm-up trains anything.
    config.validate().map_err(usage)?;
    ShardPlan::uniform(spec.vocab_size, shards).map_err(usage)?;
    let trainer_config = SaberLdaConfig::builder()
        .n_topics(topics)
        .n_iterations(warmup_iters)
        .seed(seed)
        .build()
        .map_err(usage)?;
    let mut feed = match flags.get("--feed") {
        Some(path) => DocumentFeed::open(Path::new(path)).map_err(runtime)?,
        None => DocumentFeed::synthetic(
            &SyntheticSpec {
                n_docs: stream_docs,
                ..spec.clone()
            },
            seed ^ 0x5AB3_0001,
        ),
    };

    // Warm up: a short batch training run seeds the model the fleet boots
    // from, so the stream refines rather than starts cold.
    eprintln!(
        "warmup: {warmup_docs} docs, {warmup_iters} sweeps, K={topics}, V={}",
        spec.vocab_size
    );
    let warmup = SyntheticSpec {
        n_docs: warmup_docs,
        ..spec.clone()
    }
    .generate(seed);
    let mut trainer = SaberLda::new(trainer_config, &warmup).map_err(runtime)?;
    trainer.train();

    let mut pipeline =
        TrainingPipeline::bootstrap_local(trainer, shards, ServeConfig::default(), config)
            .map_err(runtime)?;
    eprintln!(
        "fleet up: {shards} shard(s) at epoch {}",
        pipeline.served_epoch()
    );

    // The daemon loop: tick until the feed runs dry, narrating each epoch;
    // the run then flushes the ticks the cadence left unpublished, if any.
    let mut published = 0;
    let report = pipeline
        .run_with(&mut feed, |tick| {
            if let Some(epoch) = &tick.published {
                published += 1;
                println!(
                    "epoch {}: {} docs, {} tokens in, {} resampled, {} rows offered as delta{}",
                    epoch.epoch,
                    tick.batch_docs,
                    tick.tokens_ingested,
                    tick.tokens_resampled,
                    epoch.changed_rows,
                    if epoch.full_refresh {
                        " (full refresh)"
                    } else {
                        ""
                    }
                );
            }
        })
        .map_err(runtime)?;
    if report.epochs_published > published {
        println!("final epoch {}: flushed", report.final_epoch);
    }

    if let Some(stats) = pipeline.router().router_stats().pipeline {
        println!(
            "pipeline: {} epochs ({} pure delta), {}/{} rows shipped, {} fallbacks, last publish {}µs",
            stats.epochs_published,
            stats.delta_epochs,
            stats.rows_shipped,
            stats.rows_total,
            stats.fallbacks,
            stats.last_publish_micros
        );
    }
    pipeline.shutdown();
    Ok(())
}
