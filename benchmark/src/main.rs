//! The repository's benchmark: `run`, `trace` and `compare`.
//!
//! ```text
//! benchmark run     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! benchmark trace   (the same flags; `run --trace 1`)
//! benchmark compare A B [--bounds BENCHMARK.json]
//! ```
//!
//! One workload runs in one process: `--workload all` starts a fresh child
//! process per workload so that `peak_rss_mb` and `setup_s` belong to that
//! workload alone. A run prints every metric by name with its unit,
//! checks its outputs, writes its record under `out/`, and ends its
//! standard output with one JSON summary line. See `README.md`.

mod compare;
mod inputs;
mod loadgen;
mod machine;
mod result;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use result::{Fingerprint, RunResult};
use saber_core::json::{self, JsonValue};
use workloads::RunArgs;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;
/// `--quick` cuts durations and counts about tenfold.
const QUICK_SECONDS: f64 = 2.0;

#[derive(Debug)]
struct RunFlags {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage:\n  benchmark run   [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]\n  \
         benchmark trace [same flags]\n  benchmark compare A B [--bounds BENCHMARK.json]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_run_flags(args: &[String], traced: bool) -> Result<RunFlags, String> {
    let mut flags = RunFlags {
        workload: "all".to_string(),
        seed: 1,
        seconds: None,
        traced,
        quick: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => flags.workload = value()?.clone(),
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => flags.quick = true,
            "--out" => flags.out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if flags.workload != "all" && !spec::is_workload(&flags.workload) {
        return Err(format!(
            "unknown workload '{}'\n{}",
            flags.workload,
            usage()
        ));
    }
    Ok(flags)
}

fn print_result(result: &RunResult) {
    println!(
        "workload {} seed {} seconds {} ({}{})",
        result.workload,
        result.seed,
        result.seconds,
        if result.traced { "traced" } else { "untraced" },
        if result.quick { ", quick" } else { "" },
    );
    for p in &result.phases {
        println!(
            "  phase {:<22} attempted {:>6} succeeded {:>6} failed {:>4}",
            p.phase, p.attempted, p.succeeded, p.failed
        );
    }
    for c in &result.checks {
        println!(
            "  check {:<38} {} — {}",
            c.name,
            if c.passed { "ok" } else { "FAILED" },
            c.detail
        );
    }
    for m in &result.metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &result.diagnostics {
        println!("  (diagnostic) {:<27} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if result.noisy {
        println!(
            "  WARNING: the load generator ran more than {} ms late; this run is marked noisy",
            loadgen::NOISY_LATE_US / 1000.0
        );
    }
}

/// Runs one workload in this process and reports it.
fn run_here(flags: &RunFlags) -> ExitCode {
    let args = RunArgs {
        workload: flags.workload.clone(),
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(if flags.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick: flags.quick,
        fingerprint: Fingerprint::capture(),
    };
    let result = if flags.traced {
        let traced = workloads::trace(&args);
        let path = flags.out.join(format!("trace_{}.json", args.workload));
        let written = std::fs::create_dir_all(&flags.out)
            .and_then(|()| std::fs::write(&path, traced.spans.to_json().to_string()));
        match written {
            Ok(()) => println!(
                "  {} spans written to {}",
                traced.spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        traced.result
    } else {
        workloads::run(&args, &mut machine::Machine::new())
    };
    print_result(&result);
    match result.write_to(&flags.out) {
        Ok(path) => println!("  result written to {}", path.display()),
        Err(e) => eprintln!(
            "could not write the result under {}: {e}",
            flags.out.display()
        ),
    }
    println!("{}", result.summary_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process, and prints one
/// table of all their metrics.
fn run_all(flags: &RunFlags) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to start the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut summaries: Vec<(&str, String)> = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        let mut command = Command::new(&exe);
        command
            .arg("run")
            .args(["--workload", workload])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--trace", if flags.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&flags.out)
            .stdout(Stdio::piped());
        if let Some(seconds) = flags.seconds {
            command.args(["--seconds", &seconds.to_string()]);
        }
        if flags.quick {
            command.arg("--quick");
        }
        let mut child = match command.spawn() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("could not start {workload}: {e}");
                all_ok = false;
                continue;
            }
        };
        let mut last_line = String::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                println!("{line}");
                last_line = line;
            }
        }
        summaries.push((workload, last_line));
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{workload} failed: {status}");
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{workload} could not be waited for: {e}");
                all_ok = false;
            }
        }
    }
    print_summary(flags, &summaries);
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One table of every workload's metrics, from the children's summary
/// lines: a row per metric, a column per workload.
fn print_summary(flags: &RunFlags, summaries: &[(&str, String)]) {
    let parsed: Vec<(&str, JsonValue)> = summaries
        .iter()
        .filter_map(|(workload, line)| Some((*workload, json::parse(line).ok()?)))
        .collect();
    println!("\nsummary (seed {}):", flags.seed);
    print!("  {:<40}", "");
    for (workload, _) in &parsed {
        print!(" {workload:>28}");
    }
    println!();
    let cell = |doc: &JsonValue, name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .map_or_else(|| "-".to_string(), |v| format!("{v:.4}"))
    };
    let names: Vec<(&str, &str)> = if flags.traced {
        spec::PER_LAYER.iter().map(|e| (e.0, e.1)).collect()
    } else {
        spec::END_TO_END.iter().map(|e| (e.0, e.1)).collect()
    };
    for (name, unit) in names {
        print!("  {:<40}", format!("{name} [{unit}]"));
        for (_, doc) in &parsed {
            print!(" {:>28}", cell(doc, name));
        }
        println!();
    }
    for key in ["attempted", "failed", "correct"] {
        print!("  {key:<40}");
        for (_, doc) in &parsed {
            let value = doc
                .get(key)
                .map_or_else(|| "-".to_string(), JsonValue::to_string);
            print!(" {value:>28}");
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" || command == "trace" => {
            parse_run_flags(rest, command == "trace").map(|flags| {
                if flags.workload == "all" {
                    run_all(&flags)
                } else {
                    run_here(&flags)
                }
            })
        }
        Some((command, rest)) if command == "compare" => compare::main(rest),
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
