//! `benchmark compare A B`: two sets of runs, one verdict per
//! (end-to-end metric, workload) pair.
//!
//! `A` is the parent (or the first set of a repeatability check), `B` the
//! change (or the second set). Each is a directory of `run_*.json` records.
//! The bounds come from `BENCHMARK.json`. Exit status is non-zero when any
//! pair is `worse`, when `B` failed a larger share of its operations, or
//! when two runs of one seed disagree on a number that must repeat exactly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::result::RunResult;
use crate::spec::{self, Better, Bound};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `B` reads better than `A` by more than `A`'s own spread.
    Better,
    /// No worse than the bound allows, and the spread is narrow enough to
    /// say so.
    Within,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: not shown unchanged.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median, quartile distance as a share of the median, and the verdict
/// inputs of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side {
            n: values.len(),
            q1,
            median,
            q3,
        }
    }

    pub fn spread(&self) -> f64 {
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// The verdict for one (metric, workload) pair.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (side_a, side_b) = (Side::of(a), Side::of(b));
    // Positive when B is worse, as a share of A's median.
    let worsening = match better {
        Better::Lower => (side_b.median - side_a.median) / side_a.median,
        Better::Higher => (side_a.median - side_b.median) / side_a.median,
    };
    if worsening > bound {
        return Verdict::Worse;
    }
    let b_beats_a = |x: f64, y: f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let every_b_beats_every_a = a.iter().all(|&x| b.iter().all(|&y| b_beats_a(x, y)));
    if side_a.spread().max(side_b.spread()) > bound {
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -worsening > side_a.spread() && every_b_beats_every_a {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let results = paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            RunResult::from_json_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if results.is_empty() {
        return Err(format!("{} holds no run_*.json records", dir.display()));
    }
    if let Some(quick) = results.iter().find(|r| r.quick) {
        return Err(format!(
            "{} holds a --quick run of {}: quick runs are functional smokes and do not compare",
            dir.display(),
            quick.workload
        ));
    }
    Ok(results)
}

/// `values[workload][metric]`, one value per run.
fn by_workload_and_metric(set: &[RunResult]) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut map: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in set {
        let metrics = map.entry(run.workload.clone()).or_default();
        for m in &run.metrics {
            metrics.entry(m.name.clone()).or_default().push(m.value);
        }
    }
    map
}

/// Failed operations as a share of those attempted, per workload.
fn failed_share(set: &[RunResult]) -> BTreeMap<String, f64> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for run in set {
        let entry = totals.entry(run.workload.clone()).or_default();
        entry.0 += run.failed();
        entry.1 += run.attempted();
    }
    totals
        .into_iter()
        .map(|(w, (failed, attempted))| (w, failed as f64 / attempted.max(1) as f64))
        .collect()
}

/// Runs of one `(workload, seed)` whose held-out perplexity differs: the
/// model a seed produces must not depend on the run.
fn nondeterministic(sets: &[&[RunResult]]) -> Vec<String> {
    let mut seen: BTreeMap<(String, u64), f64> = BTreeMap::new();
    let mut differing = Vec::new();
    for run in sets.iter().flat_map(|s| s.iter()) {
        let Some(value) = run.metric("heldout_perplexity") else {
            continue;
        };
        let key = (run.workload.clone(), run.seed);
        match seen.get(&key) {
            Some(first) if first.to_bits() != value.to_bits() => differing.push(format!(
                "{} seed {}: heldout_perplexity {first} vs {value}",
                key.0, key.1
            )),
            Some(_) => {}
            None => {
                seen.insert(key, value);
            }
        }
    }
    differing
}

/// One printed row and whether it fails the comparison.
fn compare_sets(a: &[RunResult], b: &[RunResult], bounds: &[Bound]) -> (Vec<String>, bool) {
    let (values_a, values_b) = (by_workload_and_metric(a), by_workload_and_metric(b));
    let mut rows = Vec::new();
    let mut failed = false;
    for (workload, _) in spec::WORKLOADS {
        let (Some(metrics_a), Some(metrics_b)) = (values_a.get(workload), values_b.get(workload))
        else {
            continue;
        };
        for bound in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let v = verdict(va, vb, bound.better, bound.bound);
            failed |= v == Verdict::Worse;
            let (sa, sb) = (Side::of(va), Side::of(vb));
            rows.push(format!(
                "{workload:<28} {:<19} {:<10} A n={} {:.4} [{:.4}, {:.4}]  B n={} {:.4} [{:.4}, {:.4}] {}  change {:+.2}% (bound {:.0}%, spread A {:.2}% B {:.2}%)",
                bound.name,
                v.label(),
                sa.n,
                sa.median,
                sa.q1,
                sa.q3,
                sb.n,
                sb.median,
                sb.q1,
                sb.q3,
                bound.unit,
                (sb.median - sa.median) / sa.median * 100.0,
                bound.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
            ));
        }
    }
    let (share_a, share_b) = (failed_share(a), failed_share(b));
    for (workload, b_share) in &share_b {
        let a_share = share_a.get(workload).copied().unwrap_or(0.0);
        if *b_share > a_share {
            failed = true;
            rows.push(format!(
                "{workload:<28} failed-operation share rose from {a_share:.6} to {b_share:.6}"
            ));
        }
    }
    for line in nondeterministic(&[a, b]) {
        failed = true;
        rows.push(format!("not deterministic for a seed: {line}"));
    }
    (rows, failed)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bounds_path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a file")?);
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [dir_a, dir_b] = dirs.as_slice() else {
        return Err("compare takes two directories of runs: compare A B".to_string());
    };
    let bounds_text = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("{}: {e}", bounds_path.display()))?;
    let bounds = spec::parse_bounds(&bounds_text)?;
    let (set_a, set_b) = (load_set(dir_a)?, load_set(dir_b)?);
    let (rows, failed) = compare_sets(&set_a, &set_b, &bounds);
    println!(
        "A = {} ({} runs), B = {} ({} runs); median [q1, q3] per side",
        dir_a.display(),
        set_a.len(),
        dir_b.display(),
        set_b.len()
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Fingerprint, Metric, PhaseCount};

    #[test]
    fn verdicts_on_synthetic_runs() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.10), Verdict::Within);
        // 20 % slower than a 10 % bound allows: worse, in either direction.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&slow, &a, Better::Higher, 0.10), Verdict::Worse);
        // 5 % slower: inside the bound.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.10), Verdict::Within);
        // Every run 20 % faster: better.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&fast, &a, Better::Higher, 0.10), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 118.0, 92.0, 108.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        let clear_b = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(
            verdict(&noisy_a, &clear_b, Better::Lower, 0.10),
            Verdict::Better
        );
        // A median past the bound is worse however wide the spread.
        let worse_b = [120.0, 150.0, 180.0, 135.0, 165.0];
        assert_eq!(
            verdict(&noisy_a, &worse_b, Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    fn run(workload: &str, seed: u64, p50: f64, perplexity: f64, failed: u64) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed,
            seconds: 20.0,
            quick: false,
            traced: false,
            noisy: false,
            phases: vec![PhaseCount::new("cruise", 1000, failed)],
            checks: Vec::new(),
            metrics: vec![
                Metric::new("op_p50_us", p50, "us"),
                Metric::new("heldout_perplexity", perplexity, "ppl"),
            ],
            diagnostics: Vec::new(),
            fingerprint: Fingerprint {
                nproc: 2,
                cpu_model: String::new(),
                loadavg_start: String::new(),
                loadavg_end: String::new(),
            },
        }
    }

    fn bounds() -> Vec<Bound> {
        vec![Bound {
            name: "op_p50_us".into(),
            unit: "us".into(),
            better: Better::Lower,
            bound: 0.10,
        }]
    }

    #[test]
    fn sets_fail_on_worse_on_more_failures_and_on_nondeterminism() {
        let w = "serve_direct_longdoc";
        let a = vec![run(w, 1, 100.0, 450.0, 0), run(w, 1, 102.0, 450.0, 0)];
        let same = vec![run(w, 1, 101.0, 450.0, 0), run(w, 1, 100.0, 450.0, 0)];
        let (rows, failed) = compare_sets(&a, &same, &bounds());
        assert!(!failed, "{rows:?}");
        assert!(rows[0].contains("within"));

        let slow = vec![run(w, 1, 130.0, 450.0, 0), run(w, 1, 131.0, 450.0, 0)];
        assert!(compare_sets(&a, &slow, &bounds()).1);

        let failing = vec![run(w, 1, 100.0, 450.0, 3), run(w, 1, 101.0, 450.0, 0)];
        let (rows, failed) = compare_sets(&a, &failing, &bounds());
        assert!(failed);
        assert!(rows.iter().any(|r| r.contains("failed-operation share")));

        let drifting = vec![run(w, 1, 100.0, 451.0, 0), run(w, 1, 101.0, 450.0, 0)];
        let (rows, failed) = compare_sets(&a, &drifting, &bounds());
        assert!(failed);
        assert!(rows.iter().any(|r| r.contains("not deterministic")));
    }
}
