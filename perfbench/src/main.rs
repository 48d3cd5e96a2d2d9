//! The repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload for `--seconds`, with inputs generated from
//! `--seed`, checks the program's outputs, and prints as its last line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1` (which also writes the spans as JSONL). Exits 0 when
//! every check passed, 1 when one failed, 2 on bad arguments. See
//! `perfbench/README.md` for the workloads, metrics and span schema.

mod affinity;
mod counters;
mod objects;
mod report;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;

use counters::CountingAlloc;
use report::{complete, result_line, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <objects_churn|objects_lookup|sim_overload|sim_lockbased> --seed <n> --seconds <s> --trace <0|1>";

/// A named workload.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Objects(objects::Kind),
    Sim(sim::Kind),
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("objects_churn", Workload::Objects(objects::Kind::Churn)),
    ("objects_lookup", Workload::Objects(objects::Kind::Lookup)),
    ("sim_overload", Workload::Sim(sim::Kind::Overload)),
    ("sim_lockbased", Workload::Sim(sim::Kind::LockBased)),
];

#[derive(Debug)]
struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| n == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let &(name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Metrics in the names this run prints in its result line.
    metrics: Vec<(&'static str, f64)>,
    /// The workload's own metric names, printed as `#` lines.
    info: Vec<(&'static str, f64, &'static str)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = match (args.workload, args.trace) {
        (Workload::Objects(kind), false) => objects_untraced(kind, &args),
        (Workload::Objects(kind), true) => objects_traced(kind, &args),
        (Workload::Sim(kind), false) => sim_untraced(kind, &args),
        (Workload::Sim(kind), true) => sim_traced(kind, &args),
    };
    if let Some(bad) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        outcome.failed += 1;
        outcome
            .failures
            .push(format!("metric {} is not finite", bad.0));
    }
    let schema = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = complete(schema, &outcome.metrics);
    let correct = outcome.failed == 0;
    let cpus: Vec<String> = affinity::allowed_cpus()
        .iter()
        .map(|c| c.to_string())
        .collect();
    println!(
        "# workload {} seed {} seconds {} trace {} object_workers {} allowed_cpus {} available_parallelism {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        objects::WORKERS,
        cpus.join(","),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (name, value, unit) in &outcome.info {
        println!("# metric {name} {value} {unit}");
    }
    println!(
        "# metric failed_frac {} ratio",
        report::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Object workloads use half-second windows.
fn windows(seconds: f64) -> usize {
    ((seconds * 2.0).round() as usize).max(2)
}

fn peak_rss_mb() -> f64 {
    counters::peak_rss_mb().unwrap_or(0.0)
}

fn objects_untraced(kind: objects::Kind, args: &Args) -> Outcome {
    let phase = objects::run(kind, args.seed, args.seconds, windows(args.seconds), false);
    let per_window: Vec<String> = phase
        .window_ops_per_s
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    println!("# window ops_per_s {}", per_window.join(" "));
    let rss = peak_rss_mb();
    let ops = phase.ops_per_s();
    Outcome {
        attempted: phase.requests,
        failed: phase.failed,
        failures: phase.failures,
        metrics: vec![
            ("setup_s", phase.setup_s),
            ("peak_rss_mb", rss),
            ("throughput_per_s", ops),
            ("latency_p50_ns", phase.p50_ns),
            ("latency_p99_ns", phase.p99_ns),
        ],
        info: vec![
            ("setup_s", phase.setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("ops_per_s", ops, "ops/s"),
            ("op_p50_ns", phase.p50_ns, "ns"),
            ("op_p99_ns", phase.p99_ns, "ns"),
        ],
    }
}

fn objects_traced(kind: objects::Kind, args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    let plain = objects::run(kind, args.seed, half, windows(half), false);
    let traced = objects::run(kind, args.seed, half, windows(half), true);
    let overhead = 1.0 - traced.ops_per_s() / plain.ops_per_s();
    let logs: Vec<&spans::SpanLog> = traced.logs.iter().collect();
    let span_count: usize = logs.iter().map(|l| l.spans().len()).sum();
    let mut failures = [plain.failures.as_slice(), &traced.failures].concat();
    let mut failed = plain.failed + traced.failed;
    if let Err(e) = write_spans(args, &logs) {
        failed += 1;
        failures.push(format!("writing spans: {e}"));
    }
    let mut metrics = traced.layers.clone();
    metrics.push(("trace.spans", span_count as f64));
    metrics.push(("trace.overhead_frac", overhead));
    Outcome {
        attempted: plain.requests + traced.requests,
        failed,
        failures,
        metrics,
        info: vec![
            ("ops_per_s", plain.ops_per_s(), "ops/s"),
            ("traced_ops_per_s", traced.ops_per_s(), "ops/s"),
        ],
    }
}

fn sim_untraced(kind: sim::Kind, args: &Args) -> Outcome {
    let phase = sim::run(kind, args.seed, args.seconds);
    let rss = peak_rss_mb();
    let jobs = phase.jobs_per_s();
    let (p50, p99) = phase.decision_p50_p99_ns();
    let (aur, cmr) = phase.aur_cmr();
    Outcome {
        attempted: phase.runs.len() as u64,
        failed: phase.failed,
        failures: phase.failures,
        metrics: vec![
            ("setup_s", phase.setup_s),
            ("peak_rss_mb", rss),
            ("throughput_per_s", jobs),
            ("latency_p50_ns", p50),
            ("latency_p99_ns", p99),
        ],
        info: vec![
            ("setup_s", phase.setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("jobs_per_s", jobs, "jobs/s"),
            ("decision_p50_us", p50 / 1e3, "us"),
            ("decision_p99_us", p99 / 1e3, "us"),
            ("aur", aur, "ratio"),
            ("cmr", cmr, "ratio"),
            ("simulations", phase.runs.len() as f64, "count"),
        ],
    }
}

fn sim_traced(kind: sim::Kind, args: &Args) -> Outcome {
    let plain = sim::run(kind, args.seed, args.seconds / 2.0);
    let traced = sim::run_traced(kind, args.seed, &plain.fingerprints);
    let overhead = 1.0 - traced.jobs_per_s() / plain.jobs_per_s();
    let mut failures = [plain.failures.as_slice(), &traced.failures].concat();
    let mut failed = plain.failed + traced.failed;
    // The per-simulation comparison already covers these; checking the
    // sweep-level numbers too names the metric that moved.
    if plain.aur_cmr() != traced.aur_cmr() || plain.ops_per_decision() != traced.ops_per_decision()
    {
        failed += 1;
        failures.push(
            "aur, cmr or core.ops_per_decision differ between the untraced and traced runs".into(),
        );
    }
    if let Err(e) = write_spans(args, &[&traced.log]) {
        failed += 1;
        failures.push(format!("writing spans: {e}"));
    }
    let mut metrics = traced.layers.clone();
    metrics.push(("trace.overhead_frac", overhead));
    let (aur, cmr) = plain.aur_cmr();
    Outcome {
        attempted: (plain.runs.len() + traced.runs.len()) as u64,
        failed,
        failures,
        metrics,
        info: vec![
            ("jobs_per_s", plain.jobs_per_s(), "jobs/s"),
            ("traced_jobs_per_s", traced.jobs_per_s(), "jobs/s"),
            ("aur", aur, "ratio"),
            ("cmr", cmr, "ratio"),
        ],
    }
}

/// Writes a traced run's spans to `.perfbench_out/spans-<workload>.jsonl`
/// under the working directory: one file per workload, replaced by each
/// traced run (the seed is in its header).
fn write_spans(args: &Args, logs: &[&spans::SpanLog]) -> std::io::Result<()> {
    let path = PathBuf::from(".perfbench_out").join(format!("spans-{}.jsonl", args.name));
    spans::write_jsonl(&path, args.name, args.seed, logs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload sim_overload --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.name, "sim_overload");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_unknown_workloads_and_missing_flags() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload sim_overload --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload sim_overload --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload sim_overload --seed 1 --seconds")).is_err());
    }
}
