//! `gamora-perf`: one benchmark for the Gamora serve path.
//!
//! Five closed-loop workloads drive the real `gamora-serve` `Server`; a run
//! with tracing off gives the end-to-end metrics, a separate traced run the
//! per-layer ones. See `README.md` next to this file.
//!
//! ```text
//! gamora-perf --workload NAME --seed N --seconds S --trace 0|1
//! gamora-perf --repeat N [--seed N] [--seconds S]
//! gamora-perf --smoke
//! ```

mod check;
mod host;
mod loadgen;
mod replay;
mod runs;
mod stats;
mod sut;
mod trace;
mod workloads;

use runs::{Options, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use sut::Json;
use workloads::{Spec, SPECS};

/// Heap high-water mark for `peak_heap_mib`.
#[global_allocator]
static HEAP: sut::PeakAlloc = sut::PeakAlloc;

/// Length of the timed window the committed bounds were derived at; also
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 15;

/// A metric a user of the system would see. `bound` is the share of the
/// parent's median by which it may get worse before a change is a
/// regression. The contract allows one bound per metric, so it is the widest
/// any workload needs: three times the widest run-to-run spread measured on
/// this host (README, "Bounds and host noise"), capped at the contract's
/// 0.25. Every timing metric, and `peak_heap_mib` through `cold_batch64`,
/// hits that cap; the quality ratios repeat (almost) exactly.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
}

const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "knodes_per_s",
        unit: "knodes/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.001,
    },
    EndToEnd {
        name: "accuracy_min",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.001,
    },
    EndToEnd {
        name: "adders_recovered_share",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics of the traced run: `(name, unit, higher is better)`.
const PER_LAYER: [(&str, &str, bool); 52] = [
    ("gnn.forward.ns_per_node", "ns/node", false),
    ("gnn.sage0.ns_per_node", "ns/node", false),
    ("gnn.sage_rest.ns_per_node", "ns/node", false),
    ("gnn.shared.ns_per_node", "ns/node", false),
    ("gnn.heads.ns_per_node", "ns/node", false),
    ("gnn.mean_aggregate.ns_per_edge", "ns/edge", false),
    ("gnn.mean_aggregate.gb_per_s", "GB/s", true),
    ("gnn.sage_layer.ns_per_node", "ns/node", false),
    ("gnn.fused_gemm.gflop_per_s", "GFLOP/s", true),
    ("core.assemble.ns_per_node", "ns/node", false),
    ("core.features.ns_per_node", "ns/node", false),
    ("core.graph_build.ns_per_node", "ns/node", false),
    ("core.decode_split.ns_per_node", "ns/node", false),
    ("core.extract.ns_per_node", "ns/node", false),
    ("core.lsb_correction.ns_per_node", "ns/node", false),
    ("core.fit.s", "s", false),
    ("core.snapshot_save.us", "us", false),
    ("core.snapshot_load.us", "us", false),
    ("core.snapshot_load_mmap.us", "us", false),
    ("aig.aiger_read.ns_per_node", "ns/node", false),
    ("aig.node_hashes.ns_per_node", "ns/node", false),
    ("serve.signature.ns_per_node", "ns/node", false),
    ("serve.cache_probe.ns", "ns", false),
    ("serve.cache_resolve.ns_per_node", "ns/node", false),
    ("serve.cache_insert.ns_per_node", "ns/node", false),
    ("serve.submit.ns", "ns", false),
    ("loadgen.clone.ns_per_node", "ns/node", false),
    ("loadgen.busy_share", "ratio", false),
    ("serve.queue_wait.us_mean", "us", false),
    ("serve.linger.us_mean", "us", false),
    ("serve.admission.us_mean", "us", false),
    ("serve.batch_size.mean", "jobs", true),
    ("serve.queue_depth.mean", "jobs", false),
    ("serve.stage_hash.share", "ratio", false),
    ("serve.stage_assemble.share", "ratio", false),
    ("serve.stage_forward.share", "ratio", false),
    ("serve.stage_split.share", "ratio", false),
    ("serve.stage_rest.share", "ratio", false),
    ("serve.forward_passes_per_job", "ratio", false),
    ("serve.cache_hit_share", "ratio", true),
    ("serve.cache_transfer_share", "ratio", true),
    ("serve.transfer_mismatch_share", "ratio", false),
    ("serve.unanswered", "count", false),
    ("replay.cache_hit_share", "ratio", true),
    ("serve.overhead.us_per_job", "us", false),
    ("gnn.parallel_speedup", "x", true),
    ("exact.analyze.ns_per_node", "ns/node", false),
    ("exact.speedup", "x", true),
    ("host.fma_gflop_per_s", "GFLOP/s", true),
    ("host.triad_gb_per_s", "GB/s", true),
    ("trace.overhead_share", "ratio", false),
    ("loadgen.latency_p99_ms", "ms", false),
];

fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(name, _)| *name == metric)
        .map_or("", |(_, unit)| unit)
}

/// Where trace and result files go: `gamora-perf/` in the target directory
/// this executable was built into (whatever the working directory is).
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let profile_dir = exe.ancestors().find(|dir| {
        dir.file_name()
            .is_some_and(|name| name == "release" || name == "debug")
    });
    profile_dir
        .and_then(|dir| dir.parent())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("gamora-perf")
}

fn run(spec: &Spec, opts: &Options, traced: bool) -> Report {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("gamora-perf: could not create {}: {e}", dir.display());
    }
    let report = if traced {
        runs::traced(spec, opts, &dir)
    } else {
        runs::untraced(spec, opts)
    };
    let kind = if traced { "traced" } else { "result" };
    let path = dir.join(format!("{}.{kind}.json", spec.name));
    if let Err(e) = std::fs::write(&path, report.details.pretty()) {
        eprintln!("gamora-perf: could not write {}: {e}", path.display());
    }
    report
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let fields = [
                ("value", Json::Num(value)),
                ("unit", Json::str(unit_of(name))),
            ];
            (name.to_string(), Json::obj(fields))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::u64(report.attempted)),
        ("failed", Json::u64(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn print_for_people(spec: &Spec, report: &Report) {
    eprintln!("{}", report.details.compact());
    for &(name, value) in &report.metrics {
        eprintln!(
            "{:<14} {name:<34} {value:>14.4} {}",
            spec.name,
            unit_of(name)
        );
    }
}

/// Runs every workload `n` times and compares the runs with each other.
fn repeat(n: usize, opts: &Options) -> ExitCode {
    let mut within_bounds = true;
    for spec in &SPECS {
        let reports: Vec<Report> = (0..n).map(|_| run(spec, opts, false)).collect();
        if let Some(bad) = reports.iter().find(|r| !r.correct) {
            eprintln!("{}: run not correct: {}", spec.name, bad.details.compact());
            within_bounds = false;
        }
        for (k, metric) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = reports.iter().map(|r| r.metrics[k].1).collect();
            let (low, high) = values
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
            let spread = (high - low) / stats::median(&values);
            let ok = spread <= metric.bound;
            within_bounds &= ok;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<14} {:<24} {:<8} {:<6} {:<40} diff {:>7.4} bound {:.3} {}",
                spec.name,
                metric.name,
                metric.unit,
                if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                shown.join(" "),
                spread,
                metric.bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    if within_bounds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, both kinds of run, at toy size.
fn smoke() -> ExitCode {
    let opts = Options {
        seed: 1,
        seconds: 0.3,
        smoke: true,
    };
    let mut all_correct = true;
    for spec in &SPECS {
        for traced in [false, true] {
            let report = run(spec, &opts, traced);
            all_correct &= report.correct;
            println!(
                "{} trace {} {}",
                spec.name,
                traced as u8,
                result_line(&report)
            );
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gamora-perf --workload NAME --seed N --seconds S --trace 0|1\n       \
         gamora-perf --repeat N [--seed N] [--seconds S]\n       \
         gamora-perf --smoke\nworkloads:"
    );
    for spec in &SPECS {
        eprintln!("  {:<14} {}", spec.name, spec.why);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // These would silently change what is measured.
    for var in ["GAMORA_THREADS", "GAMORA_FAULTS", "GAMORA_SCALE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("gamora-perf: refusing to run with {var} set");
            return ExitCode::from(2);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    if args.iter().any(|a| a == "--smoke") {
        return smoke();
    }
    let opts = Options {
        seed: value_of("--seed").and_then(|v| v.parse().ok()).unwrap_or(1),
        seconds: value_of("--seconds")
            .and_then(|v| v.parse().ok())
            .filter(|&s: &f64| s > 0.0)
            .unwrap_or(RUN_SECONDS as f64),
        smoke: false,
    };
    if let Some(n) = value_of("--repeat").and_then(|v| v.parse().ok()) {
        return repeat(n, &opts);
    }
    let Some(spec) = value_of("--workload").and_then(|name| workloads::spec(name)) else {
        return usage();
    };
    let traced = match value_of("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    let report = run(spec, &opts, traced);
    print_for_people(spec, &report);
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, limit: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= limit
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&SPECS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(well_formed(name, 64), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for name in &names[SPECS.len()..] {
            let unit = unit_of(name);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
                "{unit}"
            );
        }
        for spec in &SPECS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> String {
        let better = |higher: bool| Json::str(if higher { "higher" } else { "lower" });
        Json::obj([
            (
                "command",
                Json::arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--quiet",
                        "-p",
                        "gamora-bench",
                        "--bin",
                        "gamora-perf",
                        "--",
                    ]
                    .map(Json::str),
                ),
            ),
            (
                "paths",
                Json::arr([Json::str("crates/bench/src/bin/gamora-perf")]),
            ),
            ("run_seconds", Json::uint(RUN_SECONDS as usize)),
            (
                "workloads",
                Json::arr(
                    SPECS.iter().map(|s| {
                        Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))])
                    }),
                ),
            ),
            (
                "end_to_end",
                Json::arr(END_TO_END.iter().map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", better(m.higher_is_better)),
                        ("bound", Json::Num(m.bound)),
                    ])
                })),
            ),
            (
                "per_layer",
                Json::arr(PER_LAYER.iter().map(|&(name, unit, higher)| {
                    Json::obj([
                        ("name", Json::str(name)),
                        ("unit", Json::str(unit)),
                        ("better", better(higher)),
                    ])
                })),
            ),
        ])
        .pretty()
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        let expected = benchmark_json();
        assert_eq!(
            committed.trim(),
            expected.trim(),
            "BENCHMARK.json is out of step; it should read:\n{expected}"
        );
    }

    #[test]
    fn smoke_every_workload_both_ways() {
        let opts = Options {
            seed: 3,
            seconds: 0.25,
            smoke: true,
        };
        for spec in &SPECS {
            let plain = runs::untraced(spec, &opts);
            assert!(plain.correct, "{}: {}", spec.name, plain.details.compact());
            assert_eq!(plain.failed, 0);
            assert!(plain.attempted >= 1);
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            for (name, value) in &plain.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    spec.name
                );
            }
            let line = result_line(&plain);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );

            let dir = out_dir().join(format!("test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let traced = runs::traced(spec, &opts, &dir);
            assert!(
                traced.correct,
                "{}: {}",
                spec.name,
                traced.details.compact()
            );
            let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);
            assert!(
                traced.metrics.iter().all(|m| m.1.is_finite()),
                "{}",
                spec.name
            );
            let trace_file = dir.join(format!("{}.trace.json", spec.name));
            let text = std::fs::read_to_string(&trace_file).expect("trace file written");
            assert!(text.contains("\"name\":\"gnn.forward\"") && text.ends_with("]}\n"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
