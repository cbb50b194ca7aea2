//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! harness [--quick] [--metrics] [e1 e2 … e25 | all]
//! ```
//!
//! `--quick` shrinks the sweep (used by CI-style smoke runs); the default
//! sizes match the committed EXPERIMENTS.md. `--metrics` appends a
//! convergence-telemetry section (a representative observed run's
//! per-round census table and latency histogram). Output is Markdown on
//! stdout.

use selfstab_bench::experiments::{
    e01_smm_rounds, e02_smi_rounds, e03_transitions, e04_growth, e05_counterexample, e06_baseline,
    e07_faults, e08_adhoc, e09_mobility, e10_exhaustive, e11_quality, e13_coloring, e14_anonymous,
    e15_bfs_tree, e16_contention, e17_observability, e18_runtime_scaling, e19_active_schedule,
    e20_chaos, e21_shard_skew, e22_service, e24_byzantine, e25_telemetry, Report,
};
use std::io::Write;

struct Config {
    quick: bool,
}

fn run_experiment(id: &str, cfg: &Config) -> Option<Report> {
    let q = cfg.quick;
    Some(match id {
        "e1" => e01_smm_rounds::run(
            if q {
                &[16, 64]
            } else {
                &[16, 32, 64, 128, 256, 512]
            },
            if q { 5 } else { 25 },
        ),
        "e2" => e02_smi_rounds::run(
            if q {
                &[16, 64]
            } else {
                &[16, 32, 64, 128, 256, 512]
            },
            if q { 5 } else { 25 },
        ),
        "e3" => e03_transitions::run(if q { &[12] } else { &[16, 48] }, if q { 5 } else { 40 }),
        "e4" => e04_growth::run(if q { &[16] } else { &[24, 64] }, if q { 5 } else { 25 }),
        "e5" => e05_counterexample::run(if q { 20 } else { 200 }),
        "e6" => e06_baseline::run(
            if q { &[16] } else { &[16, 32, 64, 128] },
            if q { 3 } else { 15 },
        ),
        "e7" => e07_faults::run(
            if q { 16 } else { 64 },
            if q { &[1, 4] } else { &[1, 2, 4, 8, 16] },
            if q { 3 } else { 15 },
        ),
        "e8" => e08_adhoc::run(if q { 12 } else { 24 }, if q { 2 } else { 5 }),
        "e9" => e09_mobility::run(
            if q { 12 } else { 24 },
            if q {
                &[0.005, 0.05]
            } else {
                &[0.002, 0.01, 0.05, 0.1, 0.2]
            },
            if q { 1 } else { 3 },
            if q { 120 } else { 600 },
        ),
        "e10" => {
            if q {
                e10_exhaustive::run(4, 5)
            } else {
                e10_exhaustive::run(5, 6)
            }
        }
        "e11" => e11_quality::run(if q { 14 } else { 18 }, if q { 3 } else { 15 }),
        "e13" => e13_coloring::run(
            if q {
                &[16, 64]
            } else {
                &[16, 32, 64, 128, 256]
            },
            if q { 5 } else { 25 },
        ),
        "e14" => e14_anonymous::run(
            if q { &[16] } else { &[16, 64, 256] },
            if q { 5 } else { 15 },
        ),
        "e15" => e15_bfs_tree::run(
            if q { &[16] } else { &[16, 64, 128] },
            if q { 3 } else { 10 },
        ),
        "e16" => e16_contention::run(
            if q { 16 } else { 36 },
            if q {
                &[0.0, 0.2]
            } else {
                &[0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
            },
            if q { 3 } else { 10 },
        ),
        "e17" => e17_observability::run(
            if q { &[12] } else { &[16, 36, 64] },
            if q { 3 } else { 15 },
        ),
        "e18" => {
            e18_runtime_scaling::run(if q { &[2_000] } else { &[10_000, 100_000] }, &[1, 2, 4, 8])
        }
        "e19" => e19_active_schedule::run(if q { 2_000 } else { 100_000 }, 4),
        "e20" => e20_chaos::run(
            if q { &[500] } else { &[10_000, 100_000] },
            if q {
                &[0.0, 0.2]
            } else {
                &[0.0, 0.1, 0.2, 0.3]
            },
            if q { &[0, 6] } else { &[0, 8] },
        ),
        "e21" => e21_shard_skew::run(if q { &[2_000] } else { &[10_000, 100_000] }, &[2, 4, 8]),
        "e22" => e22_service::run(
            if q { &[2_000] } else { &[10_000, 100_000] },
            if q { 100 } else { 1_000 },
            if q { 50 } else { 200 },
        ),
        "e24" => e24_byzantine::run(
            if q { &[400] } else { &[10_000, 100_000] },
            if q { &[1, 4] } else { &[1, 4, 16] },
            if q { 16 } else { 48 },
            if q { &[8, 24] } else { &[8, 32, 128] },
        ),
        "e25" => e25_telemetry::run(
            if q { &[2_000] } else { &[10_000, 100_000] },
            if q { 100 } else { 1_000 },
        ),
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let metrics = args.iter().any(|a| a == "--metrics");
    let mut ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.to_lowercase())
        .collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        // E12 and E23 measured paths that were removed; their ids are
        // rejected like any unknown one.
        ids = [1..=11, 13..=22, 24..=25]
            .into_iter()
            .flatten()
            .map(|i| format!("e{i}"))
            .collect();
    }
    let cfg = Config { quick };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# selfstab experiment harness ({} mode)\n",
        if quick { "quick" } else { "full" }
    )
    .unwrap();
    for id in &ids {
        let start = std::time::Instant::now();
        match run_experiment(id, &cfg) {
            Some(report) => {
                writeln!(out, "{}", report.to_markdown()).unwrap();
                writeln!(
                    out,
                    "_({} completed in {:.1?})_\n",
                    report.id,
                    start.elapsed()
                )
                .unwrap();
            }
            None => {
                eprintln!(
                    "unknown experiment id: {id} (expected e1..e25 except e12 and e23, or all)"
                );
                std::process::exit(2);
            }
        }
    }
    if metrics {
        writeln!(out, "{}", e17_observability::telemetry_section(quick)).unwrap();
    }
}
