//! The selfstab benchmark: end-to-end and per-layer metrics on three
//! workloads — cold starts of the paper's SMM, and the live overlay daemon
//! under churn and under queries (see README.md for what each is for).
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//! benchmark --seed N [...]            # every workload, each in a child process
//! ```
//!
//! A run prints every metric with its unit and ends with one JSON result
//! line; it exits non-zero when an output check fails. `--trace 0` (the
//! default) measures the end-to-end metrics, `--trace 1` the per-layer
//! ones, in a separate traced pass that also writes its spans to
//! `.bench_build/trace/`.

mod cold;
mod instance;
mod layers;
mod loadgen;
mod report;
mod service;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use report::Report;

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Unit-disk node count of every workload.
const N: usize = 10_000;
/// Node count and run length of the `--smoke` tier.
const SMOKE_N: usize = 2_000;
const SMOKE_SECONDS: f64 = 2.0;
/// Run length when `--seconds` is not given (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 30.0;
/// Requests of the stream the traced pass replays in process.
const TRACE_REQUESTS: u64 = 2_000;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Cold,
    Churn,
    Query,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Cold, Workload::Churn, Workload::Query];

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-udg",
            Workload::Churn => "churn-udg",
            Workload::Query => "query-udg",
        }
    }

    fn protocol(self) -> &'static str {
        match self {
            Workload::Churn => "smi",
            _ => "smm",
        }
    }

    fn query_share(self) -> f64 {
        match self {
            Workload::Query => 0.8,
            _ => 0.0,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: f64::NAN,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag}: cannot parse '{value}'");
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                    args.workload = Some(w.ok_or_else(|| format!("unknown workload '{value}'"))?);
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.seconds.is_nan() {
            args.seconds = if args.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            };
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err(format!(
                "--seconds must be in (0, 600], not {}",
                args.seconds
            ));
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) => match run(w, &args) {
            Ok(report) => {
                report.print();
                i32::from(!report.correct())
            }
            Err(e) => {
                eprintln!("benchmark: {}: {e}", w.name());
                2
            }
        },
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// One workload in this process.
fn run(w: Workload, args: &Args) -> Result<Report, String> {
    let n = if args.smoke { SMOKE_N } else { N };
    if args.trace {
        let requests = if args.smoke {
            TRACE_REQUESTS / 10
        } else {
            TRACE_REQUESTS
        };
        // The cold workload's instance is its run's first network.
        let seed = match w {
            Workload::Cold => cold::network_seeds(args.seed)[0],
            _ => args.seed,
        };
        let inst = layers::Instance {
            workload: w.name(),
            n,
            seed,
            random_init: w == Workload::Cold,
            query_share: w.query_share(),
            requests,
        };
        let out = PathBuf::from(format!(
            ".bench_build/trace/{}-{}.json",
            w.name(),
            args.seed
        ));
        return Ok(layers::trace(w.protocol(), &inst, &out));
    }
    Ok(match w {
        Workload::Cold => cold::run(n, args.seed, args.seconds),
        Workload::Churn | Workload::Query => {
            let cli = build_cli()?;
            service::run(
                &cli,
                w.protocol(),
                w.query_share(),
                n,
                args.seed,
                args.seconds,
            )
        }
    })
}

/// Every workload, each in its own child process so that peak RSS and
/// allocator state do not carry over from one to the next.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("benchmark: {} failed: {status}", w.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                code = 2;
            }
        }
    }
    code
}

/// Build `selfstab-cli` from this checkout into the target directory this
/// binary was built in, and return the daemon executable's path.
fn build_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let release = exe.parent().ok_or("executable has no parent directory")?;
    let target = release
        .parent()
        .ok_or("executable is not in a target directory")?;
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "selfstab-cli",
        ])
        .arg("--manifest-path")
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building selfstab-cli failed: {status}"));
    }
    Ok(release.join("selfstab-cli"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfstab_json::Json;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = doc.get(key).and_then(Json::as_array).expect("metric list");
        list.iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn assert_reports(report: &Report, metrics: &[(String, String)], what: &str) {
        assert!(report.correct(), "{what}: {:?}", report.problems);
        assert!(report.attempted > 0, "{what}: attempted nothing");
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let wanted: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, wanted, "{what}: reports other metrics than declared");
        for ((name, value, unit), (_, declared_unit)) in report.metrics.iter().zip(metrics) {
            assert!(value.is_finite(), "{what}: {name} = {value}");
            assert_eq!(unit, declared_unit, "{what}: unit of {name}");
        }
    }

    /// The `--smoke` tier at n = 2000: the cold workload timed, and the
    /// traced pass (which replays each workload's request stream in
    /// process) on every workload.
    #[test]
    fn smoke_tier_reports_every_declared_metric() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        for w in Workload::ALL {
            let mut args = Args::parse(["--smoke", "--seconds", "1"].map(String::from).into_iter())
                .expect("smoke flags parse");
            args.workload = Some(w);
            if w == Workload::Cold {
                let report = run(w, &args).expect("cold smoke run");
                assert_reports(&report, &end_to_end, w.name());
            }
            args.trace = true;
            let report = run(w, &args).expect("traced smoke run");
            assert_reports(&report, &per_layer, &format!("{} --trace 1", w.name()));
        }
    }
}
