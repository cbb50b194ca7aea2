//! Command-line front end for the `selfstab` protocols.
//!
//! ```text
//! selfstab run    --protocol smm --topology grid --n 64 [--ids random --seed 7 --init random --format text|json|dot]
//! selfstab sim    --protocol smi --topology unit-disk --n 32 [--jitter 0.05 --loss 0.1 --mobility 0.02 --seconds 30]
//! selfstab verify --protocol smm --max-n 4
//! ```
//!
//! The parsing layer is deliberately tiny (flags are `--key value` pairs);
//! all heavy lifting happens in the library crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod args;
pub mod commands;
pub mod serve;

pub use args::Args;

/// Entry point shared by the binary and the tests. Returns the process exit
/// code and writes the report to `out`.
pub fn main_with(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        let _ = writeln!(out, "{}", commands::USAGE);
        return 2;
    };
    let mut rest: Vec<String> = it.cloned().collect();
    // `analyze` takes its artifact as a leading positional argument
    // (`selfstab analyze run.jsonl`); every other flag stays `--key value`.
    let mut artifact: Option<String> = None;
    if cmd == "analyze" && rest.first().is_some_and(|a| !a.starts_with("--")) {
        artifact = Some(rest.remove(0));
    }
    let args = match Args::parse(&rest) {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(out, "error: {e}\n\n{}", commands::USAGE);
            return 2;
        }
    };
    if cmd == "analyze" {
        return match analyze::analyze(artifact.as_deref(), &args) {
            Ok((report, ok)) => {
                let _ = writeln!(out, "{report}");
                // Bound violations exit 1 so a recorded artifact can gate CI.
                i32::from(!ok)
            }
            Err(e) => {
                let _ = writeln!(out, "error: {e}\n\n{}", commands::USAGE);
                2
            }
        };
    }
    let result = match cmd.as_str() {
        "run" => commands::run(&args),
        "sim" => commands::sim(&args),
        "verify" => commands::verify(&args),
        "topology" => commands::topology(&args),
        "serve" => serve::serve(&args),
        "client" => serve::client(&args),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", commands::USAGE);
            return 0;
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(report) => {
            let _ = writeln!(out, "{report}");
            0
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}\n\n{}", commands::USAGE);
            2
        }
    }
}
