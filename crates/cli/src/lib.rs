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

/// Every flag each subcommand reads, space-separated. [`main_with`] rejects
/// any other flag before dispatch (`unknown flag --<name> for <cmd>`, exit
/// 2), so a typo or a removed flag fails loudly instead of being ignored.
const FLAGS: &[(&str, &str)] = &[
    (
        "run",
        "chaos churn-epochs churn-events churn-every crash-at crash-shard format graph6 ids \
         init max-rounds metrics n profile profile-out propose protocol schedule seed shards \
         topology trace-out",
    ),
    (
        "sim",
        "chaos ids jitter loss metrics mobility n protocol seconds seed topology",
    ),
    ("verify", "max-n protocol"),
    ("topology", "format n seed topology"),
    (
        "serve",
        "budget ids init metrics n profile-out protocol resume script seed snapshot-every \
         snapshot-out socket telemetry-addr topology",
    ),
    ("client", "scrape script send socket"),
    ("analyze", "window"),
];

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
    if let Some((_, flags)) = FLAGS.iter().find(|(name, _)| name == cmd) {
        if let Some(flag) = args
            .keys()
            .find(|k| !flags.split_whitespace().any(|f| f == *k))
        {
            let _ = writeln!(
                out,
                "error: unknown flag --{flag} for {cmd}\n\n{}",
                commands::USAGE
            );
            return 2;
        }
    }
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

#[cfg(test)]
mod tests {
    fn exit_code(argv: &[&str]) -> (i32, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = crate::main_with(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn run_rejects_the_removed_channel_cap_flag() {
        let (code, out) = exit_code(&[
            "run",
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--shards",
            "2",
            "--channel-cap",
            "8",
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown flag --channel-cap for run"), "{out}");
    }

    #[test]
    fn sim_rejects_a_misspelled_flag() {
        let (code, out) = exit_code(&[
            "sim",
            "--protocol",
            "smm",
            "--topology",
            "cycle",
            "--n",
            "4",
            "--jiter",
            "0.1",
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("unknown flag --jiter for sim"), "{out}");
    }
}
