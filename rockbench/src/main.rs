//! The repository benchmark: two workloads that drive Rock only through
//! its public entry points and report end-to-end and per-crate metrics.
//!
//! ```text
//! cargo run --release --manifest-path rockbench/Cargo.toml -- \
//!     --workload <skype_scale|patch_rerun> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end list of [`report::END_TO_END`]; with
//! `--trace 1` a separate traced run reports [`report::PER_LAYER`]. A line
//! before it carries the run's provenance. See `rockbench/README.md`.

mod gate;
mod gen;
mod patch;
mod pipeline;
mod report;
mod serve;
mod skype;
mod stats;
mod trace;
mod util;

use std::process::ExitCode;

use report::Report;

/// Command-line arguments, all required.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed region, in seconds.
    pub seconds: u64,
    /// Run the traced variant (per-layer metrics) instead.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    util::mark_process_start();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rockbench: {e}");
            eprintln!(
                "usage: rockbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                report::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result: Result<Report, String> = match args.workload.as_str() {
        "skype_scale" => skype::run(&args),
        "patch_rerun" => patch::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(report) => {
            report.emit(&args);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rockbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let raw = strings(&["--workload", "patch_rerun", "--seed", "7", "--seconds", "10"]);
        assert!(parse_args(&raw).is_err(), "--trace is required");
        let raw = strings(&[
            "--workload",
            "patch_rerun",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        let args = parse_args(&raw).expect("valid");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("patch_rerun", 7, 10, true)
        );
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
    }
}
