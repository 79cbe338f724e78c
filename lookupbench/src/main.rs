//! `lookupbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload closed-loop, checks every lookup and prints a report: the
//! provenance block, each metric with its unit and sample count, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the spans are written to `out/` next to this package's
//! manifest. `--workload all` runs every workload, each in its own process.
//!
//! Exit codes: 0 after a result line, 2 on a usage error, 3 on a structural
//! fault (missing outcome, count or digest mismatch), with no result line.

use faultline_lookupbench::metrics::COUNT_ROUNDS;
use faultline_lookupbench::report;
use faultline_lookupbench::run;
use faultline_lookupbench::workload::{Between, PassSpec, Rounds, Workload, SETUP_REPEATS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: lookupbench --workload <uniform-paper|zipf-cache|churn-failures|all> \
--seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut workload_given = false;
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(|| bad("unknown workload"))?),
                };
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload_given {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let spec = PassSpec {
        workload,
        shape: workload.shape(),
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        telemetry: true,
        trace: false,
        between: Between::Check,
        setups: SETUP_REPEATS,
        rounds: Rounds::Timed {
            min: COUNT_ROUNDS,
            seconds: args.seconds,
        },
    };
    let outcome = match run(&spec, args.trace) {
        Ok(outcome) => outcome,
        Err(fault) => {
            eprintln!(
                "lookupbench: structural fault in {}: {fault}",
                workload.name()
            );
            return ExitCode::from(3);
        }
    };
    let report = report::render(&spec, &outcome);
    print!("{}", report.body);
    if let Some(json) = report::trace_json(&spec, &outcome) {
        let path = report::trace_path(&spec);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(err) => eprintln!("lookupbench: could not write {}: {err}", path.display()),
        }
    }
    println!("{}", report.result);
    ExitCode::SUCCESS
}

/// Runs each workload in a child process, so each reports its own peak RSS.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("lookupbench: cannot locate own executable: {err}");
            return ExitCode::from(2);
        }
    };
    let mut rest: Vec<String> = Vec::with_capacity(raw.len());
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next();
        if flag != "--workload" {
            rest.push(flag.clone());
            rest.extend(value.cloned());
        }
    }
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(workload.name())
            .args(&rest)
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("lookupbench: {} exited with {status}", workload.name());
                return ExitCode::from(status.code().map_or(1, |c| c as u8));
            }
            Err(err) => {
                eprintln!("lookupbench: could not run {}: {err}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("lookupbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&raw),
    }
}
