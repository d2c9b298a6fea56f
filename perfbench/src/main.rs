//! The TWCA suite's benchmark.
//!
//! `twca-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload for `s` seconds on inputs drawn from seed `n`,
//! checks its outputs, prints every named metric with its unit and
//! sample count, and ends with one JSON line holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` declares. See `README.md` beside this file.

mod client;
mod reference;
mod report;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use spec::Spec;

/// Everything a workload run needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Process start, where the first set-up's time begins.
    pub start: Instant,
    pub spec: Spec,
}

const USAGE: &str =
    "usage: twca-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(start: Instant) -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("`--trace` expects 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".into());
    }
    Ok((
        workload.ok_or("missing --workload")?,
        Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or("missing --trace")?,
            start,
            spec: Spec::load(),
        },
    ))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let (workload, ctx) = match parse_args(start) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("twca-perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Report = match workload.as_str() {
        "design_sweep" => workloads::design_sweep::run,
        "serve_mixed" => workloads::serve_mixed::run,
        "store_edits" => workloads::store_edits::run,
        "montecarlo" => workloads::montecarlo::run,
        other => {
            eprintln!("twca-perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&ctx);
    match report.emit(&ctx) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("twca-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
