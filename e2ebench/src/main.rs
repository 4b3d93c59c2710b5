//! Seeded end-to-end and per-layer benchmark of the four EasyTime
//! workflows: one-click evaluation, NL Q&A, serving and the automated
//! ensemble.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload one_click --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run pins the process to one CPU, generates a fixed op script from
//! `--seed`, drives it closed-loop from one client thread through the
//! public API, checks every output against an oracle outside the timed
//! region, and prints its metrics. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` also replays the script with the benchmark's own
//! spans around the calls one level below the facade and prints the
//! per-layer metrics. The last line of standard output is a JSON object;
//! the exit code is non-zero when any oracle check fails.
//!
//! `--corrupt 1` injects one wrong output before the oracle checks, to
//! show that a wrong answer fails the run.

mod common;
mod ensemble;
mod host;
mod one_click;
mod qa;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

/// One run's command-line settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub corrupt: bool,
}

impl RunConfig {
    /// The number of ops of a script sized to take about `--seconds` at
    /// `ops_per_s` reference-normalised ops per second, rounded up to a
    /// whole number of `cycle`-op passes.
    pub fn script_len(&self, ops_per_s: f64, cycle: usize) -> usize {
        let want = (self.seconds * ops_per_s).ceil().max(1.0) as usize;
        want.div_ceil(cycle).max(1) * cycle
    }
}

const WORKLOADS: &[&str] = &["one_click", "qa", "serve", "ensemble"];

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => cfg.trace = value == "1",
            "--corrupt" => cfg.corrupt = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("e2ebench: cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::batch_scheduling() {
        eprintln!("e2ebench: cannot select batch scheduling: {e}");
        return ExitCode::from(2);
    }
    // The program's own tracing stays off in every measured run.
    easytime::obs::set_enabled(false);
    let mut clock = host::NormClock::new();
    let mut report = match workload.as_str() {
        "one_click" => one_click::run(&cfg, &mut clock),
        "qa" => qa::run(&cfg, &mut clock),
        "serve" => serve::run(&cfg, &mut clock),
        _ => ensemble::run(&cfg, &mut clock),
    };
    if report.print(&workload, cpu, &clock, cfg.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
