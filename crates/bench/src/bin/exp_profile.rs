//! Experiment E9 — self-time flame profile of a traced corpus sweep.
//!
//! Runs a warm-start rolling evaluation over the standard experiment
//! corpus with tracing forced on, then drains the recorder and writes the
//! perf-attribution artifacts: `PROFILE.json` (per-stage self/total time,
//! duration quantiles, allocation deltas) and `profile.txt` (collapsed
//! flame stacks). `scripts/ci.sh` runs this twice under `--deterministic`
//! and byte-compares the outputs, then once on the real clock to feed
//! `perf_report`.
//!
//! Flags:
//! - `--deterministic` installs a never-advancing manual clock so every
//!   duration is exactly zero and the rendered profile is a pure function
//!   of the span tree (byte-identical across runs and thread counts).
//! - `--threads N` sets the corpus sweep's worker count (default 1).
//! - `--out-dir DIR` redirects the artifact directory (default `results`).
//!
//! Allocation attribution is on by default (the binary installs
//! [`easytime_obs::CountingAlloc`], which feeds
//! [`easytime_obs::count_alloc`]); set
//! `EASYTIME_PROF_ALLOC=0` to disable it, e.g. for the thread-count
//! invariance comparison where per-thread warmup allocations would
//! otherwise differ. `EASYTIME_BENCH_FAST=1` shrinks the sweep for CI.
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin exp_profile -- --deterministic
//! ```

use easytime::{EvalConfig, MetricRegistry, Strategy};
use easytime_bench::{arg, arg_usize, print_table};
use easytime_bench::{experiment_corpus, fast_zoo};
use easytime_clock::ManualClock;
use easytime_eval::{evaluate_corpus, RefitPolicy};
use easytime_obs::CountingAlloc;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fail(msg: &str) -> ExitCode {
    eprintln!("exp_profile: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let deterministic = std::env::args().any(|a| a == "--deterministic");
    let threads = arg_usize("threads", 1);
    let out_dir = arg("out-dir").unwrap_or_else(|| "results".to_string());
    let fast = std::env::var_os("EASYTIME_BENCH_FAST").is_some_and(|v| v != "0");
    let alloc_on = std::env::var_os("EASYTIME_PROF_ALLOC").map_or(true, |v| v != "0");

    easytime_obs::set_enabled(true);
    easytime_obs::reset();
    easytime_obs::set_prof_alloc(alloc_on);
    if deterministic {
        // Never advanced: every span duration collapses to zero, so the
        // profile depends only on the span tree and allocation tallies.
        let manual = ManualClock::new();
        easytime_obs::install_clock(manual.clock());
    }

    let (per_domain, length, max_windows) = if fast { (1, 160, 8) } else { (2, 320, 24) };
    {
        let mut root = easytime_obs::span("profile.run");
        root.attr("purpose", "perf attribution sweep");
        let corpus = {
            let _sp = easytime_obs::span("profile.build_corpus");
            experiment_corpus(per_domain, length, 7)
        };
        let config = EvalConfig {
            methods: fast_zoo(),
            strategy: Strategy::Rolling { horizon: 8, stride: 8, max_windows: Some(max_windows) },
            refit: RefitPolicy::WarmStart,
            threads,
            ..EvalConfig::default()
        };
        let registry = MetricRegistry::standard();
        let config = match config.into_validated(&registry) {
            Ok(c) => c,
            Err(e) => return fail(&format!("config validation failed: {e}")),
        };
        easytime_obs::manifest_set("run", "exp_profile");
        easytime_obs::manifest_set("seed", 7_u64);
        match evaluate_corpus(&corpus, &config, &registry) {
            Ok(records) => {
                let failures = records.iter().filter(|r| !r.is_ok()).count();
                if failures > 0 {
                    return fail(&format!("{failures} evaluation jobs failed"));
                }
            }
            Err(e) => return fail(&format!("evaluate_corpus failed: {e}")),
        }
    }
    easytime_obs::set_prof_alloc(false);

    let data = easytime_obs::drain();
    let profile = easytime_obs::Profile::from_trace(&data);
    if profile.stages.is_empty() {
        return fail("profile recorded no stages");
    }

    let paths = match easytime_obs::write_files(Path::new(&out_dir), &data) {
        Ok(p) => p,
        Err(e) => return fail(&format!("writing artifacts failed: {e}")),
    };

    // Top self-time stages, heaviest first (ties broken by name so the
    // table itself is deterministic under the manual clock).
    let mut stages: Vec<(&String, &easytime_obs::StageProfile)> = profile.stages.iter().collect();
    stages.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(b.0)));
    let rows: Vec<Vec<String>> = stages
        .iter()
        .take(10)
        .map(|(name, s)| {
            vec![
                (*name).clone(),
                s.count.to_string(),
                s.self_ns.to_string(),
                s.total_ns.to_string(),
                s.allocs.to_string(),
            ]
        })
        .collect();
    print_table(&["stage", "count", "self_ns", "total_ns", "allocs"], &rows);

    println!(
        "exp_profile: OK ({} stages, {} flame stacks, {} spans{}{}) -> {}",
        profile.stages.len(),
        profile.flame.len(),
        data.spans.len(),
        if deterministic { ", deterministic clock" } else { "" },
        if alloc_on { ", alloc counting on" } else { "" },
        paths.profile.display()
    );
    ExitCode::SUCCESS
}
