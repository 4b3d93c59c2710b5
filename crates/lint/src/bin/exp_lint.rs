//! Experiment E-lint — linter throughput across all three phases.
//!
//! Times workspace discovery, the phase-1 per-file rules (R2–R13), the
//! phase-2+3 semantic analysis (model build, R14–R17, effect closure,
//! R18–R20), and effect-table serialization over the *real* workspace
//! tree, then writes `results/BENCH_lint.json`.
//!
//! The point of the budget gate is to keep the linter cheap enough to run
//! on every CI invocation: if a refactor makes any phase blow past the
//! generous wall-clock budget, this experiment exits nonzero and CI stops
//! the regression. `EASYTIME_BENCH_FAST=1` drops to a single repetition.
//!
//! ```sh
//! cargo run --release -p easytime-lint --bin exp_lint
//! ```

use easytime_lint::{
    analyze_workspace, collect_workspace_sources, lint_sources, workspace_effect_table_json,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Whole-run wall-clock budget in nanoseconds. Deliberately generous —
/// the gate exists to catch order-of-magnitude regressions (an accidental
/// quadratic fixpoint, re-lexing per rule), not scheduler jitter.
const BUDGET_NS: u128 = 20_000_000_000;

/// Best-of-`reps` wall time of one call to `f`, in nanoseconds.
fn time_best<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (T, u128) {
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..reps {
        let started = Instant::now();
        let out = f();
        best = best.min(started.elapsed().as_nanos());
        last = Some(out);
    }
    (last.expect("reps >= 1"), best)
}

fn main() -> ExitCode {
    let fast = std::env::var("EASYTIME_BENCH_FAST").is_ok_and(|v| v != "0" && v != "false");
    let reps = if fast { 1 } else { 3 };
    let root = Path::new(".");

    let (sources, discover_ns) = time_best(reps, || match collect_workspace_sources(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exp_lint: cannot discover workspace sources: {e}");
            std::process::exit(2);
        }
    });
    let files = sources.len();
    let (phase1_diags, phase1_ns) = time_best(reps, || lint_sources(&sources));
    let ((semantic_diags, stats), semantic_ns) =
        time_best(reps, || analyze_workspace(&sources, None));
    let (effects_json, effects_ns) = time_best(reps, || workspace_effect_table_json(&sources));

    let total_ns = discover_ns + phase1_ns + semantic_ns + effects_ns;
    let files_per_sec = files as f64 / (total_ns as f64 / 1e9);

    println!("exp_lint: {files} files");
    println!("  discover  {:>12} ns", discover_ns);
    println!("  phase1    {:>12} ns  ({} findings)", phase1_ns, phase1_diags.len());
    println!(
        "  semantic  {:>12} ns  ({} findings, {} items, {} hot fns)",
        semantic_ns,
        semantic_diags.len(),
        stats.items,
        stats.hot_fns
    );
    println!("  effects   {:>12} ns  ({} bytes)", effects_ns, effects_json.len());
    println!("  total     {total_ns:>12} ns  ({files_per_sec:.1} files/s)");

    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"fast_mode\": {fast},\n  \"files\": {files},\n  \
         \"phases\": {{\n    \"discover_ns\": {discover_ns},\n    \"phase1_ns\": {phase1_ns},\n    \
         \"semantic_ns\": {semantic_ns},\n    \"effects_json_ns\": {effects_ns}\n  }},\n  \
         \"total_ns\": {total_ns},\n  \"files_per_sec\": {files_per_sec:.1},\n  \
         \"budget_ns\": {BUDGET_NS},\n  \"within_budget\": {}\n}}\n",
        total_ns <= BUDGET_NS
    );
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_lint.json", &json))
    {
        eprintln!("exp_lint: cannot write results/BENCH_lint.json: {e}");
        return ExitCode::from(2);
    }
    println!("wrote results/BENCH_lint.json");

    if total_ns > BUDGET_NS {
        eprintln!(
            "exp_lint: BUDGET EXCEEDED — {total_ns} ns > {BUDGET_NS} ns; \
             a linter phase regressed by an order of magnitude"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
