//! CI perf-regression tracker.
//!
//! Flattens every numeric series in `results/PROFILE.json` and
//! `results/BENCH_*.json` into dotted names (`profile.stages.<name>.<field>`,
//! `rolling.speedups.<method>`, ...), compares them against the committed
//! baseline `scripts/perf-baseline.json`, appends one row to
//! `results/BENCH_trajectory.json`, and exits nonzero when a gated series
//! regressed.
//!
//! Gating policy (everything else is tracked but never fails the build):
//! - names ending `.speedup` or containing `.speedups.` are higher-is-better
//!   with a 40% band — these derive from wall-clock timing, so the band is
//!   wider than the design's 15% floor to absorb CI scheduler noise;
//! - names containing `allocs_per_span` are lower-is-better with the strict
//!   15% band (plus an absolute slack of 0.5 allocs) — allocation counts are
//!   deterministic, so drift there is a real regression.
//!
//! Flags:
//! - `--baseline PATH` — baseline file (default `scripts/perf-baseline.json`).
//! - `--results-dir DIR` — artifact directory (default `results`).
//! - `--write-perf-baseline` — regenerate the baseline from the current
//!   artifacts and exit (run after an intentional perf change).
//! - `--inject NAME=VALUE` — override one baseline entry in memory; CI uses
//!   this to prove the regression gate actually fails the build.
//! - `--no-trajectory` — skip appending the trajectory row.
//!
//! Trajectory rows are keyed by run index, not timestamps — the workspace
//! bans wall-clock reads outside the clock crate, and an index is all the
//! trend plot needs.
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin perf_report
//! ```

use easytime::json::Json;
use easytime_bench::{arg, print_table};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How a series participates in the regression gate.
enum Gate {
    /// Timing-derived ratio: fail when current < baseline × (1 − tol).
    HigherBetter { tol: f64 },
    /// Deterministic count: fail when current > baseline × (1 + tol) + slack.
    LowerBetter { tol: f64, slack: f64 },
    /// Recorded in the baseline and trajectory, never gated.
    Track,
}

fn gate_for(name: &str) -> Gate {
    if name.ends_with(".speedup") || name.contains(".speedups.") {
        Gate::HigherBetter { tol: 0.40 }
    } else if name.contains("allocs_per_span") {
        Gate::LowerBetter { tol: 0.15, slack: 0.5 }
    } else {
        Gate::Track
    }
}

/// Recursively emits every finite number in `doc` as `prefix.path → value`.
fn flatten(doc: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match doc {
        Json::Number(v) => {
            if v.is_finite() {
                let _ = out.insert(prefix.to_string(), *v);
            }
        }
        Json::Object(map) => {
            for (k, v) in map {
                flatten(v, &format!("{prefix}.{k}"), out);
            }
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}.{i}"), out);
            }
        }
        Json::Null | Json::Bool(_) | Json::String(_) => {}
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("perf_report: FAIL: {msg}");
    ExitCode::FAILURE
}

/// Loads and flattens one JSON artifact under `prefix`.
fn load_series(path: &Path, prefix: &str, out: &mut BTreeMap<String, f64>) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {} failed: {e}", path.display()))?;
    let doc = Json::parse(&text)
        .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
    flatten(&doc, prefix, out);
    Ok(())
}

/// The current run's series: PROFILE.json plus every BENCH_*.json except
/// the trajectory file itself, prefixed by file stem (minus `BENCH_`).
fn collect_current(results_dir: &Path) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let profile = results_dir.join("PROFILE.json");
    if !profile.is_file() {
        return Err(format!("{} missing — run exp_profile first", profile.display()));
    }
    load_series(&profile, "profile", &mut out)?;
    let entries = std::fs::read_dir(results_dir)
        .map_err(|e| format!("reading {} failed: {e}", results_dir.display()))?;
    let mut bench_files: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("directory entry error: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") && name != "BENCH_trajectory.json"
        {
            bench_files.push(entry.path());
        }
    }
    bench_files.sort();
    for path in &bench_files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let prefix = stem.strip_prefix("BENCH_").unwrap_or(&stem).to_string();
        load_series(path, &prefix, &mut out)?;
    }
    Ok(out)
}

/// Renders a flat `name → value` map as a 2-space-indented JSON object.
fn render_flat(series: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in series.iter().enumerate() {
        out.push_str(&format!(
            "  \"{name}\": {value:?}{}\n",
            if i + 1 < series.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}

/// Appends one run row to `BENCH_trajectory.json`, preserving prior rows.
fn append_trajectory(
    path: &Path,
    gated: &BTreeMap<String, f64>,
    regressions: usize,
    total_series: usize,
) -> Result<usize, String> {
    let mut rows: Vec<String> = Vec::new();
    if path.is_file() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {} failed: {e}", path.display()))?;
        let doc = Json::parse(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        if let Some(runs) = doc.get("runs").and_then(Json::as_array) {
            rows.extend(runs.iter().map(std::string::ToString::to_string));
        }
    }
    let run = rows.len();
    let mut row = format!(
        "{{\"run\": {run}, \"series\": {total_series}, \"regressions\": {regressions}, \
         \"gated\": {{"
    );
    for (i, (name, value)) in gated.iter().enumerate() {
        row.push_str(&format!(
            "{}\"{name}\": {value:?}",
            if i > 0 { ", " } else { "" }
        ));
    }
    row.push_str("}}");
    rows.push(row);
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!("    {r}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("writing {} failed: {e}", path.display()))?;
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let baseline_path =
        PathBuf::from(arg("baseline").unwrap_or_else(|| "scripts/perf-baseline.json".into()));
    let results_dir = PathBuf::from(arg("results-dir").unwrap_or_else(|| "results".into()));
    let write_baseline = args.iter().any(|a| a == "--write-perf-baseline");
    let no_trajectory = args.iter().any(|a| a == "--no-trajectory");

    let current = match collect_current(&results_dir) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    if current.is_empty() {
        return fail("no numeric series found in the artifacts");
    }

    if write_baseline {
        if let Err(e) = std::fs::write(&baseline_path, render_flat(&current)) {
            return fail(&format!("writing {} failed: {e}", baseline_path.display()));
        }
        println!(
            "perf_report: wrote {} ({} series)",
            baseline_path.display(),
            current.len()
        );
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            return fail(&format!(
                "reading baseline {} failed: {e} (regenerate with --write-perf-baseline)",
                baseline_path.display()
            ))
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("baseline is not valid JSON: {e}")),
    };
    let mut baseline: BTreeMap<String, f64> = BTreeMap::new();
    flatten(&doc, "", &mut baseline);
    // flatten prefixes everything with "." when the prefix is empty.
    let mut baseline: BTreeMap<String, f64> = baseline
        .into_iter()
        .map(|(k, v)| (k.trim_start_matches('.').to_string(), v))
        .collect();

    // Injected overrides: `--inject name=value`, repeatable (CI self-test).
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == "--inject" {
            let Some((name, value)) = args[i + 1].split_once('=') else {
                return fail(&format!("--inject expects NAME=VALUE, got {:?}", args[i + 1]));
            };
            let Ok(value) = value.parse::<f64>() else {
                return fail(&format!("--inject value {value:?} is not a number"));
            };
            let _ = baseline.insert(name.to_string(), value);
        }
        i += 1;
    }

    let mut gated: BTreeMap<String, f64> = BTreeMap::new();
    let mut regressions: Vec<Vec<String>> = Vec::new();
    let mut new_series = 0usize;
    for (name, &value) in &current {
        let gate = gate_for(name);
        if matches!(gate, Gate::Track) {
            continue;
        }
        let _ = gated.insert(name.clone(), value);
        let Some(&base) = baseline.get(name) else {
            new_series += 1;
            continue;
        };
        let (regressed, bound) = match gate {
            Gate::HigherBetter { tol } => {
                let bound = base * (1.0 - tol);
                (base > 0.0 && value < bound, bound)
            }
            Gate::LowerBetter { tol, slack } => {
                let bound = base * (1.0 + tol) + slack;
                (value > bound, bound)
            }
            Gate::Track => (false, f64::NAN),
        };
        if regressed {
            regressions.push(vec![
                name.clone(),
                format!("{base:.3}"),
                format!("{value:.3}"),
                format!("{bound:.3}"),
            ]);
        }
    }
    let stale: Vec<&String> = baseline
        .keys()
        .filter(|k| !matches!(gate_for(k), Gate::Track) && !current.contains_key(*k))
        .collect();

    if !no_trajectory {
        match append_trajectory(
            &results_dir.join("BENCH_trajectory.json"),
            &gated,
            regressions.len(),
            current.len(),
        ) {
            Ok(run) => println!("perf_report: trajectory row {run} appended"),
            Err(e) => return fail(&e),
        }
    }

    println!(
        "perf_report: {} series ({} gated, {} new, {} stale baseline entries)",
        current.len(),
        gated.len(),
        new_series,
        stale.len()
    );
    for name in stale {
        println!("  note: baseline series {name} no longer produced");
    }
    if regressions.is_empty() {
        println!("perf_report: OK — no gated series regressed");
        return ExitCode::SUCCESS;
    }
    print_table(&["series", "baseline", "current", "allowed"], &regressions);
    fail(&format!("{} gated series regressed", regressions.len()))
}
