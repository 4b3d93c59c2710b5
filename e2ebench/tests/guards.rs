//! The benchmark's own guards, run against its binary with short runs:
//! the determinism counts of two runs of one seed agree exactly, the
//! traced replay reproduces the untraced outputs, and an injected wrong
//! answer fails the run.
//!
//! ```sh
//! cargo test --release --manifest-path e2ebench/Cargo.toml
//! ```

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["one_click", "qa", "serve", "ensemble"];

fn run(workload: &str, seed: u64, trace: bool, corrupt: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_easytime-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.3",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--corrupt", if corrupt { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs")
}

/// The `count:` lines: everything that must repeat exactly for a seed.
fn counts(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("count: "))
        .map(str::to_string)
        .collect()
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn two_runs_of_one_seed_agree_exactly() {
    for w in WORKLOADS {
        let (a, b) = (run(w, 7, false, false), run(w, 7, false, false));
        assert!(
            a.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&a.stderr)
        );
        assert!(
            b.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&b.stderr)
        );
        assert!(!counts(&a).is_empty(), "{w} prints its determinism counts");
        assert_eq!(
            counts(&a),
            counts(&b),
            "{w}: counts differ between two runs of one seed"
        );
        assert!(
            last_line(&a).starts_with("{\"correct\": true"),
            "{w}: {}",
            last_line(&a)
        );
    }
}

#[test]
fn traced_run_reproduces_the_untraced_outputs() {
    for w in WORKLOADS {
        let (plain, traced) = (run(w, 3, false, false), run(w, 3, true, false));
        // The traced run fails itself when a replayed output differs.
        assert!(
            traced.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&traced.stderr)
        );
        let plain_counts = counts(&plain);
        let traced_counts = counts(&traced);
        for line in &plain_counts {
            assert!(traced_counts.contains(line), "{w}: traced run lacks {line}");
        }
        let last = last_line(&traced);
        assert!(last.contains("\"trace.coverage\""), "{w}: {last}");
        assert!(last.contains("\"host.ref_ms\""), "{w}: {last}");
    }
}

#[test]
fn an_injected_wrong_answer_fails_the_run() {
    for w in WORKLOADS {
        let out = run(w, 5, false, true);
        assert!(
            !out.status.success(),
            "{w}: a corrupted output must fail the run"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("MISMATCH"),
            "{w}: the failure names the mismatch"
        );
        assert!(
            last_line(&out).starts_with("{\"correct\": false"),
            "{w}: {}",
            last_line(&out)
        );
    }
}

#[test]
fn seeds_change_the_inputs() {
    let (a, b) = (run("qa", 1, false, false), run("qa", 2, false, false));
    assert_ne!(
        counts(&a),
        counts(&b),
        "different seeds generate different inputs"
    );
}
