#!/usr/bin/env bash
# Fail-fast CI gate: build, test, lint. Everything runs offline — the
# workspace has no external dependencies (enforced by easytime-lint R2).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build (release, all targets) ==="
cargo build --release --all-targets

echo "=== test ==="
cargo test -q --release

echo "=== end-to-end benchmark: build + guards ==="
# e2ebench is a cargo workspace of its own, so the build above never
# compiles it, and a public-API change that breaks it would first show in
# a benchmark run. Its guard tests drive the binary with short runs of all
# four workloads: determinism counts, traced-replay equality, and
# injected-corruption detection. `.bench_build/` is its target directory.
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path e2ebench/Cargo.toml

echo "=== clippy (compiler-enforced rules: R1, R3, R5, R7, R9, R11, R0) ==="
# The lint table in the root Cargo.toml (plus the scoped `#![warn(..)]`
# lines in linalg, models, and eval) carries the rules rustc and clippy
# enforce. `--lib` checks library code only: bins, tests, examples, and
# benches are exempt, exactly as the retired easytime-lint rules were.
cargo clippy --workspace --lib -- -D warnings

echo "=== lint (token rules, workspace model: R14-R17, effects: R18-R20) ==="
# One run reports every easytime-lint rule: the per-file token rules and
# the semantic pass, which gates the public-API snapshot (R14), crate
# layering (R15), lock discipline (R16), dead exports (R17), and the effect
# rules (R18 hot-path-alloc, R19 swallowed-result, R20 lock-while-heavy). The
# committed API baseline is the reviewed pub surface; regenerate
# deliberately with:
#   cargo run -p easytime-lint -- --write-api-baseline scripts/api-baseline.txt
#
# Self-check: the committed baseline must be canonically ordered
# (byte-sorted, duplicate-free) so diffs stay reviewable.
mkdir -p results
grep -v '^#' scripts/api-baseline.txt | LC_ALL=C sort -c -u
cargo run --release -q -p easytime-lint -- \
  --format json \
  --api-baseline scripts/api-baseline.txt \
  --semantic-out results/lint_semantic.json \
  --effects-out results/lint_effects.json \
  --out results/lint_full.json
cat results/lint_full.json
# Determinism: a second run must produce byte-identical semantic stats
# and a byte-identical effect table.
cargo run --release -q -p easytime-lint -- \
  --format json \
  --api-baseline scripts/api-baseline.txt \
  --semantic-out results/lint_semantic.2.json \
  --effects-out results/lint_effects.2.json \
  --out /dev/null
cmp results/lint_semantic.json results/lint_semantic.2.json
cmp results/lint_effects.json results/lint_effects.2.json
rm -f results/lint_semantic.2.json results/lint_effects.2.json
cat results/lint_semantic.json

echo "=== linter throughput regression gate ==="
# Times discovery, phase 1, the semantic+effect pass, and effect-table
# serialization over the real tree; writes results/BENCH_lint.json and
# exits nonzero if the whole run blows the wall-clock budget.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-lint --bin exp_lint

echo "=== rolling throughput regression gate ==="
# Times the rolling sweep under both refit policies, writes
# results/BENCH_rolling.json, and exits nonzero if warm-start is slower
# than per-window refit on any warm-startable method.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_rolling_throughput

echo "=== compute-kernel regression gate ==="
# Times the blocked kernels against naive textbook references at ridge-fit
# shapes, writes results/BENCH_kernels.json, and exits nonzero if any
# blocked kernel is slower than its naive reference.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_kernels

echo "=== serving regression gate ==="
# Load-generates against the serving engine: cold refits vs cache-hit
# warm requests (gate: warm QPS >= 2x cold), plus an overload segment
# that must shed with typed errors only. Writes results/BENCH_serving.json.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_serving
# Determinism: the ManualClock-driven load script must produce a
# byte-identical latency distribution and counter set on a second run.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_serving -- \
  --deterministic --out results/serving_det_a.json
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_serving -- \
  --deterministic --out results/serving_det_b.json
cmp results/serving_det_a.json results/serving_det_b.json
rm -f results/serving_det_a.json results/serving_det_b.json

echo "=== query-planner regression gate ==="
# Builds a seeded knowledge base and times the cost-based planner against
# the full-scan oracle on point/range/join/group/ordered-limit queries.
# Checks bit-identical results, byte-stable explains, and the expected
# plan shapes (index seeks, index probe, sort elision), then gates the
# speedups. Writes results/BENCH_db.json.
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_db

echo "=== Q&A scan-oracle gate ==="
# Populates the knowledge base with real evaluation runs and asks the E4
# suite. Every answer's rows must equal, float bits included, the scan
# oracle's rows for the generated SQL and for the suite's ground-truth
# SQL; an in-scope question that fails or an out-of-scope question that
# gets an answer fails the gate too.
cargo run --release -q -p easytime-bench --bin exp_qa

echo "=== traced smoke evaluation ==="
# obs_smoke runs a small traced evaluate_corpus, writes
# results/{trace.jsonl,metrics.json,PROFILE.json,profile.txt}, and exits
# nonzero if the metrics or profile schema drifted (missing stage keys,
# wrong schema_version, low span coverage, broken self-time partition).
EASYTIME_TRACE=1 EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin obs_smoke

echo "=== profile determinism gate ==="
# Two identical traced sweeps under the never-advancing manual clock must
# render byte-identical PROFILE.json + profile.txt (allocation counting
# on), and the rendered profile must be invariant to the worker-thread
# count (allocation counting off — per-thread warmup allocations land on
# different spans by design).
rm -rf results/profile_ci
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_profile -- \
  --deterministic --threads 1 --out-dir results/profile_ci/a
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_profile -- \
  --deterministic --threads 1 --out-dir results/profile_ci/b
cmp results/profile_ci/a/PROFILE.json results/profile_ci/b/PROFILE.json
cmp results/profile_ci/a/profile.txt results/profile_ci/b/profile.txt
for t in 3 8; do
  EASYTIME_PROF_ALLOC=0 EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_profile -- \
    --deterministic --threads "$t" --out-dir "results/profile_ci/t$t"
done
EASYTIME_PROF_ALLOC=0 EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_profile -- \
  --deterministic --threads 1 --out-dir results/profile_ci/t1
cmp results/profile_ci/t1/PROFILE.json results/profile_ci/t3/PROFILE.json
cmp results/profile_ci/t1/PROFILE.json results/profile_ci/t8/PROFILE.json
cmp results/profile_ci/t1/profile.txt results/profile_ci/t3/profile.txt
cmp results/profile_ci/t1/profile.txt results/profile_ci/t8/profile.txt
rm -rf results/profile_ci

echo "=== perf trajectory + regression gate ==="
# Real-clock profiled sweep into results/, then compare every numeric
# series in PROFILE.json + BENCH_*.json against the committed baseline.
# Regenerate deliberately after an intentional perf change with:
#   cargo run --release -p easytime-bench --bin perf_report -- --write-perf-baseline
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin exp_profile
EASYTIME_BENCH_FAST=1 cargo run --release -q -p easytime-bench --bin perf_report
# Self-test: an absurd injected baseline must make the gate fail; a gate
# that cannot fail is not a gate.
if cargo run --release -q -p easytime-bench --bin perf_report -- \
  --inject kernels.kernels.0.speedup=1000000000 --no-trajectory >/dev/null 2>&1; then
  echo "perf_report failed to catch an injected regression" >&2
  exit 1
fi

echo "ci: OK"
