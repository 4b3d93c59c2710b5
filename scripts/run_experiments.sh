#!/usr/bin/env bash
# Regenerates every experiment in EXPERIMENTS.md into results/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Gate the experiment run on a clean build/test/lint pass.
scripts/ci.sh

mkdir -p results
cargo build --release -p easytime-bench --bins

run() {
    local name="$1"; shift
    echo "=== $name ==="
    "./target/release/$name" "$@" | tee "results/$name${2:+_$2}.txt"
}

run exp_leaderboard --per-domain 4 --length 300
run exp_ensemble --per-domain 6 --length 280 --k 3
run exp_recommend --per-domain 6 --length 280
run exp_qa --per-domain 3
run exp_multivariate --n 8
./target/release/exp_ablation all | tee results/exp_ablation.txt
