//! Experiment E8 — blocked compute-kernel throughput.
//!
//! Times the blocked/multi-accumulator kernels in `easytime_linalg::kernels`
//! against naive textbook references at the shapes the forecasting hot paths
//! actually hit: ridge-fit design matrices (~480×25), ROCKET dilated
//! convolutions, and a full rolling corpus sweep for end-to-end windows/sec.
//! The `gboost` row times a boosted-stump fit (per-fit split tables, each
//! round screened by a histogram estimate and swept exactly only where a
//! candidate can win) against `GradientBoost::fit_reference`, the
//! per-round search oracle, and fails unless both give bit-identical
//! forecasts. Each row times its two sides in alternation within every
//! best-of round, so host drift during a row lands on both sides.
//!
//! Writes `results/BENCH_kernels.json` and exits nonzero if any blocked
//! kernel is *slower* than its naive reference, so CI locks the
//! optimization in. `EASYTIME_BENCH_FAST=1` shrinks repetition counts.
//!
//! ```sh
//! cargo run --release -p easytime-bench --bin exp_kernels
//! ```

use easytime::{CorpusConfig, Domain};
use easytime_bench::print_table;
use easytime_data::synthetic::build_corpus;
use easytime_eval::{evaluate_corpus, EvalConfig, MetricRegistry, Strategy};
use easytime_linalg::kernels;
use easytime_models::boost::GradientBoost;
use easytime_models::{Forecaster, ModelSpec};
use easytime_repr::{EmbedScratch, Embedder, EmbedderConfig};
use std::hint::black_box;
use std::time::Instant;

struct Micro {
    name: &'static str,
    shape: String,
    naive_s: f64,
    blocked_s: f64,
}

impl Micro {
    fn speedup(&self) -> f64 {
        self.naive_s / self.blocked_s
    }
}

/// Wall time of `reps` calls to `f`.
fn time_reps<R>(reps: usize, f: &mut impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    started.elapsed().as_secs_f64()
}

/// Best-of-3 wall time of `reps` calls to `f`.
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    f(); // warmup
    (0..3).map(|_| time_reps(reps, &mut f)).fold(f64::INFINITY, f64::min)
}

/// Best-of-3 wall times of `reps` calls to `naive` and to `blocked`, the two
/// timed back to back within each round.
fn time_pair<A, B>(
    reps: usize,
    mut naive: impl FnMut() -> A,
    mut blocked: impl FnMut() -> B,
) -> (f64, f64) {
    naive(); // warmup
    blocked();
    (0..3).fold((f64::INFINITY, f64::INFINITY), |(n, b), _| {
        (n.min(time_reps(reps, &mut naive)), b.min(time_reps(reps, &mut blocked)))
    })
}

// ---- naive textbook references ----
//
// `naive_dot`, `naive_gram` and `naive_conv_ppv_max` are the oracles of
// `crates/linalg/tests/kernel_properties.rs`. `naive_matmul` is not: it is
// the i-j-k dot form, while the property tests use an i-k-j loop.

fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn naive_matmul(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = s;
        }
    }
}

fn naive_gram(rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
    for i in 0..cols {
        for j in 0..cols {
            let mut s = 0.0;
            for r in 0..rows {
                s += x[r * cols + i] * x[r * cols + j];
            }
            out[i * cols + j] = s;
        }
    }
}

fn naive_conv_ppv_max(z: &[f64], w: &[f64], bias: f64, dilation: usize) -> (f64, f64) {
    let span = w.len().saturating_sub(1) * dilation;
    if z.len() <= span {
        return (0.0, 0.0);
    }
    let n_out = z.len() - span;
    let mut positive = 0usize;
    let mut max = f64::NEG_INFINITY;
    for t in 0..n_out {
        let mut acc = bias;
        for (tap, wv) in w.iter().enumerate() {
            acc += wv * z[t + tap * dilation];
        }
        if acc > 0.0 {
            positive += 1;
        }
        if acc > max {
            max = acc;
        }
    }
    (positive as f64 / n_out as f64, max)
}

fn series(n: usize, phase: f64) -> Vec<f64> {
    (0..n).map(|i| ((i as f64 * 0.137) + phase).sin() * 3.0 + 0.1).collect()
}

fn main() {
    let fast = std::env::var_os("EASYTIME_BENCH_FAST").is_some_and(|v| v != "0");
    let scale = if fast { 1usize } else { 8 };
    println!("E8 kernel throughput{}\n", if fast { " [fast mode]" } else { "" });

    let mut micros: Vec<Micro> = Vec::new();

    // Ridge-fit design matrix: 480 lag windows × 25 features.
    let (rows, cols) = (480usize, 25usize);
    let x = series(rows * cols, 0.0);

    // dot at the gram column length.
    {
        let a = series(rows, 0.3);
        let b = series(rows, 0.7);
        let reps = 40_000 * scale;
        let (naive_s, blocked_s) = time_pair(
            reps,
            || naive_dot(black_box(&a), black_box(&b)),
            || kernels::dot(black_box(&a), black_box(&b)),
        );
        micros.push(Micro { name: "dot", shape: format!("{rows}"), naive_s, blocked_s });
    }

    // gram at the ridge normal-equations shape.
    {
        let reps = 400 * scale;
        let mut naive_out = vec![0.0; cols * cols];
        let mut out = vec![0.0; cols * cols];
        let mut packed = Vec::new();
        let (naive_s, blocked_s) = time_pair(
            reps,
            || {
                naive_gram(rows, cols, black_box(&x), &mut naive_out);
                black_box(&naive_out);
            },
            || {
                kernels::gram(rows, cols, black_box(&x), &mut packed, &mut out);
                black_box(&out);
            },
        );
        micros.push(Micro {
            name: "gram",
            shape: format!("{rows}x{cols}"),
            naive_s,
            blocked_s,
        });
    }

    // matmul: design matrix times its transpose-shaped counterpart.
    {
        let (m, k, n) = (rows, cols, rows);
        let a = series(m * k, 0.1);
        let b = series(k * n, 0.9);
        let reps = 4 * scale;
        let mut naive_out = vec![0.0; m * n];
        let mut out = vec![0.0; m * n];
        let mut panel = Vec::new();
        let (naive_s, blocked_s) = time_pair(
            reps,
            || {
                naive_matmul(m, k, n, black_box(&a), black_box(&b), &mut naive_out);
                black_box(&naive_out);
            },
            || {
                out.fill(0.0);
                kernels::matmul(m, k, n, black_box(&a), black_box(&b), &mut panel, &mut out);
                black_box(&out);
            },
        );
        micros.push(Micro {
            name: "matmul",
            shape: format!("{m}x{k}x{n}"),
            naive_s,
            blocked_s,
        });
    }

    // ROCKET dilated convolution over a z-normalized series.
    {
        let z = series(512, 0.0);
        let w = [0.4, -1.1, 0.8, 0.2, -0.6, 1.3, -0.9, 0.5, -0.2];
        let reps = 20_000 * scale;
        let (naive_s, blocked_s) = time_pair(
            reps,
            || naive_conv_ppv_max(black_box(&z), black_box(&w), 0.2, 3),
            || kernels::conv_ppv_max(black_box(&z), black_box(&w), 0.2, 3),
        );
        micros.push(Micro { name: "conv_ppv_max", shape: "512 d3 w9".into(), naive_s, blocked_s });
    }

    // Boosted stumps: per-fit split tables and the screened search against
    // the per-round search oracle, at the zoo's `gboost_12` shape. Appended last so the earlier
    // rows keep their `kernels.kernels.<i>` indices.
    {
        let ts = easytime_data::TimeSeries::new(
            "gboost",
            series(280, 0.4),
            easytime_data::Frequency::Daily,
        )
        .expect("series is valid");
        let mut fast_model = GradientBoost::new(12, 60, 0.2).expect("valid boost params");
        let mut oracle = fast_model.clone();
        let reps = 20 * scale;
        let (naive_s, blocked_s) = time_pair(
            reps,
            || oracle.fit_reference(black_box(&ts)).expect("oracle fit"),
            || fast_model.fit(black_box(&ts)).expect("table fit"),
        );
        let bits = |m: &GradientBoost| -> Vec<u64> {
            m.forecast(12).expect("fitted").iter().map(|v| v.to_bits()).collect()
        };
        if bits(&fast_model) != bits(&oracle) {
            eprintln!("FAIL: gboost fit and fit_reference forecasts differ");
            std::process::exit(1);
        }
        micros.push(Micro { name: "gboost", shape: "280 lb12 r60".into(), naive_s, blocked_s });
    }

    let rows_out: Vec<Vec<String>> = micros
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                m.shape.clone(),
                format!("{:.6}", m.naive_s),
                format!("{:.6}", m.blocked_s),
                format!("{:.2}x", m.speedup()),
            ]
        })
        .collect();
    print_table(&["kernel", "shape", "naive s", "blocked s", "speedup"], &rows_out);

    // ROCKET embedding throughput through the reusable-scratch path.
    let embeds_per_sec = {
        let values = series(512, 0.0);
        let ts = easytime_data::TimeSeries::new("bench", values, easytime_data::Frequency::Daily)
            .expect("series is valid");
        let mut embedder =
            Embedder::new(EmbedderConfig { num_kernels: 64, use_stats: false, seed: 7 });
        embedder.fit(std::slice::from_ref(&ts));
        let mut scratch = EmbedScratch::new();
        let mut out = Vec::new();
        let reps = 200 * scale;
        let secs = time_best(reps, || {
            embedder.embed_into(&ts, &mut scratch, &mut out);
            black_box(&out);
        });
        reps as f64 / secs
    };
    println!("\nrocket embed_into: {embeds_per_sec:.0} embeddings/s (512-pt series, 64 kernels)");

    // End-to-end: rolling corpus sweep windows/sec under LJF dispatch.
    let (e2e_windows, e2e_seconds) = {
        let corpus = build_corpus(&CorpusConfig {
            domains: vec![Domain::Traffic, Domain::Energy],
            per_domain: 3,
            length: if fast { 400 } else { 2_000 },
            ..CorpusConfig::default()
        })
        .expect("corpus config is valid");
        let registry = MetricRegistry::standard();
        let config = EvalConfig {
            methods: vec![
                ModelSpec::LagRidge { lookback: 24, lambda: 1e-2 },
                ModelSpec::NLinear { lookback: 32 },
            ],
            strategy: Strategy::Rolling { horizon: 12, stride: 12, max_windows: Some(8) },
            ..EvalConfig::default()
        }
        .into_validated(&registry)
        .expect("bench config is valid");
        let _ = evaluate_corpus(&corpus, &config, &registry).expect("warmup sweep");
        let started = Instant::now();
        let records = evaluate_corpus(&corpus, &config, &registry).expect("timed sweep");
        let seconds = started.elapsed().as_secs_f64();
        let windows: usize = records.iter().map(|r| r.windows).sum();
        (windows, seconds)
    };
    println!(
        "end-to-end corpus sweep: {e2e_windows} windows in {e2e_seconds:.3}s = {:.0} windows/s",
        e2e_windows as f64 / e2e_seconds
    );

    write_report(&micros, embeds_per_sec, e2e_windows, e2e_seconds, fast);
    println!("\nwrote results/BENCH_kernels.json");
    println!(
        "Claim shape: blocked gram/matmul gain >=2x over the textbook loops \
         at ridge-fit shapes; no kernel regresses below its naive reference."
    );

    let regressed: Vec<&str> =
        micros.iter().filter(|m| !(m.speedup() >= 1.0)).map(|m| m.name).collect();
    if !regressed.is_empty() {
        eprintln!("FAIL: blocked kernel slower than naive reference: {}", regressed.join(", "));
        std::process::exit(1);
    }
}

/// Hand-rolled JSON (the workspace is dependency-free by design).
fn write_report(
    micros: &[Micro],
    embeds_per_sec: f64,
    e2e_windows: usize,
    e2e_seconds: f64,
    fast: bool,
) {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"fast_mode\": {fast},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, m) in micros.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"naive_s\": {:.6}, \
             \"blocked_s\": {:.6}, \"speedup\": {:.2}}}{}\n",
            m.name,
            m.shape,
            m.naive_s,
            m.blocked_s,
            m.speedup(),
            if i + 1 < micros.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"rocket_embeds_per_sec\": {embeds_per_sec:.1},\n"));
    out.push_str("  \"end_to_end\": {\n");
    out.push_str(&format!("    \"windows\": {e2e_windows},\n"));
    out.push_str(&format!("    \"seconds\": {e2e_seconds:.4},\n"));
    out.push_str(&format!(
        "    \"windows_per_sec\": {:.1}\n",
        e2e_windows as f64 / e2e_seconds
    ));
    out.push_str("  }\n}\n");
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/BENCH_kernels.json", out))
    {
        eprintln!("FAIL: could not write results/BENCH_kernels.json: {e}");
        std::process::exit(1);
    }
}
