//! Minimal std-only micro-benchmark harness.
//!
//! Replaces the external `criterion` dependency so the workspace builds
//! hermetically. The API intentionally mirrors the subset of criterion the
//! bench files use (`bench_function`, `benchmark_group`, `iter`,
//! `iter_batched`, `black_box`), so benches read the same way.
//!
//! Methodology: each routine is warmed up, then the iteration count is
//! calibrated so one sample takes a few milliseconds, and the median and
//! minimum per-iteration time over a fixed number of samples are reported.
//! Set `EASYTIME_BENCH_FAST=1` to shrink the budget for smoke runs.

pub use std::hint::black_box;

use easytime_clock::Stopwatch;
use std::time::Duration;

/// Mirrors criterion's `BatchSize`; the harness treats all variants the
/// same (one routine invocation per timed sample).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-sample setup cost.
    SmallInput,
    /// Large per-sample setup cost.
    LargeInput,
}

#[derive(Debug, Clone)]
struct Measurement {
    name: String,
    median_ns: f64,
    min_ns: f64,
    iters: u64,
}

/// Collects and reports measurements; analogous to criterion's `Criterion`.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<Measurement>,
}

fn budget() -> (Duration, Duration, usize) {
    // (warmup, per-sample target, sample count)
    if std::env::var_os("EASYTIME_BENCH_FAST").is_some() {
        (Duration::from_millis(5), Duration::from_millis(1), 5)
    } else {
        (Duration::from_millis(50), Duration::from_millis(5), 11)
    }
}

impl Harness {
    /// Creates an empty harness.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Benchmarks one routine under `name`.
    #[expect(clippy::print_stdout, reason = "the harness is a console reporter by design")]
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut bencher = Bencher { measured: None };
        f(&mut bencher);
        if let Some((samples, iters)) = bencher.measured {
            let mut per_iter: Vec<f64> =
                samples.iter().map(|d| d.as_nanos() as f64 / iters as f64).collect();
            per_iter.sort_by(f64::total_cmp);
            let median = per_iter[per_iter.len() / 2];
            let min = per_iter.first().copied().unwrap_or(f64::NAN);
            self.results.push(Measurement {
                name: name.to_string(),
                median_ns: median,
                min_ns: min,
                iters,
            });
            // Mirror every measurement into the shared metrics schema so a
            // traced run lands bench numbers in `results/metrics.json`
            // alongside pipeline timings (one source of truth).
            if easytime_obs::enabled() {
                easytime_obs::gauge(&format!("bench.{name}.median_ns"), median);
                easytime_obs::gauge(&format!("bench.{name}.min_ns"), min);
                easytime_obs::add_labeled("bench.measured", name, 1);
            }
            println!(
                "{name:<40} median {:>12}  min {:>12}  ({iters} iters/sample)",
                format_ns(median),
                format_ns(min),
            );
        }
        self
    }

    /// Opens a named group; member benchmarks are reported as
    /// `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group { harness: self, prefix: name.to_string() }
    }

    /// Prints a summary table of everything measured and, when tracing is
    /// enabled, flushes the shared metrics schema to `results/`.
    #[expect(clippy::print_stdout, reason = "the harness is a console reporter by design")]
    pub fn finish(self) {
        if self.results.is_empty() {
            return;
        }
        println!(
            "\n{:<40} {:>14} {:>14} {:>12}",
            "benchmark", "median", "min", "iters/sample"
        );
        println!("{}", "-".repeat(84));
        for m in &self.results {
            println!(
                "{:<40} {:>14} {:>14} {:>12}",
                m.name,
                format_ns(m.median_ns),
                format_ns(m.min_ns),
                m.iters
            );
        }
        // lint: allow(swallowed-result) — best-effort telemetry flush: a failed write must not fail the benchmark run
        let _ = easytime_obs::flush_if_enabled(std::path::Path::new("results"));
    }
}

/// A benchmark group; analogous to criterion's `BenchmarkGroup`.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    prefix: String,
}

impl Group<'_> {
    /// Benchmarks one routine under `prefix/name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        let full = format!("{}/{name}", self.prefix);
        self.harness.bench_function(&full, f);
        self
    }

    /// Ends the group (measurements are already recorded).
    pub fn finish(self) {}
}

/// Passed to bench closures; analogous to criterion's `Bencher`.
#[derive(Debug)]
pub struct Bencher {
    measured: Option<(Vec<Duration>, u64)>,
}

impl Bencher {
    /// Times `routine`, calibrating the iteration count so each sample
    /// takes a few milliseconds.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let (warmup, target, samples) = budget();
        // Warmup while estimating per-call cost.
        let start = Stopwatch::start();
        let mut calls: u64 = 0;
        while start.elapsed() < warmup || calls == 0 {
            black_box(routine());
            calls += 1;
        }
        let per_call = start.elapsed().as_nanos().max(1) / u128::from(calls);
        let iters = (target.as_nanos() / per_call.max(1)).clamp(1, 1_000_000) as u64;
        let mut durations = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Stopwatch::start();
            for _ in 0..iters {
                black_box(routine());
            }
            durations.push(t.elapsed());
        }
        self.measured = Some((durations, iters));
    }

    /// Times `routine` on fresh inputs from `setup`; the setup cost is not
    /// measured. One routine invocation per sample.
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        let (_, _, samples) = budget();
        // One untimed warmup pass.
        black_box(routine(setup()));
        let mut durations = Vec::with_capacity(samples);
        for _ in 0..samples {
            let input = setup();
            let t = Stopwatch::start();
            black_box(routine(input));
            durations.push(t.elapsed());
        }
        self.measured = Some((durations, 1));
    }
}

fn format_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_string()
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_and_reports() {
        std::env::set_var("EASYTIME_BENCH_FAST", "1");
        let mut h = Harness::new();
        h.bench_function("spin", |b| b.iter(|| black_box((0..100u64).sum::<u64>())));
        assert_eq!(h.results.len(), 1);
        assert!(h.results[0].median_ns > 0.0);
        h.finish();
    }

    #[test]
    fn iter_batched_measures_single_invocations() {
        std::env::set_var("EASYTIME_BENCH_FAST", "1");
        let mut h = Harness::new();
        h.benchmark_group("g").bench_function("vec", |b| {
            b.iter_batched(|| vec![1u64; 64], |v| v.iter().sum::<u64>(), BatchSize::SmallInput)
        });
        assert_eq!(h.results[0].name, "g/vec");
        assert_eq!(h.results[0].iters, 1);
    }

    #[test]
    fn ns_formatting_scales_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.00 s");
    }
}
