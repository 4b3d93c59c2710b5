//! Proof that the warm-start rolling engine reaches an allocation-free
//! steady state.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator and a real
//! `evaluate` run under `RefitPolicy::WarmStart` is measured twice on the
//! same series — once capped at 50 windows, once at 500. Everything that
//! allocates is either per-*run* (record strings, window plan, score map)
//! or confined to the first few windows while the `WindowWorkspace`
//! buffers grow to capacity; after that, each additional window must cost
//! zero allocations. Equal counts for 50 vs 500 windows prove it: 450
//! extra steady-state windows, not one extra allocation.

use easytime_data::{Frequency, TimeSeries};
use easytime_eval::{EvalConfig, MetricRegistry, RefitPolicy, Strategy, ValidatedEvalConfig};
use easytime_models::ModelSpec;
use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn config(max_windows: usize, registry: &MetricRegistry) -> ValidatedEvalConfig {
    EvalConfig {
        strategy: Strategy::Rolling { horizon: 4, stride: 4, max_windows: Some(max_windows) },
        refit: RefitPolicy::WarmStart,
        ..EvalConfig::default()
    }
    .into_validated(registry)
    .expect("config is valid")
}

/// Allocation count of one `evaluate` run, minimized over several
/// repeats: the evaluation's own count is deterministic, while harness
/// threads sharing the process allocator can only *add* strays, so the
/// minimum converges to the true per-run cost.
fn measured_run(
    series: &TimeSeries,
    config: &ValidatedEvalConfig,
    registry: &MetricRegistry,
) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        let record = easytime_eval::evaluate("alloc", series, &ModelSpec::Naive, config, registry)
            .unwrap();
        let after = CountingAlloc::allocations();
        assert!(record.is_ok(), "evaluation failed: {:?}", record.error);
        min = min.min(after - before);
    }
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn warm_start_window_loop_reaches_allocation_free_steady_state() {
    easytime_obs::set_enabled(false);

    // 12_000 points → 2_400 test points under the default 7:1:2 split →
    // up to 600 stride-4 windows available, enough for both caps.
    let values: Vec<f64> = (0..12_000)
        .map(|t| {
            let t = t as f64;
            50.0 + 0.01 * t + 6.0 * (t / 24.0).sin()
        })
        .collect();
    let series = TimeSeries::new("alloc", values, Frequency::Hourly).unwrap();
    let registry = MetricRegistry::standard();
    let short = config(50, &registry);
    let long = config(500, &registry);

    // Warm every lazy one-time path (recorder OnceLock, env reads, the
    // allocator's own bookkeeping) before counting.
    let _ = measured_run(&series, &short, &registry);

    let with_50 = measured_run(&series, &short, &registry);
    let with_500 = measured_run(&series, &long, &registry);
    assert_eq!(
        with_50, with_500,
        "450 extra warm windows must not allocate: 50 windows cost {with_50} \
         allocations, 500 windows cost {with_500}"
    );
}
