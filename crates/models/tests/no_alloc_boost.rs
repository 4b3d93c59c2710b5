//! Proof that a boosting round is allocation-free, whichever search the
//! round runs.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator while
//! `GradientBoost::fit` runs on a series with 5 rounds and with 200.
//! Everything a fit allocates is per fit: the split tables (the series
//! sorted once as (value, index) pairs and one column buffer, the per-lag
//! thresholds, left counts and row indexes, and the buffer of
//! per-candidate error estimates), the residuals, the stump vector (sized
//! once from the round count) and the fitted tail. Each round's search,
//! the private hot `best_stump` that `fit` calls once per round, bins the
//! residuals into stack arrays, writes its estimates into that per-fit
//! buffer, and sweeps with stack accumulators only, so 195
//! extra rounds must not cost one extra allocation. Three series reach its
//! three paths: a noisy one leaves a single candidate in every round; a
//! periodic integer series repeats its lag columns, so tied splits on
//! several lags are swept exactly; and a series scaled by 1e-160, whose
//! squared residuals fall below the normal range, sweeps every lag.

use easytime_data::{Frequency, TimeSeries};
use easytime_models::boost::GradientBoost;
use easytime_models::Forecaster;
use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one `fit` of a `rounds`-round booster, minimized
/// over several repeats: the fit's own count is deterministic, while any
/// harness threads sharing the process allocator can only *add* strays,
/// so the minimum converges to the true per-fit cost.
fn measured_fit(series: &TimeSeries, rounds: usize) -> u64 {
    let mut model = GradientBoost::new(12, rounds, 0.2).unwrap();
    model.fit(series).unwrap(); // warm-up: the model holds a fitted state from here on
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        model.fit(series).unwrap();
        let after = CountingAlloc::allocations();
        min = min.min(after - before);
    }
    assert!(model.forecast(4).unwrap().iter().all(|v| v.is_finite()));
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn boosting_rounds_are_allocation_free() {
    let noisy: Vec<f64> = (0..280)
        .map(|t| {
            let t = t as f64;
            10.0 + 0.02 * t + 3.0 * (t / 7.0).sin() + ((t * 0.37).sin() * 9.0).fract()
        })
        .collect();
    let periodic: Vec<f64> = (0..280).map(|t| [3.0, -1.0, 4.0, 1.0, -5.0][t % 5]).collect();
    let tiny: Vec<f64> = noisy.iter().map(|v| v * 1e-160).collect();

    for (name, values) in [("noisy", noisy), ("periodic", periodic), ("tiny", tiny)] {
        let series = TimeSeries::new(name, values, Frequency::Daily).unwrap();
        let with_5 = measured_fit(&series, 5);
        let with_200 = measured_fit(&series, 200);
        assert_eq!(
            with_5, with_200,
            "{name}: 195 extra boosting rounds must not allocate: a 5-round fit costs \
             {with_5} allocations, a 200-round fit {with_200}"
        );
    }
}
