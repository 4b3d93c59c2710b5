//! Proof that learning ensemble weights allocates once per fit, never per
//! step.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator while
//! `AutoEnsemble::fit_with_members` fits three members on a series of 240
//! points and on one of 2,400, so the validation window holds 48 points and
//! then 480. Learned and uniform weights run the same member fits and
//! refits, so their difference is what weight learning allocates: the
//! members and the actual in units of the window's scale, the Gram system,
//! and one step buffer, each once per fit (both modes allocate a weight
//! vector). The 1,500 steps, the private hot `descend`, work in place, so
//! the difference must be the same at both sizes and stay a handful. The
//! per-sample form that the Gram form replaced allocated one vector per
//! step, 1,501 more than the uniform weights at either size.

use easytime_automl::ensemble::WeightMode;
use easytime_automl::AutoEnsemble;
use easytime_data::{Frequency, TimeSeries};
use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one `fit_with_members`, minimized over several
/// repeats: the fit's own count is deterministic, while any harness
/// threads sharing the process allocator can only *add* strays, so the
/// minimum converges to the true per-fit cost.
fn measured_fit(members: &[String], series: &TimeSeries, mode: WeightMode) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        let ensemble = AutoEnsemble::fit_with_members(members, series, 0.2, mode).unwrap();
        let after = CountingAlloc::allocations();
        assert_eq!(ensemble.members().len(), members.len());
        min = min.min(after - before);
    }
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn weight_learning_allocates_per_fit_not_per_step() {
    let members = ["naive", "drift", "mean"].map(String::from);
    let extra = [240, 2_400].map(|n| {
        let values: Vec<f64> = (0..n)
            .map(|t| {
                let t = t as f64;
                20.0 + 0.05 * t + 4.0 * (t / 5.0).sin() + ((t * 0.37).sin() * 9.0).fract()
            })
            .collect();
        let series = TimeSeries::new("weights", values, Frequency::Daily).unwrap();
        let learned = measured_fit(&members, &series, WeightMode::Learned);
        let uniform = measured_fit(&members, &series, WeightMode::Uniform);
        (n, learned - uniform)
    });
    let [(_, small), (_, large)] = extra;
    assert_eq!(
        small, large,
        "weight learning must allocate the same at every window length: {extra:?} \
         (series length, allocations beyond uniform weights)"
    );
    assert!(small <= 8, "weight learning allocates {small} times per fit: {extra:?}");
}
