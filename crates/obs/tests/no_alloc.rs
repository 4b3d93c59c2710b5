//! Proof that disabled tracing is free on the hot path.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator; with
//! `EASYTIME_TRACE` off, the exact per-window instrumentation pattern used
//! by `eval::pipeline::run_windows` must perform zero allocations. The
//! allocator also drives the profiling hook exactly the way `exp_profile`
//! does: with `EASYTIME_PROF_ALLOC` unset it must be one relaxed load and
//! no work.

use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn disabled_tracing_does_not_allocate_on_the_per_window_hot_loop() {
    // Force the disabled state and warm every lazy one-time path (the
    // recorder `OnceLock`, env read) before counting.
    easytime_obs::set_enabled(false);
    {
        let mut sp = easytime_obs::span("warmup");
        sp.attr("x", 1_u64);
        easytime_obs::add("warmup", 1);
    }

    // An inert guard records nothing even when attrs are set.
    {
        let mut sp = easytime_obs::span("ghost");
        sp.attr("ignored", 7_u64);
        assert!(!sp.is_recording());
        assert_eq!(sp.id(), None);
    }

    let before = CountingAlloc::allocations();
    for origin in 0..1_000_u64 {
        // The exact shape eval::pipeline stamps on every window.
        let mut wsp = easytime_obs::span("eval.window");
        wsp.attr_u64("origin", origin);
        wsp.attr("len", 24_u64);
        easytime_obs::count_alloc(64);
        assert!(!easytime_obs::prof_alloc_enabled());
        easytime_obs::add("eval.model_failures", 1);
        easytime_obs::add_labeled("models.fit", "naive", 1);
        easytime_obs::observe("window.ms", 0.5);
        if easytime_obs::enabled() {
            easytime_obs::warn("eval.pipeline", "never formatted when disabled");
        }
    }
    let after = CountingAlloc::allocations();
    assert_eq!(
        after - before,
        0,
        "disabled per-window instrumentation must be allocation-free"
    );

    let data = easytime_obs::drain();
    assert!(data.spans.iter().all(|s| s.name != "ghost"));
}
