//! Observability for the EasyTime workspace: hierarchical spans, metrics,
//! structured events, and machine-readable run manifests.
//!
//! The paper's reporting layer promises "logging + visualization" for every
//! evaluation run; this crate is the substrate that makes those numbers
//! trustworthy. Every stage of the pipeline — data prep, model fit,
//! forecasting, metric computation, SQL execution — reports through one
//! schema, so `results/trace.jsonl` and `results/metrics.json` are the
//! single source of truth for timings and counts.
//!
//! ## Design
//!
//! * **Spans** are RAII guards ([`SpanGuard`]) built on
//!   [`easytime_clock::Stopwatch`] semantics: creating one records a start
//!   time and a parent/child relationship (per-thread span stack); dropping
//!   it records the duration. Records land in *per-thread* collectors that
//!   are merged at flush, so the `std::thread::scope` fan-out in
//!   `evaluate_corpus` never contends on a global lock.
//! * **Metrics** are monotonic counters, last-write-wins gauges, and
//!   fixed-bucket [`Histogram`]s. Non-finite samples (NaN, ±inf) are
//!   counted in a dedicated `invalid` counter — never dropped (the
//!   workspace's R6 NaN policy) and never conflated with the overflow
//!   bucket's slow-but-finite samples.
//! * **Profiling**: every span drop auto-records its duration into a
//!   per-name [`Histogram::log2`] histogram, and [`Profile::from_trace`]
//!   computes self-time attribution (total minus direct-child time),
//!   collapsed flame stacks, p50/p90/p95/p99 upper-bound quantiles, and —
//!   when [`CountingAlloc`] reports through [`count_alloc`] with
//!   `EASYTIME_PROF_ALLOC=1` — per-stage allocation counts. Rendered as
//!   `results/PROFILE.json` + `results/profile.txt` by [`write_files`].
//! * **Events** are structured log lines (level, target, message) that
//!   replace ad-hoc `eprintln!` diagnostics; `clippy::print_stderr` bans
//!   the latter in library code.
//! * **Determinism** (policy R8): all timestamps flow through
//!   [`easytime_clock::Clock`], never a direct `Instant::now()`. Tests
//!   install a [`easytime_clock::ManualClock`] via [`install_clock`] and get
//!   bit-identical output across runs; sinks emit in sorted order.
//!
//! ## Overhead gating
//!
//! Tracing is off unless the `EASYTIME_TRACE` environment variable is set
//! to a value other than `0`/`false` (or [`set_enabled`] is called). When
//! disabled, every entry point returns immediately without allocating —
//! [`span`] hands back an inert guard and counters are skipped — so
//! instrumented hot loops pay a single atomic load.
//!
//! ```
//! easytime_obs::set_enabled(true);
//! {
//!     let mut sp = easytime_obs::span("demo.stage");
//!     sp.attr("items", 3_u64);
//!     easytime_obs::add("demo.widgets", 3);
//! }
//! let data = easytime_obs::drain();
//! assert_eq!(data.spans.len(), 1);
//! easytime_obs::set_enabled(false);
//! ```

mod alloc_count;
mod event;
mod json;
mod metrics;
mod profile;
mod recorder;
mod sink;
mod span;

pub use alloc_count::CountingAlloc;
pub use event::{EventRecord, Level};
pub use json::fnv1a_hex;
pub use metrics::Histogram;
pub use profile::{
    render_profile_json, render_profile_txt, Profile, StageProfile, PROFILE_SCHEMA_VERSION,
};
pub use sink::{render_metrics_json, render_trace_jsonl, write_files, FlushPaths, TraceData};
pub use span::{AttrValue, SpanGuard, SpanRecord};

use easytime_clock::Clock;
use std::path::Path;

// lint: hot(per-window tracing gate; one OnceLock read plus one relaxed atomic load, pinned by obs/tests/no_alloc.rs)
/// True when tracing is currently enabled.
///
/// This is the no-op fast path's only cost: one `OnceLock` read and one
/// relaxed atomic load.
pub fn enabled() -> bool {
    recorder::enabled()
}

/// Turns tracing on or off programmatically, overriding `EASYTIME_TRACE`.
pub fn set_enabled(on: bool) {
    recorder::set_enabled(on);
}

// lint: hot(allocator-hook gate; a single process-global relaxed atomic load on the disabled path, pinned by obs/tests/no_alloc.rs)
/// True when per-span allocation accounting is on (`EASYTIME_PROF_ALLOC`
/// or [`set_prof_alloc`]). The off-path cost of the whole accounting
/// feature is this one relaxed atomic load inside [`count_alloc`].
pub fn prof_alloc_enabled() -> bool {
    recorder::prof_alloc_enabled()
}

/// Turns per-span allocation accounting on or off programmatically,
/// overriding `EASYTIME_PROF_ALLOC`. Only meaningful in a binary that
/// installs [`CountingAlloc`] (or another global allocator reporting
/// through [`count_alloc`]), like the `exp_profile` bench bin.
pub fn set_prof_alloc(on: bool) {
    recorder::set_prof_alloc(on);
}

// lint: hot(global-allocator hook; off-path is one relaxed atomic load, on-path one thread-local Cell bump — never allocates and never touches the recorder singleton, pinned by obs/tests/no_alloc.rs)
/// Reports one heap allocation of `bytes` to the profiling tally. Called
/// by [`CountingAlloc`]; a no-op unless
/// [`prof_alloc_enabled`]. Safe to call from inside the allocator: it
/// never allocates and never initializes the recorder.
pub fn count_alloc(bytes: usize) {
    recorder::count_alloc(bytes);
}

/// Installs the clock all subsequent records read their timestamps from.
///
/// Tests pass `ManualClock::clock()` here to make span durations exact;
/// production code never needs to call this (the default is the system
/// monotonic clock).
pub fn install_clock(clock: Clock) {
    recorder::install_clock(clock);
}

// lint: hot(per-window span open; inert and allocation-free when tracing is off, pinned by obs/tests/no_alloc.rs)
/// Opens a span named `name`, parented to the innermost open span on this
/// thread. The span closes (and its duration is recorded) when the
/// returned guard drops. Inert and allocation-free when tracing is off.
pub fn span(name: &str) -> SpanGuard {
    recorder::span(name)
}

// lint: hot(per-window counter increment; allocation-free with tracing off, pinned by obs/tests/no_alloc.rs)
/// Increments the monotonic counter `name` by `delta`.
pub fn add(name: &str, delta: u64) {
    recorder::add(name, delta);
}

// lint: hot(per-window labeled counter increment; allocation-free with tracing off, pinned by obs/tests/no_alloc.rs)
/// Increments the counter `name.label` by `delta` — the labeled form used
/// for per-model fit/predict counts (`models.fit.naive`, …).
pub fn add_labeled(name: &str, label: &str, delta: u64) {
    recorder::add_labeled(name, label, delta);
}

/// Sets gauge `name` to `value` (last write wins).
pub fn gauge(name: &str, value: f64) {
    recorder::gauge(name, value);
}

// lint: hot(per-window histogram sample; allocation-free with tracing off, pinned by obs/tests/no_alloc.rs)
/// Records `value` into histogram `name` using
/// [`DEFAULT_LATENCY_BOUNDS_MS`].
pub fn observe(name: &str, value: f64) {
    recorder::observe(name, metrics::DEFAULT_LATENCY_BOUNDS_MS, value);
}

// lint: hot(diagnostic event emit reachable from the window loop; allocation-free with tracing off, pinned by obs/tests/no_alloc.rs)
/// Records a structured event at [`Level::Warn`], attached to the innermost
/// open span on this thread — the replacement for diagnostic `eprintln!`
/// in library code.
pub fn warn(target: &str, message: &str) {
    recorder::event(Level::Warn, target, message);
}

/// Sets a run-manifest entry (config hash, seed, dataset count, …).
/// Manifest entries appear under `"manifest"` in `metrics.json`.
pub fn manifest_set(key: &str, value: impl Into<AttrValue>) {
    if enabled() {
        recorder::manifest_set(key, value.into());
    }
}

/// Sets a run-manifest entry holding a list of strings (dataset ids,
/// method names, …).
pub fn manifest_set_list(key: &str, values: &[String]) {
    if enabled() {
        recorder::manifest_set(key, AttrValue::List(values.to_vec()));
    }
}

/// Takes everything recorded so far — spans, events, metrics, manifest —
/// leaving the recorder empty but registered threads intact. Spans and
/// events come back sorted by sequence number (start order).
pub fn drain() -> TraceData {
    recorder::drain()
}

/// Clears all recorded data *and* resets sequence/span-id counters and the
/// manifest, so a subsequent identical workload produces byte-identical
/// output. Intended for tests.
pub fn reset() {
    recorder::reset();
}

/// Drains and writes `trace.jsonl` + `metrics.json` under `dir`
/// (creating it if needed).
pub fn flush(dir: &Path) -> std::io::Result<FlushPaths> {
    let data = drain();
    sink::write_files(dir, &data)
}
