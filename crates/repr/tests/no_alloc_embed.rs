//! Proof that steady-state embedding is allocation-free.
//!
//! [`easytime_obs::CountingAlloc`] wraps the system allocator and a fitted
//! kernel-feature embedder (`use_stats: false` — the statistical features
//! route through the corpus characteristic extractor, which allocates by
//! design) embeds the same series repeatedly through
//! `Embedder::embed_into` with one `EmbedScratch` and one output buffer.
//! After a warm-up pass grows the buffers to capacity, N embeddings and
//! 10·N embeddings must cost the *same* number of allocations (zero per
//! additional series): the z-normalization buffer and the feature vector
//! are reused, and the convolution kernel works entirely in registers.

use easytime_data::{Frequency, TimeSeries};
use easytime_obs::CountingAlloc;
use easytime_repr::{EmbedScratch, Embedder, EmbedderConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `n` embeddings of `series`, minimized over several
/// repeats: the embedding loop's own count is deterministic, while any
/// harness threads sharing the process allocator can only *add* strays,
/// so the minimum converges to the true per-loop cost.
fn measured_embeds(embedder: &Embedder, series: &TimeSeries, n: usize) -> u64 {
    let mut scratch = EmbedScratch::new();
    let mut out = Vec::new();
    // Warm-up: grow both buffers to capacity before counting.
    embedder.embed_into(series, &mut scratch, &mut out);
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = CountingAlloc::allocations();
        for _ in 0..n {
            embedder.embed_into(series, &mut scratch, &mut out);
        }
        let after = CountingAlloc::allocations();
        assert_eq!(out.len(), embedder.dim());
        assert!(out.iter().all(|v| v.is_finite()));
        min = min.min(after - before);
    }
    min
}

// One test function only: a second concurrently-running test would
// allocate during the measurement window and make the count flaky.
#[test]
fn steady_state_embedding_is_allocation_free() {
    let values: Vec<f64> = (0..512)
        .map(|t| {
            let t = t as f64;
            10.0 + 0.02 * t + 3.0 * (t / 12.0).sin()
        })
        .collect();
    let series = TimeSeries::new("alloc", values, Frequency::Monthly).unwrap();
    let mut embedder =
        Embedder::new(EmbedderConfig { num_kernels: 48, use_stats: false, seed: 42 });
    embedder.fit(std::slice::from_ref(&series));

    let with_10 = measured_embeds(&embedder, &series, 10);
    let with_100 = measured_embeds(&embedder, &series, 100);
    assert_eq!(
        with_10, with_100,
        "90 extra warm embeddings must not allocate: 10 embeddings cost {with_10} \
         allocations, 100 cost {with_100}"
    );
}
