//! The combined embedder: kernel features + canonical features with
//! corpus-fitted per-dimension normalization.
//!
//! Mirrors the paper's offline/online split (§II-C): [`Embedder::fit`] runs
//! once over the offline pretraining corpus (computing the normalization
//! statistics), then [`Embedder::embed_into`] maps any new series into the
//! same space during online inference.

use crate::features::{extract_features_into, FEATURE_DIM};
use crate::rocket::RocketEncoder;
use easytime_data::TimeSeries;
use easytime_linalg::stats::{mean, std_dev};

/// Reusable working memory for repeated embedding.
///
/// Holds the z-normalization buffer the kernel transform writes into.
/// Create one per embedding loop (corpus fit, recommendation batch) and
/// pass it to [`Embedder::embed_into`]; once grown to capacity, the
/// kernel-feature path performs zero allocations per series.
#[derive(Debug, Clone, Default)]
pub struct EmbedScratch {
    /// Z-normalized copy of the series consumed by the convolution sweep.
    z: Vec<f64>,
}

impl EmbedScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> EmbedScratch {
        EmbedScratch::default()
    }
}

/// Configuration of the embedder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbedderConfig {
    /// Number of random kernels (0 disables kernel features — used by the
    /// embedding ablation experiment A3).
    pub num_kernels: usize,
    /// Include the canonical statistical features (disabled by ablation A3).
    pub use_stats: bool,
    /// Seed for kernel generation.
    pub seed: u64,
}

impl Default for EmbedderConfig {
    /// 48 kernels (96 dims) + 16 canonical features: enough capacity to
    /// separate dynamics while keeping the classifier's input dimension
    /// below typical corpus sizes (overfitting guard).
    fn default() -> Self {
        EmbedderConfig { num_kernels: 48, use_stats: true, seed: 42 }
    }
}

/// Maps series into a fixed-dimension embedding space.
#[derive(Debug, Clone)]
pub struct Embedder {
    rocket: Option<RocketEncoder>,
    config: EmbedderConfig,
    /// Per-dimension (mean, std) fitted on the corpus; `None` until fitted.
    norm: Option<Vec<(f64, f64)>>,
}

impl Embedder {
    /// Creates an unfitted embedder.
    ///
    /// # Panics
    /// Panics if the config disables both feature groups.
    pub fn new(config: EmbedderConfig) -> Embedder {
        assert!(
            config.num_kernels > 0 || config.use_stats,
            "embedder needs at least one feature group"
        );
        let rocket =
            (config.num_kernels > 0).then(|| RocketEncoder::new(config.num_kernels, config.seed));
        Embedder { rocket, config, norm: None }
    }

    /// Output dimension.
    pub fn dim(&self) -> usize {
        self.rocket.as_ref().map_or(0, RocketEncoder::dim)
            + if self.config.use_stats { FEATURE_DIM } else { 0 }
    }

    /// Raw (un-normalized) embedding of one series, appended to `out`.
    fn raw_embed_into(&self, series: &TimeSeries, scratch: &mut EmbedScratch, out: &mut Vec<f64>) {
        if let Some(rocket) = &self.rocket {
            rocket.transform_into(series.values(), &mut scratch.z, out);
        }
        if self.config.use_stats {
            extract_features_into(series.values(), series.frequency().default_period(), out);
        }
    }

    /// Offline phase: fits per-dimension normalization on a corpus and
    /// returns the normalized corpus embeddings (one per input series, in
    /// order).
    pub fn fit(&mut self, corpus: &[TimeSeries]) -> Vec<Vec<f64>> {
        let mut scratch = EmbedScratch::new();
        let raws: Vec<Vec<f64>> = corpus
            .iter()
            .map(|s| {
                let mut out = Vec::with_capacity(self.dim());
                self.raw_embed_into(s, &mut scratch, &mut out);
                out
            })
            .collect();
        let dim = self.dim();
        let mut norm = Vec::with_capacity(dim);
        for d in 0..dim {
            let column: Vec<f64> = raws.iter().map(|r| r[d]).collect();
            norm.push((mean(&column), std_dev(&column).max(1e-9)));
        }
        self.norm = Some(norm);
        let mut raws = raws;
        for r in &mut raws {
            self.normalize(r);
        }
        raws
    }

    fn normalize(&self, raw: &mut [f64]) {
        #[expect(
            clippy::expect_used,
            reason = "normalize is private and only called after fit has populated the \
                      normalization table"
        )]
        let norm = self.norm.as_ref().expect("embedder must be fitted");
        for (v, (mu, sigma)) in raw.iter_mut().zip(norm) {
            // Winsorize: a dimension that was near-constant on the corpus
            // has a tiny fitted sigma, and an out-of-corpus series would
            // otherwise map to an astronomically large z-score that
            // dominates every inner product downstream.
            *v = ((*v - mu) / sigma).clamp(-8.0, 8.0);
        }
    }

    /// [`Embedder::embed_into`] into a fresh buffer (test diagnostics).
    #[cfg(test)]
    pub(crate) fn embed(&self, series: &TimeSeries) -> Vec<f64> {
        let mut scratch = EmbedScratch::new();
        let mut out = Vec::with_capacity(self.dim());
        self.embed_into(series, &mut scratch, &mut out);
        out
    }

    // lint: hot(steady-state embedding entry; allocation-free once buffers are warm, pinned by repr/tests/no_alloc_embed.rs)
    /// Online phase: embeds a series into `out` (cleared first), reusing
    /// `scratch`, with the corpus-fitted normalization. Falls back to the
    /// raw embedding when unfitted (useful for similarity queries that only
    /// need relative geometry).
    ///
    /// With kernel-only features (`use_stats: false`) the steady state
    /// performs zero allocations once the buffers have grown to capacity —
    /// pinned by the counting-allocator test in `tests/no_alloc_embed.rs`.
    pub fn embed_into(&self, series: &TimeSeries, scratch: &mut EmbedScratch, out: &mut Vec<f64>) {
        out.clear();
        self.raw_embed_into(series, scratch, out);
        if self.norm.is_some() {
            self.normalize(out);
        }
    }

    /// Embeds a batch of series into one row-major `series.len() × dim`
    /// matrix appended to `out` (cleared first), reusing `scratch` across
    /// rows. This is the coalescing entry point for cross-request
    /// micro-batching: the serving engine stacks every queued embedding
    /// job here, then scores all rows with a single blocked matmul
    /// instead of one matvec per request.
    pub fn embed_batch_into(
        &self,
        batch: &[&TimeSeries],
        scratch: &mut EmbedScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.reserve(batch.len() * self.dim());
        for series in batch {
            let row_start = out.len();
            self.raw_embed_into(series, scratch, out);
            if self.norm.is_some() {
                self.normalize(&mut out[row_start..]);
            }
        }
    }

    /// True once [`Embedder::fit`] has run (test diagnostics).
    #[cfg(test)]
    pub(crate) fn is_fitted(&self) -> bool {
        self.norm.is_some()
    }
}

/// Cosine similarity between two embeddings (test diagnostics).
#[cfg(test)]
pub(crate) fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "embedding dimension mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::synthetic::{domain_spec, generate};
    use easytime_data::{Domain, Frequency};
    use std::f64::consts::PI;

    fn series(name: &str, f: impl Fn(usize) -> f64, n: usize) -> TimeSeries {
        TimeSeries::new(name, (0..n).map(f).collect(), Frequency::Monthly).unwrap()
    }

    fn corpus() -> Vec<TimeSeries> {
        let mut out = Vec::new();
        for (i, domain) in [Domain::Nature, Domain::Stock, Domain::Web].iter().enumerate() {
            for v in 0..4 {
                let spec = domain_spec(*domain, v, 200);
                out.push(generate(format!("c{i}_{v}"), &spec, (i * 10 + v) as u64).unwrap());
            }
        }
        out
    }

    #[test]
    fn fit_normalizes_corpus_dimensions() {
        let mut emb = Embedder::new(EmbedderConfig { num_kernels: 16, use_stats: true, seed: 1 });
        let corpus = corpus();
        let embedded = emb.fit(&corpus);
        assert!(emb.is_fitted());
        assert_eq!(embedded.len(), corpus.len());
        assert_eq!(embedded[0].len(), emb.dim());
        // Each dimension is approximately zero-mean after normalization.
        for d in 0..emb.dim() {
            let col: Vec<f64> = embedded.iter().map(|e| e[d]).collect();
            // Near-constant dimensions have their std clamped to 1e-9,
            // which amplifies rounding residue; allow that slack.
            assert!(mean(&col).abs() < 1e-3, "dim {d} mean {}", mean(&col));
        }
    }

    #[test]
    fn embedding_dim_matches_config() {
        let both = Embedder::new(EmbedderConfig { num_kernels: 8, use_stats: true, seed: 1 });
        assert_eq!(both.dim(), 16 + FEATURE_DIM);
        let rocket_only = Embedder::new(EmbedderConfig { num_kernels: 8, use_stats: false, seed: 1 });
        assert_eq!(rocket_only.dim(), 16);
        let stats_only = Embedder::new(EmbedderConfig { num_kernels: 0, use_stats: true, seed: 1 });
        assert_eq!(stats_only.dim(), FEATURE_DIM);
    }

    #[test]
    #[should_panic(expected = "at least one feature group")]
    fn empty_config_panics() {
        let _ = Embedder::new(EmbedderConfig { num_kernels: 0, use_stats: false, seed: 1 });
    }

    #[test]
    fn similar_series_are_more_cosine_similar() {
        let mut emb = Embedder::new(EmbedderConfig::default());
        let c = corpus();
        emb.fit(&c);
        let s12a = emb.embed(&series("a", |t| (2.0 * PI * t as f64 / 12.0).sin(), 240));
        let s12b = emb.embed(&series("b", |t| 1.1 * (2.0 * PI * t as f64 / 12.0).sin() + 3.0, 240));
        let trending = emb.embed(&series("t", |t| t as f64, 240));
        let sim_same = cosine_similarity(&s12a, &s12b);
        let sim_diff = cosine_similarity(&s12a, &trending);
        assert!(
            sim_same > sim_diff,
            "same dynamics {sim_same} should beat different dynamics {sim_diff}"
        );
    }

    #[test]
    fn out_of_corpus_series_cannot_explode_the_embedding() {
        // Fit on a homogeneous corpus (several near-constant dimensions),
        // then embed something wildly different: every coordinate must stay
        // within the winsorization bound.
        let mut emb = Embedder::new(EmbedderConfig { num_kernels: 24, use_stats: true, seed: 2 });
        let corpus: Vec<TimeSeries> =
            (0..8).map(|i| series("c", move |t| ((t + i) as f64 * 0.26).sin(), 200)).collect();
        emb.fit(&corpus);
        let alien = series("alien", |t| (t as f64).powf(1.5) * 1e3, 300);
        let e = emb.embed(&alien);
        assert!(
            e.iter().all(|v| v.abs() <= 8.0 + 1e-9),
            "max |z| = {}",
            e.iter().fold(0.0f64, |m, v| m.max(v.abs()))
        );
    }

    #[test]
    fn embedding_is_deterministic() {
        let mut a = Embedder::new(EmbedderConfig::default());
        let mut b = Embedder::new(EmbedderConfig::default());
        let c = corpus();
        let ea = a.fit(&c);
        let eb = b.fit(&c);
        assert_eq!(ea, eb);
    }

    #[test]
    fn batch_embedding_matches_per_series_rows() {
        let mut emb = Embedder::new(EmbedderConfig { num_kernels: 16, use_stats: true, seed: 9 });
        let c = corpus();
        emb.fit(&c);
        let batch: Vec<&TimeSeries> = c.iter().take(5).collect();
        let mut scratch = EmbedScratch::new();
        let mut flat = Vec::new();
        emb.embed_batch_into(&batch, &mut scratch, &mut flat);
        assert_eq!(flat.len(), 5 * emb.dim());
        for (i, s) in batch.iter().enumerate() {
            let row = &flat[i * emb.dim()..(i + 1) * emb.dim()];
            assert_eq!(row, emb.embed(s).as_slice(), "row {i} must match embed()");
        }
        // Empty batches are a no-op, and the buffer is cleared on entry.
        emb.embed_batch_into(&[], &mut scratch, &mut flat);
        assert!(flat.is_empty());
    }

    #[test]
    fn cosine_similarity_edge_cases() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }
}
