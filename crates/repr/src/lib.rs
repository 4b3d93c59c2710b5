//! Time-series representation learning for EasyTime's Automated Ensemble.
//!
//! The paper (§II-C) pretrains TS2Vec, an unsupervised contrastive
//! representation model, to "extract features of time series" that the
//! method-recommendation classifier consumes. Training TS2Vec requires a
//! GPU-scale PyTorch stack; per the reproduction rules it is substituted by
//! a training-free encoder with the same contract — a fixed-dimension
//! vector whose geometry clusters series with similar dynamics:
//!
//! * [`rocket`] — ROCKET-style random dilated convolution kernels with
//!   PPV/max pooling (Dempster et al.), an established stand-in for learned
//!   TS representations.
//! * `features` — a canonical statistical feature vector (moments,
//!   autocorrelation structure, and the six TFB characteristics).
//! * [`encoder`] — the [`encoder::Embedder`] that concatenates
//!   both, z-normalized per dimension with statistics fitted on the
//!   *offline pretraining corpus* (mirroring the paper's offline phase).

#![forbid(unsafe_code)]

pub mod encoder;
mod features;
pub mod rocket;

pub use encoder::{EmbedScratch, Embedder, EmbedderConfig};
