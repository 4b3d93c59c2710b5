//! In-process serving core for EasyTime (the platform tier of the paper).
//!
//! The paper presents EasyTime as an *interactive* platform: users upload
//! series and get forecasts, evaluations, and natural-language answers on
//! demand. This crate turns the batch-oriented facade into that serving
//! shape — std-only, in-process, and typed end to end:
//!
//! * [`api`] — [`Request`] / [`Response`] / [`ServeError`]: the typed
//!   request/response surface (no stringly payloads).
//! * [`config`] — [`ServeConfig`] behind a sealed builder that yields a
//!   [`ValidatedServeConfig`], mirroring the evaluation layer's pattern.
//! * [`fingerprint`] — deterministic series fingerprints (seeded
//!   FNV-1a → SplitMix64) keying the model cache.
//! * [`cache`] — the LRU model cache: repeat tenants warm-start via
//!   `Forecaster::update` under the frozen-transform contract instead of
//!   refitting from scratch.
//! * [`engine`] — [`ServeEngine`]: worker-pool or caller-driven inline
//!   dispatch, cross-request micro-batching of embedding work (one
//!   blocked matmul per tick), and admission control with bounded queues
//!   and per-request deadlines (shed, don't crash).
//!
//! ```no_run
//! use easytime_serve::{Request, ServeConfig, ServeContext, ServeEngine};
//! # fn demo(ctx: ServeContext, series: easytime_data::TimeSeries) {
//! let engine = ServeEngine::start(ctx, ServeConfig::builder().build().expect("valid"));
//! let reply = engine.call(Request::RecommendAndForecast {
//!     series,
//!     top_k: 3,
//!     horizon: 24,
//!     method: None,
//! });
//! # let _ = reply;
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod config;
pub mod engine;
pub mod fingerprint;

pub use api::{Request, Response, ServeError};
pub use config::{ServeConfig, ServeConfigBuilder, ValidatedServeConfig};
pub use engine::{ServeContext, ServeEngine, ServeStats, Ticket};
pub use fingerprint::fingerprint;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
