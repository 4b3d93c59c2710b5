//! Evaluation layer of EasyTime.
//!
//! Reproduces TFB's *evaluation layer*, *reporting layer*, and *benchmark
//! pipeline* (paper §II-A/B):
//!
//! * [`metrics`] — the metric registry (MAE, MSE, RMSE, MAPE, sMAPE, WAPE,
//!   MASE, R², and user-defined custom metrics).
//! * [`strategy`] — fixed-window and rolling-origin evaluation strategies.
//! * [`pipeline`] — the standardized split → normalize → fit → forecast →
//!   post-process → score pipeline behind one-click evaluation, with a
//!   parallel runner for corpus-scale sweeps.
//! * [`report`] — run records, leaderboards, and ASCII-table rendering
//!   (the stand-in for the web frontend's result panels).

#![forbid(unsafe_code)]
#![warn(clippy::float_cmp)]

pub mod error;
pub mod metrics;
pub mod multivariate;
pub mod pipeline;
pub mod plot;
pub mod report;
pub mod strategy;

pub use error::EvalError;
pub use metrics::{Metric, MetricContext, MetricRegistry};
pub use multivariate::evaluate_multivariate;
pub use pipeline::{
    evaluate, evaluate_corpus, EvalConfig, EvalConfigBuilder, EvalFailure, EvalRecord,
    FailureKind, RefitPolicy, ValidatedEvalConfig,
};
pub use plot::ForecastPlot;
pub use report::{Leaderboard, RunLog};
pub use strategy::Strategy;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, EvalError>;
