//! # EasyTime: time series forecasting made easy
//!
//! A Rust reproduction of the EasyTime platform (ICDE 2025): one-click
//! evaluation on a comprehensive forecasting benchmark, automated
//! ensembles for new datasets, and natural-language Q&A over the
//! accumulated benchmark knowledge.
//!
//! ## Quickstart
//!
//! ```
//! use easytime::{CorpusConfig, Domain, EasyTime};
//!
//! // A platform with a small synthetic benchmark corpus.
//! let platform = EasyTime::with_benchmark(&CorpusConfig {
//!     domains: vec![Domain::Nature, Domain::Web],
//!     per_domain: 2,
//!     length: 120,
//!     ..CorpusConfig::default()
//! })
//! .unwrap();
//!
//! // One-click evaluation from a configuration file.
//! let records = platform
//!     .one_click_json(r#"{"methods": ["naive", "seasonal_naive"]}"#)
//!     .unwrap();
//! assert_eq!(records.len(), 4 * 2);
//!
//! // Ask the benchmark a question.
//! let mut qa = platform.qa_session().unwrap();
//! let response = qa.ask("Which method is best by MAE?").unwrap();
//! println!("{}", response.answer);
//! ```
//!
//! The heavy lifting lives in the sub-crates, re-exported here:
//! `easytime-data` (corpus + characteristics), `easytime-models` (the
//! method zoo), `easytime-eval` (strategies, metrics, pipeline),
//! `easytime-db` (the embedded SQL knowledge base), `easytime-repr`
//! (series embeddings), `easytime-automl` (recommendation + ensembles),
//! and `easytime-qa` (NL2SQL and answers).

#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod json;
pub mod knowledge;
pub mod platform;

pub use config::{parse_config, DatasetSelection, FileConfig};
pub use error::EasyTimeError;
pub use platform::EasyTime;

// Re-export the vocabulary types users need at the surface.
pub use easytime_automl::ensemble::WeightMode;
pub use easytime_clock::{ManualClock, Stopwatch};

/// Observability: spans, metrics, events, and run manifests. See the
/// README's "Observability" section; tracing is enabled by the
/// `EASYTIME_TRACE` environment variable or [`obs::set_enabled`].
pub use easytime_obs as obs;
pub use easytime_automl::{AutoEnsemble, PerfMatrix, Recommendation, Recommender, RecommenderConfig};
pub use easytime_data::synthetic::CorpusConfig;
pub use easytime_data::{
    Characteristics, Dataset, DatasetMeta, Domain, Frequency, MultiSeries, Scaler, SplitSpec,
    TimeSeries,
};
pub use easytime_db::{Database, QueryResult};
pub use easytime_eval::{
    EvalConfig, EvalRecord, ForecastPlot, Leaderboard, Metric, MetricRegistry, Strategy,
};
pub use easytime_models::{Forecaster, ModelSpec};
pub use easytime_qa::{QaResponse, QaSession};

/// Convenience result alias for the facade.
pub type Result<T> = std::result::Result<T, EasyTimeError>;
