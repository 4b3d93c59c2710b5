//! The typed request/response surface of the serving core.
//!
//! Every interaction with [`crate::ServeEngine`] goes through [`Request`]
//! and comes back as a [`Response`] or a [`ServeError`] — there are no
//! stringly payloads to parse on either side. The three request kinds
//! mirror the platform's interactive buttons (paper Figure 4): method
//! recommendation + forecast, one-click evaluation of a single method,
//! and natural-language Q&A over the benchmark knowledge base.

use easytime_automl::Recommendation;
use easytime_data::{DataError, TimeSeries};
use easytime_eval::{EvalError, EvalRecord};
use easytime_models::{ModelError, ModelSpec};
use easytime_qa::{QaError, QaResponse};
use std::fmt;

/// A unit of work submitted to the serving engine.
#[derive(Debug, Clone)]
pub enum Request {
    /// Recommend methods for a series and forecast with the best one
    /// (or with `method` when the tenant pins a choice).
    RecommendAndForecast {
        /// The tenant's series (training history).
        series: TimeSeries,
        /// How many ranking entries to return (clamped to at least 1).
        top_k: usize,
        /// Forecast horizon in steps.
        horizon: usize,
        /// Optional pinned method; `None` lets the recommender choose.
        method: Option<ModelSpec>,
    },
    /// Run the standardized evaluation pipeline for one method on the
    /// series (strategy/split/scaler/metrics come from the engine's
    /// evaluation context).
    Evaluate {
        /// The series to evaluate on.
        series: TimeSeries,
        /// The method to evaluate.
        method: ModelSpec,
    },
    /// Natural-language question over the benchmark knowledge base.
    Ask {
        /// The question text.
        question: String,
    },
}

impl Request {
    /// Short label for spans and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::RecommendAndForecast { .. } => "recommend_and_forecast",
            Request::Evaluate { .. } => "evaluate",
            Request::Ask { .. } => "ask",
        }
    }
}

/// The typed result of a successfully served [`Request`].
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "boxing the large variant would add an allocation per response and change the \
              public field types"
)]
pub enum Response {
    /// Ranking + forecast for [`Request::RecommendAndForecast`].
    RecommendAndForecast {
        /// The top-k method ranking (sticky on cache hits: the ranking
        /// computed at fit time is reused rather than recomputed).
        ranking: Vec<Recommendation>,
        /// Canonical name of the method that produced the forecast.
        chosen: String,
        /// Point forecast in the original (unscaled) units.
        forecast: Vec<f64>,
        /// Whether the model came out of the cache (warm) or was fitted
        /// for this request (cold).
        cache_hit: bool,
    },
    /// Evaluation record for [`Request::Evaluate`].
    Evaluate {
        /// The pipeline's record (scores, windows, runtime, failures).
        record: EvalRecord,
    },
    /// Q&A answer for [`Request::Ask`].
    Ask {
        /// The full Q&A response (intent, SQL, answer, chart, table).
        response: QaResponse,
    },
}

/// Why the serving engine rejected or failed a request. Admission-control
/// outcomes ([`ServeError::Overloaded`], [`ServeError::DeadlineExceeded`],
/// [`ServeError::ShuttingDown`]) are expected under load — callers shed
/// and retry; the remaining kinds wrap the platform's typed errors.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration was rejected by the sealed builder.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The request failed structural validation before admission.
    InvalidRequest {
        /// What was wrong.
        reason: String,
    },
    /// The bounded queue was full: the request was shed, not enqueued.
    Overloaded {
        /// Requests already queued at rejection time.
        queued: usize,
        /// The configured queue bound.
        bound: usize,
    },
    /// The request waited in the queue past its deadline and was dropped
    /// at dequeue time without being processed.
    DeadlineExceeded {
        /// How long the request waited, in milliseconds.
        waited_ms: f64,
        /// The configured deadline, in milliseconds.
        deadline_ms: f64,
    },
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// A data-layer failure (bad series, scaler degeneracy, …).
    Data(DataError),
    /// A model-layer failure (fit/forecast errors).
    Model(ModelError),
    /// An evaluation-pipeline failure.
    Eval(EvalError),
    /// A Q&A failure (unparsable question, knowledge-base errors).
    Qa(QaError),
    /// An engine invariant was violated (always a bug).
    Internal {
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid serve configuration: {reason}")
            }
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::Overloaded { queued, bound } => {
                write!(f, "overloaded: {queued} requests queued (bound {bound})")
            }
            ServeError::DeadlineExceeded { waited_ms, deadline_ms } => write!(
                f,
                "deadline exceeded: waited {waited_ms:.1} ms (deadline {deadline_ms:.1} ms)"
            ),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Data(e) => write!(f, "data error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Eval(e) => write!(f, "evaluation error: {e}"),
            ServeError::Qa(e) => write!(f, "qa error: {e}"),
            ServeError::Internal { reason } => write!(f, "internal serving error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DataError> for ServeError {
    fn from(e: DataError) -> ServeError {
        ServeError::Data(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> ServeError {
        ServeError::Model(e)
    }
}

impl From<EvalError> for ServeError {
    fn from(e: EvalError) -> ServeError {
        ServeError::Eval(e)
    }
}

impl From<QaError> for ServeError {
    fn from(e: QaError) -> ServeError {
        ServeError::Qa(e)
    }
}

impl ServeError {
    /// True for admission-control outcomes a load generator counts as
    /// shed/expired rather than failures.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded { .. }
                | ServeError::ShuttingDown
        )
    }
}
