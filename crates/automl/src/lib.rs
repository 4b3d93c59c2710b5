//! Automated Ensemble module of EasyTime (paper §II-C, Figure 2).
//!
//! Offline pretraining: embed every corpus series ([`easytime_repr`]),
//! evaluate the method zoo on the corpus (the benchmark knowledge), convert
//! per-series method performance into *soft labels* (following SimpleTS),
//! and train a classifier mapping embeddings to a probability ranking over
//! methods.
//!
//! Online inference: embed the new series, take the classifier's top-k
//! methods, train them on the training part of the series, learn ensemble
//! weights on the validation part, and forecast with the weighted ensemble.
//!
//! * [`classifier`] — multinomial logistic regression trained with
//!   soft-label cross-entropy (hard-label mode retained for ablation A1).
//! * [`labels`] — score matrix → soft label conversion.
//! * [`recommender`] — the offline/online recommendation workflow.
//! * [`weights`] — simplex-constrained ensemble weight learning
//!   (exponentiated gradient), plus the uniform baseline for ablation A4.
//! * [`ensemble`] — the [`ensemble::AutoEnsemble`]
//!   forecaster tying it all together.

#![forbid(unsafe_code)]

pub mod classifier;
pub mod ensemble;
pub mod error;
pub mod labels;
pub mod recommender;
pub mod weights;

pub use classifier::{ClassifierConfig, LabelMode, SoftLabelClassifier};
pub use ensemble::AutoEnsemble;
pub use error::AutoMlError;
pub use recommender::{PerfMatrix, Recommendation, Recommender, RecommenderConfig};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, AutoMlError>;
