//! Data layer of EasyTime: time-series types, the synthetic benchmark corpus,
//! characteristic extraction, preprocessing, and the dataset registry.
//!
//! This crate reproduces TFB's *data layer* (paper §II-A). The paper's corpus
//! of 8,068 real univariate and 25 multivariate datasets across 10 domains is
//! substituted by a seeded synthetic generator bank ([`synthetic`]) that
//! produces per-domain corpora with controllable characteristics —
//! Seasonality, Trend, Transition, Shifting, Stationarity, and Correlation —
//! exactly the six characteristics the paper lists. Characteristic
//! *measurement* (used by the method-recommendation UI, Figure 4 label 4) is
//! implemented in [`characteristics`].
//!
//! The rest of the platform only consumes [`TimeSeries`] / [`MultiSeries`]
//! values plus [`DatasetMeta`], so real datasets can be loaded through the
//! [`csv`] module and dropped into the same registry.

#![forbid(unsafe_code)]

pub mod characteristics;
pub mod csv;
pub mod dataset;
pub mod decompose;
pub mod error;
pub mod registry;
pub mod scaler;
pub mod series;
pub mod split;
pub mod synthetic;

pub use characteristics::Characteristics;
pub use dataset::{Dataset, DatasetMeta, Domain};
pub use error::DataError;
pub use registry::DatasetRegistry;
pub use scaler::Scaler;
pub use series::{Frequency, MultiSeries, TimeSeries};
pub use split::{Split, SplitSpec};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, DataError>;
