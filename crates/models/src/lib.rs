//! Forecasting model zoo for EasyTime.
//!
//! This crate is the *method layer* of the platform (paper §II-A): a common
//! [`Forecaster`] interface plus a zoo of statistical, machine-learning, and
//! neural forecasting methods implemented from scratch in Rust. The paper's
//! zoo of 30+ (mostly PyTorch) methods is substituted by the 25 methods
//! here, chosen so that *different series characteristics favour different
//! methods* — the property the Automated Ensemble and recommendation
//! experiments depend on:
//!
//! * [`naive`] — naive, seasonal-naive, drift, mean, window average.
//! * [`smoothing`] — SES, Holt (optionally damped), Holt–Winters.
//! * [`theta`] — the Theta method.
//! * [`arima`] — AR/ARIMA with CSS fitting and AIC order selection.
//! * [`linear`] — lag ridge regression, DLinear, NLinear.
//! * [`neural`] — an MLP and an Elman RNN with manual backpropagation.
//! * [`boost`] — gradient-boosted decision stumps on lag features.
//! * [`multivariate`] — VAR for multivariate datasets.
//! * [`global`] — a corpus-pretrained zero-shot model (the stand-in for
//!   the foundation-model tier TFB's method layer supports).
//! * [`intervals`] — backtest-calibrated prediction intervals for any
//!   zoo member.
//!
//! Methods are constructed by name through [`zoo::ModelSpec`], which is what
//! config files and the benchmark knowledge base reference, mirroring TFB's
//! "integrate your method plus a configuration file" workflow.

#![forbid(unsafe_code)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::float_cmp
)]

pub mod arima;
pub mod boost;
pub mod error;
pub mod global;
pub mod intervals;
pub mod linear;
pub mod multivariate;
pub mod naive;
pub mod neural;
pub mod optimize;
pub mod smoothing;
pub mod theta;
pub mod zoo;

pub use error::ModelError;
pub use zoo::{ModelSpec, ZooEntry};

use easytime_data::TimeSeries;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// The common interface of every univariate forecasting method.
///
/// The contract mirrors TFB's method layer: `fit` consumes the training
/// partition, `forecast` produces point forecasts for the next `horizon`
/// steps after the end of the training data. Implementations must be
/// deterministic given their construction parameters (stochastic trainers
/// take explicit seeds).
pub trait Forecaster: Send {
    /// Canonical method name as registered in the benchmark knowledge base.
    fn name(&self) -> &str;

    /// Fits the method on a training series.
    fn fit(&mut self, train: &TimeSeries) -> Result<()>;

    /// Forecasts the next `horizon` values. Requires a prior successful
    /// [`Forecaster::fit`].
    fn forecast(&self, horizon: usize) -> Result<Vec<f64>>;

    /// Warm-starts the model with observations appended *after* the data it
    /// was last fitted on, avoiding a refit from scratch. `appended` holds
    /// only the new observations, in the same (scaled) space the model was
    /// fitted in.
    ///
    /// Returns `Ok(true)` when the model absorbed the new data and now
    /// behaves exactly as if refitted on the concatenated series, or
    /// `Ok(false)` when it cannot (the caller must rebuild and refit).
    ///
    /// Contract: an `Ok(false)` return — including the default — **must
    /// leave the model unchanged**, so callers can fall back to a refit
    /// without tearing the instance down first. Cheap-to-update families
    /// (naive, seasonal naive, drift, mean, window statistics) override
    /// this; iteratively-fitted methods (ARIMA, boosting, neural) keep the
    /// refit default.
    fn update(&mut self, appended: &TimeSeries) -> Result<bool> {
        let _ = appended;
        Ok(false)
    }

    /// Writes the next `horizon` forecast values into `out` (cleared
    /// first), reusing its capacity. The default delegates to
    /// [`Forecaster::forecast`]; warm-startable methods override it so the
    /// rolling-evaluation steady state stays allocation-free.
    fn forecast_into(&self, horizon: usize, out: &mut Vec<f64>) -> Result<()> {
        let values = self.forecast(horizon)?;
        out.clear();
        out.extend_from_slice(&values);
        Ok(())
    }

    /// Minimum training length this method needs; the pipeline reports a
    /// clear error instead of fitting on shorter series.
    fn min_train_len(&self) -> usize {
        4
    }
}

/// Validates a fitted-model forecast request, shared by implementations.
pub(crate) fn check_horizon(horizon: usize) -> Result<()> {
    if horizon == 0 {
        return Err(ModelError::InvalidParam { what: "horizon must be at least 1".into() });
    }
    Ok(())
}

/// Validates training input against a minimum length, shared by
/// implementations.
pub(crate) fn check_train(train: &TimeSeries, min_len: usize) -> Result<()> {
    if train.len() < min_len {
        return Err(ModelError::TooShort { needed: min_len, got: train.len() });
    }
    Ok(())
}
