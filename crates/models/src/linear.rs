//! Linear-family forecasters: lag ridge regression, DLinear, and NLinear.
//!
//! The linear family is the strongest small-data group in recent TSF
//! benchmarks (and in TFB itself), which is why it anchors the "ML" tier of
//! the zoo. DLinear and NLinear follow Zeng et al.'s "Are Transformers
//! Effective for Time Series Forecasting?" recipe, adapted to the
//! horizon-agnostic recursive interface of this crate:
//!
//! * [`LagRidge`] — ridge regression on the last `lookback` values,
//!   applied recursively for multi-step forecasts.
//! * [`DLinear`] — decomposes into trend (moving average) and remainder and
//!   fits a separate linear model per component.
//! * [`NLinear`] — subtracts the window's last value before the linear map
//!   and adds it back, neutralizing level shifts.

use crate::{check_horizon, check_train, Forecaster, ModelError, Result};
use easytime_data::decompose::trailing_moving_average;
use easytime_data::TimeSeries;
use easytime_linalg::kernels::dot;
use easytime_linalg::{ridge, Matrix};

/// Fits `y[t] ≈ β₀ + Σ βᵢ y[t-i]` with ridge regularization.
fn fit_lag_model(values: &[f64], lookback: usize, lambda: f64) -> Result<Vec<f64>> {
    let n = values.len();
    if n < lookback + 2 {
        return Err(ModelError::TooShort { needed: lookback + 2, got: n });
    }
    let rows = n - lookback;
    let x = Matrix::from_fn(rows, lookback + 1, |i, j| {
        if j == 0 {
            1.0
        } else {
            values[lookback + i - j]
        }
    });
    let y: Vec<f64> = values[lookback..].to_vec();
    ridge(&x, &y, lambda).map_err(|e| ModelError::Numeric { what: e.to_string() })
}

/// Reverses the lag coefficients `beta[1..]` so a one-step prediction is a
/// contiguous dot with the newest-last history window.
fn reversed_lags(beta: &[f64]) -> Vec<f64> {
    beta[1..].iter().rev().copied().collect()
}

/// Recursive multi-step forecast with a fitted lag model.
fn forecast_recursive(beta: &[f64], tail: &[f64], horizon: usize) -> Vec<f64> {
    let lookback = beta.len() - 1;
    // Hoist the coefficient reversal so every step is one contiguous
    // four-lane dot over the trailing window.
    let rev = reversed_lags(beta);
    let mut hist = tail.to_vec();
    let mut out = Vec::with_capacity(horizon);
    for _ in 0..horizon {
        let v = beta[0] + dot(&rev, &hist[hist.len() - lookback..]);
        out.push(v);
        hist.push(v);
        if hist.len() > lookback {
            hist.remove(0);
        }
    }
    out
}

/// Ridge regression on lagged values.
#[derive(Debug, Clone)]
pub struct LagRidge {
    lookback: usize,
    lambda: f64,
    name: String,
    fitted: Option<(Vec<f64>, Vec<f64>)>, // (beta, tail)
}

impl LagRidge {
    /// Creates a lag-ridge forecaster with `lookback` lags and penalty
    /// `lambda`.
    pub fn new(lookback: usize, lambda: f64) -> Result<LagRidge> {
        if lookback == 0 {
            return Err(ModelError::InvalidParam { what: "lookback must be ≥ 1".into() });
        }
        if lambda < 0.0 {
            return Err(ModelError::InvalidParam { what: "lambda must be ≥ 0".into() });
        }
        Ok(LagRidge { lookback, lambda, name: format!("lag_ridge_{lookback}"), fitted: None })
    }
}

impl Forecaster for LagRidge {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.lookback.min(v.len() / 2).max(1);
        let beta = fit_lag_model(v, lookback, self.lambda)?;
        let tail = v[v.len() - lookback..].to_vec();
        self.fitted = Some((beta, tail));
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let (beta, tail) = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        Ok(forecast_recursive(beta, tail, horizon))
    }

    fn min_train_len(&self) -> usize {
        // `fit` shrinks the lookback for short series; 8 points is the floor.
        8
    }
}

/// DLinear: separate linear models on the moving-average trend and the
/// remainder.
#[derive(Debug, Clone)]
pub struct DLinear {
    lookback: usize,
    kernel: usize,
    name: String,
    fitted: Option<DLinearState>,
}

#[derive(Debug, Clone)]
struct DLinearState {
    beta_trend: Vec<f64>,
    beta_resid: Vec<f64>,
    trend_tail: Vec<f64>,
    resid_tail: Vec<f64>,
}

impl DLinear {
    /// Creates DLinear with `lookback` lags and a moving-average kernel of
    /// `kernel` steps (25 in the original paper; scaled down for short
    /// series at fit time).
    pub fn new(lookback: usize, kernel: usize) -> Result<DLinear> {
        if lookback == 0 || kernel < 2 {
            return Err(ModelError::InvalidParam {
                what: "DLinear needs lookback ≥ 1 and kernel ≥ 2".into(),
            });
        }
        Ok(DLinear { lookback, kernel, name: format!("dlinear_{lookback}"), fitted: None })
    }
}

impl Forecaster for DLinear {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.lookback.min(v.len() / 3).max(1);
        let kernel = self.kernel.min(v.len() / 4).max(2);

        // Trailing MA: causal, so the tail of the trend is not edge-biased
        // (see `trailing_moving_average` for the bias trade-off).
        let trend = trailing_moving_average(v, kernel);
        let resid: Vec<f64> = v.iter().zip(&trend).map(|(x, t)| x - t).collect();

        let beta_trend = fit_lag_model(&trend, lookback, 1e-4)?;
        let beta_resid = fit_lag_model(&resid, lookback, 1e-4)?;
        self.fitted = Some(DLinearState {
            beta_trend,
            beta_resid,
            trend_tail: trend[trend.len() - lookback..].to_vec(),
            resid_tail: resid[resid.len() - lookback..].to_vec(),
        });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let trend = forecast_recursive(&st.beta_trend, &st.trend_tail, horizon);
        let resid = forecast_recursive(&st.beta_resid, &st.resid_tail, horizon);
        Ok(trend.iter().zip(&resid).map(|(t, r)| t + r).collect())
    }

    fn min_train_len(&self) -> usize {
        12
    }
}

/// NLinear: linear model on the window after subtracting its last value.
///
/// The subtraction makes the model invariant to the absolute level, which is
/// exactly what helps under the *Shifting* characteristic.
#[derive(Debug, Clone)]
pub struct NLinear {
    lookback: usize,
    name: String,
    fitted: Option<(Vec<f64>, Vec<f64>)>, // (beta, tail)
}

impl NLinear {
    /// Creates NLinear with `lookback` lags.
    pub fn new(lookback: usize) -> Result<NLinear> {
        if lookback == 0 {
            return Err(ModelError::InvalidParam { what: "lookback must be ≥ 1".into() });
        }
        Ok(NLinear { lookback, name: format!("nlinear_{lookback}"), fitted: None })
    }
}

impl Forecaster for NLinear {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.lookback.min(v.len() / 2).max(1);
        let n = v.len();
        let rows = n - lookback;
        // Design: normalized lags (value − window last); target similarly
        // normalized. Intercept column retained.
        let x = Matrix::from_fn(rows, lookback + 1, |i, j| {
            if j == 0 {
                1.0
            } else {
                let anchor = v[lookback + i - 1];
                v[lookback + i - j] - anchor
            }
        });
        let y: Vec<f64> = (0..rows).map(|i| v[lookback + i] - v[lookback + i - 1]).collect();
        let beta =
            ridge(&x, &y, 1e-4).map_err(|e| ModelError::Numeric { what: e.to_string() })?;
        self.fitted = Some((beta, v[n - lookback..].to_vec()));
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let (beta, tail) = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let lookback = beta.len() - 1;
        let rev = reversed_lags(beta);
        let mut centered = vec![0.0; lookback];
        let mut hist = tail.to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            #[expect(
                clippy::expect_used,
                reason = "fit stores lookback ≥ 1 trailing observations and the loop below \
                          only appends, so the history can never be empty here"
            )]
            let anchor = *hist.last().expect("history is never empty");
            // Anchor subtraction happens *before* the dot so the reduction
            // runs on small residuals, not raw levels (cancellation-safe).
            let window = &hist[hist.len() - lookback..];
            for (c, &h) in centered.iter_mut().zip(window) {
                *c = h - anchor;
            }
            let delta = beta[0] + dot(&rev, &centered);
            let v = anchor + delta;
            out.push(v);
            hist.push(v);
            if hist.len() > lookback {
                hist.remove(0);
            }
        }
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::Frequency;
    use std::f64::consts::PI;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new("t", values, Frequency::Unknown).unwrap()
    }

    fn seasonal_trend(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| 5.0 + 0.1 * t as f64 + 3.0 * (2.0 * PI * t as f64 / 12.0).sin())
            .collect()
    }

    #[test]
    fn lag_ridge_learns_seasonal_pattern() {
        let mut m = LagRidge::new(24, 1e-3).unwrap();
        m.fit(&ts(seasonal_trend(240))).unwrap();
        let f = m.forecast(12).unwrap();
        for (h, v) in f.iter().enumerate() {
            let t = 240 + h;
            let expected = 5.0 + 0.1 * t as f64 + 3.0 * (2.0 * PI * t as f64 / 12.0).sin();
            assert!((v - expected).abs() < 1.0, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn lag_ridge_shrinks_lookback_on_short_series() {
        let mut m = LagRidge::new(64, 1e-3).unwrap();
        m.fit(&ts((0..20).map(|t| t as f64).collect())).unwrap();
        assert!(m.forecast(3).unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dlinear_handles_trend_plus_season() {
        let mut m = DLinear::new(24, 12).unwrap();
        m.fit(&ts(seasonal_trend(240))).unwrap();
        let f = m.forecast(12).unwrap();
        for (h, v) in f.iter().enumerate() {
            let t = 240 + h;
            let expected = 5.0 + 0.1 * t as f64 + 3.0 * (2.0 * PI * t as f64 / 12.0).sin();
            // The edge-padded moving average biases the trend tail slightly,
            // so the tolerance is looser than for the pure lag model.
            assert!((v - expected).abs() < 2.5, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn nlinear_is_level_shift_invariant() {
        // Same dynamics at two levels: forecasts should continue from the
        // *current* level, not regress to the training mean.
        let base = seasonal_trend(200);
        let shifted: Vec<f64> = base.iter().map(|v| v + 1000.0).collect();
        let mut m1 = NLinear::new(24).unwrap();
        m1.fit(&ts(base)).unwrap();
        let mut m2 = NLinear::new(24).unwrap();
        m2.fit(&ts(shifted)).unwrap();
        let f1 = m1.forecast(6).unwrap();
        let f2 = m2.forecast(6).unwrap();
        for (a, b) in f1.iter().zip(&f2) {
            assert!((b - a - 1000.0).abs() < 1e-6, "shift equivariance violated: {a} vs {b}");
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(LagRidge::new(0, 0.1).is_err());
        assert!(LagRidge::new(4, -1.0).is_err());
        assert!(DLinear::new(0, 12).is_err());
        assert!(DLinear::new(8, 1).is_err());
        assert!(NLinear::new(0).is_err());
    }

    #[test]
    fn unfitted_and_short_series_errors() {
        assert!(matches!(LagRidge::new(4, 0.1).unwrap().forecast(1), Err(ModelError::NotFitted)));
        assert!(matches!(DLinear::new(4, 4).unwrap().forecast(1), Err(ModelError::NotFitted)));
        assert!(matches!(NLinear::new(4).unwrap().forecast(1), Err(ModelError::NotFitted)));
        let mut m = DLinear::new(4, 4).unwrap();
        assert!(matches!(
            m.fit(&ts(vec![1.0, 2.0, 3.0])),
            Err(ModelError::TooShort { .. })
        ));
    }

    #[test]
    fn names_embed_lookback() {
        assert_eq!(LagRidge::new(16, 0.1).unwrap().name(), "lag_ridge_16");
        assert_eq!(DLinear::new(32, 25).unwrap().name(), "dlinear_32");
        assert_eq!(NLinear::new(32).unwrap().name(), "nlinear_32");
    }
}
