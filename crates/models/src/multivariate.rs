//! Multivariate forecasting: vector autoregression (VAR).
//!
//! TFB's corpus includes 25 multivariate datasets; the Correlation
//! characteristic only matters to methods that can exploit cross-channel
//! structure. [`Var`] fits one ridge-regularized equation per channel on the
//! lagged values of *all* channels, and [`MultiModelSpec::PerChannel`] runs
//! any univariate zoo member per channel as the baseline that ignores
//! correlation.

use crate::{check_horizon, Forecaster, ModelError, Result};
use easytime_data::MultiSeries;
use easytime_linalg::kernels::dot;
use easytime_linalg::{ridge, Matrix};

/// The multivariate counterpart of [`Forecaster`].
pub trait MultiForecaster: Send {
    /// Canonical method name.
    fn name(&self) -> &str;

    /// Fits on a multivariate training series.
    fn fit(&mut self, train: &MultiSeries) -> Result<()>;

    /// Forecasts `horizon` steps for every channel; the outer vector is
    /// indexed by channel.
    fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>>;
}

/// Vector autoregression of order `p` with ridge-regularized per-equation
/// least squares.
#[derive(Debug, Clone)]
pub struct Var {
    order: usize,
    lambda: f64,
    name: String,
    fitted: Option<VarState>,
}

#[derive(Debug, Clone)]
struct VarState {
    /// Coefficients per channel equation: `[intercept, lag1_ch0.., lag2_ch0..]`.
    equations: Vec<Vec<f64>>,
    /// Trailing observations per channel, newest last.
    tails: Vec<Vec<f64>>,
    order: usize,
}

impl Var {
    /// Creates a VAR(p) forecaster.
    pub fn new(order: usize, lambda: f64) -> Result<Var> {
        if order == 0 {
            return Err(ModelError::InvalidParam { what: "VAR order must be ≥ 1".into() });
        }
        if lambda < 0.0 {
            return Err(ModelError::InvalidParam { what: "lambda must be ≥ 0".into() });
        }
        Ok(Var { order, lambda, name: format!("var_{order}"), fitted: None })
    }
}

impl MultiForecaster for Var {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &MultiSeries) -> Result<()> {
        let k = train.num_channels();
        let n = train.len();
        let p = self.order;
        if n < p * k + p + 4 {
            return Err(ModelError::TooShort { needed: p * k + p + 4, got: n });
        }
        let rows = n - p;
        let cols = 1 + p * k;
        // Shared design matrix: [1, y_{t-1,0..k}, y_{t-2,0..k}, …].
        let x = Matrix::from_fn(rows, cols, |i, j| {
            if j == 0 {
                1.0
            } else {
                let lag = (j - 1) / k + 1;
                let ch = (j - 1) % k;
                train.channel(ch)[p + i - lag]
            }
        });
        let mut equations = Vec::with_capacity(k);
        for ch in 0..k {
            let y: Vec<f64> = train.channel(ch)[p..].to_vec();
            let beta = ridge(&x, &y, self.lambda)
                .map_err(|e| ModelError::Numeric { what: e.to_string() })?;
            equations.push(beta);
        }
        let tails: Vec<Vec<f64>> =
            (0..k).map(|ch| train.channel(ch)[n - p..].to_vec()).collect();
        self.fitted = Some(VarState { equations, tails, order: p });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let k = st.equations.len();
        let p = st.order;
        let mut hists = st.tails.clone();
        let mut out = vec![Vec::with_capacity(horizon); k];
        // Lag state flattened to match the equation layout
        // `[y_{t-1,0..k}, y_{t-2,0..k}, …]`, so every equation reduces to
        // one contiguous dot against the shared state vector.
        let mut state = vec![0.0; p * k];
        for _ in 0..horizon {
            for lag in 1..=p {
                for (ch, hist) in hists.iter().enumerate() {
                    state[(lag - 1) * k + ch] = hist[hist.len() - lag];
                }
            }
            let next: Vec<f64> =
                st.equations.iter().map(|eq| eq[0] + dot(&eq[1..], &state)).collect();
            for (ch, &v) in next.iter().enumerate() {
                out[ch].push(v);
                hists[ch].push(v);
                if hists[ch].len() > p {
                    hists[ch].remove(0);
                }
            }
        }
        Ok(out)
    }
}

/// Declarative specification of a multivariate method, mirroring
/// [`crate::ModelSpec`] for the multivariate tier of the zoo.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiModelSpec {
    /// Vector autoregression of the given order.
    Var {
        /// AR order.
        order: usize,
    },
    /// A univariate zoo member applied independently per channel.
    PerChannel(crate::ModelSpec),
}

impl MultiModelSpec {
    /// Canonical method name.
    pub fn name(&self) -> String {
        match self {
            MultiModelSpec::Var { order } => format!("var_{order}"),
            MultiModelSpec::PerChannel(spec) => format!("ci_{}", spec.name()),
        }
    }

    /// Builds the multivariate forecaster.
    pub fn build(&self) -> crate::Result<Box<dyn MultiForecaster>> {
        Ok(match self {
            MultiModelSpec::Var { order } => Box::new(Var::new(*order, 1e-4)?),
            MultiModelSpec::PerChannel(spec) => {
                let spec = spec.clone();
                let name = self.name();
                Box::new(ChannelIndependent { spec, name, fitted: Vec::new() })
            }
        })
    }
}

/// Runs an independent copy of a univariate zoo member on every channel —
/// the "channel-independent" baseline that ignores cross-correlation.
struct ChannelIndependent {
    spec: crate::ModelSpec,
    name: String,
    fitted: Vec<Box<dyn Forecaster>>,
}

impl MultiForecaster for ChannelIndependent {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &MultiSeries) -> Result<()> {
        let mut fitted = Vec::with_capacity(train.num_channels());
        for ch in 0..train.num_channels() {
            let series = train.to_univariate(ch)?;
            let mut model = self.spec.build()?;
            model.fit(&series)?;
            fitted.push(model);
        }
        self.fitted = fitted;
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<Vec<f64>>> {
        if self.fitted.is_empty() {
            return Err(ModelError::NotFitted);
        }
        self.fitted.iter().map(|m| m.forecast(horizon)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSpec;
    use easytime_data::Frequency;

    /// Two channels where channel 1 lags channel 0 by one step — pure
    /// cross-channel signal that VAR can exploit and per-channel models
    /// cannot.
    fn coupled_series(n: usize) -> MultiSeries {
        let driver: Vec<f64> = (0..n).map(|t| ((t as f64) * 0.9).sin()).collect();
        let follower: Vec<f64> =
            (0..n).map(|t| if t == 0 { 0.0 } else { driver[t - 1] }).collect();
        MultiSeries::new(
            "coupled",
            vec!["driver".into(), "follower".into()],
            vec![driver, follower],
            Frequency::Hourly,
        )
        .unwrap()
    }

    #[test]
    fn var_exploits_cross_channel_lag() {
        let ms = coupled_series(300);
        let mut var = Var::new(2, 1e-6).unwrap();
        var.fit(&ms).unwrap();
        let f = var.forecast(1).unwrap();
        // follower[n] should equal driver[n-1] exactly.
        let expected = ms.channel(0)[299];
        assert!(
            (f[1][0] - expected).abs() < 0.05,
            "VAR follower forecast {} vs driver last {}",
            f[1][0],
            expected
        );
    }

    #[test]
    fn var_forecast_shapes_are_consistent() {
        let ms = coupled_series(120);
        let mut var = Var::new(3, 1e-4).unwrap();
        var.fit(&ms).unwrap();
        let f = var.forecast(7).unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|ch| ch.len() == 7));
        assert!(f.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn var_validates_parameters_and_length() {
        assert!(Var::new(0, 0.1).is_err());
        assert!(Var::new(2, -0.1).is_err());
        let short = coupled_series(8);
        assert!(matches!(Var::new(3, 0.1).unwrap().fit(&short), Err(ModelError::TooShort { .. })));
        assert!(matches!(Var::new(2, 0.1).unwrap().forecast(3), Err(ModelError::NotFitted)));
    }

    #[test]
    fn channel_independent_wraps_univariate_models() {
        let ms = coupled_series(60);
        let spec = MultiModelSpec::PerChannel(ModelSpec::Naive);
        let mut ci = spec.build().unwrap();
        ci.fit(&ms).unwrap();
        let f = ci.forecast(3).unwrap();
        assert_eq!(f.len(), 2);
        // Naive repeats each channel's last value.
        assert!((f[0][0] - ms.channel(0)[59]).abs() < 1e-12);
        assert!((f[1][2] - ms.channel(1)[59]).abs() < 1e-12);
        assert_eq!(ci.name(), "ci_naive");

        let unfitted = spec.build().unwrap();
        assert!(matches!(unfitted.forecast(1), Err(ModelError::NotFitted)));
    }
}
