//! Exponential-smoothing family: SES, Holt, and Holt–Winters.
//!
//! Parameters are either fixed at construction or optimized by minimizing
//! the sum of squared one-step-ahead errors (grid initialization +
//! Nelder–Mead refinement), the standard ETS fitting approach.

use crate::optimize::{grid_search, nelder_mead};
use crate::{check_horizon, check_train, Forecaster, ModelError, Result};
use easytime_data::TimeSeries;
use easytime_linalg::stats::mean;

fn clamp01(x: f64) -> f64 {
    x.clamp(1e-4, 1.0 - 1e-4)
}

/// Simple exponential smoothing (constant level).
#[derive(Debug, Clone)]
pub struct Ses {
    alpha: Option<f64>,
    fitted: Option<SesState>,
}

#[derive(Debug, Clone, Copy)]
struct SesState {
    level: f64,
}

impl Ses {
    /// Creates SES; `alpha` in `(0, 1)` or `None` to optimize it.
    pub fn new(alpha: Option<f64>) -> Result<Ses> {
        if let Some(a) = alpha {
            if !(0.0 < a && a < 1.0) {
                return Err(ModelError::InvalidParam { what: format!("alpha {a} not in (0,1)") });
            }
        }
        Ok(Ses { alpha, fitted: None })
    }

    fn sse(values: &[f64], alpha: f64) -> f64 {
        let mut level = values[0];
        let mut sse = 0.0;
        for &y in &values[1..] {
            let err = y - level;
            sse += err * err;
            level += alpha * err;
        }
        sse
    }
}

impl Forecaster for Ses {
    fn name(&self) -> &str {
        "ses"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let alpha = match self.alpha {
            Some(a) => a,
            None => {
                let axes = vec![(1..20).map(|i| i as f64 / 20.0).collect::<Vec<_>>()];
                let start = grid_search(&axes, |p| Self::sse(v, clamp01(p[0])))
                    .map(|(p, _)| p[0])
                    .unwrap_or(0.3);
                let (p, _) = nelder_mead(&[start], 0.05, 100, |p| Self::sse(v, clamp01(p[0])));
                clamp01(p[0])
            }
        };
        let mut level = v[0];
        for &y in &v[1..] {
            level += alpha * (y - level);
        }
        self.fitted = Some(SesState { level });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.ok_or(ModelError::NotFitted)?;
        Ok(vec![st.level; horizon])
    }

    fn min_train_len(&self) -> usize {
        3
    }
}

/// Holt's linear method (level + trend), optionally damped.
#[derive(Debug, Clone)]
pub struct Holt {
    damped: bool,
    fitted: Option<HoltState>,
}

#[derive(Debug, Clone, Copy)]
struct HoltState {
    level: f64,
    trend: f64,
    phi: f64,
}

impl Holt {
    /// Creates Holt's method; `damped` enables trend damping.
    pub fn new(damped: bool) -> Holt {
        Holt { damped, fitted: None }
    }

    fn sse(values: &[f64], alpha: f64, beta: f64, phi: f64) -> f64 {
        let mut level = values[0];
        let mut trend = values[1] - values[0];
        let mut sse = 0.0;
        for &y in &values[1..] {
            let pred = level + phi * trend;
            let err = y - pred;
            sse += err * err;
            let new_level = pred + alpha * err;
            trend = phi * trend + alpha * beta * err;
            level = new_level;
        }
        sse
    }
}

impl Forecaster for Holt {
    fn name(&self) -> &str {
        if self.damped {
            "damped_holt"
        } else {
            "holt"
        }
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let phi_fixed = if self.damped { None } else { Some(1.0) };

        let grid: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();
        let axes = if self.damped {
            vec![grid.clone(), grid.clone(), vec![0.8, 0.9, 0.98]]
        } else {
            vec![grid.clone(), grid]
        };
        let eval = |p: &[f64]| {
            let phi = phi_fixed.unwrap_or_else(|| clamp01(p[2]));
            Self::sse(v, clamp01(p[0]), clamp01(p[1]), phi)
        };
        let start = grid_search(&axes, eval).map(|(p, _)| p).unwrap_or_else(|| {
            if self.damped {
                vec![0.3, 0.1, 0.9]
            } else {
                vec![0.3, 0.1]
            }
        });
        let (p, _) = nelder_mead(&start, 0.05, 200, eval);
        let alpha = clamp01(p[0]);
        let beta = clamp01(p[1]);
        let phi = phi_fixed.unwrap_or_else(|| clamp01(p[2]));

        let mut level = v[0];
        let mut trend = v[1] - v[0];
        for &y in &v[1..] {
            let pred = level + phi * trend;
            let err = y - pred;
            let new_level = pred + alpha * err;
            trend = phi * trend + alpha * beta * err;
            level = new_level;
        }
        self.fitted = Some(HoltState { level, trend, phi });
        Ok(())
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        reason = "forecast horizons are tiny (hundreds at most), far below i32::MAX"
    )]
    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.ok_or(ModelError::NotFitted)?;
        let mut out = Vec::with_capacity(horizon);
        let mut damp_sum = 0.0;
        for h in 1..=horizon {
            damp_sum += st.phi.powi(h as i32);
            out.push(st.level + damp_sum * st.trend);
        }
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        5
    }
}

/// Additive Holt–Winters (level + trend + seasonal).
#[derive(Debug, Clone)]
pub struct HoltWinters {
    period: Option<usize>,
    fitted: Option<HwState>,
}

#[derive(Debug, Clone)]
struct HwState {
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
}

impl HoltWinters {
    /// Creates additive Holt–Winters with an optional explicit period.
    pub fn new(period: Option<usize>) -> HoltWinters {
        HoltWinters { period, fitted: None }
    }

    fn effective_period(&self, train: &TimeSeries) -> Result<usize> {
        let p = self
            .period
            .or_else(|| train.frequency().default_period())
            .ok_or_else(|| ModelError::InvalidParam {
                what: "holt_winters needs a seasonal period (explicit or via frequency)".into(),
            })?;
        if p < 2 {
            return Err(ModelError::InvalidParam { what: format!("period {p} must be ≥ 2") });
        }
        Ok(p)
    }

    /// Runs the smoothing recursion; returns SSE and final state.
    fn run(values: &[f64], period: usize, alpha: f64, beta: f64, gamma: f64) -> (f64, HwState) {
        // Initialization: first-cycle mean level, averaged first differences
        // across the first two cycles for trend, first-cycle deviations for
        // seasonals.
        let level0 = mean(&values[..period]);
        let trend0 = if values.len() >= 2 * period {
            (mean(&values[period..2 * period]) - level0) / period as f64
        } else {
            0.0
        };
        let mut seasonal: Vec<f64> = values[..period].iter().map(|v| v - level0).collect();
        let mut level = level0;
        let mut trend = trend0;
        let mut sse = 0.0;

        for (t, &y) in values.iter().enumerate().skip(period) {
            let s = seasonal[t % period];
            let pred = level + trend + s;
            let err = y - pred;
            sse += err * err;
            let new_level = alpha * (y - s) + (1.0 - alpha) * (level + trend);
            let new_trend = beta * (new_level - level) + (1.0 - beta) * trend;
            seasonal[t % period] = gamma * (y - new_level) + (1.0 - gamma) * s;
            level = new_level;
            trend = new_trend;
        }
        (sse, HwState { level, trend, seasonal })
    }
}

impl Forecaster for HoltWinters {
    fn name(&self) -> &str {
        "holt_winters"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        let period = self.effective_period(train)?;
        check_train(train, 2 * period + 1)?;
        let v = train.values();

        let grid: Vec<f64> = vec![0.05, 0.1, 0.3, 0.5, 0.7];
        let axes = vec![grid.clone(), grid.clone(), grid];
        let eval = |p: &[f64]| {
            Self::run(v, period, clamp01(p[0]), clamp01(p[1]), clamp01(p[2])).0
        };
        let start = grid_search(&axes, eval).map(|(p, _)| p).unwrap_or(vec![0.3, 0.1, 0.1]);
        let (p, _) = nelder_mead(&start, 0.05, 200, eval);
        let (_, state) = Self::run(v, period, clamp01(p[0]), clamp01(p[1]), clamp01(p[2]));
        // The seasonal state is phase-aligned to the *next* time step.
        let mut rotated = vec![0.0; period];
        let n = v.len();
        for (h, r) in rotated.iter_mut().enumerate() {
            *r = state.seasonal[(n + h) % period];
        }
        self.fitted = Some(HwState { level: state.level, trend: state.trend, seasonal: rotated });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let p = st.seasonal.len();
        Ok((0..horizon)
            .map(|h| st.level + (h + 1) as f64 * st.trend + st.seasonal[h % p])
            .collect())
    }

    fn min_train_len(&self) -> usize {
        // Conservative default (period is only known at fit time).
        9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::Frequency;
    use std::f64::consts::PI;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new("t", values, Frequency::Monthly).unwrap()
    }

    #[test]
    fn ses_on_constant_series_predicts_constant() {
        let mut m = Ses::new(Some(0.5)).unwrap();
        m.fit(&ts(vec![5.0; 30])).unwrap();
        let f = m.forecast(4).unwrap();
        for v in f {
            assert!((v - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ses_rejects_bad_alpha() {
        assert!(Ses::new(Some(0.0)).is_err());
        assert!(Ses::new(Some(1.0)).is_err());
        assert!(Ses::new(Some(-0.2)).is_err());
    }

    #[test]
    fn ses_optimizes_alpha_for_noisy_level() {
        // Level series with a late shift: optimized SES should track toward
        // the post-shift level.
        let mut values = vec![10.0; 40];
        values.extend(vec![20.0; 40]);
        let mut m = Ses::new(None).unwrap();
        m.fit(&ts(values)).unwrap();
        let f = m.forecast(1).unwrap()[0];
        assert!(f > 17.0, "forecast {f} should be near the recent level");
    }

    #[test]
    fn holt_tracks_linear_trend() {
        let values: Vec<f64> = (0..60).map(|t| 2.0 + 0.5 * t as f64).collect();
        let mut m = Holt::new(false);
        m.fit(&ts(values)).unwrap();
        let f = m.forecast(5).unwrap();
        for (h, v) in f.iter().enumerate() {
            let expected = 2.0 + 0.5 * (60 + h) as f64;
            assert!((v - expected).abs() < 0.2, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn damped_holt_flattens_far_horizon() {
        let values: Vec<f64> = (0..60).map(|t| 2.0 + 0.5 * t as f64).collect();
        let mut damped = Holt::new(true);
        damped.fit(&ts(values.clone())).unwrap();
        let mut plain = Holt::new(false);
        plain.fit(&ts(values)).unwrap();
        let fd = damped.forecast(100).unwrap();
        let fp = plain.forecast(100).unwrap();
        // Damping must not *increase* the far-horizon extrapolation.
        assert!(fd[99] <= fp[99] + 1e-6, "damped {} vs plain {}", fd[99], fp[99]);
        assert_eq!(damped.name(), "damped_holt");
        assert_eq!(plain.name(), "holt");
    }

    #[test]
    fn holt_winters_fits_seasonal_with_trend() {
        let values: Vec<f64> = (0..96)
            .map(|t| 10.0 + 0.2 * t as f64 + 6.0 * (2.0 * PI * t as f64 / 12.0).sin())
            .collect();
        let mut m = HoltWinters::new(Some(12));
        m.fit(&ts(values)).unwrap();
        let f = m.forecast(12).unwrap();
        for (h, v) in f.iter().enumerate() {
            let t = 96 + h;
            let expected = 10.0 + 0.2 * t as f64 + 6.0 * (2.0 * PI * t as f64 / 12.0).sin();
            assert!((v - expected).abs() < 1.5, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn holt_winters_needs_two_cycles() {
        let mut m = HoltWinters::new(Some(12));
        assert!(matches!(
            m.fit(&ts((0..20).map(|t| t as f64).collect())),
            Err(ModelError::TooShort { .. })
        ));
    }

    #[test]
    fn holt_winters_requires_some_period() {
        let values: Vec<f64> = (0..50).map(|t| t as f64).collect();
        let series = TimeSeries::new("u", values, Frequency::Unknown).unwrap();
        let mut m = HoltWinters::new(None);
        assert!(matches!(m.fit(&series), Err(ModelError::InvalidParam { .. })));
        assert!(matches!(HoltWinters::new(Some(1)).fit(&series), Err(ModelError::InvalidParam { .. })));
    }

    #[test]
    fn unfitted_forecasts_error() {
        assert!(matches!(Ses::new(None).unwrap().forecast(1), Err(ModelError::NotFitted)));
        assert!(matches!(Holt::new(false).forecast(1), Err(ModelError::NotFitted)));
        assert!(matches!(HoltWinters::new(Some(4)).forecast(1), Err(ModelError::NotFitted)));
    }
}
