//! Gradient-boosted decision stumps on lag features.
//!
//! Represents the tree-ensemble tier of the zoo (the role XGBoost-style
//! models play in TFB). Each boosting round fits one depth-1 regression
//! tree (a "stump": one lag feature, one threshold, two leaf values) to the
//! current residuals, shrunk by a learning rate. Nonlinear and robust to
//! outliers, which gives it an edge on regime-switching series where linear
//! models average across regimes.

use crate::{check_horizon, check_train, Forecaster, ModelError, Result};
use easytime_data::TimeSeries;
use easytime_linalg::stats::mean;

/// A single decision stump over lag features.
#[derive(Debug, Clone, PartialEq)]
struct Stump {
    /// Which lag (1-based distance into the past) the stump splits on.
    lag: usize,
    /// Split threshold.
    threshold: f64,
    /// Prediction when `value[t - lag] <= threshold`.
    left: f64,
    /// Prediction otherwise.
    right: f64,
}

impl Stump {
    fn predict(&self, hist: &[f64]) -> f64 {
        let v = hist[hist.len() - self.lag];
        if v <= self.threshold {
            self.left
        } else {
            self.right
        }
    }
}

/// Gradient-boosted stump forecaster.
#[derive(Debug, Clone)]
pub struct GradientBoost {
    lookback: usize,
    rounds: usize,
    learning_rate: f64,
    name: String,
    fitted: Option<BoostState>,
}

#[derive(Debug, Clone)]
struct BoostState {
    base: f64,
    stumps: Vec<Stump>,
    tail: Vec<f64>,
    lookback: usize,
}

impl GradientBoost {
    /// Creates a boosted-stump forecaster with `lookback` lag features,
    /// `rounds` boosting rounds, and the given shrinkage.
    pub fn new(lookback: usize, rounds: usize, learning_rate: f64) -> Result<GradientBoost> {
        if lookback == 0 || rounds == 0 {
            return Err(ModelError::InvalidParam {
                what: "boost needs lookback ≥ 1 and rounds ≥ 1".into(),
            });
        }
        if !(0.0 < learning_rate && learning_rate <= 1.0) {
            return Err(ModelError::InvalidParam {
                what: format!("learning_rate {learning_rate} not in (0, 1]"),
            });
        }
        Ok(GradientBoost {
            lookback,
            rounds,
            learning_rate,
            name: format!("gboost_{lookback}"),
            fitted: None,
        })
    }

    /// Fits the best stump for `residuals` over all lags and a quantile grid
    /// of thresholds.
    fn best_stump(values: &[f64], residuals: &[f64], lookback: usize) -> Option<Stump> {
        let n = residuals.len();
        let mut best: Option<(Stump, f64)> = None;
        for lag in 1..=lookback {
            // Candidate thresholds: deciles of the lag feature.
            let feats: Vec<f64> = (0..n).map(|i| values[lookback + i - lag]).collect();
            let mut sorted = feats.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            for q in 1..10 {
                let threshold = sorted[(q * (n - 1)) / 10];
                let mut left_sum = 0.0;
                let mut left_n = 0usize;
                let mut right_sum = 0.0;
                let mut right_n = 0usize;
                for (f, &r) in feats.iter().zip(residuals) {
                    if *f <= threshold {
                        left_sum += r;
                        left_n += 1;
                    } else {
                        right_sum += r;
                        right_n += 1;
                    }
                }
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let left = left_sum / left_n as f64;
                let right = right_sum / right_n as f64;
                // SSE reduction of this split.
                let mut sse = 0.0;
                for (f, &r) in feats.iter().zip(residuals) {
                    let pred = if *f <= threshold { left } else { right };
                    sse += (r - pred) * (r - pred);
                }
                if best.as_ref().is_none_or(|(_, b)| sse < *b) {
                    best = Some((Stump { lag, threshold, left, right }, sse));
                }
            }
        }
        best.map(|(s, _)| s)
    }
}

impl Forecaster for GradientBoost {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.lookback.min(v.len() / 3).max(1);
        let n = v.len() - lookback;

        let targets: Vec<f64> = v[lookback..].to_vec();
        let base = mean(&targets);
        let mut residuals: Vec<f64> = targets.iter().map(|y| y - base).collect();
        let mut stumps = Vec::with_capacity(self.rounds);

        for _ in 0..self.rounds {
            let Some(stump) = Self::best_stump(v, &residuals, lookback) else {
                break;
            };
            // Update residuals with shrunk stump predictions.
            for i in 0..n {
                let feat = v[lookback + i - stump.lag];
                let pred = if feat <= stump.threshold { stump.left } else { stump.right };
                residuals[i] -= self.learning_rate * pred;
            }
            stumps.push(Stump {
                left: stump.left * self.learning_rate,
                right: stump.right * self.learning_rate,
                ..stump
            });
        }

        self.fitted = Some(BoostState {
            base,
            stumps,
            tail: v[v.len() - lookback..].to_vec(),
            lookback,
        });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let mut hist = st.tail.clone();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut v = st.base;
            for stump in &st.stumps {
                v += stump.predict(&hist);
            }
            out.push(v);
            hist.push(v);
            if hist.len() > st.lookback {
                hist.remove(0);
            }
        }
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::Frequency;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new("t", values, Frequency::Unknown).unwrap()
    }

    #[test]
    fn learns_regime_dependent_level() {
        // Next value is 10 when the previous value was ≥ 5, else 1 — a
        // threshold rule stumps can represent exactly.
        let mut values = Vec::with_capacity(200);
        let mut prev = 1.0;
        for t in 0..200 {
            let next = if prev >= 5.0 { 1.0 } else { 10.0 };
            // Small deterministic jitter.
            let v: f64 = next + 0.05 * ((t as f64) * 0.7).sin();
            values.push(v);
            prev = v;
        }
        let mut m = GradientBoost::new(4, 80, 0.3).unwrap();
        m.fit(&ts(values.clone())).unwrap();
        let f = m.forecast(2).unwrap();
        // Last train value ≈ alternates; the first forecast must land near
        // one of the regimes, not the global mean (≈ 5.5).
        assert!(
            (f[0] - 1.0).abs() < 2.0 || (f[0] - 10.0).abs() < 2.0,
            "forecast {} stuck at global mean",
            f[0]
        );
    }

    #[test]
    fn reduces_training_residuals_monotonically_in_rounds() {
        let values: Vec<f64> = (0..150).map(|t| ((t % 7) as f64) * 2.0 + 1.0).collect();
        let mut small = GradientBoost::new(7, 5, 0.3).unwrap();
        small.fit(&ts(values.clone())).unwrap();
        let mut large = GradientBoost::new(7, 100, 0.3).unwrap();
        large.fit(&ts(values.clone())).unwrap();
        // In-sample one-step error should not get worse with more rounds.
        let one_step_err = |m: &GradientBoost| {
            let st = m.fitted.as_ref().unwrap();
            let lb = st.lookback;
            let mut err = 0.0;
            for t in lb..values.len() {
                let hist = &values[t - lb..t];
                let mut pred = st.base;
                for s in &st.stumps {
                    pred += s.predict(hist);
                }
                err += (values[t] - pred).abs();
            }
            err
        };
        assert!(one_step_err(&large) <= one_step_err(&small) + 1e-9);
    }

    #[test]
    fn constructors_validate() {
        assert!(GradientBoost::new(0, 10, 0.1).is_err());
        assert!(GradientBoost::new(4, 0, 0.1).is_err());
        assert!(GradientBoost::new(4, 10, 0.0).is_err());
        assert!(GradientBoost::new(4, 10, 1.5).is_err());
    }

    #[test]
    fn unfitted_and_short_inputs_error() {
        let mut m = GradientBoost::new(4, 10, 0.1).unwrap();
        assert!(matches!(m.forecast(1), Err(ModelError::NotFitted)));
        assert!(matches!(m.fit(&ts(vec![1.0; 8])), Err(ModelError::TooShort { .. })));
    }

    #[test]
    fn constant_series_predicts_constant() {
        let mut m = GradientBoost::new(4, 20, 0.2).unwrap();
        m.fit(&ts(vec![3.0; 50])).unwrap();
        for v in m.forecast(5).unwrap() {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }
}
