//! The AutoEnsemble forecaster — the online phase of Figure 2.
//!
//! Given a pretrained [`Recommender`] and a new series `X`:
//!
//! 1. the recommender's top-k methods become the candidate members,
//! 2. each member trains on the *training part* of `X` and forecasts the
//!    *validation part*,
//! 3. ensemble weights are learned on the validation forecasts
//!    (simplex-constrained; see [`crate::weights`]),
//! 4. members are refit on the full series and the weighted ensemble
//!    forecasts the future.
//!
//! Members that fail to train are dropped with their reason recorded; the
//! ensemble degrades gracefully down to a single member.

use crate::error::AutoMlError;
use crate::recommender::Recommender;
use crate::weights::{combine, learn_simplex_weights, uniform_weights};
use easytime_data::TimeSeries;
use easytime_models::{Forecaster, ModelSpec};

/// Weighting mode for the fitted ensemble (ablation A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightMode {
    /// Weights learned on the validation part (the paper's design).
    #[default]
    Learned,
    /// Uniform weights over the top-k members.
    Uniform,
}

/// A fitted automated ensemble.
pub struct AutoEnsemble {
    members: Vec<Box<dyn Forecaster>>,
    member_names: Vec<String>,
    weights: Vec<f64>,
    dropped: Vec<(String, String)>,
}

impl std::fmt::Debug for AutoEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoEnsemble")
            .field("members", &self.member_names)
            .field("weights", &self.weights)
            .field("dropped", &self.dropped)
            .finish()
    }
}

/// Iterations of exponentiated-gradient weight learning.
pub(crate) const WEIGHT_ITERATIONS: usize = 1500;

impl AutoEnsemble {
    /// Fits an ensemble for `series` using the recommender's top-`k`
    /// methods. `val_ratio` is the fraction of the series reserved for
    /// weight learning, in (0, 0.5) (e.g. 0.2).
    pub fn fit(
        recommender: &Recommender,
        series: &TimeSeries,
        k: usize,
        val_ratio: f64,
        mode: WeightMode,
    ) -> Result<AutoEnsemble, AutoMlError> {
        let candidates = {
            let mut sp = easytime_obs::span("automl.recommend");
            sp.attr_u64("k", k as u64);
            recommender.top_k(series, k)
        };
        Self::fit_with_members(&candidates, series, val_ratio, mode)
    }

    /// Fits an ensemble from an explicit member list (used by experiments
    /// and by the random-selection baseline). `val_ratio` must lie in
    /// (0, 0.5), as for [`AutoEnsemble::fit`].
    pub fn fit_with_members(
        method_names: &[String],
        series: &TimeSeries,
        val_ratio: f64,
        mode: WeightMode,
    ) -> Result<AutoEnsemble, AutoMlError> {
        if !(0.0 < val_ratio && val_ratio < 0.5) {
            return Err(AutoMlError::InvalidInput {
                reason: format!("val_ratio {val_ratio} must be in (0, 0.5)"),
            });
        }
        if method_names.is_empty() {
            return Err(AutoMlError::InvalidInput { reason: "no candidate methods".into() });
        }
        let mut sp = easytime_obs::span("automl.ensemble_fit");
        sp.attr_u64("candidates", method_names.len() as u64);
        let n = series.len();
        let val_len = ((n as f64) * val_ratio).round() as usize;
        if val_len == 0 || val_len >= n {
            return Err(AutoMlError::InvalidInput {
                reason: format!("series of length {n} leaves no usable validation window"),
            });
        }
        let train_part = series.slice(0, n - val_len)?;
        let val_actual = &series.values()[n - val_len..];

        // Train members on the training part and forecast validation.
        let mut val_preds: Vec<Vec<f64>> = Vec::new();
        let mut kept: Vec<String> = Vec::new();
        let mut dropped: Vec<(String, String)> = Vec::new();
        for name in method_names {
            let mut msp = easytime_obs::span("automl.member_train");
            msp.attr("method", name.as_str());
            let result = (|| -> Result<Vec<f64>, AutoMlError> {
                let spec = ModelSpec::parse(name)?;
                let mut model = spec.build()?;
                model.fit(&train_part)?;
                let pred = model.forecast(val_len)?;
                if pred.iter().any(|v| !v.is_finite()) {
                    return Err(AutoMlError::Model(format!(
                        "{name} produced non-finite validation forecasts"
                    )));
                }
                Ok(pred)
            })();
            match result {
                Ok(pred) => {
                    val_preds.push(pred);
                    kept.push(name.clone());
                }
                Err(e) => {
                    easytime_obs::add("automl.members_dropped", 1);
                    if easytime_obs::enabled() {
                        easytime_obs::warn(
                            "automl.ensemble",
                            &format!("member {name} dropped: {e}"),
                        );
                    }
                    dropped.push((name.clone(), e.to_string()));
                }
            }
        }
        if kept.is_empty() {
            let details = dropped
                .iter()
                .map(|(m, e)| format!("{m}: {e}"))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(AutoMlError::NoUsableMethod { details });
        }

        let weights = {
            let mut wsp = easytime_obs::span("automl.weight_fit");
            wsp.attr_u64("members", kept.len() as u64);
            wsp.attr_u64("val_len", val_len as u64);
            match mode {
                WeightMode::Learned => {
                    learn_simplex_weights(&val_preds, val_actual, WEIGHT_ITERATIONS)?
                }
                WeightMode::Uniform => uniform_weights(kept.len()),
            }
        };

        // Refit the surviving members on the full series.
        let mut rsp = easytime_obs::span("automl.refit");
        rsp.attr_u64("members", kept.len() as u64);
        let mut members: Vec<Box<dyn Forecaster>> = Vec::with_capacity(kept.len());
        let mut final_names = Vec::with_capacity(kept.len());
        let mut final_weights = Vec::with_capacity(kept.len());
        for (name, w) in kept.iter().zip(&weights) {
            let spec = ModelSpec::parse(name)?;
            let mut model = spec.build()?;
            match model.fit(series) {
                Ok(()) => {
                    members.push(model);
                    final_names.push(name.clone());
                    final_weights.push(*w);
                }
                Err(e) => {
                    easytime_obs::add("automl.members_dropped", 1);
                    dropped.push((name.clone(), format!("refit failed: {e}")));
                }
            }
        }
        drop(rsp);
        if members.is_empty() {
            return Err(AutoMlError::NoUsableMethod {
                details: "every member failed the full-series refit".into(),
            });
        }
        // Renormalize weights after any refit drops.
        let total: f64 = final_weights.iter().sum();
        if total > 0.0 {
            for w in &mut final_weights {
                *w /= total;
            }
        } else {
            final_weights = uniform_weights(members.len());
        }

        Ok(AutoEnsemble {
            members,
            member_names: final_names,
            weights: final_weights,
            dropped,
        })
    }

    /// Weighted ensemble forecast.
    pub fn forecast(&self, horizon: usize) -> Result<Vec<f64>, AutoMlError> {
        let mut sp = easytime_obs::span("automl.forecast");
        sp.attr_u64("horizon", horizon as u64);
        sp.attr_u64("members", self.members.len() as u64);
        let mut preds = Vec::with_capacity(self.members.len());
        for m in &self.members {
            preds.push(m.forecast(horizon)?);
        }
        Ok(combine(&preds, &self.weights))
    }

    /// Member names with their weights, in weight order.
    pub fn members(&self) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = self
            .member_names
            .iter()
            .map(String::as_str)
            .zip(self.weights.iter().copied())
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Candidates that failed to train, with reasons.
    pub fn dropped(&self) -> &[(String, String)] {
        &self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::Frequency;
    use std::f64::consts::PI;

    fn seasonal_trend(n: usize) -> TimeSeries {
        let values: Vec<f64> = (0..n)
            .map(|t| 10.0 + 0.1 * t as f64 + 4.0 * (2.0 * PI * t as f64 / 12.0).sin())
            .collect();
        TimeSeries::new("st", values, Frequency::Monthly).unwrap()
    }

    fn mae(pred: &[f64], actual: &[f64]) -> f64 {
        pred.iter().zip(actual).map(|(p, a)| (p - a).abs()).sum::<f64>() / actual.len() as f64
    }

    #[test]
    fn ensemble_of_good_and_bad_leans_on_the_good() {
        let series = seasonal_trend(240);
        let members = vec!["holt_winters".to_string(), "mean".to_string()];
        let ens =
            AutoEnsemble::fit_with_members(&members, &series, 0.2, WeightMode::Learned).unwrap();
        let ranked = ens.members();
        assert_eq!(ranked[0].0, "holt_winters", "weights: {ranked:?}");
        assert!(ranked[0].1 > 0.7, "dominant weight {}", ranked[0].1);
    }

    #[test]
    fn learned_ensemble_beats_worst_member_and_tracks_truth() {
        let full = seasonal_trend(260);
        let train = full.slice(0, 240).unwrap();
        let actual = &full.values()[240..252];

        let members = vec!["holt_winters".to_string(), "drift".to_string(), "mean".to_string()];
        let ens =
            AutoEnsemble::fit_with_members(&members, &train, 0.2, WeightMode::Learned).unwrap();
        let pred = ens.forecast(12).unwrap();
        let ens_mae = mae(&pred, actual);

        // Worst single member (mean) for reference.
        let mut mean_model = ModelSpec::Mean.build().unwrap();
        mean_model.fit(&train).unwrap();
        let mean_mae = mae(&mean_model.forecast(12).unwrap(), actual);

        assert!(
            ens_mae < mean_mae,
            "ensemble mae {ens_mae} should beat the worst member {mean_mae}"
        );
    }

    #[test]
    fn failing_members_are_dropped_not_fatal() {
        let series = seasonal_trend(60);
        // arima_auto needs far more data; holt_winters works at 60 points.
        let members = vec!["arima_211".to_string(), "holt_winters".to_string()];
        let ens =
            AutoEnsemble::fit_with_members(&members, &series, 0.2, WeightMode::Learned).unwrap();
        assert_eq!(ens.members().len(), 2 - ens.dropped().len());
        assert!(ens.forecast(6).unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unknown_methods_are_reported() {
        let series = seasonal_trend(120);
        let members = vec!["patchtst".to_string()];
        let err =
            AutoEnsemble::fit_with_members(&members, &series, 0.2, WeightMode::Learned).unwrap_err();
        assert!(matches!(err, AutoMlError::NoUsableMethod { .. }), "{err}");
    }

    #[test]
    fn uniform_mode_gives_equal_weights() {
        let series = seasonal_trend(200);
        let members =
            vec!["naive".to_string(), "drift".to_string(), "mean".to_string()];
        let ens =
            AutoEnsemble::fit_with_members(&members, &series, 0.2, WeightMode::Uniform).unwrap();
        for (_, w) in ens.members() {
            assert!((w - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn validates_parameters() {
        let series = seasonal_trend(100);
        assert!(AutoEnsemble::fit_with_members(&[], &series, 0.2, WeightMode::Learned).is_err());
        let members = vec!["naive".to_string()];
        for val_ratio in [0.0, 0.5, 0.9, -0.1, f64::NAN] {
            let fit =
                AutoEnsemble::fit_with_members(&members, &series, val_ratio, WeightMode::Learned);
            assert!(fit.is_err(), "val_ratio {val_ratio} must be rejected");
        }
        assert!(AutoEnsemble::fit_with_members(&members, &series, 0.2, WeightMode::Learned).is_ok());
        let tiny = TimeSeries::new("t", vec![1.0, 2.0], Frequency::Daily).unwrap();
        assert!(AutoEnsemble::fit_with_members(&members, &tiny, 0.2, WeightMode::Learned).is_err());
    }
}
