//! Multivariate evaluation path.
//!
//! TFB's corpus includes 25 multivariate datasets (paper §II-A); methods
//! that exploit cross-channel correlation (VAR) compete against
//! channel-independent application of univariate methods. This module runs
//! the same standardized pipeline as the univariate path — per-channel
//! scaling fitted on training data only, strategy-driven windows, raw-scale
//! metrics — and averages metric values across channels into one
//! [`EvalRecord`].

use crate::error::EvalError;
use crate::metrics::{Metric, MetricContext, MetricRegistry};
use crate::pipeline::{EvalConfig, EvalFailure, EvalRecord, ValidatedEvalConfig};
use easytime_data::{MultiSeries, Scaler};
use easytime_models::multivariate::MultiModelSpec;
use std::collections::BTreeMap;
use easytime_clock::Stopwatch;

/// Evaluates one multivariate method on one multivariate dataset.
///
/// Mirrors [`crate::pipeline::evaluate`]: model/data failures are captured
/// in the record; configuration errors are ruled out up front by the
/// [`ValidatedEvalConfig`] the caller must construct.
pub fn evaluate_multivariate(
    dataset_id: &str,
    series: &MultiSeries,
    spec: &MultiModelSpec,
    config: &ValidatedEvalConfig,
    registry: &MetricRegistry,
) -> Result<EvalRecord, EvalError> {
    let config = config.config();
    let mut record = EvalRecord {
        dataset_id: dataset_id.to_string(),
        method: spec.name(),
        family: "multivariate".to_string(),
        strategy: config.strategy.name().to_string(),
        horizon: config.strategy.horizon(),
        scores: BTreeMap::new(),
        windows: 0,
        runtime_ms: 0.0,
        error: None,
    };
    let mut sp = easytime_obs::span("eval.multivariate");
    sp.attr("dataset", dataset_id);
    sp.attr("method", record.method.as_str());
    match run(series, spec, config, registry) {
        Ok((scores, windows, runtime_ms)) => {
            record.scores = scores;
            record.windows = windows;
            record.runtime_ms = runtime_ms;
            sp.attr_u64("windows", windows as u64);
        }
        Err(e) => {
            // Failure diagnostics are structured events, not eprintln!
            // (`clippy::print_stderr`); the record still captures the message.
            easytime_obs::add("eval.model_failures", 1);
            if easytime_obs::enabled() {
                easytime_obs::warn(
                    "eval.multivariate",
                    &format!("{dataset_id}/{} failed: {e}", record.method),
                );
            }
            record.error = Some(EvalFailure::from_error(&e));
        }
    }
    Ok(record)
}

fn run(
    series: &MultiSeries,
    spec: &MultiModelSpec,
    config: &EvalConfig,
    registry: &MetricRegistry,
) -> Result<(BTreeMap<String, f64>, usize, f64), EvalError> {
    let n = series.len();
    let k = series.num_channels();
    // Split geometry from the primary channel (all channels are aligned).
    let primary = series.to_univariate(0)?;
    let split = config.split.split(&primary)?;
    let test_start = n - split.test.len();
    let windows = config.strategy.windows(n, test_start, config.split.drop_last)?;
    let period = series.frequency().default_period().unwrap_or(1);

    // Resolve metrics once instead of per channel per window.
    let resolved: Vec<&Metric> =
        config.metrics.iter().map(|m| registry.get(m)).collect::<Result<_, _>>()?;

    let started = Stopwatch::start();
    let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); resolved.len()];
    for w in &windows {
        let mut wsp = easytime_obs::span("eval.window");
        wsp.attr_u64("origin", w.origin as u64);
        wsp.attr_u64("len", w.len as u64);
        // Per-channel scaling fitted on each channel's training slice.
        let mut scalers = Vec::with_capacity(k);
        let mut scaled_channels = Vec::with_capacity(k);
        for ch in 0..k {
            let train_slice = &series.channel(ch)[..w.origin];
            let mut scaler = Scaler::new(config.scaler);
            scaled_channels.push(scaler.fit_transform(train_slice)?);
            scalers.push(scaler);
        }
        let train = MultiSeries::new(
            series.name(),
            series.channel_names().to_vec(),
            scaled_channels,
            series.frequency(),
        )?;

        let mut model = spec.build()?;
        model.fit(&train)?;
        let predicted_scaled = model.forecast(w.len)?;

        for ch in 0..k {
            let predicted = scalers[ch].inverse(&predicted_scaled[ch])?;
            let actual = &series.channel(ch)[w.origin..w.origin + w.len];
            let train_raw = &series.channel(ch)[..w.origin];
            let ctx = MetricContext::new(actual, &predicted, train_raw, period)?;
            for (slot, metric) in sums.iter_mut().zip(&resolved) {
                let v = metric.compute(&ctx);
                if v.is_finite() {
                    slot.0 += v;
                    slot.1 += 1;
                }
            }
        }
    }
    let runtime_ms = started.elapsed_ms();
    let scores = resolved
        .iter()
        .zip(&sums)
        .map(|(m, &(sum, cnt))| {
            (m.name().to_string(), if cnt > 0 { sum / cnt as f64 } else { f64::NAN })
        })
        .collect();
    Ok((scores, windows.len(), runtime_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use easytime_data::Frequency;
    use easytime_models::ModelSpec;

    fn validated(config: EvalConfig) -> ValidatedEvalConfig {
        config.into_validated(&MetricRegistry::standard()).unwrap()
    }

    /// Channel 1 follows channel 0 with a one-step lag — VAR territory.
    fn coupled(n: usize) -> MultiSeries {
        let driver: Vec<f64> = (0..n).map(|t| ((t as f64) * 0.37).sin() * 3.0 + 10.0).collect();
        let follower: Vec<f64> =
            (0..n).map(|t| if t == 0 { 10.0 } else { driver[t - 1] }).collect();
        MultiSeries::new(
            "coupled",
            vec!["driver".into(), "follower".into()],
            vec![driver, follower],
            Frequency::Hourly,
        )
        .unwrap()
    }

    #[test]
    fn var_beats_channel_independent_naive_on_coupled_channels() {
        let series = coupled(400);
        let registry = MetricRegistry::standard();
        let config = validated(EvalConfig {
            strategy: Strategy::Fixed { horizon: 8 },
            ..EvalConfig::default()
        });
        let var = evaluate_multivariate(
            "c",
            &series,
            &MultiModelSpec::Var { order: 2 },
            &config,
            &registry,
        )
        .unwrap();
        let ci = evaluate_multivariate(
            "c",
            &series,
            &MultiModelSpec::PerChannel(ModelSpec::Naive),
            &config,
            &registry,
        )
        .unwrap();
        assert!(var.is_ok(), "{:?}", var.error);
        assert!(ci.is_ok(), "{:?}", ci.error);
        assert!(
            var.score("mae") < ci.score("mae"),
            "VAR {} should beat channel-independent naive {}",
            var.score("mae"),
            ci.score("mae")
        );
        assert_eq!(var.method, "var_2");
        assert_eq!(ci.method, "ci_naive");
        assert_eq!(var.family, "multivariate");
    }

    #[test]
    fn rolling_strategy_works_on_multivariate() {
        let series = coupled(300);
        let registry = MetricRegistry::standard();
        let config = validated(EvalConfig {
            strategy: Strategy::Rolling { horizon: 10, stride: 10, max_windows: Some(3) },
            ..EvalConfig::default()
        });
        let rec = evaluate_multivariate(
            "c",
            &series,
            &MultiModelSpec::PerChannel(ModelSpec::SeasonalNaive(Some(17))),
            &config,
            &registry,
        )
        .unwrap();
        assert!(rec.is_ok());
        assert_eq!(rec.windows, 3);
        assert!(rec.score("smape").is_finite());
    }

    #[test]
    fn failures_are_captured_in_the_record() {
        let series = coupled(40);
        let registry = MetricRegistry::standard();
        let config = validated(EvalConfig {
            strategy: Strategy::Fixed { horizon: 4 },
            ..EvalConfig::default()
        });
        // VAR(12) over 2 channels needs a 40-point training window; only
        // 32 points are available before the forecast origin.
        let rec = evaluate_multivariate(
            "c",
            &series,
            &MultiModelSpec::Var { order: 12 },
            &config,
            &registry,
        )
        .unwrap();
        assert!(!rec.is_ok());
        let failure = rec.error.as_ref().unwrap();
        assert!(failure.detail.contains("too short"), "{failure}");
        assert_eq!(failure.kind, crate::pipeline::FailureKind::DataTooShort);
    }

    #[test]
    fn unknown_metric_is_rejected_at_validation() {
        let config = EvalConfig { metrics: vec!["nope".into()], ..EvalConfig::default() };
        assert!(matches!(
            config.into_validated(&MetricRegistry::standard()),
            Err(EvalError::UnknownMetric { .. })
        ));
    }
}
