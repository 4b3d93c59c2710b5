//! Forecast accuracy metrics.
//!
//! The paper (Challenge 1) calls for "multiple evaluation metrics to get a
//! nuanced understanding of method performance" and §II-A promises
//! "well-recognized evaluation metrics and … customized metrics". The
//! [`MetricRegistry`] ships the standard set and accepts user closures for
//! custom metrics. All metrics are *lower-is-better* except R², which is
//! negated on request via [`Metric::lower_is_better`].

#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

use crate::error::EvalError;
use easytime_linalg::stats::mean;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a metric may need: forecasts, ground truth, and training
/// context (for scaled errors like MASE).
#[derive(Debug, Clone, Copy)]
pub struct MetricContext<'a> {
    /// Ground-truth test values.
    pub actual: &'a [f64],
    /// Point forecasts aligned with `actual`.
    pub predicted: &'a [f64],
    /// Training values (for scale denominators).
    pub train: &'a [f64],
    /// Seasonal period used by MASE's seasonal-naive denominator
    /// (1 = plain naive).
    pub period: usize,
}

impl<'a> MetricContext<'a> {
    /// Builds a context after validating alignment.
    pub fn new(
        actual: &'a [f64],
        predicted: &'a [f64],
        train: &'a [f64],
        period: usize,
    ) -> Result<Self, EvalError> {
        if actual.len() != predicted.len() {
            return Err(EvalError::LengthMismatch {
                actual: actual.len(),
                predicted: predicted.len(),
            });
        }
        if actual.is_empty() {
            return Err(EvalError::InvalidConfig { reason: "empty evaluation window".into() });
        }
        Ok(MetricContext { actual, predicted, train, period: period.max(1) })
    }

    fn errors(&self) -> impl Iterator<Item = f64> + '_ {
        self.actual.iter().zip(self.predicted).map(|(a, p)| a - p)
    }
}

/// A named forecast-accuracy metric.
#[derive(Clone)]
pub struct Metric {
    name: String,
    lower_is_better: bool,
    f: Arc<dyn Fn(&MetricContext<'_>) -> f64 + Send + Sync>,
}

impl std::fmt::Debug for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metric")
            .field("name", &self.name)
            .field("lower_is_better", &self.lower_is_better)
            .finish()
    }
}

impl Metric {
    /// Creates a custom metric from a closure.
    pub fn custom(
        name: impl Into<String>,
        lower_is_better: bool,
        f: impl Fn(&MetricContext<'_>) -> f64 + Send + Sync + 'static,
    ) -> Metric {
        Metric { name: name.into(), lower_is_better, f: Arc::new(f) }
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether smaller values indicate better forecasts.
    pub fn lower_is_better(&self) -> bool {
        self.lower_is_better
    }

    /// Evaluates the metric on a context.
    pub(crate) fn compute(&self, ctx: &MetricContext<'_>) -> f64 {
        (self.f)(ctx)
    }
}

/// Mean absolute error.
pub fn mae(ctx: &MetricContext<'_>) -> f64 {
    // Streaming left fold — same summation order as `mean`, zero allocation
    // (this runs once per metric per evaluation window).
    let sum: f64 = ctx.errors().map(f64::abs).sum();
    sum / ctx.actual.len() as f64
}

/// Mean squared error.
pub fn mse(ctx: &MetricContext<'_>) -> f64 {
    let sum: f64 = ctx.errors().map(|e| e * e).sum();
    sum / ctx.actual.len() as f64
}

/// Root mean squared error.
pub fn rmse(ctx: &MetricContext<'_>) -> f64 {
    mse(ctx).sqrt()
}

/// Mean absolute percentage error (%); near-zero actuals are skipped to
/// avoid division blow-ups, matching common benchmark practice.
pub(crate) fn mape(ctx: &MetricContext<'_>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (a, p) in ctx.actual.iter().zip(ctx.predicted) {
        if a.abs() > 1e-8 {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        100.0 * sum / n as f64
    }
}

/// Symmetric MAPE (%), the M-competition variant bounded by 200.
pub fn smape(ctx: &MetricContext<'_>) -> f64 {
    let mut sum = 0.0;
    for (a, p) in ctx.actual.iter().zip(ctx.predicted) {
        let denom = (a.abs() + p.abs()).max(1e-12);
        sum += 2.0 * (a - p).abs() / denom;
    }
    100.0 * sum / ctx.actual.len() as f64
}

/// Weighted absolute percentage error (%): Σ|e| / Σ|a|.
pub(crate) fn wape(ctx: &MetricContext<'_>) -> f64 {
    let num: f64 = ctx.errors().map(f64::abs).sum();
    let den: f64 = ctx.actual.iter().map(|a| a.abs()).sum::<f64>().max(1e-12);
    100.0 * num / den
}

/// Mean absolute scaled error: MAE scaled by the in-sample seasonal-naive
/// MAE (Hyndman & Koehler). Values below 1 beat the naive baseline.
pub fn mase(ctx: &MetricContext<'_>) -> f64 {
    let p = ctx.period.min(ctx.train.len().saturating_sub(1)).max(1);
    if ctx.train.len() <= p {
        return f64::NAN;
    }
    let naive_sum: f64 =
        (p..ctx.train.len()).map(|t| (ctx.train[t] - ctx.train[t - p]).abs()).sum();
    let naive_mae = naive_sum / (ctx.train.len() - p) as f64;
    if naive_mae < 1e-12 {
        return f64::NAN;
    }
    mae(ctx) / naive_mae
}

/// Coefficient of determination (higher is better).
pub fn r2(ctx: &MetricContext<'_>) -> f64 {
    let m = mean(ctx.actual);
    let ss_tot: f64 = ctx.actual.iter().map(|a| (a - m) * (a - m)).sum();
    let ss_res: f64 = ctx.errors().map(|e| e * e).sum();
    if ss_tot < 1e-12 {
        return f64::NAN;
    }
    1.0 - ss_res / ss_tot
}

/// Maximum absolute error over the window.
pub(crate) fn max_error(ctx: &MetricContext<'_>) -> f64 {
    ctx.errors().map(f64::abs).fold(0.0, f64::max)
}

/// Registry of metrics available to the pipeline, keyed by name.
#[derive(Debug, Clone)]
pub struct MetricRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl Default for MetricRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl MetricRegistry {
    /// Registry with the standard metric set: `mae`, `mse`, `rmse`, `mape`,
    /// `smape`, `wape`, `mase`, `r2`, `max_error`.
    pub fn standard() -> MetricRegistry {
        let mut reg = MetricRegistry { metrics: BTreeMap::new() };
        reg.register(Metric::custom("mae", true, mae));
        reg.register(Metric::custom("mse", true, mse));
        reg.register(Metric::custom("rmse", true, rmse));
        reg.register(Metric::custom("mape", true, mape));
        reg.register(Metric::custom("smape", true, smape));
        reg.register(Metric::custom("wape", true, wape));
        reg.register(Metric::custom("mase", true, mase));
        reg.register(Metric::custom("r2", false, r2));
        reg.register(Metric::custom("max_error", true, max_error));
        reg
    }

    /// Registers (or replaces) a metric.
    pub fn register(&mut self, metric: Metric) {
        self.metrics.insert(metric.name().to_string(), metric);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Result<&Metric, EvalError> {
        self.metrics
            .get(&name.trim().to_ascii_lowercase())
            .ok_or_else(|| EvalError::UnknownMetric { name: name.to_string() })
    }

    /// All registered metric names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.metrics.keys().cloned().collect()
    }

    /// Evaluates the named metrics on a context (test diagnostics).
    #[cfg(test)]
    pub(crate) fn compute_all(
        &self,
        names: &[String],
        ctx: &MetricContext<'_>,
    ) -> Result<BTreeMap<String, f64>, EvalError> {
        let mut out = BTreeMap::new();
        for name in names {
            let metric = self.get(name)?;
            out.insert(metric.name().to_string(), metric.compute(ctx));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        actual: &'a [f64],
        predicted: &'a [f64],
        train: &'a [f64],
    ) -> MetricContext<'a> {
        MetricContext::new(actual, predicted, train, 1).unwrap()
    }

    #[test]
    fn perfect_forecast_scores_zero_error() {
        let a = [1.0, 2.0, 3.0];
        let c = ctx(&a, &a, &[0.0, 1.0, 2.0]);
        assert_eq!(mae(&c), 0.0);
        assert_eq!(mse(&c), 0.0);
        assert_eq!(rmse(&c), 0.0);
        assert_eq!(smape(&c), 0.0);
        assert_eq!(wape(&c), 0.0);
        assert_eq!(max_error(&c), 0.0);
        assert_eq!(r2(&c), 1.0);
    }

    #[test]
    fn known_values() {
        let c = ctx(&[2.0, 4.0], &[1.0, 6.0], &[1.0, 2.0, 3.0]);
        assert_eq!(mae(&c), 1.5); // (1 + 2) / 2
        assert_eq!(mse(&c), 2.5); // (1 + 4) / 2
        assert!((rmse(&c) - 2.5f64.sqrt()).abs() < 1e-12);
        // MAPE: (1/2 + 2/4)/2 × 100 = 50.
        assert!((mape(&c) - 50.0).abs() < 1e-12);
        // WAPE: 3 / 6 × 100 = 50.
        assert!((wape(&c) - 50.0).abs() < 1e-12);
        assert_eq!(max_error(&c), 2.0);
    }

    #[test]
    fn mase_scales_by_in_sample_naive() {
        // Train diffs are all 1 → naive MAE = 1, so MASE equals MAE.
        let train = [1.0, 2.0, 3.0, 4.0];
        let c = ctx(&[5.0, 6.0], &[5.5, 6.5], &train);
        assert!((mase(&c) - 0.5).abs() < 1e-12);
        // Constant train → denominator zero → NaN sentinel.
        let c2 = ctx(&[5.0], &[5.0], &[2.0, 2.0, 2.0]);
        assert!(mase(&c2).is_nan());
    }

    #[test]
    fn mase_respects_seasonal_period() {
        let train = [0.0, 10.0, 1.0, 11.0, 2.0, 12.0];
        let actual = [3.0];
        let predicted = [3.0];
        let c1 = MetricContext::new(&actual, &predicted, &train, 1).unwrap();
        let c2 = MetricContext::new(&actual, &predicted, &train, 2).unwrap();
        // Period-1 denominator is large (|10−0| etc.), period-2 is 1.
        assert!(mase(&c1) <= mase(&c2) || (mase(&c1) == 0.0 && mase(&c2) == 0.0));
    }

    #[test]
    fn smape_is_bounded_by_200() {
        let c = ctx(&[1.0, 1.0], &[-1.0, -1.0], &[1.0, 2.0]);
        assert!((smape(&c) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let c = ctx(&[0.0, 2.0], &[1.0, 1.0], &[1.0, 2.0]);
        // Only the second point counts: |2−1|/2 = 0.5 → 50%.
        assert!((mape(&c) - 50.0).abs() < 1e-12);
        let all_zero = ctx(&[0.0], &[1.0], &[1.0, 2.0]);
        assert!(mape(&all_zero).is_nan());
    }

    #[test]
    fn r2_of_mean_forecast_is_zero() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let predicted = [2.5; 4];
        let c = ctx(&actual, &predicted, &[1.0, 2.0]);
        assert!(r2(&c).abs() < 1e-12);
        let constant = ctx(&[3.0, 3.0], &[3.0, 3.0], &[1.0, 2.0]);
        assert!(r2(&constant).is_nan());
    }

    #[test]
    fn context_validates_inputs() {
        assert!(matches!(
            MetricContext::new(&[1.0], &[1.0, 2.0], &[], 1),
            Err(EvalError::LengthMismatch { actual: 1, predicted: 2 })
        ));
        assert!(MetricContext::new(&[], &[], &[], 1).is_err());
    }

    #[test]
    fn registry_lookup_and_custom_metrics() {
        let mut reg = MetricRegistry::standard();
        assert!(reg.get("mae").is_ok());
        assert!(reg.get("MAE ").is_ok(), "lookup should be case-insensitive");
        assert!(matches!(reg.get("nope"), Err(EvalError::UnknownMetric { .. })));
        assert_eq!(reg.names().len(), 9);

        reg.register(Metric::custom("under_forecast_rate", true, |c| {
            c.actual.iter().zip(c.predicted).filter(|(a, p)| p < a).count() as f64
                / c.actual.len() as f64
        }));
        let c = ctx(&[2.0, 2.0], &[1.0, 3.0], &[1.0, 2.0]);
        let vals = reg
            .compute_all(&["mae".into(), "under_forecast_rate".into()], &c)
            .unwrap();
        assert_eq!(vals["under_forecast_rate"], 0.5);
        assert_eq!(vals["mae"], 1.0);
    }

    #[test]
    fn direction_flags() {
        let reg = MetricRegistry::standard();
        assert!(reg.get("mae").unwrap().lower_is_better());
        assert!(!reg.get("r2").unwrap().lower_is_better());
    }
}
