//! Canonical statistical feature vector.
//!
//! A compact, interpretable complement to the random-kernel features:
//! distribution moments, autocorrelation structure, spectral entropy, and
//! the six TFB characteristics. These are the features a practitioner
//! would recognize from catch22/tsfeatures-style toolkits.

use easytime_data::characteristics::extract_values;
use easytime_linalg::stats::{acf, kurtosis, mean, skewness, std_dev};

/// Number of features produced by [`extract_features_into`].
pub(crate) const FEATURE_DIM: usize = 16;

/// Names of the features, aligned with [`extract_features_into`] output
/// (test diagnostics).
#[cfg(test)]
pub(crate) const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "cv",
    "skewness",
    "kurtosis",
    "acf1",
    "acf2",
    "acf_period",
    "diff_acf1",
    "turning_rate",
    "spectral_entropy_proxy",
    "seasonality",
    "trend",
    "transition",
    "shifting",
    "stationarity",
    "log_length",
    "period_norm",
];

/// Appends the canonical feature vector of raw series values to `out`
/// without allocating the result vector (internal characteristic
/// extraction still allocates; the kernel-feature path is the one pinned
/// allocation-free).
///
/// All features are level/scale-free (the coefficient of variation is the
/// only one that sees the mean, deliberately), so they compose with the
/// z-normalized kernel features.
pub(crate) fn extract_features_into(values: &[f64], period_hint: Option<usize>, out: &mut Vec<f64>) {
    let n = values.len();
    let mu = mean(values);
    let sigma = std_dev(values);
    let cv = if mu.abs() > 1e-9 { (sigma / mu.abs()).min(10.0) } else { 0.0 };

    let chars = extract_values(values, period_hint);
    let max_lag = 24.min(n.saturating_sub(1));
    let a = acf(values, max_lag);
    let acf1 = a.get(1).copied().unwrap_or(0.0);
    let acf2 = a.get(2).copied().unwrap_or(0.0);
    let acf_period = if chars.period >= 1 && chars.period < a.len() {
        a[chars.period]
    } else {
        0.0
    };

    // ACF(1) of first differences: separates smooth from noisy dynamics.
    let diffs: Vec<f64> = values.windows(2).map(|w| w[1] - w[0]).collect();
    let diff_acf1 = if diffs.len() > 2 { acf(&diffs, 1)[1] } else { 0.0 };

    // Turning-point rate: fraction of interior points that are local
    // extrema (2/3 for white noise, lower for smooth series).
    let mut turns = 0usize;
    for w in values.windows(3) {
        if (w[1] > w[0] && w[1] > w[2]) || (w[1] < w[0] && w[1] < w[2]) {
            turns += 1;
        }
    }
    let turning_rate = if n > 2 { turns as f64 / (n - 2) as f64 } else { 0.0 };

    // Cheap spectral-entropy proxy: 1 − normalized low-lag ACF energy.
    let energy: f64 = a.iter().skip(1).map(|v| v * v).sum::<f64>() / max_lag.max(1) as f64;
    let spectral = (1.0 - energy).clamp(0.0, 1.0);

    out.extend_from_slice(&[
        cv,
        skewness(values).clamp(-10.0, 10.0),
        kurtosis(values).clamp(-10.0, 10.0),
        acf1,
        acf2,
        acf_period,
        diff_acf1,
        turning_rate,
        spectral,
        chars.seasonality,
        chars.trend,
        chars.transition,
        chars.shifting,
        chars.stationarity,
        (n as f64).ln(),
        (chars.period as f64 / 64.0).min(2.0),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn lcg_noise(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn extract_features(values: &[f64], period_hint: Option<usize>) -> Vec<f64> {
        let mut out = Vec::with_capacity(FEATURE_DIM);
        extract_features_into(values, period_hint, &mut out);
        out
    }

    #[test]
    fn dimension_and_names_agree() {
        let f = extract_features(&lcg_noise(100), None);
        assert_eq!(f.len(), FEATURE_DIM);
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn white_noise_has_high_turning_rate_low_acf() {
        let f = extract_features(&lcg_noise(400), None);
        let acf1 = f[3];
        let turning = f[7];
        assert!(acf1.abs() < 0.2, "acf1 {acf1}");
        assert!(turning > 0.5, "turning rate {turning}");
    }

    #[test]
    fn smooth_seasonal_series_has_low_turning_high_period_acf() {
        let xs: Vec<f64> = (0..240).map(|t| (2.0 * PI * t as f64 / 24.0).sin()).collect();
        let f = extract_features(&xs, None);
        let acf_period = f[5];
        let turning = f[7];
        let seasonality = f[9];
        assert!(acf_period > 0.8, "acf at period {acf_period}");
        assert!(turning < 0.2, "turning rate {turning}");
        assert!(seasonality > 0.8, "seasonality {seasonality}");
    }

    #[test]
    fn features_distinguish_trend_from_noise() {
        let trend: Vec<f64> = (0..200).map(|t| t as f64 * 0.5).collect();
        let ft = extract_features(&trend, None);
        let fn_ = extract_features(&lcg_noise(200), None);
        assert!(ft[10] > 0.9, "trend feature {}", ft[10]);
        assert!(fn_[10] < 0.3, "noise trend feature {}", fn_[10]);
        assert!(ft[13] < fn_[13], "trend should be less stationary than noise");
    }

    #[test]
    fn constant_series_is_handled() {
        let f = extract_features(&[5.0; 50], None);
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
