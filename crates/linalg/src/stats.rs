//! Descriptive statistics and time-series helper routines.
//!
//! These free functions operate on `&[f64]` so every layer of the workspace
//! (generators, feature extraction, metrics, model fitting) can share them
//! without conversions.

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); returns 0.0 for slices shorter than 1.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `None` when empty or any NaN is present.
pub fn min(xs: &[f64]) -> Option<f64> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    xs.iter().copied().reduce(f64::min)
}

/// Maximum value; `None` when empty or any NaN is present.
pub fn max(xs: &[f64]) -> Option<f64> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    xs.iter().copied().reduce(f64::max)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; `None` when empty or `q` is out
/// of range.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "q is validated to [0, 1], so pos lies in [0, len-1] and truncation yields an \
                  exact, in-range index"
    )]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Covariance of two equal-length slices (population normalization).
///
/// # Panics
/// Panics if the slices differ in length.
pub(crate) fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / xs.len() as f64
}

/// Pearson correlation; 0.0 when either side is constant.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx < 1e-12 || sy < 1e-12 {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Autocorrelation at `lag`; 0.0 when the series is too short or constant.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if lag >= xs.len() {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom < 1e-12 {
        return 0.0;
    }
    let numer: f64 = xs[lag..]
        .iter()
        .zip(&xs[..xs.len() - lag])
        .map(|(a, b)| (a - m) * (b - m))
        .sum();
    numer / denom
}

/// Autocorrelation function for lags `0..=max_lag`.
pub fn acf(xs: &[f64], max_lag: usize) -> Vec<f64> {
    (0..=max_lag).map(|lag| autocorrelation(xs, lag)).collect()
}

/// First differences `x[t] - x[t-1]`; empty when `xs.len() < 2`.
pub fn diff(xs: &[f64]) -> Vec<f64> {
    if xs.len() < 2 {
        return Vec::new();
    }
    xs.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Simple linear regression of `ys` on `0..n`; returns `(intercept, slope)`.
///
/// Returns `(mean, 0.0)` for slices shorter than 2.
pub fn linear_trend(ys: &[f64]) -> (f64, f64) {
    let n = ys.len();
    if n < 2 {
        return (mean(ys), 0.0);
    }
    let nf = n as f64;
    let tx = (nf - 1.0) / 2.0;
    let ty = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in ys.iter().enumerate() {
        let dx = i as f64 - tx;
        sxy += dx * (y - ty);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (ty - slope * tx, slope)
}

/// Skewness (population, Fisher); 0.0 for constant/short series.
pub fn skewness(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f64;
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n
}

/// Excess kurtosis (population); 0.0 for constant/short series.
pub fn kurtosis(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 {
        return 0.0;
    }
    let n = xs.len() as f64;
    xs.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n - 3.0
}

/// Softmax over a slice, numerically stabilized by max subtraction.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = xs.iter().map(|x| (x - mx).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Ranks of the values (0 = smallest), average-free: ties broken by index.
pub fn ranks(xs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0usize; xs.len()];
    for (rank, &i) in idx.iter().enumerate() {
        out[i] = rank;
    }
    out
}

/// Spearman rank correlation between two equal-length slices.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman: length mismatch");
    let rx: Vec<f64> = ranks(xs).into_iter().map(|r| r as f64).collect();
    let ry: Vec<f64> = ranks(ys).into_iter().map(|r| r as f64).collect();
    correlation(&rx, &ry)
}

/// Sample variance (divides by `n - 1`); returns 0.0 for slices shorter than 2.
#[cfg(test)]
pub(crate) fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Seasonal differences `x[t] - x[t-period]`.
#[cfg(test)]
pub(crate) fn seasonal_diff(xs: &[f64], period: usize) -> Vec<f64> {
    if period == 0 || xs.len() <= period {
        return Vec::new();
    }
    (period..xs.len()).map(|t| xs[t] - xs[t - period]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn minmax_and_quantiles() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(9.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(min(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn correlation_bounds_and_signs() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let zs: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        assert!((correlation(&xs, &zs) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &vec![5.0; 50]), 0.0);
    }

    #[test]
    fn acf_of_periodic_signal_peaks_at_period() {
        let xs: Vec<f64> =
            (0..240).map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()).collect();
        let a = acf(&xs, 24);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!(a[12] > 0.9, "lag-12 autocorrelation should be near 1, got {}", a[12]);
        assert!(a[6] < -0.9, "half-period autocorrelation should be near -1");
        assert_eq!(autocorrelation(&xs, 500), 0.0);
    }

    #[test]
    fn diff_and_seasonal_diff() {
        let xs = [1.0, 3.0, 6.0, 10.0];
        assert_eq!(diff(&xs), vec![2.0, 3.0, 4.0]);
        assert_eq!(seasonal_diff(&xs, 2), vec![5.0, 7.0]);
        assert!(diff(&[1.0]).is_empty());
        assert!(seasonal_diff(&xs, 0).is_empty());
        assert!(seasonal_diff(&xs, 10).is_empty());
    }

    #[test]
    fn linear_trend_recovers_slope() {
        let ys: Vec<f64> = (0..100).map(|t| 5.0 + 0.25 * t as f64).collect();
        let (b, m) = linear_trend(&ys);
        assert!((b - 5.0).abs() < 1e-9);
        assert!((m - 0.25).abs() < 1e-12);
        let (b1, m1) = linear_trend(&[7.0]);
        assert_eq!((b1, m1), (7.0, 0.0));
    }

    #[test]
    fn moments_of_symmetric_data() {
        let xs: Vec<f64> = (-50..=50).map(|i| i as f64).collect();
        assert!(skewness(&xs).abs() < 1e-9);
        // Uniform distribution has negative excess kurtosis (~ -1.2).
        assert!(kurtosis(&xs) < -1.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Large inputs must not overflow.
        let q = softmax(&[1000.0, 1000.0]);
        assert!((q[0] - 0.5).abs() < 1e-12);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn ranks_and_spearman() {
        assert_eq!(ranks(&[30.0, 10.0, 20.0]), vec![2, 0, 1]);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 25.0, 100.0]; // monotone but nonlinear
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &zs) + 1.0).abs() < 1e-12);
    }
}
