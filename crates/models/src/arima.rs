//! Autoregressive models: AR(p) and ARIMA(p, d, q).
//!
//! AR coefficients are estimated by conditional least squares on the lag
//! design matrix. ARMA terms use the Hannan–Rissanen two-stage procedure:
//! a long autoregression produces innovation estimates, then the series is
//! regressed on its own lags and lagged innovations. Order selection (for
//! the `auto` constructors) minimizes AIC; the differencing order is chosen
//! by variance reduction.

use crate::{check_horizon, check_train, Forecaster, ModelError, Result};
use easytime_data::TimeSeries;
use easytime_linalg::kernels::dot;
use easytime_linalg::stats::variance;
use easytime_linalg::{ridge, Matrix};

/// Lag coefficients reversed so that each AR/MA prediction becomes one
/// contiguous dot over the trailing window (oldest lag first).
fn reversed(coeffs: &[f64]) -> Vec<f64> {
    coeffs.iter().rev().copied().collect()
}

/// Builds the lag design matrix with an intercept column.
///
/// Row `t` holds `[1, y[t-1], …, y[t-p]]` targeting `y[t]`.
fn lag_design(values: &[f64], p: usize) -> (Matrix, Vec<f64>) {
    let n = values.len() - p;
    let x = Matrix::from_fn(n, p + 1, |i, j| {
        if j == 0 {
            1.0
        } else {
            values[p + i - j]
        }
    });
    let y = values[p..].to_vec();
    (x, y)
}

/// Fits AR(p) by conditional least squares; returns `(intercept, coeffs, sse)`.
fn fit_ar(values: &[f64], p: usize) -> Result<(f64, Vec<f64>, f64)> {
    if values.len() < p + 2 {
        return Err(ModelError::TooShort { needed: p + 2, got: values.len() });
    }
    let (x, y) = lag_design(values, p);
    // Scale-aware ridge: enough to keep collinear lag designs (long AR
    // stages, strong seasonality) from producing wild coefficients.
    let lambda = 1e-4 * values.len() as f64 * variance(values).max(1e-12);
    let beta = ridge(&x, &y, lambda).map_err(|e| ModelError::Numeric { what: e.to_string() })?;
    let yhat = x.matvec(&beta);
    let sse: f64 = y.iter().zip(&yhat).map(|(a, b)| (a - b) * (a - b)).sum();
    let coeffs = beta[1..].to_vec();
    Ok((beta[0], coeffs, sse))
}

/// Result of a Hannan–Rissanen ARMA fit:
/// `(intercept, ar, ma, residuals, sse)`.
type ArmaFit = (f64, Vec<f64>, Vec<f64>, Vec<f64>, f64);

/// Spectral radius of the AR companion matrix, by power iteration.
///
/// The AR recursion `y[t] = Σ φⱼ y[t−j]` diverges iff this radius is ≥ 1.
fn ar_spectral_radius(coeffs: &[f64]) -> f64 {
    let p = coeffs.len();
    if p == 0 {
        return 0.0;
    }
    if p == 1 {
        return coeffs[0].abs();
    }
    let mut v = vec![1.0 / (p as f64).sqrt(); p];
    let mut radius = 0.0;
    for _ in 0..60 {
        // Companion-matrix multiply: top row is the coefficients, the
        // sub-diagonal shifts.
        let mut next = vec![0.0; p];
        next[0] = coeffs.iter().zip(&v).map(|(c, x)| c * x).sum();
        next[1..p].copy_from_slice(&v[..(p - 1)]);
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return 0.0;
        }
        radius = norm;
        for x in &mut next {
            *x /= norm;
        }
        v = next;
    }
    radius
}

/// Shrinks an unstable CSS fit back inside the unit circle.
///
/// Conditional least squares does not constrain the AR polynomial; on
/// near-unit-root or heavy-tailed data the estimated recursion can be
/// explosive. Multiplying φⱼ by `cʲ` scales every characteristic root by
/// `c`, so choosing `c = target / radius` restores stationarity while
/// preserving the fit's short-horizon dynamics.
fn stabilize_ar(coeffs: &mut [f64]) {
    const TARGET: f64 = 0.97;
    let radius = ar_spectral_radius(coeffs);
    if radius <= TARGET || !radius.is_finite() {
        return;
    }
    let c = TARGET / radius;
    let mut factor = 1.0;
    for coef in coeffs.iter_mut() {
        factor *= c;
        *coef *= factor;
    }
}

/// Clamps recursive forecasts to a sane envelope around the training data.
///
/// Conditional-least-squares AR fits are not guaranteed stationary; on
/// heavy-tailed series an estimated root slightly outside the unit circle
/// makes the recursion diverge geometrically. Production forecasting
/// systems bound such forecasts rather than emit astronomically wrong
/// values; we allow five training ranges of headroom, which never binds
/// for stable fits.
fn clamp_forecasts(out: &mut [f64], train: &[f64]) {
    let lo = train.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = train.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-9);
    let (floor, ceil) = (lo - 5.0 * range, hi + 5.0 * range);
    for v in out {
        *v = v.clamp(floor, ceil);
    }
}

/// AIC of a least-squares fit with `k` parameters on `n` effective points.
fn aic(sse: f64, n: usize, k: usize) -> f64 {
    let nf = n as f64;
    nf * (sse / nf).max(1e-300).ln() + 2.0 * k as f64
}

/// Pure autoregressive forecaster AR(p).
#[derive(Debug, Clone)]
pub struct Ar {
    order: Option<usize>,
    name: String,
    fitted: Option<ArState>,
}

#[derive(Debug, Clone)]
struct ArState {
    intercept: f64,
    coeffs: Vec<f64>,
    history: Vec<f64>,
    /// (min, max) of the training data, for forecast clamping.
    bounds: (f64, f64),
}

impl Ar {
    /// Creates AR with a fixed order.
    pub fn new(order: usize) -> Result<Ar> {
        if order == 0 {
            return Err(ModelError::InvalidParam { what: "AR order must be ≥ 1".into() });
        }
        Ok(Ar { order: Some(order), name: format!("ar_{order}"), fitted: None })
    }

    /// Creates AR with AIC-selected order in `1..=max_order`.
    pub fn auto(max_order: usize) -> Result<Ar> {
        if max_order == 0 {
            return Err(ModelError::InvalidParam { what: "max AR order must be ≥ 1".into() });
        }
        Ok(Ar { order: None, name: "ar_auto".into(), fitted: None })
    }
}

const AUTO_MAX_AR: usize = 8;

impl Forecaster for Ar {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let order = match self.order {
            Some(p) => p,
            None => {
                let max_p = AUTO_MAX_AR.min(v.len() / 4).max(1);
                let mut best = (1usize, f64::INFINITY);
                for p in 1..=max_p {
                    if let Ok((_, _, sse)) = fit_ar(v, p) {
                        let score = aic(sse, v.len() - p, p + 1);
                        if score < best.1 {
                            best = (p, score);
                        }
                    }
                }
                best.0
            }
        };
        let (intercept, mut coeffs, _) = fit_ar(v, order)?;
        stabilize_ar(&mut coeffs);
        let keep = order.max(1);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.fitted = Some(ArState {
            intercept,
            coeffs,
            history: v[v.len().saturating_sub(keep)..].to_vec(),
            bounds: (lo, hi),
        });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let p = st.coeffs.len();
        let rev = reversed(&st.coeffs);
        let mut hist = st.history.clone();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let v = st.intercept + dot(&rev, &hist[hist.len() - p..]);
            out.push(v);
            hist.push(v);
            if hist.len() > p + 1 {
                hist.remove(0);
            }
        }
        clamp_forecasts(&mut out, &[st.bounds.0, st.bounds.1]);
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        self.order.unwrap_or(AUTO_MAX_AR).max(1) + 2
    }
}

/// ARIMA(p, d, q) with Hannan–Rissanen ARMA estimation.
#[derive(Debug, Clone)]
pub struct Arima {
    p: usize,
    d: usize,
    q: usize,
    auto: bool,
    name: String,
    fitted: Option<ArimaState>,
}

#[derive(Debug, Clone)]
struct ArimaState {
    intercept: f64,
    ar: Vec<f64>,
    ma: Vec<f64>,
    /// Trailing differenced values (most recent last).
    hist: Vec<f64>,
    /// Trailing innovations aligned with `hist`.
    resid: Vec<f64>,
    /// The last `d` original values needed to integrate forecasts back.
    integrate_tail: Vec<f64>,
    d: usize,
    /// (min, max) of the raw training data, for forecast clamping.
    bounds: (f64, f64),
}

impl Arima {
    /// Creates ARIMA with fixed orders.
    pub fn new(p: usize, d: usize, q: usize) -> Result<Arima> {
        if p == 0 && q == 0 {
            return Err(ModelError::InvalidParam {
                what: "ARIMA requires p ≥ 1 or q ≥ 1".into(),
            });
        }
        if d > 2 {
            return Err(ModelError::InvalidParam { what: format!("d = {d} > 2 unsupported") });
        }
        Ok(Arima { p, d, q, auto: false, name: format!("arima_{p}{d}{q}"), fitted: None })
    }

    /// Creates auto-ARIMA: d by variance reduction, (p, q) by AIC over a
    /// small grid.
    pub fn auto() -> Arima {
        Arima { p: 2, d: 0, q: 1, auto: true, name: "arima_auto".into(), fitted: None }
    }

    /// Differences `values` `d` times, returning the working series and the
    /// tail needed to invert the differencing.
    fn difference(values: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
        let mut work = values.to_vec();
        let mut tail = Vec::with_capacity(d);
        for _ in 0..d {
            let Some(&last) = work.last() else {
                break;
            };
            tail.push(last);
            work = work.windows(2).map(|w| w[1] - w[0]).collect();
        }
        (work, tail)
    }

    /// Chooses the differencing order (0..=2) by variance reduction.
    fn choose_d(values: &[f64]) -> usize {
        let mut best_d = 0;
        let mut best_var = variance(values);
        let mut work = values.to_vec();
        for d in 1..=2usize {
            if work.len() < 8 {
                break;
            }
            work = work.windows(2).map(|w| w[1] - w[0]).collect();
            let v = variance(&work);
            // Only difference when it reduces variance markedly.
            if v < 0.8 * best_var {
                best_d = d;
                best_var = v;
            } else {
                break;
            }
        }
        best_d
    }

    /// Hannan–Rissanen fit of ARMA(p, q) on `work`.
    /// Returns `(intercept, ar, ma, residuals, sse)`.
    fn fit_arma(work: &[f64], p: usize, q: usize) -> Result<ArmaFit> {
        let n = work.len();
        if q == 0 {
            let (intercept, ar, sse) = fit_ar(work, p.max(1))?;
            // Residuals for state initialization.
            let rev = reversed(&ar);
            let pe = ar.len();
            let mut resid = vec![0.0; n];
            for t in pe..n {
                let pred = intercept + dot(&rev, &work[t - pe..t]);
                resid[t] = work[t] - pred;
            }
            return Ok((intercept, ar, Vec::new(), resid, sse));
        }

        // Stage 1: long AR to estimate innovations.
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "ln(n).ceil() is a small non-negative integer-valued float, exactly \
                      representable as usize"
        )]
        let long_p = ((n as f64).ln().ceil() as usize + p + q).min(n / 3).max(p + 1);
        let (li, lc, _) = fit_ar(work, long_p)?;
        let rev_lc = reversed(&lc);
        let mut innov = vec![0.0; n];
        for t in long_p..n {
            innov[t] = work[t] - (li + dot(&rev_lc, &work[t - long_p..t]));
        }

        // Stage 2: regress y[t] on p lags of y and q lags of innovations.
        let start = long_p + p.max(q);
        if n <= start + p + q + 2 {
            return Err(ModelError::TooShort { needed: start + p + q + 3, got: n });
        }
        let rows = n - start;
        let x = Matrix::from_fn(rows, 1 + p + q, |i, j| {
            let t = start + i;
            if j == 0 {
                1.0
            } else if j <= p {
                work[t - j]
            } else {
                innov[t - (j - p)]
            }
        });
        let y: Vec<f64> = work[start..].to_vec();
        // Innovations are nearly collinear with the lags; unregularized
        // least squares here produces enormous offsetting AR/MA pairs that
        // wreck out-of-sample forecasts. Scale-aware ridge tames that.
        let lambda = 1e-3 * rows as f64 * variance(work).max(1e-12);
        let beta =
            ridge(&x, &y, lambda).map_err(|e| ModelError::Numeric { what: e.to_string() })?;
        let yhat = x.matvec(&beta);
        let sse: f64 = y.iter().zip(&yhat).map(|(a, b)| (a - b) * (a - b)).sum();
        let intercept = beta[0];
        let mut ar = beta[1..=p].to_vec();
        let mut ma = beta[p + 1..].to_vec();
        // Stationarity and invertibility must hold BEFORE the residual
        // pass below: the residual recursion shares the MA characteristic
        // polynomial, so a non-invertible fit would blow the stored
        // residual tail up exponentially.
        stabilize_ar(&mut ar);
        stabilize_ar(&mut ma);

        // Final residual pass with the fitted ARMA parameters.
        let (rev_ar, rev_ma) = (reversed(&ar), reversed(&ma));
        let mut resid = vec![0.0; n];
        for t in p.max(q)..n {
            let pred =
                intercept + dot(&rev_ar, &work[t - p..t]) + dot(&rev_ma, &resid[t - q..t]);
            resid[t] = work[t] - pred;
        }
        Ok((intercept, ar, ma, resid, sse))
    }
}

impl Forecaster for Arima {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();

        let (p, d, q) = if self.auto {
            let d = Self::choose_d(v);
            let (work, _) = Self::difference(v, d);
            let mut best = (1usize, 0usize, f64::INFINITY);
            for p in 1..=3usize {
                for q in 0..=2usize {
                    if let Ok((_, _, _, _, sse)) = Self::fit_arma(&work, p, q) {
                        let k = p + q + 1;
                        let score = aic(sse, work.len().saturating_sub(p + q + 1).max(1), k);
                        if score < best.2 {
                            best = (p, q, score);
                        }
                    }
                }
            }
            (best.0, d, best.1)
        } else {
            (self.p, self.d, self.q)
        };

        let (work, integrate_tail) = Self::difference(v, d);
        if work.len() < p.max(q) + 4 {
            return Err(ModelError::TooShort { needed: p.max(q) + 4 + d, got: v.len() });
        }
        let (intercept, ar, ma, resid, _) = Self::fit_arma(&work, p, q)?;

        let keep = p.max(q).max(1);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.fitted = Some(ArimaState {
            intercept,
            ar,
            ma,
            hist: work[work.len() - keep..].to_vec(),
            resid: resid[resid.len() - keep..].to_vec(),
            integrate_tail,
            d,
            bounds: (lo, hi),
        });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let (rev_ar, rev_ma) = (reversed(&st.ar), reversed(&st.ma));
        let mut hist = st.hist.clone();
        let mut resid = st.resid.clone();
        let mut diffs = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let v = st.intercept
                + dot(&rev_ar, &hist[hist.len() - rev_ar.len()..])
                + dot(&rev_ma, &resid[resid.len() - rev_ma.len()..]);
            diffs.push(v);
            hist.push(v);
            resid.push(0.0); // future innovations have zero expectation
            hist.remove(0);
            resid.remove(0);
        }

        // Integrate back d times: invert each differencing level.
        let mut out = diffs;
        for level in (0..st.d).rev() {
            let mut last = st.integrate_tail[level];
            for v in &mut out {
                last += *v;
                *v = last;
            }
        }
        clamp_forecasts(&mut out, &[st.bounds.0, st.bounds.1]);
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        let base = self.p.max(self.q) + self.d;
        (4 * (base + 1)).max(20)
    }
}

/// Seasonal ARIMA: seasonal differencing at the period, then ARMA.
///
/// Implements the SARIMA(p, 0, q)(0, 1, 0)ₘ subfamily — plain ARMA on the
/// seasonally differenced series `y[t] − y[t−m]` — which captures the
/// "seasonal cycle plus short-memory deviations" structure the
/// non-seasonal family misses entirely. The period comes from the
/// constructor or the series frequency.
#[derive(Debug, Clone)]
pub struct SeasonalArima {
    period: Option<usize>,
    inner_p: usize,
    inner_q: usize,
    fitted: Option<SarimaState>,
}

#[derive(Debug, Clone)]
struct SarimaState {
    /// The fitted ARMA core on the seasonally differenced series.
    arma: Arima,
    /// Last `period` original values, for inverting the seasonal difference.
    season_tail: Vec<f64>,
    bounds: (f64, f64),
}

impl SeasonalArima {
    /// Creates SARIMA(p, 0, q)(0, 1, 0)ₘ with an optional explicit period.
    pub fn new(period: Option<usize>, p: usize, q: usize) -> Result<SeasonalArima> {
        if p == 0 && q == 0 {
            return Err(ModelError::InvalidParam {
                what: "SARIMA requires p ≥ 1 or q ≥ 1 for the ARMA core".into(),
            });
        }
        Ok(SeasonalArima { period, inner_p: p, inner_q: q, fitted: None })
    }
}

impl Forecaster for SeasonalArima {
    fn name(&self) -> &str {
        "sarima"
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        let period = self
            .period
            .or_else(|| train.frequency().default_period())
            .ok_or_else(|| ModelError::InvalidParam {
                what: "sarima needs a seasonal period (explicit or via frequency)".into(),
            })?;
        if period < 2 {
            return Err(ModelError::InvalidParam {
                what: format!("seasonal period {period} must be ≥ 2"),
            });
        }
        check_train(train, self.min_train_len().max(2 * period + 8))?;
        let v = train.values();

        // Seasonal difference.
        let sdiff: Vec<f64> = (period..v.len()).map(|t| v[t] - v[t - period]).collect();
        let sdiff_series = train.with_values(sdiff).map_err(ModelError::Data)?;
        let mut arma = Arima::new(self.inner_p, 0, self.inner_q)?;
        arma.fit(&sdiff_series)?;

        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.fitted = Some(SarimaState {
            arma,
            season_tail: v[v.len() - period..].to_vec(),
            bounds: (lo, hi),
        });
        Ok(())
    }

    fn forecast(&self, horizon: usize) -> Result<Vec<f64>> {
        check_horizon(horizon)?;
        let st = self.fitted.as_ref().ok_or(ModelError::NotFitted)?;
        let period = st.season_tail.len();
        let diffs = st.arma.forecast(horizon)?;
        // Invert the seasonal difference recursively:
        // y[n+h] = y[n+h−m] + Δₘ-forecast[h].
        let mut extended = st.season_tail.clone();
        for d in diffs {
            let base = extended[extended.len() - period];
            extended.push(base + d);
        }
        let mut out = extended[period..].to_vec();
        clamp_forecasts(&mut out, &[st.bounds.0, st.bounds.1]);
        Ok(out)
    }

    fn min_train_len(&self) -> usize {
        // Conservative: two cycles of the most common periods plus the
        // ARMA core's needs; the exact requirement is enforced at fit time
        // once the period is known.
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easytime_data::Frequency;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new("t", values, Frequency::Unknown).expect("construction succeeds with valid parameters")
    }

    /// Deterministic AR(1) driven by white LCG noise in (-0.15, 0.15).
    fn ar1_series(n: usize, phi: f64) -> Vec<f64> {
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.3
        };
        let mut v = vec![next()];
        for t in 1..n {
            let prev = v[t - 1];
            v.push(phi * prev + next());
        }
        v
    }

    #[test]
    fn ar_recovers_autoregressive_coefficient() {
        let data = ar1_series(400, 0.8);
        let mut m = Ar::new(1).expect("construction succeeds with valid parameters");
        m.fit(&ts(data)).expect("fit succeeds on valid training data");
        let st = m.fitted.as_ref().expect("state is populated at this point");
        assert!((st.coeffs[0] - 0.8).abs() < 0.1, "phi estimate {}", st.coeffs[0]);
    }

    #[test]
    fn ar_auto_picks_reasonable_order() {
        let data = ar1_series(300, 0.7);
        let mut m = Ar::auto(8).expect("auto-order selection succeeds");
        m.fit(&ts(data)).expect("fit succeeds on valid training data");
        let st = m.fitted.as_ref().expect("state is populated at this point");
        assert!((1..=8).contains(&st.coeffs.len()));
        let f = m.forecast(5).expect("forecast succeeds on a fitted model");
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ar_forecast_decays_to_process_mean() {
        let data = ar1_series(400, 0.8);
        let m_data = easytime_linalg::stats::mean(&data);
        let mut m = Ar::new(1).expect("construction succeeds with valid parameters");
        m.fit(&ts(data)).expect("fit succeeds on valid training data");
        let f = m.forecast(200).expect("forecast succeeds on a fitted model");
        assert!(
            (f[199] - m_data).abs() < 0.5,
            "long-run forecast {} should approach mean {}",
            f[199],
            m_data
        );
    }

    #[test]
    fn arima_with_differencing_tracks_trend() {
        let values: Vec<f64> = (0..200).map(|t| 5.0 + 0.5 * t as f64).collect();
        let mut m = Arima::new(1, 1, 0).expect("construction succeeds with valid parameters");
        m.fit(&ts(values)).expect("fit succeeds on valid training data");
        let f = m.forecast(5).expect("forecast succeeds on a fitted model");
        for (h, v) in f.iter().enumerate() {
            let expected = 5.0 + 0.5 * (200 + h) as f64;
            assert!((v - expected).abs() < 1.0, "h={h}: {v} vs {expected}");
        }
    }

    #[test]
    fn auto_arima_differences_random_walk() {
        // Deterministic random-walk-like cumulative series.
        let mut v = vec![0.0];
        for t in 1..300 {
            let e = ((t as f64 * 7.13).sin() * 1009.7).fract();
            v.push(v[t - 1] + e);
        }
        assert_eq!(Arima::choose_d(&v), 1);
        let mut m = Arima::auto();
        m.fit(&ts(v)).expect("fit succeeds on valid training data");
        assert_eq!(m.fitted.as_ref().expect("state is populated at this point").d, 1);
        let f = m.forecast(10).expect("forecast succeeds on a fitted model");
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn stationary_series_is_not_differenced() {
        // Weakly autocorrelated process: differencing would roughly double
        // the variance, so choose_d must keep d = 0.
        let data = ar1_series(300, 0.2);
        assert_eq!(Arima::choose_d(&data), 0);
    }

    #[test]
    fn arma_with_ma_terms_fits() {
        let data = ar1_series(400, 0.6);
        let mut m = Arima::new(1, 0, 1).expect("construction succeeds with valid parameters");
        m.fit(&ts(data)).expect("fit succeeds on valid training data");
        let st = m.fitted.as_ref().expect("state is populated at this point");
        assert_eq!(st.ar.len(), 1);
        assert_eq!(st.ma.len(), 1);
        let f = m.forecast(8).expect("forecast succeeds on a fitted model");
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn constructors_validate_orders() {
        assert!(Ar::new(0).is_err());
        assert!(Ar::auto(0).is_err());
        assert!(Arima::new(0, 0, 0).is_err());
        assert!(Arima::new(1, 3, 0).is_err());
    }

    #[test]
    fn short_series_yields_too_short() {
        let mut m = Arima::new(2, 1, 1).expect("construction succeeds with valid parameters");
        assert!(matches!(
            m.fit(&ts((0..10).map(|t| t as f64).collect())),
            Err(ModelError::TooShort { .. })
        ));
    }

    #[test]
    fn explosive_fits_are_clamped_to_the_training_envelope() {
        // A near-unit-root heavy-tailed series can produce |phi| > 1 under
        // CSS; the forecast must stay within 5 training ranges regardless.
        let mut v = vec![10.0];
        let mut state: u64 = 99;
        for t in 1..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let heavy = if state % 17 == 0 { 30.0 } else { 0.5 };
            let e = ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * heavy;
            let prev: f64 = v[t - 1];
            v.push(prev * 1.02 + e);
        }
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let range = hi - lo;
        let mut m = Arima::new(2, 0, 1).expect("construction succeeds with valid parameters");
        m.fit(&ts(v)).expect("fit succeeds on valid training data");
        let f = m.forecast(500).expect("forecast succeeds on a fitted model");
        for x in &f {
            assert!(
                *x >= lo - 5.0 * range - 1e-9 && *x <= hi + 5.0 * range + 1e-9,
                "forecast {x} escaped the clamping envelope [{lo}, {hi}] range {range}"
            );
        }
    }

    #[test]
    fn sarima_captures_seasonality_plain_arima_misses() {
        // Monthly seasonal + trend: the non-seasonal family cannot model
        // the cycle; SARIMA's seasonal difference removes it exactly.
        let values: Vec<f64> = (0..240)
            .map(|t| {
                20.0 + 0.1 * t as f64
                    + 8.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
            })
            .collect();
        let series = TimeSeries::new("m", values.clone(), Frequency::Monthly).expect("construction succeeds with valid parameters");
        let train = series.slice(0, 216).expect("slice bounds are within the series");
        let actual = &values[216..240];

        let mut sarima = SeasonalArima::new(None, 1, 0).expect("construction succeeds with valid parameters");
        sarima.fit(&train).expect("fit succeeds on valid training data");
        let fs = sarima.forecast(24).expect("forecast succeeds on a fitted model");

        let mut arima = Arima::auto();
        arima.fit(&train).expect("fit succeeds on valid training data");
        let fa = arima.forecast(24).expect("forecast succeeds on a fitted model");

        let mae = |f: &[f64]| {
            f.iter().zip(actual).map(|(p, a)| (p - a).abs()).sum::<f64>() / 24.0
        };
        assert!(
            mae(&fs) < mae(&fa) * 0.5,
            "sarima {} should beat plain arima {} decisively on seasonal data",
            mae(&fs),
            mae(&fa)
        );
        assert!(mae(&fs) < 1.5, "sarima mae {}", mae(&fs));
    }

    #[test]
    fn sarima_validates_inputs() {
        assert!(SeasonalArima::new(Some(12), 0, 0).is_err());
        let mut m = SeasonalArima::new(Some(1), 1, 0).expect("construction succeeds with valid parameters");
        let s = ts((0..100).map(|t| t as f64).collect());
        assert!(matches!(m.fit(&s), Err(ModelError::InvalidParam { .. })));
        // No period available (Unknown frequency, none given).
        let mut m = SeasonalArima::new(None, 1, 0).expect("construction succeeds with valid parameters");
        assert!(matches!(m.fit(&s), Err(ModelError::InvalidParam { .. })));
        // Too short for two cycles.
        let mut m = SeasonalArima::new(Some(12), 1, 0).expect("construction succeeds with valid parameters");
        assert!(matches!(
            m.fit(&ts((0..20).map(|t| t as f64).collect())),
            Err(ModelError::TooShort { .. })
        ));
        assert!(matches!(
            SeasonalArima::new(Some(12), 1, 0).expect("construction succeeds with valid parameters").forecast(1),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Ar::new(3).expect("construction succeeds with valid parameters").name(), "ar_3");
        assert_eq!(Arima::new(2, 1, 1).expect("construction succeeds with valid parameters").name(), "arima_211");
        assert_eq!(Arima::auto().name(), "arima_auto");
    }
}
