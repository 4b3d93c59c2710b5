//! Gradient-boosted decision stumps on lag features.
//!
//! Represents the tree-ensemble tier of the zoo (the role XGBoost-style
//! models play in TFB). Each boosting round fits one depth-1 regression
//! tree (a "stump": one lag feature, one threshold, two leaf values) to the
//! current residuals, shrunk by a learning rate. Nonlinear and robust to
//! outliers, which gives it an edge on regime-switching series where linear
//! models average across regimes.
//!
//! The candidate splits do not depend on the residuals: each lag's decile
//! thresholds, and which rows fall left of them, are fixed by the training
//! values. [`Forecaster::fit`] therefore builds the split tables once per
//! fit, and each round is two allocation-free sweeps per lag over the
//! residuals. [`GradientBoost::fit_reference`] keeps the original search,
//! which sorts every lag column and scans it twice per threshold in every
//! round, as the oracle. Both feed every sum the same additions in the same
//! order, so they pick bit-identical stumps.

use crate::{check_horizon, check_train, Forecaster, ModelError, Result};
use easytime_data::TimeSeries;
use easytime_linalg::stats::mean;

/// Candidate thresholds per lag: the deciles q = 1..=9 of the lag column.
const DECILES: usize = 9;

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

/// The residual-independent half of the stump search, built once per fit.
struct SplitTables {
    /// Rows per lag column: the number of boosting targets.
    rows: usize,
    /// Per lag (index `lag - 1`): the decile thresholds, ascending.
    thresholds: Vec<[f64; DECILES]>,
    /// Per lag: how many rows fall left of each threshold.
    left_n: Vec<[usize; DECILES]>,
    /// Lag-major, `rows` entries per lag: the first decile whose threshold
    /// puts the row on the left (`DECILES` when none does). The thresholds
    /// ascend, so a row is left of decile `q` exactly when `q >= first`.
    first_left: Vec<u8>,
}

impl SplitTables {
    /// Sorts each lag column once for its thresholds and indexes every row.
    fn new(values: &[f64], lookback: usize) -> SplitTables {
        let rows = values.len() - lookback;
        let mut thresholds = Vec::with_capacity(lookback);
        let mut left_n = Vec::with_capacity(lookback);
        let mut first_left = Vec::with_capacity(lookback * rows);
        let mut sorted = Vec::with_capacity(rows);
        for lag in 1..=lookback {
            let feats = &values[lookback - lag..values.len() - lag];
            sorted.clear();
            sorted.extend_from_slice(feats);
            sorted.sort_unstable_by(f64::total_cmp);
            let t: [f64; DECILES] = std::array::from_fn(|q| sorted[((q + 1) * (rows - 1)) / 10]);
            let mut counts = [0usize; DECILES];
            for &f in feats {
                // Series values are finite, so `f > th` is exactly "not
                // left of th", and the thresholds below `f` are a prefix.
                let first = t.iter().fold(0u8, |k, &th| k + u8::from(f > th));
                for c in &mut counts[usize::from(first)..] {
                    *c += 1;
                }
                first_left.push(first);
            }
            thresholds.push(t);
            left_n.push(counts);
        }
        SplitTables { rows, thresholds, left_n, first_left }
    }

    // lint: hot(per-round stump search, run once per boosting round; stack accumulators only, pinned by models/tests/no_alloc_boost.rs)
    /// Fits the best stump for `residuals`: per lag, one sweep sums every
    /// decile's left and right residuals and a second sums every decile's
    /// squared error, both in row order. Ties keep the first candidate in
    /// lag-major, then decile order, as [`reference_stump`] does.
    fn best_stump(&self, residuals: &[f64]) -> Option<Stump> {
        let mut best: Option<(Stump, f64)> = None;
        for (i, firsts) in self.first_left.chunks_exact(self.rows).enumerate() {
            // The sums become the leaf means in place.
            let (mut left, mut right) = split_sums(firsts, residuals);
            let left_n = &self.left_n[i];
            for ((l, r), &n) in left.iter_mut().zip(&mut right).zip(left_n) {
                *l /= n as f64;
                *r /= (self.rows - n) as f64;
            }
            // Row `first` predicts `right` below decile `first`, `left` from it on.
            let mut preds = [left; DECILES + 1];
            for (first, pred) in preds.iter_mut().enumerate() {
                pred[..first].copy_from_slice(&right[..first]);
            }
            let sse = split_sse(firsts, residuals, &preds);
            for q in 0..DECILES {
                if left_n[q] == 0 || left_n[q] == self.rows {
                    continue;
                }
                if best.as_ref().is_none_or(|(_, b)| sse[q] < *b) {
                    let stump = Stump {
                        lag: i + 1,
                        threshold: self.thresholds[i][q],
                        left: left[q],
                        right: right[q],
                    };
                    best = Some((stump, sse[q]));
                }
            }
        }
        best.map(|(s, _)| s)
    }
}

// The two sweeps stay out of line: inlined into the lag loop, their 18 and
// 9 accumulators lose their registers, and a round measured about 1.4×
// slower.

/// First sweep: every decile's left and right residual sums, in row order.
#[inline(never)]
fn split_sums(firsts: &[u8], residuals: &[f64]) -> ([f64; DECILES], [f64; DECILES]) {
    let mut left = [0.0; DECILES];
    let mut right = [0.0; DECILES];
    for (&first, &r) in firsts.iter().zip(residuals) {
        let first = usize::from(first);
        for q in 0..DECILES {
            // Branch-free: each sum takes `r` or is left as it was.
            let is_left = q >= first;
            left[q] = if is_left { left[q] + r } else { left[q] };
            right[q] = if is_left { right[q] } else { right[q] + r };
        }
    }
    (left, right)
}

/// Second sweep: every decile's squared error, in row order, with each
/// row's predictions looked up by its first-left decile.
#[inline(never)]
fn split_sse(
    firsts: &[u8],
    residuals: &[f64],
    preds: &[[f64; DECILES]; DECILES + 1],
) -> [f64; DECILES] {
    let mut sse = [0.0; DECILES];
    for (&first, &r) in firsts.iter().zip(residuals) {
        let pred = &preds[usize::from(first)];
        for q in 0..DECILES {
            sse[q] += (r - pred[q]) * (r - pred[q]);
        }
    }
    sse
}

/// The oracle search: fits the best stump for `residuals` over all lags and
/// a decile grid of thresholds, rebuilding and sorting every lag column and
/// scanning it twice per threshold.
fn reference_stump(values: &[f64], residuals: &[f64], lookback: usize) -> Option<Stump> {
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

    /// Fits like [`Forecaster::fit`], but searches every round with the
    /// original per-round stump search instead of the per-fit split tables.
    /// This is the fast path's correctness oracle: for every series, `fit`
    /// must choose the same stumps and give bit-identical forecasts.
    pub fn fit_reference(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.effective_lookback(v.len());
        self.boost(v, lookback, |residuals| reference_stump(v, residuals, lookback));
        Ok(())
    }

    /// The lookback actually used: at most a third of the series.
    fn effective_lookback(&self, len: usize) -> usize {
        self.lookback.min(len / 3).max(1)
    }

    /// Runs the boosting rounds on `v`, taking each round's stump from
    /// `search` applied to the current residuals.
    fn boost(
        &mut self,
        v: &[f64],
        lookback: usize,
        mut search: impl FnMut(&[f64]) -> Option<Stump>,
    ) {
        let targets = &v[lookback..];
        let base = mean(targets);
        let mut residuals: Vec<f64> = targets.iter().map(|y| y - base).collect();
        let mut stumps = Vec::with_capacity(self.rounds);

        for _ in 0..self.rounds {
            let Some(stump) = search(&residuals) else {
                break;
            };
            // Update residuals with shrunk stump predictions.
            for (i, r) in residuals.iter_mut().enumerate() {
                let feat = v[lookback + i - stump.lag];
                let pred = if feat <= stump.threshold { stump.left } else { stump.right };
                *r -= self.learning_rate * pred;
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
    }
}

impl Forecaster for GradientBoost {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &TimeSeries) -> Result<()> {
        check_train(train, self.min_train_len())?;
        let v = train.values();
        let lookback = self.effective_lookback(v.len());
        let tables = SplitTables::new(v, lookback);
        self.boost(v, lookback, |residuals| tables.best_stump(residuals));
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

    // ---- equivalence of the split-table search with the oracle ----

    use easytime_rng::StdRng;

    const CASES: u64 = 400;
    const MASTER_SEED: u64 = 0xB005_7ED5;
    const ROUNDS: usize = 20;

    fn cases() -> impl Iterator<Item = StdRng> {
        (0..CASES).map(|i| StdRng::seed_from_u64(MASTER_SEED).derive(i))
    }

    /// A seeded series in one of four shapes: smooth (trend, season and
    /// noise), quantised to a coarse grid (ties, so several deciles share a
    /// threshold), a few levels that include both signed zeros, or
    /// constant. A quarter of the series sit at the 16-point minimum.
    fn random_values(rng: &mut StdRng) -> Vec<f64> {
        let n = if rng.gen_bool(0.25) { 16 } else { rng.gen_range(16..100) };
        let level = rng.gen_range_f64(-50.0, 50.0);
        let amp = rng.gen_range_f64(0.0, 10.0);
        let period = rng.gen_range_f64(2.0, 30.0);
        let slope = rng.gen_range_f64(-0.3, 0.3);
        let mut smooth = (0..n).map(move |t| {
            let t = t as f64;
            level + slope * t + amp * (std::f64::consts::TAU * t / period).sin()
        });
        match rng.gen_range(0..4) {
            0 => smooth.map(|v| v + rng.gen_f64() - 0.5).collect(),
            1 => {
                let step = rng.gen_range_f64(0.5, 8.0);
                smooth.map(|v| (v / step).round() * step).collect()
            }
            2 => (0..n).map(|_| [-0.0, 0.0, 1.0, -2.5][rng.gen_range(0..4)]).collect(),
            _ => {
                let v = smooth.next().unwrap_or(0.0);
                vec![v; n]
            }
        }
    }

    fn stump_bits(s: Option<&Stump>) -> Option<(usize, u64, u64, u64)> {
        s.map(|s| (s.lag, s.threshold.to_bits(), s.left.to_bits(), s.right.to_bits()))
    }

    fn forecast_bits(m: &GradientBoost) -> Vec<u64> {
        m.forecast(8).unwrap().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn split_tables_pick_the_oracle_stump_every_round() {
        let (mut rounds, mut tied_lags, mut clamped, mut constant) = (0, 0, 0, 0);
        for (case, mut rng) in cases().enumerate() {
            let values = random_values(&mut rng);
            let lookback = rng.gen_range(1..21);
            let rate = rng.gen_range_f64(0.05, 1.0);
            let mut m = GradientBoost::new(lookback, ROUNDS, rate).unwrap();
            let lb = m.effective_lookback(values.len());
            clamped += usize::from(lb < lookback);
            let tables = SplitTables::new(&values, lb);
            let tied = |t: &&[f64; DECILES]| t.windows(2).any(|w| w[0].total_cmp(&w[1]).is_eq());
            tied_lags += tables.thresholds.iter().filter(tied).count();
            m.boost(&values, lb, |residuals| {
                let fast = tables.best_stump(residuals);
                let oracle = reference_stump(&values, residuals, lb);
                assert_eq!(
                    stump_bits(fast.as_ref()),
                    stump_bits(oracle.as_ref()),
                    "case {case}: split tables and oracle chose different stumps"
                );
                rounds += usize::from(oracle.is_some());
                oracle
            });
            constant += usize::from(m.fitted.as_ref().is_some_and(|st| st.stumps.is_empty()));

            let series = ts(values);
            let mut fast = GradientBoost::new(lookback, ROUNDS, rate).unwrap();
            fast.fit(&series).unwrap();
            let mut oracle = fast.clone();
            oracle.fit_reference(&series).unwrap();
            assert_eq!(
                forecast_bits(&fast),
                forecast_bits(&oracle),
                "case {case}: fit and fit_reference forecasts differ"
            );
        }
        // The generator must keep reaching every regime the suite names.
        assert!(rounds > 4_000, "only {rounds} rounds found a split");
        assert!(tied_lags > 100, "only {tied_lags} lags had repeated thresholds");
        assert!(clamped > 50, "only {clamped} cases clamped the lookback");
        assert!(constant > 20, "only {constant} cases found no split at all");
    }
}
