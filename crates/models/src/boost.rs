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
//! fit, and each round screens before it searches. One scatter-add per row
//! and lag bins the residuals by the row's first-left decile, and the bin
//! sums give every split's squared error as `Σr² − L²/n_l − R²/n_r`. That
//! estimate is computed in a different order than the exact search, so it
//! only ranks the candidates: a proven bound on its rounding error decides
//! which lags can hold the exact minimum, and only those get the two exact
//! row-order sweeps. When a single candidate survives, one pass computes
//! its leaf sums. Where the bound does not apply (residuals outside the
//! normal range, or not finite), every lag is swept exactly. Rounds are
//! allocation-free. [`GradientBoost::fit_reference`] keeps the original
//! search, which sorts every lag column and scans it twice per threshold in
//! every round, as the oracle. Every candidate that can be the minimum is
//! summed with the same additions in the same order as the oracle sums it,
//! so both pick bit-identical stumps.

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

/// Which search a round ran, so the equivalence suite can count the paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Search {
    /// One candidate survived the screen; one pass gave its leaf sums.
    Single,
    /// The screen left candidates in this many lags, each swept exactly.
    Screened(usize),
    /// The rounding bound did not apply, so every lag was swept exactly.
    Unscreened,
}

/// The residual-independent half of the stump search, built once per fit,
/// and the buffer the per-round screen writes.
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
    /// Per lag: each decile's estimated squared error in the current round,
    /// or NaN where the split leaves a side empty (NaN passes no cutoff).
    estimates: Vec<[f64; DECILES]>,
}

impl SplitTables {
    /// Builds the tables for `values`, sorting the series once for every
    /// lag's thresholds (see [`lag_deciles`]), and indexes every row.
    fn new(values: &[f64], lookback: usize) -> SplitTables {
        SplitTables::with_thresholds(values, lookback, lag_deciles(values, lookback))
    }

    /// Builds the tables from each lag's decile `thresholds`, indexing
    /// every row of every lag column against them.
    fn with_thresholds(
        values: &[f64],
        lookback: usize,
        thresholds: Vec<[f64; DECILES]>,
    ) -> SplitTables {
        let rows = values.len() - lookback;
        let mut left_n = Vec::with_capacity(lookback);
        let mut first_left = Vec::with_capacity(lookback * rows);
        for (lag, t) in (1..=lookback).zip(&thresholds) {
            let feats = &values[lookback - lag..values.len() - lag];
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
            left_n.push(counts);
        }
        let estimates = vec![[0.0; DECILES]; lookback];
        SplitTables { rows, thresholds, left_n, first_left, estimates }
    }

    /// One lag's first-left deciles, in row order.
    fn column(&self, lag: usize) -> &[u8] {
        &self.first_left[lag * self.rows..(lag + 1) * self.rows]
    }

    // lint: hot(per-round stump search, run once per boosting round; writes the per-fit estimate buffer and sweeps with stack accumulators, pinned by models/tests/no_alloc_boost.rs)
    /// Fits the best stump for `residuals` and reports which search it ran.
    /// The screen estimates every candidate's squared error; only lags with
    /// a candidate that can equal the exact minimum are swept exactly, and a
    /// lone surviving candidate needs only its leaf sums. Where the screen's
    /// rounding bound does not apply, every lag is swept. Either way the
    /// stump is the one [`reference_stump`] picks, ties included: the first
    /// candidate in lag-major, then decile order with the least squared
    /// error, as the reference computes it.
    fn best_stump(&mut self, residuals: &[f64]) -> (Option<Stump>, Search) {
        let mut best = None;
        let Some(cutoff) = self.screen(residuals) else {
            for lag in 0..self.estimates.len() {
                self.sweep(lag, residuals, &mut best);
            }
            return (best.map(|(s, _)| s), Search::Unscreened);
        };
        let survives = |e: &f64| *e <= cutoff;
        let mut survivors = self.estimates.iter().enumerate().flat_map(|(lag, est)| {
            est.iter().enumerate().filter(|(_, e)| survives(e)).map(move |(q, _)| (lag, q))
        });
        if let (Some((lag, q)), None) = (survivors.next(), survivors.next()) {
            return (Some(self.leaf_stump(lag, q, residuals)), Search::Single);
        }
        let mut swept = 0;
        for lag in 0..self.estimates.len() {
            if self.estimates[lag].iter().any(survives) {
                self.sweep(lag, residuals, &mut best);
                swept += 1;
            }
        }
        (best.map(|(s, _)| s), Search::Screened(swept))
    }

    /// Fills `estimates` for `residuals` and returns the cutoff at or below
    /// which an estimate may belong to the exact minimum, or `None` where
    /// the rounding bound does not apply.
    ///
    /// A split with `n_l` rows summing to `L` on the left and `n_r` summing
    /// to `R` on the right has squared error `Σr² − L²/n_l − R²/n_r` about
    /// its leaf means. The estimate evaluates that with `L` and `R` taken
    /// from per-lag bin sums (bin = first-left decile) instead of row-order
    /// sums, so it differs from the float sum the reference computes, and
    /// the bound below says by how much.
    fn screen(&mut self, residuals: &[f64]) -> Option<f64> {
        let (sq, max) = square_sum_and_max(residuals);
        let rows = self.rows;
        let (mut min, mut finite) = (f64::INFINITY, true);
        let lags = self.first_left.chunks_exact(rows).zip(&self.left_n);
        for ((firsts, left_n), est) in lags.zip(&mut self.estimates) {
            let bins = bin_sums(firsts, residuals);
            let total: f64 = bins.iter().sum();
            let mut left = 0.0;
            for q in 0..DECILES {
                left += bins[q];
                let n = left_n[q];
                est[q] = f64::NAN;
                if n == 0 || n == rows {
                    continue;
                }
                let right = total - left;
                let e = sq - left * left / n as f64 - right * right / (rows - n) as f64;
                finite &= e.is_finite();
                min = min.min(e);
                est[q] = e;
            }
        }
        // The bound. Write n = rows, M = max|r|, u = 2⁻⁵³, and S for a
        // split's squared error in exact arithmetic, so S ≤ Σr² ≤ nM². Each
        // operation rounds with relative error at most u, and a k-term sum,
        // in any order, errs by at most ku·Σ|terms| (to first order; for
        // n ≤ 2²⁰ the neglected terms are below n²u ≤ 2⁻¹³ relative).
        // - The reference's float SSE F: its leaf means are within nuM of
        //   the exact ones. The deviations from an exact mean sum to zero,
        //   so about the rounded means Σ(r − mean)² exceeds S only by a
        //   second-order n(nuM)². Each squared difference errs by ≤ 3u
        //   relative and the row-order sum by ≤ (n − 1)u, on a total of at
        //   most nM². So |F − S| ≤ (n + 5)²uM².
        // - The estimate: Σr² errs by ≤ n²uM². L passes through at most
        //   n + 9 additions (its bins, then the prefix), so it errs by
        //   ≤ (n + 9)u·n_l·M, and R = total − L by ≤ (2n + 22)u·nM. Since
        //   |L̂² − L²| = |L̂ − L|·|L̂ + L| ≤ |L̂ − L|·2n_l·M, the L²/n_l term
        //   errs by ≤ 2(n + 10)u·n_l·M² and the R²/n_r term by
        //   ≤ (4(n + 11)n + 2n_r)uM²; the two final subtractions add 2nuM².
        //   In all, (7n² + 68n)uM² ≤ 7(n + 5)²uM².
        // So |estimate − F| ≤ 8(n + 5)²uM² ≤ E/4 for the E below. The
        // reference's minimum F* is at most F of the candidate with the
        // least estimate, so every candidate whose F equals F* has an
        // estimate within E/2 of the least one. The cutoff, 2E above it,
        // keeps them all with a fourfold margin, which also covers the
        // rounding of E and the cutoff; a swept lag then recomputes each F
        // exactly, and every lag left out holds only candidates with F > F*.
        //
        // The model needs normal-range arithmetic: M in [2⁻⁴⁵⁰, 2⁴⁵⁰] keeps
        // every square and sum finite, and keeps the absolute error of a
        // result below the normal range (≤ 2⁻¹⁰⁷⁵ each) far under E. Outside
        // that range, or with a non-finite estimate, every lag is swept.
        let bound = 64.0 * ((rows + 4) as f64).powi(2) * (f64::EPSILON / 2.0) * max * max;
        let normal = (2f64.powi(-450)..=2f64.powi(450)).contains(&max) && rows <= 1 << 20;
        (normal && finite && bound.is_finite()).then_some(min + 2.0 * bound)
    }

    /// Sweeps one lag exactly: one pass sums every decile's left and right
    /// residuals and a second sums every decile's squared error, both in
    /// row order, and `best` takes any candidate with a strictly smaller
    /// error, in decile order.
    fn sweep(&self, lag: usize, residuals: &[f64], best: &mut Option<(Stump, f64)>) {
        let firsts = self.column(lag);
        // The sums become the leaf means in place.
        let (mut left, mut right) = split_sums(firsts, residuals);
        let left_n = &self.left_n[lag];
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
                    lag: lag + 1,
                    threshold: self.thresholds[lag][q],
                    left: left[q],
                    right: right[q],
                };
                *best = Some((stump, sse[q]));
            }
        }
    }

    /// The stump of one split, its leaf sums accumulated in row order as
    /// [`split_sums`] accumulates them.
    fn leaf_stump(&self, lag: usize, q: usize, residuals: &[f64]) -> Stump {
        let (mut left, mut right) = (0.0, 0.0);
        for (&first, &r) in self.column(lag).iter().zip(residuals) {
            let is_left = q >= usize::from(first);
            left = if is_left { left + r } else { left };
            right = if is_left { right } else { right + r };
        }
        let n = self.left_n[lag][q];
        Stump {
            lag: lag + 1,
            threshold: self.thresholds[lag][q],
            left: left / n as f64,
            right: right / (self.rows - n) as f64,
        }
    }
}

/// Each lag's decile thresholds: the values at ranks `(q + 1)(rows − 1)/10`
/// of its column sorted by `total_cmp`. Every lag column is a window of the
/// series, so the series is sorted once, as (value, index) pairs, and each
/// column's sorted values are that order filtered to the column's window.
/// Values that `total_cmp` ranks equal have equal bits, so the filtered
/// list is bit for bit the one a sort of the column gives.
fn lag_deciles(values: &[f64], lookback: usize) -> Vec<[f64; DECILES]> {
    let mut order: Vec<(f64, usize)> = values.iter().copied().zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut sorted = Vec::with_capacity(values.len() - lookback);
    (1..=lookback)
        .map(|lag| {
            let window = lookback - lag..values.len() - lag;
            sorted.clear();
            sorted.extend(order.iter().filter(|(_, i)| window.contains(i)).map(|&(v, _)| v));
            deciles(&sorted)
        })
        .collect()
}

/// The per-lag sort that [`lag_deciles`] replaced, kept as its oracle: each
/// lag column is copied and sorted on its own.
#[cfg(test)]
fn lag_deciles_reference(values: &[f64], lookback: usize) -> Vec<[f64; DECILES]> {
    (1..=lookback)
        .map(|lag| {
            let mut sorted = values[lookback - lag..values.len() - lag].to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            deciles(&sorted)
        })
        .collect()
}

/// The nine decile thresholds of a sorted, non-empty column.
fn deciles(sorted: &[f64]) -> [f64; DECILES] {
    std::array::from_fn(|q| sorted[((q + 1) * (sorted.len() - 1)) / 10])
}

// The screen's passes accumulate in four lanes, so that no addition waits
// on the one before it (at 268 rows and 12 lags, the bins took 2.5 µs a
// round instead of 4.3 µs, the squares 0.15 µs instead of 0.9 µs); the
// bound holds for any summation order.

/// `Σr²` and `max|r|` of the residuals. A NaN residual is left out of the
/// maximum but makes the sum NaN.
fn square_sum_and_max(residuals: &[f64]) -> (f64, f64) {
    let (mut sq, mut max) = ([0.0; 4], [0.0; 4]);
    let mut chunks = residuals.chunks_exact(4);
    for chunk in &mut chunks {
        for k in 0..4 {
            sq[k] += chunk[k] * chunk[k];
            max[k] = if chunk[k].abs() > max[k] { chunk[k].abs() } else { max[k] };
        }
    }
    for &r in chunks.remainder() {
        sq[0] += r * r;
        max[0] = if r.abs() > max[0] { r.abs() } else { max[0] };
    }
    let max = max.into_iter().fold(0.0, |m, a| if a > m { a } else { m });
    ((sq[0] + sq[1]) + (sq[2] + sq[3]), max)
}

/// The residual sum of each first-left bin of one lag: one scatter-add
/// per row.
fn bin_sums(firsts: &[u8], residuals: &[f64]) -> [f64; DECILES + 1] {
    let mut bins = [[0.0; DECILES + 1]; 4];
    let mut firsts = firsts.chunks_exact(4);
    let mut rs = residuals.chunks_exact(4);
    for (first, r) in (&mut firsts).zip(&mut rs) {
        for k in 0..4 {
            bins[k][usize::from(first[k])] += r[k];
        }
    }
    for (&first, &r) in firsts.remainder().iter().zip(rs.remainder()) {
        bins[0][usize::from(first)] += r;
    }
    std::array::from_fn(|b| (bins[0][b] + bins[1][b]) + (bins[2][b] + bins[3][b]))
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
        let mut tables = SplitTables::new(v, lookback);
        self.boost(v, lookback, |residuals| tables.best_stump(residuals).0);
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

    /// A seeded series in one of six shapes: smooth (trend, season and
    /// noise), quantised to a coarse grid (ties, so several deciles share a
    /// threshold), a few levels that include both signed zeros, constant,
    /// smooth but scaled out of the screen's range, or periodic integers.
    /// Scaled by 1e305 (and lifted so the targets' sum overflows) the mean
    /// is infinite and the residuals are not finite; by 1e150 the squares
    /// stay finite but pass 2⁹⁰⁰; by 1e-160 and 1e-300 they fall below the
    /// normal range. A periodic series repeats its lag columns, so splits on
    /// different lags tie exactly. A quarter of the series sit at the
    /// 16-point minimum.
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
        match rng.gen_range(0..6) {
            0 => smooth.map(|v| v + rng.gen_f64() - 0.5).collect(),
            1 => {
                let step = rng.gen_range_f64(0.5, 8.0);
                smooth.map(|v| (v / step).round() * step).collect()
            }
            2 => (0..n).map(|_| [-0.0, 0.0, 1.0, -2.5][rng.gen_range(0..4)]).collect(),
            3 => {
                let v = smooth.next().unwrap_or(0.0);
                vec![v; n]
            }
            4 => {
                let scale = [1e305, 1e150, 1e-160, 1e-300][rng.gen_range(0..4)];
                let lift = if scale > 1e300 { 1e3 } else { 0.0 };
                smooth.map(|v| (v + lift) * scale).collect()
            }
            _ => {
                let cycle: Vec<f64> = (0..rng.gen_range(1..8))
                    .map(|_| rng.gen_range(0..9) as f64 - 4.0)
                    .collect();
                cycle.iter().copied().cycle().take(n).collect()
            }
        }
    }

    fn stump_bits(s: Option<&Stump>) -> Option<(usize, u64, u64, u64)> {
        s.map(|s| (s.lag, s.threshold.to_bits(), s.left.to_bits(), s.right.to_bits()))
    }

    fn forecast_bits(m: &GradientBoost) -> Vec<u64> {
        m.forecast(8).unwrap().iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that `tables`, built from one sort of the series, equal
    /// field by field and bit for bit the tables built from per-lag sorts.
    fn assert_tables_match_per_lag_sorts(
        tables: &SplitTables,
        values: &[f64],
        lookback: usize,
        what: &str,
    ) {
        let thresholds = lag_deciles_reference(values, lookback);
        let oracle = SplitTables::with_thresholds(values, lookback, thresholds);
        let bits = |t: &SplitTables| -> Vec<u64> {
            t.thresholds.iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(tables.rows, oracle.rows, "{what}: rows");
        assert_eq!(bits(tables), bits(&oracle), "{what}: thresholds");
        assert_eq!(tables.left_n, oracle.left_n, "{what}: left counts");
        assert_eq!(tables.first_left, oracle.first_left, "{what}: first-left deciles");
    }

    #[test]
    fn split_tables_pick_the_oracle_stump_every_round() {
        // Tie-heavy inputs first: periodic integers, whose lag columns hold
        // the same values, and a series holding both signed zeros, which
        // `total_cmp` orders but `>` does not.
        let periodic: Vec<f64> = (0..60).map(|t| [3.0, -1.0, 4.0, 1.0, -5.0][t % 5]).collect();
        let zeros: Vec<f64> =
            (0..60).map(|t| [0.0, -0.0, 1.0, -0.0, 0.0, -2.5, 0.0][t % 7]).collect();
        for (name, values) in [("periodic", periodic), ("signed zeros", zeros)] {
            for lookback in [1, 5, 12, 20] {
                let tables = SplitTables::new(&values, lookback);
                let what = format!("{name}, lookback {lookback}");
                assert_tables_match_per_lag_sorts(&tables, &values, lookback, &what);
            }
        }

        let (mut rounds, mut tied_lags, mut clamped, mut constant) = (0, 0, 0, 0);
        let (mut single, mut several_lags, mut unscreened, mut not_finite) = (0, 0, 0, 0);
        for (case, mut rng) in cases().enumerate() {
            let values = random_values(&mut rng);
            let lookback = rng.gen_range(1..21);
            let rate = rng.gen_range_f64(0.05, 1.0);
            let mut m = GradientBoost::new(lookback, ROUNDS, rate).unwrap();
            let lb = m.effective_lookback(values.len());
            clamped += usize::from(lb < lookback);
            let mut tables = SplitTables::new(&values, lb);
            assert_tables_match_per_lag_sorts(&tables, &values, lb, &format!("case {case}"));
            let tied = |t: &&[f64; DECILES]| t.windows(2).any(|w| w[0].total_cmp(&w[1]).is_eq());
            tied_lags += tables.thresholds.iter().filter(tied).count();
            m.boost(&values, lb, |residuals| {
                let (fast, search) = tables.best_stump(residuals);
                let oracle = reference_stump(&values, residuals, lb);
                assert_eq!(
                    stump_bits(fast.as_ref()),
                    stump_bits(oracle.as_ref()),
                    "case {case}: split tables ({search:?}) and oracle chose different stumps"
                );
                rounds += usize::from(oracle.is_some());
                single += usize::from(search == Search::Single);
                several_lags += usize::from(matches!(search, Search::Screened(2..)));
                unscreened += usize::from(search == Search::Unscreened);
                not_finite += usize::from(residuals.iter().any(|r| !r.is_finite()));
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
        // The generator must keep reaching every regime the suite names,
        // and every search the screen can choose.
        assert!(rounds > 4_000, "only {rounds} rounds found a split");
        assert!(tied_lags > 100, "only {tied_lags} lags had repeated thresholds");
        assert!(clamped > 50, "only {clamped} cases clamped the lookback");
        assert!(constant > 20, "only {constant} cases found no split at all");
        assert!(single > 900, "only {single} rounds had a single surviving candidate");
        assert!(several_lags > 350, "only {several_lags} rounds swept several lags");
        assert!(unscreened > 600, "only {unscreened} rounds fell back to sweeping every lag");
        assert!(not_finite > 150, "only {not_finite} rounds had non-finite residuals");
    }
}
