//! Ensemble weight learning on the validation split.
//!
//! The paper: EasyTime "learns the ensemble weights on the validation part
//! of X such that it fits the best to X". We solve the constrained least
//! squares problem — minimize `‖Σ wᵢ fᵢ − y‖²` subject to `wᵢ ≥ 0`,
//! `Σ wᵢ = 1` — with exponentiated-gradient descent, which keeps iterates
//! on the simplex by construction and is robust to collinear members.
//!
//! The loss is quadratic in `w`, so its gradient needs only the Gram
//! system `G = FFᵀ/n`, `b = Fy/n` of the member forecasts `F` and the
//! actual `y` over the `n` validation points. It is built once per fit, in
//! units of the window's scale `max|y|`, and each step then costs O(k²)
//! instead of a pass over the window.

use crate::error::AutoMlError;
use easytime_linalg::kernels::dot;

/// Learns simplex-constrained combination weights.
///
/// `member_preds[i]` holds member `i`'s predictions on the validation
/// window; `actual` is the ground truth. Returns one weight per member.
///
/// The members and the actual are divided by the scale `max|y|` (floored
/// at 1e-9) before the Gram system is built. In those units the gradient
/// is `Gw − b` and the step size is exactly 1: the per-sample form's
/// learning rate `1/scale²`, which overflows to 0 for values past about
/// 1e154, is folded into the system. Scaling every input by a power of two
/// changes no bit of the weights.
pub(crate) fn learn_simplex_weights(
    member_preds: &[Vec<f64>],
    actual: &[f64],
    iterations: usize,
) -> Result<Vec<f64>, AutoMlError> {
    let k = member_preds.len();
    if k == 0 {
        return Err(AutoMlError::InvalidInput { reason: "no ensemble members".into() });
    }
    let n = actual.len();
    if n == 0 {
        return Err(AutoMlError::InvalidInput { reason: "empty validation window".into() });
    }
    for (i, p) in member_preds.iter().enumerate() {
        if p.len() != n {
            return Err(AutoMlError::InvalidInput {
                reason: format!("member {i} has {} predictions, expected {n}", p.len()),
            });
        }
        if p.iter().any(|v| !v.is_finite()) {
            return Err(AutoMlError::InvalidInput {
                reason: format!("member {i} produced non-finite predictions"),
            });
        }
    }
    if k == 1 {
        return Ok(vec![1.0]);
    }

    let scale: f64 = actual.iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-9);
    // The members, then the actual, in units of the scale: n values each.
    let mut columns = Vec::with_capacity((k + 1) * n);
    for p in member_preds.iter().map(Vec::as_slice).chain([actual]) {
        columns.extend(p.iter().map(|v| v / scale));
    }
    let column = |i: usize| &columns[i * n..(i + 1) * n];
    // Row i of the system: Gᵢ₀ … Gᵢ,ₖ₋₁ and then bᵢ.
    let mut system = Vec::with_capacity(k * (k + 1));
    for i in 0..k {
        system.extend((0..=k).map(|j| dot(column(i), column(j)) / n as f64));
    }
    let mut w = vec![1.0 / k as f64; k];
    let mut next = vec![0.0; k];
    descend(&system, &mut w, &mut next, iterations);
    Ok(w)
}

// lint: hot(the 1,500 exponentiated-gradient steps of every learned ensemble fit, O(k²) each on the per-fit Gram system; pinned by automl/tests/no_alloc_weights.rs)
/// Takes `iterations` (at least one) exponentiated-gradient steps from `w`
/// on `system`, whose row `i` holds `Gᵢ₀ … Gᵢ,ₖ₋₁, bᵢ`, with `next` as
/// scratch. A step multiplies each weight by `exp(−(Gw − b)ᵢ)`, the
/// exponent clamped to ±30 for stability, and renormalises. A step whose
/// total is not positive and finite ends the descent where it stands.
fn descend(system: &[f64], w: &mut [f64], next: &mut [f64], iterations: usize) {
    let k = w.len();
    for _ in 0..iterations.max(1) {
        let mut norm = 0.0;
        for ((v, row), wi) in next.iter_mut().zip(system.chunks_exact(k + 1)).zip(w.iter()) {
            let grad = dot(&row[..k], w) - row[k];
            *v = wi * (-grad).clamp(-30.0, 30.0).exp();
            norm += *v;
        }
        if norm <= 0.0 || !norm.is_finite() {
            break;
        }
        for (wi, v) in w.iter_mut().zip(next.iter()) {
            *wi = v / norm;
        }
    }
}

/// The per-sample form the Gram form replaced, kept as its oracle. Each
/// step recombines the members over the whole window and makes one
/// gradient pass per member, at learning rate `1/scale²`. Also reports
/// whether any step's exponent reached the ±30 clamp. Takes inputs that
/// [`learn_simplex_weights`] accepts, with at least two members.
#[cfg(test)]
fn reference_weights(
    member_preds: &[Vec<f64>],
    actual: &[f64],
    iterations: usize,
) -> (Vec<f64>, bool) {
    let (k, n) = (member_preds.len(), actual.len());
    // Scale-aware learning rate: gradients are O(scale²).
    let scale: f64 = actual.iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-9);
    let lr = 1.0 / (scale * scale);

    let mut w = vec![1.0 / k as f64; k];
    let mut combined = vec![0.0; n];
    let mut clamped = false;
    for _ in 0..iterations.max(1) {
        // combined = Σ wᵢ fᵢ
        for (t, c) in combined.iter_mut().enumerate() {
            *c = member_preds.iter().zip(&w).map(|(p, wi)| wi * p[t]).sum();
        }
        // gradient of 0.5‖combined − y‖²/n wrt wᵢ = Σ (combined−y)·fᵢ / n
        let mut updated = Vec::with_capacity(k);
        let mut norm = 0.0;
        for (i, wi) in w.iter().enumerate() {
            let grad: f64 = combined
                .iter()
                .zip(actual)
                .zip(&member_preds[i])
                .map(|((c, y), f)| (c - y) * f)
                .sum::<f64>()
                / n as f64;
            // Exponentiated gradient step (clamped for stability).
            let exponent = -lr * grad;
            clamped |= exponent.abs() > 30.0;
            let v = wi * exponent.clamp(-30.0, 30.0).exp();
            norm += v;
            updated.push(v);
        }
        if norm <= 0.0 || !norm.is_finite() {
            break;
        }
        for (wi, v) in w.iter_mut().zip(updated) {
            *wi = v / norm;
        }
    }
    (w, clamped)
}

/// The uniform-weights baseline (ablation A4).
pub(crate) fn uniform_weights(k: usize) -> Vec<f64> {
    vec![1.0 / k.max(1) as f64; k]
}

/// Combines member forecasts with the given weights.
pub(crate) fn combine(member_preds: &[Vec<f64>], weights: &[f64]) -> Vec<f64> {
    assert_eq!(member_preds.len(), weights.len(), "member/weight count mismatch");
    if member_preds.is_empty() {
        return Vec::new();
    }
    let n = member_preds[0].len();
    (0..n)
        .map(|t| member_preds.iter().zip(weights).map(|(p, w)| w * p[t]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse(pred: &[f64], actual: &[f64]) -> f64 {
        pred.iter().zip(actual).map(|(p, a)| (p - a) * (p - a)).sum::<f64>() / actual.len() as f64
    }

    #[test]
    fn weights_live_on_the_simplex() {
        let preds = vec![vec![1.0, 2.0, 3.0], vec![3.0, 2.0, 1.0], vec![2.0, 2.0, 2.0]];
        let actual = vec![2.0, 2.0, 2.0];
        let w = learn_simplex_weights(&preds, &actual, 500).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn perfect_member_gets_dominant_weight() {
        let actual: Vec<f64> = (0..20).map(|t| (t as f64 * 0.3).sin()).collect();
        let good = actual.clone();
        let bad: Vec<f64> = actual.iter().map(|v| v + 5.0).collect();
        let w = learn_simplex_weights(&[good, bad], &actual, 2000).unwrap();
        assert!(w[0] > 0.9, "good member weight {}", w[0]);
    }

    #[test]
    fn learned_weights_beat_uniform_when_members_differ() {
        let actual: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let good: Vec<f64> = actual.iter().map(|v| v + 0.1).collect();
        let bad: Vec<f64> = actual.iter().map(|v| v * 0.5).collect();
        let preds = vec![good, bad];
        let learned = learn_simplex_weights(&preds, &actual, 2000).unwrap();
        let u = uniform_weights(2);
        let mse_learned = mse(&combine(&preds, &learned), &actual);
        let mse_uniform = mse(&combine(&preds, &u), &actual);
        assert!(
            mse_learned < mse_uniform,
            "learned {mse_learned} should beat uniform {mse_uniform}"
        );
    }

    #[test]
    fn complementary_members_both_keep_weight() {
        // Truth is exactly the average of the two members.
        let m1: Vec<f64> = (0..40).map(|t| (t as f64 * 0.2).sin() + 1.0).collect();
        let m2: Vec<f64> = (0..40).map(|t| (t as f64 * 0.2).sin() - 1.0).collect();
        let actual: Vec<f64> = m1.iter().zip(&m2).map(|(a, b)| (a + b) / 2.0).collect();
        let w = learn_simplex_weights(&[m1, m2], &actual, 3000).unwrap();
        assert!((w[0] - 0.5).abs() < 0.1, "w0 {}", w[0]);
        assert!((w[1] - 0.5).abs() < 0.1, "w1 {}", w[1]);
    }

    #[test]
    fn validates_inputs() {
        assert!(learn_simplex_weights(&[], &[1.0], 10).is_err());
        assert!(learn_simplex_weights(&[vec![1.0]], &[], 10).is_err());
        assert!(learn_simplex_weights(&[vec![1.0, 2.0]], &[1.0], 10).is_err());
        assert!(learn_simplex_weights(&[vec![f64::NAN]], &[1.0], 10).is_err());
        // Single member short-circuits to weight 1.
        assert_eq!(learn_simplex_weights(&[vec![5.0]], &[1.0], 10).unwrap(), vec![1.0]);
    }

    #[test]
    fn combine_is_a_convex_combination() {
        let preds = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        let c = combine(&preds, &[0.3, 0.7]);
        assert!((c[0] - 7.0).abs() < 1e-12);
        assert!((c[1] - 3.0).abs() < 1e-12);
        assert!(combine(&[], &[]).is_empty());
    }

    #[test]
    fn large_scale_series_converge_too() {
        // Regression guard for the scale-aware learning rate.
        let actual: Vec<f64> = (0..25).map(|t| 1e6 + t as f64 * 100.0).collect();
        let good = actual.clone();
        let bad: Vec<f64> = actual.iter().map(|v| v - 5e4).collect();
        let w = learn_simplex_weights(&[good, bad], &actual, 2000).unwrap();
        assert!(w[0] > 0.8, "good member weight {} at scale 1e6", w[0]);
    }

    #[test]
    fn values_past_1e154_still_learn() {
        // At 1e160 the per-sample form's learning rate 1/scale² overflows
        // to 0, so its weights never leave the uniform start.
        let unit: Vec<f64> = (0..48).map(|t| 1.0 + 0.5 * (t as f64 * 0.4).sin()).collect();
        let at = |scale: f64| {
            let actual: Vec<f64> = unit.iter().map(|v| v * scale).collect();
            let good = actual.iter().map(|v| v * 1.02).collect();
            let bad = actual.iter().map(|v| v * 0.7).collect();
            (vec![good, bad], actual)
        };
        let (members, actual) = at(1e160);
        assert_eq!(reference_weights(&members, &actual, WEIGHT_ITERATIONS).0, vec![0.5, 0.5]);
        let w160 = learn_simplex_weights(&members, &actual, WEIGHT_ITERATIONS).unwrap();
        let (members, actual) = at(1e100);
        let w100 = learn_simplex_weights(&members, &actual, WEIGHT_ITERATIONS).unwrap();
        assert!(w160[0] > 0.9, "weights {w160:?} at 1e160");
        for (a, b) in w100.iter().zip(&w160) {
            assert!((a - b).abs() <= 1e-12, "weights {w100:?} at 1e100, {w160:?} at 1e160");
        }
    }

    // ---- the Gram form against the per-sample oracle ----

    use crate::ensemble::WEIGHT_ITERATIONS;
    use easytime_rng::StdRng;
    use std::f64::consts::TAU;

    const CASES: u64 = 3_000;
    const MASTER_SEED: u64 = 0x5E_ED0F_6A2A;

    fn cases() -> impl Iterator<Item = StdRng> {
        (0..CASES).map(|i| StdRng::seed_from_u64(MASTER_SEED).derive(i))
    }

    /// A seeded validation window and its members. The actual is a level,
    /// trend, season and noise at a scale drawn log-uniformly from 1e-3 to
    /// 1e7, over 4 to 200 points. Each of 2 to 5 members is a noisy copy of
    /// it, a rescaled copy, a constant, or a duplicate of an earlier member.
    /// One rescaled copy in four is 10 to 50 times the window's scale, which
    /// sends the first steps into the ±30 clamp.
    fn random_case(rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
        let k = rng.gen_range(2..6);
        let n = rng.gen_range(4..201);
        let scale = 10f64.powf(rng.gen_range_f64(-3.0, 7.0));
        let level = rng.gen_range_f64(-1.0, 1.0);
        let slope = rng.gen_range_f64(-0.02, 0.02);
        let amp = rng.gen_range_f64(0.0, 1.0);
        let period = rng.gen_range_f64(2.0, 24.0);
        let actual: Vec<f64> = (0..n)
            .map(|t| {
                let t = t as f64;
                let signal = level + slope * t + amp * (TAU * t / period).sin();
                scale * (signal + 0.1 * rng.normal())
            })
            .collect();
        let mut members: Vec<Vec<f64>> = Vec::with_capacity(k);
        while members.len() < k {
            let member = match rng.gen_range(0..4) {
                0 => {
                    let noise = scale * rng.gen_range_f64(0.01, 1.0);
                    actual.iter().map(|y| y + noise * rng.normal()).collect()
                }
                1 => {
                    let factor = if rng.gen_bool(0.25) {
                        rng.gen_range_f64(10.0, 50.0)
                    } else {
                        rng.gen_range_f64(0.5, 1.5)
                    };
                    actual.iter().map(|y| y * factor).collect()
                }
                2 => vec![scale * rng.gen_range_f64(-2.0, 2.0); n],
                _ if members.is_empty() => continue,
                _ => members[rng.gen_range(0..members.len())].clone(),
            };
            members.push(member);
        }
        (members, actual)
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    /// The tolerance oracle. Both forms take the same steps up to rounding,
    /// so the weights must agree within 1e-9 and the validation MSE within
    /// 1e-9 relative, except where rounding decides the weights:
    /// - a step of the per-sample form reaches the ±30 clamp;
    /// - or, below the clamp, a member that dwarfs the window makes the
    ///   unit step overshoot until the iterates never settle. The
    ///   per-sample form then moves by more than 1e-9 itself when every
    ///   input is multiplied by 3, which rounds it differently.
    /// Those cases are counted and held to the simplex only. The MSE is
    /// compared relative to itself plus (1e-6·scale)², since a near-exact
    /// fit's MSE is rounding noise.
    #[test]
    fn gram_form_matches_the_per_sample_oracle() {
        let (mut held, mut clamped, mut unsettled) = (0, 0, 0);
        for (case, mut rng) in cases().enumerate() {
            let (members, actual) = random_case(&mut rng);
            let gram = learn_simplex_weights(&members, &actual, WEIGHT_ITERATIONS).unwrap();
            assert!(gram.iter().all(|w| w.is_finite() && *w >= 0.0), "case {case}: {gram:?}");
            let sum: f64 = gram.iter().sum();
            assert!((sum - 1.0).abs() <= 1e-12, "case {case}: weights {gram:?} sum to {sum}");
            let (oracle, reached_clamp) = reference_weights(&members, &actual, WEIGHT_ITERATIONS);
            if reached_clamp {
                clamped += 1;
                continue;
            }
            let mse_gram = mse(&combine(&members, &gram), &actual);
            let mse_oracle = mse(&combine(&members, &oracle), &actual);
            let floor = (1e-6 * max_abs(&actual)).powi(2);
            if max_diff(&gram, &oracle) <= 1e-9
                && (mse_gram - mse_oracle).abs() <= 1e-9 * (mse_oracle + floor)
            {
                held += 1;
                continue;
            }
            let tripled = |v: &[f64]| v.iter().map(|x| x * 3.0).collect::<Vec<f64>>();
            let members3: Vec<Vec<f64>> = members.iter().map(|m| tripled(m)).collect();
            let (moved, _) = reference_weights(&members3, &tripled(&actual), WEIGHT_ITERATIONS);
            assert!(
                max_diff(&moved, &oracle) > 1e-9,
                "case {case}: weights {gram:?}, oracle {oracle:?}; \
                 validation MSE {mse_gram}, oracle {mse_oracle}"
            );
            unsettled += 1;
        }
        // The generator must keep reaching every regime.
        assert!(
            held >= 2_400,
            "only {held} of {CASES} cases held to the tolerance \
             ({clamped} reached the clamp, {unsettled} never settled)"
        );
        assert!(clamped >= 400, "only {clamped} cases reached the clamp");
    }

    /// Scaling the members and the actual by 2^e scales the window's scale
    /// by exactly 2^e, so the Gram system, and every step after it, keeps
    /// its bits. Cases whose scale would fall under the 1e-9 floor at 2⁻²⁰
    /// are skipped; 500 cases give 2,000 comparisons.
    #[test]
    fn weights_are_exactly_scale_free() {
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let inputs = cases()
            .map(|mut rng| random_case(&mut rng))
            .filter(|(_, actual)| max_abs(actual) * 2f64.powi(-20) >= 1e-9)
            .take(500);
        let mut checked = 0;
        for (case, (members, actual)) in inputs.enumerate() {
            let base = learn_simplex_weights(&members, &actual, WEIGHT_ITERATIONS).unwrap();
            for e in [-20, 64, 300, 600] {
                let factor = 2f64.powi(e);
                let scaled = |v: &[f64]| v.iter().map(|x| x * factor).collect::<Vec<f64>>();
                let members: Vec<Vec<f64>> = members.iter().map(|m| scaled(m)).collect();
                let w =
                    learn_simplex_weights(&members, &scaled(&actual), WEIGHT_ITERATIONS).unwrap();
                assert_eq!(bits(&w), bits(&base), "case {case} scaled by 2^{e}: {w:?} vs {base:?}");
                checked += 1;
            }
        }
        assert_eq!(checked, 2_000);
    }
}
