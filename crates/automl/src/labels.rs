//! Conversion of per-series method scores into (soft) classification labels.
//!
//! The paper trains its classifier "by using the soft-label loss \[10\]"
//! (SimpleTS): instead of a one-hot target naming only the single best
//! method, the target is a probability distribution that rewards *every*
//! close-to-best method. We build it from normalized scores with a softmax
//! at temperature `tau`; failed methods (NaN score) receive zero mass.

use easytime_linalg::stats::softmax;

/// Builds a soft-label distribution from a lower-is-better score vector.
///
/// Scores are min-max normalized to `[0, 1]`; the label is
/// `softmax(-z / tau)`. Small `tau` approaches one-hot on the best method;
/// large `tau` approaches uniform. NaN scores get zero probability.
/// Returns a uniform distribution when every score is NaN or they are all
/// equal.
pub(crate) fn soft_labels(scores: &[f64], tau: f64) -> Vec<f64> {
    let tau = tau.max(1e-3);
    let finite: Vec<f64> = scores.iter().copied().filter(|s| s.is_finite()).collect();
    if finite.is_empty() {
        return vec![1.0 / scores.len().max(1) as f64; scores.len()];
    }
    let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);

    // Logits for finite entries; −∞ for failures so softmax assigns zero.
    let logits: Vec<f64> = scores
        .iter()
        .map(|s| {
            if s.is_finite() {
                -((s - lo) / range) / tau
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect();
    // softmax() handles −∞ via exp(−∞) = 0 as long as at least one entry is
    // finite (guaranteed above).
    softmax(&logits)
}

/// Builds a one-hot label on the single best (lowest) score — the
/// hard-label baseline of ablation A1. Ties go to the first index; all-NaN
/// returns uniform.
pub(crate) fn hard_labels(scores: &[f64]) -> Vec<f64> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in scores.iter().enumerate() {
        if s.is_finite() && best.is_none_or(|(_, b)| s < b) {
            best = Some((i, s));
        }
    }
    match best {
        Some((i, _)) => {
            let mut out = vec![0.0; scores.len()];
            out[i] = 1.0;
            out
        }
        None => vec![1.0 / scores.len().max(1) as f64; scores.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_labels_are_a_distribution_favoring_the_best() {
        let p = soft_labels(&[1.0, 2.0, 10.0], 0.3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn temperature_controls_sharpness() {
        let scores = [1.0, 1.1, 5.0];
        let sharp = soft_labels(&scores, 0.01);
        let smooth = soft_labels(&scores, 5.0);
        assert!(sharp[0] > smooth[0]);
        // Near-uniform at high temperature.
        assert!((smooth[0] - smooth[2]).abs() < 0.2);
        // Near-one-hot at low temperature.
        assert!(sharp[0] > 0.7);
    }

    #[test]
    fn close_methods_share_mass() {
        // Two nearly-tied methods should both receive substantial mass —
        // the whole point of soft labels.
        let p = soft_labels(&[1.0, 1.01, 100.0], 0.3);
        assert!(p[1] > 0.3, "runner-up mass {}", p[1]);
        assert!(p[2] < 0.1);
    }

    #[test]
    fn failed_methods_get_zero_mass() {
        let p = soft_labels(&[1.0, f64::NAN, 2.0], 0.3);
        assert_eq!(p[1], 0.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_failed_or_empty_degrades_to_uniform() {
        let p = soft_labels(&[f64::NAN, f64::NAN], 0.3);
        assert_eq!(p, vec![0.5, 0.5]);
        let q = soft_labels(&[3.0, 3.0, 3.0], 0.3);
        for v in q {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hard_labels_pick_the_minimum() {
        assert_eq!(hard_labels(&[3.0, 1.0, 2.0]), vec![0.0, 1.0, 0.0]);
        assert_eq!(hard_labels(&[f64::NAN, 5.0]), vec![0.0, 1.0]);
        assert_eq!(hard_labels(&[f64::NAN, f64::NAN]), vec![0.5, 0.5]);
    }
}
