//! Small optimizers used by the statistical model fits.
//!
//! * [`grid_search`] — coarse deterministic search over parameter grids,
//!   used to initialize smoothing-parameter fits.
//! * [`nelder_mead`] — derivative-free simplex refinement for continuous
//!   objectives (SSE of one-step-ahead errors in SES/Holt/Holt–Winters and
//!   the ARMA CSS objective).
//! * [`Adam`] — the stochastic-gradient optimizer used by the neural models
//!   and the AutoML classifier.

/// Exhaustively evaluates `objective` on the cartesian grid and returns the
/// best point. `axes` holds the candidate values per dimension.
///
/// Returns `None` when the grid is empty or every objective value is
/// non-finite.
pub(crate) fn grid_search(
    axes: &[Vec<f64>],
    mut objective: impl FnMut(&[f64]) -> f64,
) -> Option<(Vec<f64>, f64)> {
    if axes.is_empty() || axes.iter().any(Vec::is_empty) {
        return None;
    }
    let mut idx = vec![0usize; axes.len()];
    let mut point = vec![0.0; axes.len()];
    let mut best: Option<(Vec<f64>, f64)> = None;
    loop {
        for (d, &i) in idx.iter().enumerate() {
            point[d] = axes[d][i];
        }
        let val = objective(&point);
        if val.is_finite() && best.as_ref().is_none_or(|(_, b)| val < *b) {
            best = Some((point.clone(), val));
        }
        // Odometer increment.
        let mut d = 0;
        loop {
            idx[d] += 1;
            if idx[d] < axes[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
            if d == axes.len() {
                return best;
            }
        }
    }
}

/// Nelder–Mead simplex minimization.
///
/// Starts from `x0` with per-coordinate step `step`, runs at most
/// `max_iter` iterations, and returns the best point found with its
/// objective value. Deterministic; suitable for the low-dimensional
/// smoothing/ARMA objectives in this crate.
pub(crate) fn nelder_mead(
    x0: &[f64],
    step: f64,
    max_iter: usize,
    mut objective: impl FnMut(&[f64]) -> f64,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    if n == 0 {
        return (Vec::new(), objective(&[]));
    }
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // Initial simplex: x0 plus one perturbed vertex per dimension.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = objective(x0);
    simplex.push((x0.to_vec(), f0));
    for d in 0..n {
        let mut v = x0.to_vec();
        v[d] += step;
        let fv = objective(&v);
        simplex.push((v, fv));
    }

    let finite = |v: f64| if v.is_finite() { v } else { f64::INFINITY };

    for _ in 0..max_iter {
        simplex.sort_by(|a, b| finite(a.1).total_cmp(&finite(b.1)));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (finite(worst) - finite(best)).abs() < 1e-12 {
            break;
        }

        // Centroid of all but the worst vertex: one contiguous axpy per
        // vertex with the reciprocal hoisted out of the inner loop.
        let inv_n = 1.0 / n as f64;
        let mut centroid = vec![0.0; n];
        for (v, _) in simplex.iter().take(n) {
            easytime_linalg::kernels::axpy(inv_n, v, &mut centroid);
        }

        let reflect: Vec<f64> = centroid
            .iter()
            .zip(&simplex[n].0)
            .map(|(c, w)| c + alpha * (c - w))
            .collect();
        let fr = finite(objective(&reflect));

        if fr < finite(simplex[0].1) {
            // Try expanding further.
            let expand: Vec<f64> = centroid
                .iter()
                .zip(&reflect)
                .map(|(c, r)| c + gamma * (r - c))
                .collect();
            let fe = finite(objective(&expand));
            simplex[n] = if fe < fr { (expand, fe) } else { (reflect, fr) };
        } else if fr < finite(simplex[n - 1].1) {
            simplex[n] = (reflect, fr);
        } else {
            // Contract towards the centroid.
            let contract: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n].0)
                .map(|(c, w)| c + rho * (w - c))
                .collect();
            let fc = finite(objective(&contract));
            if fc < finite(simplex[n].1) {
                simplex[n] = (contract, fc);
            } else {
                // Shrink everything towards the best vertex.
                let best_v = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    for (x, &b) in vertex.0.iter_mut().zip(&best_v) {
                        *x = b + sigma * (*x - b);
                    }
                    vertex.1 = objective(&vertex.0);
                }
            }
        }
    }
    simplex.sort_by(|a, b| finite(a.1).total_cmp(&finite(b.1)));
    simplex.swap_remove(0)
}

/// Adam optimizer state for a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer for `dim` parameters with learning rate `lr`.
    pub fn new(dim: usize, lr: f64) -> Adam {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![0.0; dim], v: vec![0.0; dim], t: 0 }
    }

    /// Applies one update step: `params -= lr * m̂ / (√v̂ + ε)`.
    ///
    /// # Panics
    /// Panics if `params`/`grads` lengths differ from the construction `dim`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "Adam: parameter dim mismatch");
        assert_eq!(grads.len(), self.m.len(), "Adam: gradient dim mismatch");
        self.t += 1;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the step counter counts optimizer updates within one training run, far \
                      below i32::MAX"
        )]
        let t = self.t as i32;
        let b1t = 1.0 - self.beta1.powi(t);
        let b2t = 1.0 - self.beta2.powi(t);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_search_finds_minimum_cell() {
        let axes = vec![vec![-1.0, 0.0, 1.0, 2.0], vec![-2.0, 0.5, 3.0]];
        let (best, val) =
            grid_search(&axes, |p| (p[0] - 1.0).powi(2) + (p[1] - 0.5).powi(2)).unwrap();
        assert_eq!(best, vec![1.0, 0.5]);
        assert_eq!(val, 0.0);
    }

    #[test]
    fn grid_search_ignores_non_finite_cells() {
        let axes = vec![vec![0.0, 1.0]];
        let (best, _) =
            grid_search(&axes, |p| if p[0] == 0.0 { f64::NAN } else { 5.0 }).unwrap();
        assert_eq!(best, vec![1.0]);
        assert!(grid_search(&[], |_| 0.0).is_none());
        assert!(grid_search(&[vec![]], |_| 0.0).is_none());
    }

    #[test]
    fn nelder_mead_minimizes_quadratic() {
        let (x, f) = nelder_mead(&[5.0, -3.0], 0.5, 500, |p| {
            (p[0] - 1.0).powi(2) + 10.0 * (p[1] - 2.0).powi(2)
        });
        assert!(f < 1e-8, "objective {f}");
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!((x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn nelder_mead_minimizes_rosenbrock() {
        let (x, f) = nelder_mead(&[-1.2, 1.0], 0.5, 2000, |p| {
            (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2)
        });
        assert!(f < 1e-4, "objective {f} at {x:?}");
    }

    #[test]
    fn nelder_mead_survives_nan_regions() {
        // NaN outside the unit box; the optimum on the boundary region is
        // still found.
        let (x, f) = nelder_mead(&[0.5], 0.1, 200, |p| {
            if p[0].abs() > 1.0 {
                f64::NAN
            } else {
                (p[0] - 0.3).powi(2)
            }
        });
        assert!(f < 1e-6);
        assert!((x[0] - 0.3).abs() < 1e-2);
    }

    #[test]
    fn adam_converges_on_convex_problem() {
        let mut params = vec![4.0, -7.0];
        let mut opt = Adam::new(2, 0.1);
        for _ in 0..2000 {
            let grads = vec![2.0 * (params[0] - 1.0), 2.0 * (params[1] + 2.0)];
            opt.step(&mut params, &grads);
        }
        assert!((params[0] - 1.0).abs() < 1e-3, "{params:?}");
        assert!((params[1] + 2.0).abs() < 1e-3, "{params:?}");
    }
}
