//! Dense linear-algebra and statistics kernels for EasyTime.
//!
//! This crate is the numerical substrate shared by the synthetic data
//! generators, the forecasting model zoo, the representation module, and the
//! AutoML classifier. It deliberately implements a small, well-tested subset
//! of dense linear algebra from scratch (no BLAS/LAPACK dependency):
//!
//! * [`kernels`] — cache-blocked, multi-accumulator compute kernels with a
//!   fixed reassociation order (the deterministic fast path everything
//!   else is built on).
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual algebra.
//! * [`solve`] — LU / Cholesky solvers and (ridge) least squares.
//! * [`stats`] — descriptive statistics, autocorrelation, and regression
//!   helpers used throughout the benchmark.
//!
//! All routines are deterministic and allocation-conscious: hot paths accept
//! slices and reuse buffers where practical, per the workspace performance
//! guidelines.

#![forbid(unsafe_code)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::float_cmp
)]

pub mod kernels;
pub mod matrix;
pub mod solve;
pub mod stats;

pub use matrix::Matrix;
pub use solve::{lstsq, lu_solve, ridge, LinalgError};

/// Convenience result alias for fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
