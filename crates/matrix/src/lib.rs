//! Dense column-major matrix substrate for the `treesvd` workspace.
//!
//! This crate provides the numerical building blocks used by the one-sided
//! (Hestenes) Jacobi SVD of Zhou & Brent, *Parallel Computation of the
//! Singular Value Decomposition on Tree Architectures* (ICPP 1993):
//!
//! * [`Matrix`] — a dense, column-major `f64` matrix whose columns are
//!   contiguous slices, so a plane rotation of two columns touches exactly
//!   two cache-friendly runs of memory;
//! * [`rotation`] — the Hestenes plane-rotation kernels, including the
//!   *rotation-with-swap* of the paper's equation (3), which folds a column
//!   interchange into the rotation itself;
//! * [`generate`] — reproducible test-matrix generators (random dense,
//!   prescribed singular spectrum, graded, rank-deficient, …);
//! * [`checks`] — residual and orthogonality measures used by the test
//!   suite and the experiment harness;
//! * [`scaling`] — exact power-of-two rescaling of inputs whose entries
//!   would overflow or underflow when squared;
//! * [`aligned`] — column storage whose first value sits on a 64-byte
//!   line, for the sweep drivers and the QR working matrix.
//!
//! The crate is deliberately free of external linear-algebra dependencies:
//! every kernel needed by the paper (dot products, norms, Householder
//! reflectors for generating random orthogonal factors, small matrix
//! products for verification) is implemented here.
//!
//! ```
//! use treesvd_matrix::Matrix;
//! use treesvd_matrix::rotation::orthogonalize_pair;
//! use treesvd_matrix::ops::dot;
//!
//! let mut a = Matrix::from_row_major(3, 2, &[1.0, 2.0, 2.0, 0.5, 3.0, 1.0]).unwrap();
//! let (x, y) = a.col_pair_mut(0, 1).unwrap();
//! let outcome = orthogonalize_pair(x, y, 0.0, true);
//! assert!(!outcome.rotation.skipped);
//! assert!(dot(a.col(0), a.col(1)).abs() < 1e-12);  // now orthogonal
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
pub mod cache;
pub mod checks;
pub mod error;
pub mod generate;
pub mod matrix;
pub mod ops;
#[cfg(test)]
mod proptests;
pub mod qr;
pub mod rng;
pub mod rotation;
pub mod scaling;
pub mod soa;

pub use error::MatrixError;
pub use matrix::Matrix;
pub use rotation::Rotation;

/// Machine epsilon for `f64`, re-exported for convenience in tolerances.
pub const EPS: f64 = f64::EPSILON;
