//! The SVD result type, the extraction every Jacobi driver ends with, and
//! orthonormal completion.

use crate::options::SvdError;
use treesvd_matrix::{ops, Matrix, MatrixError};
use treesvd_sim::SortMode;

/// A thin singular value decomposition `A = U · diag(σ) · Vᵀ` of an
/// `m × n` matrix (`m ≥ n`): `U` is `m × n` with orthonormal columns,
/// `σ` has length `n` (sorted according to the driver's sort mode), and
/// `V` is `n × n` orthogonal.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × n`.
    pub u: Matrix,
    /// Singular values.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × n`.
    pub v: Matrix,
    /// Numerical rank: the number of singular values above the driver's
    /// rank tolerance (`‖A‖ · n · ε` scaled).
    pub rank: usize,
}

impl Svd {
    /// Relative reconstruction residual `‖A − UΣVᵀ‖_F / ‖A‖_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        treesvd_matrix::checks::reconstruction_residual(a, &self.u, &self.sigma, &self.v)
    }

    /// `max(‖UᵀU − I‖_F, ‖VᵀV − I‖_F)` — orthogonality of the factors.
    pub fn orthogonality(&self) -> f64 {
        treesvd_matrix::checks::orthogonality_residual(&self.u)
            .max(treesvd_matrix::checks::orthogonality_residual(&self.v))
    }

    /// The best rank-`k` approximation `U_k Σ_k V_kᵀ` (requires sorted σ).
    ///
    /// # Errors
    /// Returns a [`MatrixError`] if `k` is 0 or exceeds `σ.len()`.
    pub fn truncate(&self, k: usize) -> Result<Matrix, MatrixError> {
        if k == 0 || k > self.sigma.len() {
            return Err(MatrixError::IndexOutOfBounds { index: k, bound: self.sigma.len() + 1 });
        }
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n)?;
        for t in 0..k {
            let ut = self.u.col(t);
            let vt = self.v.col(t);
            let s = self.sigma[t];
            for (j, &vtj) in vt.iter().enumerate() {
                let col = out.col_mut(j);
                let w = s * vtj;
                for (o, &u) in col.iter_mut().zip(ut.iter()) {
                    *o += u * w;
                }
            }
        }
        Ok(out)
    }
}

/// Extract `U`, `σ`, `V` from converged one-sided Jacobi columns: the
/// last step of both the unblocked and the blocked driver.
///
/// `col(j)` returns the converged `A` column (length `m`) and `V` column
/// (length `n_pad`, read only when `vectors` is set) holding index label
/// `j`, for every label in `0..n_pad`; labels `n..n_pad` are padding.
/// The singular values are the `A` column norms. Norms at or below
/// `max σ · n_pad · ε` count as zero, and their `U`/`V` columns are
/// completed to an orthonormal basis.
///
/// # Errors
/// [`SvdError::EmptyMatrix`] if `m` or `n` is zero.
pub(crate) fn extract_svd<'c>(
    col: impl Fn(usize) -> (&'c [f64], &'c [f64]),
    m: usize,
    n: usize,
    n_pad: usize,
    sort: SortMode,
    vectors: bool,
) -> Result<Svd, SvdError> {
    // label order after the tie repair below: output column j is label
    // order[j]
    let mut order: Vec<usize> = (0..n_pad).collect();
    let mut norms: Vec<f64> = order.iter().map(|&j| ops::norm2(col(j).0)).collect();

    // The larger-norm-to-smaller-label rule orders columns by the norms
    // the sweep tracked; re-measuring the converged columns can land a
    // (near-)duplicate pair the other way round in the last few ulps.
    // Repair only those measurement-level ties — a larger inversion is
    // a real ordering bug and must stay visible to the sorted-σ tests.
    if sort == SortMode::Descending {
        let tied = |lo: f64, hi: f64| hi - lo <= 4.0 * f64::EPSILON * hi;
        let mut swapped = true;
        while swapped {
            swapped = false;
            for j in 1..norms.len() {
                if norms[j - 1] < norms[j] && tied(norms[j - 1], norms[j]) {
                    norms.swap(j - 1, j);
                    order.swap(j - 1, j);
                    swapped = true;
                }
            }
        }
    }
    let max_norm = norms.iter().fold(0.0_f64, |acc, &v| acc.max(v));
    let rank_tol = max_norm * n_pad as f64 * f64::EPSILON;

    // keep the first n (for descending sort the padding zeros are at the
    // tail; without sorting the padded columns never swap, so they also
    // sit at labels >= n)
    let mut u = Matrix::zeros(m, n).map_err(|_| SvdError::EmptyMatrix)?;
    let mut sigma = vec![0.0; n];
    let mut zero_u = Vec::new();
    for j in 0..n {
        if norms[j] > rank_tol {
            sigma[j] = norms[j];
            let uj = u.col_mut(j);
            uj.copy_from_slice(col(order[j]).0);
            ops::scal(1.0 / norms[j], uj);
        } else {
            zero_u.push(j);
        }
    }
    let rank = n - zero_u.len();
    complete_orthonormal(&mut u, &zero_u);

    let v = if vectors {
        let mut v = Matrix::zeros(n, n).map_err(|_| SvdError::EmptyMatrix)?;
        let mut zero_v = Vec::new();
        for j in 0..n {
            // rotations only ever mix V columns within the original
            // coordinates (padded columns never rotate), so a column
            // belonging to a nonzero singular value is supported on the
            // first n coordinates; a padded column that was swapped into
            // the leading block is a unit vector in a padded coordinate
            // and gets re-completed below.
            let head = &col(order[j]).1[..n];
            if sigma[j] > 0.0 || ops::norm2(head) > 0.5 {
                v.set_col(j, head);
            } else {
                zero_v.push(j);
            }
        }
        complete_orthonormal(&mut v, &zero_v);
        v
    } else {
        Matrix::identity(n, n).map_err(|_| SvdError::EmptyMatrix)?
    };
    Ok(Svd { u, sigma, v, rank })
}

/// Replace (near-)zero columns of `q` with unit vectors orthonormal to all
/// other columns, via modified Gram–Schmidt over candidate axis vectors.
///
/// Used to complete `U` and `V` when the matrix is rank-deficient (or was
/// padded): columns whose singular value is zero carry no direction of
/// their own but the factors must still be orthonormal.
///
/// # Panics
/// Panics if completion is impossible (`q` has more columns than rows).
pub fn complete_orthonormal(q: &mut Matrix, zero_cols: &[usize]) {
    let m = q.rows();
    let n = q.cols();
    assert!(m >= n, "cannot complete a wide matrix to orthonormal columns");
    for &j in zero_cols {
        let mut best: Option<Vec<f64>> = None;
        let mut best_norm = 0.0_f64;
        // try axis vectors; keep the one with the largest residual after
        // orthogonalization for stability
        for axis in 0..m {
            let mut cand = vec![0.0; m];
            cand[axis] = 1.0;
            for other in 0..n {
                if other == j {
                    continue;
                }
                // not-yet-completed zero columns are zero vectors, so
                // orthogonalizing against them is a harmless no-op
                let col = q.col(other);
                let proj = treesvd_matrix::ops::dot(&cand, col);
                treesvd_matrix::ops::axpy(-proj, col, &mut cand);
            }
            let norm = treesvd_matrix::ops::norm2(&cand);
            if norm > best_norm {
                best_norm = norm;
                best = Some(cand);
            }
            if best_norm > 0.7 {
                break; // good enough, avoid O(m²) scans
            }
        }
        let mut cand = best.expect("completion candidate exists");
        let norm = treesvd_matrix::ops::norm2(&cand);
        assert!(norm > 1e-8, "orthonormal completion failed");
        treesvd_matrix::ops::scal(1.0 / norm, &mut cand);
        // one re-orthogonalization pass for numerical hygiene
        for other in 0..n {
            if other == j {
                continue;
            }
            let col = q.col(other);
            let proj = treesvd_matrix::ops::dot(&cand, col);
            treesvd_matrix::ops::axpy(-proj, col, &mut cand);
        }
        let norm = treesvd_matrix::ops::norm2(&cand);
        treesvd_matrix::ops::scal(1.0 / norm, &mut cand);
        q.set_col(j, &cand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_matrix::generate;

    #[test]
    fn truncate_reproduces_full_matrix_at_full_rank() {
        let sigma = [3.0, 2.0, 1.0];
        let a = generate::with_singular_values(5, &sigma, 3);
        // build an exact SVD by construction
        let u = generate::random_orthogonal(5, 100);
        let v = generate::random_orthogonal(3, 101);
        let mut um = Matrix::zeros(5, 3).unwrap();
        for j in 0..3 {
            let src = u.col(j).to_vec();
            um.set_col(j, &src);
        }
        let d = Matrix::diagonal(5, &sigma).unwrap();
        let a2 = u.matmul(&d).unwrap().matmul(&v.transpose()).unwrap();
        let svd = Svd { u: um, sigma: sigma.to_vec(), v: v.clone(), rank: 3 };
        let full = svd.truncate(3).unwrap();
        assert!(full.sub(&a2).unwrap().frobenius_norm() < 1e-12);
        let _ = a;
    }

    #[test]
    fn truncate_rejects_bad_k() {
        let svd = Svd {
            u: Matrix::identity(3, 2).unwrap(),
            sigma: vec![1.0, 0.5],
            v: Matrix::identity(2, 2).unwrap(),
            rank: 2,
        };
        assert!(svd.truncate(0).is_err());
        assert!(svd.truncate(3).is_err());
        assert!(svd.truncate(2).is_ok());
    }

    #[test]
    fn truncation_error_is_tail_sigma() {
        // ‖A − A_k‖_F = sqrt(σ_{k+1}² + …) for the best rank-k approximation
        let sigma = [4.0, 2.0, 1.0];
        let a = generate::with_singular_values(6, &sigma, 9);
        let run = crate::HestenesSvd::new(crate::SvdOptions::default()).compute(&a).unwrap();
        let a1 = run.svd.truncate(1).unwrap();
        let err = a.sub(&a1).unwrap().frobenius_norm();
        let expect = (4.0_f64 + 1.0).sqrt(); // sqrt(2² + 1²)
        assert!((err - expect).abs() < 1e-8, "err {err} vs {expect}");
    }

    #[test]
    fn completion_fills_zero_columns() {
        let mut q = Matrix::zeros(4, 3).unwrap();
        // columns 0 and 2 orthonormal, column 1 zero
        q.set(0, 0, 1.0);
        q.set(1, 2, 1.0);
        complete_orthonormal(&mut q, &[1]);
        assert!(treesvd_matrix::checks::orthogonality_residual(&q) < 1e-12);
    }

    #[test]
    fn completion_of_multiple_columns() {
        let mut q = Matrix::zeros(5, 4).unwrap();
        q.set(2, 0, 1.0);
        complete_orthonormal(&mut q, &[1, 2, 3]);
        assert!(treesvd_matrix::checks::orthogonality_residual(&q) < 1e-12);
    }

    #[test]
    fn svd_quality_metrics() {
        let a = generate::with_singular_values(8, &[5.0, 3.0, 1.0, 0.5], 17);
        let run = crate::HestenesSvd::new(crate::SvdOptions::default()).compute(&a).unwrap();
        assert!(run.svd.residual(&a) < 1e-12);
        assert!(run.svd.orthogonality() < 1e-12);
        assert_eq!(run.svd.rank, 4);
    }
}
