//! Sequential cyclic-by-rows one-sided Jacobi SVD — the reference
//! implementation every parallel ordering is cross-checked against.
//!
//! This is the textbook Hestenes method (\[7\], \[2\]): sweep over all
//! pairs `(i, j)`, `i < j`, in row-cyclic order, orthogonalizing each; stop
//! when a sweep applies no rotation. It shares the rotation kernels with
//! the parallel path but none of the scheduling machinery.

use crate::options::SvdError;
use crate::result::{complete_orthonormal, Svd};
use crate::screen::screened;
use treesvd_matrix::rotation::orthogonalize_pair;
use treesvd_matrix::Matrix;

/// Result of the sequential reference.
#[derive(Debug)]
pub struct SequentialRun {
    /// The decomposition.
    pub svd: Svd,
    /// Sweeps used.
    pub sweeps: usize,
    /// Per-sweep rotation counts.
    pub rotations_per_sweep: Vec<usize>,
}

/// Compute the SVD of `a` (any shape) by sequential cyclic-by-rows
/// one-sided Jacobi with sorted (descending) singular values.
///
/// # Errors
/// [`SvdError::EmptyMatrix`], [`SvdError::NonFinite`] or
/// [`SvdError::NoConvergence`].
pub fn sequential_svd(a: &Matrix, max_sweeps: usize) -> Result<SequentialRun, SvdError> {
    screened(a, false, |a, _| sweep_to_convergence(a, max_sweeps), |run| &mut run.svd)
}

fn sweep_to_convergence(a: &Matrix, max_sweeps: usize) -> Result<SequentialRun, SvdError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    if a.rows() < a.cols() {
        let at = a.transpose();
        let mut run = sweep_to_convergence(&at, max_sweeps)?;
        std::mem::swap(&mut run.svd.u, &mut run.svd.v);
        return Ok(run);
    }

    let (m, n) = a.shape();
    let mut h = a.clone();
    let mut v = Matrix::identity(n, n).map_err(|_| SvdError::EmptyMatrix)?;
    let threshold = n as f64 * f64::EPSILON;

    let mut rotations_per_sweep = Vec::new();
    let mut converged = false;
    let mut last_coupling = 0.0_f64;
    for _ in 0..max_sweeps {
        let mut rotations = 0usize;
        let mut swaps = 0usize;
        let mut max_coupling = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                // rotate the A columns and V columns with the same (c, s);
                // sort: larger norm goes to the smaller index i
                let (hc_i, hc_j) = h.col_pair_mut(i, j).expect("distinct columns");
                let out = orthogonalize_pair(hc_i, hc_j, threshold, true);
                let swapped_now = {
                    // orthogonalize_pair folds the swap via equation (3);
                    // replay the same decision on V
                    let (vi, vj) = v.col_pair_mut(i, j).expect("distinct columns");
                    replay_on_v(out, vi, vj)
                };
                if !out.rotation.skipped {
                    rotations += 1;
                }
                if swapped_now {
                    swaps += 1;
                }
                max_coupling = max_coupling.max(out.coupling);
            }
        }
        rotations_per_sweep.push(rotations);
        last_coupling = max_coupling;
        if rotations == 0 && swaps == 0 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(SvdError::NoConvergence { sweeps: rotations_per_sweep.len(), last_coupling });
    }

    // extract
    let norms: Vec<f64> = (0..n).map(|j| h.col_norm(j)).collect();
    let max_norm = norms.iter().fold(0.0_f64, |acc, &x| acc.max(x));
    let rank_tol = max_norm * n as f64 * f64::EPSILON;
    let mut u = Matrix::zeros(m, n).map_err(|_| SvdError::EmptyMatrix)?;
    let mut sigma = vec![0.0; n];
    let mut zero_cols = Vec::new();
    for j in 0..n {
        if norms[j] > rank_tol {
            sigma[j] = norms[j];
            let uj = u.col_mut(j);
            uj.copy_from_slice(h.col(j));
            treesvd_matrix::ops::scal(1.0 / norms[j], uj);
        } else {
            zero_cols.push(j);
        }
    }
    let rank = n - zero_cols.len();
    complete_orthonormal(&mut u, &zero_cols);

    Ok(SequentialRun {
        svd: Svd { u, sigma, v, rank },
        sweeps: rotations_per_sweep.len(),
        rotations_per_sweep,
    })
}

/// Apply the same rotation (and swap decision) to the V column pair;
/// returns whether a swap happened.
fn replay_on_v(out: treesvd_matrix::rotation::PairOutcome, vi: &mut [f64], vj: &mut [f64]) -> bool {
    use treesvd_matrix::rotation::{apply_rotation, apply_rotation_swapped};
    let rot = out.rotation;
    if out.used_swap {
        apply_rotation_swapped(rot, vi, vj);
        true
    } else {
        apply_rotation(rot, vi, vj);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_matrix::{checks, generate};

    #[test]
    fn sequential_matches_construction() {
        let sigma = [7.0, 3.0, 1.0];
        let a = generate::with_singular_values(8, &sigma, 21);
        let run = sequential_svd(&a, 40).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-10);
        assert!(run.svd.residual(&a) < 1e-12);
        assert!(run.svd.orthogonality() < 1e-12);
    }

    #[test]
    fn sequential_handles_wide() {
        let at = generate::with_singular_values(9, &[5.0, 2.0], 22);
        let a = at.transpose();
        let run = sequential_svd(&a, 40).unwrap();
        assert_eq!(run.svd.sigma.len(), 2);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-12);
    }

    #[test]
    fn sequential_rank_deficient() {
        let a = generate::rank_deficient(8, 5, 2, 23);
        let run = sequential_svd(&a, 40).unwrap();
        assert_eq!(run.svd.rank, 2);
        assert!(run.svd.orthogonality() < 1e-11);
    }

    #[test]
    fn rotations_decrease_across_sweeps() {
        let a = generate::random_uniform(20, 12, 24);
        let run = sequential_svd(&a, 40).unwrap();
        let r = &run.rotations_per_sweep;
        assert!(r.len() >= 3);
        assert_eq!(*r.last().unwrap(), 0);
        assert!(r[0] >= r[r.len() - 2]);
    }

    #[test]
    fn non_convergence_reports_actual_coupling() {
        // one sweep is never enough for a coupled random matrix, so the
        // error must carry the real last max coupling, not a NaN
        let a = generate::random_uniform(16, 10, 26);
        match sequential_svd(&a, 1) {
            Err(SvdError::NoConvergence { sweeps, last_coupling }) => {
                assert_eq!(sweeps, 1);
                assert!(last_coupling.is_finite(), "coupling is {last_coupling}");
                assert!(last_coupling > 0.0);
                assert!(last_coupling <= 1.0 + 1e-12);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn agrees_with_parallel_driver() {
        let a = generate::random_uniform(18, 14, 25);
        let seq = sequential_svd(&a, 40).unwrap();
        let par = crate::HestenesSvd::new(crate::SvdOptions::default()).compute(&a).unwrap();
        assert!(checks::spectrum_distance(&seq.svd.sigma, &par.svd.sigma) < 1e-9);
    }
}
