//! Residual and orthogonality measures used to *verify* SVD results.

use crate::matrix::Matrix;

/// `‖QᵀQ − I‖_F` — how far the columns of `Q` are from orthonormal.
pub fn orthogonality_residual(q: &Matrix) -> f64 {
    let qtq = q.transpose().matmul(q).expect("shapes agree");
    let i = Matrix::identity(qtq.rows(), qtq.cols()).expect("nonzero dims");
    qtq.sub(&i).expect("same shape").frobenius_norm()
}

/// Relative reconstruction residual `‖A − U·diag(σ)·Vᵀ‖_F / ‖A‖_F`.
///
/// For a zero matrix the absolute residual is returned.
///
/// # Panics
/// Panics if shapes are inconsistent (`U: m×n`, `sigma: n`, `V: n×n`).
pub fn reconstruction_residual(a: &Matrix, u: &Matrix, sigma: &[f64], v: &Matrix) -> f64 {
    assert_eq!(u.cols(), sigma.len(), "U/sigma shape mismatch");
    assert_eq!(v.cols(), sigma.len(), "V/sigma shape mismatch");
    let d = Matrix::diagonal(sigma.len(), sigma).expect("square diagonal");
    let usv = u.matmul(&d).expect("shapes agree").matmul(&v.transpose()).expect("shapes agree");
    let num = a.sub(&usv).expect("same shape").frobenius_norm();
    let den = a.frobenius_norm();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

/// The *off-diagonal measure* driving Jacobi convergence:
/// `off(A)² = Σ_{i<j} (aᵢ·aⱼ)²` over all column pairs.
///
/// The Hestenes iteration converges when `off(A)` (suitably normalized)
/// reaches roundoff; its per-sweep decrease is ultimately quadratic (§1).
pub fn off_diagonal_measure(a: &Matrix) -> f64 {
    let n = a.cols();
    let mut acc = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = a.col_dot(i, j);
            acc += d * d;
        }
    }
    acc.sqrt()
}

/// Normalized off-diagonal measure: `off(A) / ‖A‖_F²` — scale-invariant,
/// suitable as a convergence criterion across matrices.
pub fn off_diagonal_relative(a: &Matrix) -> f64 {
    let f = a.frobenius_norm();
    if f == 0.0 {
        0.0
    } else {
        off_diagonal_measure(a) / (f * f)
    }
}

/// Check that `values` is nonincreasing (allowing exact ties).
pub fn is_nonincreasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] >= w[1])
}

/// Check that `values` is nondecreasing (allowing exact ties).
pub fn is_nondecreasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] <= w[1])
}

/// Maximum relative deviation between two sorted spectra, using
/// `max(1, σ)`-scaling so tiny singular values are compared absolutely.
///
/// # Panics
/// Panics if lengths differ.
pub fn spectrum_distance(computed: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(computed.len(), reference.len(), "spectrum length mismatch");
    computed
        .iter()
        .zip(reference.iter())
        .map(|(&c, &r)| (c - r).abs() / r.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn orthogonality_residual_of_identity_is_zero() {
        let i = Matrix::identity(4, 4).unwrap();
        assert_eq!(orthogonality_residual(&i), 0.0);
    }

    #[test]
    fn orthogonality_residual_detects_skew() {
        let mut m = Matrix::identity(3, 3).unwrap();
        m.set(0, 1, 0.5);
        assert!(orthogonality_residual(&m) > 0.4);
    }

    #[test]
    fn reconstruction_residual_exact_factorization() {
        let u = generate::random_orthogonal(5, 1);
        let v = generate::random_orthogonal(5, 2);
        let sigma = [5.0, 4.0, 3.0, 2.0, 1.0];
        let d = Matrix::diagonal(5, &sigma).unwrap();
        let a = u.matmul(&d).unwrap().matmul(&v.transpose()).unwrap();
        assert!(reconstruction_residual(&a, &u, &sigma, &v) < 1e-13);
    }

    #[test]
    fn nan_factors_have_nan_residuals() {
        // a U of nothing but NaN, or of NaN and zeros, must not score as a
        // perfect factor: norm2's scale skips NaN entries
        let a = generate::random_uniform(4, 2, 5);
        let v = Matrix::identity(2, 2).unwrap();
        let all_nan = Matrix::from_row_major(4, 2, &[f64::NAN; 8]).unwrap();
        let mut nan_and_zeros = Matrix::zeros(4, 2).unwrap();
        nan_and_zeros.set(0, 0, f64::NAN);
        nan_and_zeros.set(1, 1, f64::NAN);
        for u in [all_nan, nan_and_zeros] {
            assert!(orthogonality_residual(&u).is_nan(), "{u:?}");
            assert!(reconstruction_residual(&a, &u, &[2.0, 1.0], &v).is_nan(), "{u:?}");
        }
    }

    #[test]
    fn off_measure_zero_for_orthogonal_columns() {
        let m = generate::already_orthogonal(6, 4, 7);
        assert!(off_diagonal_measure(&m) < 1e-12);
        assert!(off_diagonal_relative(&m) < 1e-13);
    }

    #[test]
    fn off_measure_positive_for_coupled_columns() {
        let m = Matrix::from_row_major(2, 2, &[1.0, 1.0, 0.0, 1.0]).unwrap();
        assert!(off_diagonal_measure(&m) > 0.5);
    }

    #[test]
    fn off_relative_is_scale_invariant() {
        let m = generate::random_uniform(8, 6, 3);
        let mut m2 = m.clone();
        m2.scale(1000.0);
        let a = off_diagonal_relative(&m);
        let b = off_diagonal_relative(&m2);
        assert!((a - b).abs() < 1e-12 * a.max(b));
    }

    #[test]
    fn monotonicity_helpers() {
        assert!(is_nonincreasing(&[3.0, 2.0, 2.0, 1.0]));
        assert!(!is_nonincreasing(&[1.0, 2.0]));
        assert!(is_nondecreasing(&[1.0, 1.0, 4.0]));
        assert!(!is_nondecreasing(&[2.0, 1.0]));
        assert!(is_nonincreasing(&[]));
        assert!(is_nonincreasing(&[1.0]));
    }

    #[test]
    fn spectrum_distance_basics() {
        assert_eq!(spectrum_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((spectrum_distance(&[1.1, 2.0], &[1.0, 2.0]) - 0.1).abs() < 1e-12);
        // tiny reference values compared absolutely, not relatively
        assert!(spectrum_distance(&[1e-16], &[0.0]) < 1e-15);
    }
}
