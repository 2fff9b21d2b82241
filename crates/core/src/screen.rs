//! The entry screen every driver runs once on its input.
//!
//! One read pass over `A` rejects NaN and ±∞ with
//! [`SvdError::NonFinite`] and finds `max|aᵢⱼ|`. An input whose largest
//! entry lies outside the window of [`treesvd_matrix::scaling`] is swept
//! at the exact power-of-two scale that brings it into `[1, 2)`, and the
//! computed singular values are multiplied back; `U` and `V` do not
//! depend on the scale. Inside the window nothing is copied, so results
//! are bitwise unchanged.

use crate::options::SvdError;
use crate::result::Svd;
use treesvd_matrix::scaling::{self, mul_pow2, shift_for};
use treesvd_matrix::Matrix;

/// Screen `a`, run `solve` on it (or on its rescaled copy), and undo the
/// scale on the singular values of the decomposition `svd` selects from
/// the run.
///
/// # Errors
/// [`SvdError::NonFinite`] for the first NaN or infinite entry (in
/// column-major order), before `solve` runs; otherwise whatever `solve`
/// returns.
pub(crate) fn screened<R>(
    a: &Matrix,
    solve: impl FnOnce(&Matrix) -> Result<R, SvdError>,
    svd: impl FnOnce(&mut R) -> &mut Svd,
) -> Result<R, SvdError> {
    let shift = shift_for(finite_max_abs(a)?);
    if shift == 0 {
        return solve(a);
    }
    let mut scaled = a.clone();
    for x in scaled.as_mut_slice() {
        *x = mul_pow2(*x, shift);
    }
    let mut run = solve(&scaled)?;
    for s in &mut svd(&mut run).sigma {
        *s = mul_pow2(*s, -shift);
    }
    Ok(run)
}

/// `max|aᵢⱼ|`, or the position of the first entry that is not finite.
fn finite_max_abs(a: &Matrix) -> Result<f64, SvdError> {
    scaling::finite_max_abs(a.as_slice()).ok_or_else(|| {
        // the error path alone pays for locating the entry
        let at = a.as_slice().iter().position(|x| !x.is_finite()).unwrap_or(0);
        SvdError::NonFinite { row: at % a.rows(), col: at / a.rows() }
    })
}
