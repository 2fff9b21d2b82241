//! The entry screen every driver runs once on its input.
//!
//! One read pass over `A` rejects NaN and ±∞ with
//! [`SvdError::NonFinite`] and finds `max|aᵢⱼ|`. An input whose largest
//! entry lies outside the window of [`treesvd_matrix::scaling`] is swept
//! at the exact power-of-two scale that brings it into `[1, 2)`, and the
//! computed singular values are multiplied back; `U` and `V` do not
//! depend on the scale. Inside the window nothing is copied, so results
//! are bitwise unchanged.
//!
//! When the QR front-end will run, the same pass also sums the squares of
//! each column — of each row for a wide input, whose transpose the
//! front-end factors — so the front-end can sort the columns by norm
//! without reading `A` again (see [`crate::tall`]).

use crate::options::SvdError;
use crate::result::Svd;
use treesvd_matrix::scaling::{self, mul_pow2, shift_for};
use treesvd_matrix::Matrix;

/// Screen `a`, run `solve` on it (or on its rescaled copy), and undo the
/// scale on the singular values of the decomposition `svd` selects from
/// the run. With `norms` set, `solve` also gets the sums of squares of
/// the columns of `a` — of its rows when `a` is wide — read from the
/// matrix it solves; otherwise it gets an empty slice.
///
/// # Errors
/// [`SvdError::NonFinite`] for the first NaN or infinite entry (in
/// column-major order), before `solve` runs; otherwise whatever `solve`
/// returns.
pub(crate) fn screened<R>(
    a: &Matrix,
    norms: bool,
    solve: impl FnOnce(&Matrix, &[f64]) -> Result<R, SvdError>,
    svd: impl FnOnce(&mut R) -> &mut Svd,
) -> Result<R, SvdError> {
    let (max_abs, sums) = scan(a, norms)?;
    let shift = shift_for(max_abs);
    if shift == 0 {
        return solve(a, &sums);
    }
    let mut scaled = a.clone();
    for x in scaled.as_mut_slice() {
        *x = mul_pow2(*x, shift);
    }
    // the squares of the unscaled entries may have left the normal range
    let sums = if norms { scan(&scaled, true)?.1 } else { sums };
    let mut run = solve(&scaled, &sums)?;
    for s in &mut svd(&mut run).sigma {
        *s = mul_pow2(*s, -shift);
    }
    Ok(run)
}

/// `max|aᵢⱼ|` and, with `norms`, the sums of squares of the columns of
/// `a` (of its rows when it is wide), or the position of the first entry
/// that is not finite.
fn scan(a: &Matrix, norms: bool) -> Result<(f64, Vec<f64>), SvdError> {
    let (m, n) = a.shape();
    let mut sums = Vec::new();
    let max_abs = if !norms || m == 0 || n == 0 {
        scaling::finite_max_abs(a.as_slice())
    } else if m >= n {
        sums.reserve_exact(n);
        a.as_slice().chunks_exact(m).try_fold(0.0_f64, |max, col| {
            let (col_max, sum) = scaling::finite_max_abs_sumsq(col)?;
            sums.push(sum);
            Some(max.max(col_max))
        })
    } else {
        sums.resize(m, 0.0);
        a.as_slice().chunks_exact(m).try_fold(0.0_f64, |max, col| {
            Some(max.max(scaling::finite_max_abs_add_squares(col, &mut sums)?))
        })
    };
    let max_abs = max_abs.ok_or_else(|| {
        // the error path alone pays for locating the entry
        let at = a.as_slice().iter().position(|x| !x.is_finite()).unwrap_or(0);
        SvdError::NonFinite { row: at % m, col: at / m }
    })?;
    Ok((max_abs, sums))
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_matrix::generate;

    fn sums_of(a: &Matrix) -> Vec<f64> {
        screened(a, true, |_, sums| Ok(sums.to_vec()), |_| unreachable!("no rescale")).unwrap()
    }

    #[test]
    fn norms_follow_the_columns_of_tall_and_the_rows_of_wide_input() {
        let a = generate::random_uniform(13, 5, 3);
        let want: Vec<f64> = (0..5).map(|j| a.col(j).iter().map(|x| x * x).sum()).collect();
        for (got, want) in sums_of(&a).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-15 * want, "{got} vs {want}");
        }
        let at = a.transpose();
        for (got, want) in sums_of(&at).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-15 * want, "{got} vs {want}");
        }
        assert_eq!(sums_of(&at).len(), 5);
        let none = screened(&a, false, |_, sums| Ok(sums.len()), |_| unreachable!()).unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn rescaled_input_reports_the_norms_of_the_scaled_copy() {
        // the squares of 1e±200 leave the normal range: the sums come from
        // the copy swept at a power-of-two scale
        for scale in [1e200, 1e-200] {
            let mut a = generate::random_uniform(9, 3, 4);
            for x in a.as_mut_slice() {
                *x *= scale;
            }
            let one = || Matrix::identity(1, 1).unwrap();
            let (seen, want, _) = screened(
                &a,
                true,
                |b, sums| {
                    let want: Vec<f64> =
                        (0..3).map(|j| b.col(j).iter().map(|x| x * x).sum()).collect();
                    Ok((sums.to_vec(), want, Svd { u: one(), sigma: vec![], v: one(), rank: 0 }))
                },
                |run| &mut run.2,
            )
            .unwrap();
            assert!(seen.iter().all(|x| x.is_finite() && *x > 0.0), "{scale:e}: {seen:?}");
            for (got, want) in seen.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-15 * want, "{scale:e}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn a_non_finite_entry_is_named_with_or_without_norms() {
        let mut a = generate::random_uniform(6, 4, 5);
        a.set(4, 2, f64::NAN);
        for norms in [false, true] {
            for m in [&a, &a.transpose()] {
                let err = screened(m, norms, |_, _| Ok(()), |_| unreachable!()).unwrap_err();
                let want = if m.rows() == 6 { (4, 2) } else { (2, 4) };
                assert!(
                    matches!(err, SvdError::NonFinite { row, col } if (row, col) == want),
                    "{err}"
                );
            }
        }
    }
}
