//! Plane rotations for the one-sided (Hestenes) Jacobi method.
//!
//! Given two columns `a_i`, `a_j` of `A`, the paper's equation (1) applies
//!
//! ```text
//! [a_i' a_j'] = [a_i a_j] · [[ c, s],
//!                            [-s, c]]
//! ```
//!
//! with `c = cos θ`, `s = sin θ` chosen to make `a_i'` and `a_j'`
//! orthogonal. When the schedule additionally needs the two columns to end
//! up exchanged (the ↔ arrow in the paper's Fig. 4(a)), equation (3) folds
//! the swap into the rotation:
//!
//! ```text
//! [a_i'' a_j''] = [a_i a_j] · [[s, c],
//!                              [c, -s]]
//! ```
//!
//! so no explicit column interchange is ever performed.

use crate::ops::{gram3, rotate};

/// The `|ζ|` above which a rotation takes the asymptote `t = 1/(2ζ)`
/// (correct to a relative `O(ζ⁻²) < 10⁻³⁰⁰` there): `f64::MAX.sqrt()` is
/// ≈ 1.34e154, and 1e150 leaves headroom for the `+ |ζ|` term. Shared by
/// [`compute_rotation`] and [`crate::soa::rotation_lanes`].
pub(crate) const ZETA_HUGE: f64 = 1e150;

/// A computed plane rotation `(c, s)` together with the Gram data that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    /// Cosine of the rotation angle.
    pub c: f64,
    /// Sine of the rotation angle.
    pub s: f64,
    /// Whether the pair was already orthogonal under the threshold and the
    /// rotation is the identity.
    pub skipped: bool,
}

impl Rotation {
    /// The identity rotation (used for thresholded / skipped pairs).
    pub const IDENTITY: Rotation = Rotation { c: 1.0, s: 0.0, skipped: true };
}

/// Outcome of orthogonalizing one column pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// The rotation that was applied (identity if skipped).
    pub rotation: Rotation,
    /// Normalized pre-rotation coupling `|a_i·a_j| / (‖a_i‖‖a_j‖)` — the
    /// convergence measure (0 when either column is zero).
    pub coupling: f64,
    /// Whether the swapped form (equation (3)) was used, i.e. the columns
    /// were interchanged as part of the update.
    pub used_swap: bool,
}

/// Compute the Hestenes rotation for Gram entries `alpha = a_i·a_i`,
/// `beta = a_j·a_j`, `gamma = a_i·a_j`.
///
/// Uses the standard stable formulas (Rutishauser): with
/// `zeta = (beta - alpha) / (2 gamma)`,
/// `t = sign(zeta) / (|zeta| + sqrt(1 + zeta²))`,
/// `c = 1 / sqrt(1 + t²)`, `s = c·t`.
///
/// `threshold` implements the paper's threshold strategy (§1, citing
/// Wilkinson): if `|gamma| <= threshold * sqrt(alpha * beta)` the pair is
/// declared orthogonal and the identity is returned with `skipped = true`.
///
/// Above `|zeta| > 10¹⁵⁰` ([`ZETA_HUGE`]) the asymptote `t = 1/(2·zeta)`
/// replaces the formula, whose `zeta²` overflows to ∞ near `1.34e154`
/// and would turn the rotation into a no-op that still counts as one.
///
/// `#[inline]`: the drivers in other crates call this once per pair, and
/// the call to the cold asymptote would otherwise keep it out of line
/// there (a leaf function, it used to be inlined across crates without
/// the hint).
#[must_use]
#[inline]
pub fn compute_rotation(alpha: f64, beta: f64, gamma: f64, threshold: f64) -> Rotation {
    // A zero column is orthogonal to everything.
    if alpha == 0.0 || beta == 0.0 {
        return Rotation::IDENTITY;
    }
    let limit = threshold * (alpha.sqrt() * beta.sqrt());
    if gamma.abs() <= limit {
        return Rotation::IDENTITY;
    }
    let zeta = (beta - alpha) / (2.0 * gamma);
    if zeta.abs() > ZETA_HUGE {
        return huge_zeta_rotation(zeta);
    }
    let t = {
        let denom = zeta.abs() + (1.0 + zeta * zeta).sqrt();
        if zeta >= 0.0 {
            1.0 / denom
        } else {
            -1.0 / denom
        }
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = c * t;
    Rotation { c, s, skipped: false }
}

/// The rotation for `|zeta| > ZETA_HUGE`, with the same bits as the SoA
/// lanes' select; cold and out of line, so the common path's code keeps
/// one compare-and-branch.
#[cold]
#[inline(never)]
fn huge_zeta_rotation(zeta: f64) -> Rotation {
    let t = 0.5 / zeta;
    let c = 1.0 / (1.0 + t * t).sqrt();
    Rotation { c, s: c * t, skipped: false }
}

/// Apply equation (1) to a column pair: `a' = c·a − s·b`, `b' = s·a + c·b`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn apply_rotation(rot: Rotation, a: &mut [f64], b: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "apply_rotation: length mismatch");
    if rot.skipped {
        return;
    }
    let (c, s) = (rot.c, rot.s);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (ax, bx) = (*x, *y);
        *x = c * ax - s * bx;
        *y = s * ax + c * bx;
    }
}

/// Apply equation (3): the rotation *and* a column interchange in one pass:
/// `a'' = s·a + c·b`, `b'' = c·a − s·b`.
///
/// Note that even for a skipped (identity) rotation the columns are still
/// exchanged — the swap is demanded by the schedule, not by the numerics.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn apply_rotation_swapped(rot: Rotation, a: &mut [f64], b: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "apply_rotation_swapped: length mismatch");
    let (c, s) = (rot.c, rot.s);
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (ax, bx) = (*x, *y);
        *x = s * ax + c * bx;
        *y = c * ax - s * bx;
    }
}

/// Orthogonalize a column pair in place, optionally keeping the larger-norm
/// column on the *left* (first) slot, as required for sorted singular values
/// (paper §3.2.1).
///
/// Returns the [`PairOutcome`] describing what happened. When
/// `sort_descending` is set and the right column would end up larger, the
/// swapped form of the update (equation (3)) is used, so the exchange costs
/// nothing extra.
///
/// The pair costs two column traversals: [`gram3`], then the rotation
/// kernel [`rotate`], which measures nothing.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn orthogonalize_pair(
    a: &mut [f64],
    b: &mut [f64],
    threshold: f64,
    sort_descending: bool,
) -> PairOutcome {
    let (alpha, beta, gamma) = gram3(a, b);
    let rot = compute_rotation(alpha, beta, gamma, threshold);
    let coupling =
        if alpha > 0.0 && beta > 0.0 { gamma.abs() / (alpha.sqrt() * beta.sqrt()) } else { 0.0 };
    // Predicted norms after the rotation (rotation algebra); used only to
    // decide the swap before touching the data.
    let (alpha_pred, beta_pred) = if rot.skipped {
        (alpha, beta)
    } else {
        let (c, s) = (rot.c, rot.s);
        (
            c * c * alpha - 2.0 * c * s * gamma + s * s * beta,
            s * s * alpha + 2.0 * c * s * gamma + c * c * beta,
        )
    };
    let want_swap = sort_descending && beta_pred > alpha_pred;
    if !rot.skipped || want_swap {
        rotate(rot.c, rot.s, a, b, want_swap);
    }
    PairOutcome { rotation: rot, coupling, used_swap: want_swap }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{dot, norm2_sq};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn rotation_orthogonalizes() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![2.0, 0.5, 1.0];
        let (alpha, beta, gamma) = gram3(&a, &b);
        let rot = compute_rotation(alpha, beta, gamma, 0.0);
        assert!(!rot.skipped);
        apply_rotation(rot, &mut a, &mut b);
        assert_close(dot(&a, &b), 0.0, 1e-12);
    }

    #[test]
    fn rotation_preserves_frobenius_mass() {
        let mut a = vec![1.0, -2.0, 0.5];
        let mut b = vec![3.0, 1.0, 1.0];
        let before = norm2_sq(&a) + norm2_sq(&b);
        let (alpha, beta, gamma) = gram3(&a, &b);
        apply_rotation(compute_rotation(alpha, beta, gamma, 0.0), &mut a, &mut b);
        let after = norm2_sq(&a) + norm2_sq(&b);
        assert_close(before, after, 1e-12 * before);
    }

    #[test]
    fn threshold_skips_nearly_orthogonal_pairs() {
        let rot = compute_rotation(1.0, 1.0, 1e-15, 1e-12);
        assert!(rot.skipped);
        assert_eq!(rot.c, 1.0);
        assert_eq!(rot.s, 0.0);
        // but a genuinely coupled pair is not skipped
        assert!(!compute_rotation(1.0, 1.0, 0.5, 1e-12).skipped);
    }

    #[test]
    fn zero_column_is_skipped() {
        assert!(compute_rotation(0.0, 3.0, 0.0, 0.0).skipped);
        assert!(compute_rotation(3.0, 0.0, 0.0, 0.0).skipped);
    }

    #[test]
    fn swapped_form_equals_rotate_then_swap() {
        let a0 = vec![1.0, 2.0, 3.0];
        let b0 = vec![-1.0, 0.5, 2.0];
        let (alpha, beta, gamma) = gram3(&a0, &b0);
        let rot = compute_rotation(alpha, beta, gamma, 0.0);

        let (mut a1, mut b1) = (a0.clone(), b0.clone());
        apply_rotation(rot, &mut a1, &mut b1);
        std::mem::swap(&mut a1, &mut b1);

        let (mut a2, mut b2) = (a0, b0);
        apply_rotation_swapped(rot, &mut a2, &mut b2);

        for k in 0..3 {
            assert_close(a1[k], a2[k], 1e-15);
            assert_close(b1[k], b2[k], 1e-15);
        }
    }

    #[test]
    fn swapped_form_swaps_even_identity() {
        let mut a = vec![1.0, 0.0];
        let mut b = vec![0.0, 1.0];
        apply_rotation_swapped(Rotation::IDENTITY, &mut a, &mut b);
        assert_eq!(a, vec![0.0, 1.0]);
        assert_eq!(b, vec![1.0, 0.0]);
    }

    #[test]
    fn orthogonalize_pair_sorts_descending() {
        // left column much smaller than right: sorted mode must leave the
        // larger-norm column on the left.
        let mut a = vec![0.1, 0.0, 0.0];
        let mut b = vec![0.0, 5.0, 0.1];
        let out = orthogonalize_pair(&mut a, &mut b, 0.0, true);
        assert!(out.used_swap);
        assert!(norm2_sq(&a) >= norm2_sq(&b));
        assert_close(dot(&a, &b), 0.0, 1e-12);
    }

    #[test]
    fn orthogonalize_pair_writes_apply_rotation_bits() {
        // the written columns are apply_rotation's bits, or
        // apply_rotation_swapped's when the sort swaps: a rotated pair with
        // the larger column on either side (11 rows: one 8-wide chunk and a
        // tail), and an orthogonal pair that only swaps
        let x = vec![4.0, -2.0, 0.25, 4.0, -1.5, 3.0, 0.5, -2.0, 1.0, -0.0, 2.5];
        let y = vec![0.5, 1.0, -3.0, 2.0, 0.75, -1.0, 0.0, 1.5, -0.25, 0.0, -1.0];
        let cases = [(x.clone(), y.clone()), (y, x), (vec![1.0, 0.0, -0.0], vec![0.0, 3.0, 0.0])];
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        let mut swaps = 0;
        for (a0, b0) in cases {
            for sort in [false, true] {
                let (alpha, beta, gamma) = gram3(&a0, &b0);
                let rot = compute_rotation(alpha, beta, gamma, 0.0);
                let (mut a1, mut b1) = (a0.clone(), b0.clone());
                let out = orthogonalize_pair(&mut a1, &mut b1, 0.0, sort);
                let (mut a2, mut b2) = (a0.clone(), b0.clone());
                if out.used_swap {
                    apply_rotation_swapped(rot, &mut a2, &mut b2);
                } else {
                    apply_rotation(rot, &mut a2, &mut b2);
                }
                assert_eq!(out.rotation, rot);
                assert_eq!(bits(&a1), bits(&a2), "sort={sort}");
                assert_eq!(bits(&b1), bits(&b2), "sort={sort}");
                swaps += usize::from(out.used_swap);
            }
        }
        assert_eq!(swaps, 2, "the sort swaps the second and third pairs");
    }

    #[test]
    fn outcome_coupling_is_normalized() {
        let a0 = vec![2.0, 0.0];
        let b0 = vec![1.0, 1.0];
        let (alpha, beta, gamma) = gram3(&a0, &b0);
        let expected = gamma.abs() / (alpha.sqrt() * beta.sqrt());
        let (mut a, mut b) = (a0, b0);
        let out = orthogonalize_pair(&mut a, &mut b, 0.0, false);
        assert_close(out.coupling, expected, 1e-15);
        assert!(out.coupling <= 1.0 + 1e-15);

        // zero column → coupling defined as 0
        let mut z = vec![0.0, 0.0];
        let mut c = vec![1.0, 1.0];
        let out = orthogonalize_pair(&mut z, &mut c, 0.0, false);
        assert_eq!(out.coupling, 0.0);
    }

    #[test]
    fn rotation_angle_is_bounded_by_pi_over_4() {
        // |t| <= 1 always, i.e. |s| <= c, the classic inner-rotation choice
        // needed for convergence.
        for &(alpha, beta, gamma) in
            &[(1.0, 2.0, 0.7), (5.0, 0.1, -0.3), (1.0, 1.0, 0.999), (2.0, 2.0, -1.9)]
        {
            let r = compute_rotation(alpha, beta, gamma, 0.0);
            assert!(r.s.abs() <= r.c + 1e-15, "rotation not inner: {r:?}");
        }
    }
}
