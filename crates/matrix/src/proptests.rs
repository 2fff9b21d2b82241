//! Property-based tests of the numerical kernels (proptest).
//!
//! These pin down the *algebraic* invariants the SVD's correctness rests
//! on: rotations are orthogonal maps (norms and dot products transform
//! exactly as the 2×2 algebra says), the Gram kernel agrees with the naive
//! definitions, the GEMM tiles agree with naive dot products on every
//! remainder shape, and the generators honour their advertised spectra.

#![cfg(test)]

use crate::ops::{self, axpy, dot, gram3, norm2, norm2_sq, rotate_fused, rotate_fused_swapped};
use crate::rng::Rng;
use crate::rotation::{
    apply_rotation, apply_rotation_swapped, compute_rotation, orthogonalize_pair, Rotation,
};
use crate::{generate, Matrix};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, len)
}

/// A pair of equal-length vectors whose length sweeps 0..67 — deliberately
/// covering lengths below, at, and straddling the kernels' unroll width so
/// the `chunks_exact` remainder tails are exercised.
fn vec_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..67).prop_flat_map(|n| (finite_vec(n), finite_vec(n)))
}

/// Tolerance for comparing two summation orders of the same reduction:
/// a few ulps per term, scaled by the sum of absolute terms (the bound
/// |Σreordered − Σstrict| ≤ 2(n−1)·ε·Σ|tᵢ|, with slack).
fn sum_order_tol(n: usize, abs_scale: f64) -> f64 {
    4.0 * (n as f64 + 1.0) * f64::EPSILON * abs_scale.max(1.0)
}

/// A column-major panel of `k` columns at leading dimension `ld`: entries
/// in (−100, 100) on rows `0..rows` and NaN on the padding rows below, so
/// a kernel that reads past its view poisons its output.
fn padded_panel(rows: usize, ld: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..ld * k).map(|e| if e % ld < rows { rng.uniform(-100.0, 100.0) } else { f64::NAN }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_unrolled_matches_naive((a, b) in vec_pair()) {
        let fast = dot(&a, &b);
        let slow = ops::naive::dot(&a, &b);
        let scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!((fast - slow).abs() <= sum_order_tol(a.len(), scale),
            "dot len {}: {fast} vs {slow}", a.len());
    }

    #[test]
    fn norm2_sq_unrolled_matches_naive((a, _) in vec_pair()) {
        let fast = norm2_sq(&a);
        let slow = ops::naive::norm2_sq(&a);
        prop_assert!((fast - slow).abs() <= sum_order_tol(a.len(), slow),
            "norm2_sq len {}: {fast} vs {slow}", a.len());
    }

    #[test]
    fn gram3_unrolled_matches_naive((a, b) in vec_pair()) {
        let (aa, bb, ab) = gram3(&a, &b);
        let (naa, nbb, nab) = ops::naive::gram3(&a, &b);
        let ab_scale: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let tol = |s: f64| sum_order_tol(a.len(), s);
        prop_assert!((aa - naa).abs() <= tol(naa), "aa len {}: {aa} vs {naa}", a.len());
        prop_assert!((bb - nbb).abs() <= tol(nbb), "bb len {}: {bb} vs {nbb}", a.len());
        prop_assert!((ab - nab).abs() <= tol(ab_scale), "ab len {}: {ab} vs {nab}", a.len());
    }

    #[test]
    fn axpy_unrolled_is_bitwise_naive((x, y) in vec_pair(), alpha in -10.0..10.0f64) {
        // axpy is element-wise (no reduction, no reassociation), so the
        // unrolled kernel must agree with the naive loop *bitwise*
        let mut fast = y.clone();
        axpy(alpha, &x, &mut fast);
        let mut slow = y;
        ops::naive::axpy(alpha, &x, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn rotate_fused_matches_rotate_then_norms((a, b) in vec_pair(), theta in -0.78..0.78f64) {
        let (c, s) = (theta.cos(), theta.sin());
        let (mut xf, mut yf) = (a.clone(), b.clone());
        let (na, nb) = rotate_fused(c, s, &mut xf, &mut yf);
        let (mut xs, mut ys) = (a.clone(), b.clone());
        let (sna, snb) = ops::naive::rotate_then_norms(c, s, &mut xs, &mut ys);
        // rotated columns: identical per-element expressions, so bitwise
        prop_assert_eq!(&xf, &xs);
        prop_assert_eq!(&yf, &ys);
        // accumulated norms: same sums in a different association order
        prop_assert!((na - sna).abs() <= sum_order_tol(a.len(), sna),
            "na len {}: {na} vs {sna}", a.len());
        prop_assert!((nb - snb).abs() <= sum_order_tol(a.len(), snb),
            "nb len {}: {nb} vs {snb}", a.len());
    }

    #[test]
    fn rotate_fused_swapped_matches_unfused((a, b) in vec_pair(), theta in -0.78..0.78f64) {
        let (c, s) = (theta.cos(), theta.sin());
        let (mut xf, mut yf) = (a.clone(), b.clone());
        let (na, nb) = rotate_fused_swapped(c, s, &mut xf, &mut yf);
        // reference: unfused rotate, swap halves, then measure
        let (mut xs, mut ys) = (a.clone(), b.clone());
        ops::naive::rotate_then_norms(c, s, &mut xs, &mut ys);
        std::mem::swap(&mut xs, &mut ys);
        let (sna, snb) = (ops::naive::norm2_sq(&xs), ops::naive::norm2_sq(&ys));
        prop_assert_eq!(&xf, &xs);
        prop_assert_eq!(&yf, &ys);
        prop_assert!((na - sna).abs() <= sum_order_tol(a.len(), sna));
        prop_assert!((nb - snb).abs() <= sum_order_tol(a.len(), snb));
    }

    #[test]
    fn rotate_matches_apply_rotation_bitwise((a, b) in vec_pair(), theta in -0.78..0.78f64) {
        let rot = Rotation { c: theta.cos(), s: theta.sin(), skipped: false };
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for swap in [false, true] {
            let (mut x, mut y) = (a.clone(), b.clone());
            ops::rotate(rot.c, rot.s, &mut x, &mut y, swap);
            let (mut xr, mut yr) = (a.clone(), b.clone());
            if swap {
                apply_rotation_swapped(rot, &mut xr, &mut yr);
            } else {
                apply_rotation(rot, &mut xr, &mut yr);
            }
            prop_assert_eq!(bits(&x), bits(&xr), "swap {swap}");
            prop_assert_eq!(bits(&y), bits(&yr), "swap {swap}");
        }
    }

    #[test]
    fn gram3_matches_naive(a in finite_vec(12), b in finite_vec(12)) {
        let (aa, bb, ab) = gram3(&a, &b);
        prop_assert!((aa - dot(&a, &a)).abs() <= 1e-9 * aa.abs().max(1.0));
        prop_assert!((bb - dot(&b, &b)).abs() <= 1e-9 * bb.abs().max(1.0));
        prop_assert!((ab - dot(&a, &b)).abs() <= 1e-9 * ab.abs().max(1.0));
    }

    #[test]
    fn rotation_always_orthogonalizes(a in finite_vec(8), b in finite_vec(8)) {
        let (alpha, beta, gamma) = gram3(&a, &b);
        prop_assume!(alpha > 1e-6 && beta > 1e-6);
        let rot = compute_rotation(alpha, beta, gamma, 0.0);
        let (mut x, mut y) = (a.clone(), b.clone());
        apply_rotation(rot, &mut x, &mut y);
        let scale = norm2(&x) * norm2(&y);
        prop_assert!(dot(&x, &y).abs() <= 1e-10 * scale.max(1.0),
            "coupling {} after rotation", dot(&x, &y));
    }

    #[test]
    fn rotation_preserves_energy(a in finite_vec(10), b in finite_vec(10)) {
        let (alpha, beta, gamma) = gram3(&a, &b);
        let rot = compute_rotation(alpha, beta, gamma, 0.0);
        let before = norm2_sq(&a) + norm2_sq(&b);
        let (mut x, mut y) = (a, b);
        apply_rotation(rot, &mut x, &mut y);
        let after = norm2_sq(&x) + norm2_sq(&y);
        prop_assert!((before - after).abs() <= 1e-9 * before.max(1.0));
    }

    #[test]
    fn rotation_is_inner(alpha in 1e-6..1e6f64, beta in 1e-6..1e6f64, gamma in -1e6..1e6f64) {
        // |s| <= c always (rotation angle <= pi/4), the convergence-critical
        // property of the Rutishauser formulas
        prop_assume!(gamma.abs() <= (alpha * beta).sqrt()); // Cauchy-Schwarz feasible
        let r = compute_rotation(alpha, beta, gamma, 0.0);
        prop_assert!(r.s.abs() <= r.c + 1e-12);
        prop_assert!((r.c * r.c + r.s * r.s - 1.0).abs() <= 1e-12 || r.skipped);
    }

    #[test]
    fn swapped_rotation_equals_rotate_then_swap(a in finite_vec(6), b in finite_vec(6)) {
        let (alpha, beta, gamma) = gram3(&a, &b);
        let rot = compute_rotation(alpha, beta, gamma, 0.0);
        let (mut x1, mut y1) = (a.clone(), b.clone());
        apply_rotation(rot, &mut x1, &mut y1);
        std::mem::swap(&mut x1, &mut y1);
        let (mut x2, mut y2) = (a, b);
        apply_rotation_swapped(rot, &mut x2, &mut y2);
        for k in 0..6 {
            prop_assert!((x1[k] - x2[k]).abs() <= 1e-12 * x1[k].abs().max(1.0));
            prop_assert!((y1[k] - y2[k]).abs() <= 1e-12 * y1[k].abs().max(1.0));
        }
    }

    #[test]
    fn orthogonalize_pair_sorted_invariant(a in finite_vec(7), b in finite_vec(7)) {
        let (mut x, mut y) = (a, b);
        orthogonalize_pair(&mut x, &mut y, 0.0, true);
        // the written columns are ordered: the swap is decided on the
        // predicted norms, which the measured ones match to rounding
        let (nx, ny) = (norm2_sq(&x), norm2_sq(&y));
        prop_assert!(nx >= ny * (1.0 - 1e-12), "{nx} < {ny}");
    }

    #[test]
    fn prescribed_spectrum_frobenius(sigma in proptest::collection::vec(0.01..50.0f64, 1..6), seed in 0u64..1000) {
        let rows = sigma.len() + 2;
        let a = generate::with_singular_values(rows, &sigma, seed);
        let expect: f64 = sigma.iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((a.frobenius_norm() - expect).abs() <= 1e-8 * expect);
    }

    #[test]
    fn random_orthogonal_stays_orthogonal(n in 2usize..10, seed in 0u64..500) {
        let q = generate::random_orthogonal(n, seed);
        prop_assert!(crate::checks::orthogonality_residual(&q) < 1e-11);
    }

    #[test]
    fn transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..100) {
        let a = generate::random_uniform(rows, cols, seed);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associates_with_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
        let a = generate::random_uniform(rows, cols, seed);
        let i = Matrix::identity(cols, cols).unwrap();
        prop_assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn col_pair_mut_is_really_disjoint(n in 2usize..8, i in 0usize..8, j in 0usize..8) {
        prop_assume!(i < n && j < n && i != j);
        let mut m = generate::random_uniform(3, n, 7);
        let before_i = m.col(i).to_vec();
        let before_j = m.col(j).to_vec();
        {
            let (ci, cj) = m.col_pair_mut(i, j).unwrap();
            prop_assert_eq!(&ci[..], &before_i[..]);
            prop_assert_eq!(&cj[..], &before_j[..]);
            ci[0] += 1.0;
            cj[0] += 2.0;
        }
        prop_assert!((m.get(0, i) - (before_i[0] + 1.0)).abs() < 1e-15);
        prop_assert!((m.get(0, j) - (before_j[0] + 2.0)).abs() < 1e-15);
    }

    #[test]
    fn norm2_scale_invariance(v in finite_vec(9), scale in 1e-10..1e10f64) {
        let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
        let n1 = norm2(&v) * scale;
        let n2 = norm2(&scaled);
        prop_assert!((n1 - n2).abs() <= 1e-9 * n1.max(1e-30));
    }
}

// The GEMM tiles: rows 0..=67 hit every remainder of the 8-row vectors and
// the 16-row `gemm_acc` tiles; widths 1..=13 every remainder of the 4-wide
// `gemm_tn` tiles and the 8-wide `gemm_acc` tiles.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gemm_tn_matches_naive_dots(
        (rows, ka, kb) in (0usize..68, 1usize..14, 1usize..14),
        (pad_a, pad_b, seed) in (0usize..4, 0usize..4, 0u64..1 << 20),
    ) {
        let (lda, ldb) = (rows + pad_a, rows + pad_b);
        let a = padded_panel(rows, lda, ka, seed);
        let b = padded_panel(rows, ldb, kb, seed + 1);
        let mut out = vec![0.0; ka * kb];
        ops::gemm_tn(rows, &a, lda, ka, &b, ldb, kb, &mut out);
        for j in 0..kb {
            let bj = &b[j * ldb..j * ldb + rows];
            for i in 0..ka {
                let ai = &a[i * lda..i * lda + rows];
                let want = ops::naive::dot(ai, bj);
                let scale: f64 = ai.iter().zip(bj).map(|(x, y)| (x * y).abs()).sum();
                let got = out[i + ka * j];
                prop_assert!((got - want).abs() <= sum_order_tol(rows, scale),
                    "gemm_tn {rows}x({ka},{kb}) ld ({lda},{ldb}) entry ({i},{j}): {got} vs {want}");
            }
        }
        // the accumulating form adds the same sums: out + out, exactly
        let mut twice = out.clone();
        ops::gemm_tn_acc(rows, &a, lda, ka, &b, ldb, kb, &mut twice);
        for (t, o) in twice.iter().zip(&out) {
            prop_assert_eq!(t.to_bits(), (2.0 * o).to_bits(), "gemm_tn_acc {rows}x({ka},{kb})");
        }
    }

    #[test]
    fn gemm_acc_matches_naive_dots(
        (rows, p, q) in (0usize..68, 1usize..14, 1usize..14),
        (pad_a, pad_c, half, seed) in (0usize..4, 0usize..4, 0usize..2, 0u64..1 << 20),
    ) {
        let alpha = if half == 1 { 0.5 } else { -1.0 };
        let (lda, ldc) = (rows + pad_a, rows + pad_c);
        let a = padded_panel(rows, lda, p, seed);
        let w = padded_panel(p, p, q, seed + 1);
        let c0 = padded_panel(rows, ldc, q, seed + 2);
        let mut c = c0.clone();
        ops::gemm_acc(rows, &a, lda, p, &w, q, alpha, &mut c, ldc);
        for j in 0..q {
            let wj = &w[j * p..(j + 1) * p];
            for r in 0..ldc {
                let (got, was) = (c[j * ldc + r], c0[j * ldc + r]);
                if r >= rows {
                    prop_assert_eq!(got.to_bits(), was.to_bits(),
                        "gemm_acc {rows}x({p},{q}): row {r} past the view changed in col {j}");
                    continue;
                }
                let arow: Vec<f64> = (0..p).map(|i| a[i * lda + r]).collect();
                let want = was + alpha * ops::naive::dot(&arow, wj);
                let scale = was.abs()
                    + arow.iter().zip(wj).map(|(x, y)| (alpha * x * y).abs()).sum::<f64>();
                prop_assert!((got - want).abs() <= sum_order_tol(p + 1, scale),
                    "gemm_acc {rows}x({p},{q}) alpha {alpha} col {j} row {r}: {got} vs {want}");
            }
        }
    }
}
