//! Low-level vector kernels: dot products, norms, axpy, fused rotations.
//!
//! These are the only kernels in the hot path of a Jacobi sweep, so they
//! are written over plain slices and structured for SIMD: every reduction
//! uses several *independent* accumulators (`chunks_exact` blocks of
//! [`UNROLL`] lanes), because a strict-left-to-right `f64` sum forms a
//! loop-carried dependency chain that LLVM is not allowed to vectorize.
//! With the accumulators independent, the compiler emits packed adds and
//! multiplies, and the dependency chain shrinks by the unroll factor even
//! in scalar code.
//!
//! The reassociated sums are *not* bitwise identical to the naive
//! left-to-right order; they are at least as accurate (shorter chains →
//! smaller worst-case rounding error). The original strict-order kernels
//! are kept in [`naive`] as the reference the property tests and the
//! benchmarks compare against.

/// Unroll width of the reduction kernels (independent accumulators).
pub const UNROLL: usize = 8;

/// Unroll width of the fused rotate kernel (it carries 2 accumulator
/// arrays plus 2 data streams, so a narrower unroll avoids register
/// spills).
const ROT_UNROLL: usize = 4;

/// Strict-order reference implementations of the unrolled kernels.
///
/// These are the textbook loops the optimized kernels are validated
/// against (property tests) and benchmarked against (`BENCH_kernels.json`).
/// They stay `pub` so the bench harness can time naive vs unrolled.
pub mod naive {
    /// Strict left-to-right dot product.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        acc
    }

    /// Strict-order squared Euclidean norm.
    #[inline]
    pub fn norm2_sq(x: &[f64]) -> f64 {
        dot(x, x)
    }

    /// Strict-order fused Gram entries `(a·a, b·b, a·b)`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn gram3(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
        assert_eq!(a.len(), b.len(), "gram3: length mismatch");
        let (mut aa, mut bb, mut ab) = (0.0, 0.0, 0.0);
        for (&x, &y) in a.iter().zip(b.iter()) {
            aa += x * x;
            bb += y * y;
            ab += x * y;
        }
        (aa, bb, ab)
    }

    /// Element-at-a-time `y += alpha * x`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += alpha * xi;
        }
    }

    /// Unfused rotation apply + two separate norm passes, the sequence the
    /// fused kernel replaces. Reference for the fused-rotation benches and
    /// property tests.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn rotate_then_norms(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
        assert_eq!(a.len(), b.len(), "rotate_then_norms: length mismatch");
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let (ax, bx) = (*x, *y);
            *x = c * ax - s * bx;
            *y = s * ax + c * bx;
        }
        (norm2_sq(a), norm2_sq(b))
    }

    /// Panel update `[X Y] ← [X Y]·W` (see [`super::panel_update`]) one
    /// element at a time: a column whose `W` column is exactly `e_j` is left
    /// as it is, and every other output element is the fused-multiply-add
    /// chain over its column's nonzero weights in ascending source order,
    /// starting from `+0.0`.
    ///
    /// # Panics
    /// Panics if a panel length is not a multiple of `m` or `w.len() != k²`.
    pub fn panel_update(x: &mut [f64], y: &mut [f64], m: usize, w: &[f64]) {
        let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
        let whole = x.len().is_multiple_of(m.max(1)) && y.len().is_multiple_of(m.max(1));
        assert!(whole && w.len() == k * k, "panel_update: shape mismatch");
        let src: Vec<f64> = x.iter().chain(y.iter()).copied().collect();
        let cx = x.len().checked_div(m).unwrap_or(0);
        for j in 0..k {
            let wj = &w[k * j..k * (j + 1)];
            if (0..k).all(|i| wj[i] == if i == j { 1.0 } else { 0.0 }) {
                continue;
            }
            let out = if j < cx { &mut x[j * m..] } else { &mut y[(j - cx) * m..] };
            for (r, o) in out[..m].iter_mut().enumerate() {
                *o = wj
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .fold(0.0, |acc, (i, &v)| v.mul_add(src[i * m + r], acc));
            }
        }
    }
}

#[inline]
fn sum_unrolled(acc: [f64; UNROLL]) -> f64 {
    // pairwise tree sum: same depth the SIMD horizontal reduction has
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product of two equal-length slices (multi-accumulator, vectorizable).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let yc = y.chunks_exact(UNROLL);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        // fixed-size views: compile-time lengths, no per-element bounds
        // checks inside the unrolled body
        let cx: &[f64; UNROLL] = cx.try_into().expect("chunks_exact");
        let cy: &[f64; UNROLL] = cy.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            acc[k] += cx[k] * cy[k];
        }
    }
    let mut tail = 0.0;
    for (a, b) in xr.iter().zip(yr.iter()) {
        tail += a * b;
    }
    sum_unrolled(acc) + tail
}

/// Squared Euclidean norm (no overflow guard; used where magnitudes are
/// tame). Multi-accumulator, vectorizable.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let xr = xc.remainder();
    for cx in xc {
        let cx: &[f64; UNROLL] = cx.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            acc[k] += cx[k] * cx[k];
        }
    }
    let mut tail = 0.0;
    for &a in xr {
        tail += a * a;
    }
    sum_unrolled(acc) + tail
}

/// Euclidean norm with scaling to avoid overflow/underflow on extreme data.
/// A vector with a NaN entry has norm NaN.
///
/// The scale (the largest magnitude; NaN entries are skipped, as
/// [`f64::max`] does) is found in [`UNROLL`] independent lanes: a maximum
/// is exact in any order, so the lanes give the strict left-to-right fold's
/// value bit for bit, without its serial chain of compares.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let mut lanes = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let mut scale = 0.0_f64;
    for &v in xc.remainder() {
        scale = scale.max(v.abs());
    }
    for cx in xc {
        for k in 0..UNROLL {
            lanes[k] = lanes[k].max(cx[k].abs());
        }
    }
    for l in lanes {
        scale = scale.max(l);
    }
    if scale == 0.0 || !scale.is_finite() {
        // the maximum skipped any NaN; a vector holding one has no norm
        return if x.iter().any(|v| v.is_nan()) { f64::NAN } else { scale };
    }
    if scale < f64::MIN_POSITIVE {
        return norm2_subnormal(x);
    }
    let inv = 1.0 / scale;
    let mut acc = [0.0f64; UNROLL];
    let xc = x.chunks_exact(UNROLL);
    let xr = xc.remainder();
    for cx in xc {
        for k in 0..UNROLL {
            let t = cx[k] * inv;
            acc[k] += t * t;
        }
    }
    let mut tail = 0.0;
    for &v in xr {
        let t = v * inv;
        tail += t * t;
    }
    scale * (sum_unrolled(acc) + tail).sqrt()
}

/// [`norm2`] of a vector whose largest entry is subnormal, where
/// `1/scale` can overflow to ∞ (and `0·∞` poison the sum): every entry
/// is first scaled by `2^1022`, exactly, into the normal range.
#[cold]
#[inline(never)]
fn norm2_subnormal(x: &[f64]) -> f64 {
    let up = 1.0 / f64::MIN_POSITIVE; // 2^1022
    let scale = x.iter().fold(0.0_f64, |s, &v| s.max((v * up).abs()));
    let inv = 1.0 / scale;
    let sum: f64 = x
        .iter()
        .map(|&v| {
            let t = v * up * inv;
            t * t
        })
        .sum();
    scale * sum.sqrt() * f64::MIN_POSITIVE
}

/// `y += alpha * x` (unrolled; no reduction, but the fixed-width blocks
/// remove the bounds checks and let the compiler emit packed FMAs).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let split = y.len() - y.len() % UNROLL;
    let (ym, yt) = y.split_at_mut(split);
    let (xm, xt) = x.split_at(split);
    for (cy, cx) in ym.chunks_exact_mut(UNROLL).zip(xm.chunks_exact(UNROLL)) {
        for k in 0..UNROLL {
            cy[k] += alpha * cx[k];
        }
    }
    for (yi, xi) in yt.iter_mut().zip(xt.iter()) {
        *yi += alpha * xi;
    }
}

/// Scale a slice in place.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// The three Gram entries `(a·a, b·b, a·b)` of a column pair, in one pass.
///
/// One fused pass halves the memory traffic of the convergence test that
/// precedes every rotation; the three reductions run on independent
/// accumulator blocks so the whole pass vectorizes.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn gram3(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "gram3: length mismatch");
    let split = a.len() - a.len() % UNROLL;
    let (am, ar) = a.split_at(split);
    let (bm, br) = b.split_at(split);
    let (aa, bb, ab) = gram3_main(am, bm);
    let (mut taa, mut tbb, mut tab) = (0.0, 0.0, 0.0);
    for (&x, &y) in ar.iter().zip(br.iter()) {
        taa += x * x;
        tbb += y * y;
        tab += x * y;
    }
    (sum_unrolled(aa) + taa, sum_unrolled(bb) + tbb, sum_unrolled(ab) + tab)
}

/// Accumulator lanes of `gram3` over a length-multiple-of-[`UNROLL`]
/// prefix: lane `k` holds the partial sums over elements `j·UNROLL + k`.
///
/// Written with explicit AVX intrinsics on x86-64: LLVM's SLP pass pairs
/// the three reductions *across* the `a`/`b` streams (unpck shuffles at
/// 128-bit width) instead of across lanes, which runs slower than the
/// strict scalar loop. The intrinsic version is plain lane-wise
/// multiply-then-add — no FMA contraction — so its lanes are bitwise
/// identical to the scalar fallback below.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline]
fn gram3_main(a: &[f64], b: &[f64]) -> ([f64; UNROLL], [f64; UNROLL], [f64; UNROLL]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(a.len() % UNROLL, 0);
    debug_assert_eq!(a.len(), b.len());
    let mut aa = [0.0f64; UNROLL];
    let mut bb = [0.0f64; UNROLL];
    let mut ab = [0.0f64; UNROLL];
    // SAFETY: loads/stores stay within `a`/`b` (length checked to be a
    // multiple of UNROLL = 8, read in 4-lane halves) and within the
    // 8-lane accumulator arrays; AVX is a compile-time target feature.
    unsafe {
        let (mut aa_lo, mut aa_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut bb_lo, mut bb_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (mut ab_lo, mut ab_hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < a.len() {
            let a_lo = _mm256_loadu_pd(pa.add(i));
            let a_hi = _mm256_loadu_pd(pa.add(i + 4));
            let b_lo = _mm256_loadu_pd(pb.add(i));
            let b_hi = _mm256_loadu_pd(pb.add(i + 4));
            aa_lo = _mm256_add_pd(aa_lo, _mm256_mul_pd(a_lo, a_lo));
            aa_hi = _mm256_add_pd(aa_hi, _mm256_mul_pd(a_hi, a_hi));
            bb_lo = _mm256_add_pd(bb_lo, _mm256_mul_pd(b_lo, b_lo));
            bb_hi = _mm256_add_pd(bb_hi, _mm256_mul_pd(b_hi, b_hi));
            ab_lo = _mm256_add_pd(ab_lo, _mm256_mul_pd(a_lo, b_lo));
            ab_hi = _mm256_add_pd(ab_hi, _mm256_mul_pd(a_hi, b_hi));
            i += UNROLL;
        }
        _mm256_storeu_pd(aa.as_mut_ptr(), aa_lo);
        _mm256_storeu_pd(aa.as_mut_ptr().add(4), aa_hi);
        _mm256_storeu_pd(bb.as_mut_ptr(), bb_lo);
        _mm256_storeu_pd(bb.as_mut_ptr().add(4), bb_hi);
        _mm256_storeu_pd(ab.as_mut_ptr(), ab_lo);
        _mm256_storeu_pd(ab.as_mut_ptr().add(4), ab_hi);
    }
    (aa, bb, ab)
}

/// Portable fallback: the same lane assignment in scalar code.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline]
fn gram3_main(a: &[f64], b: &[f64]) -> ([f64; UNROLL], [f64; UNROLL], [f64; UNROLL]) {
    debug_assert_eq!(a.len() % UNROLL, 0);
    let mut aa = [0.0f64; UNROLL];
    let mut bb = [0.0f64; UNROLL];
    let mut ab = [0.0f64; UNROLL];
    for (ca, cb) in a.chunks_exact(UNROLL).zip(b.chunks_exact(UNROLL)) {
        let ca: &[f64; UNROLL] = ca.try_into().expect("chunks_exact");
        let cb: &[f64; UNROLL] = cb.try_into().expect("chunks_exact");
        for k in 0..UNROLL {
            let (x, y) = (ca[k], cb[k]);
            aa[k] += x * x;
            bb[k] += y * y;
            ab[k] += x * y;
        }
    }
    (aa, bb, ab)
}

/// Fused plane rotation: apply `a' = c·a − s·b`, `b' = s·a + c·b` (or the
/// swapped form `a' = s·a + c·b`, `b' = c·a − s·b` when `SWAP`) while
/// accumulating the updated squared norms `(‖a'‖², ‖b'‖²)` in the same
/// pass. This is the executor's hot loop: it collapses the old
/// apply-then-renorm sequence (3 traversals of each column) into one.
#[inline]
fn rotate_fused_impl<const SWAP: bool>(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    let split = a.len() - a.len() % ROT_UNROLL;
    let (am, at) = a.split_at_mut(split);
    let (bm, bt) = b.split_at_mut(split);
    let (na, nb) = rotate_fused_main::<SWAP>(c, s, am, bm);
    let (mut tna, mut tnb) = (0.0, 0.0);
    for (x, y) in at.iter_mut().zip(bt.iter_mut()) {
        let (ax, bx) = (*x, *y);
        let xp = c * ax - s * bx;
        let yp = s * ax + c * bx;
        let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
        *x = da;
        *y = db;
        tna += da * da;
        tnb += db * db;
    }
    ((na[0] + na[1]) + (na[2] + na[3]) + tna, (nb[0] + nb[1]) + (nb[2] + nb[3]) + tnb)
}

/// Accumulator lanes of the fused rotation over a
/// length-multiple-of-[`ROT_UNROLL`] prefix.
///
/// Explicit AVX on x86-64 for the same reason as [`gram3_main`]: the plain
/// form auto-vectorizes, but for `SWAP = true` LLVM's SLP pass pairs the
/// updates *across* the `a`/`b` streams (scalar + `unpck` shuffles at
/// 128-bit width) and ran ~3× slower than the plain form. The intrinsic
/// version is lane-wise multiply/add/sub — no FMA contraction — and routes
/// both forms through the identical arithmetic (only the store destinations
/// and norm accumulators exchange roles), so its lanes are bitwise identical
/// to the scalar fallback below.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline]
fn rotate_fused_main<const SWAP: bool>(
    c: f64,
    s: f64,
    a: &mut [f64],
    b: &mut [f64],
) -> ([f64; ROT_UNROLL], [f64; ROT_UNROLL]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(a.len() % ROT_UNROLL, 0);
    debug_assert_eq!(a.len(), b.len());
    let mut na = [0.0f64; ROT_UNROLL];
    let mut nb = [0.0f64; ROT_UNROLL];
    // SAFETY: loads/stores stay within `a`/`b` (length checked to be a
    // multiple of ROT_UNROLL = 4, processed one 4-lane vector at a time)
    // and within the 4-lane accumulator arrays; AVX is a compile-time
    // target feature.
    unsafe {
        let vc = _mm256_set1_pd(c);
        let vs = _mm256_set1_pd(s);
        let mut acc_a = _mm256_setzero_pd();
        let mut acc_b = _mm256_setzero_pd();
        let (pa, pb) = (a.as_mut_ptr(), b.as_mut_ptr());
        let mut i = 0;
        while i < a.len() {
            let x = _mm256_loadu_pd(pa.add(i));
            let y = _mm256_loadu_pd(pb.add(i));
            let xp = _mm256_sub_pd(_mm256_mul_pd(vc, x), _mm256_mul_pd(vs, y));
            let yp = _mm256_add_pd(_mm256_mul_pd(vs, x), _mm256_mul_pd(vc, y));
            let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
            _mm256_storeu_pd(pa.add(i), da);
            _mm256_storeu_pd(pb.add(i), db);
            acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(da, da));
            acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(db, db));
            i += ROT_UNROLL;
        }
        _mm256_storeu_pd(na.as_mut_ptr(), acc_a);
        _mm256_storeu_pd(nb.as_mut_ptr(), acc_b);
    }
    (na, nb)
}

/// Portable fallback: the same lane assignment in scalar code.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline]
fn rotate_fused_main<const SWAP: bool>(
    c: f64,
    s: f64,
    a: &mut [f64],
    b: &mut [f64],
) -> ([f64; ROT_UNROLL], [f64; ROT_UNROLL]) {
    debug_assert_eq!(a.len() % ROT_UNROLL, 0);
    let mut na = [0.0f64; ROT_UNROLL];
    let mut nb = [0.0f64; ROT_UNROLL];
    for (ca, cb) in a.chunks_exact_mut(ROT_UNROLL).zip(b.chunks_exact_mut(ROT_UNROLL)) {
        for k in 0..ROT_UNROLL {
            let (x, y) = (ca[k], cb[k]);
            let xp = c * x - s * y;
            let yp = s * x + c * y;
            let (da, db) = if SWAP { (yp, xp) } else { (xp, yp) };
            ca[k] = da;
            cb[k] = db;
            na[k] += da * da;
            nb[k] += db * db;
        }
    }
    (na, nb)
}

/// Fused rotation, plain form (equation (1)): returns the exact updated
/// squared norms `(‖a'‖², ‖b'‖²)` computed in the same pass as the update.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate_fused(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "rotate_fused: length mismatch");
    rotate_fused_impl::<false>(c, s, a, b)
}

/// Fused rotation, swapped form (equation (3) — rotation + column
/// interchange in one pass): returns the exact updated squared norms.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate_fused_swapped(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) -> (f64, f64) {
    assert_eq!(a.len(), b.len(), "rotate_fused_swapped: length mismatch");
    rotate_fused_impl::<true>(c, s, a, b)
}

/// Plane rotation that measures nothing: `a' = c·a − s·b`, `b' = s·a + c·b`
/// (equation (1)), or with `swap` the interchanged form of equation (3),
/// `a' = s·a + c·b`, `b' = c·a − s·b`. Every element is
/// [`crate::rotation::apply_rotation`]'s (or `apply_rotation_swapped`'s)
/// expression, with separate multiplies and no FMA, so the written bits are
/// theirs and [`rotate_fused`]'s. The body runs over fixed [`UNROLL`]-wide
/// chunks, so the swapped form vectorizes lane-wise too.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn rotate(c: f64, s: f64, a: &mut [f64], b: &mut [f64], swap: bool) {
    assert_eq!(a.len(), b.len(), "rotate: length mismatch");
    if swap {
        rotate_impl::<true>(c, s, a, b);
    } else {
        rotate_impl::<false>(c, s, a, b);
    }
}

#[inline]
fn rotate_impl<const SWAP: bool>(c: f64, s: f64, a: &mut [f64], b: &mut [f64]) {
    let (ac, at) = a.as_chunks_mut::<UNROLL>();
    let (bc, bt) = b.as_chunks_mut::<UNROLL>();
    for (ca, cb) in ac.iter_mut().zip(bc.iter_mut()) {
        let (mut xp, mut yp) = ([0.0; UNROLL], [0.0; UNROLL]);
        for k in 0..UNROLL {
            xp[k] = c * ca[k] - s * cb[k];
            yp[k] = s * ca[k] + c * cb[k];
        }
        (*ca, *cb) = if SWAP { (yp, xp) } else { (xp, yp) };
    }
    for (x, y) in at.iter_mut().zip(bt.iter_mut()) {
        let (xp, yp) = (c * *x - s * *y, s * *x + c * *y);
        (*x, *y) = if SWAP { (yp, xp) } else { (xp, yp) };
    }
}

/// Row-band height (in elements) of [`panel_update`] and
/// [`panel_update_into`]. The in-place form snapshots each band of the
/// input union into caller scratch before its output rows are
/// overwritten: with a `2c = 64` column union the snapshot is
/// `64 · 128 · 8 B = 64 KiB`, resident in L2 while the register tiles
/// stream the band's outputs over it. The out-of-place form snapshots
/// nothing; its bands keep a union's rows in L1 while every output column
/// reads them.
pub const PANEL_TILE: usize = 128;

/// Columns `i..` of the union panel `[X Y]` (both column-major with `m`
/// rows), up to the end of the panel that holds column `i`.
#[inline]
fn union_from<'a>(x: &'a [f64], y: &'a [f64], m: usize, i: usize) -> &'a [f64] {
    let off = i * m;
    if off < x.len() {
        &x[off..]
    } else {
        &y[off - x.len()..]
    }
}

/// Column `i` of the union panel `[X Y]`.
#[inline]
fn union_col<'a>(x: &'a [f64], y: &'a [f64], m: usize, i: usize) -> &'a [f64] {
    &union_from(x, y, m, i)[..m]
}

/// `G = [X Y]ᵀ[X Y]`: the `k×k` Gram matrix of the column union of two
/// column-major panels (`k = (x.len() + y.len()) / m`), written
/// column-major into `g` (both triangles).
///
/// A symmetric product on [`gemm_tn`]'s register tiles. The union's
/// columns are cut into tiles of up to four, restarting at the `X`/`Y`
/// boundary so that every tile is a view of one panel, and only the tiles
/// on or above the diagonal are computed: sixteen dot products per pass
/// down the rows, two fused multiply-adds per load. The lower triangle is
/// then mirrored, so `g` is bitwise symmetric. Every entry sums in
/// [`gemm_tn`]'s lanes, so the AVX2 tier rounds differently from the
/// AVX-512 and portable tiers, as there.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, or if `g.len() != k²`.
pub fn gram_block(x: &[f64], y: &[f64], m: usize, g: &mut [f64]) {
    assert_eq!(x.len() % m.max(1), 0, "gram_block: x is not whole columns");
    assert_eq!(y.len() % m.max(1), 0, "gram_block: y is not whole columns");
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert_eq!(g.len(), k * k, "gram_block: output must be k×k");
    let cx = x.len().checked_div(m).unwrap_or(0);
    let tile_end = |i: usize| (i + TN_TILE).min(if i < cx { cx } else { k });
    let mut j = 0;
    while j < k {
        let j1 = tile_end(j);
        let mut i = 0;
        while i < j1 {
            let i1 = tile_end(i);
            let (a, b) = (union_from(x, y, m, i), union_from(x, y, m, j));
            tn_block::<false>(i1 - i, j1 - j, m, a, m, b, m, &mut g[i + k * j..], k);
            i = i1;
        }
        j = j1;
    }
    for j in 0..k {
        for i in 0..j {
            g[j + k * i] = g[i + k * j];
        }
    }
}

/// The union width `k` of a panel update's operands, checked.
fn panel_width(what: &str, x: &[f64], y: &[f64], m: usize, w: &[f64]) -> usize {
    assert_eq!(x.len() % m.max(1), 0, "{what}: x is not whole columns");
    assert_eq!(y.len() % m.max(1), 0, "{what}: y is not whole columns");
    let k = (x.len() + y.len()).checked_div(m).unwrap_or(0);
    assert_eq!(w.len(), k * k, "{what}: w must be k×k");
    k
}

/// Whether the `k×k` update `W` moves output column `j`: `W[:, j] ≠ e_j`.
fn moves(w: &[f64], k: usize, j: usize) -> bool {
    let wj = &w[k * j..k * (j + 1)];
    wj[j] != 1.0 || wj.iter().enumerate().any(|(i, &v)| i != j && v != 0.0)
}

/// Blocked panel update `[X Y] ← [X Y] · W` in place, where `W` is the
/// `k×k` column-major orthogonal update accumulated by a block meeting
/// (`k = (x.len() + y.len()) / m`).
///
/// Row-banded by [`PANEL_TILE`]: each band of the input union is
/// snapshotted into `tile` (caller scratch, length ≥ `k · PANEL_TILE`), the
/// one copy the in-place form needs, since its outputs overwrite its
/// sources. Then every run of adjacent output columns of one panel that
/// `W` moves is written from the snapshot by the write-only register
/// tiles of [`panel_update_into`]. A column whose `W` column is exactly
/// `e_j` is left as it is, so a near-identity `W` (late sweeps) rewrites
/// only the columns it moves.
///
/// Every rewritten element is the fused-multiply-add chain over its
/// column's weights in ascending source order, starting from `+0.0`, as
/// in [`panel_update_into`], so the two agree bit for bit. A zero weight
/// adds an exact zero, so on finite input the result is
/// [`naive::panel_update`]'s bit for bit; the two can differ only in the
/// sign of a zero, when a partial sum underflows to `−0.0`.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, `w.len() != k²`, or
/// `tile` is shorter than `k · PANEL_TILE`.
pub fn panel_update(x: &mut [f64], y: &mut [f64], m: usize, w: &[f64], tile: &mut [f64]) {
    let k = panel_width("panel_update", x, y, m, w);
    if k == 0 {
        return;
    }
    assert!(tile.len() >= k * PANEL_TILE, "panel_update: tile scratch too short");
    let cx = x.len() / m;
    let mut r0 = 0;
    while r0 < m {
        let tb = (m - r0).min(PANEL_TILE);
        for i in 0..k {
            let src = &union_col(x, y, m, i)[r0..r0 + tb];
            tile[i * PANEL_TILE..i * PANEL_TILE + tb].copy_from_slice(src);
        }
        let src = Sources { x: tile, ldx: PANEL_TILE, cx: k, y: &[], ldy: 0, cy: 0, r0: 0 };
        put_band(x, m, r0, tb, 0, src, w, false);
        put_band(y, m, r0, tb, cx, src, w, false);
        r0 += tb;
    }
}

/// Blocked panel update out of place: `[Xo Yo] ← [X Y] · W`, where `W` is
/// the `k×k` column-major orthogonal update accumulated by a block meeting
/// (`k = (x.len() + y.len()) / m`) and `xo`, `yo` have the shapes of `x`,
/// `y`. Returns whether each of `xo` and `yo` was written: an output panel
/// none of whose columns `W` moves (`W[:, j] = e_j` for each) is left
/// untouched, since it would equal its input.
///
/// Each output tile of 16 rows × up to 8 columns ([`gemm_acc`]'s register
/// tile, not loaded from the output) starts at `+0.0` in registers, takes
/// `X`'s columns and then `Y`'s as exactly rounded fused multiply-adds in
/// ascending source order, and is stored once: one read of the union
/// (banded by [`PANEL_TILE`] rows, so a band stays in L1 while every
/// output column reads it) and one write of each written panel, with no
/// snapshot and no zero pass. In a written panel, a column whose `W`
/// column is exactly `e_j` is copied from its input. Every element is
/// therefore [`panel_update`]'s bit for bit, at every SIMD tier.
///
/// # Panics
/// Panics if a panel length is not a multiple of `m`, `w.len() != k²`, or
/// an output's length differs from its input's.
pub fn panel_update_into(
    x: &[f64],
    y: &[f64],
    m: usize,
    w: &[f64],
    xo: &mut [f64],
    yo: &mut [f64],
) -> [bool; 2] {
    let k = panel_width("panel_update_into", x, y, m, w);
    assert!(
        xo.len() == x.len() && yo.len() == y.len(),
        "panel_update_into: outputs must match the inputs"
    );
    let cx = x.len().checked_div(m).unwrap_or(0);
    let written = [(0..cx).any(|j| moves(w, k, j)), (cx..k).any(|j| moves(w, k, j))];
    let mut r0 = 0;
    while r0 < m {
        let tb = (m - r0).min(PANEL_TILE);
        let src = Sources { x, ldx: m, cx, y, ldy: m, cy: k - cx, r0 };
        for (out, c0, write) in [(&mut *xo, 0, written[0]), (&mut *yo, cx, written[1])] {
            if write {
                put_band(out, m, r0, tb, c0, src, w, true);
            }
        }
        r0 += tb;
    }
    written
}

/// The source columns of an [`acc_block`], in order: `x`'s `cx` columns at
/// stride `ldx`, then `y`'s `cy` at stride `ldy`, each from row `r0` on.
#[derive(Clone, Copy)]
struct Sources<'a> {
    x: &'a [f64],
    ldx: usize,
    cx: usize,
    y: &'a [f64],
    ldy: usize,
    cy: usize,
    r0: usize,
}

impl Sources<'_> {
    /// Whether every column holds rows `r0..r0 + rows`.
    fn hold(&self, rows: usize) -> bool {
        let end = self.r0 + rows;
        let fits =
            |p: &[f64], ld: usize, n: usize| n == 0 || (ld >= end && p.len() >= (n - 1) * ld + end);
        fits(self.x, self.ldx, self.cx) && fits(self.y, self.ldy, self.cy)
    }

    /// Source `i` from row `r0` on.
    fn col(&self, i: usize) -> &[f64] {
        if i < self.cx {
            &self.x[i * self.ldx + self.r0..]
        } else {
            &self.y[(i - self.cx) * self.ldy + self.r0..]
        }
    }

    /// The two runs as (row `r0 + r` of the first column, stride,
    /// columns); a run of no columns is never read.
    #[cfg(all(target_arch = "x86_64", target_feature = "fma"))]
    fn runs(&self, r: usize) -> [(*const f64, usize, usize); 2] {
        let at = |p: &[f64]| p.as_ptr().wrapping_add(self.r0 + r);
        [(at(self.x), self.ldx, self.cx), (at(self.y), self.ldy, self.cy)]
    }
}

/// Rows `r0..r0 + tb` of the output panel `out` (`m`-row columns, which
/// are union columns `c0..`), from `src`, whose first row is row `r0`:
/// every run of adjacent columns that `W` moves is written by
/// [`acc_cols`] (tiles started at `+0.0`); with `copy`, every other
/// column's rows are copied from its source.
#[allow(clippy::too_many_arguments)] // a band of a strided GEMM: (out, rows) × (src, w)
fn put_band(
    out: &mut [f64],
    m: usize,
    r0: usize,
    tb: usize,
    c0: usize,
    src: Sources<'_>,
    w: &[f64],
    copy: bool,
) {
    let k = src.cx + src.cy;
    let cols = out.len() / m;
    let mut j = 0;
    while j < cols {
        if !moves(w, k, c0 + j) {
            if copy {
                out[j * m + r0..j * m + r0 + tb].copy_from_slice(&src.col(c0 + j)[..tb]);
            }
            j += 1;
            continue;
        }
        let mut j1 = j + 1;
        while j1 < cols && moves(w, k, c0 + j1) {
            j1 += 1;
        }
        let (wj, cj) = (&w[k * (c0 + j)..], &mut out[j * m + r0..]);
        acc_cols::<false>(tb, src, wj, k, j1 - j, cj, m);
        j = j1;
    }
}

/// One pass of the tall QR's fused narrow-column base case down `K`
/// columns of equal length, with the previous reflector's tail `v` beside
/// them (the same rows):
///
/// * with `UPDATE`, each row `r` first scales `v[r] *= s`, which gives the
///   tail its final value, and then applies the reflector to every column:
///   `cols[k][r] −= c[k]·v[r]`;
/// * rows `1..` are summed as they are written:
///   `dots[k] = Σ cols[0][r]·cols[k][r]` and `squares[k] = Σ cols[k][r]²`
///   (`squares[0]` is `dots[0]`). Row 0 is the next reflector's head, so
///   it is updated, not summed.
///
/// So one read and one write of the block does the work of a scaling
/// pass, a rank-1 update and the next reflector's norm and dot products.
/// Each sum runs in [`UNROLL`] lanes (lane `l` takes the rows `≡ 1 + l`
/// mod [`UNROLL`]) added by the pairwise tree, with separate multiplies
/// and adds, so every lane path rounds alike.
///
/// # Panics
/// Panics if the columns differ in length, or if `UPDATE` and `v` has
/// another length.
pub(crate) fn house_pass<const K: usize, const UPDATE: bool>(
    v: &mut [f64],
    s: f64,
    c: &[f64; K],
    cols: &mut [&mut [f64]; K],
) -> ([f64; K], [f64; K]) {
    let len = cols.first().map_or(0, |col| col.len());
    assert!(cols.iter().all(|col| col.len() == len), "house_pass: column length mismatch");
    assert!(!UPDATE || v.len() == len, "house_pass: reflector length mismatch");
    if len == 0 {
        return ([0.0; K], [0.0; K]);
    }
    if UPDATE {
        v[0] *= s;
        for (col, &ck) in cols.iter_mut().zip(c) {
            col[0] -= ck * v[0];
        }
    }
    let (dots, squares) = house_lanes::<K, UPDATE>(v, s, c, cols);
    let (dots, mut squares) = (dots.map(sum_unrolled), squares.map(sum_unrolled));
    squares[0] = dots[0];
    (dots, squares)
}

/// The lane sums of [`house_pass`] over rows `1..` (row 0 is done by the
/// caller): `(dots, squares)`, with `squares[0]` left unsummed.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn house_lanes<const K: usize, const UPDATE: bool>(
    v: &mut [f64],
    s: f64,
    c: &[f64; K],
    cols: &mut [&mut [f64]; K],
) -> ([[f64; UNROLL]; K], [[f64; UNROLL]; K]) {
    use core::arch::x86_64::*;
    let len = cols.first().map_or(0, |col| col.len());
    assert!(
        cols.iter().all(|col| col.len() == len) && (!UPDATE || v.len() == len),
        "house_lanes: length mismatch"
    );
    let (mut dots, mut squares) = ([[0.0f64; UNROLL]; K], [[0.0f64; UNROLL]; K]);
    // SAFETY: every column holds `len` rows, and so does `v` when `UPDATE`
    // (asserted above); each step touches rows `r..r + 8` with
    // `r ≥ 1`, full steps only while `r + 8 ≤ len` and the last step
    // masked to the `len − r` rows left, whose masked-off lanes are not
    // accessed. Stores go to those rows and to the local lane arrays.
    // AVX-512F is a compile-time target feature.
    unsafe {
        let pv = v.as_mut_ptr();
        let pc: [*mut f64; K] = core::array::from_fn(|k| cols[k].as_mut_ptr());
        let vs = _mm512_set1_pd(s);
        let vc: [__m512d; K] = core::array::from_fn(|k| _mm512_set1_pd(c[k]));
        let mut d = [_mm512_setzero_pd(); K];
        let mut q = [_mm512_setzero_pd(); K];
        let mut step = |r: usize, m: u8| {
            let x = if UPDATE {
                let x = _mm512_mul_pd(_mm512_maskz_loadu_pd(m, pv.add(r)), vs);
                _mm512_mask_storeu_pd(pv.add(r), m, x);
                x
            } else {
                _mm512_setzero_pd()
            };
            let mut y0 = _mm512_setzero_pd();
            for k in 0..K {
                let mut y = _mm512_maskz_loadu_pd(m, pc[k].add(r));
                if UPDATE {
                    y = _mm512_sub_pd(y, _mm512_mul_pd(vc[k], x));
                    _mm512_mask_storeu_pd(pc[k].add(r), m, y);
                }
                // lanes past the last row keep their sums untouched
                if k == 0 {
                    y0 = y;
                } else {
                    q[k] = _mm512_mask_add_pd(q[k], m, q[k], _mm512_mul_pd(y, y));
                }
                d[k] = _mm512_mask_add_pd(d[k], m, d[k], _mm512_mul_pd(y0, y));
            }
        };
        let mut r = 1;
        while r + UNROLL <= len {
            step(r, u8::MAX);
            r += UNROLL;
        }
        if r < len {
            step(r, lane_mask(len - r));
        }
        for k in 0..K {
            _mm512_storeu_pd(dots[k].as_mut_ptr(), d[k]);
            _mm512_storeu_pd(squares[k].as_mut_ptr(), q[k]);
        }
    }
    (dots, squares)
}

/// Portable lanes of [`house_pass`]: the AVX-512 lane assignment and
/// operations in scalar code, so the two agree bitwise.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline]
fn house_lanes<const K: usize, const UPDATE: bool>(
    v: &mut [f64],
    s: f64,
    c: &[f64; K],
    cols: &mut [&mut [f64]; K],
) -> ([[f64; UNROLL]; K], [[f64; UNROLL]; K]) {
    let len = cols.first().map_or(0, |col| col.len());
    let (mut dots, mut squares) = ([[0.0f64; UNROLL]; K], [[0.0f64; UNROLL]; K]);
    for r in 1..len {
        let l = (r - 1) % UNROLL;
        let x = if UPDATE {
            v[r] *= s;
            v[r]
        } else {
            0.0
        };
        let mut y0 = 0.0;
        for k in 0..K {
            if UPDATE {
                cols[k][r] -= c[k] * x;
            }
            let y = cols[k][r];
            if k == 0 {
                y0 = y;
            } else {
                squares[k][l] += y * y;
            }
            dots[k][l] += y0 * y;
        }
    }
    (dots, squares)
}

/// Side of the [`gemm_tn`] register tile: up to `TN_TILE × TN_TILE`
/// outputs accumulate in registers over one pass down the rows, so every
/// column load feeds `TN_TILE` fused multiply-adds.
const TN_TILE: usize = 4;

/// Reduction lanes of one [`gemm_tn`] output: lane `l` sums the products
/// of the rows `≡ l (mod TN_LANES)`, and the lanes are added by a pairwise
/// tree. Eight on the AVX-512 and portable lanes, four on AVX2.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f"))))]
const TN_LANES: usize = UNROLL;
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
const TN_LANES: usize = 4;

/// `out (ka×kb, column-major) = AᵀB` for two strided column-major
/// panels: column `j` of `A` is `a[j·lda .. j·lda + rows]` and likewise
/// for `B`. The panels may be sub-views of larger matrices (`lda`,
/// `ldb` ≥ `rows`), which is how the tall-skinny QR applies a block
/// reflector to a row-band of the trailing matrix without copying it.
///
/// Computed in register tiles of up to 4×4 outputs: each step down the
/// rows loads four `A` and four `B` vectors and issues sixteen fused
/// multiply-adds, two per load. Edge tiles (`ka` or `kb` not a multiple
/// of 4) run the same kernel at a narrower shape, and a row count that is
/// not a multiple of 8 ends in one masked step. The AVX-512 and portable
/// lanes sum each output in the same order and agree bitwise; the AVX2
/// lane sums in four chains instead of eight.
///
/// # Panics
/// Panics if a panel is too short for its `(rows, ld, k)` view, if a
/// leading dimension is smaller than `rows`, or if `out.len() != ka·kb`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub fn gemm_tn(
    rows: usize,
    a: &[f64],
    lda: usize,
    ka: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
    out: &mut [f64],
) {
    gemm_tn_into::<false>(rows, a, lda, ka, b, ldb, kb, out);
}

/// `out += AᵀB`: [`gemm_tn`] adding each finished dot product to `out`
/// instead of overwriting it, with the same views and panics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tn_acc(
    rows: usize,
    a: &[f64],
    lda: usize,
    ka: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
    out: &mut [f64],
) {
    gemm_tn_into::<true>(rows, a, lda, ka, b, ldb, kb, out);
}

/// [`gemm_tn`] (`ACC = false`) or [`gemm_tn_acc`] (`ACC = true`).
#[allow(clippy::too_many_arguments)]
fn gemm_tn_into<const ACC: bool>(
    rows: usize,
    a: &[f64],
    lda: usize,
    ka: usize,
    b: &[f64],
    ldb: usize,
    kb: usize,
    out: &mut [f64],
) {
    assert!(lda >= rows && ldb >= rows, "gemm_tn: leading dimension < rows");
    assert_eq!(out.len(), ka * kb, "gemm_tn: output must be ka×kb");
    if ka == 0 || kb == 0 {
        return;
    }
    assert!(a.len() >= (ka - 1) * lda + rows, "gemm_tn: a too short");
    assert!(b.len() >= (kb - 1) * ldb + rows, "gemm_tn: b too short");
    let mut j = 0;
    while j < kb {
        let nb = (kb - j).min(TN_TILE);
        let mut i = 0;
        while i < ka {
            let na = (ka - i).min(TN_TILE);
            let (ai, bj) = (&a[i * lda..], &b[j * ldb..]);
            tn_block::<ACC>(na, nb, rows, ai, lda, bj, ldb, &mut out[i + ka * j..], ka);
            i += na;
        }
        j += nb;
    }
}

/// One `na × nb` tile (`1 ≤ na, nb ≤ TN_TILE`) of [`gemm_tn`]: the dot
/// products of columns `0..na` of `a` with columns `0..nb` of `b`, written
/// (or with `ACC` added) column-major at stride `ld` into `out`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_block<const ACC: bool>(
    na: usize,
    nb: usize,
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ld: usize,
) {
    match nb {
        4 => tn_store::<4, ACC>(na, rows, a, lda, b, ldb, out, ld),
        3 => tn_store::<3, ACC>(na, rows, a, lda, b, ldb, out, ld),
        2 => tn_store::<2, ACC>(na, rows, a, lda, b, ldb, out, ld),
        _ => tn_store::<1, ACC>(na, rows, a, lda, b, ldb, out, ld),
    }
}

/// One `na × MB` tile of [`gemm_tn`] (see [`tn_block`]).
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_store<const MB: usize, const ACC: bool>(
    na: usize,
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    out: &mut [f64],
    ld: usize,
) {
    fn put<const MA: usize, const MB: usize, const ACC: bool>(
        sums: [[f64; MA]; MB],
        out: &mut [f64],
        ld: usize,
    ) {
        for (y, col) in sums.iter().enumerate() {
            let o = &mut out[y * ld..y * ld + MA];
            if ACC {
                o.iter_mut().zip(col).for_each(|(o, s)| *o += s);
            } else {
                o.copy_from_slice(col);
            }
        }
    }
    match na {
        4 => put::<4, MB, ACC>(tn_tile::<4, MB>(rows, a, lda, b, ldb), out, ld),
        3 => put::<3, MB, ACC>(tn_tile::<3, MB>(rows, a, lda, b, ldb), out, ld),
        2 => put::<2, MB, ACC>(tn_tile::<2, MB>(rows, a, lda, b, ldb), out, ld),
        _ => put::<1, MB, ACC>(tn_tile::<1, MB>(rows, a, lda, b, ldb), out, ld),
    }
}

/// The `MA × MB` dot products of columns `0..MA` of `a` with columns
/// `0..MB` of `b` over `rows` rows: `sums[y][x] = a_xᵀ·b_y`, each held as
/// [`TN_LANES`] fused-multiply-add chains until the final pairwise sum.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn tn_tile<const MA: usize, const MB: usize>(
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
) -> [[f64; MA]; MB] {
    use core::arch::x86_64::*;
    assert!(
        a.len() >= (MA - 1) * lda + rows && b.len() >= (MB - 1) * ldb + rows,
        "tn_tile: view out of bounds"
    );
    let mut lanes = [[[0.0f64; TN_LANES]; MA]; MB];
    // SAFETY: column x of the A tile starts at `a[x·lda]` and column y of
    // the B tile at `b[y·ldb]`, both inside the slices by the assert above
    // (at most one past the end when `rows == 0`). Full steps read the 8
    // rows `r..r + 8 ≤ rows` of each column; the last partial step masks
    // its loads to the `rows − r` rows left, and masked-off lanes are not
    // accessed. Stores go to the local lane arrays. AVX-512F is a
    // compile-time target feature.
    unsafe {
        let pa: [*const f64; MA] = core::array::from_fn(|x| a.as_ptr().add(x * lda));
        let pb: [*const f64; MB] = core::array::from_fn(|y| b.as_ptr().add(y * ldb));
        let mut acc = [[_mm512_setzero_pd(); MA]; MB];
        let mut r = 0;
        while r + TN_LANES <= rows {
            let va: [__m512d; MA] = core::array::from_fn(|x| _mm512_loadu_pd(pa[x].add(r)));
            for y in 0..MB {
                let vb = _mm512_loadu_pd(pb[y].add(r));
                for x in 0..MA {
                    acc[y][x] = _mm512_fmadd_pd(va[x], vb, acc[y][x]);
                }
            }
            r += TN_LANES;
        }
        if r < rows {
            let k = lane_mask(rows - r);
            let va: [__m512d; MA] =
                core::array::from_fn(|x| _mm512_maskz_loadu_pd(k, pa[x].add(r)));
            for y in 0..MB {
                let vb = _mm512_maskz_loadu_pd(k, pb[y].add(r));
                for x in 0..MA {
                    // lanes past the last row keep their sums untouched
                    acc[y][x] = _mm512_mask3_fmadd_pd(va[x], vb, acc[y][x], k);
                }
            }
        }
        for y in 0..MB {
            for x in 0..MA {
                _mm512_storeu_pd(lanes[y][x].as_mut_ptr(), acc[y][x]);
            }
        }
    }
    lanes.map(|col| col.map(sum_unrolled))
}

/// AVX2+FMA lane: sixteen 256-bit registers do not hold a 4×4 tile of
/// accumulators plus its loads, so the tile runs as 4×2 (or 4×1)
/// sub-tiles, and each output sums in four 4-row chains (lane `l`: rows
/// `≡ l (mod 4)`). It agrees with the other lanes to rounding, not
/// bitwise.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
fn tn_tile<const MA: usize, const MB: usize>(
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
) -> [[f64; MA]; MB] {
    let mut sums = [[0.0f64; MA]; MB];
    let mut y = 0;
    while y < MB {
        let by = &b[y * ldb..];
        if MB - y >= 2 {
            let [s0, s1] = tn_avx2::<MA, 2>(rows, a, lda, by, ldb);
            (sums[y], sums[y + 1]) = (s0, s1);
            y += 2;
        } else {
            let [s0] = tn_avx2::<MA, 1>(rows, a, lda, by, ldb);
            sums[y] = s0;
            y += 1;
        }
    }
    sums
}

/// One AVX2 sub-tile of [`tn_tile`]: `MA × MB` dot products over `rows`.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
fn tn_avx2<const MA: usize, const MB: usize>(
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
) -> [[f64; MA]; MB] {
    use core::arch::x86_64::*;
    assert!(
        a.len() >= (MA - 1) * lda + rows && b.len() >= (MB - 1) * ldb + rows,
        "tn_avx2: view out of bounds"
    );
    let mut lanes = [[[0.0f64; TN_LANES]; MA]; MB];
    let mut r = 0;
    // SAFETY: column x of the A tile starts at `a[x·lda]` and column y of
    // the B tile at `b[y·ldb]`, both inside the slices by the assert above
    // (at most one past the end when `rows == 0`); each step reads the 4
    // rows `r..r + 4 ≤ rows` of each column. Stores go to the local lane
    // arrays. FMA (and with it AVX2) is a compile-time target feature.
    unsafe {
        let pa: [*const f64; MA] = core::array::from_fn(|x| a.as_ptr().add(x * lda));
        let pb: [*const f64; MB] = core::array::from_fn(|y| b.as_ptr().add(y * ldb));
        let mut acc = [[_mm256_setzero_pd(); MA]; MB];
        while r + TN_LANES <= rows {
            let va: [__m256d; MA] = core::array::from_fn(|x| _mm256_loadu_pd(pa[x].add(r)));
            for y in 0..MB {
                let vb = _mm256_loadu_pd(pb[y].add(r));
                for x in 0..MA {
                    acc[y][x] = _mm256_fmadd_pd(va[x], vb, acc[y][x]);
                }
            }
            r += TN_LANES;
        }
        for y in 0..MB {
            for x in 0..MA {
                _mm256_storeu_pd(lanes[y][x].as_mut_ptr(), acc[y][x]);
            }
        }
    }
    // the last `rows mod TN_LANES` rows continue their lanes' chains
    for (y, lanes_y) in lanes.iter_mut().enumerate() {
        for (x, lane) in lanes_y.iter_mut().enumerate() {
            for (l, i) in (r..rows).enumerate() {
                lane[l] = a[x * lda + i].mul_add(b[y * ldb + i], lane[l]);
            }
        }
    }
    lanes.map(|col| col.map(|l| (l[0] + l[1]) + (l[2] + l[3])))
}

/// Portable fallback: the AVX-512 lane assignment with scalar fused
/// multiply-adds, so it agrees with that path bitwise.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn tn_tile<const MA: usize, const MB: usize>(
    rows: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
) -> [[f64; MA]; MB] {
    assert!(
        a.len() >= (MA - 1) * lda + rows && b.len() >= (MB - 1) * ldb + rows,
        "tn_tile: view out of bounds"
    );
    let mut lanes = [[[0.0f64; TN_LANES]; MA]; MB];
    let mut r = 0;
    while r < rows {
        let n = (rows - r).min(TN_LANES);
        for (y, acc_y) in lanes.iter_mut().enumerate() {
            let cb = &b[y * ldb + r..y * ldb + r + n];
            for (x, acc) in acc_y.iter_mut().enumerate() {
                let ca = &a[x * lda + r..x * lda + r + n];
                for l in 0..n {
                    acc[l] = ca[l].mul_add(cb[l], acc[l]);
                }
            }
        }
        r += TN_LANES;
    }
    lanes.map(|col| col.map(sum_unrolled))
}

/// The AVX-512 mask of the first `n` lanes (`1 ≤ n ≤ 8`).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn lane_mask(n: usize) -> u8 {
    debug_assert!((1..=8).contains(&n));
    u8::MAX >> (8 - n)
}

/// Rows of a [`gemm_acc`] register tile: two vectors, 8-lane on AVX-512
/// (and in the portable lane, which mirrors it) and 4-lane on AVX2.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f"))))]
const ACC_ROWS: usize = 16;
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
const ACC_ROWS: usize = 8;

/// Columns of a [`gemm_acc`] register tile. With [`ACC_ROWS`] rows that is
/// sixteen vector accumulators, each fed one fused multiply-add per source.
const ACC_COLS: usize = 8;

/// Sources per [`gemm_acc`] block. Their scaled weights are staged on the
/// stack (4 KiB), and every `C` tile is loaded and stored once per block —
/// once per call whenever `p ≤ 64`.
const ACC_DEPTH: usize = 64;

/// Row-band height of [`gemm_acc`] and [`gemm_set`]: every column block of
/// `C` is computed for one band of rows before the next band starts, so
/// the band of `A` (`ACC_BAND · p` values, 128 KiB at `p = 64`) stays in
/// L2 while all of `C`'s column blocks read it, instead of streaming all
/// `rows` of `A` from memory once per 8 columns of `C`.
const ACC_BAND: usize = 256;

/// Rank-`p` accumulation `C ← C + α·A·W` for a strided column-major
/// output: `A` is `rows×p` (column stride `lda`), `W` is a dense `p×q`
/// column-major coefficient block, and column `j` of `C` is
/// `c[j·ldc .. j·ldc + rows]`. This is the second half of a compact-WY
/// block-reflector application (`C ← C − V·(TᵀVᵀC)`).
///
/// Computed as outer products on register tiles of 16 rows × 8 columns of
/// `C`: the tile is loaded once, every source contributes two `A` vector
/// loads and sixteen fused multiply-adds with the broadcast weights
/// `α·W[i, j]`, and the tile is stored once. Narrower column edges run the
/// same kernel with fewer columns, and row counts that are not a multiple
/// of 16 end in masked lanes. The rows run in bands of [`ACC_BAND`]. Each
/// element of `C` receives its sources in order `i = 0, 1, …` as exactly
/// rounded fused multiply-adds, whatever the band, so every lane path
/// agrees bitwise, and an exact zero weight on a finite source adds an
/// exact zero. [`gemm_set`] and [`panel_update_into`] run the same tiles
/// started at `+0.0` instead of loaded from `C`.
///
/// # Panics
/// Panics if a panel is too short for its view, a leading dimension is
/// smaller than `rows`, or `w.len() != p·q`.
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub fn gemm_acc(
    rows: usize,
    a: &[f64],
    lda: usize,
    p: usize,
    w: &[f64],
    q: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_banded::<true>(rows, a, lda, p, w, q, alpha, c, ldc, ACC_BAND);
}

/// `C ← α·A·W`, [`gemm_acc`] on an output it never reads: every tile
/// starts at `+0.0` in registers instead of being loaded from `C` (for
/// `p > 64` only the first block of sources does; the later blocks add
/// onto what it stored). Bit for bit [`gemm_acc`] onto a `C` of `+0.0`.
///
/// # Panics
/// As [`gemm_acc`].
#[allow(clippy::too_many_arguments)] // a strided-view GEMM is inherently (ptr, ld, k) × 3
pub(crate) fn gemm_set(
    rows: usize,
    a: &[f64],
    lda: usize,
    p: usize,
    w: &[f64],
    q: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
) {
    gemm_banded::<false>(rows, a, lda, p, w, q, alpha, c, ldc, ACC_BAND);
}

/// [`gemm_acc`] (`LOAD`) or [`gemm_set`] in row bands of `band` rows.
#[allow(clippy::too_many_arguments)]
fn gemm_banded<const LOAD: bool>(
    rows: usize,
    a: &[f64],
    lda: usize,
    p: usize,
    w: &[f64],
    q: usize,
    alpha: f64,
    c: &mut [f64],
    ldc: usize,
    band: usize,
) {
    assert!(lda >= rows && ldc >= rows, "gemm_acc: leading dimension < rows");
    assert_eq!(w.len(), p * q, "gemm_acc: w must be p×q");
    if p == 0 || q == 0 || rows == 0 {
        return;
    }
    assert!(a.len() >= (p - 1) * lda + rows, "gemm_acc: a too short");
    assert!(c.len() >= (q - 1) * ldc + rows, "gemm_acc: c too short");
    // one block's scaled weights, column-major: `ws[i + depth·y]`
    let mut ws = [0.0f64; ACC_DEPTH * ACC_COLS];
    for r0 in (0..rows).step_by(band.max(1)) {
        let rb = (rows - r0).min(band.max(1));
        for j in (0..q).step_by(ACC_COLS) {
            let nc = (q - j).min(ACC_COLS);
            for i0 in (0..p).step_by(ACC_DEPTH) {
                let depth = (p - i0).min(ACC_DEPTH);
                for y in 0..nc {
                    for i in 0..depth {
                        ws[i + depth * y] = alpha * w[i0 + i + p * (j + y)];
                    }
                }
                let x = &a[i0 * lda..];
                let src = Sources { x, ldx: lda, cx: depth, y: &[], ldy: 0, cy: 0, r0 };
                let c = &mut c[j * ldc + r0..];
                if LOAD || i0 > 0 {
                    acc_cols::<true>(rb, src, &ws, depth, nc, c, ldc);
                } else {
                    acc_cols::<false>(rb, src, &ws, depth, nc, c, ldc);
                }
            }
        }
    }
}

/// Columns `0..q` of `C` from the sources of `src` (weight `W[i, y]` at
/// `w[i + y·ldw]`), [`ACC_COLS`] at a time by [`acc_block`]: added onto
/// `C` with `LOAD`, written over it without.
fn acc_cols<const LOAD: bool>(
    rows: usize,
    src: Sources<'_>,
    w: &[f64],
    ldw: usize,
    q: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in (0..q).step_by(ACC_COLS) {
        let (w, c) = (&w[j * ldw..], &mut c[j * ldc..]);
        match (q - j).min(ACC_COLS) {
            8 => acc_block::<8, LOAD>(rows, src, w, ldw, c, ldc),
            7 => acc_block::<7, LOAD>(rows, src, w, ldw, c, ldc),
            6 => acc_block::<6, LOAD>(rows, src, w, ldw, c, ldc),
            5 => acc_block::<5, LOAD>(rows, src, w, ldw, c, ldc),
            4 => acc_block::<4, LOAD>(rows, src, w, ldw, c, ldc),
            3 => acc_block::<3, LOAD>(rows, src, w, ldw, c, ldc),
            2 => acc_block::<2, LOAD>(rows, src, w, ldw, c, ldc),
            _ => acc_block::<1, LOAD>(rows, src, w, ldw, c, ldc),
        }
    }
}

/// Asserts the views of an [`acc_block`]: every source holds `rows` rows,
/// `w` holds `NC` columns of one weight per source at stride `ldw`, and
/// `c` holds `NC` columns of `rows` at stride `ldc`.
fn acc_views<const NC: usize>(
    rows: usize,
    src: &Sources<'_>,
    w: &[f64],
    ldw: usize,
    c: &[f64],
    ldc: usize,
) {
    let k = src.cx + src.cy;
    assert!(
        k > 0
            && src.hold(rows)
            && ldw >= k
            && w.len() >= (NC - 1) * ldw + k
            && ldc >= rows
            && c.len() >= (NC - 1) * ldc + rows,
        "acc_block: view out of bounds"
    );
}

/// `C[:, 0..NC] (+)= Σᵢ src[i]·W[i, 0..NC]` over the sources in order, one
/// register tile of [`ACC_ROWS`] rows at a time; each tile starts from
/// `C` with `LOAD`, from `+0.0` in registers without.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline]
fn acc_block<const NC: usize, const LOAD: bool>(
    rows: usize,
    src: Sources<'_>,
    w: &[f64],
    ldw: usize,
    c: &mut [f64],
    ldc: usize,
) {
    acc_views::<NC>(rows, &src, w, ldw, c, ldc);
    let mut r = 0;
    while r < rows {
        let n = (rows - r).min(ACC_ROWS);
        // SAFETY: by `acc_views`, rows `r..r + n ≤ rows` of every source
        // lie inside its panel at the offsets `runs(r)` gives, the weights
        // of every source for columns `y < NC` inside `w`, and rows
        // `r..r + n` of output column `y < NC` inside `c` at `y·ldc + r`;
        // the masks enable exactly those `n` rows (the second vector only
        // when `n > 8`).
        unsafe {
            let (runs, pw, pc) = (src.runs(r), w.as_ptr(), c.as_mut_ptr().add(r));
            if n > 8 {
                acc_tile::<2, NC, LOAD>(runs, pw, ldw, pc, ldc, [u8::MAX, lane_mask(n - 8)]);
            } else {
                acc_tile::<1, NC, LOAD>(runs, pw, ldw, pc, ldc, [lane_mask(n)]);
            }
        }
        r += n;
    }
}

/// One register tile of [`acc_block`]: `NR` 8-row vectors × `NC` columns
/// of `C`, loaded once (`LOAD`) or started at `+0.0`, updated by every
/// source of both runs in order, stored once.
///
/// # Safety
/// For every run `(p, ld, count)`, source `i < count`, vector `v < NR` and
/// lane `l` enabled in `masks[v]`, the element `p + i·ld + 8v + l` must be
/// readable; `w + s + y·ldw` readable for every source `s` (counted across
/// both runs) and column `y < NC`; and `pc + y·ldc + 8v + l` writable, and
/// readable with `LOAD`. The first lane of every vector must be enabled.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn acc_tile<const NR: usize, const NC: usize, const LOAD: bool>(
    runs: [(*const f64, usize, usize); 2],
    w: *const f64,
    ldw: usize,
    pc: *mut f64,
    ldc: usize,
    masks: [u8; NR],
) {
    use core::arch::x86_64::*;
    // SAFETY: every offset below addresses the first lane of a vector, or
    // a weight, the caller guarantees in bounds, and the masked loads and
    // stores touch only the lanes the caller guarantees accessible.
    // AVX-512F is a compile-time target feature.
    unsafe {
        let mut acc: [[__m512d; NR]; NC] = core::array::from_fn(|y| {
            core::array::from_fn(|v| match LOAD {
                true => _mm512_maskz_loadu_pd(masks[v], pc.add(y * ldc + 8 * v)),
                false => _mm512_setzero_pd(),
            })
        });
        let mut s = 0;
        for (p, ld, count) in runs {
            for i in 0..count {
                let col = p.add(i * ld);
                let va: [__m512d; NR] =
                    core::array::from_fn(|v| _mm512_maskz_loadu_pd(masks[v], col.add(8 * v)));
                for (y, acc_y) in acc.iter_mut().enumerate() {
                    let wv = _mm512_set1_pd(*w.add(s + y * ldw));
                    for v in 0..NR {
                        acc_y[v] = _mm512_fmadd_pd(wv, va[v], acc_y[v]);
                    }
                }
                s += 1;
            }
        }
        for (y, acc_y) in acc.iter().enumerate() {
            for (v, &acc_yv) in acc_y.iter().enumerate() {
                _mm512_mask_storeu_pd(pc.add(y * ldc + 8 * v), masks[v], acc_yv);
            }
        }
    }
}

/// AVX2+FMA lane: 8-row tiles (two 256-bit vectors) split into column
/// quads, so eight accumulators plus the loads fit the sixteen registers;
/// the last `rows mod 8` rows run as scalar fused multiply-adds. The
/// per-element chains are the AVX-512 lane's, so the two agree bitwise.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline]
fn acc_block<const NC: usize, const LOAD: bool>(
    rows: usize,
    src: Sources<'_>,
    w: &[f64],
    ldw: usize,
    c: &mut [f64],
    ldc: usize,
) {
    acc_views::<NC>(rows, &src, w, ldw, c, ldc);
    let full = rows - rows % ACC_ROWS;
    for r in (0..full).step_by(ACC_ROWS) {
        let mut y0 = 0;
        while y0 < NC {
            let nq = (NC - y0).min(4);
            // SAFETY: by `acc_views`, rows `r..r + 8 ≤ rows` of every
            // source lie inside its panel at the offsets `runs(r)` gives,
            // the weights of every source for columns `y0 + y < NC` inside
            // `w`, and rows `r..r + 8` of output column `y0 + y` inside `c`
            // at `(y0 + y)·ldc + r`.
            unsafe {
                let runs = src.runs(r);
                let (pw, pc) = (w.as_ptr().add(y0 * ldw), c.as_mut_ptr().add(y0 * ldc + r));
                match nq {
                    4 => acc_avx2::<4, LOAD>(runs, pw, ldw, pc, ldc),
                    3 => acc_avx2::<3, LOAD>(runs, pw, ldw, pc, ldc),
                    2 => acc_avx2::<2, LOAD>(runs, pw, ldw, pc, ldc),
                    _ => acc_avx2::<1, LOAD>(runs, pw, ldw, pc, ldc),
                }
            }
            y0 += nq;
        }
    }
    for y in 0..NC {
        for r in full..rows {
            let mut acc = if LOAD { c[y * ldc + r] } else { 0.0 };
            for i in 0..src.cx + src.cy {
                acc = w[i + y * ldw].mul_add(src.col(i)[r], acc);
            }
            c[y * ldc + r] = acc;
        }
    }
}

/// One AVX2 tile of [`acc_block`]: 8 rows × `NQ` columns of `C`, loaded
/// once (`LOAD`) or started at `+0.0`, updated by every source of both
/// runs in order, stored once.
///
/// # Safety
/// For every run `(p, ld, count)` and source `i < count`,
/// `p + i·ld .. + 8` must be readable; `w + s + y·ldw` readable for every
/// source `s` (counted across both runs) and column `y < NQ`; and
/// `pc + y·ldc .. + 8` writable for every `y < NQ`, and readable with
/// `LOAD`.
#[cfg(all(target_arch = "x86_64", target_feature = "fma", not(target_feature = "avx512f")))]
#[inline(always)]
unsafe fn acc_avx2<const NQ: usize, const LOAD: bool>(
    runs: [(*const f64, usize, usize); 2],
    w: *const f64,
    ldw: usize,
    pc: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: every access stays in the 8-row runs and the weights the
    // caller guarantees; FMA (and with it AVX2) is a compile-time target
    // feature.
    unsafe {
        let mut acc: [[__m256d; 2]; NQ] = core::array::from_fn(|y| {
            core::array::from_fn(|v| match LOAD {
                true => _mm256_loadu_pd(pc.add(y * ldc + 4 * v)),
                false => _mm256_setzero_pd(),
            })
        });
        let mut s = 0;
        for (p, ld, count) in runs {
            for i in 0..count {
                let col = p.add(i * ld);
                let va = [_mm256_loadu_pd(col), _mm256_loadu_pd(col.add(4))];
                for (y, [lo, hi]) in acc.iter_mut().enumerate() {
                    let wv = _mm256_set1_pd(*w.add(s + y * ldw));
                    *lo = _mm256_fmadd_pd(wv, va[0], *lo);
                    *hi = _mm256_fmadd_pd(wv, va[1], *hi);
                }
                s += 1;
            }
        }
        for (y, [lo, hi]) in acc.into_iter().enumerate() {
            _mm256_storeu_pd(pc.add(y * ldc), lo);
            _mm256_storeu_pd(pc.add(y * ldc + 4), hi);
        }
    }
}

/// Portable fallback: the same tiles and source order with scalar fused
/// multiply-adds, so it agrees with the vector lanes bitwise.
#[cfg(not(all(target_arch = "x86_64", target_feature = "fma")))]
#[inline]
fn acc_block<const NC: usize, const LOAD: bool>(
    rows: usize,
    src: Sources<'_>,
    w: &[f64],
    ldw: usize,
    c: &mut [f64],
    ldc: usize,
) {
    acc_views::<NC>(rows, &src, w, ldw, c, ldc);
    let mut r = 0;
    while r < rows {
        let n = (rows - r).min(ACC_ROWS);
        let mut acc = [[0.0f64; ACC_ROWS]; NC];
        if LOAD {
            for (y, t) in acc.iter_mut().enumerate() {
                t[..n].copy_from_slice(&c[y * ldc + r..y * ldc + r + n]);
            }
        }
        for i in 0..src.cx + src.cy {
            let col = &src.col(i)[r..r + n];
            for (y, t) in acc.iter_mut().enumerate() {
                let wy = w[i + y * ldw];
                for l in 0..n {
                    t[l] = wy.mul_add(col[l], t[l]);
                }
            }
        }
        for (y, t) in acc.iter().enumerate() {
            c[y * ldc + r..y * ldc + r + n].copy_from_slice(&t[..n]);
        }
        r += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn unrolled_kernels_match_naive_closely() {
        // lengths straddling the unroll boundaries, including tails
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257] {
            let x: Vec<f64> = (0..len).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
            let y: Vec<f64> = (0..len).map(|i| ((i * 53 + 5) % 19) as f64 - 9.0).collect();
            let tol = 1e-12 * (len.max(1) as f64);
            assert!((dot(&x, &y) - naive::dot(&x, &y)).abs() <= tol, "dot len {len}");
            assert!((norm2_sq(&x) - naive::norm2_sq(&x)).abs() <= tol, "norm2_sq len {len}");
            let (aa, bb, ab) = gram3(&x, &y);
            let (naa, nbb, nab) = naive::gram3(&x, &y);
            assert!(
                (aa - naa).abs() <= tol && (bb - nbb).abs() <= tol && (ab - nab).abs() <= tol,
                "gram3 len {len}"
            );
            let mut y1 = y.clone();
            let mut y2 = y.clone();
            axpy(1.5, &x, &mut y1);
            naive::axpy(1.5, &x, &mut y2);
            assert_eq!(y1, y2, "axpy len {len}");
        }
    }

    #[test]
    fn norm2_matches_naive_on_tame_data() {
        let x = [3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_lane_max_is_the_strict_fold() {
        // the scale is a maximum, exact in any order: the lanes must give
        // the strict left-to-right fold's norm bit for bit, NaN entries
        // skipped in the scale as f64::max skips them, and NaN out when
        // any entry is NaN
        fn strict_fold_norm2(x: &[f64]) -> f64 {
            let scale = x.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            if scale == 0.0 || !scale.is_finite() {
                return if x.iter().any(|v| v.is_nan()) { f64::NAN } else { scale };
            }
            let inv = 1.0 / scale;
            let mut acc = [0.0f64; UNROLL];
            let xc = x.chunks_exact(UNROLL);
            let tail: f64 = xc.remainder().iter().map(|v| (v * inv) * (v * inv)).sum();
            for cx in xc {
                for k in 0..UNROLL {
                    acc[k] += (cx[k] * inv) * (cx[k] * inv);
                }
            }
            scale * (sum_unrolled(acc) + tail).sqrt()
        }
        for len in [1usize, 7, 8, 9, 31, 64, 100] {
            let mut x: Vec<f64> = (0..len).map(|i| ((i * 37 + 11) % 23) as f64 - 11.0).collect();
            x[len / 2] = -1e-300;
            x[len - 1] *= 3e250;
            for poison in [None, Some(f64::NAN), Some(f64::INFINITY), Some(-0.0)] {
                if let Some(p) = poison {
                    x[len / 3] = p;
                }
                let (got, want) = (norm2(&x), strict_fold_norm2(&x));
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} {poison:?}: {got} vs {want}");
            }
        }
        // no scale to find: the NaN is the answer, not 0 or ∞
        for x in [vec![f64::NAN; 9], vec![f64::NAN, 0.0, -0.0], vec![0.0, f64::NAN, f64::INFINITY]]
        {
            assert!(norm2(&x).is_nan(), "{x:?}");
        }
    }

    #[test]
    fn norm2_survives_extreme_scales() {
        let big = [1e200, 1e200];
        let n = norm2(&big);
        assert!(n.is_finite());
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-14);
        let small = [1e-200, 1e-200];
        let n = norm2(&small);
        assert!(n > 0.0);
        assert!((n - 1e-200 * 2.0_f64.sqrt()).abs() / n < 1e-14);
        // a subnormal largest entry: 1/scale overflows past 2^-1024
        for tiny in [1e-309, 3e-320, 5e-324] {
            let x = [tiny, -tiny, 0.0, tiny, tiny];
            let want = tiny * 2.0;
            let n = norm2(&x);
            assert!((n - want).abs() <= 1e-15 * want + 5e-324, "{tiny:e}: {n:e} vs {want:e}");
        }
    }

    #[test]
    fn axpy_and_scal() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
    }

    #[test]
    fn gram3_consistent_with_dot() {
        let a = [1.0, 2.0, -1.0];
        let b = [0.5, -3.0, 2.0];
        let (aa, bb, ab) = gram3(&a, &b);
        assert!((aa - dot(&a, &a)).abs() < 1e-14);
        assert!((bb - dot(&b, &b)).abs() < 1e-14);
        assert!((ab - dot(&a, &b)).abs() < 1e-14);
    }

    #[test]
    fn norm2_sq_is_dot_with_self() {
        let a = [1.5, -2.0];
        assert_eq!(norm2_sq(&a), dot(&a, &a));
    }

    #[test]
    fn rotate_fused_matches_unfused_reference() {
        let (c, s) = (0.8, 0.6);
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100] {
            let a0: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin()).collect();
            let b0: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos()).collect();

            let (mut a1, mut b1) = (a0.clone(), b0.clone());
            let (ra, rb) = naive::rotate_then_norms(c, s, &mut a1, &mut b1);

            let (mut a2, mut b2) = (a0.clone(), b0.clone());
            let (fa, fb) = rotate_fused(c, s, &mut a2, &mut b2);

            // the written columns are element-wise identical (same formula)
            assert_eq!(a1, a2, "len {len}");
            assert_eq!(b1, b2, "len {len}");
            // the fused norms agree with the recomputed ones up to rounding
            assert!((ra - fa).abs() <= 1e-13 * ra.max(1.0), "len {len}");
            assert!((rb - fb).abs() <= 1e-13 * rb.max(1.0), "len {len}");

            // swapped form = rotate, then exchange the columns
            let (mut a3, mut b3) = (a0.clone(), b0.clone());
            let (sa, sb) = rotate_fused_swapped(c, s, &mut a3, &mut b3);
            assert_eq!(a3, b1, "swapped len {len}");
            assert_eq!(b3, a1, "swapped len {len}");
            assert!((sa - fb).abs() <= 1e-13 * fb.max(1.0));
            assert!((sb - fa).abs() <= 1e-13 * fa.max(1.0));
        }
    }

    #[test]
    fn rotate_fused_identity_swap_is_exact_exchange() {
        let a0 = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let b0 = vec![-1.0, 0.5, 2.0, -2.0, 0.25];
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let (na, nb) = rotate_fused_swapped(1.0, 0.0, &mut a, &mut b);
        assert_eq!(a, b0);
        assert_eq!(b, a0);
        assert!((na - norm2_sq(&b0)).abs() < 1e-14);
        assert!((nb - norm2_sq(&a0)).abs() < 1e-14);
    }

    /// Deterministic pseudo-random panel (column-major, m×k).
    fn test_panel(m: usize, k: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..m * k)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn gram_block_matches_pairwise_dots() {
        // straddle the row-lane and register-tile boundaries, with X/Y
        // seams inside a tile and one-sided unions
        for (m, cx, cy) in [
            (5, 2, 3),
            (PANEL_TILE, 4, 4),
            (PANEL_TILE + 7, 3, 5),
            (300, 1, 0),
            (37, 5, 6),
            (16, 0, 7),
            (9, 9, 0),
        ] {
            let x = test_panel(m, cx, 1);
            let y = test_panel(m, cy, 2);
            let k = cx + cy;
            let mut g = vec![0.0; k * k];
            gram_block(&x, &y, m, &mut g);
            for j in 0..k {
                for i in 0..k {
                    let want = naive::dot(union_col(&x, &y, m, i), union_col(&x, &y, m, j));
                    let got = g[i + k * j];
                    assert!(
                        (got - want).abs() <= 1e-12 * (m as f64),
                        "G[{i},{j}] m={m} cx={cx} cy={cy}: {got} vs {want}"
                    );
                    assert_eq!(got.to_bits(), g[j + k * i].to_bits(), "G[{i},{j}] symmetric");
                }
            }
        }
    }

    #[test]
    fn gram_block_empty_is_ok() {
        let mut g = [];
        gram_block(&[], &[], 0, &mut g);
        gram_block(&[], &[], 4, &mut g);
    }

    #[test]
    fn panel_update_matches_explicit_multiply() {
        // W: dense columns (with exact zeros, or with a unit diagonal),
        // identity columns, permutation columns from pure swaps and a zero
        // column, at every X/Y split, odd k, and m not a multiple of 16 or
        // of PANEL_TILE
        fn sparse_w(k: usize, seed: u64) -> Vec<f64> {
            let mut w = test_panel(k, k, seed);
            let unit = |w: &mut [f64], j: usize, i: usize| {
                w[k * j..k * (j + 1)].fill(0.0);
                w[i + k * j] = 1.0;
            };
            if k >= 2 {
                unit(&mut w, 0, 0);
            }
            if k >= 3 {
                w[2 + k * 2] = 1.0; // a unit diagonal in a moved column
            }
            if k >= 4 {
                unit(&mut w, 1, 3);
                unit(&mut w, 3, 1);
            }
            if k >= 5 {
                w[k * 4..k * 5].fill(0.0);
            }
            if k >= 6 {
                w[5 + k * 2] = 0.0;
                w[k - 1 + k * 5] = 0.0;
            }
            if k >= 8 {
                unit(&mut w, 6, 6);
            }
            w
        }
        for m in [6, 37, PANEL_TILE + 3, 2 * PANEL_TILE + 21] {
            for k in [1, 2, 5, 7, 8, 12] {
                for cx in 0..=k {
                    let cy = k - cx;
                    // −0.0 entries show whether a column was left as it
                    // is or rewritten (a rewrite gives +0.0)
                    let signed = |mut p: Vec<f64>| {
                        p.iter_mut().step_by(7).for_each(|v| *v = -0.0);
                        p
                    };
                    let x0 = signed(test_panel(m, cx, 3));
                    let y0 = signed(test_panel(m, cy, 4));
                    for w in [test_panel(k, k, 5), sparse_w(k, 6)] {
                        let (mut x, mut y) = (x0.clone(), y0.clone());
                        let mut tile = vec![0.0; k * PANEL_TILE];
                        panel_update(&mut x, &mut y, m, &w, &mut tile);
                        let (mut xr, mut yr) = (x0.clone(), y0.clone());
                        naive::panel_update(&mut xr, &mut yr, m, &w);
                        for (got, want) in x.iter().chain(&y).zip(xr.iter().chain(&yr)) {
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "m={m} cx={cx} cy={cy}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn panel_update_identity_is_noop_bitwise() {
        let m = PANEL_TILE + 9;
        let (cx, cy) = (3, 2);
        let k = cx + cy;
        let x0 = test_panel(m, cx, 7);
        let y0 = test_panel(m, cy, 8);
        let mut w = vec![0.0; k * k];
        for i in 0..k {
            w[i + k * i] = 1.0;
        }
        let (mut x, mut y) = (x0.clone(), y0.clone());
        let mut tile = vec![0.0; k * PANEL_TILE];
        panel_update(&mut x, &mut y, m, &w, &mut tile);
        assert_eq!(x, x0);
        assert_eq!(y, y0);
    }

    #[test]
    fn panel_update_into_matches_in_place_and_naive() {
        // widths on and across the 8-column tile edge, X and Y of equal and
        // unequal widths; rows from one to past the band, on and off the
        // 16-row tile edge; W dense, with some e_j columns, a pure
        // interchange of column pairs, and the identity
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for k in [2usize, 5, 16, 32, 33] {
            let mut dense = test_panel(k, k, 41);
            let mut some_unit = test_panel(k, k, 42);
            let (mut swaps, mut identity) = (vec![0.0; k * k], vec![0.0; k * k]);
            for j in 0..k {
                identity[j + k * j] = 1.0;
                // pairs (0 1), (2 3), … trade places; an odd last column stays
                let i = if j % 2 == 0 { (j + 1).min(k - 1) } else { j - 1 };
                swaps[i + k * j] = 1.0;
                if j % 3 == 1 {
                    some_unit[k * j..k * (j + 1)].copy_from_slice(&identity[k * j..k * (j + 1)]);
                }
            }
            dense[k * (k - 1)] = 0.0; // an exact zero weight in a moved column
            for cx in [k / 2, 1, k - 1] {
                for m in [1usize, 7, 16, 127, 512] {
                    let signed = |mut p: Vec<f64>| {
                        p.iter_mut().step_by(5).for_each(|v| *v = -0.0);
                        p
                    };
                    let x = signed(test_panel(m, cx, 43));
                    let y = signed(test_panel(m, k - cx, 44));
                    for (what, w) in [
                        ("dense", &dense),
                        ("e_j", &some_unit),
                        ("swaps", &swaps),
                        ("id", &identity),
                    ] {
                        let case = format!("k={k} cx={cx} m={m} W {what}");
                        let (mut xi, mut yi) = (x.clone(), y.clone());
                        let mut tile = vec![0.0; k * PANEL_TILE];
                        panel_update(&mut xi, &mut yi, m, w, &mut tile);
                        let (mut xn, mut yn) = (x.clone(), y.clone());
                        naive::panel_update(&mut xn, &mut yn, m, w);
                        // a NaN fill shows every value the update leaves
                        let (mut xo, mut yo) = (vec![f64::NAN; x.len()], vec![f64::NAN; y.len()]);
                        let written = panel_update_into(&x, &y, m, w, &mut xo, &mut yo);
                        let moved =
                            |js: std::ops::Range<usize>| js.into_iter().any(|j| moves(w, k, j));
                        assert_eq!(written, [moved(0..cx), moved(cx..k)], "{case}");
                        let sides = [
                            ("X", written[0], &xo, &x, &xi, &xn),
                            ("Y", written[1], &yo, &y, &yi, &yn),
                        ];
                        for (side, side_written, into, input, in_place, naive) in sides {
                            let result = if side_written { into } else { input };
                            assert_eq!(
                                bits(result),
                                bits(in_place),
                                "{case} {side}: into vs in place"
                            );
                            if !side_written {
                                assert!(
                                    into.iter().all(|v| v.is_nan()),
                                    "{case} {side}: untouched"
                                );
                            }
                            for (r, (got, want)) in in_place.iter().zip(naive.iter()).enumerate() {
                                let same = got.to_bits() == want.to_bits()
                                    || (*got == 0.0 && *want == 0.0);
                                assert!(same, "{case} {side}[{r}]: {got} vs naive {want}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive_on_strided_views() {
        // odd/even panel widths, leading dimensions larger than rows
        for (rows, lda, ka, ldb, kb) in
            [(7, 7, 3, 7, 3), (16, 20, 4, 16, 5), (33, 40, 5, 35, 4), (130, 131, 2, 133, 7)]
        {
            let a = test_panel(lda, ka, 11);
            let b = test_panel(ldb, kb, 12);
            let mut out = vec![0.0; ka * kb];
            gemm_tn(rows, &a, lda, ka, &b, ldb, kb, &mut out);
            for j in 0..kb {
                for i in 0..ka {
                    let want = naive::dot(&a[i * lda..i * lda + rows], &b[j * ldb..j * ldb + rows]);
                    let got = out[i + ka * j];
                    assert!(
                        (got - want).abs() <= 1e-11 * (rows as f64),
                        "({rows},{ka},{kb}) entry ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_acc_matches_naive_accumulation() {
        for (rows, lda, p, ldc, q, alpha) in [
            (9, 9, 3, 9, 2, -1.0),
            (PANEL_TILE + 5, PANEL_TILE + 5, 6, PANEL_TILE + 9, 5, -1.0),
            (40, 64, 5, 48, 1, 0.5),
            (17, 17, 1, 17, 4, 2.0),
        ] {
            let a = test_panel(lda, p, 21);
            let w = test_panel(p, q, 22);
            let c0 = test_panel(ldc, q, 23);
            let mut c = c0.clone();
            gemm_acc(rows, &a, lda, p, &w, q, alpha, &mut c, ldc);
            for j in 0..q {
                for r in 0..ldc {
                    let want = if r < rows {
                        let mix: f64 = (0..p).map(|i| a[i * lda + r] * w[i + p * j]).sum();
                        c0[j * ldc + r] + alpha * mix
                    } else {
                        c0[j * ldc + r] // rows past the view are untouched
                    };
                    let got = c[j * ldc + r];
                    assert!(
                        (got - want).abs() <= 1e-11 * (p.max(1) as f64),
                        "({rows},{p},{q}) col {j} row {r}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// A `gemm_acc` operand set: `A` (`rows × p` at stride `rows + 3`)
    /// with every seventh entry `−0.0`, and `W` (`p × q`) with a zero
    /// column and every fifth weight an exact zero.
    fn gemm_operands(rows: usize, p: usize, q: usize) -> (Vec<f64>, usize, Vec<f64>) {
        let lda = rows + 3;
        let mut a = test_panel(lda, p, (rows * p) as u64);
        a.iter_mut().step_by(7).for_each(|v| *v = -0.0);
        let mut w = test_panel(p, q, (p * q) as u64 + 1);
        w.iter_mut().step_by(5).for_each(|v| *v = 0.0);
        w[..p].fill(0.0);
        (a, lda, w)
    }

    #[test]
    fn gemm_set_equals_gemm_acc_onto_zeros() {
        // rows within a tile, across tile edges and across bands, none a
        // multiple of 8 past the first tile; p within one block of sources
        // and past it (p > 64 adds later blocks onto the first's store)
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [1usize, 7, 16, 37, ACC_BAND + 13, 2 * ACC_BAND + 45] {
            for (p, q) in [(1usize, 3usize), (5, 8), (64, 13), (70, 9), (130, 2)] {
                let (a, lda, w) = gemm_operands(rows, p, q);
                let ldc = rows + 5;
                let mut zeroed = vec![0.0; ldc * q];
                gemm_acc(rows, &a, lda, p, &w, q, -1.0, &mut zeroed, ldc);
                // a NaN fill shows every output read, and every row past
                // the view written
                let mut set = vec![f64::NAN; ldc * q];
                gemm_set(rows, &a, lda, p, &w, q, -1.0, &mut set, ldc);
                for j in 0..q {
                    let (got, want) = (&set[j * ldc..][..ldc], &zeroed[j * ldc..][..ldc]);
                    let case = format!("rows {rows} p {p} q {q} column {j}");
                    assert_eq!(bits(&got[..rows]), bits(&want[..rows]), "{case}");
                    assert!(got[rows..].iter().all(|v| v.is_nan()), "{case}: past the view");
                }
            }
        }
    }

    #[test]
    fn gemm_acc_bands_match_one_band() {
        // rows spanning several bands, none a multiple of 8; bands of the
        // default height and of heights that end tiles mid-band
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [2 * ACC_BAND + 37, 3 * ACC_BAND + 3, 101] {
            for (p, q) in [(6usize, 11usize), (64, 8), (97, 5)] {
                let (a, lda, w) = gemm_operands(rows, p, q);
                let ldc = rows + 2;
                let c0 = test_panel(ldc, q, 77);
                for band in [ACC_BAND, 40, 24] {
                    let (mut one, mut banded) = (c0.clone(), c0.clone());
                    gemm_banded::<true>(rows, &a, lda, p, &w, q, 0.5, &mut one, ldc, rows);
                    gemm_banded::<true>(rows, &a, lda, p, &w, q, 0.5, &mut banded, ldc, band);
                    assert_eq!(bits(&banded), bits(&one), "acc rows {rows} p {p} band {band}");
                    let (mut one, mut banded) = (c0.clone(), c0.clone());
                    gemm_banded::<false>(rows, &a, lda, p, &w, q, 0.5, &mut one, ldc, rows);
                    gemm_banded::<false>(rows, &a, lda, p, &w, q, 0.5, &mut banded, ldc, band);
                    assert_eq!(bits(&banded), bits(&one), "set rows {rows} p {p} band {band}");
                }
            }
        }
    }

    #[test]
    fn gemm_acc_zero_weights_are_exact_noops() {
        let (rows, p, q) = (12, 4, 3);
        let a = test_panel(rows, p, 31);
        let w = vec![0.0; p * q];
        let c0 = test_panel(rows, q, 32);
        let mut c = c0.clone();
        gemm_acc(rows, &a, rows, p, &w, q, -1.0, &mut c, rows);
        assert_eq!(c, c0);
    }
}
