//! Structure-of-arrays lane kernels for the batched small-SVD engine.
//!
//! The one-sided Jacobi machinery elsewhere in this crate vectorizes
//! *within* one problem: a rotation streams two long columns through SIMD
//! lanes. For batches of millions of *small* problems (2×2 up to ~64×64)
//! that shape is hopeless — the columns are shorter than one vector
//! register. The kernels here therefore vectorize *across problems*
//! (Novaković, arXiv 2005.07403; the GPU batch solver of arXiv
//! 2601.17979): matrix entries for `L` problems are interleaved so that
//! entry `(r, c)` of problem `l` lives at lane `l` of a contiguous
//! `L`-wide plane, and one AVX-512 (or AVX2) instruction advances all `L`
//! problems at once.
//!
//! Three kernels cover a whole batched Jacobi sweep:
//!
//! * [`gram_lanes`] — the per-pair Gram entries `(α, β, γ)`, one value per
//!   lane, accumulated vertically over the rows of the column planes;
//! * [`rotation_lanes`] — the branch-free `(c, s)` solve: every lane
//!   computes both the rotation and its alternatives (threshold skip,
//!   huge-ζ asymptote, sort-order swap) and masked selects pick the
//!   survivor, so divergent problems cost no branches;
//! * [`rotate_lanes`] — the fused apply: rotate both planes under a
//!   per-lane `write` mask (converged problems are left untouched) with a
//!   per-lane `swap` mask folding the paper's equation (3) column
//!   interchange into the same pass.
//!
//! Like the column kernels in [`crate::ops`], every SIMD body is plain
//! lane-wise multiply/add — no FMA contraction — and accumulates in the
//! same order as the scalar fallback, so the two paths are **bitwise
//! identical** and the fallback can be forced at runtime
//! ([`LanePath::Scalar`]) for testing and benchmarking.

use crate::rotation::ZETA_HUGE;

/// Default lane-group width: one AVX-512 register of `f64`s, or two AVX2
/// registers processed back to back. Problem `i` of a batch lives at lane
/// `i % LANES` of lane-group `i / LANES`.
pub const LANES: usize = 8;

/// Which kernel body executes the lane math.
///
/// `Auto` picks the widest SIMD body the build supports (AVX-512 →
/// AVX2 → scalar); `Scalar` forces the portable fallback. Both paths are
/// bitwise identical, so `Scalar` exists for benchmarking the fallback
/// and for property tests, not for correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LanePath {
    /// Widest available SIMD body (compile-time feature detection).
    #[default]
    Auto,
    /// Portable scalar body, identical lane semantics.
    Scalar,
}

/// Per-lane outcome of the branch-free rotation solve for one column pair:
/// the rotation parameters plus the masks that steer [`rotate_lanes`].
///
/// Masks are all-ones (`u64::MAX`) or all-zeros per lane so the SIMD
/// bodies can use them directly as blend masks.
#[derive(Debug, Clone, Copy)]
pub struct LaneRotation<const L: usize> {
    /// Cosines (exactly `1.0` on skipped lanes).
    pub c: [f64; L],
    /// Sines (exactly `0.0` on skipped lanes).
    pub s: [f64; L],
    /// Lanes whose columns are interchanged (equation (3)): the sort
    /// wants the larger post-rotation norm on the left. A lane can swap
    /// even when its rotation is the identity.
    pub swap: [u64; L],
    /// Lanes whose planes must be written: active and (rotated or
    /// swapped). The complement is exactly the set of lanes for which the
    /// sequential reference would not touch the data either.
    pub write: [u64; L],
}

impl<const L: usize> LaneRotation<L> {
    /// Whether any lane writes — when false the caller can skip the
    /// [`rotate_lanes`] passes (and the V update) entirely.
    #[must_use]
    pub fn any_write(&self) -> bool {
        self.write.iter().any(|&w| w != 0)
    }
}

/// Lane-wise Gram entries of a column-plane pair: for each lane `l`,
/// `(α_l, β_l, γ_l) = (x_l·x_l, y_l·y_l, x_l·y_l)` accumulated strictly
/// over the rows (row `r`, lane `l` lives at `r·L + l`).
///
/// # Panics
/// Panics if the planes differ in length or are not a multiple of `L`.
#[must_use]
pub fn gram_lanes<const L: usize>(
    x: &[f64],
    y: &[f64],
    path: LanePath,
) -> ([f64; L], [f64; L], [f64; L]) {
    assert_eq!(x.len(), y.len(), "gram_lanes: plane length mismatch");
    assert_eq!(x.len() % L, 0, "gram_lanes: plane not a multiple of the lane width");
    match path {
        LanePath::Auto => gram_lanes_auto::<L>(x, y),
        LanePath::Scalar => gram_lanes_scalar::<L>(x, y),
    }
}

/// Apply the per-lane rotations to a column-plane pair under the `write`
/// and `swap` masks: lanes with `write = 0` keep their old values bitwise;
/// swapped lanes store `(s·x + c·y, c·x − s·y)` (rotation and interchange
/// in one pass), unswapped lanes store `(c·x − s·y, s·x + c·y)`.
///
/// # Panics
/// Panics if the planes differ in length or are not a multiple of `L`.
pub fn rotate_lanes<const L: usize>(
    rot: &LaneRotation<L>,
    x: &mut [f64],
    y: &mut [f64],
    path: LanePath,
) {
    assert_eq!(x.len(), y.len(), "rotate_lanes: plane length mismatch");
    assert_eq!(x.len() % L, 0, "rotate_lanes: plane not a multiple of the lane width");
    match path {
        LanePath::Auto => rotate_lanes_auto::<L>(rot, x, y),
        LanePath::Scalar => rotate_lanes_scalar::<L>(rot, x, y),
    }
}

/// [`rotate_lanes`] applied to **two** plane pairs under the same
/// rotation — the per-pair `(A, V)` update of the batched engine. The
/// pairs may differ in length (`A` planes have `rows` rows, `V` planes
/// `cols`); sharing one call amortizes the mask/coefficient setup, which
/// dominates for small planes. Results are bitwise identical to two
/// [`rotate_lanes`] calls.
///
/// # Panics
/// Panics if either pair's planes differ in length or are not a multiple
/// of `L`.
pub fn rotate_lanes_dual<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
    path: LanePath,
) {
    assert_eq!(x1.len(), y1.len(), "rotate_lanes_dual: first plane length mismatch");
    assert_eq!(x2.len(), y2.len(), "rotate_lanes_dual: second plane length mismatch");
    assert_eq!(x1.len() % L, 0, "rotate_lanes_dual: plane not a multiple of the lane width");
    assert_eq!(x2.len() % L, 0, "rotate_lanes_dual: plane not a multiple of the lane width");
    match path {
        LanePath::Auto => rotate_lanes_dual_auto::<L>(rot, x1, y1, x2, y2),
        LanePath::Scalar => rotate_lanes_dual_scalar::<L>(rot, x1, y1, x2, y2),
    }
}

/// The branch-free per-lane `(c, s)` solve for one column pair, mirroring
/// [`crate::rotation::compute_rotation`] and the swap decision of
/// [`crate::rotation::orthogonalize_pair`] lane-wise.
///
/// Every lane computes all alternatives and masked selects choose:
///
/// * **threshold skip** — `|γ| ≤ threshold·√α·√β`, or a zero column
///   (`α = 0` or `β = 0`): identity rotation, exactly `(c, s) = (1, 0)`;
/// * **huge ζ** — `|ζ| > 10¹⁵⁰` ([`ZETA_HUGE`], shared with
///   [`crate::rotation::compute_rotation`]), where the textbook
///   `t = sign(ζ)/(|ζ| + √(1 + ζ²))` would overflow `ζ²` to infinity and
///   collapse to `t = 0`: the asymptote `t = 1/(2ζ)` is used instead, so
///   the solve never overflows for any finite Gram entries;
/// * **sort swap** — with `sort_descending`, lanes whose predicted
///   post-rotation right norm exceeds the left get the swapped store.
///
/// Inactive lanes (`active = 0`, i.e. already-converged problems) never
/// write, whatever the data says.
#[must_use]
#[allow(clippy::needless_range_loop)] // lane loops: indexed across 6 arrays
pub fn rotation_lanes<const L: usize>(
    alpha: &[f64; L],
    beta: &[f64; L],
    gamma: &[f64; L],
    threshold: f64,
    sort_descending: bool,
    active: &[u64; L],
) -> LaneRotation<L> {
    let mut out = LaneRotation { c: [1.0; L], s: [0.0; L], swap: [0; L], write: [0; L] };
    for l in 0..L {
        let (a, b, g) = (alpha[l], beta[l], gamma[l]);
        // threshold skip: identical condition to compute_rotation — a zero
        // column is orthogonal to everything, and |γ| under the Wilkinson
        // threshold is declared converged
        let limit = threshold * (a.sqrt() * b.sqrt());
        let skip = a == 0.0 || b == 0.0 || g.abs() <= limit;
        // both solve variants are computed unconditionally (vector lanes
        // cannot branch); selects keep the valid one
        let zeta = (b - a) / (2.0 * g);
        let azeta = zeta.abs();
        let denom = azeta + (1.0 + zeta * zeta).sqrt();
        let t_small = if zeta >= 0.0 { 1.0 / denom } else { -1.0 / denom };
        let t_big = 0.5 / zeta;
        let t_solved = if azeta > ZETA_HUGE { t_big } else { t_small };
        let t = if skip { 0.0 } else { t_solved };
        let c = 1.0 / (1.0 + t * t).sqrt(); // exactly 1.0 when t = 0
        let s = c * t;
        // predicted post-rotation norms (rotation algebra), used only for
        // the swap decision — same formula as orthogonalize_pair
        let (ap, bp) = if skip {
            (a, b)
        } else {
            (c * c * a - 2.0 * c * s * g + s * s * b, s * s * a + 2.0 * c * s * g + c * c * b)
        };
        let act = active[l] != 0;
        let want_swap = sort_descending && bp > ap && act;
        let write = act && (!skip || want_swap);
        out.c[l] = c;
        out.s[l] = s;
        out.swap[l] = if want_swap { u64::MAX } else { 0 };
        out.write[l] = if write { u64::MAX } else { 0 };
    }
    out
}

// ---------------------------------------------------------------------------
// scalar bodies (the reference semantics; always compiled)
// ---------------------------------------------------------------------------

#[allow(clippy::needless_range_loop)] // lane-indexed across parallel arrays
fn gram_lanes_scalar<const L: usize>(x: &[f64], y: &[f64]) -> ([f64; L], [f64; L], [f64; L]) {
    let mut aa = [0.0f64; L];
    let mut bb = [0.0f64; L];
    let mut ab = [0.0f64; L];
    for (cx, cy) in x.chunks_exact(L).zip(y.chunks_exact(L)) {
        for l in 0..L {
            let (a, b) = (cx[l], cy[l]);
            aa[l] += a * a;
            bb[l] += b * b;
            ab[l] += a * b;
        }
    }
    (aa, bb, ab)
}

/// Fold the swap mask into per-lane 2×2 coefficients, so the row loops are
/// pure multiply/add and autovectorize: `new_x = m0·x + m1·y`,
/// `new_y = m2·x + m3·y`. This is bitwise-faithful: `c·x − s·y ≡
/// c·x + (−s)·y` in IEEE, and a swapped store is just the two output rows
/// interchanged. Also reports whether every lane writes (the common case,
/// which needs no selects at all).
#[allow(clippy::needless_range_loop)] // lane-indexed across parallel arrays
#[inline(always)]
fn fold_rotation_coeffs<const L: usize>(rot: &LaneRotation<L>) -> ([[f64; L]; 4], bool) {
    // branch-free selects (the swap pattern varies per lane, so branches
    // mispredict), one simple loop per output array so each compiles to a
    // load/blend/store instead of a cross-array shuffle
    let mut m = [[0.0f64; L]; 4];
    for l in 0..L {
        m[0][l] = if rot.swap[l] != 0 { rot.s[l] } else { rot.c[l] };
    }
    for l in 0..L {
        m[1][l] = if rot.swap[l] != 0 { rot.c[l] } else { -rot.s[l] };
    }
    for l in 0..L {
        m[2][l] = if rot.swap[l] != 0 { rot.c[l] } else { rot.s[l] };
    }
    for l in 0..L {
        m[3][l] = if rot.swap[l] != 0 { -rot.s[l] } else { rot.c[l] };
    }
    let mut all_write = true;
    for l in 0..L {
        all_write &= rot.write[l] != 0;
    }
    (m, all_write)
}

/// Apply folded 2×2 coefficients to one plane pair. With `all_write` the
/// row loop is select-free; otherwise a branch-free select keeps unwritten
/// lanes bitwise untouched (a pure `1·x + 0·y` form would flip `−0.0`).
#[allow(clippy::needless_range_loop)] // lane-indexed across parallel arrays
#[inline(always)]
fn apply_folded_coeffs<const L: usize>(
    m: &[[f64; L]; 4],
    write: &[u64; L],
    all_write: bool,
    x: &mut [f64],
    y: &mut [f64],
) {
    // fixed-size array chunks: lane loops over `[f64; L]` compile to clean
    // vector code where runtime-length slices would not
    let (xc, _) = x.as_chunks_mut::<L>();
    let (yc, _) = y.as_chunks_mut::<L>();
    if all_write {
        for (cx, cy) in xc.iter_mut().zip(yc.iter_mut()) {
            for l in 0..L {
                let (xa, yb) = (cx[l], cy[l]);
                cx[l] = m[0][l] * xa + m[1][l] * yb;
                cy[l] = m[2][l] * xa + m[3][l] * yb;
            }
        }
    } else {
        for (cx, cy) in xc.iter_mut().zip(yc.iter_mut()) {
            for l in 0..L {
                let (xa, yb) = (cx[l], cy[l]);
                let nx = m[0][l] * xa + m[1][l] * yb;
                let ny = m[2][l] * xa + m[3][l] * yb;
                cx[l] = if write[l] != 0 { nx } else { xa };
                cy[l] = if write[l] != 0 { ny } else { yb };
            }
        }
    }
}

#[inline(always)]
fn rotate_lanes_scalar<const L: usize>(rot: &LaneRotation<L>, x: &mut [f64], y: &mut [f64]) {
    let (m, all_write) = fold_rotation_coeffs(rot);
    apply_folded_coeffs(&m, &rot.write, all_write, x, y);
}

#[inline(always)]
fn rotate_lanes_dual_scalar<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
) {
    // one coefficient fold shared across both pairs — for small planes the
    // fold dominates the row loops, so sharing it is the whole point
    let (m, all_write) = fold_rotation_coeffs(rot);
    apply_folded_coeffs(&m, &rot.write, all_write, x1, y1);
    apply_folded_coeffs(&m, &rot.write, all_write, x2, y2);
}

// ---------------------------------------------------------------------------
// AVX-512 bodies: 8 lanes per instruction, masks as __mmask8
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
fn gram_lanes_auto<const L: usize>(x: &[f64], y: &[f64]) -> ([f64; L], [f64; L], [f64; L]) {
    use core::arch::x86_64::*;
    if !L.is_multiple_of(8) {
        return gram_lanes_avx_or_scalar::<L>(x, y);
    }
    let rows = x.len() / L;
    let mut aa = [0.0f64; L];
    let mut bb = [0.0f64; L];
    let mut ab = [0.0f64; L];
    // SAFETY: all loads/stores stay in bounds — `x`/`y` have length
    // `rows·L` with `L % 8 == 0`, and each 8-lane chunk `c0` reads
    // `r·L + c0 .. r·L + c0 + 8`; AVX-512F is a compile-time target
    // feature of this body.
    unsafe {
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut c0 = 0;
        while c0 < L {
            let mut vaa = _mm512_setzero_pd();
            let mut vbb = _mm512_setzero_pd();
            let mut vab = _mm512_setzero_pd();
            for r in 0..rows {
                let vx = _mm512_loadu_pd(px.add(r * L + c0));
                let vy = _mm512_loadu_pd(py.add(r * L + c0));
                vaa = _mm512_add_pd(vaa, _mm512_mul_pd(vx, vx));
                vbb = _mm512_add_pd(vbb, _mm512_mul_pd(vy, vy));
                vab = _mm512_add_pd(vab, _mm512_mul_pd(vx, vy));
            }
            _mm512_storeu_pd(aa.as_mut_ptr().add(c0), vaa);
            _mm512_storeu_pd(bb.as_mut_ptr().add(c0), vbb);
            _mm512_storeu_pd(ab.as_mut_ptr().add(c0), vab);
            c0 += 8;
        }
    }
    (aa, bb, ab)
}

/// One 8-lane chunk of rotation state, hoisted out of the row loops so a
/// dual-pair call pays the mask/coefficient setup once.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[derive(Clone, Copy)]
struct Chunk512 {
    vc: core::arch::x86_64::__m512d,
    vs: core::arch::x86_64::__m512d,
    kswap: core::arch::x86_64::__mmask8,
    kwrite: core::arch::x86_64::__mmask8,
}

/// # Safety
/// `rot`'s lane arrays must have ≥ `c0 + 8` entries.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn load_chunk_512<const L: usize>(rot: &LaneRotation<L>, c0: usize) -> Chunk512 {
    use core::arch::x86_64::*;
    // SAFETY: caller guarantees the lane arrays extend to `c0 + 8`, and
    // AVX-512F is a compile-time target feature of this body.
    unsafe {
        // vptestmq turns the all-ones/zero u64 lane masks straight into a
        // __mmask8 — no scalar bit-assembly loop
        let mswap = _mm512_loadu_epi64(rot.swap.as_ptr().add(c0).cast::<i64>());
        let mwrite = _mm512_loadu_epi64(rot.write.as_ptr().add(c0).cast::<i64>());
        Chunk512 {
            vc: _mm512_loadu_pd(rot.c.as_ptr().add(c0)),
            vs: _mm512_loadu_pd(rot.s.as_ptr().add(c0)),
            kswap: _mm512_test_epi64_mask(mswap, mswap),
            kwrite: _mm512_test_epi64_mask(mwrite, mwrite),
        }
    }
}

/// # Safety
/// `px`/`py` must be valid for `rows·L` elements with `c0 + 8 ≤ L`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
unsafe fn rotate_rows_512<const L: usize>(
    ch: Chunk512,
    px: *mut f64,
    py: *mut f64,
    rows: usize,
    c0: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: caller guarantees `px`/`py` span `rows·L` elements with
    // `c0 + 8 ≤ L`; AVX-512F is a compile-time target feature of this body.
    unsafe {
        for r in 0..rows {
            let vx = _mm512_loadu_pd(px.add(r * L + c0));
            let vy = _mm512_loadu_pd(py.add(r * L + c0));
            let xp = _mm512_sub_pd(_mm512_mul_pd(ch.vc, vx), _mm512_mul_pd(ch.vs, vy));
            let yp = _mm512_add_pd(_mm512_mul_pd(ch.vs, vx), _mm512_mul_pd(ch.vc, vy));
            let da = _mm512_mask_blend_pd(ch.kswap, xp, yp);
            let db = _mm512_mask_blend_pd(ch.kswap, yp, xp);
            _mm512_storeu_pd(px.add(r * L + c0), _mm512_mask_blend_pd(ch.kwrite, vx, da));
            _mm512_storeu_pd(py.add(r * L + c0), _mm512_mask_blend_pd(ch.kwrite, vy, db));
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
fn rotate_lanes_auto<const L: usize>(rot: &LaneRotation<L>, x: &mut [f64], y: &mut [f64]) {
    if !L.is_multiple_of(8) {
        rotate_lanes_avx_or_scalar::<L>(rot, x, y);
        return;
    }
    let rows = x.len() / L;
    // SAFETY: bounds as in gram_lanes_auto; the blend masks are built from
    // the per-lane u64 masks, and unwritten lanes are re-stored with their
    // original loaded values (bitwise no-op).
    unsafe {
        let (px, py) = (x.as_mut_ptr(), y.as_mut_ptr());
        let mut c0 = 0;
        while c0 < L {
            let ch = load_chunk_512::<L>(rot, c0);
            rotate_rows_512::<L>(ch, px, py, rows, c0);
            c0 += 8;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
fn rotate_lanes_dual_auto<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
) {
    if !L.is_multiple_of(8) {
        rotate_lanes_dual_avx_or_scalar::<L>(rot, x1, y1, x2, y2);
        return;
    }
    let rows1 = x1.len() / L;
    let rows2 = x2.len() / L;
    // SAFETY: bounds as in rotate_lanes_auto, for each pair independently
    // (the pairs may differ in row count).
    unsafe {
        let (px1, py1) = (x1.as_mut_ptr(), y1.as_mut_ptr());
        let (px2, py2) = (x2.as_mut_ptr(), y2.as_mut_ptr());
        let mut c0 = 0;
        while c0 < L {
            let ch = load_chunk_512::<L>(rot, c0);
            rotate_rows_512::<L>(ch, px1, py1, rows1, c0);
            rotate_rows_512::<L>(ch, px2, py2, rows2, c0);
            c0 += 8;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 bodies: 4 lanes per instruction, masks via blendv sign bits
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_feature = "avx", not(target_feature = "avx512f")))]
fn gram_lanes_auto<const L: usize>(x: &[f64], y: &[f64]) -> ([f64; L], [f64; L], [f64; L]) {
    gram_lanes_avx_or_scalar::<L>(x, y)
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx", not(target_feature = "avx512f")))]
fn rotate_lanes_auto<const L: usize>(rot: &LaneRotation<L>, x: &mut [f64], y: &mut [f64]) {
    rotate_lanes_avx_or_scalar::<L>(rot, x, y);
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx", not(target_feature = "avx512f")))]
fn rotate_lanes_dual_auto<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
) {
    rotate_lanes_dual_avx_or_scalar::<L>(rot, x1, y1, x2, y2);
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
fn gram_lanes_avx_or_scalar<const L: usize>(
    x: &[f64],
    y: &[f64],
) -> ([f64; L], [f64; L], [f64; L]) {
    use core::arch::x86_64::*;
    if !L.is_multiple_of(4) {
        return gram_lanes_scalar::<L>(x, y);
    }
    let rows = x.len() / L;
    let mut aa = [0.0f64; L];
    let mut bb = [0.0f64; L];
    let mut ab = [0.0f64; L];
    // SAFETY: all loads/stores stay in bounds — `x`/`y` have length
    // `rows·L` with `L % 4 == 0`, each 4-lane chunk `c0` touching
    // `r·L + c0 .. r·L + c0 + 4`; AVX is a compile-time target feature of
    // this body.
    unsafe {
        let (px, py) = (x.as_ptr(), y.as_ptr());
        let mut c0 = 0;
        while c0 < L {
            let mut vaa = _mm256_setzero_pd();
            let mut vbb = _mm256_setzero_pd();
            let mut vab = _mm256_setzero_pd();
            for r in 0..rows {
                let vx = _mm256_loadu_pd(px.add(r * L + c0));
                let vy = _mm256_loadu_pd(py.add(r * L + c0));
                vaa = _mm256_add_pd(vaa, _mm256_mul_pd(vx, vx));
                vbb = _mm256_add_pd(vbb, _mm256_mul_pd(vy, vy));
                vab = _mm256_add_pd(vab, _mm256_mul_pd(vx, vy));
            }
            _mm256_storeu_pd(aa.as_mut_ptr().add(c0), vaa);
            _mm256_storeu_pd(bb.as_mut_ptr().add(c0), vbb);
            _mm256_storeu_pd(ab.as_mut_ptr().add(c0), vab);
            c0 += 4;
        }
    }
    (aa, bb, ab)
}

/// One 4-lane chunk of rotation state, hoisted out of the row loops.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[derive(Clone, Copy)]
struct Chunk256 {
    vc: core::arch::x86_64::__m256d,
    vs: core::arch::x86_64::__m256d,
    mswap: core::arch::x86_64::__m256d,
    mwrite: core::arch::x86_64::__m256d,
}

/// # Safety
/// `rot`'s lane arrays must have ≥ `c0 + 4` entries.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline(always)]
unsafe fn load_chunk_256<const L: usize>(rot: &LaneRotation<L>, c0: usize) -> Chunk256 {
    use core::arch::x86_64::*;
    // SAFETY: caller guarantees the lane arrays extend to `c0 + 4`, and
    // AVX is a compile-time target feature of this body.
    unsafe {
        // The u64 lane masks (all-ones or zero) are loaded as f64 bit
        // patterns; `blendv` keys on the sign bit, which is set exactly
        // for all-ones masks.
        Chunk256 {
            vc: _mm256_loadu_pd(rot.c.as_ptr().add(c0)),
            vs: _mm256_loadu_pd(rot.s.as_ptr().add(c0)),
            mswap: _mm256_loadu_pd(rot.swap.as_ptr().add(c0).cast::<f64>()),
            mwrite: _mm256_loadu_pd(rot.write.as_ptr().add(c0).cast::<f64>()),
        }
    }
}

/// # Safety
/// `px`/`py` must be valid for `rows·L` elements with `c0 + 4 ≤ L`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline(always)]
unsafe fn rotate_rows_256<const L: usize>(
    ch: Chunk256,
    px: *mut f64,
    py: *mut f64,
    rows: usize,
    c0: usize,
) {
    use core::arch::x86_64::*;
    // SAFETY: caller guarantees `px`/`py` span `rows·L` elements with
    // `c0 + 4 ≤ L`; AVX is a compile-time target feature of this body.
    unsafe {
        for r in 0..rows {
            let vx = _mm256_loadu_pd(px.add(r * L + c0));
            let vy = _mm256_loadu_pd(py.add(r * L + c0));
            let xp = _mm256_sub_pd(_mm256_mul_pd(ch.vc, vx), _mm256_mul_pd(ch.vs, vy));
            let yp = _mm256_add_pd(_mm256_mul_pd(ch.vs, vx), _mm256_mul_pd(ch.vc, vy));
            let da = _mm256_blendv_pd(xp, yp, ch.mswap);
            let db = _mm256_blendv_pd(yp, xp, ch.mswap);
            _mm256_storeu_pd(px.add(r * L + c0), _mm256_blendv_pd(vx, da, ch.mwrite));
            _mm256_storeu_pd(py.add(r * L + c0), _mm256_blendv_pd(vy, db, ch.mwrite));
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
fn rotate_lanes_avx_or_scalar<const L: usize>(rot: &LaneRotation<L>, x: &mut [f64], y: &mut [f64]) {
    if !L.is_multiple_of(4) {
        rotate_lanes_scalar::<L>(rot, x, y);
        return;
    }
    let rows = x.len() / L;
    // SAFETY: bounds as in gram_lanes_avx_or_scalar. Unwritten lanes are
    // re-stored with their original loaded values (bitwise no-op).
    unsafe {
        let (px, py) = (x.as_mut_ptr(), y.as_mut_ptr());
        let mut c0 = 0;
        while c0 < L {
            let ch = load_chunk_256::<L>(rot, c0);
            rotate_rows_256::<L>(ch, px, py, rows, c0);
            c0 += 4;
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
fn rotate_lanes_dual_avx_or_scalar<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
) {
    if !L.is_multiple_of(4) {
        rotate_lanes_dual_scalar::<L>(rot, x1, y1, x2, y2);
        return;
    }
    let rows1 = x1.len() / L;
    let rows2 = x2.len() / L;
    // SAFETY: bounds as in rotate_lanes_avx_or_scalar, for each pair
    // independently (the pairs may differ in row count).
    unsafe {
        let (px1, py1) = (x1.as_mut_ptr(), y1.as_mut_ptr());
        let (px2, py2) = (x2.as_mut_ptr(), y2.as_mut_ptr());
        let mut c0 = 0;
        while c0 < L {
            let ch = load_chunk_256::<L>(rot, c0);
            rotate_rows_256::<L>(ch, px1, py1, rows1, c0);
            rotate_rows_256::<L>(ch, px2, py2, rows2, c0);
            c0 += 4;
        }
    }
}

// ---------------------------------------------------------------------------
// portable fallback when no SIMD feature is compiled in
// ---------------------------------------------------------------------------

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
fn gram_lanes_auto<const L: usize>(x: &[f64], y: &[f64]) -> ([f64; L], [f64; L], [f64; L]) {
    gram_lanes_scalar::<L>(x, y)
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
fn rotate_lanes_auto<const L: usize>(rot: &LaneRotation<L>, x: &mut [f64], y: &mut [f64]) {
    rotate_lanes_scalar::<L>(rot, x, y);
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
fn rotate_lanes_dual_auto<const L: usize>(
    rot: &LaneRotation<L>,
    x1: &mut [f64],
    y1: &mut [f64],
    x2: &mut [f64],
    y2: &mut [f64],
) {
    rotate_lanes_dual_scalar::<L>(rot, x1, y1, x2, y2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::{apply_rotation, apply_rotation_swapped, compute_rotation, Rotation};

    /// Deterministic plane data: `rows` rows of `L` lanes.
    fn plane<const L: usize>(rows: usize, salt: u64) -> Vec<f64> {
        let mut rng = crate::rng::Rng::seed_from_u64(salt);
        (0..rows * L).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    #[test]
    fn gram_lanes_matches_per_lane_naive() {
        const L: usize = 8;
        let rows = 13;
        let x = plane::<L>(rows, 1);
        let y = plane::<L>(rows, 2);
        for path in [LanePath::Auto, LanePath::Scalar] {
            let (aa, bb, ab) = gram_lanes::<L>(&x, &y, path);
            for l in 0..L {
                let xs: Vec<f64> = (0..rows).map(|r| x[r * L + l]).collect();
                let ys: Vec<f64> = (0..rows).map(|r| y[r * L + l]).collect();
                let (naa, nbb, nab) = crate::ops::naive::gram3(&xs, &ys);
                assert!((aa[l] - naa).abs() <= 1e-15 * naa.abs().max(1.0), "{path:?} lane {l}");
                assert!((bb[l] - nbb).abs() <= 1e-15 * nbb.abs().max(1.0), "{path:?} lane {l}");
                assert!((ab[l] - nab).abs() <= 1e-15 * nab.abs().max(1.0), "{path:?} lane {l}");
            }
        }
    }

    #[test]
    fn auto_and_scalar_paths_are_bitwise_identical() {
        const L: usize = 8;
        let rows = 9;
        let x = plane::<L>(rows, 3);
        let y = plane::<L>(rows, 4);
        let (aa_a, bb_a, ab_a) = gram_lanes::<L>(&x, &y, LanePath::Auto);
        let (aa_s, bb_s, ab_s) = gram_lanes::<L>(&x, &y, LanePath::Scalar);
        assert_eq!(aa_a, aa_s);
        assert_eq!(bb_a, bb_s);
        assert_eq!(ab_a, ab_s);

        let rot = rotation_lanes::<L>(&aa_a, &bb_a, &ab_a, 0.0, true, &[u64::MAX; L]);
        let (mut xa, mut ya) = (x.clone(), y.clone());
        rotate_lanes::<L>(&rot, &mut xa, &mut ya, LanePath::Auto);
        let (mut xs, mut ys) = (x, y);
        rotate_lanes::<L>(&rot, &mut xs, &mut ys, LanePath::Scalar);
        assert_eq!(xa, xs);
        assert_eq!(ya, ys);
    }

    #[test]
    fn rotation_lanes_matches_compute_rotation_per_lane() {
        // the simulated executor reads a group of LANES pairs' rotations
        // from this solve (write == 0 meaning skipped), so every lane must
        // carry compute_rotation's bits
        const L: usize = LANES;
        let check = |alpha: &[f64; L], beta: &[f64; L], gamma: &[f64; L]| {
            let rot = rotation_lanes::<L>(alpha, beta, gamma, 1e-12, false, &[u64::MAX; L]);
            for l in 0..L {
                let reference = compute_rotation(alpha[l], beta[l], gamma[l], 1e-12);
                assert_eq!(rot.c[l].to_bits(), reference.c.to_bits(), "lane {l}");
                assert_eq!(rot.s[l].to_bits(), reference.s.to_bits(), "lane {l}");
                assert_eq!(rot.write[l] == 0, reference.skipped, "lane {l}");
            }
            rot
        };
        // |γ| exactly at the threshold skips, one ulp above rotates; γ = −0;
        // α = β (ζ = 0); a zero α or β
        let at = 1e-12 * (4.0f64.sqrt() * 9.0f64.sqrt());
        let rot = check(
            &[4.0, 4.0, 4.0, 4.0, 2.0, 2.5, 0.0, 3.0],
            &[9.0, 9.0, 9.0, 1.0, 3.0, 2.5, 3.0, 0.0],
            &[at, -at, at.next_up(), 0.5, -0.0, 0.7, 0.5, -0.5],
        );
        assert_eq!(
            rot.write.map(|w| w != 0),
            [false, false, true, true, false, true, false, false]
        );
        // subnormal α, with an ordinary and a huge ζ; past ZETA_HUGE:
        // |ζ| ≈ 5e151 (ζ² still finite) and ≈ 5e155 (ζ² overflows), of
        // either sign, and one lane just below the switch
        let alpha = [4e-320, 1e-310, 1.0, 1.0, 1e-290, 1.0, 2.0, 1.0];
        let beta = [5e-320, 1.0, 1e-290, 1e-290, 1.0, 1e-290, 1.0, 1.0];
        let gamma = [1e-320, 1e-160, 1e-152, 1e-156, -1e-156, 0.5e-150 / 0.99, 0.3, -0.2];
        let rot = check(&alpha, &beta, &gamma);
        for l in 0..L {
            let zeta = (beta[l] - alpha[l]) / (2.0 * gamma[l]);
            assert_eq!(zeta.abs() > ZETA_HUGE, (1..5).contains(&l), "lane {l}: ζ = {zeta:e}");
            assert!(rot.write[l] != 0 && rot.s[l] != 0.0, "lane {l}: a no-op rotation");
            if (1..5).contains(&l) {
                let want = 0.5 / zeta; // t ≈ 1/(2ζ), and c = 1 to working precision
                assert!((rot.s[l] - want).abs() <= 1e-15 * want.abs(), "lane {l}");
            }
        }
        // ζ one or two ulps either side of ZETA_HUGE, of either sign
        let g0 = 0.5 / ZETA_HUGE;
        let gamma = [
            g0.next_down().next_down(),
            g0.next_down(),
            g0,
            g0.next_up(),
            g0.next_up().next_up(),
            -g0.next_down(),
            -g0,
            -g0.next_up(),
        ];
        let zetas = gamma.map(|g| (1.0 - 1e-300) / (2.0 * g));
        assert!(zetas.iter().any(|z| z.abs() > ZETA_HUGE), "{zetas:?}");
        assert!(zetas.iter().any(|z| z.abs() <= ZETA_HUGE), "{zetas:?}");
        check(&[1e-300; L], &[1.0; L], &gamma);
    }

    #[test]
    fn rotation_lanes_swap_matches_orthogonalize_pair_decision() {
        const L: usize = 2;
        // lane 0: right norm larger after the (skipped) rotation → swap;
        // lane 1: already sorted → no write at all
        let alpha = [1.0, 9.0];
        let beta = [9.0, 1.0];
        let gamma = [0.0, 0.0];
        let rot = rotation_lanes::<L>(&alpha, &beta, &gamma, 1e-12, true, &[u64::MAX; L]);
        assert_eq!(rot.swap, [u64::MAX, 0]);
        assert_eq!(rot.write, [u64::MAX, 0]);
        assert_eq!(rot.c, [1.0; L]);
        assert_eq!(rot.s, [0.0; L]);
    }

    #[test]
    fn rotate_lanes_replays_apply_rotation_per_lane() {
        const L: usize = 8;
        let rows = 6;
        let x0 = plane::<L>(rows, 5);
        let y0 = plane::<L>(rows, 6);
        let (aa, bb, ab) = gram_lanes::<L>(&x0, &y0, LanePath::Auto);
        let rot = rotation_lanes::<L>(&aa, &bb, &ab, 0.0, true, &[u64::MAX; L]);
        for path in [LanePath::Auto, LanePath::Scalar] {
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rotate_lanes::<L>(&rot, &mut x, &mut y, path);
            for l in 0..L {
                let mut xs: Vec<f64> = (0..rows).map(|r| x0[r * L + l]).collect();
                let mut ys: Vec<f64> = (0..rows).map(|r| y0[r * L + l]).collect();
                let r = Rotation { c: rot.c[l], s: rot.s[l], skipped: false };
                if rot.write[l] != 0 {
                    if rot.swap[l] != 0 {
                        apply_rotation_swapped(r, &mut xs, &mut ys);
                    } else {
                        apply_rotation(r, &mut xs, &mut ys);
                    }
                }
                for row in 0..rows {
                    assert_eq!(x[row * L + l], xs[row], "{path:?} lane {l} row {row}");
                    assert_eq!(y[row * L + l], ys[row], "{path:?} lane {l} row {row}");
                }
            }
        }
    }

    #[test]
    fn rotate_lanes_dual_matches_two_single_rotates_bitwise() {
        const L: usize = 8;
        // unequal row counts, like the engine's A (rows) and V (cols) planes
        let (rows_a, rows_v) = (6, 4);
        let xa0 = plane::<L>(rows_a, 21);
        let ya0 = plane::<L>(rows_a, 22);
        let xv0 = plane::<L>(rows_v, 23);
        let yv0 = plane::<L>(rows_v, 24);
        let (aa, bb, ab) = gram_lanes::<L>(&xa0, &ya0, LanePath::Auto);
        // mixed write mask: exercise the select path too
        let mut active = [u64::MAX; L];
        active[3] = 0;
        let rot = rotation_lanes::<L>(&aa, &bb, &ab, 0.0, true, &active);
        for path in [LanePath::Auto, LanePath::Scalar] {
            let (mut xa, mut ya) = (xa0.clone(), ya0.clone());
            let (mut xv, mut yv) = (xv0.clone(), yv0.clone());
            rotate_lanes::<L>(&rot, &mut xa, &mut ya, path);
            rotate_lanes::<L>(&rot, &mut xv, &mut yv, path);
            let (mut dxa, mut dya) = (xa0.clone(), ya0.clone());
            let (mut dxv, mut dyv) = (xv0.clone(), yv0.clone());
            rotate_lanes_dual::<L>(&rot, &mut dxa, &mut dya, &mut dxv, &mut dyv, path);
            assert_eq!(xa, dxa, "{path:?}");
            assert_eq!(ya, dya, "{path:?}");
            assert_eq!(xv, dxv, "{path:?}");
            assert_eq!(yv, dyv, "{path:?}");
        }
    }

    #[test]
    fn inactive_and_unwritten_lanes_are_bitwise_untouched() {
        const L: usize = 8;
        let rows = 5;
        let x0 = plane::<L>(rows, 7);
        let y0 = plane::<L>(rows, 8);
        let (aa, bb, ab) = gram_lanes::<L>(&x0, &y0, LanePath::Auto);
        let mut active = [u64::MAX; L];
        active[2] = 0;
        active[5] = 0;
        let rot = rotation_lanes::<L>(&aa, &bb, &ab, 0.0, true, &active);
        assert_eq!(rot.write[2], 0);
        assert_eq!(rot.write[5], 0);
        for path in [LanePath::Auto, LanePath::Scalar] {
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rotate_lanes::<L>(&rot, &mut x, &mut y, path);
            for r in 0..rows {
                for &l in &[2usize, 5] {
                    assert_eq!(x[r * L + l], x0[r * L + l], "{path:?}");
                    assert_eq!(y[r * L + l], y0[r * L + l], "{path:?}");
                }
            }
        }
    }

    #[test]
    fn huge_zeta_does_not_overflow_the_solve() {
        const L: usize = 4;
        // α huge, β tiny, γ small but above threshold: ζ² would overflow
        let alpha = [1e308, 1.0, 1e300, 1.0];
        let beta = [1e-100, 1e308, 1e-300, 1.0];
        let gamma = [1e100, 1e100, 1e-5, 0.9];
        let rot = rotation_lanes::<L>(&alpha, &beta, &gamma, 1e-15, false, &[u64::MAX; L]);
        for l in 0..L {
            assert!(rot.c[l].is_finite(), "lane {l}: c = {}", rot.c[l]);
            assert!(rot.s[l].is_finite(), "lane {l}: s = {}", rot.s[l]);
            assert!(rot.c[l] > 0.0, "lane {l}: inner rotation has c > 0");
            // |s| <= c: the inner-rotation property survives the guard
            assert!(rot.s[l].abs() <= rot.c[l] + 1e-15, "lane {l}");
        }
        // the guarded lanes actually rotate (tiny but non-zero angle)
        assert_ne!(rot.s[0], 0.0);
        // and the asymptote agrees with the exact formula to high accuracy
        // on a representable case: ζ = 1e149 (just under the guard) vs the
        // asymptote at ζ = 1e151 scales as 1/(2ζ)
        let t149 = {
            let z = 1e149f64;
            1.0 / (z + (1.0 + z * z).sqrt())
        };
        assert!((t149 * 2.0 * 1e149 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_and_denormal_columns_are_skipped() {
        const L: usize = 4;
        // denormal entries square to zero → α = 0 → identity, no write
        let alpha = [0.0, 0.0, 5.0, 0.0];
        let beta = [3.0, 0.0, 0.0, 0.0];
        let gamma = [0.0, 0.0, 0.0, 0.0];
        let rot = rotation_lanes::<L>(&alpha, &beta, &gamma, 1e-12, false, &[u64::MAX; L]);
        assert_eq!(rot.write, [0; L]);
        assert_eq!(rot.c, [1.0; L]);
        assert_eq!(rot.s, [0.0; L]);
        assert!(!rot.any_write());
    }

    #[test]
    fn lane_width_4_and_16_share_semantics_with_8() {
        // the same 16 problems, packed at L = 4, 8, 16, rotate identically
        let rows = 7;
        let base = plane::<16>(rows, 11);
        let other = plane::<16>(rows, 12);
        let repack = |src: &[f64], l: usize, chunk: usize| -> Vec<f64> {
            // problems chunk·l .. chunk·l + l, rows major
            (0..rows * l).map(|i| src[(i / l) * 16 + chunk * l + i % l]).collect()
        };
        let run16 = {
            let (aa, bb, ab) = gram_lanes::<16>(&base, &other, LanePath::Auto);
            let rot = rotation_lanes::<16>(&aa, &bb, &ab, 0.0, true, &[u64::MAX; 16]);
            let (mut x, mut y) = (base.clone(), other.clone());
            rotate_lanes::<16>(&rot, &mut x, &mut y, LanePath::Auto);
            (x, y)
        };
        for chunk in 0..4 {
            let xs = repack(&base, 4, chunk);
            let ys = repack(&other, 4, chunk);
            let (aa, bb, ab) = gram_lanes::<4>(&xs, &ys, LanePath::Auto);
            let rot = rotation_lanes::<4>(&aa, &bb, &ab, 0.0, true, &[u64::MAX; 4]);
            let (mut x, mut y) = (xs, ys);
            rotate_lanes::<4>(&rot, &mut x, &mut y, LanePath::Auto);
            let ex = repack(&run16.0, 4, chunk);
            let ey = repack(&run16.1, 4, chunk);
            assert_eq!(x, ex, "chunk {chunk}");
            assert_eq!(y, ey, "chunk {chunk}");
        }
    }
}
