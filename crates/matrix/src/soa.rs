//! Structure-of-arrays lane kernels: the batched small-SVD engine and the
//! blocked driver's in-cache meeting passes.
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
//!   survivor, so divergent problems cost no branches; one loop per
//!   quantity keeps every division and square root a whole-vector
//!   instruction;
//! * [`rotate_lanes`] — the fused apply: rotate both planes under a
//!   per-lane `write` mask (converged problems are left untouched) with a
//!   per-lane `swap` mask folding the paper's equation (3) column
//!   interchange into the same pass.
//!
//! The blocked driver's Gram meetings use the same layout one level up:
//! [`GramLanes`] interleaves up to [`LANES`] meetings' `2c×2c` Gram
//! matrices, one lane per meeting, and runs their in-cache cyclic passes
//! in lockstep.
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
    /// Cosines (exactly `1.0` on skipped and inactive lanes).
    pub c: [f64; L],
    /// Sines (exactly `0.0` on skipped and inactive lanes).
    pub s: [f64; L],
    /// Lanes whose columns are interchanged (equation (3)): the sort
    /// wants the larger post-rotation norm on the left. A lane can swap
    /// even when its rotation is the identity.
    pub swap: [u64; L],
    /// Lanes whose planes must be written: active and (rotated or
    /// swapped). The complement is exactly the set of lanes for which the
    /// sequential reference would not touch the data either.
    pub write: [u64; L],
    /// Active lanes whose pair is not skipped: exactly those for which
    /// [`crate::rotation::compute_rotation`] reports `skipped == false`,
    /// including a `ζ = ∞` pair whose rotation is `(1, 0)`.
    pub rotated: [u64; L],
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
/// Every lane computes the alternatives and masked selects choose (the
/// only branches are uniform over the lanes: the solve stops after the
/// threshold test when no lane rotates, and skips the asymptote when no
/// rotating lane needs it):
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
/// write, whatever the data says, and carry `(c, s) = (1, 0)`. This is
/// the one lane solve of the crate: [`GramLanes`]' pass runs the same
/// body on the square roots of the diagonal it keeps.
#[must_use]
pub fn rotation_lanes<const L: usize>(
    alpha: &[f64; L],
    beta: &[f64; L],
    gamma: &[f64; L],
    threshold: f64,
    sort_descending: bool,
    active: &[u64; L],
) -> LaneRotation<L> {
    let (root_a, root_b) = (alpha.map(f64::sqrt), beta.map(f64::sqrt));
    pair_lanes((alpha, beta, &root_a, &root_b), gamma, threshold, sort_descending, active)
}

/// Rotation and interchange counts of one lane of a [`GramLanes`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Pairs rotated: those [`crate::rotation::compute_rotation`] does not
    /// skip.
    pub rotations: usize,
    /// Pairs interchanged by the sorted-storage rule.
    pub swaps: usize,
}

/// The in-cache cyclic pass of up to [`LANES`] block meetings at once, one
/// lane per meeting: Novaković's batched 2×2 solve (arXiv 2202.08361) run
/// inside the in-cache level of his hierarchical blocked Jacobi (arXiv
/// 1401.2720).
///
/// [`GramLanes::load`] interleaves each meeting's `k×k` Gram matrix
/// `G = [X Y]ᵀ[X Y]`, lower triangle only. [`GramLanes::pass`] then runs
/// every pair `i < j` in row-cyclic order once for all lanes: the lane
/// solve of [`rotation_lanes`] with the sorted-storage rule,
/// skipped when no lane writes, then `G ← JᵀGJ` and the accumulated update
/// `W ← W·J` under the lanes' `swap` and `write` masks.
/// [`GramLanes::w_into`] hands a lane's `W` back for the panel multiply.
/// Every lane stores exactly the values the one-meeting scalar pass
/// computes, from the same operands and with the same decisions (the lane
/// bodies do not contract to FMA), so a meeting's bits depend neither on
/// its lane, nor on its neighbours, nor on the SIMD tier.
#[derive(Debug, Default)]
pub struct GramLanes {
    /// Entry `(r, c)` of lane `l`'s `G` at `(c·stride + r)·lanes + l`.
    g: Vec<f64>,
    /// The lanes' `W`, laid out like `g`.
    w: Vec<f64>,
    /// `√G(c, c)` of every lane at `c·lanes + l`, kept current through the
    /// pass so that a pair's threshold test needs no square root.
    root: Vec<f64>,
    k: usize,
    /// Interleave width: the loaded meetings, rounded up to a power of two.
    lanes: usize,
    /// Lanes holding a meeting.
    used: usize,
    /// Rows per stored column: `k`, rounded up so that a column fills
    /// whole [`LANES`]-wide vectors.
    stride: usize,
}

impl GramLanes {
    /// Size the planes for `meetings` Gram matrices of order `k`. The
    /// interleave width is `meetings` rounded up to a power of two; a lane
    /// past `meetings` holds zeros, so every pair skips there and the lane
    /// never writes. Returns how many buffers had to grow (0 once warm).
    ///
    /// # Panics
    /// Panics unless `1 ≤ meetings ≤ LANES`.
    pub fn reset(&mut self, k: usize, meetings: usize) -> u64 {
        assert!((1..=LANES).contains(&meetings), "GramLanes: 1 to {LANES} meetings");
        let lanes = meetings.next_power_of_two();
        let stride = k.next_multiple_of(LANES / lanes);
        let len = k * stride * lanes;
        let mut events = 0;
        for (buf, len) in [(&mut self.g, len), (&mut self.w, len), (&mut self.root, k * lanes)] {
            events += u64::from(buf.capacity() < len);
            buf.resize(len, 0.0);
        }
        if meetings < lanes {
            for entry in self.g.chunks_exact_mut(lanes) {
                entry[meetings..].fill(0.0);
            }
        }
        (self.k, self.lanes, self.used, self.stride) = (k, lanes, meetings, stride);
        events
    }

    /// Interleave lane `lane`'s Gram matrix; `g` is `k×k` column-major, and
    /// only its lower triangle is read.
    ///
    /// # Panics
    /// Panics if `lane` holds no meeting or `g` is not `k×k`.
    pub fn load(&mut self, lane: usize, g: &[f64]) {
        let (k, lanes, stride) = (self.k, self.lanes, self.stride);
        assert!(lane < self.used && g.len() == k * k, "GramLanes::load: lane or order mismatch");
        for c in 0..k {
            for r in c..k {
                self.g[(c * stride + r) * lanes + lane] = g[r + k * c];
            }
        }
    }

    /// Run the cyclic pass on every loaded lane (resetting each `W` to the
    /// identity first); entry `l` of the result counts lane `l`.
    pub fn pass(&mut self, threshold: f64, sort: bool) -> [PassCounts; LANES] {
        match self.lanes {
            1 => pass_lanes::<1>(self, threshold, sort),
            2 => pass_lanes::<2>(self, threshold, sort),
            4 => pass_lanes::<4>(self, threshold, sort),
            _ => pass_lanes::<LANES>(self, threshold, sort),
        }
    }

    /// Lane `lane`'s accumulated update `W` after [`GramLanes::pass`], into
    /// `w` (`k×k` column-major).
    ///
    /// # Panics
    /// Panics if `lane` holds no meeting or `w` is not `k×k`.
    pub fn w_into(&self, lane: usize, w: &mut [f64]) {
        let (k, lanes, stride) = (self.k, self.lanes, self.stride);
        assert!(lane < self.used && w.len() == k * k, "GramLanes::w_into: lane or order mismatch");
        for c in 0..k {
            for r in 0..k {
                w[r + k * c] = self.w[(c * stride + r) * lanes + lane];
            }
        }
    }
}

/// [`GramLanes::pass`] at interleave width `L`.
///
/// The pair `(i, j)` touches rows and columns `≥ i` of `G` only, and only
/// its lower triangle: columns `i` and `j` below row `j` as one run each,
/// column `j`'s entries between rows `i` and `j` where they are stored (in
/// row `j`), and the `2×2` diagonal block rotated on both sides in
/// registers. Starting from `W = I` in row-cyclic order, the rows of `W`'s
/// columns `i` and `j` past row `j` are still `+0` before the pair, and a
/// rotation leaves them `+0`, so `W`'s update runs over rows `0..=j` only.
/// Every update applies `J` through [`fold_rotation_coeffs`], bitwise the
/// expressions of `apply_rotation` / `apply_rotation_swapped`.
#[allow(clippy::needless_range_loop)] // lane loops: indexed across parallel arrays
fn pass_lanes<const L: usize>(
    p: &mut GramLanes,
    threshold: f64,
    sort: bool,
) -> [PassCounts; LANES] {
    p.w.fill(0.0);
    let mut pl = Planes::<L> {
        g: p.g.as_chunks_mut().0,
        w: p.w.as_chunks_mut().0,
        root: p.root.as_chunks_mut().0,
        k: p.k,
        stride: p.stride,
    };
    let (k, stride) = (pl.k, pl.stride);
    for d in 0..k {
        pl.w[d * stride + d] = [1.0; L];
        pl.root[d] = pl.g[d * stride + d].map(f64::sqrt);
    }
    let mut counts = [PassCounts::default(); LANES];
    for i in 0..k {
        for j in (i + 1)..k {
            let (g, root) = (&pl.g, &pl.root);
            let diag = (&g[i * stride + i], &g[j * stride + j], &root[i], &root[j]);
            let rot = pair_lanes::<L>(diag, &g[i * stride + j], threshold, sort, &[u64::MAX; L]);
            if !rot.any_write() {
                continue;
            }
            rotate_pair(&rot, &mut pl, i, j);
            for l in 0..L {
                counts[l].rotations += usize::from(rot.rotated[l] != 0);
                counts[l].swaps += usize::from(rot.swap[l] != 0);
            }
        }
    }
    counts
}

/// The planes of a [`GramLanes`] pass at interleave width `L`: entry
/// `(r, c)` of every lane is one `[f64; L]`, at `c·stride + r`.
struct Planes<'a, const L: usize> {
    g: &'a mut [[f64; L]],
    w: &'a mut [[f64; L]],
    /// `√G(c, c)` at `c`.
    root: &'a mut [[f64; L]],
    k: usize,
    stride: usize,
}

/// Apply the pair `(i, j)`'s rotation to `G`, `√diag G` and `W` (see
/// [`pass_lanes`]). Out of line, so that the pass's loop over skipped
/// pairs stays small.
#[inline(never)]
#[allow(clippy::needless_range_loop)] // lane loops: indexed across parallel arrays
fn rotate_pair<const L: usize>(rot: &LaneRotation<L>, pl: &mut Planes<'_, L>, i: usize, j: usize) {
    let Planes { g: gc, w: wc, root, k, stride } = pl;
    let (k, stride) = (*k, *stride);
    let (ii, ji, jj) = (i * stride + i, i * stride + j, j * stride + j);
    let (m, all_write) = fold_rotation_coeffs(rot);
    let turn = |x: [f64; L], y: [f64; L]| {
        let mut out = ([0.0; L], [0.0; L]);
        for l in 0..L {
            out.0[l] = m[0][l] * x[l] + m[1][l] * y[l];
            out.1[l] = m[2][l] * x[l] + m[3][l] * y[l];
        }
        out
    };
    let keep = |new: [f64; L], old: [f64; L]| -> [f64; L] {
        std::array::from_fn(|l| if rot.write[l] != 0 { new[l] } else { old[l] })
    };
    // G ← G·J between rows i and j: column j's entries sit in row j
    for l in (i + 1)..j {
        let (x, y) = (gc[i * stride + l], gc[l * stride + j]);
        let (nx, ny) = turn(x, y);
        gc[i * stride + l] = keep(nx, x);
        gc[l * stride + j] = keep(ny, y);
    }
    // ... and below row j, one run in each column
    let (head, tail) = gc.split_at_mut(j * stride);
    let (x, y) = (&mut head[ji + 1..i * stride + k], &mut tail[j + 1..k]);
    apply_folded_coeffs(&m, &rot.write, all_write, x.as_flattened_mut(), y.as_flattened_mut());
    // the 2×2 diagonal block: rows i and j of G·J, then Jᵀ on the left;
    // (i, j) is stored in its mirror slot (j, i)
    let (gii, gji, gjj) = (gc[ii], gc[ji], gc[jj]);
    let (a_ii, a_ij) = turn(gii, gji);
    let (a_ji, a_jj) = turn(gji, gjj);
    let (n_ji, n_jj) = turn(a_ij, a_jj);
    gc[ii] = keep(turn(a_ii, a_ji).0, gii);
    gc[ji] = keep(n_ji, gji);
    gc[jj] = keep(n_jj, gjj);
    (root[i], root[j]) = (gc[ii].map(f64::sqrt), gc[jj].map(f64::sqrt));
    // W ← W·J on rows 0..=j, in LANES-wide vectors of LANES/L rows (rounded
    // up); with one lane the row loop vectorizes as it is
    let rows = if L == 1 { j + 1 } else { (j + 1).next_multiple_of(LANES / L) };
    let (head, tail) = wc.split_at_mut(j * stride);
    let (x, y) = (&mut head[i * stride..][..rows], &mut tail[..rows]);
    let (x, y) = (x.as_flattened_mut(), y.as_flattened_mut());
    if L == 1 {
        apply_folded_coeffs(&m, &rot.write, all_write, x, y);
    } else {
        let wide: [[f64; LANES]; 4] = std::array::from_fn(|q| std::array::from_fn(|e| m[q][e % L]));
        let write: [u64; LANES] = std::array::from_fn(|e| rot.write[e % L]);
        apply_folded_coeffs(&wide, &write, all_write, x, y);
    }
}

/// The lane solve of [`rotation_lanes`], given `√α` and `√β` (the pass
/// keeps them current, so it needs no square root for a pair's threshold
/// test). It decides the threshold skips first and stops there when no
/// lane rotates (then at most interchanges, of the unrotated norms), so a
/// converged pair costs no square root or division; and it divides for
/// the huge-`ζ` asymptote only when a rotating lane needs it.
#[allow(clippy::needless_range_loop)] // lane loops: indexed across parallel arrays
#[inline(always)]
fn pair_lanes<const L: usize>(
    (alpha, beta, root_a, root_b): (&[f64; L], &[f64; L], &[f64; L], &[f64; L]),
    gamma: &[f64; L],
    threshold: f64,
    sort: bool,
    active: &[u64; L],
) -> LaneRotation<L> {
    // one simple loop per quantity, so that each compiles to whole-vector
    // instructions rather than lane-by-lane scalar code
    let mask = |b: bool| if b { u64::MAX } else { 0 };
    let mut out =
        LaneRotation { c: [1.0; L], s: [0.0; L], swap: [0; L], write: [0; L], rotated: [0; L] };
    // compute_rotation's zero-column and threshold tests; `rotated` is
    // their complement on the active lanes
    for l in 0..L {
        let limit = threshold * (root_a[l] * root_b[l]);
        let skip = (alpha[l] == 0.0) | (beta[l] == 0.0) | (gamma[l].abs() <= limit);
        out.rotated[l] = mask(!skip) & active[l];
    }
    if out.rotated.iter().all(|&r| r == 0) {
        for l in 0..L {
            out.swap[l] = mask(sort & (beta[l] > alpha[l])) & active[l];
        }
        out.write = out.swap;
        return out;
    }
    let mut zeta = [0.0; L];
    for l in 0..L {
        zeta[l] = (beta[l] - alpha[l]) / (2.0 * gamma[l]);
    }
    let mut t = [0.0; L];
    for l in 0..L {
        let r = 1.0 / (zeta[l].abs() + (1.0 + zeta[l] * zeta[l]).sqrt());
        t[l] = if zeta[l] >= 0.0 { r } else { -r };
    }
    let mut huge = false;
    for l in 0..L {
        huge |= (out.rotated[l] != 0) & (zeta[l].abs() > ZETA_HUGE);
    }
    if huge {
        for l in 0..L {
            let asymptote = 0.5 / zeta[l];
            t[l] = if zeta[l].abs() > ZETA_HUGE { asymptote } else { t[l] };
        }
    }
    for l in 0..L {
        t[l] = if out.rotated[l] != 0 { t[l] } else { 0.0 };
    }
    for l in 0..L {
        out.c[l] = 1.0 / (1.0 + t[l] * t[l]).sqrt();
    }
    for l in 0..L {
        out.s[l] = out.c[l] * t[l];
    }
    for l in 0..L {
        let (a, b, g, c, s) = (alpha[l], beta[l], gamma[l], out.c[l], out.s[l]);
        let ap = c * c * a - 2.0 * c * s * g + s * s * b;
        let bp = s * s * a + 2.0 * c * s * g + c * c * b;
        let (ap, bp) = if out.rotated[l] != 0 { (ap, bp) } else { (a, b) };
        out.swap[l] = mask(sort & (bp > ap)) & active[l];
    }
    for l in 0..L {
        out.write[l] = out.rotated[l] | out.swap[l];
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
                assert_eq!(rot.rotated[l] == 0, reference.skipped, "lane {l}");
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
        for l in [2, 5] {
            assert_eq!((rot.write[l], rot.rotated[l], rot.swap[l]), (0, 0, 0), "lane {l}");
            assert_eq!((rot.c[l], rot.s[l]), (1.0, 0.0), "lane {l}");
        }
        assert!((0..L).all(|l| active[l] == 0 || rot.rotated[l] != 0), "threshold 0 rotates");
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

    /// Columns `i < j` of a `k×k` column-major matrix.
    fn two_cols(buf: &mut [f64], k: usize, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        let (head, tail) = buf.split_at_mut(k * j);
        (&mut head[k * i..k * (i + 1)], &mut tail[..k])
    }

    /// The in-cache pass of one meeting with both triangles of `G` kept
    /// bitwise symmetric, one pair after another: the reference every lane
    /// of a [`GramLanes`] pass must reproduce.
    fn full_symmetric_pass(
        g: &mut [f64],
        w: &mut [f64],
        k: usize,
        threshold: f64,
        sort: bool,
    ) -> (usize, usize) {
        w.fill(0.0);
        for d in 0..k {
            w[d + k * d] = 1.0;
        }
        let mut rotations = 0usize;
        let mut swaps = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                let alpha = g[i + k * i];
                let beta = g[j + k * j];
                let gamma = g[i + k * j];
                let rot = compute_rotation(alpha, beta, gamma, threshold);
                let (alpha_pred, beta_pred) = if rot.skipped {
                    (alpha, beta)
                } else {
                    let (rc, rs) = (rot.c, rot.s);
                    (
                        rc * rc * alpha - 2.0 * rc * rs * gamma + rs * rs * beta,
                        rs * rs * alpha + 2.0 * rc * rs * gamma + rc * rc * beta,
                    )
                };
                let want_swap = sort && beta_pred > alpha_pred;
                if rot.skipped && !want_swap {
                    continue;
                }
                // columns i, j from row i; then rows i, j: a copy of the
                // columns off the diagonal block, arithmetic on it
                let (gi, gj) = two_cols(g, k, i, j);
                if want_swap {
                    apply_rotation_swapped(rot, &mut gi[i..], &mut gj[i..]);
                } else {
                    apply_rotation(rot, &mut gi[i..], &mut gj[i..]);
                }
                for l in (i + 1)..k {
                    if l != j {
                        g[i + k * l] = g[l + k * i];
                        g[j + k * l] = g[l + k * j];
                    }
                }
                let (rc, rs) = (rot.c, rot.s);
                for l in [i, j] {
                    let x = g[i + k * l];
                    let y = g[j + k * l];
                    if want_swap {
                        g[i + k * l] = rs * x + rc * y;
                        g[j + k * l] = rc * x - rs * y;
                    } else {
                        g[i + k * l] = rc * x - rs * y;
                        g[j + k * l] = rs * x + rc * y;
                    }
                }
                g[j + k * i] = g[i + k * j];
                let (wi, wj) = two_cols(w, k, i, j);
                if want_swap {
                    apply_rotation_swapped(rot, wi, wj);
                } else {
                    apply_rotation(rot, wi, wj);
                }
                if !rot.skipped {
                    rotations += 1;
                }
                if want_swap {
                    swaps += 1;
                }
            }
        }
        (rotations, swaps)
    }

    /// Run one [`GramLanes`] pass over `gs` (one symmetric `k×k` Gram
    /// matrix per lane) and check every lane against
    /// [`full_symmetric_pass`] by bits: `G`'s lower triangle, `W` and the
    /// counts. Returns the counts and each lane's `W`.
    fn check_lanes(
        gs: &[Vec<f64>],
        k: usize,
        threshold: f64,
        sort: bool,
        what: &str,
    ) -> (Vec<PassCounts>, Vec<Vec<f64>>) {
        let mut lanes = GramLanes::default();
        lanes.reset(k, gs.len());
        for (l, g) in gs.iter().enumerate() {
            lanes.load(l, g);
        }
        let counts = lanes.pass(threshold, sort);
        let unused = &counts[gs.len()..];
        assert!(unused.iter().all(|c| *c == PassCounts::default()), "{what}: an unused lane moved");
        let mut ws = Vec::new();
        for (l, g) in gs.iter().enumerate() {
            let what = format!("{what}, lane {l} of {}", gs.len());
            let (mut g_ref, mut w_ref) = (g.clone(), vec![0.0; k * k]);
            let want = full_symmetric_pass(&mut g_ref, &mut w_ref, k, threshold, sort);
            assert_eq!((counts[l].rotations, counts[l].swaps), want, "{what}: counts");
            let mut w = vec![0.0; k * k];
            lanes.w_into(l, &mut w);
            for (p, q) in w.iter().zip(&w_ref) {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}: W");
            }
            for c in 0..k {
                for r in c..k {
                    let got = lanes.g[(c * lanes.stride + r) * lanes.lanes + l];
                    assert_eq!(got.to_bits(), g_ref[r + k * c].to_bits(), "{what}: G({r}, {c})");
                }
            }
            ws.push(w);
        }
        (counts[..gs.len()].to_vec(), ws)
    }

    /// A random (kind 0), rank-deficient (1), graded by 10⁻³ per column
    /// (2), repeated-column (3: columns 0 and 1 again and again, equal
    /// diagonals and |γ| = α) or zero-column (4: every third column zero)
    /// `m×k` union.
    fn union(kind: usize, m: usize, k: usize, seed: u64) -> crate::Matrix {
        let mut a = if kind == 1 {
            crate::generate::rank_deficient(m, k, k.div_ceil(2), seed)
        } else {
            crate::generate::random_uniform(m, k, seed)
        };
        for j in 0..k {
            let src = a.col(j % 2).to_vec();
            let col = a.col_mut(j);
            match kind {
                2 => col.iter_mut().for_each(|v| *v *= 10f64.powi(-3 * j as i32)),
                3 if j >= 2 => col.copy_from_slice(&src),
                4 if j % 3 == 1 => col.fill(0.0),
                _ => {}
            }
        }
        a
    }

    #[test]
    fn lane_pass_matches_full_symmetric_reference() {
        // 1 to 8 meetings per pass, each lane a different union so the
        // lanes' skip, rotate and swap decisions diverge; three successive
        // meetings each (the union updated by the reference W), so late,
        // near-diagonal passes run too
        let (m, threshold) = (40, 32.0 * f64::EPSILON);
        for k in [1, 2, 5, 8, 13, 16] {
            let cx = k / 2;
            let mut tile = vec![0.0; k * crate::ops::PANEL_TILE];
            for n in 1..=LANES {
                for sort in [true, false] {
                    let mut unions: Vec<crate::Matrix> = (0..n)
                        .map(|l| union((l + n + k) % 5, m, k, (100 * k + 10 * n + l) as u64))
                        .collect();
                    for round in 0..3 {
                        let gs: Vec<Vec<f64>> = unions
                            .iter()
                            .map(|a| {
                                let (x, y) = a.as_slice().split_at(cx * m);
                                let mut g = vec![0.0; k * k];
                                crate::ops::gram_block(x, y, m, &mut g);
                                g
                            })
                            .collect();
                        let what = format!("k = {k}, sort = {sort}, round {round}");
                        let (counts, ws) = check_lanes(&gs, k, threshold, sort, &what);
                        if round == 0 && n >= 5 && k >= 5 {
                            assert!(counts.iter().any(|c| *c != counts[0]), "{what}: {counts:?}");
                        }
                        for (a, w) in unions.iter_mut().zip(&ws) {
                            let (x, y) = a.as_mut_slice().split_at_mut(cx * m);
                            crate::ops::panel_update(x, y, m, w, &mut tile);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_pass_takes_ties_and_huge_zeta_as_compute_rotation_does() {
        // one pair per lane: a lane that never writes while the others do,
        // whose γ = −0.0 must stay −0.0; |γ| exactly at the threshold (skip,
        // and with sort an interchange alone) and one ulp above, of either
        // sign; ζ two ulps past ZETA_HUGE and two below; ζ ≈ −5e155, whose
        // ζ² overflows, so only the asymptote rotates; ζ = ∞ (a rotation of
        // (1, 0) that still counts); ζ = 0. Eight lanes, then one.
        let threshold = 1e-12;
        let at = threshold * (4.0f64.sqrt() * 9.0f64.sqrt());
        let g0 = 0.5 / ZETA_HUGE;
        let (past, below) = (g0.next_down().next_down(), g0.next_up().next_up());
        let zeta = |a: f64, b: f64, g: f64| (b - a) / (2.0 * g);
        assert!(zeta(1e-300, 1.0, past) > ZETA_HUGE && zeta(1e-300, 1.0, below) <= ZETA_HUGE);
        assert!(
            zeta(1.0, 1e-290, 1e-156).is_finite()
                && zeta(1.0, 1e-290, 1e-156).powi(2).is_infinite()
        );
        assert_eq!(zeta(1e-300, 1e300, 1e-11), f64::INFINITY);
        let pairs = [
            (9.0, 4.0, -0.0),
            (4.0, 9.0, at),
            (4.0, 9.0, at.next_up()),
            (4.0, 9.0, -at.next_up()),
            (1e-300, 1.0, past),
            (1e-300, 1.0, below),
            (1.0, 1e-290, 1e-156),
            (1e-300, 1e300, 1e-11),
            (2.5, 2.5, 0.7),
        ];
        let gs: Vec<Vec<f64>> = pairs.iter().map(|&(a, b, g)| vec![a, g, g, b]).collect();
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for sort in [true, false] {
            let what = format!("sort = {sort}");
            let (mut counts, mut ws) = check_lanes(&gs[..LANES], 2, threshold, sort, &what);
            let (last, w) = check_lanes(&gs[LANES..], 2, threshold, sort, &what);
            counts.extend(last);
            ws.extend(w);
            let rotated = counts.iter().map(|c| c.rotations).collect::<Vec<_>>();
            assert_eq!(rotated, [0, 0, 1, 1, 1, 1, 1, 1, 1], "{what}");
            assert_eq!((counts[0].swaps, counts[1].swaps), (0, usize::from(sort)), "{what}");
            assert_ne!(ws[6][1], 0.0, "{what}: ζ² overflows, the asymptote still rotates");
            // ζ = ∞: c = 1, s = 0, so W is I, or with sort the interchange
            let w_inf = if sort { [0.0, 1.0, 1.0, 0.0] } else { [1.0, 0.0, 0.0, 1.0] };
            assert_eq!(ws[7], w_inf, "{what}: ζ = ∞");
            // alone, each lane gives the same bits as among the others
            for (l, g) in gs.iter().enumerate() {
                let (alone, w) = check_lanes(std::slice::from_ref(g), 2, threshold, sort, &what);
                assert_eq!(alone[0], counts[l], "{what}: lane {l} alone");
                assert_eq!(bits(&w[0]), bits(&ws[l]), "{what}: lane {l} alone");
            }
        }
    }
}
