//! Tall-skinny QR: recursive Householder panels in compact-WY form and a
//! TSQR tree reduction over row tiles.
//!
//! For `m ≫ n` the one-sided Jacobi sweeps rotate full `m`-length columns
//! every meeting — nearly all memory bandwidth moves data that a QR
//! front-end could shrink first. This module factors `A = QR` so the
//! Jacobi drivers run on a small `n×n` factor (the front-end factors
//! `Rᵀ = Q₂R₂` once more and sweeps `R₂ᵀ`), with
//! `Q` kept in factored form (never materialized) and applied tile by
//! tile:
//!
//! * **Panel factorization** proceeds left to right in panels of
//!   [`QrOptions::panel`] columns. Each panel's rows are split into *row
//!   tiles* sized to the L2 cache ([`crate::cache::l2_bytes`]); every
//!   tile is factored in place in the working matrix, and the per-tile
//!   `R` factors are merged pairwise up a binary tree (the TSQR reduction
//!   of Faverge–Langou–Robert–Dongarra, arXiv 1611.06892) — the same tree
//!   shape the paper's orderings sweep on.
//! * **Recursive tiles** (Elmroth–Gustavson, IBM J. Res. Dev. 44(4),
//!   2000; the shape of LAPACK `DGEQRT3`): a tile `w` columns wide is
//!   split in two; the left half is factored, its block reflector is
//!   applied to the right half, the right half is factored below it, and
//!   the two triangular factors are joined by `T₁₂ = −T₁·(V₁ᵀV₂)·T₂`. So
//!   `V` and `T` come out together, and nearly every flop runs in the
//!   register-blocked [`ops::gemm_tn`] / [`ops::gemm_acc`] tiles.
//! * **A fused base case**: the recursion ends at `BASE` (four) columns,
//!   which one routine factors in `w + 1` passes down the block, each one
//!   `ops::house_pass` that finishes the last reflector's tail, applies
//!   it, and sums the next reflector's norm and dot products as it goes.
//!   The sums are unscaled; a column whose sums leave a safe range takes a
//!   cold step that forms its reflector at a scale, as the one-column
//!   reflector does.
//! * **Compact-WY storage**: every tree node is `Q_node = I − V·T·Vᵀ`
//!   with `V` unit lower trapezoidal and `T` upper triangular. A leaf's
//!   `V` stays in the working matrix below the panel's diagonal, with its
//!   unit head implicit; a combine keeps a small `2bw×bw` `V` of its own.
//!   Applying a node to `k` columns multiplies its tail, and its `bw×bw`
//!   unit head written out as a dense triangle, with the two GEMMs.
//! * **Trailing update / apply-Q** parallelize over *column chunks*: each
//!   lane owns a contiguous group of columns and applies the whole tree
//!   to it (leaves, then combines for `Qᵀ`; the reverse for `Q`), so no
//!   barrier is needed between tree levels. The leaves of a panel share
//!   its columns of the working matrix, so they are factored one after
//!   another.
//! * **Back-transform** ([`TsqrQr::q_times`]): `Q·[X; 0]` for an `n`-row
//!   `X`. The first panel it applies is the last one, and there every
//!   leaf's rows below its `bw`-row head are still zero, so its `VᵀC`
//!   multiplies the heads only and its update writes the tail rows
//!   without reading them ([`ops::gemm_set`]) — bit for bit what
//!   [`TsqrQr::apply_q`] computes on the zero-padded matrix. A
//!   factorization of one panel (the front-end's choice for tall-skinny
//!   inputs) thus reads only `V` and the heads, and writes the result
//!   once.
//!
//! The working matrix is `A` copied at a leading dimension of its own
//! (`work_ld`): `m` rounded up to whole 64-byte lines, plus a line when
//! that is a whole number of 4 KiB pages, into an [`AlignedBuf`], whose
//! first value sits on a line. So every column of `V` and of the trailing
//! matrix starts on a line, and at power-of-two heights the columns no
//! longer map to one L1 set. The kernels take separate strides for `V` and `C`, since the
//! matrices `Q` is applied to keep their own.
//!
//! The factorization's steady state (the per-panel loop) is
//! allocation-free after the first panel warms the per-lane scratch
//! arenas; [`QrStats::steady_alloc_events`] counts violations (zero in
//! every test and bench). The factor storage itself — the working matrix,
//! one `T` per tree node and one `V` per combine — is the output,
//! allocated once per node, except the `m×n` working matrix: a dropped
//! [`TsqrQr`] leaves it in a one-slot spare of its thread, and the next
//! `factor` on that thread copies `A` into the spare when its capacity
//! ([`AlignedBuf::capacity`]) lies between the `ld·n` values it needs (the
//! padded columns) and twice that; otherwise the spare is freed and a new
//! buffer allocated. So a steady stream of same-shape factorizations
//! allocates no working matrix, and each thread holds at
//! most one spare, no larger than twice the working matrix of the
//! factorization that filled it. Reuse also keeps the allocator from
//! handing the pages back to the kernel between solves — with glibc, a
//! freed multi-MiB working matrix can coalesce into a heap top above the
//! trim threshold, and every later request then faults its pages in
//! again.

use crate::aligned::{AlignedBuf, LINE};
use crate::error::MatrixError;
use crate::matrix::Matrix;
use crate::ops;
use std::cell::Cell;

thread_local! {
    /// The working matrix of the last [`TsqrQr`] dropped on this thread,
    /// kept for the next [`TsqrQr::factor`] on it (see the module docs).
    static SPARE: Cell<AlignedBuf> = const { Cell::new(AlignedBuf::new()) };
}

/// Fork–join hook for the TSQR tree: this crate is the workspace's
/// lowest layer and cannot depend on the persistent worker pool
/// (`treesvd-sim` depends on *it*), so callers inject one. The two
/// closures operate on disjoint data and may run concurrently; `fork`
/// returns when both have completed.
pub trait Joiner: Sync {
    /// Run both closures (possibly concurrently), returning when both
    /// are done.
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send));
}

/// The serial joiner: runs the halves back to back on the caller.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialJoin;

impl Joiner for SerialJoin {
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        a();
        b();
    }
}

/// Tuning knobs for [`TsqrQr::factor`].
#[derive(Debug, Clone, Copy)]
pub struct QrOptions {
    /// Panel width (the compact-WY block size). Clamped to the column
    /// count. Default 32 — wide enough that the trailing update is
    /// GEMM-shaped, small enough that `T` and the tree nodes stay tiny.
    pub panel: usize,
    /// Row-tile height for the TSQR leaves; `0` derives it from the L2
    /// probe so one leaf tile (`leaf_rows × panel` doubles) fills about
    /// half the cache at panels up to 32 columns. Wider panels keep the
    /// 32-column height (4096 rows on a 2 MiB L2): at 64 columns a leaf
    /// of half the cache (2048 rows) paid for twice the combines of
    /// `2bw×bw` strips, and the one-panel factor plus its back-transform
    /// at 8192×64 ran slower.
    pub leaf_rows: usize,
    /// Fork lanes for the column-chunk trailing updates and applies; `1`
    /// runs serially regardless of the [`Joiner`].
    pub lanes: usize,
}

impl Default for QrOptions {
    fn default() -> Self {
        Self { panel: 32, leaf_rows: 0, lanes: 1 }
    }
}

impl QrOptions {
    /// The effective leaf height for a panel of width `bw`: the explicit
    /// override, else `L2/2` worth of tile rows at `min(bw, 32)` columns,
    /// capped at 16384, then floored at two panels' worth so the tree does
    /// not degenerate on tiny caches (the floor wins for panels wider than
    /// 8192 columns).
    fn leaf_height(&self, bw: usize) -> usize {
        if self.leaf_rows > 0 {
            self.leaf_rows.max(bw)
        } else {
            (crate::cache::l2_bytes() / (16 * bw.clamp(1, 32))).min(16384).max(2 * bw)
        }
    }
}

/// Counters from a factorization, for the benches and the zero-alloc
/// gates.
#[derive(Debug, Clone, Copy, Default)]
pub struct QrStats {
    /// Panels factored.
    pub panels: usize,
    /// Row tiles (TSQR leaves) of the first — tallest — panel.
    pub leaves: usize,
    /// Depth of the first panel's combine tree.
    pub levels: usize,
    /// Scratch-arena growth events after the first panel warmed the
    /// per-lane arenas. Zero in steady state.
    pub steady_alloc_events: u64,
}

/// One TSQR leaf: the compact-WY factor of one row tile of a panel. Its
/// `V` lies in the working matrix, in rows `row0..row0 + rows` of the
/// panel's columns below the diagonal of the top `bw×bw` block.
#[derive(Debug)]
struct Leaf {
    /// First (global) row of the tile.
    row0: usize,
    /// Tile height.
    rows: usize,
    /// Upper-triangular `T`, `bw × bw`.
    t: Vec<f64>,
}

/// One combine node: the compact-WY factor of the QR of two stacked
/// `bw×bw` `R` factors. Its reflectors act on the top `bw` rows of the
/// two child tiles' row ranges.
#[derive(Debug)]
struct Combine {
    /// Surviving child: leaf index whose top rows hold the left `R`.
    left: usize,
    /// Absorbed child: leaf index whose top rows hold the right `R`.
    right: usize,
    /// `V`, `2bw × bw`: rows `0..bw` (unit head implicit) meet the left
    /// child's top rows, rows `bw..2bw` the right child's.
    v: Vec<f64>,
    /// Upper-triangular `T`, `bw × bw`.
    t: Vec<f64>,
}

/// The factored form of one panel: its leaves plus the combine tree in
/// reduction order.
#[derive(Debug)]
struct PanelFactor {
    /// First column of the panel; its leaves' `V` live in columns
    /// `col0..col0 + bw` of the working matrix.
    col0: usize,
    /// Panel width.
    bw: usize,
    leaves: Vec<Leaf>,
    combines: Vec<Combine>,
}

/// Per-lane scratch for factorization and applies. Reused across panels;
/// growth after warm-up is counted.
#[derive(Debug, Default)]
struct QrScratch {
    /// The recursive tile factorization's scratch, `bw²` values: what
    /// [`qr_tile`] needs at its widest level (see there).
    s: Vec<f64>,
    /// A block-reflector application's scratch ([`apply_wy`]), `2·bw·(k +
    /// bw)` values for `k` columns: `W = VᵀC`, the node's explicit unit
    /// head, `Tᵀ` and `op(T)·W`.
    w: Vec<f64>,
    alloc_events: u64,
}

impl QrScratch {
    fn grow(buf: &mut Vec<f64>, len: usize, events: &mut u64) {
        if buf.capacity() < len {
            *events += 1;
        }
        buf.resize(len, 0.0);
    }

    fn ensure_factor(&mut self, bw: usize) {
        Self::grow(&mut self.s, bw * bw, &mut self.alloc_events);
    }

    fn ensure_apply(&mut self, bw: usize, k: usize) {
        Self::grow(&mut self.w, 2 * bw * (k + bw), &mut self.alloc_events);
    }
}

/// `A = QR` in TSQR factored form: `R` explicitly, `Q` as the per-panel
/// reflector trees, applied on demand by [`TsqrQr::apply_q`] /
/// [`TsqrQr::apply_qt`] / [`TsqrQr::q_times`].
#[derive(Debug)]
pub struct TsqrQr {
    m: usize,
    n: usize,
    /// Leading dimension of the working matrix ([`work_ld`] of `m`).
    ld: usize,
    /// The reduced working matrix (`m × n`, column-major at stride `ld`):
    /// below each panel's diagonal it holds the reflectors of the panel's
    /// leaves.
    work: AlignedBuf,
    panels: Vec<PanelFactor>,
    r: Matrix,
    stats: QrStats,
}

/// The leading dimension of the working matrix of an `m`-row factor: `m`
/// rounded up to whole cache lines, so that every column starts on a line
/// as the first one does, plus one more line when that makes a whole
/// number of 4 KiB pages. At such a stride every column starts on the
/// same L1 set (and on one of a few L2 sets), so the `V` and `C` columns
/// that a register tile streams together evict one another; the extra
/// line spreads them over the sets. The padding rows are never read.
fn work_ld(m: usize) -> usize {
    let ld = m.next_multiple_of(LINE);
    if ld.is_multiple_of(512) {
        ld + LINE
    } else {
        ld
    }
}

/// One Householder reflector `H = I − τ·v·vᵀ` (`v[0] = 1`) that maps
/// `col` onto a multiple of `e₁`: on return `col[0]` holds `β = ±‖col‖`
/// and `col[1..]` the tail of `v`. Returns `τ`, which is `0` (`H = I`)
/// when the tail is already zero. The norm is scaled, so entries near the
/// overflow and underflow thresholds are safe.
fn house_col(col: &mut [f64]) -> f64 {
    let alpha = col[0];
    let xnorm = ops::norm2(&col[1..]);
    if xnorm == 0.0 {
        return 0.0; // H = I; the diagonal entry is already R's
    }
    let beta = -alpha.signum() * f64::hypot(alpha, xnorm);
    if beta.abs() < f64::MIN_POSITIVE {
        return house_col_subnormal(col);
    }
    let tau = (beta - alpha) / beta;
    ops::scal(1.0 / (alpha - beta), &mut col[1..]);
    col[0] = beta;
    tau
}

/// [`house_col`] of a column whose norm is subnormal, where `β` would
/// keep only a few significant bits (and `1/(α − β)` could overflow),
/// so `H` would be far from orthogonal: the reflector is formed on the
/// column scaled by `2^1022`, exactly, into the normal range, and only
/// `β` is scaled back.
#[cold]
#[inline(never)]
fn house_col_subnormal(col: &mut [f64]) -> f64 {
    ops::scal(1.0 / f64::MIN_POSITIVE, col);
    let tau = house_col(col);
    col[0] *= f64::MIN_POSITIVE;
    tau
}

/// Widest block [`qr_tile`] hands to its fused base case, [`qr_base`]. On
/// a 4096-row block at stride 8200 (one AVX-512 thread of a 2-vCPU Xeon
/// guest), four columns take 13 µs against 29 µs for the recursion the base
/// case replaced. Eight columns were tried: the base case's eight passes
/// and its Gram product read the block more often than the eight-column
/// recursion level's tile products do, 56–63 µs against 43 µs for two
/// four-column base cases joined by that level.
const BASE: usize = 4;

/// The range of sums of squares [`qr_base`] forms a reflector from as they
/// are: column norms between `2^−240` and `2^240`. Then no partial sum of
/// squares or dot product of such columns overflows, and each product
/// that underflows is off by at most `2^−1075`, less in all than an ulp of
/// the norms' product (at least `2^−480`) on any column shorter than
/// `2^500` rows, so the unscaled sums are as accurate as [`house_col`]'s
/// scaled ones.
const SUM_MIN: f64 = f64::from_bits((1023 - 480) << 52);
const SUM_MAX: f64 = f64::from_bits((1023 + 480) << 52);

/// Recursive in-place QR of the `h × w` block whose column `j` is
/// `a[j·ld..][..h]` (`h ≥ w ≥ 1`). On return the block's upper triangle
/// holds `R`, its strict lower trapezoid the reflector tails `V` (unit
/// diagonal implicit), and the upper triangle of `t` (stride `ldt`) the
/// `T` with `H₀·H₁⋯H_{w−1} = I − V·T·Vᵀ`. `s` is scratch of at least `w²`
/// values: with `w₁ = ⌊w/2⌋` and `w₂ = ⌈w/2⌉`, the left half's
/// [`apply_wy`] takes `2·w₁·w` and the join `w₁·w₂ + w₂²`. Blocks of at
/// most [`BASE`] columns go to [`qr_base`].
fn qr_tile(a: &mut [f64], ld: usize, h: usize, w: usize, t: &mut [f64], ldt: usize, s: &mut [f64]) {
    debug_assert!(h >= w && w >= 1);
    if w <= BASE {
        qr_base(a, ld, h, w, t, ldt);
        return;
    }
    let (w1, w2) = (w / 2, w - w / 2);
    qr_tile(a, ld, h, w1, t, ldt, s);
    // A₂ ← Q₁ᵀ·A₂ = A₂ − V₁·T₁ᵀ·(V₁ᵀA₂)
    let (v1, a2) = a.split_at_mut(w1 * ld);
    apply_wy(v1, ld, h, w1, t, ldt, true, a2, ld, (0, w1), false, w2, s);
    qr_tile(&mut a[w1 * ld + w1..], ld, h - w1, w2, &mut t[w1 * ldt + w1..], ldt, s);
    // T₁₂ = −T₁·(V₁ᵀV₂)·T₂. V₂ starts at row w1, so only rows w1..h of V₁
    // meet it: x = V₂ᵀ·V₁(w1..h, :) is (V₁ᵀV₂)ᵀ, w2 × w1.
    let (x, rest) = s.split_at_mut(w2 * w1);
    vt_c(&a[w1 * ld + w1..], ld, h - w1, w2, a, ld, (w1, w), false, w1, x, rest);
    for c in 0..w2 {
        let t2c = w1 + ldt * (w1 + c); // T₂(0.., c)
        for i in 0..w1 {
            // (V₁ᵀV₂·T₂)(i, c): T₂ is upper triangular
            t[i + ldt * (w1 + c)] = ops::dot(&x[w2 * i..w2 * i + c + 1], &t[t2c..t2c + c + 1]);
        }
    }
    // −T₁· from the left, into the room of the head vt_c wrote out
    let t12 = &mut rest[..w1 * w2];
    tri_mul(t, ldt, false, w1, &t[w1 * ldt..], ldt, w2, &mut [], t12);
    for (dst, src) in t[w1 * ldt..].chunks_mut(ldt).zip(t12.chunks_exact(w1)) {
        for (d, &x) in dst[..w1].iter_mut().zip(src) {
            *d = -x;
        }
    }
}

/// The fused base case of [`qr_tile`]: the Householder QR of an `h × w`
/// block of at most [`BASE`] columns, with the same outputs, in `w + 1`
/// passes of [`ops::house_pass`] down the block instead of one or more per
/// recursion level and per kernel. Pass `p` scales the tail of reflector
/// `p − 1`, applies that reflector to columns `p..w`, and sums what forms
/// reflector `p`: the squared norm of column `p` below its head and its
/// dot products with the columns to its right. When every sum lies in
/// [`SUM_MIN`]`..=`[`SUM_MAX`] the reflector is formed from them;
/// otherwise [`house_cold`] forms it as [`house_col`] does, at a scale,
/// and takes its dot products again. `T` comes last, from the Gram matrix
/// of `V`.
fn qr_base(a: &mut [f64], ld: usize, h: usize, w: usize, t: &mut [f64], ldt: usize) {
    debug_assert!(h >= w && (1..=BASE).contains(&w));
    let mut tau = [0.0; BASE];
    // c[k]: the weight of the last reflector formed in column k, τ·vᵀa_k;
    // s: the scale its tail is still waiting for
    let mut c = [0.0; BASE];
    let mut s = 1.0;
    for p in 0..=w {
        // the last column may end at row h, short of a whole stride
        let (done, rest) = a.split_at_mut((p * ld).min(a.len()));
        let v = match p.checked_sub(1) {
            Some(q) => &mut done[q * ld + p..q * ld + h],
            None => &mut [],
        };
        if p > 0 {
            // the reflector's unit head meets row p − 1
            for k in p..w {
                rest[(k - p) * ld + p - 1] -= c[k];
            }
        }
        let (dots, squares) = base_pass(w - p, p > 0, v, s, &c[p..w], rest, ld, p..h);
        if p == w {
            break;
        }
        let safe = |x: f64| (SUM_MIN..=SUM_MAX).contains(&x);
        if squares[..w - p].iter().all(|&x| safe(x)) {
            let alpha = a[p * ld + p];
            let beta = -alpha.signum() * f64::hypot(alpha, dots[0].sqrt());
            tau[p] = (beta - alpha) / beta;
            s = 1.0 / (alpha - beta);
            for k in p + 1..w {
                c[k] = tau[p] * (a[k * ld + p] + s * dots[k - p]);
            }
            a[p * ld + p] = beta;
        } else {
            tau[p] = house_cold(a, ld, h, w, p, &mut c);
            s = 1.0;
        }
    }
    // T(0..j, j) = −τ_j·T(0..j, 0..j)·Vᵀv_j, with VᵀV from the tails below
    // row w and then the unit heads above it
    let mut g = [0.0; BASE * BASE];
    let g = &mut g[..w * w];
    ops::gemm_tn(h - w, &a[w..], ld, w, &a[w..], ld, w, g);
    for j in 0..w {
        t[j + ldt * j] = tau[j];
        for i in 0..j {
            let mut head = a[i * ld + j];
            for r in j + 1..w {
                head += a[i * ld + r] * a[j * ld + r];
            }
            g[i + w * j] += head;
        }
        for i in 0..j {
            let mut acc = 0.0;
            for l in i..j {
                acc += t[i + ldt * l] * g[l + w * j];
            }
            t[i + ldt * j] = -tau[j] * acc;
        }
    }
}

/// [`ops::house_pass`] down rows `rows` of the first `k` columns of
/// `block` (stride `ld`), `update` applying the reflector whose tail is
/// `v` with the weights `c`; `k = 0` only scales `v`. The sums come back
/// padded to [`BASE`].
#[allow(clippy::too_many_arguments)]
fn base_pass(
    k: usize,
    update: bool,
    v: &mut [f64],
    s: f64,
    c: &[f64],
    block: &mut [f64],
    ld: usize,
    rows: std::ops::Range<usize>,
) -> ([f64; BASE], [f64; BASE]) {
    fn run<const K: usize>(
        update: bool,
        v: &mut [f64],
        s: f64,
        c: &[f64],
        mut block: &mut [f64],
        ld: usize,
        rows: std::ops::Range<usize>,
    ) -> ([f64; BASE], [f64; BASE]) {
        let c: &[f64; K] = c.try_into().expect("one weight per column");
        let mut cols: [&mut [f64]; K] = core::array::from_fn(|_| {
            let n = block.len().min(ld);
            let (col, rest) = std::mem::take(&mut block).split_at_mut(n);
            block = rest;
            &mut col[rows.clone()]
        });
        let (dots, squares) = if update {
            ops::house_pass::<K, true>(v, s, c, &mut cols)
        } else {
            ops::house_pass::<K, false>(v, s, c, &mut cols)
        };
        let mut out = ([0.0; BASE], [0.0; BASE]);
        out.0[..K].copy_from_slice(&dots);
        out.1[..K].copy_from_slice(&squares);
        out
    }
    // one arm per width up to BASE
    match k {
        0 => {
            ops::scal(s, v);
            ([0.0; BASE], [0.0; BASE])
        }
        1 => run::<1>(update, v, s, c, block, ld, rows),
        2 => run::<2>(update, v, s, c, block, ld, rows),
        3 => run::<3>(update, v, s, c, block, ld, rows),
        _ => run::<BASE>(update, v, s, c, block, ld, rows),
    }
}

/// Reflector `p` of [`qr_base`] when its sums left the safe range: formed
/// by [`house_col`], at a scale, and its weight in each column `k` to the
/// right taken by a dot product with the scaled tail. Returns `τ`.
#[cold]
#[inline(never)]
fn house_cold(a: &mut [f64], ld: usize, h: usize, w: usize, p: usize, c: &mut [f64; BASE]) -> f64 {
    let (left, right) = a.split_at_mut(((p + 1) * ld).min(a.len()));
    let v = &mut left[p * ld + p..p * ld + h];
    let tau = house_col(v);
    for k in p + 1..w {
        let col = &right[(k - p - 1) * ld..];
        c[k] = tau * (col[p] + ops::dot(&v[1..], &col[p + 1..h]));
    }
    tau
}

/// `W = VᵀC` for `k` columns (`W` is `bw × k`, column-major). `V` is
/// `h × bw` at stride `ldv` with an implicit unit head — rows `0..bw`,
/// of which only the strict lower part is read — and a dense tail, rows
/// `bw..h`. Column `j` of `C` meets the head at `c[head + j·ldc..][..bw]`
/// and the tail at `c[tail + j·ldc..][..h − bw]`, where
/// `(head, tail) = rows`. The head is written out as a dense unit lower
/// triangle into `vh` (`bw²` values, left there for the caller), so both
/// parts run as [`ops::gemm_tn`] tiles. `zero_tail` promises that `C` is
/// zero in the tail rows: their tile is skipped, and since
/// [`ops::gemm_tn`] sums from `+0` an all-zero tail would have written
/// exactly `+0`, so `W` keeps the same bits.
#[allow(clippy::too_many_arguments)]
fn vt_c(
    v: &[f64],
    ldv: usize,
    h: usize,
    bw: usize,
    c: &[f64],
    ldc: usize,
    rows: (usize, usize),
    zero_tail: bool,
    k: usize,
    w: &mut [f64],
    vh: &mut [f64],
) {
    let (head, tail) = rows;
    let vh = &mut vh[..bw * bw];
    for (i, col) in vh.chunks_exact_mut(bw).enumerate() {
        col[..i].fill(0.0);
        col[i] = 1.0;
        col[i + 1..].copy_from_slice(&v[i * ldv + i + 1..i * ldv + bw]);
    }
    if zero_tail {
        w.fill(0.0);
    } else {
        ops::gemm_tn(h - bw, &v[bw..], ldv, bw, &c[tail..], ldc, k, w);
    }
    ops::gemm_tn_acc(bw, vh, bw, bw, &c[head..], ldc, k, w);
}

/// Apply the block reflector `I − V·op(T)·Vᵀ` of one tree node to `k`
/// columns of `C` (stride `ldc`), with `V`, `rows` and `zero_tail` as in
/// [`vt_c`] and the upper-triangular `T` at stride `ldt`. `trans`
/// selects `op(T) = Tᵀ` (the `Qᵀ` direction) over `T`. The unit head
/// (made dense, `bw²` values) and the tail are multiplied by
/// [`ops::gemm_tn`] and [`ops::gemm_acc`] tiles, `op(T)` by [`tri_mul`];
/// with `zero_tail` the tail rows are written by [`ops::gemm_set`], which
/// never reads them: its tiles start at `+0`, the value
/// [`ops::gemm_acc`] would have loaded, so `C` keeps the same bits.
/// `s` is scratch of at least `2·bw·(k + bw)` values: `W = VᵀC`, the
/// head, `Tᵀ` and `op(T)·W`.
#[allow(clippy::too_many_arguments)]
fn apply_wy(
    v: &[f64],
    ldv: usize,
    h: usize,
    bw: usize,
    t: &[f64],
    ldt: usize,
    trans: bool,
    c: &mut [f64],
    ldc: usize,
    rows: (usize, usize),
    zero_tail: bool,
    k: usize,
    s: &mut [f64],
) {
    if k == 0 {
        return;
    }
    let (head, tail) = rows;
    let (w, s) = s.split_at_mut(bw * k);
    let (vh, s) = s.split_at_mut(bw * bw);
    let (tt, tw) = s.split_at_mut(bw * bw);
    let tw = &mut tw[..bw * k];
    vt_c(v, ldv, h, bw, c, ldc, rows, zero_tail, k, w, vh);
    tri_mul(t, ldt, trans, bw, w, bw, k, tt, tw);
    let gemm = if zero_tail { ops::gemm_set } else { ops::gemm_acc };
    gemm(h - bw, &v[bw..], ldv, bw, tw, k, -1.0, &mut c[tail..], ldc);
    ops::gemm_acc(bw, vh, bw, bw, tw, k, -1.0, &mut c[head..], ldc);
}

/// `out ← op(T)·W` for the upper-triangular `bw×bw` `T` (stride `ldt`,
/// its strict lower part never read) and the `k` columns of `W` (stride
/// `ldw`), `out` at stride `bw`; `trans` selects `op(T) = Tᵀ`. Each
/// output sums its terms in ascending `l`, starting from `+0`, a
/// multiply then an add, as the dot product of its row of `op(T)` with
/// its column of `W` would. The sums run as axpys of whole columns of
/// `op(T)`, though, so they vectorize over the rows instead of forming
/// one dependent add chain per output. `Tᵀ`'s columns are `T`'s rows, so
/// with `trans` they are first copied into `tt` (`bw²` values, unused
/// otherwise) to be read contiguously.
#[allow(clippy::too_many_arguments)]
fn tri_mul(
    t: &[f64],
    ldt: usize,
    trans: bool,
    bw: usize,
    w: &[f64],
    ldw: usize,
    k: usize,
    tt: &mut [f64],
    out: &mut [f64],
) {
    // column l of op(T): rows l..bw of Tᵀ, or rows 0..=l of T
    let (m, ldm) = if trans {
        for (l, col) in tt[..bw * bw].chunks_exact_mut(bw).enumerate() {
            for (i, x) in col.iter_mut().enumerate().skip(l) {
                *x = t[l + ldt * i];
            }
        }
        (&*tt, bw)
    } else {
        (t, ldt)
    };
    for (j, oc) in out[..bw * k].chunks_exact_mut(bw).enumerate() {
        oc.fill(0.0);
        for (l, &x) in w[j * ldw..j * ldw + bw].iter().enumerate() {
            let rows = if trans { l..bw } else { 0..l + 1 };
            let col = &m[l * ldm + rows.start..l * ldm + rows.end];
            for (o, &a) in oc[rows].iter_mut().zip(col) {
                *o += a * x;
            }
        }
    }
}

/// Apply one panel's whole reflector tree to a contiguous column chunk
/// (`k` columns at stride `ldc`, panel rows addressed globally inside
/// each column). The leaves' `V` are read from `vs`, the working matrix,
/// at its own stride `ldv`. `trans = true` is the `Qᵀ`
/// direction (leaves, then combines in reduction order); `trans = false`
/// is `Q` (combines in reverse, then leaves). `zero_tails` promises that
/// `C` is zero in every leaf's rows below its head when the leaves are
/// applied, so their `VᵀC` reads the heads only (see [`vt_c`]).
#[allow(clippy::too_many_arguments)]
fn apply_panel(
    p: &PanelFactor,
    vs: &[f64],
    ldv: usize,
    trans: bool,
    zero_tails: bool,
    c: &mut [f64],
    ldc: usize,
    k: usize,
    s: &mut QrScratch,
) {
    let bw = p.bw;
    s.ensure_apply(bw, k);
    let leaves = |c: &mut [f64], s: &mut QrScratch| {
        for leaf in &p.leaves {
            let v = &vs[p.col0 * ldv + leaf.row0..];
            let rows = (leaf.row0, leaf.row0 + bw);
            apply_wy(
                v, ldv, leaf.rows, bw, &leaf.t, bw, trans, c, ldc, rows, zero_tails, k, &mut s.w,
            );
        }
    };
    let combine = |cb: &Combine, c: &mut [f64], s: &mut QrScratch| {
        let rows = (p.leaves[cb.left].row0, p.leaves[cb.right].row0);
        apply_wy(&cb.v, 2 * bw, 2 * bw, bw, &cb.t, bw, trans, c, ldc, rows, false, k, &mut s.w);
    };
    if trans {
        leaves(c, s);
        for cb in &p.combines {
            combine(cb, c, s);
        }
    } else {
        for cb in p.combines.iter().rev() {
            combine(cb, c, s);
        }
        leaves(c, s);
    }
}

/// Recursively fan `f(item, scratch)` over items, splitting lanes (and
/// the scratch arenas with them) across the joiner.
fn fan_out<T: Send, F>(
    items: &mut [T],
    scratches: &mut [QrScratch],
    lanes: usize,
    join: &dyn Joiner,
    f: &F,
) where
    F: Fn(&mut T, &mut QrScratch) + Sync,
{
    if lanes <= 1 || items.len() <= 1 || scratches.len() <= 1 {
        let s = &mut scratches[0];
        for item in items.iter_mut() {
            f(item, s);
        }
        return;
    }
    let mid = items.len() / 2;
    let (il, ir) = items.split_at_mut(mid);
    let left_lanes = (lanes / 2).max(1);
    let (sl, sr) = scratches.split_at_mut(left_lanes.min(scratches.len() - 1).max(1));
    let mut a = || fan_out(il, sl, left_lanes, join, f);
    let mut b = || fan_out(ir, sr, lanes - left_lanes, join, f);
    join.fork(&mut a, &mut b);
}

/// A column chunk of the working matrix handed to one lane: the columns
/// are contiguous (`cols × ld`).
struct Chunk<'a> {
    cols: &'a mut [f64],
    k: usize,
}

/// Split `region` (whole columns, stride `ld`) into roughly `parts`
/// contiguous chunks.
fn chunk_columns<'a>(region: &'a mut [f64], ld: usize, parts: usize) -> Vec<Chunk<'a>> {
    let total = region.len() / ld.max(1);
    let parts = parts.clamp(1, total.max(1));
    let (base, rem) = (total / parts, total % parts);
    let mut out = Vec::with_capacity(parts);
    let mut rest = region;
    for i in 0..parts {
        let k = base + usize::from(i < rem);
        let (head, tail) = rest.split_at_mut(k * ld);
        out.push(Chunk { cols: head, k });
        rest = tail;
    }
    out
}

impl TsqrQr {
    /// Factor `a = QR` (requires `a.rows() ≥ a.cols()`).
    ///
    /// # Errors
    /// [`MatrixError::ShapeMismatch`] when the input is wide — callers
    /// route `m < n` through the factorization of `Aᵀ`.
    pub fn factor(a: &Matrix, opts: &QrOptions, join: &dyn Joiner) -> Result<TsqrQr, MatrixError> {
        let (m, n) = a.shape();
        Self::factor_with(m, n, |j| a.col(j), opts, join)
    }

    /// Factor `A·P = QR`, where column `k` of `A·P` is column `order[k]`
    /// of `a`: the copy into the working matrix that [`TsqrQr::factor`]
    /// makes anyway takes the columns in `order`, so the permutation costs
    /// no extra pass and no second `m×n` buffer.
    ///
    /// # Errors
    /// As [`TsqrQr::factor`], and [`MatrixError::ShapeMismatch`] when
    /// `order` does not have one entry per column.
    ///
    /// # Panics
    /// Panics if an entry of `order` is not a column index of `a`.
    pub fn factor_permuted(
        a: &Matrix,
        order: &[usize],
        opts: &QrOptions,
        join: &dyn Joiner,
    ) -> Result<TsqrQr, MatrixError> {
        if order.len() != a.cols() {
            return Err(MatrixError::ShapeMismatch { left: a.shape(), right: (order.len(), 1) });
        }
        Self::factor_with(a.rows(), a.cols(), |k| a.col(order[k]), opts, join)
    }

    /// The factorization of the `m × n` matrix whose column `j` is
    /// `col(j)`, copied into the working matrix.
    fn factor_with<'a>(
        m: usize,
        n: usize,
        col: impl Fn(usize) -> &'a [f64],
        opts: &QrOptions,
        join: &dyn Joiner,
    ) -> Result<TsqrQr, MatrixError> {
        if m < n {
            return Err(MatrixError::ShapeMismatch { left: (m, n), right: (n, n) });
        }
        let lanes = opts.lanes.max(1);
        let mut scratches: Vec<QrScratch> = (0..lanes).map(|_| QrScratch::default()).collect();
        let ld = work_ld(m);
        let need = ld * n;
        let spare = SPARE.try_with(Cell::take).unwrap_or_default();
        let mut buf = if (need..=2 * need).contains(&spare.capacity()) {
            spare
        } else {
            drop(spare); // free it before the new buffer is taken
            AlignedBuf::new()
        };
        buf.resize(need);
        let work = buf.as_mut_slice();
        for (j, dst) in work.chunks_exact_mut(ld).enumerate() {
            let (head, pad) = dst.split_at_mut(m);
            head.copy_from_slice(col(j));
            pad.fill(0.0);
        }
        let bw_max = opts.panel.clamp(1, n);
        let mut panels: Vec<PanelFactor> = Vec::with_capacity(n.div_ceil(bw_max));
        let mut stats = QrStats::default();
        let mut warm_alloc = 0u64;

        let mut col0 = 0;
        while col0 < n {
            let bw = bw_max.min(n - col0);
            let prows = m - col0;
            let leaf_h = opts.leaf_height(bw);
            let nl = (prows / leaf_h).clamp(1, (prows / bw).max(1));
            let (hbase, hrem) = (prows / nl, prows % nl);
            let s0 = &mut scratches[0];
            s0.ensure_factor(bw);

            // ---- leaf factorizations, in place in the working matrix ----
            let mut leaves: Vec<Leaf> = Vec::with_capacity(nl);
            let mut row0 = col0;
            for i in 0..nl {
                let rows = hbase + usize::from(i < hrem);
                let mut t = vec![0.0; bw * bw];
                qr_tile(&mut work[col0 * ld + row0..], ld, rows, bw, &mut t, bw, &mut s0.s);
                leaves.push(Leaf { row0, rows, t });
                row0 += rows;
            }

            // ---- combine tree (serial; O(bw³) per node) ----
            let mut combines: Vec<Combine> = Vec::new();
            let mut survivors: Vec<usize> = (0..nl).collect();
            let mut levels = 0usize;
            while survivors.len() > 1 {
                levels += 1;
                let mut next = Vec::with_capacity(survivors.len().div_ceil(2));
                for pair in survivors.chunks(2) {
                    if pair.len() == 1 {
                        next.push(pair[0]);
                        continue;
                    }
                    let (left, right) = (pair[0], pair[1]);
                    let (rl, rr) = (leaves[left].row0, leaves[right].row0);
                    let h = 2 * bw;
                    // stack the two upper-triangular R factors
                    let mut v = vec![0.0; h * bw];
                    for j in 0..bw {
                        let col = &work[(col0 + j) * ld..];
                        v[j * h..j * h + j + 1].copy_from_slice(&col[rl..rl + j + 1]);
                        v[j * h + bw..j * h + bw + j + 1].copy_from_slice(&col[rr..rr + j + 1]);
                    }
                    let mut t = vec![0.0; bw * bw];
                    qr_tile(&mut v, h, h, bw, &mut t, bw, &mut s0.s);
                    // the merged R overwrites the left child's; the V head
                    // below its diagonal stays
                    for j in 0..bw {
                        work[(col0 + j) * ld + rl..][..j + 1]
                            .copy_from_slice(&v[j * h..j * h + j + 1]);
                    }
                    combines.push(Combine { left, right, v, t });
                    next.push(left);
                }
                survivors = next;
            }
            // the root R now sits in leaf 0's top rows: the diagonal block

            let panel = PanelFactor { col0, bw, leaves, combines };

            // ---- trailing update: Qᵀ_panel on columns right of the panel
            //      (parallel over column chunks) ----
            let (done, trailing) = work.split_at_mut((col0 + bw) * ld);
            if !trailing.is_empty() {
                let mut chunks = chunk_columns(trailing, ld, lanes);
                let (pref, vs) = (&panel, &*done);
                fan_out(&mut chunks, &mut scratches, lanes, join, &|chunk, s| {
                    apply_panel(pref, vs, ld, true, false, chunk.cols, ld, chunk.k, s);
                });
            }

            if col0 == 0 {
                stats.leaves = nl;
                stats.levels = levels;
                warm_alloc = scratches.iter().map(|s| s.alloc_events).sum();
            }
            stats.panels += 1;
            panels.push(panel);
            col0 += bw;
        }
        stats.steady_alloc_events =
            scratches.iter().map(|s| s.alloc_events).sum::<u64>() - warm_alloc;

        // R = the upper triangle of the reduced working matrix
        let mut r = Matrix::zeros(n, n)?;
        for j in 0..n {
            r.col_mut(j)[..=j].copy_from_slice(&work[j * ld..j * ld + j + 1]);
        }
        Ok(TsqrQr { m, n, ld, work: buf, panels, r, stats })
    }

    /// Column count of the factored matrix.
    pub fn cols(&self) -> usize {
        self.n
    }

    /// The `n×n` upper-triangular factor `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Factorization counters.
    pub fn stats(&self) -> QrStats {
        self.stats
    }

    /// `X ← Q·X` (or `Qᵀ·X` with `trans`). `zero_below_n` promises that
    /// rows `n..m` of `X` are zero: the first panel `Q` applies is the
    /// last one, whose leaves all start at row `n − bw` or below, so
    /// every leaf's tail is still zero when it is applied.
    fn apply(
        &self,
        x: &mut Matrix,
        trans: bool,
        zero_below_n: bool,
        lanes: usize,
        join: &dyn Joiner,
    ) {
        assert_eq!(x.rows(), self.m, "apply: row count mismatch");
        let k = x.cols();
        let lanes = lanes.max(1);
        let m = self.m;
        let mut scratches: Vec<QrScratch> = (0..lanes).map(|_| QrScratch::default()).collect();
        let mut chunks = chunk_columns(x.as_mut_slice(), m, lanes.min(k));
        let (panels, vs, ldv) = (&self.panels, &self.work, self.ld);
        fan_out(&mut chunks, &mut scratches, lanes, join, &|chunk, s| {
            if trans {
                for p in panels.iter() {
                    apply_panel(p, vs, ldv, true, false, chunk.cols, m, chunk.k, s);
                }
            } else {
                for (i, p) in panels.iter().rev().enumerate() {
                    let zero_tails = zero_below_n && i == 0;
                    apply_panel(p, vs, ldv, false, zero_tails, chunk.cols, m, chunk.k, s);
                }
            }
        });
    }

    /// `X ← Q·X` for an `m×k` matrix, tile by tile (never forming `Q`).
    pub fn apply_q(&self, x: &mut Matrix, lanes: usize, join: &dyn Joiner) {
        self.apply(x, false, false, lanes, join);
    }

    /// `X ← Qᵀ·X` for an `m×k` matrix.
    pub fn apply_qt(&self, x: &mut Matrix, lanes: usize, join: &dyn Joiner) {
        self.apply(x, true, false, lanes, join);
    }

    /// `Q·[head; 0]` for an `n×k` `head`: the back-transform of the
    /// tall-skinny SVD pipeline. Bitwise equal to [`TsqrQr::apply_q`] on
    /// the zero-padded `m×k` matrix, but the first panel applied reads
    /// only the rows that are not yet zero, which skips about a quarter
    /// of the flops at two panels, and writes its leaves' other rows
    /// without reading them; at one panel that is every row but the
    /// heads.
    ///
    /// # Panics
    /// Panics if `head` does not have `n` rows.
    pub fn q_times(&self, head: &Matrix, lanes: usize, join: &dyn Joiner) -> Matrix {
        assert_eq!(head.rows(), self.n, "q_times: head must have n rows");
        let mut x = Matrix::zeros(self.m, head.cols()).expect("nonzero dims");
        for j in 0..head.cols() {
            x.col_mut(j)[..self.n].copy_from_slice(head.col(j));
        }
        self.apply(&mut x, false, true, lanes, join);
        x
    }

    /// Materialize the thin `Q` (`m×n`): [`TsqrQr::q_times`] of `Iₙ`.
    /// For verification; the drivers never call this.
    pub fn thin_q(&self, join: &dyn Joiner) -> Matrix {
        self.q_times(&Matrix::identity(self.n, self.n).expect("nonzero dims"), 1, join)
    }
}

impl Drop for TsqrQr {
    /// Leave the working matrix in this thread's spare slot for the next
    /// [`TsqrQr::factor`], freeing what the slot held before.
    fn drop(&mut self) {
        let work = std::mem::take(&mut self.work);
        // a thread being torn down has no slot left: the buffer is freed
        let _ = SPARE.try_with(|s| s.set(work));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{checks, generate};

    /// `2^e`, exactly, for `−1074 ≤ e ≤ 1023`. `powi` is exact only when
    /// the compiler folds it: at run time `2f64.powi(-1060)` takes the
    /// reciprocal of an overflowed `2^1060` and returns 0.
    fn pow2(e: i32) -> f64 {
        assert!((-1074..=1023).contains(&e));
        match u32::try_from(e + 1022) {
            Ok(biased) => f64::from_bits(u64::from(biased + 1) << 52),
            Err(_) => f64::from_bits(1 << (e + 1074)),
        }
    }

    fn factor_opts(panel: usize, leaf_rows: usize) -> QrOptions {
        QrOptions { panel, leaf_rows, lanes: 1 }
    }

    fn assert_qr(a: &Matrix, qr: &TsqrQr, tol: f64) {
        let q = qr.thin_q(&SerialJoin);
        assert!(checks::orthogonality_residual(&q) < tol, "QᵀQ ≠ I");
        let recon = q.matmul(qr.r()).unwrap();
        let diff = a.sub(&recon).unwrap().frobenius_norm() / a.frobenius_norm().max(1.0);
        assert!(diff < tol, "A ≠ QR: rel {diff:.3e}");
        // R upper triangular by construction
        for j in 0..qr.cols() {
            for i in (j + 1)..qr.cols() {
                assert_eq!(qr.r().get(i, j), 0.0, "R({i},{j}) not zero");
            }
        }
    }

    #[test]
    fn single_tile_qr_reconstructs() {
        let a = generate::random_uniform(48, 12, 7);
        let qr = TsqrQr::factor(&a, &factor_opts(6, 1 << 20), &SerialJoin).unwrap();
        assert_eq!(qr.stats().leaves, 1);
        assert_qr(&a, &qr, 1e-12);
    }

    #[test]
    fn tsqr_tree_reconstructs_and_matches_flat() {
        let a = generate::random_uniform(256, 24, 8);
        // small leaves force a multi-level tree
        let tree = TsqrQr::factor(&a, &factor_opts(8, 32), &SerialJoin).unwrap();
        assert!(tree.stats().leaves >= 4, "leaves {}", tree.stats().leaves);
        assert!(tree.stats().levels >= 2, "levels {}", tree.stats().levels);
        assert_qr(&a, &tree, 1e-12);
        let flat = TsqrQr::factor(&a, &factor_opts(8, 1 << 20), &SerialJoin).unwrap();
        assert_qr(&a, &flat, 1e-12);
        // R is unique up to row signs for a full-rank A
        for j in 0..24 {
            for i in 0..=j {
                let (x, y) = (tree.r().get(i, j), flat.r().get(i, j));
                assert!(
                    (x.abs() - y.abs()).abs() < 1e-10 * a.frobenius_norm(),
                    "|R({i},{j})| differs: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn square_input_and_odd_panel_edges() {
        for (m, n, panel) in [(16, 16, 5), (17, 13, 4), (40, 1, 32), (9, 8, 8)] {
            let a = generate::random_uniform(m, n, (m + n) as u64);
            let qr = TsqrQr::factor(&a, &factor_opts(panel, 0), &SerialJoin).unwrap();
            assert_qr(&a, &qr, 1e-12);
        }
        // the recursion splits w into ⌊w/2⌋ + ⌈w/2⌉, so these widths put odd
        // splits at every depth; the small leaves add combines of each width
        for panel in [1, 2, 3, 5, 17, 32, 64] {
            for (m, n, leaf_rows) in [(70, 70, 0), (131, 67, 0), (131, 67, 2 * panel), (70, 33, 0)]
            {
                let a = generate::random_uniform(m, n, (m * n + panel) as u64);
                let qr = TsqrQr::factor(&a, &factor_opts(panel, leaf_rows), &SerialJoin).unwrap();
                assert_qr(&a, &qr, 1e-12);
            }
        }
    }

    #[test]
    fn rank_deficient_panel_takes_tau_zero_path() {
        let mut a = generate::random_uniform(64, 10, 9);
        for j in [2usize, 7] {
            a.col_mut(j).fill(0.0);
        }
        let qr = TsqrQr::factor(&a, &factor_opts(4, 16), &SerialJoin).unwrap();
        assert_qr(&a, &qr, 1e-12);

        // a panel of 32 splits into halves 0..16 and 16..32: zero columns in
        // both, and one column each scaled by 2^−500 and 2^+500
        let mut a = generate::random_uniform(160, 40, 10);
        for j in [3usize, 21] {
            a.col_mut(j).fill(0.0);
        }
        ops::scal(2f64.powi(-500), a.col_mut(9));
        ops::scal(2f64.powi(500), a.col_mut(27));
        for leaf_rows in [0, 64] {
            let qr = TsqrQr::factor(&a, &factor_opts(32, leaf_rows), &SerialJoin).unwrap();
            let q = qr.thin_q(&SerialJoin);
            assert!(checks::orthogonality_residual(&q) < 1e-12, "QᵀQ ≠ I");
            // Q is orthogonal, so every column of R has its column's norm,
            // and Q·R rebuilds each column to its own relative accuracy
            for j in 0..40 {
                let (aj, rj) = (ops::norm2(a.col(j)), ops::norm2(qr.r().col(j)));
                let mut back = vec![0.0; 160];
                for (l, &rlj) in qr.r().col(j).iter().enumerate() {
                    ops::axpy(rlj, q.col(l), &mut back);
                }
                ops::axpy(-1.0, a.col(j), &mut back);
                if aj == 0.0 {
                    assert_eq!(rj, 0.0, "zero column {j} left R({j}) nonzero");
                    assert_eq!(ops::norm2(&back), 0.0, "zero column {j} rebuilt nonzero");
                } else {
                    assert!((rj - aj).abs() <= 1e-13 * aj, "‖R(:,{j})‖ {rj:e} vs ‖a_j‖ {aj:e}");
                    let err = ops::norm2(&back) / aj;
                    assert!(err <= 1e-13, "column {j} rebuilt to rel {err:.2e}");
                }
            }
        }
    }

    #[test]
    fn subnormal_columns_keep_q_orthogonal() {
        // entries near 1e-319 and 1e-322 carry 14 and 4 significant bits:
        // a reflector formed at that scale is orthogonal to about 1e-5,
        // and past 2^-1024 its 1/(α − β) overflows and Q turns to NaN
        let mut a = generate::random_uniform(160, 40, 12);
        ops::scal(pow2(-1060), a.col_mut(9));
        ops::scal(pow2(-1070), a.col_mut(33));
        for leaf_rows in [0, 64] {
            let qr = TsqrQr::factor(&a, &factor_opts(32, leaf_rows), &SerialJoin).unwrap();
            let q = qr.thin_q(&SerialJoin);
            // the norms below skip NaN entries, so look for them first
            let finite = |m: &Matrix| m.as_slice().iter().all(|x| x.is_finite());
            assert!(finite(&q) && finite(qr.r()), "leaf rows {leaf_rows}: NaN in Q or R");
            let orth = checks::orthogonality_residual(&q);
            assert!(orth < 1e-12, "leaf rows {leaf_rows}: QᵀQ − I {orth:.1e}");
            let back = q.matmul(qr.r()).unwrap().sub(&a).unwrap().frobenius_norm();
            assert!(back <= 1e-13 * a.frobenius_norm(), "leaf rows {leaf_rows}: QR − A {back:.1e}");
        }
    }

    #[test]
    fn apply_roundtrip_is_identity() {
        let a = generate::random_uniform(128, 16, 10);
        let qr = TsqrQr::factor(&a, &factor_opts(8, 32), &SerialJoin).unwrap();
        let x0 = generate::random_uniform(128, 5, 11);
        let mut x = x0.clone();
        qr.apply_qt(&mut x, 1, &SerialJoin);
        qr.apply_q(&mut x, 1, &SerialJoin);
        let diff = x.sub(&x0).unwrap().frobenius_norm() / x0.frobenius_norm();
        assert!(diff < 1e-13, "Q·Qᵀ·x ≠ x: rel {diff:.3e}");
    }

    #[test]
    fn qt_a_equals_r_on_top() {
        let a = generate::random_uniform(96, 12, 12);
        let qr = TsqrQr::factor(&a, &factor_opts(6, 24), &SerialJoin).unwrap();
        let mut x = a.clone();
        qr.apply_qt(&mut x, 1, &SerialJoin);
        // top n×n of QᵀA matches R up to rounding; the rest is ~0
        for j in 0..12 {
            for i in 0..96 {
                let want = if i < 12 { qr.r().get(i, j) } else { 0.0 };
                assert!(
                    (x.get(i, j) - want).abs() < 1e-11 * a.frobenius_norm(),
                    "QᵀA({i},{j}) = {} vs {want}",
                    x.get(i, j)
                );
            }
        }
    }

    #[test]
    fn q_times_matches_apply_q_bitwise() {
        // (m, n, panel, leaf_rows, lanes, leaves of the last panel when
        // leaf_rows sets them): a four-leaf last panel, two lanes over 128
        // columns, odd panels and leaves, the square and one-row-taller
        // edges where the last panel has a single leaf, and one panel of
        // every column, as the front-end factors a tall-skinny input, at
        // the default leaves and at three and five, where the combines
        // fill the heads below the first before the tails are written
        let cases = [
            (20000, 96, 32, 4096, 1, 4),
            (16384, 128, 32, 0, 2, 0),
            (3000, 70, 17, 200, 2, 0),
            (131, 67, 5, 0, 1, 0),
            (64, 64, 32, 0, 1, 0),
            (65, 64, 32, 0, 1, 0),
            (8192, 64, 64, 0, 2, 0),
            (2000, 48, 48, 600, 1, 3),
            (2500, 33, 33, 500, 2, 5),
        ];
        for (m, n, panel, leaf_rows, lanes, leaves) in cases {
            let a = generate::random_uniform(m, n, (m + n) as u64);
            let qr =
                TsqrQr::factor(&a, &QrOptions { panel, leaf_rows, lanes }, &SerialJoin).unwrap();
            if leaves > 0 {
                let last = qr.panels.last().unwrap();
                assert_eq!(last.leaves.len(), leaves, "{m}x{n}: leaves of the last panel");
            }
            assert_eq!(qr.panels.len(), n.div_ceil(panel), "{m}x{n} panel {panel}");
            let mut head = generate::random_uniform(n, n, (m * n) as u64);
            // a zero column of −0.0, and −0.0 on the diagonal
            head.col_mut(1).fill(-0.0);
            for i in (0..n).step_by(3) {
                head.set(i, i, -0.0);
            }
            let mut padded = Matrix::zeros(m, n).unwrap();
            for j in 0..n {
                padded.col_mut(j)[..n].copy_from_slice(head.col(j));
            }
            qr.apply_q(&mut padded, lanes, &SerialJoin);
            let got = qr.q_times(&head, lanes, &SerialJoin);
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&padded), "{m}x{n} panel {panel}: q_times ≠ apply_q");
        }
    }

    #[test]
    fn working_matrix_is_reused_within_twice_the_need() {
        let big = generate::random_uniform(400, 20, 16);
        let qr = TsqrQr::factor(&big, &QrOptions::default(), &SerialJoin).unwrap();
        let ptr = qr.work.as_ptr();
        drop(qr);
        // same shape, and half the rows: the spare fits both
        for m in [400, 200] {
            let a = generate::random_uniform(m, 20, 17);
            let qr = TsqrQr::factor(&a, &QrOptions::default(), &SerialJoin).unwrap();
            assert_eq!(qr.work.as_ptr(), ptr, "{m}x20 must reuse the spare");
            assert_qr(&a, &qr, 1e-12);
        }
        // a quarter of the rows: the spare is more than twice the need
        let small = generate::random_uniform(100, 20, 18);
        let qr = TsqrQr::factor(&small, &QrOptions::default(), &SerialJoin).unwrap();
        assert!(qr.work.capacity() <= 2 * 100 * 20, "capacity {}", qr.work.capacity());
        assert_qr(&small, &qr, 1e-12);
    }

    #[test]
    fn permuted_factor_is_the_factor_of_the_permuted_copy() {
        let a = generate::random_uniform(300, 40, 19);
        let order: Vec<usize> = (0..40).map(|k| (k * 7 + 3) % 40).collect();
        let mut ap = Matrix::zeros(300, 40).unwrap();
        for (k, &j) in order.iter().enumerate() {
            ap.col_mut(k).copy_from_slice(a.col(j));
        }
        let opts = factor_opts(16, 64);
        let want = TsqrQr::factor(&ap, &opts, &SerialJoin).unwrap();
        let got = TsqrQr::factor_permuted(&a, &order, &opts, &SerialJoin).unwrap();
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(got.r()) == bits(want.r()), "R differs");
        assert!(bits(&got.thin_q(&SerialJoin)) == bits(&want.thin_q(&SerialJoin)), "Q differs");
        assert!(TsqrQr::factor_permuted(&a, &order[1..], &opts, &SerialJoin).is_err());
    }

    #[test]
    fn factor_rejects_wide_input() {
        let a = generate::random_uniform(4, 9, 13);
        assert!(TsqrQr::factor(&a, &QrOptions::default(), &SerialJoin).is_err());
    }

    #[test]
    fn steady_state_is_allocation_free() {
        // many panels after the first: the per-lane arenas must not grow
        let a = generate::random_uniform(200, 48, 14);
        let qr = TsqrQr::factor(&a, &factor_opts(8, 50), &SerialJoin).unwrap();
        assert!(qr.stats().panels >= 6);
        assert_eq!(qr.stats().steady_alloc_events, 0);
        // the recursion's scratch grows with the panel width: a panel of 32
        // with a narrower last panel, a multi-leaf tree, and two lanes
        let a = generate::random_uniform(600, 80, 15);
        for lanes in [1, 2] {
            let opts = QrOptions { panel: 32, leaf_rows: 96, lanes };
            let qr = TsqrQr::factor(&a, &opts, &SerialJoin).unwrap();
            assert_eq!(qr.stats().panels, 3);
            assert!(qr.stats().leaves >= 4, "leaves {}", qr.stats().leaves);
            assert_eq!(qr.stats().steady_alloc_events, 0);
        }
    }

    /// The recursion [`qr_base`] replaced below [`BASE`] columns: down to
    /// one column, then one [`house_col`] reflector. The reference the base
    /// case is compared against.
    fn qr_tile_reference(
        a: &mut [f64],
        ld: usize,
        h: usize,
        w: usize,
        t: &mut [f64],
        ldt: usize,
        s: &mut [f64],
    ) {
        if w == 1 {
            t[0] = house_col(&mut a[..h]);
            return;
        }
        let (w1, w2) = (w / 2, w - w / 2);
        qr_tile_reference(a, ld, h, w1, t, ldt, s);
        let (v1, a2) = a.split_at_mut(w1 * ld);
        apply_wy(v1, ld, h, w1, t, ldt, true, a2, ld, (0, w1), false, w2, s);
        let (a2, t2) = (&mut a[w1 * ld + w1..], &mut t[w1 * ldt + w1..]);
        qr_tile_reference(a2, ld, h - w1, w2, t2, ldt, s);
        let (x, vh) = s.split_at_mut(w2 * w1);
        vt_c(&a[w1 * ld + w1..], ld, h - w1, w2, a, ld, (w1, w), false, w1, x, vh);
        for c in 0..w2 {
            let t2c = w1 + ldt * (w1 + c);
            for i in 0..w1 {
                t[i + ldt * (w1 + c)] = ops::dot(&x[w2 * i..w2 * i + c + 1], &t[t2c..t2c + c + 1]);
            }
            for i in 0..w1 {
                let acc: f64 = (i..w1).map(|l| t[i + ldt * l] * t[l + ldt * (w1 + c)]).sum();
                t[i + ldt * (w1 + c)] = -acc;
            }
        }
    }

    /// The triangular multiply [`tri_mul`] replaced: `W ← op(T)·W` in
    /// place, one dependent add chain per output. The reference it is
    /// compared against.
    fn tri_mul_reference(t: &[f64], ldt: usize, trans: bool, bw: usize, w: &mut [f64]) {
        for col in w.chunks_exact_mut(bw) {
            if trans {
                // W ← Tᵀ·W: row i needs rows ≤ i, so descend
                for i in (0..bw).rev() {
                    let mut acc = 0.0;
                    for l in 0..=i {
                        acc += t[l + ldt * i] * col[l];
                    }
                    col[i] = acc;
                }
            } else {
                // W ← T·W: row i needs rows ≥ i, so ascend
                for i in 0..bw {
                    let mut acc = 0.0;
                    for l in i..bw {
                        acc += t[i + ldt * l] * col[l];
                    }
                    col[i] = acc;
                }
            }
        }
    }

    #[test]
    fn triangular_multiply_keeps_the_dot_products_bits() {
        // entries spread over 2^±20, so a changed summation order shows in
        // the last bits; NaN below T's diagonal, which must never be read;
        // both at strides past the width, and W with a column of −0.0 and
        // −0.0 entries, whose sums must start from +0
        let spread = |x: &mut [f64], ld: usize| {
            for (idx, v) in x.iter_mut().enumerate() {
                *v *= pow2(((idx % ld) * 7 + (idx / ld) * 13) as i32 % 41 - 20);
            }
        };
        for bw in [1usize, 3, 17, 32, 64, 96] {
            let (ldt, ldw, k) = (bw + 3, bw + 5, 6);
            let mut t = generate::random_uniform(ldt, bw, bw as u64).as_slice().to_vec();
            spread(&mut t, ldt);
            for j in 0..bw {
                t[j * ldt + j + 1..(j + 1) * ldt].fill(f64::NAN);
            }
            let mut w = generate::random_uniform(ldw, k, 100 + bw as u64).as_slice().to_vec();
            spread(&mut w, ldw);
            w[ldw..2 * ldw].fill(-0.0);
            for i in (0..w.len()).step_by(5) {
                w[i] = -0.0;
            }
            for trans in [false, true] {
                let mut want: Vec<f64> =
                    (0..k).flat_map(|j| w[j * ldw..j * ldw + bw].to_vec()).collect();
                tri_mul_reference(&t, ldt, trans, bw, &mut want);
                let (mut tt, mut got) = (vec![0.0; bw * bw], vec![0.0; bw * k]);
                tri_mul(&t, ldt, trans, bw, &w, ldw, k, &mut tt, &mut got);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert!(bits(&got) == bits(&want), "bw {bw} trans {trans}: bits differ");
            }
        }
    }

    #[test]
    fn base_case_matches_the_recursion_it_replaces() {
        // blocks of 1..=BASE columns (the base case alone) and wider ones
        // (the recursion ending in it), at a stride past the block height
        let (h, ld) = (67, 72);
        let scaled = |w: usize, seed: u64, scales: &[(usize, f64)]| {
            let mut a = generate::random_uniform(ld, w, seed).as_slice().to_vec();
            for &(j, f) in scales {
                ops::scal(f, &mut a[j * ld..(j + 1) * ld]);
            }
            a
        };
        let mut cases: Vec<(String, usize, Vec<f64>)> = Vec::new();
        for w in 1..=11 {
            cases.push((format!("random w {w}"), w, scaled(w, w as u64, &[])));
            // graded columns, 2^−100 apart: from the fourth on they leave
            // the safe range of the unscaled sums, and so does every step
            // that sums against them
            let grades: Vec<_> = (0..w).map(|j| (j, pow2(-100 * j as i32))).collect();
            cases.push((format!("graded w {w}"), w, scaled(w, 50 + w as u64, &grades)));
        }
        for w in [2, 4, 7] {
            // τ = 0: a first column with a zero tail, and a zero column
            let mut a = scaled(w, 20 + w as u64, &[]);
            a[1..ld].fill(0.0);
            a[(w - 1) * ld..w * ld].fill(0.0);
            cases.push((format!("tau 0 w {w}"), w, a));
            let big = [(0, 2f64.powi(500)), (w - 1, 2f64.powi(-500))];
            cases.push((format!("2^±500 w {w}"), w, scaled(w, 30 + w as u64, &big)));
            // last, since a reflector formed from 14-bit entries is only
            // that exact, and every later column would carry its error
            let tiny = [(w - 1, pow2(-1060))];
            cases.push((format!("subnormal w {w}"), w, scaled(w, 40 + w as u64, &tiny)));
        }
        for (case, w, a0) in cases {
            let norms: Vec<f64> = (0..w).map(|j| ops::norm2(&a0[j * ld..j * ld + h])).collect();
            let mut s = vec![0.0; w * w];
            let (mut got, mut want) = (a0.clone(), a0.clone());
            let (mut t_got, mut t_want) = (vec![0.0; w * w], vec![0.0; w * w]);
            qr_tile(&mut got, ld, h, w, &mut t_got, w, &mut s);
            qr_tile_reference(&mut want, ld, h, w, &mut t_want, w, &mut s);
            for j in 0..w {
                // R to its column's scale, V and T (of order one) to 1e-12;
                // a subnormal column carries rounding of 2^−1074 per
                // operation, its reflector that over its norm
                let floor = pow2(-1074) * (16 * h) as f64;
                let (r_tol, v_tol) = (1e-13 * norms[j] + floor, 1e-12 + floor / norms[j]);
                for i in 0..h {
                    let (x, y) = (got[j * ld + i], want[j * ld + i]);
                    let tol = if i <= j { r_tol } else { v_tol };
                    assert!((x - y).abs() <= tol, "{case}: ({i},{j}) {x:e} vs {y:e}");
                }
                for i in 0..w {
                    let (x, y) = (t_got[i + w * j], t_want[i + w * j]);
                    assert!((x - y).abs() <= v_tol, "{case}: T({i},{j}) {x:e} vs {y:e}");
                }
                // an exactly zero tail keeps τ = 0 exactly
                if want[j * ld + j + 1..j * ld + h].iter().all(|&x| x == 0.0) {
                    assert_eq!(t_got[j + w * j], 0.0, "{case}: τ_{j}");
                }
            }
        }
    }

    #[test]
    fn padded_and_unpadded_heights_keep_the_factor_exact() {
        // 4096 and 8192 rows fill whole 4 KiB pages per column, so the
        // working matrix is padded; 4095 rows are rounded up to 4096 and
        // padded too, and 8200 rows need neither
        for (m, ld) in [(4096, 4104), (8192, 8200), (4095, 4104), (8200, 8200)] {
            assert_eq!(work_ld(m), ld, "{m} rows");
            assert!(!(ld * 8).is_multiple_of(4096), "{m} rows: stride on a page");
            let a = generate::random_uniform(m, 40, m as u64);
            let opts = QrOptions { panel: 16, leaf_rows: 0, lanes: 1 };
            let qr = TsqrQr::factor(&a, &opts, &SerialJoin).unwrap();
            assert_eq!(qr.ld, ld);
            assert_eq!(qr.work.as_ptr() as usize % 64, 0, "{m} rows: unaligned");
            assert_eq!(qr.stats().steady_alloc_events, 0, "{m} rows");
            assert_qr(&a, &qr, 1e-12);
            let head = generate::random_uniform(40, 40, m as u64 + 1);
            let mut padded = Matrix::zeros(m, 40).unwrap();
            for j in 0..40 {
                padded.col_mut(j)[..40].copy_from_slice(head.col(j));
            }
            qr.apply_q(&mut padded, 1, &SerialJoin);
            let got = qr.q_times(&head, 1, &SerialJoin);
            let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(bits(&got) == bits(&padded), "{m} rows: q_times ≠ apply_q");
            // the working matrix goes back to the spare and serves again
            let ptr = qr.work.as_ptr();
            drop(qr);
            let again = TsqrQr::factor(&a, &opts, &SerialJoin).unwrap();
            assert_eq!(again.work.as_ptr(), ptr, "{m} rows: spare not reused");
        }
    }

    #[test]
    fn leaf_height_caps_before_it_floors() {
        // wider than 8192 columns, two panels' worth exceeds the 16384 cap:
        // the floor wins instead of a min > max clamp panic
        assert_eq!(QrOptions::default().leaf_height(9000), 18000);
        let h = QrOptions::default().leaf_height(32);
        assert!((64..=16384).contains(&h), "leaf height {h}");
        // past 32 columns the leaves stop shrinking
        for bw in [33, 64, 128] {
            assert_eq!(QrOptions::default().leaf_height(bw), h.max(2 * bw), "{bw} columns");
        }
        assert_eq!(QrOptions { leaf_rows: 10, ..QrOptions::default() }.leaf_height(32), 32);
    }
}
