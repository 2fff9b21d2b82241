//! Blocked execution for undersized machines (Schreiber \[14\]).
//!
//! The paper's orderings assume one column pair per processor, i.e.
//! `P = n/2`. Real machines are *undersized*: the ANU CM-5 had 32 nodes
//! but problems have hundreds of columns. Schreiber's partitioning — which
//! §5 builds its block ring ordering on — fixes this by letting every slot
//! hold a *block* of `c` columns: the same sweep schedules then move
//! blocks instead of single columns, and a "rotation" of a resident pair
//! becomes a full orthogonalization pass over the two blocks' columns.
//!
//! When the blocks `(X, Y)` of a super-pair meet, one cyclic pass
//! orthogonalizes every column pair of `X ∪ Y` with the sorted-storage
//! rule, so at convergence the norms are globally ordered exactly as in
//! the unblocked case (the block ordering meets every block pair, and
//! within a meeting the columns are fully sorted — an odd-even-merge
//! argument at block granularity). Termination is unchanged: a full sweep
//! with no rotation and no interchange anywhere.
//!
//! # Meeting kernels
//!
//! Two interchangeable kernels implement the meeting
//! ([`BlockKernel`]): the **pairwise** oracle streams the full `m`-length
//! columns through [`orthogonalize_pair`] O(c²) times, while the default
//! **Gram** kernel is block one-sided Jacobi (Bečka–Okša–Vajteršic): it
//! forms the `2c×2c` Gram matrix `G = [X Y]ᵀ[X Y]` once
//! ([`ops::gram_block`], a symmetric product on the register tiles of
//! [`ops::gemm_tn`]), runs the same cyclic pass with sorted storage on
//! `G`'s lower triangle *in cache* — identical rotation and interchange
//! decisions, since `compute_rotation` only ever consumes the Gram
//! entries — while accumulating the `2c×2c` orthogonal update `W`, and
//! finally writes `[X Y]·W` (and the `V` panel's product) out of place
//! ([`ops::panel_update_into`]). The panel is read O(1) times per meeting
//! instead of O(c), which is what turns the dominant cost into
//! BLAS-3-shaped work. Convergence is preserved because the meeting still
//! fully orthogonalizes and sorts `X ∪ Y`: `G` is rebuilt from the actual
//! columns at every meeting, so thresholds see no accumulated drift, and
//! the termination rule (a full block sweep with no rotation and no
//! interchange) is evaluated on the same quantities as the pairwise path.
//!
//! # The out-of-place update
//!
//! Each leaf keeps one union of spare panels: two `A` panels of `c·m`
//! values and two `V` panels of `c·n_pad` (none when vectors are off),
//! each on a 64-byte line. A flat meeting writes `[X Y]·W` into them
//! with write-only register tiles: every output tile of 16 rows × up to 8
//! columns starts at `+0` in registers, takes `X`'s columns and then
//! `Y`'s as fused multiply-adds in ascending order and is stored once,
//! so the union is read once per band and nothing is snapshotted or
//! zeroed. The meeting then trades each slot that has a moved column for
//! its spare, the pointer hand-over block movement already uses; a panel
//! none of whose columns `W` moves keeps its buffer. The bits are those of
//! the in-place [`ops::panel_update`] (band snapshot, same tiles), which
//! the hierarchical sub-meetings still run, since a sub-block is a range
//! of a slot's buffer and cannot be traded. On the `blocked` benchmark
//! shape (512×128, planted κ = 10⁴, `P = 4`, vectors on, one thread, 13
//! sweeps of 28 meetings) a solve's updates took 4.6–4.8 ms of
//! 12.0–12.5 ms, against 7.3–7.7 ms of 14.9–15.6 ms with the in-place
//! update, while the Gram builds (3.2–3.4 ms) and the lane passes
//! (3.9–4.2 ms) did not move (best of 60 solves in alternating runs of
//! each build; a timing probe, not in the repository).
//!
//! Meetings of distinct processors touch disjoint blocks, so each step
//! fans the `P` meetings out over the persistent worker pool
//! ([`treesvd_sim::par`]) with one scratch arena per leaf; after the first
//! sweep the driver performs no allocation (block movement and the
//! meetings' panel trades swap pre-allocated buffers, and the
//! Gram/`W`/spare scratches are reused).
//!
//! Within a leaf the step's meetings also run side by side, as the
//! paper's machine runs them: a leaf builds each meeting's `G`, then runs
//! the in-cache passes of up to [`LANES`] meetings in SIMD lockstep, one
//! lane per meeting ([`GramLanes`]), then writes each meeting's update. A
//! lane computes exactly what a one-meeting pass computes, decision for
//! decision and bit for bit, so σ, U, V, the sweep count and the rotation
//! count do not depend on how the meetings are grouped into leaves and
//! lanes (nor on the SIMD tier of the pass). A single processor's meeting
//! and the sub-meetings of a hierarchical meeting run on one lane.

use crate::options::{BlockKernel, HierBlocking, SvdError, SvdOptions};
use crate::plan::sweep_plan;
use crate::result::{extract_svd, Svd};
use crate::screen::screened;
use treesvd_matrix::aligned::AlignedBuf;
use treesvd_matrix::ops;
use treesvd_matrix::rotation::{apply_rotation, apply_rotation_swapped, orthogonalize_pair};
use treesvd_matrix::soa::{GramLanes, PassCounts, LANES};
use treesvd_matrix::Matrix;
use treesvd_sim::par;

/// Options for the blocked driver: the machine size plus the usual knobs.
#[derive(Debug)]
pub struct BlockedOptions {
    /// Number of physical processors `P`; the columns are distributed over
    /// `2P` block slots.
    pub processors: usize,
    /// Everything else (ordering, threshold, sweep cap, sorting, vectors,
    /// meeting kernel, thread budget).
    pub svd: SvdOptions,
}

impl BlockedOptions {
    /// Default options for a `P`-processor machine.
    pub fn for_processors(processors: usize) -> Self {
        Self { processors, svd: SvdOptions::default() }
    }
}

/// Result of a blocked run.
#[derive(Debug)]
pub struct BlockedRun {
    /// The decomposition of the (unpadded) input.
    pub svd: Svd,
    /// Sweeps of the block-level ordering performed.
    pub sweeps: usize,
    /// Columns per block slot (after padding).
    pub block_size: usize,
    /// Total column rotations applied.
    pub total_rotations: usize,
    /// Scratch allocation events after the first sweep (warm-up). Zero in
    /// steady state: every meeting reuses its lane's Gram/`W`/tile arena
    /// and block movement swaps pre-allocated buffers. When the QR
    /// front-end engaged, the factorization's own steady-state counter
    /// ([`treesvd_matrix::qr::QrStats::steady_alloc_events`]) is folded
    /// in, so this stays the single zero-alloc gate for the whole
    /// pipeline.
    pub steady_alloc_events: u64,
    /// Whether the tall-skinny QR front-end engaged (the sweeps ran on
    /// the `n×n` matrix `R₂ᵀ`; see [`SvdOptions::qr_frontend`]).
    pub qr_frontend: bool,
}

/// One block slot: `c` columns of `A` (and optionally of the accumulated
/// `V`) stored contiguously column-major, in label order, each panel
/// starting on a 64-byte line.
#[derive(Debug, Clone, Default)]
struct BlockSlot {
    /// `c` columns × `m` rows.
    a: AlignedBuf,
    /// `c` columns × `n_pad` rows; empty when vectors are off.
    v: AlignedBuf,
}

/// Per-leaf scratch for the Gram meetings: one meeting's `2c×2c` Gram
/// matrix as [`ops::gram_block`] writes it, the interleaved lane pass, one
/// meeting's update `W` as the panel update reads it, the spare panels a
/// flat meeting writes `[X Y]·W` into (one union of `A` and `V` panels,
/// each on a 64-byte line, traded with the meeting's slots), and the
/// band snapshot of the in-place update the hierarchical sub-meetings run
/// (on a line, as the panels it copies are). Reused across meetings;
/// `alloc_events` counts buffer growth (zero after warm-up).
#[derive(Debug, Default)]
struct MeetingScratch {
    g: Vec<f64>,
    lanes: GramLanes,
    w: Vec<f64>,
    spare: [BlockSlot; 2],
    tile: AlignedBuf,
    alloc_events: u64,
}

impl MeetingScratch {
    fn grow(buf: &mut Vec<f64>, len: usize, events: &mut u64) {
        if buf.capacity() < len {
            *events += 1;
        }
        buf.resize(len, 0.0);
    }

    /// Size everything for `meetings` unions of `k` columns: with
    /// `panels`, the spare panels of a flat meeting for slots of that many
    /// (`A`, `V`) values; without, the sub-meetings' band snapshot.
    fn ensure(&mut self, k: usize, meetings: usize, panels: Option<(usize, usize)>) {
        Self::grow(&mut self.g, k * k, &mut self.alloc_events);
        Self::grow(&mut self.w, k * k, &mut self.alloc_events);
        self.alloc_events += self.lanes.reset(k, meetings);
        self.alloc_events += match panels {
            Some((a, v)) => self
                .spare
                .iter_mut()
                .map(|s| u64::from(s.a.resize(a)) + u64::from(s.v.resize(v)))
                .sum(),
            None => u64::from(self.tile.resize(k * ops::PANEL_TILE)),
        };
    }

    /// Build the Gram matrix of the union `[X Y]` (`m`-row columns) into
    /// lane `lane`.
    fn load(&mut self, lane: usize, xa: &[f64], ya: &[f64], m: usize) {
        ops::gram_block(xa, ya, m, &mut self.g);
        self.lanes.load(lane, &self.g);
    }

    /// Lane `lane`'s `W` into `self.w`, if the lane rotated or swapped.
    fn take_w(&mut self, lane: usize, counts: PassCounts) -> bool {
        let moved = counts.rotations > 0 || counts.swaps > 0;
        if moved {
            self.lanes.w_into(lane, &mut self.w);
        }
        moved
    }

    /// After the pass of a flat meeting: write lane `lane`'s `W` applied to
    /// the slots' `A` and `V` panels into the spare panels, then trade
    /// each slot that has a moved column for its spare (a pointer swap).
    fn apply_into(
        &mut self,
        lane: usize,
        counts: PassCounts,
        (lo, hi): (&mut BlockSlot, &mut BlockSlot),
        ctx: &MeetCtx,
    ) {
        if !self.take_w(lane, counts) {
            return;
        }
        let [sx, sy] = &mut self.spare;
        let written = ops::panel_update_into(&lo.a, &hi.a, ctx.m, &self.w, &mut sx.a, &mut sy.a);
        if ctx.v_len > 0 {
            ops::panel_update_into(&lo.v, &hi.v, ctx.v_len, &self.w, &mut sx.v, &mut sy.v);
        }
        // `W` moves the same columns of `V` as of `A`
        for (slot, spare, written) in [(lo, sx, written[0]), (hi, sy, written[1])] {
            if written {
                std::mem::swap(slot, spare);
            }
        }
    }

    /// After the pass of a sub-meeting: apply lane `lane`'s `W` in place to
    /// the union's `A` columns and `V` columns (none when vectors are off).
    fn apply_in_place(
        &mut self,
        lane: usize,
        counts: PassCounts,
        (xa, ya): (&mut [f64], &mut [f64]),
        (xv, yv): (&mut [f64], &mut [f64]),
        ctx: &MeetCtx,
    ) {
        if self.take_w(lane, counts) {
            ops::panel_update(xa, ya, ctx.m, &self.w, &mut self.tile);
            if ctx.v_len > 0 {
                ops::panel_update(xv, yv, ctx.v_len, &self.w, &mut self.tile);
            }
        }
    }
}

/// Immutable per-run context shared by every meeting.
#[derive(Clone, Copy)]
struct MeetCtx {
    /// Rows of the `A` columns.
    m: usize,
    /// Rows of the `V` columns (`0` when vectors are off).
    v_len: usize,
    threshold: f64,
    sort: bool,
    kernel: BlockKernel,
    /// Union width above which a Gram meeting splits into cache-sized
    /// sub-block pairs (`usize::MAX` disables the hierarchical level).
    hier_cols: usize,
}

/// Compute the SVD of `a` on an undersized machine of `opts.processors`
/// processors using blocked sweeps.
///
/// # Errors
/// [`SvdError::NoProcessors`] when `opts.processors == 0`; otherwise as
/// [`crate::HestenesSvd::compute`].
pub fn blocked_svd(a: &Matrix, opts: &BlockedOptions) -> Result<BlockedRun, SvdError> {
    if opts.processors == 0 {
        return Err(SvdError::NoProcessors);
    }
    let fe = opts.svd.qr_frontend;
    screened(a, fe, |a, norms| blocked_svd_inner(a, norms, opts), |run| &mut run.svd)
}

/// The blocked solve of `a`, whose columns (rows, when it is wide) have
/// the sums of squares `norms` (read only by the front-end).
fn blocked_svd_inner(
    a: &Matrix,
    norms: &[f64],
    opts: &BlockedOptions,
) -> Result<BlockedRun, SvdError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    if a.rows() < a.cols() {
        let at = a.transpose();
        let mut run = blocked_svd_inner(&at, norms, opts)?;
        std::mem::swap(&mut run.svd.u, &mut run.svd.v);
        return Ok(run);
    }
    if opts.svd.qr_frontend {
        let processors = opts.processors;
        let (mut run, qr_allocs) = crate::tall::solve(
            a,
            norms,
            &opts.svd,
            |rt, svd| blocked_svd_inner(rt, &[], &BlockedOptions { processors, svd }),
            |run| &mut run.svd,
        )?;
        run.steady_alloc_events += qr_allocs;
        run.qr_frontend = true;
        return Ok(run);
    }
    sweep_blocks(a, opts, |_, _| ())
}

/// The blocked sweeps of `a` itself (`m ≥ n`, the front-end off), then the
/// factors. `inspect` sees the block slots and the leaves' meeting
/// scratches after every step (the tests check where they sit).
fn sweep_blocks(
    a: &Matrix,
    opts: &BlockedOptions,
    mut inspect: impl FnMut(&[BlockSlot], &[MeetingScratch]),
) -> Result<BlockedRun, SvdError> {
    let (m, n) = a.shape();
    let n_super = 2 * opts.processors;
    // block size: smallest c with n <= c * n_super
    let c = n.div_ceil(n_super).max(1);
    let n_pad = c * n_super;

    // A single processor needs no ordering: both blocks are resident and
    // every sweep is one meeting of the pair. Otherwise sweep k runs the
    // plan's program k mod period, with the layout in force during each of
    // its steps.
    let plan = if n_super > 2 { Some(sweep_plan(&opts.svd, n_super, None)?.sweeps) } else { None };

    // distribute columns: super-slot s holds labels [s*c, (s+1)*c),
    // stored contiguously per slot (padding columns stay zero)
    let vectors = opts.svd.vectors;
    let mut slots: Vec<BlockSlot> = (0..n_super)
        .map(|s| {
            let mut a_buf = AlignedBuf::zeros(c * m);
            let mut v_buf = if vectors { AlignedBuf::zeros(c * n_pad) } else { AlignedBuf::new() };
            for k in 0..c {
                let j = s * c + k;
                if j < n {
                    a_buf[k * m..(k + 1) * m].copy_from_slice(a.col(j));
                }
                if vectors {
                    v_buf[k * n_pad + j] = 1.0;
                }
            }
            BlockSlot { a: a_buf, v: v_buf }
        })
        .collect();

    // Cache-level (hierarchical) blocking threshold: a union panel wider
    // than this is met as cyclic passes over sub-block pairs whose
    // working set (two sub-panels of `m`-length columns) fits in roughly
    // a quarter of L2, keeping the Gram kernel's panel reads cache-
    // resident — Novaković's multi-level scheme (arXiv 1401.2720).
    let hier_cols = match opts.svd.hier {
        HierBlocking::Off => usize::MAX,
        HierBlocking::Cols(w) => w.max(4),
        HierBlocking::Auto => ((treesvd_matrix::cache::l2_bytes() / 4) / (8 * m)).max(8),
    };

    let ctx = MeetCtx {
        m,
        v_len: if vectors { n_pad } else { 0 },
        threshold: opts.svd.threshold.unwrap_or(n_pad as f64 * f64::EPSILON),
        sort: matches!(opts.svd.sort, treesvd_sim::SortMode::Descending),
        kernel: opts.svd.block_kernel,
        hier_cols,
    };

    // Adaptive dispatch over the persistent pool: fork only when a step's
    // meetings move enough data, and never more lanes than processors.
    let lanes = opts.svd.threads.unwrap_or_else(par::num_threads);
    let step_work = opts.processors * 2 * c * (m + ctx.v_len);
    let tasks =
        if step_work < opts.svd.serial_cutoff { 1 } else { lanes.min(opts.processors).max(1) };
    let mut scratches: Vec<MeetingScratch> =
        (0..tasks).map(|_| MeetingScratch::default()).collect();

    // double-buffered block movement: `spare` is swapped in every step, so
    // the steady-state loop never allocates
    let mut spare: Vec<BlockSlot> = (0..n_super).map(|_| BlockSlot::default()).collect();

    let single = [0, 1];
    let mut layout: &[usize] =
        plan.as_ref().map_or(&single, |plan| &plan.program(0).initial_layout);
    let mut sweeps = 0usize;
    let mut total_rotations = 0usize;
    let mut warm_alloc = 0u64;
    let mut converged = false;

    for sweep in 0..opts.svd.max_sweeps {
        let mut rotations = 0usize;
        let mut swaps = 0usize;

        if let Some(plan) = &plan {
            let prog = plan.program(sweep);
            assert_eq!(layout, prog.initial_layout, "layout cycle broken");
            for (step, lay) in prog.steps.iter().zip(plan.layouts(sweep)) {
                let (r, s) = meet_range(&mut slots, lay, &mut scratches, tasks, &ctx);
                rotations += r;
                swaps += s;
                // move the blocks (pointer swaps only)
                for (src, slot) in slots.iter_mut().enumerate() {
                    spare[step.move_after.dest_of(src)] = std::mem::take(slot);
                }
                std::mem::swap(&mut slots, &mut spare);
                inspect(&slots, &scratches);
            }
            // the plan chains: the sweep ends where the next one starts
            layout = &plan.program(sweep + 1).initial_layout;
        } else {
            let (r, s) = meet_leaf(&mut slots, layout, &ctx, &mut scratches[0]);
            rotations += r;
            swaps += s;
            inspect(&slots, &scratches);
        }
        total_rotations += rotations;
        sweeps = sweep + 1;
        if sweep == 0 {
            warm_alloc = scratches.iter().map(|s| s.alloc_events).sum();
        }
        if rotations == 0 && swaps == 0 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(SvdError::NoConvergence { sweeps, last_coupling: f64::NAN });
    }
    let steady_alloc_events = scratches.iter().map(|s| s.alloc_events).sum::<u64>() - warm_alloc;

    // locate each label's column: label block `layout[s]` lives in slot s
    let mut locate: Vec<(usize, usize)> = vec![(0, 0); n_pad];
    for (s, &label_block) in layout.iter().enumerate() {
        for k in 0..c {
            locate[label_block * c + k] = (s, k);
        }
    }

    let col = |j: usize| {
        let (s, k) = locate[j];
        let slot = &slots[s];
        (&slot.a[k * m..(k + 1) * m], slot.v.get(k * n_pad..(k + 1) * n_pad).unwrap_or(&[]))
    };
    let svd = extract_svd(col, m, n, n_pad, opts.svd.sort, vectors)?;

    Ok(BlockedRun {
        svd,
        sweeps,
        block_size: c,
        total_rotations,
        steady_alloc_events,
        qr_frontend: false,
    })
}

/// Run the step's `P` independent meetings, forking into at most `tasks`
/// leaves over the persistent pool (each leaf owns one scratch arena).
/// Returns (rotations, interchanges).
fn meet_range(
    pairs: &mut [BlockSlot],
    lay: &[usize],
    scratches: &mut [MeetingScratch],
    tasks: usize,
    ctx: &MeetCtx,
) -> (usize, usize) {
    let n_pairs = pairs.len() / 2;
    if tasks <= 1 || n_pairs <= 1 || scratches.len() <= 1 {
        return meet_leaf(pairs, lay, ctx, &mut scratches[0]);
    }
    let mid = n_pairs / 2;
    let (pl, pr) = pairs.split_at_mut(2 * mid);
    let (ll, lr) = lay.split_at(2 * mid);
    let left_tasks = tasks / 2;
    let (sl, sr) = scratches.split_at_mut(left_tasks.max(1));
    let ((r1, w1), (r2, w2)) = par::join(
        || meet_range(pl, ll, sl, left_tasks, ctx),
        || meet_range(pr, lr, sr, tasks - left_tasks, ctx),
    );
    (r1 + r2, w1 + w2)
}

/// Serial leaf: every processor's meeting in this range, in order. Flat
/// Gram meetings run [`LANES`] at a time through one lane pass
/// ([`gram_group`]); the rest one by one.
fn meet_leaf(
    pairs: &mut [BlockSlot],
    lay: &[usize],
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    // every slot holds c columns, so a union has 2c
    let flat = 2 * pairs[0].a.len() / ctx.m <= ctx.hier_cols;
    if ctx.kernel == BlockKernel::Gram && flat {
        for (group, lay) in pairs.chunks_mut(2 * LANES).zip(lay.chunks(2 * LANES)) {
            let (r, s) = gram_group(group, lay, ctx, scratch);
            rotations += r;
            swaps += s;
        }
        return (rotations, swaps);
    }
    for (pair, lay) in pairs.chunks_exact_mut(2).zip(lay.chunks_exact(2)) {
        let (lo, hi) = in_label_order(pair, lay);
        let (r, s) = match ctx.kernel {
            BlockKernel::Pairwise => pairwise_meeting(lo, hi, ctx),
            BlockKernel::Gram => hierarchical_meeting(lo, hi, ctx, scratch),
        };
        rotations += r;
        swaps += s;
    }
    (rotations, swaps)
}

/// The two resident blocks of a processor, in label order.
fn in_label_order<'s>(
    pair: &'s mut [BlockSlot],
    lay: &[usize],
) -> (&'s mut BlockSlot, &'s mut BlockSlot) {
    let (first, second) = pair.split_at_mut(1);
    if lay[0] < lay[1] {
        (&mut first[0], &mut second[0])
    } else {
        (&mut second[0], &mut first[0])
    }
}

/// Mutable references to columns `i < j` of the union `[X Y]` panel
/// (column length `rows`).
fn union_pair_mut<'t>(
    x: &'t mut [f64],
    y: &'t mut [f64],
    rows: usize,
    i: usize,
    j: usize,
) -> (&'t mut [f64], &'t mut [f64]) {
    debug_assert!(i < j);
    let cx = x.len() / rows;
    if j < cx {
        let (a, b) = x.split_at_mut(j * rows);
        (&mut a[i * rows..(i + 1) * rows], &mut b[..rows])
    } else if i >= cx {
        let (a, b) = y.split_at_mut((j - cx) * rows);
        (&mut a[(i - cx) * rows..(i - cx + 1) * rows], &mut b[..rows])
    } else {
        (&mut x[i * rows..(i + 1) * rows], &mut y[(j - cx) * rows..(j - cx + 1) * rows])
    }
}

/// The pairwise (oracle) meeting: one cyclic pass over all column pairs of
/// the two resident blocks, in label order (the lower-labelled block's
/// columns first), streaming the full columns through
/// [`orthogonalize_pair`]. Returns (rotations, interchanges).
fn pairwise_meeting(lo: &mut BlockSlot, hi: &mut BlockSlot, ctx: &MeetCtx) -> (usize, usize) {
    let total = (lo.a.len() + hi.a.len()) / ctx.m;
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for i in 0..total {
        for j in (i + 1)..total {
            let (ai, aj) = union_pair_mut(&mut lo.a, &mut hi.a, ctx.m, i, j);
            let out = orthogonalize_pair(ai, aj, ctx.threshold, ctx.sort);
            if ctx.v_len > 0 {
                let (vi, vj) = union_pair_mut(&mut lo.v, &mut hi.v, ctx.v_len, i, j);
                if out.used_swap {
                    apply_rotation_swapped(out.rotation, vi, vj);
                } else {
                    apply_rotation(out.rotation, vi, vj);
                }
            }
            if !out.rotation.skipped {
                rotations += 1;
            }
            if out.used_swap {
                swaps += 1;
            }
        }
    }
    (rotations, swaps)
}

/// Two disjoint column ranges `[s0, s0+w0)` and `[s1, s1+w1)` (with
/// `s0 + w0 ≤ s1`) of one column-major panel, as mutable slices.
fn two_ranges(
    buf: &mut [f64],
    rows: usize,
    s0: usize,
    w0: usize,
    s1: usize,
    w1: usize,
) -> (&mut [f64], &mut [f64]) {
    if rows == 0 {
        return buf.split_at_mut(0); // vectors off: both empty
    }
    debug_assert!(s0 + w0 <= s1);
    let (head, tail) = buf.split_at_mut(s1 * rows);
    (&mut head[s0 * rows..(s0 + w0) * rows], &mut tail[..w1 * rows])
}

/// The hierarchical (cache-level) Gram meeting of a union wider than the
/// threshold: sub-blocks of half the threshold width, enumerated in label
/// order (`lo`'s columns first, so the sorted-storage rule still sorts the
/// whole union), every sub-block *pair* met by [`gram_union`] on one lane.
/// Each sub-meeting again fully orthogonalizes and sorts its own union, so
/// covering all pairs covers every column pair of the meeting and the
/// termination rule (no rotation, no interchange anywhere) is evaluated on
/// exactly the same quantities as the flat path. Returns (rotations,
/// interchanges).
fn hierarchical_meeting(
    lo: &mut BlockSlot,
    hi: &mut BlockSlot,
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let (cx, cy) = (lo.a.len() / ctx.m, hi.a.len() / ctx.m);
    let cb = (ctx.hier_cols / 2).max(2);
    let nbx = cx.div_ceil(cb);
    let nby = cy.div_ceil(cb);
    // sub-block b → (lives in hi, first column, width); never straddles
    // the lo/hi boundary, so every range is one contiguous slice
    let locate = |b: usize| -> (bool, usize, usize) {
        if b < nbx {
            let s = b * cb;
            (false, s, cb.min(cx - s))
        } else {
            let s = (b - nbx) * cb;
            (true, s, cb.min(cy - s))
        }
    };
    let vr = |s: usize, w: usize| {
        if ctx.v_len > 0 {
            s * ctx.v_len..(s + w) * ctx.v_len
        } else {
            0..0
        }
    };
    let nb = nbx + nby;
    let mut rotations = 0usize;
    let mut swaps = 0usize;
    for p in 0..nb {
        for q in (p + 1)..nb {
            let (q_in_hi, sq, wq) = locate(q);
            let (p_in_hi, sp, wp) = locate(p);
            let (r, s) = match (p_in_hi, q_in_hi) {
                (false, false) => {
                    let (xa, ya) = two_ranges(&mut lo.a, ctx.m, sp, wp, sq, wq);
                    let (xv, yv) = two_ranges(&mut lo.v, ctx.v_len, sp, wp, sq, wq);
                    gram_union(xa, ya, xv, yv, ctx, scratch)
                }
                (true, true) => {
                    let (xa, ya) = two_ranges(&mut hi.a, ctx.m, sp, wp, sq, wq);
                    let (xv, yv) = two_ranges(&mut hi.v, ctx.v_len, sp, wp, sq, wq);
                    gram_union(xa, ya, xv, yv, ctx, scratch)
                }
                (false, true) => gram_union(
                    &mut lo.a[sp * ctx.m..(sp + wp) * ctx.m],
                    &mut hi.a[sq * ctx.m..(sq + wq) * ctx.m],
                    &mut lo.v[vr(sp, wp)],
                    &mut hi.v[vr(sq, wq)],
                    ctx,
                    scratch,
                ),
                (true, false) => unreachable!("sub-blocks are enumerated lo-first"),
            };
            rotations += r;
            swaps += s;
        }
    }
    (rotations, swaps)
}

/// Up to [`LANES`] flat Gram meetings, the resident block pairs of
/// `group`, in lockstep: each meeting's Gram matrix `G = [X Y]ᵀ[X Y]`
/// ([`ops::gram_block`]), one cyclic sorted pass over all of them in cache,
/// one lane per meeting, accumulating each meeting's orthogonal update `W`
/// ([`GramLanes`]), then, for each meeting that rotated or swapped,
/// `[X Y]·W` (and the `V` panel's) written into the leaf's spare panels,
/// which it trades for the slots' buffers. The rotation
/// and interchange decisions are computed from exactly the Gram quantities
/// the pairwise path measures, so both kernels agree on what a meeting does
/// (up to rounding in how the updates are realized), and a meeting's bits
/// do not depend on which meetings share its pass. Returns (rotations,
/// interchanges).
fn gram_group(
    group: &mut [BlockSlot],
    lay: &[usize],
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    let k = 2 * group[0].a.len() / ctx.m;
    scratch.ensure(k, group.len() / 2, Some((group[0].a.len(), group[0].v.len())));
    for (lane, (pair, lay)) in group.chunks_exact_mut(2).zip(lay.chunks_exact(2)).enumerate() {
        let (lo, hi) = in_label_order(pair, lay);
        scratch.load(lane, &lo.a, &hi.a, ctx.m);
    }
    let counts = scratch.lanes.pass(ctx.threshold, ctx.sort);
    for (lane, (pair, lay)) in group.chunks_exact_mut(2).zip(lay.chunks_exact(2)).enumerate() {
        scratch.apply_into(lane, counts[lane], in_label_order(pair, lay), ctx);
    }
    counts.iter().take(group.len() / 2).fold((0, 0), |(r, s), c| (r + c.rotations, s + c.swaps))
}

/// One flat Gram meeting over the union `[X Y]` given as raw column panels
/// (`xa`/`ya` the `A` columns, `xv`/`yv` the matching `V` columns, empty
/// when vectors are off): [`gram_group`]'s stages on one lane. Returns
/// (rotations, interchanges).
fn gram_union(
    xa: &mut [f64],
    ya: &mut [f64],
    xv: &mut [f64],
    yv: &mut [f64],
    ctx: &MeetCtx,
    scratch: &mut MeetingScratch,
) -> (usize, usize) {
    scratch.ensure((xa.len() + ya.len()) / ctx.m, 1, None);
    scratch.load(0, xa, ya, ctx.m);
    let [counts, ..] = scratch.lanes.pass(ctx.threshold, ctx.sort);
    scratch.apply_in_place(0, counts, (xa, ya), (xv, yv), ctx);
    (counts.rotations, counts.swaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HestenesSvd, SvdOptions};
    use treesvd_matrix::{checks, generate};

    fn opts_with(processors: usize, kernel: BlockKernel) -> BlockedOptions {
        BlockedOptions { processors, svd: SvdOptions::default().with_block_kernel(kernel) }
    }

    #[test]
    fn blocked_matches_unblocked_spectra() {
        // a generic input, and a two-level repeated spectrum whose
        // re-measured norms tie to the last ulps (the shared extraction
        // must repair their order, as the unblocked driver does)
        let repeated: Vec<f64> = (0..32).map(|k| if k < 16 { 1.0 } else { 0.5 }).collect();
        for a in
            [generate::random_uniform(40, 32, 1), generate::with_singular_values(40, &repeated, 1)]
        {
            let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
            for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
                for procs in [2usize, 4, 8] {
                    let run = blocked_svd(&a, &opts_with(procs, kernel)).unwrap();
                    let what = format!("P = {procs} kernel = {kernel}");
                    assert_eq!(run.block_size, 32 / (2 * procs));
                    assert!(
                        checks::spectrum_distance(&run.svd.sigma, &full.svd.sigma) < 1e-9,
                        "{what}"
                    );
                    assert!(run.svd.residual(&a) < 1e-10, "{what}");
                    assert!(run.svd.orthogonality() < 1e-10, "{what}");
                    assert!(
                        checks::is_nonincreasing(&run.svd.sigma),
                        "{what}: {:?}",
                        run.svd.sigma
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_handles_non_divisible_columns() {
        // 30 columns on 4 processors: c = ceil(30/8) = 4, padded to 32
        let a = generate::random_uniform(36, 30, 2);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(4, kernel)).unwrap();
            assert_eq!(run.svd.sigma.len(), 30);
            assert!(run.svd.residual(&a) < 1e-10, "kernel = {kernel}");
            assert!(run.svd.orthogonality() < 1e-10, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_on_two_processors_known_spectrum() {
        let sigma: Vec<f64> = (1..=12).rev().map(|k| k as f64).collect();
        let a = generate::with_singular_values(20, &sigma, 3);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(2, kernel)).unwrap();
            assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_rank_deficient() {
        let a = generate::rank_deficient(24, 16, 10, 4);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let run = blocked_svd(&a, &opts_with(4, kernel)).unwrap();
            assert_eq!(run.svd.rank, 10, "kernel = {kernel}");
            assert!(run.svd.orthogonality() < 1e-10, "kernel = {kernel}");
        }
    }

    #[test]
    fn blocked_wide_input() {
        let at = generate::with_singular_values(20, &[5.0, 3.0, 1.0], 5);
        let a = at.transpose();
        let run = blocked_svd(&a, &BlockedOptions::for_processors(2)).unwrap();
        assert_eq!(run.svd.sigma.len(), 3);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-10);
    }

    #[test]
    fn blocked_sweep_counts_reasonable() {
        // blocked sweeps do more work per step, so fewer sweeps than the
        // unblocked driver on the same matrix
        let a = generate::random_uniform(48, 32, 6);
        let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let run = blocked_svd(&a, &BlockedOptions::for_processors(4)).unwrap();
        assert!(run.sweeps <= full.sweeps, "{} vs {}", run.sweeps, full.sweeps);
        assert!(run.total_rotations > 0);
    }

    #[test]
    fn blocked_with_ring_ordering() {
        let a = generate::random_uniform(30, 24, 7);
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            let opts = BlockedOptions {
                processors: 3,
                svd: SvdOptions::default()
                    .with_ordering(crate::OrderingKind::NewRing)
                    .with_block_kernel(kernel),
            };
            let run = blocked_svd(&a, &opts).unwrap();
            assert!(run.svd.residual(&a) < 1e-10, "kernel = {kernel}");
            assert_eq!(run.block_size, 4);
        }
    }

    #[test]
    fn gram_kernel_is_zero_alloc_after_warmup() {
        let a = generate::random_uniform(96, 64, 8);
        let mut opts = opts_with(4, BlockKernel::Gram);
        // force the parallel path through the pool as well
        opts.svd.serial_cutoff = 0;
        let run = blocked_svd(&a, &opts).unwrap();
        assert!(run.sweeps > 1, "need a steady-state sweep to measure");
        assert_eq!(run.steady_alloc_events, 0);
    }

    #[test]
    fn kernels_agree_on_sigma_and_v() {
        // random c (via P and n), odd/padded sizes, rank-deficient panels
        // (P must keep 2P a power of two for the default fat-tree ordering)
        let cases: Vec<(Matrix, usize)> = vec![
            (generate::random_uniform(48, 30, 11), 2), // padded: 30 -> 32, c = 8
            (generate::random_uniform(33, 17, 12), 2), // odd everything, c = 5
            (generate::rank_deficient(40, 24, 9, 13), 4), // c = 3, rank 9
            (generate::with_singular_values(25, &[9.0, 4.0, 2.5, 1.0, 0.5], 14), 2),
        ];
        for (a, procs) in &cases {
            let pw = blocked_svd(a, &opts_with(*procs, BlockKernel::Pairwise)).unwrap();
            let gr = blocked_svd(a, &opts_with(*procs, BlockKernel::Gram)).unwrap();
            assert!(
                checks::spectrum_distance(&pw.svd.sigma, &gr.svd.sigma) < 1e-9,
                "sigma mismatch at P = {procs}"
            );
            assert_eq!(pw.svd.rank, gr.svd.rank, "rank mismatch at P = {procs}");
            // V agrees up to sign wherever the spectrum is well separated
            let n = gr.svd.sigma.len();
            for j in 0..n {
                let sep = |i: usize| {
                    (gr.svd.sigma[j] - gr.svd.sigma[i]).abs() > 1e-6 * gr.svd.sigma[0].max(1.0)
                };
                if gr.svd.sigma[j] > 1e-9 && (0..n).all(|i| i == j || sep(i)) {
                    let d = treesvd_matrix::ops::dot(pw.svd.v.col(j), gr.svd.v.col(j)).abs();
                    assert!(d > 1.0 - 1e-7, "V col {j} disagrees: |dot| = {d}");
                }
            }
        }
    }

    #[test]
    fn blocked_matches_sequential_over_processor_sweep() {
        // P = 1 exercises the trivial single-meeting schedule (no ordering)
        let a = generate::random_uniform(40, 28, 9);
        let seq = crate::sequential::sequential_svd(&a, 60).unwrap();
        for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
            for procs in [1usize, 2, 4, 8] {
                let run = blocked_svd(&a, &opts_with(procs, kernel)).unwrap();
                assert!(
                    checks::spectrum_distance(&run.svd.sigma, &seq.svd.sigma) < 1e-9,
                    "P = {procs} kernel = {kernel}"
                );
                assert!(run.svd.residual(&a) < 1e-10, "P = {procs} kernel = {kernel}");
                assert!(run.svd.orthogonality() < 1e-10, "P = {procs} kernel = {kernel}");
            }
            // no processors at all is a typed error, not a panic
            let err = blocked_svd(&a, &opts_with(0, kernel)).unwrap_err();
            assert!(matches!(err, SvdError::NoProcessors), "kernel = {kernel}: {err:?}");
        }
    }

    #[test]
    fn hierarchical_meetings_match_flat_gram() {
        // force the cache-level split with a tiny threshold: c = 8 gives
        // 16-column unions, split into sub-blocks of 4
        let a = generate::random_uniform(48, 32, 16);
        let flat = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Off);
            blocked_svd(&a, &o).unwrap()
        };
        let hier = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Cols(8));
            blocked_svd(&a, &o).unwrap()
        };
        assert!(
            checks::spectrum_distance(&flat.svd.sigma, &hier.svd.sigma) < 1e-9,
            "spectra diverge: {:?} vs {:?}",
            flat.svd.sigma,
            hier.svd.sigma
        );
        assert!(hier.svd.residual(&a) < 1e-10);
        assert!(hier.svd.orthogonality() < 1e-10);
        assert!(checks::is_nonincreasing(&hier.svd.sigma), "meetings must still sort the union");
        assert_eq!(flat.svd.rank, hier.svd.rank);
    }

    #[test]
    fn hierarchical_stays_zero_alloc_and_converges_on_hard_cases() {
        // rank-deficient + forced splits + the pool path
        let a = generate::rank_deficient(64, 24, 11, 17);
        let mut o = opts_with(2, BlockKernel::Gram);
        o.svd = o.svd.with_hier_blocking(HierBlocking::Cols(6));
        o.svd.serial_cutoff = 0;
        let run = blocked_svd(&a, &o).unwrap();
        assert_eq!(run.svd.rank, 11);
        assert!(run.sweeps > 1, "need a steady-state sweep to measure");
        assert_eq!(run.steady_alloc_events, 0);
        assert!(run.svd.orthogonality() < 1e-10);
    }

    #[test]
    fn auto_hier_is_inert_on_small_problems() {
        // Auto only engages when a union panel outgrows L2/4; at m = 40
        // the threshold is hundreds of columns, so Auto ≡ Off here and
        // results are bitwise identical
        let a = generate::random_uniform(40, 32, 18);
        let auto = blocked_svd(&a, &opts_with(2, BlockKernel::Gram)).unwrap();
        let off = {
            let mut o = opts_with(2, BlockKernel::Gram);
            o.svd = o.svd.with_hier_blocking(HierBlocking::Off);
            blocked_svd(&a, &o).unwrap()
        };
        assert_eq!(auto.svd.sigma, off.svd.sigma);
        assert_eq!(auto.svd.u, off.svd.u);
        assert_eq!(auto.svd.v, off.svd.v);
        assert_eq!(auto.sweeps, off.sweeps);
    }

    #[test]
    fn thread_cap_of_one_matches_default() {
        // meetings are data-disjoint and a meeting's bits do not depend on
        // which meetings share its lane pass, so neither the thread count
        // nor the leaves' sizes can change results: with forced forking
        // on 2 and 3 lanes, P = 4 runs leaves of 1, 2 and 4 meetings, P = 8
        // leaves of 2, 4 and 8, and P = 3 (new ring) leaves of 1, 2 and 3
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let a = generate::random_uniform(40, 32, 15);
        for procs in [3usize, 4, 8] {
            let opts = |threads: Option<usize>, serial_cutoff: usize| {
                let mut o = opts_with(procs, BlockKernel::Gram);
                if procs == 3 {
                    o.svd = o.svd.with_ordering(crate::OrderingKind::NewRing);
                }
                o.svd.threads = threads;
                o.svd.serial_cutoff = serial_cutoff;
                o
            };
            let base = blocked_svd(&a, &opts(None, SvdOptions::default().serial_cutoff)).unwrap();
            for (threads, cutoff) in [(1, usize::MAX), (2, 0), (3, 0)] {
                let run = blocked_svd(&a, &opts(Some(threads), cutoff)).unwrap();
                let what = format!("P = {procs}, {threads} thread(s)");
                assert_eq!(bits(&run.svd.sigma), bits(&base.svd.sigma), "{what}");
                assert_eq!(bits(run.svd.u.as_slice()), bits(base.svd.u.as_slice()), "{what}: U");
                assert_eq!(bits(run.svd.v.as_slice()), bits(base.svd.v.as_slice()), "{what}: V");
                assert_eq!(run.sweeps, base.sweeps, "{what}");
                assert_eq!(run.total_rotations, base.total_rotations, "{what}");
            }
        }
    }

    #[test]
    fn block_slots_and_tiles_sit_on_lines() {
        // the slots move by handing over their storage, a flat meeting
        // trades its slots' panels for the leaf's spares, and the leaves
        // reuse their spares and tiles, so after every step every panel
        // still starts on a 64-byte line: both kernels; P = 1, 3 (new
        // ring), 4 and a hierarchical split; serial and forked; vectors on
        // and off
        let on_line = |x: &[f64]| (x.as_ptr() as usize).is_multiple_of(64);
        let a = generate::random_uniform(40, 32, 15);
        let gram = BlockKernel::Gram;
        let cases = [
            (1, gram, HierBlocking::Auto, usize::MAX),
            (3, gram, HierBlocking::Auto, 0),
            (4, gram, HierBlocking::Auto, 0),
            (4, gram, HierBlocking::Cols(6), 0),
            (4, BlockKernel::Pairwise, HierBlocking::Auto, 0),
        ];
        for (procs, kernel, hier, serial_cutoff) in cases {
            for vectors in [true, false] {
                let mut o = opts_with(procs, kernel);
                o.svd = o.svd.with_hier_blocking(hier).with_vectors(vectors);
                if procs == 3 {
                    o.svd = o.svd.with_ordering(crate::OrderingKind::NewRing);
                }
                (o.svd.threads, o.svd.serial_cutoff) = (Some(2), serial_cutoff);
                let what = format!("P = {procs}, {kernel}, {hier:?}, vectors {vectors}");
                let flat = kernel == gram && hier == HierBlocking::Auto;
                let mut steps = 0;
                sweep_blocks(&a, &o, |slots, scratches| {
                    assert_eq!(slots.len(), 2 * procs, "{what}");
                    for slot in slots {
                        assert!(on_line(&slot.a), "{what}: A");
                        assert_eq!(slot.v.is_empty(), !vectors, "{what}");
                        assert!(!vectors || on_line(&slot.v), "{what}: V");
                    }
                    for s in scratches {
                        let spares = s.spare.iter().flat_map(|p| [&p.a, &p.v]);
                        let bufs: Vec<&AlignedBuf> = spares.chain([&s.tile]).collect();
                        assert!(bufs.iter().all(|b| b.is_empty() || on_line(b)), "{what}");
                        // flat meetings write into spares, sub-meetings
                        // snapshot into the tile, pairwise ones use neither
                        let [x, y] = &s.spare;
                        assert_eq!(x.a.is_empty() || y.a.is_empty(), !flat, "{what}: spare A");
                        assert_eq!(x.v.is_empty() || y.v.is_empty(), !flat || !vectors, "{what}");
                        assert_eq!(s.tile.is_empty(), kernel != gram || flat, "{what}: tile");
                    }
                    steps += 1;
                })
                .unwrap();
                assert!(steps > 0, "{what}: converged without showing its slots");
            }
        }
    }

    #[test]
    fn wrong_restore_period_fails_loudly() {
        // the new ring ordering restores its layout every second sweep; an
        // ordering that claims every sweep would have its second sweep run
        // on the wrong slot layout, mislabelling blocks, so it is refused
        // before any block moves
        use crate::options::OrderingChoice;
        use std::sync::Arc;
        use treesvd_analyze::Violation;
        use treesvd_orderings::{JacobiOrdering, Program};
        struct EverySweep(Box<dyn JacobiOrdering>);
        impl JacobiOrdering for EverySweep {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn name(&self) -> String {
                self.0.name()
            }
            fn restore_period(&self) -> usize {
                1
            }
            fn sweep_program(&self, sweep: usize, layout: &[usize]) -> Program {
                self.0.sweep_program(sweep, layout)
            }
        }
        let ordering = OrderingChoice::Custom(Arc::new(|n| {
            let inner = crate::OrderingKind::NewRing.build(n)?;
            assert_eq!(inner.restore_period(), 2);
            Ok(Box::new(EverySweep(inner)) as Box<dyn JacobiOrdering>)
        }));
        let opts = BlockedOptions {
            processors: 4,
            svd: SvdOptions { ordering, ..opts_with(4, BlockKernel::Gram).svd },
        };
        match blocked_svd(&generate::random_uniform(40, 32, 15), &opts) {
            Err(SvdError::Schedule(Violation::LayoutNotRestored { sweeps: 1, .. })) => {}
            other => panic!("expected LayoutNotRestored after 1 sweep, got {other:?}"),
        }
    }
}
