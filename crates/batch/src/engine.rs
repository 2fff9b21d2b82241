//! The batched Jacobi engine: per-group sweep loops over SoA planes,
//! sharded across the persistent worker pool.
//!
//! Every lane group runs its *own* cyclic-by-rows one-sided Jacobi
//! iteration: for each column pair `(p, q)` the engine computes the
//! lane-wise Gram entries, solves all `L` rotations branch-free, and
//! applies them under per-lane masks — so `L` problems advance per
//! instruction and a converged problem (mask cleared) stops paying for
//! rotations immediately. Because the sweep loop is per-group, a group
//! whose lanes have all converged ("drained") leaves the working set
//! entirely; there is no global barrier and no pass over finished work —
//! this is the batch-compaction effect of the SoA design.
//!
//! Sharding: groups are contiguous, independent blocks of the SoA buffer,
//! so the engine splits the batch at group boundaries with `split_at_mut`
//! and forks on [`treesvd_sim::par::join`] — the same persistent
//! parked-worker pool the blocked and distributed drivers use, honoring
//! `TREESVD_THREADS` / [`BatchOptions::threads`]. Each leaf shard owns a
//! [`ShardScratch`]; after the first run on a given shape the engine
//! performs **zero steady-state allocations** (asserted by the bench smoke
//! gate).
//!
//! Convergence and extraction mirror the sequential reference driver
//! exactly: a problem is converged after a full sweep with no rotation and
//! no swap (the final empty sweep is counted), singular values are the
//! column norms above `‖A‖·n·ε`, `U` is the normalized columns with
//! rank-deficient directions completed by modified Gram–Schmidt, and `V`
//! accumulates the same rotations from the identity. Like the drivers'
//! entry screen, a problem whose largest entry lies outside the window of
//! [`treesvd_matrix::scaling`] is swept at an exact power-of-two scale and
//! its singular values are multiplied back.

use crate::layout::BatchSoA;
use crate::options::{BatchError, BatchOptions, BatchStats};
use treesvd_matrix::scaling::{mul_pow2, shift_for};
use treesvd_matrix::soa::{gram_lanes, rotate_lanes, rotate_lanes_dual, rotation_lanes, LanePath};
use treesvd_matrix::{ops, Matrix};
use treesvd_sim::par;

/// Sweep-count marker for problems that have not (yet) converged.
const UNCONVERGED: u32 = u32::MAX;

/// Per-run configuration snapshot handed to the shards (plain scalars, so
/// shards share one `&Ctx` across threads).
#[derive(Clone, Copy)]
struct Ctx {
    rows: usize,
    cols: usize,
    count: usize,
    threshold: f64,
    max_sweeps: usize,
    sort: bool,
    vectors: bool,
    path: LanePath,
}

/// Per-shard reusable buffers and tallies. One per fork lane; everything
/// is grown once per shape and reused run to run.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Per-group column norms, `cols × lanes`.
    norms: Vec<f64>,
    /// Col-major gather of one problem, `rows × cols` (orthonormal
    /// completion only).
    gather: Vec<f64>,
    /// Completion candidate vector, `rows`.
    cand: Vec<f64>,
    /// Best completion candidate so far, `rows`.
    best: Vec<f64>,
    /// Zero-column indices of the problem being extracted.
    zero_cols: Vec<usize>,
    /// Buffer grows during this run.
    alloc_events: u64,
    /// Problems that hit the sweep cap in this shard.
    unconverged: usize,
    /// Largest sweep count this shard observed.
    max_sweeps_used: u32,
}

impl ShardScratch {
    /// Size the buffers for a shape and reset the per-run tallies.
    fn prepare(&mut self, rows: usize, cols: usize, lanes: usize) {
        self.alloc_events = 0;
        self.unconverged = 0;
        self.max_sweeps_used = 0;
        grow_f64(&mut self.norms, cols * lanes, &mut self.alloc_events);
        grow_f64(&mut self.gather, rows * cols, &mut self.alloc_events);
        grow_f64(&mut self.cand, rows, &mut self.alloc_events);
        grow_f64(&mut self.best, rows, &mut self.alloc_events);
        if self.zero_cols.capacity() < cols {
            self.alloc_events += 1;
            self.zero_cols.reserve_exact(cols - self.zero_cols.len());
        }
        self.zero_cols.clear();
    }
}

/// Grow a buffer to `len` (zero-filled), counting a capacity growth as one
/// allocation event.
fn grow_f64(v: &mut Vec<f64>, len: usize, events: &mut u64) {
    if v.capacity() < len {
        *events += 1;
    }
    v.clear();
    v.resize(len, 0.0);
}

/// [`grow_f64`] for `u32` buffers.
fn grow_u32(v: &mut Vec<u32>, len: usize, events: &mut u64) {
    if v.capacity() < len {
        *events += 1;
    }
    v.clear();
    v.resize(len, 0);
}

/// A reusable batched-SVD solver.
///
/// The engine owns all result and scratch storage; [`BatchEngine::run`]
/// transforms the batch `A → U` in place, accumulates `V`, and fills
/// `σ`/sweep/rank tables. Running the same engine on same-shape batches
/// reuses every buffer — the steady state is allocation-free
/// ([`BatchStats::alloc_events`] is 0 from the second run on).
///
/// For one-shot use, [`batch_svd`] wraps construction, run, and result
/// extraction.
#[derive(Debug)]
pub struct BatchEngine {
    opts: BatchOptions,
    /// Right singular vectors in the same SoA layout (`cols × cols`
    /// problems), when [`BatchOptions::vectors`] is set.
    v: BatchSoA,
    /// `σ` table, problem-major: problem `i`'s values at `i·cols ..`.
    sigma: Vec<f64>,
    /// Per-problem sweep counts (padded length).
    sweeps: Vec<u32>,
    /// Per-problem numerical ranks (padded length).
    ranks: Vec<u32>,
    scratches: Vec<ShardScratch>,
    /// `(rows, cols, count, lanes)` of the last completed run.
    shape: Option<(usize, usize, usize, usize)>,
}

impl BatchEngine {
    /// A fresh engine with the given options (no storage allocated yet).
    #[must_use]
    pub fn new(opts: BatchOptions) -> Self {
        Self {
            opts,
            v: BatchSoA::placeholder(),
            sigma: Vec::new(),
            sweeps: Vec::new(),
            ranks: Vec::new(),
            scratches: Vec::new(),
            shape: None,
        }
    }

    /// The engine's options.
    #[must_use]
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// Solve every problem in `a` in place: on return each problem's
    /// columns are its left singular vectors `U`, and the engine's tables
    /// hold `σ`, `V`, sweep counts, and ranks (see the accessors).
    ///
    /// # Errors
    /// [`BatchError::NoConvergence`] if any problem hits the sweep cap;
    /// the batch contents are then unspecified (rotated, unnormalized).
    pub fn run(&mut self, a: &mut BatchSoA) -> Result<BatchStats, BatchError> {
        let (rows, cols, count, lanes) = (a.rows(), a.cols(), a.count(), a.lanes());
        let (groups, padded) = (a.groups(), a.padded_count());
        let mut events = 0u64;
        self.shape = None;

        grow_f64(&mut self.sigma, padded * cols, &mut events);
        grow_u32(&mut self.sweeps, padded, &mut events);
        grow_u32(&mut self.ranks, padded, &mut events);
        for (i, s) in self.sweeps.iter_mut().enumerate() {
            *s = if i < count { UNCONVERGED } else { 0 };
        }

        let ctx = Ctx {
            rows,
            cols,
            count,
            threshold: self.opts.threshold.unwrap_or(cols as f64 * f64::EPSILON),
            max_sweeps: self.opts.max_sweeps.max(1),
            sort: self.opts.sort,
            vectors: self.opts.vectors,
            path: self.opts.path,
        };

        if ctx.vectors {
            self.v.reshape(cols, cols, count, lanes, &mut events);
            let plane_len = self.v.plane_len();
            let group_stride = self.v.group_stride();
            let vd = self.v.data_mut();
            for g in 0..groups {
                for j in 0..cols {
                    let base = g * group_stride + j * plane_len + j * lanes;
                    vd[base..base + lanes].fill(1.0);
                }
            }
        }

        let tasks = self.opts.threads.unwrap_or_else(par::num_threads).clamp(1, groups);
        if self.scratches.capacity() < tasks {
            events += 1;
            self.scratches.reserve_exact(tasks - self.scratches.len());
        }
        while self.scratches.len() < tasks {
            self.scratches.push(ShardScratch::default());
        }
        for s in self.scratches.iter_mut().take(tasks) {
            s.prepare(rows, cols, lanes);
        }

        let a_data = a.data_mut();
        let v_data: &mut [f64] = if ctx.vectors { self.v.data_mut() } else { &mut [] };
        let sigma = &mut self.sigma[..padded * cols];
        let sweeps = &mut self.sweeps[..padded];
        let ranks = &mut self.ranks[..padded];
        let scratches = &mut self.scratches[..tasks];

        match lanes {
            4 => shard_split::<4>(&ctx, a_data, v_data, sigma, sweeps, ranks, scratches, 0),
            8 => shard_split::<8>(&ctx, a_data, v_data, sigma, sweeps, ranks, scratches, 0),
            16 => shard_split::<16>(&ctx, a_data, v_data, sigma, sweeps, ranks, scratches, 0),
            other => unreachable!("BatchSoA validated the lane width, got {other}"),
        }

        let mut unconverged = 0usize;
        let mut max_sweeps_used = 0u32;
        for s in self.scratches.iter().take(tasks) {
            events += s.alloc_events;
            unconverged += s.unconverged;
            max_sweeps_used = max_sweeps_used.max(s.max_sweeps_used);
        }
        if unconverged > 0 {
            return Err(BatchError::NoConvergence { unconverged, sweeps: ctx.max_sweeps });
        }
        self.shape = Some((rows, cols, count, lanes));
        Ok(BatchStats { problems: count, groups, lanes, max_sweeps_used, alloc_events: events })
    }

    fn expect_shape(&self) -> (usize, usize, usize, usize) {
        self.shape.expect("no completed BatchEngine::run yet")
    }

    /// All singular values, problem-major: problem `i` at `i·cols ..
    /// (i+1)·cols`, sorted descending per problem when
    /// [`BatchOptions::sort`] is set.
    ///
    /// # Panics
    /// Panics before the first successful run.
    #[must_use]
    pub fn sigmas(&self) -> &[f64] {
        let (_, cols, count, _) = self.expect_shape();
        &self.sigma[..count * cols]
    }

    /// Problem `i`'s singular values.
    ///
    /// # Panics
    /// Panics before the first successful run or for `i ≥ count`.
    #[must_use]
    pub fn sigma(&self, i: usize) -> &[f64] {
        let (_, cols, count, _) = self.expect_shape();
        assert!(i < count, "problem index out of range");
        &self.sigma[i * cols..(i + 1) * cols]
    }

    /// Sweeps problem `i` needed to converge (the final empty sweep is
    /// counted, matching the sequential driver).
    ///
    /// # Panics
    /// Panics before the first successful run or for `i ≥ count`.
    #[must_use]
    pub fn sweeps(&self, i: usize) -> usize {
        let (_, _, count, _) = self.expect_shape();
        assert!(i < count, "problem index out of range");
        self.sweeps[i] as usize
    }

    /// Numerical rank of problem `i` (singular values above `‖A‖·n·ε`).
    ///
    /// # Panics
    /// Panics before the first successful run or for `i ≥ count`.
    #[must_use]
    pub fn rank(&self, i: usize) -> usize {
        let (_, _, count, _) = self.expect_shape();
        assert!(i < count, "problem index out of range");
        self.ranks[i] as usize
    }

    /// The right-singular-vector batch (SoA, `cols × cols` problems), or
    /// `None` when vectors were not accumulated.
    #[must_use]
    pub fn v(&self) -> Option<&BatchSoA> {
        (self.shape.is_some() && self.opts.vectors).then_some(&self.v)
    }

    /// Problem `i`'s right singular vectors as a dense matrix (allocates).
    ///
    /// # Panics
    /// Panics before the first successful run or for `i ≥ count`.
    #[must_use]
    pub fn v_problem(&self, i: usize) -> Option<Matrix> {
        self.v().map(|v| v.problem(i))
    }

    /// Consume the engine into an owned [`BatchOutput`].
    #[must_use]
    pub fn into_output(self, stats: BatchStats) -> BatchOutput {
        let (_, cols, count, _) = self.expect_shape();
        BatchOutput {
            count,
            cols,
            v: self.opts.vectors.then_some(self.v),
            sigma: self.sigma,
            sweeps: self.sweeps,
            ranks: self.ranks,
            stats,
        }
    }
}

/// Owned results of one [`batch_svd`] call (`U` lives in the caller's
/// batch, transformed in place).
#[derive(Debug)]
pub struct BatchOutput {
    count: usize,
    cols: usize,
    sigma: Vec<f64>,
    v: Option<BatchSoA>,
    sweeps: Vec<u32>,
    ranks: Vec<u32>,
    /// Run statistics.
    pub stats: BatchStats,
}

impl BatchOutput {
    /// Number of problems solved.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// All singular values, problem-major (`i·cols .. (i+1)·cols`).
    #[must_use]
    pub fn sigmas(&self) -> &[f64] {
        &self.sigma[..self.count * self.cols]
    }

    /// Problem `i`'s singular values.
    ///
    /// # Panics
    /// Panics for `i ≥ count`.
    #[must_use]
    pub fn sigma(&self, i: usize) -> &[f64] {
        assert!(i < self.count, "problem index out of range");
        &self.sigma[i * self.cols..(i + 1) * self.cols]
    }

    /// Sweeps problem `i` needed (final empty sweep counted).
    ///
    /// # Panics
    /// Panics for `i ≥ count`.
    #[must_use]
    pub fn sweeps(&self, i: usize) -> usize {
        assert!(i < self.count, "problem index out of range");
        self.sweeps[i] as usize
    }

    /// Numerical rank of problem `i`.
    ///
    /// # Panics
    /// Panics for `i ≥ count`.
    #[must_use]
    pub fn rank(&self, i: usize) -> usize {
        assert!(i < self.count, "problem index out of range");
        self.ranks[i] as usize
    }

    /// The right-singular-vector batch, if accumulated.
    #[must_use]
    pub fn v(&self) -> Option<&BatchSoA> {
        self.v.as_ref()
    }

    /// Problem `i`'s right singular vectors as a dense matrix (allocates).
    ///
    /// # Panics
    /// Panics for `i ≥ count`.
    #[must_use]
    pub fn v_problem(&self, i: usize) -> Option<Matrix> {
        self.v.as_ref().map(|v| v.problem(i))
    }
}

/// Solve every problem in `a` in place (`A → U`) and return the owned
/// results. One-shot wrapper around [`BatchEngine`]; for repeated batches
/// of the same shape, keep an engine and call [`BatchEngine::run`] to stay
/// allocation-free.
///
/// # Errors
/// [`BatchError::NoConvergence`] if any problem hits the sweep cap (the
/// batch contents are then unspecified).
pub fn batch_svd(a: &mut BatchSoA, opts: &BatchOptions) -> Result<BatchOutput, BatchError> {
    let mut engine = BatchEngine::new(opts.clone());
    let stats = engine.run(a)?;
    Ok(engine.into_output(stats))
}

/// Recursively split the shard slices at group boundaries, forking the
/// right half onto the pool, until each leaf owns one scratch.
#[allow(clippy::too_many_arguments)]
fn shard_split<const L: usize>(
    ctx: &Ctx,
    a: &mut [f64],
    v: &mut [f64],
    sigma: &mut [f64],
    sweeps: &mut [u32],
    ranks: &mut [u32],
    scratches: &mut [ShardScratch],
    g0: usize,
) {
    let groups = sweeps.len() / L;
    if scratches.len() <= 1 || groups <= 1 {
        let scratch = &mut scratches[0];
        run_shard::<L>(ctx, a, v, sigma, sweeps, ranks, scratch, g0);
        return;
    }
    let tasks = scratches.len();
    let left_tasks = tasks / 2;
    // group split proportional to the task split, at least one per side
    let gl = (groups * left_tasks / tasks).clamp(1, groups - 1);
    let (a_l, a_r) = a.split_at_mut(gl * ctx.cols * ctx.rows * L);
    let v_split = if v.is_empty() { 0 } else { gl * ctx.cols * ctx.cols * L };
    let (v_l, v_r) = v.split_at_mut(v_split);
    let (s_l, s_r) = sigma.split_at_mut(gl * L * ctx.cols);
    let (w_l, w_r) = sweeps.split_at_mut(gl * L);
    let (r_l, r_r) = ranks.split_at_mut(gl * L);
    let (sc_l, sc_r) = scratches.split_at_mut(left_tasks);
    par::join(
        || shard_split::<L>(ctx, a_l, v_l, s_l, w_l, r_l, sc_l, g0),
        || shard_split::<L>(ctx, a_r, v_r, s_r, w_r, r_r, sc_r, g0 + gl),
    );
}

/// One leaf shard: run every group's sweep loop and extraction serially.
#[allow(clippy::too_many_arguments)]
fn run_shard<const L: usize>(
    ctx: &Ctx,
    a: &mut [f64],
    v: &mut [f64],
    sigma: &mut [f64],
    sweeps: &mut [u32],
    ranks: &mut [u32],
    scratch: &mut ShardScratch,
    g0: usize,
) {
    let groups = sweeps.len() / L;
    let ga = ctx.cols * ctx.rows * L;
    let gv = ctx.cols * ctx.cols * L;
    for gi in 0..groups {
        let real = ctx.count.saturating_sub((g0 + gi) * L).min(L);
        if real == 0 {
            continue;
        }
        let ag = &mut a[gi * ga..(gi + 1) * ga];
        let vg: &mut [f64] = if ctx.vectors { &mut v[gi * gv..(gi + 1) * gv] } else { &mut [] };
        let shifts = screen_lanes::<L>(ag, real);
        // monomorphize the sweep loop on the path once per group, so the
        // per-pair kernel calls dispatch on a constant and inline
        let sw = &mut sweeps[gi * L..(gi + 1) * L];
        match ctx.path {
            LanePath::Scalar => sweep_group::<L, true>(ctx, ag, vg, real, sw, scratch),
            LanePath::Auto => sweep_group::<L, false>(ctx, ag, vg, real, sw, scratch),
        }
        let sg = &mut sigma[gi * L * ctx.cols..(gi + 1) * L * ctx.cols];
        extract_group::<L>(ctx, ag, real, sg, &mut ranks[gi * L..(gi + 1) * L], scratch);
        for (lane_sigma, &k) in sg.chunks_exact_mut(ctx.cols).zip(&shifts) {
            if k != 0 {
                for s in lane_sigma {
                    *s = mul_pow2(*s, -k);
                }
            }
        }
    }
}

/// Rescale, in place, every lane of a group whose largest entry lies
/// outside the safe window of [`treesvd_matrix::scaling`]; returns the
/// per-lane power-of-two shifts (0 for untouched lanes).
fn screen_lanes<const L: usize>(ag: &mut [f64], real: usize) -> [i32; L] {
    let mut max = [0.0_f64; L];
    for row in ag.chunks_exact(L) {
        for (m, &x) in max.iter_mut().zip(row) {
            *m = m.max(x.abs());
        }
    }
    let mut shifts = [0; L];
    for (k, &m) in shifts.iter_mut().zip(&max).take(real) {
        *k = shift_for(m);
    }
    if shifts.iter().any(|&k| k != 0) {
        for row in ag.chunks_exact_mut(L) {
            for (x, &k) in row.iter_mut().zip(&shifts) {
                *x = mul_pow2(*x, k);
            }
        }
    }
    shifts
}

/// The per-group sweep loop: cyclic-by-rows pairs, all `L` lanes advanced
/// per kernel call, per-lane convergence masks.
fn sweep_group<const L: usize, const SCALAR: bool>(
    ctx: &Ctx,
    ag: &mut [f64],
    vg: &mut [f64],
    real: usize,
    sweeps: &mut [u32],
    scratch: &mut ShardScratch,
) {
    let path = if SCALAR { LanePath::Scalar } else { LanePath::Auto };
    let pl = ctx.rows * L;
    let pv = ctx.cols * L;
    let mut active = [0u64; L];
    for a in active.iter_mut().take(real) {
        *a = u64::MAX;
    }
    let mut sweep: u32 = 0;
    loop {
        sweep += 1;
        let mut changed = [0u64; L];
        for p in 0..ctx.cols.saturating_sub(1) {
            for q in (p + 1)..ctx.cols {
                let (lo, hi) = ag.split_at_mut(q * pl);
                let x = &mut lo[p * pl..(p + 1) * pl];
                let y = &mut hi[..pl];
                let (aa, bb, cc) = gram_lanes::<L>(x, y, path);
                let rot = rotation_lanes::<L>(&aa, &bb, &cc, ctx.threshold, ctx.sort, &active);
                if rot.any_write() {
                    if ctx.vectors {
                        // one dual call rotates the A and V planes together,
                        // sharing the mask/coefficient setup — for small
                        // orders that setup dominates the row loops
                        let (vlo, vhi) = vg.split_at_mut(q * pv);
                        let vx = &mut vlo[p * pv..(p + 1) * pv];
                        rotate_lanes_dual::<L>(&rot, x, y, vx, &mut vhi[..pv], path);
                    } else {
                        rotate_lanes::<L>(&rot, x, y, path);
                    }
                    for (c, w) in changed.iter_mut().zip(rot.write.iter()) {
                        *c |= w;
                    }
                }
            }
        }
        let mut any_active = false;
        for l in 0..L {
            if active[l] != 0 {
                if changed[l] == 0 {
                    // a full sweep without a rotation or swap: converged
                    // (this empty sweep is counted, like the sequential)
                    active[l] = 0;
                    sweeps[l] = sweep;
                } else {
                    any_active = true;
                }
            }
        }
        if !any_active {
            break;
        }
        if sweep as usize >= ctx.max_sweeps {
            for l in 0..L {
                if active[l] != 0 {
                    scratch.unconverged += 1;
                    sweeps[l] = sweep;
                }
            }
            break;
        }
    }
    scratch.max_sweeps_used = scratch.max_sweeps_used.max(sweep);
}

/// Extraction for one group: per-lane column norms, rank tolerance,
/// normalization of the non-zero columns into `U`, orthonormal completion
/// of rank-deficient problems.
fn extract_group<const L: usize>(
    ctx: &Ctx,
    ag: &mut [f64],
    real: usize,
    sigma: &mut [f64],
    ranks: &mut [u32],
    scratch: &mut ShardScratch,
) {
    let pl = ctx.rows * L;
    let norms = &mut scratch.norms[..ctx.cols * L];
    for j in 0..ctx.cols {
        let plane = &ag[j * pl..(j + 1) * pl];
        for l in 0..real {
            norms[j * L + l] = norm2_lane(plane, l, L);
        }
    }
    for l in 0..real {
        let mut max_norm = 0.0_f64;
        for j in 0..ctx.cols {
            max_norm = max_norm.max(norms[j * L + l]);
        }
        let tol = max_norm * ctx.cols as f64 * f64::EPSILON;
        scratch.zero_cols.clear();
        for j in 0..ctx.cols {
            let nj = norms[j * L + l];
            if nj > tol {
                sigma[l * ctx.cols + j] = nj;
                let inv = 1.0 / nj;
                let plane = &mut ag[j * pl..(j + 1) * pl];
                let mut idx = l;
                while idx < pl {
                    plane[idx] *= inv;
                    idx += L;
                }
            } else {
                sigma[l * ctx.cols + j] = 0.0;
                scratch.zero_cols.push(j);
            }
        }
        ranks[l] = (ctx.cols - scratch.zero_cols.len()) as u32;
        if !scratch.zero_cols.is_empty() {
            // gather the problem, complete the zero directions, scatter
            // only the completed columns back
            let gather = &mut scratch.gather[..ctx.rows * ctx.cols];
            for (c, gcol) in gather.chunks_exact_mut(ctx.rows).enumerate() {
                let plane = &ag[c * pl..(c + 1) * pl];
                for (r, g) in gcol.iter_mut().enumerate() {
                    *g = plane[r * L + l];
                }
            }
            complete_orthonormal_cols(
                gather,
                ctx.rows,
                ctx.cols,
                &scratch.zero_cols,
                &mut scratch.cand,
                &mut scratch.best,
            );
            for &c in &scratch.zero_cols {
                let plane = &mut ag[c * pl..(c + 1) * pl];
                let gcol = &scratch.gather[c * ctx.rows..(c + 1) * ctx.rows];
                for (r, &g) in gcol.iter().enumerate() {
                    plane[r * L + l] = g;
                }
            }
        }
    }
}

/// Scaled Euclidean norm of one lane of a plane (`stride = lanes`), the
/// strided counterpart of [`ops::norm2`] — overflow/underflow safe on
/// extreme data.
fn norm2_lane(plane: &[f64], lane: usize, lanes: usize) -> f64 {
    let mut scale = 0.0_f64;
    let mut idx = lane;
    while idx < plane.len() {
        scale = scale.max(plane[idx].abs());
        idx += lanes;
    }
    if scale == 0.0 || !scale.is_finite() {
        return scale;
    }
    let inv = 1.0 / scale;
    let mut acc = 0.0_f64;
    idx = lane;
    while idx < plane.len() {
        let t = plane[idx] * inv;
        acc += t * t;
        idx += lanes;
    }
    scale * acc.sqrt()
}

/// Replace (near-)zero columns of a col-major buffer with unit vectors
/// orthonormal to all other columns — the raw-buffer counterpart of the
/// driver-side `complete_orthonormal`, allocation-free via the caller's
/// `cand`/`best` scratch.
fn complete_orthonormal_cols(
    q: &mut [f64],
    rows: usize,
    cols: usize,
    zero_cols: &[usize],
    cand: &mut [f64],
    best: &mut [f64],
) {
    assert!(rows >= cols, "cannot complete a wide matrix to orthonormal columns");
    let cand = &mut cand[..rows];
    let best = &mut best[..rows];
    for &j in zero_cols {
        let mut best_norm = 0.0_f64;
        // axis candidates; keep the one with the largest residual after
        // orthogonalization for stability
        for axis in 0..rows {
            cand.fill(0.0);
            cand[axis] = 1.0;
            for other in 0..cols {
                if other == j {
                    continue;
                }
                // not-yet-completed zero columns are zero vectors, so
                // orthogonalizing against them is a harmless no-op
                let col = &q[other * rows..(other + 1) * rows];
                let proj = ops::dot(cand, col);
                ops::axpy(-proj, col, cand);
            }
            let norm = ops::norm2(cand);
            if norm > best_norm {
                best_norm = norm;
                best.copy_from_slice(cand);
            }
            if best_norm > 0.7 {
                break; // good enough, avoid O(rows²) scans
            }
        }
        assert!(best_norm > 1e-8, "orthonormal completion failed");
        let norm = ops::norm2(best);
        ops::scal(1.0 / norm, best);
        // one re-orthogonalization pass for numerical hygiene
        for other in 0..cols {
            if other == j {
                continue;
            }
            let col = &q[other * rows..(other + 1) * rows];
            let proj = ops::dot(best, col);
            ops::axpy(-proj, col, best);
        }
        let norm = ops::norm2(best);
        ops::scal(1.0 / norm, best);
        q[j * rows..(j + 1) * rows].copy_from_slice(best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_matrix::generate;

    fn random_batch(rows: usize, cols: usize, count: usize, lanes: usize, seed: u64) -> BatchSoA {
        let ms: Vec<Matrix> =
            (0..count).map(|i| generate::random_uniform(rows, cols, seed + i as u64)).collect();
        BatchSoA::from_matrices(&ms, lanes).unwrap()
    }

    #[test]
    fn diagonal_problems_sort_descending() {
        let ms: Vec<Matrix> = (0..5)
            .map(|i| {
                let d = [1.0 + i as f64, 4.0, 2.5];
                Matrix::diagonal(3, &d).unwrap()
            })
            .collect();
        let mut batch = BatchSoA::from_matrices(&ms, 4).unwrap();
        let out = batch_svd(&mut batch, &BatchOptions::default()).unwrap();
        for i in 0..5 {
            let s = out.sigma(i);
            let mut expect = vec![1.0 + i as f64, 4.0, 2.5];
            expect.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for (got, want) in s.iter().zip(expect.iter()) {
                assert!((got - want).abs() < 1e-12, "problem {i}: {s:?} vs {expect:?}");
            }
            assert_eq!(out.rank(i), 3);
        }
    }

    #[test]
    fn factors_reconstruct_the_input() {
        let rows = 6;
        let cols = 4;
        let ms: Vec<Matrix> =
            (0..10).map(|i| generate::random_uniform(rows, cols, 40 + i as u64)).collect();
        let mut batch = BatchSoA::from_matrices(&ms, 8).unwrap();
        let out = batch_svd(&mut batch, &BatchOptions::default()).unwrap();
        for (i, m) in ms.iter().enumerate() {
            let u = batch.problem(i);
            let v = out.v_problem(i).unwrap();
            let recon = treesvd_matrix::checks::reconstruction_residual(m, &u, out.sigma(i), &v);
            assert!(recon < 1e-12, "problem {i}: residual {recon}");
            assert!(treesvd_matrix::checks::orthogonality_residual(&u) < 1e-12);
            assert!(treesvd_matrix::checks::orthogonality_residual(&v) < 1e-12);
        }
    }

    #[test]
    fn second_same_shape_run_is_allocation_free() {
        let mut engine = BatchEngine::new(BatchOptions::default());
        let mut batch = random_batch(5, 5, 21, 8, 70);
        let first = engine.run(&mut batch).unwrap();
        assert!(first.alloc_events > 0, "first run must size the buffers");
        let mut batch2 = random_batch(5, 5, 21, 8, 170);
        let second = engine.run(&mut batch2).unwrap();
        assert_eq!(second.alloc_events, 0, "steady state must not allocate");
        // results still correct on the reused storage
        assert_eq!(engine.sigmas().len(), 21 * 5);
        assert!(engine.sigma(20).iter().all(|&s| s > 0.0));
    }

    #[test]
    fn vectors_off_skips_v() {
        let mut batch = random_batch(4, 4, 3, 4, 90);
        let out = batch_svd(&mut batch, &BatchOptions::default().with_vectors(false)).unwrap();
        assert!(out.v().is_none());
        assert!(out.v_problem(0).is_none());
        assert!(out.sigma(0).iter().all(|&s| s > 0.0));
    }

    #[test]
    fn single_column_problems_converge_in_one_sweep() {
        let ms: Vec<Matrix> =
            (0..6).map(|i| generate::random_uniform(5, 1, 60 + i as u64)).collect();
        let mut batch = BatchSoA::from_matrices(&ms, 4).unwrap();
        let out = batch_svd(&mut batch, &BatchOptions::default()).unwrap();
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(out.sweeps(i), 1);
            let expect = treesvd_matrix::ops::norm2(m.col(0));
            assert!((out.sigma(i)[0] - expect).abs() < 1e-13 * expect);
            let u = batch.problem(i);
            assert!((treesvd_matrix::ops::norm2(u.col(0)) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn sweep_cap_reports_no_convergence() {
        let mut batch = random_batch(6, 6, 9, 8, 80);
        let err = batch_svd(&mut batch, &BatchOptions::default().with_max_sweeps(1)).unwrap_err();
        match err {
            BatchError::NoConvergence { unconverged, sweeps } => {
                assert!(unconverged > 0 && unconverged <= 9);
                assert_eq!(sweeps, 1);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn engine_recovers_after_a_failed_run() {
        let mut engine = BatchEngine::new(BatchOptions::default().with_max_sweeps(1));
        let mut batch = random_batch(6, 6, 5, 4, 81);
        assert!(engine.run(&mut batch).is_err());
        let mut engine = BatchEngine::new(BatchOptions::default());
        let mut batch = random_batch(6, 6, 5, 4, 81);
        assert!(engine.run(&mut batch).is_ok());
        assert_eq!(engine.sigmas().len(), 30);
    }

    #[test]
    fn thread_counts_agree() {
        let reference = {
            let mut b = random_batch(4, 4, 37, 4, 95);
            batch_svd(&mut b, &BatchOptions::default().with_threads(Some(1))).unwrap()
        };
        for threads in [2, 3, 5, 8] {
            let mut b = random_batch(4, 4, 37, 4, 95);
            let out =
                batch_svd(&mut b, &BatchOptions::default().with_threads(Some(threads))).unwrap();
            assert_eq!(out.sigmas(), reference.sigmas(), "threads={threads}");
        }
    }

    #[test]
    fn rank_deficient_problems_get_completed_factors() {
        let ms: Vec<Matrix> =
            (0..5).map(|i| generate::rank_deficient(6, 4, 2, 200 + i as u64)).collect();
        let mut batch = BatchSoA::from_matrices(&ms, 4).unwrap();
        let out = batch_svd(&mut batch, &BatchOptions::default()).unwrap();
        for i in 0..5 {
            assert_eq!(out.rank(i), 2, "problem {i}");
            let u = batch.problem(i);
            assert!(
                treesvd_matrix::checks::orthogonality_residual(&u) < 1e-11,
                "problem {i}: U not orthonormal after completion"
            );
            assert_eq!(out.sigma(i)[2], 0.0);
            assert_eq!(out.sigma(i)[3], 0.0);
        }
    }
}
