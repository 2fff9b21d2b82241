//! Executing a sweep program on real column data.
//!
//! The executor only rotates and moves columns. The sweep's network cost
//! depends on the program, the machine and the column length, not on the
//! data, so it is priced beforehand by [`analyze_program`] (the drivers
//! price a [`SweepPlan`](crate::SweepPlan) once per shape) and copied into
//! the sweep's [`SweepStats`]. The per-step buffers (permuted slots and
//! layout, pair reports) live in a reusable [`ExecScratch`]. A step's
//! disjoint pairs are solved [`LANES`] at a time: their Gram entries, one
//! SIMD-lane solve of their rotations ([`rotation_lanes`], bit for bit
//! [`compute_rotation`]), then one rotation of each pair's `A` and `V`
//! columns by [`ops::rotate`], which measures nothing. Steps whose work is
//! below [`ExecConfig::serial_cutoff`] run serially; larger steps fork
//! across host cores with [`crate::par::join`].

use crate::analyze::{analyze_program, CommReport};
use crate::machine::Machine;
use crate::par;
use treesvd_matrix::aligned::AlignedBuf;
use treesvd_matrix::ops;
use treesvd_matrix::rotation::{compute_rotation, Rotation};
use treesvd_matrix::soa::{rotation_lanes, LANES};
use treesvd_net::PhaseCost;
use treesvd_orderings::{ColIndex, Program};

/// Whether (and how) the executor keeps singular values ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMode {
    /// Plain Hestenes: columns keep their slots.
    None,
    /// Store the larger-norm column in the slot holding the *smaller*
    /// index label (paper §3.2.1 / §4), so the singular values emerge
    /// sorted once the iteration converges.
    Descending,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Threshold for skipping nearly-orthogonal pairs:
    /// skip when `|a·b| <= threshold * |a||b|`.
    pub threshold: f64,
    /// Sorting behaviour.
    pub sort: SortMode,
    /// Adaptive dispatch cutoff: when a step's work — `n · m` data words,
    /// plus `n · n` when `V` is accumulated — is below this, the rotation
    /// phase runs serially on the calling thread instead of forking scoped
    /// threads. Forking costs tens of microseconds per step; small problems
    /// are faster without it. Set to `0` to always fork, `usize::MAX` to
    /// always run serially.
    pub serial_cutoff: usize,
    /// Maximum fork lanes for a parallel step; `0` means use
    /// [`par::num_threads`] (which itself honors `TREESVD_THREADS`). The
    /// effective lane count is still capped by the machine size (`n / 2`).
    pub threads: usize,
}

impl ExecConfig {
    /// Default [`serial_cutoff`](Self::serial_cutoff): roughly the
    /// per-step word count where forking starts to pay for itself.
    pub const DEFAULT_SERIAL_CUTOFF: usize = 1 << 16;
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            threshold: 1e-14,
            sort: SortMode::Descending,
            serial_cutoff: Self::DEFAULT_SERIAL_CUTOFF,
            threads: 0,
        }
    }
}

/// One processor slot's payload: a matrix column and (optionally) the
/// matching column of the accumulated right-singular-vector matrix `V`,
/// each starting on a 64-byte line. A column moves between slots (and
/// between ranks) by handing over its storage.
#[derive(Debug, Clone, Default)]
pub struct SlotData {
    /// The `A` column (length `m`).
    pub a: AlignedBuf,
    /// The `V` column (length `n`), empty when `V` is not accumulated.
    pub v: AlignedBuf,
}

/// The machine's memory: one [`SlotData`] per slot plus the slot→index
/// layout.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    /// Slot payloads, indexed by slot.
    pub slots: Vec<SlotData>,
    /// Current layout: `layout[slot] = column index`.
    pub layout: Vec<ColIndex>,
}

impl ColumnStore {
    /// Distribute the columns of an `m × n` matrix (given as column
    /// vectors, copied onto lines) over `n` slots in index order, optionally
    /// accumulating `V` (initialized to the identity).
    ///
    /// # Panics
    /// Panics if `columns` is empty or ragged.
    pub fn from_columns(columns: Vec<Vec<f64>>, accumulate_v: bool) -> Self {
        let n = columns.len();
        assert!(n > 0, "no columns");
        let m = columns[0].len();
        let slots = columns
            .into_iter()
            .enumerate()
            .map(|(j, a)| {
                assert_eq!(a.len(), m, "ragged columns");
                let v = if accumulate_v {
                    let mut e = AlignedBuf::zeros(n);
                    e[j] = 1.0;
                    e
                } else {
                    AlignedBuf::new()
                };
                SlotData { a: AlignedBuf::from_slice(&a), v }
            })
            .collect();
        Self { slots, layout: (0..n).collect() }
    }

    /// Number of slots.
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    /// Row count of the stored columns.
    pub fn m(&self) -> usize {
        self.slots.first().map_or(0, |s| s.a.len())
    }

    /// Words one column move carries: `m`, plus `n` when `V` is carried.
    pub fn column_words(&self) -> usize {
        let accumulate_v = self.slots.first().is_some_and(|s| !s.v.is_empty());
        self.m() + if accumulate_v { self.n() } else { 0 }
    }

    /// Extract the columns in *index* order (undoing the slot layout):
    /// `result[i]` is the column labelled `i`.
    pub fn columns_in_index_order(&self) -> Vec<&SlotData> {
        let mut out: Vec<Option<&SlotData>> = vec![None; self.n()];
        for (slot, &idx) in self.layout.iter().enumerate() {
            out[idx] = Some(&self.slots[slot]);
        }
        out.into_iter().map(|o| o.expect("layout is a permutation")).collect()
    }
}

/// Statistics and simulated cost of one executed sweep.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Rotations actually applied (pairs above the threshold).
    pub rotations: usize,
    /// Pairs skipped as already orthogonal.
    pub skips: usize,
    /// Column interchanges performed for sorting (equation (3) applications
    /// beyond what the rotation itself needed).
    pub swaps: usize,
    /// Largest `|a·b| / (|a||b|)` seen before rotation over the sweep — the
    /// convergence measure.
    pub max_coupling: f64,
    /// Simulated compute time.
    pub compute_time: f64,
    /// Simulated communication time.
    pub comm_time: f64,
    /// Per-step communication cost breakdowns.
    pub phases: Vec<PhaseCost>,
    /// Message-count histogram by communication level (index = level).
    pub level_histogram: Vec<usize>,
}

impl SweepStats {
    /// Total simulated time of the sweep.
    pub fn total_time(&self) -> f64 {
        self.compute_time + self.comm_time
    }

    /// Worst per-phase contention factor.
    pub fn max_contention(&self) -> f64 {
        self.phases.iter().map(|p| p.contention).fold(0.0, f64::max)
    }

    /// Whether the sweep changed nothing: no rotations and no swaps — the
    /// paper's termination criterion (§1).
    pub fn is_converged(&self) -> bool {
        self.rotations == 0 && self.swaps == 0
    }
}

/// Outcome of one pair orthogonalization (fed back from the parallel loop).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairReport {
    pub(crate) rotated: bool,
    pub(crate) swapped: bool,
    pub(crate) coupling: f64,
}

/// Reusable per-sweep working memory for [`execute_program_with_scratch`].
///
/// The executor permutes columns and collects pair reports on every step;
/// doing that with fresh `Vec`s is pure allocator churn. A scratch owns
/// those buffers and hands them back after each step, so once a first
/// sweep has sized them (the warm-up) a serial sweep makes **no heap
/// allocation per step**: its only allocations are the two vectors of the
/// [`SweepStats`] it returns, whatever the size. A counting global
/// allocator asserts that (`tests/executor_alloc.rs`);
/// [`alloc_events`](Self::alloc_events) counts every time a scratch buffer
/// had to grow.
#[derive(Debug, Default)]
pub struct ExecScratch {
    new_slots: Vec<SlotData>,
    new_layout: Vec<ColIndex>,
    reports: Vec<PairReport>,
    alloc_events: u64,
}

impl ExecScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times any scratch buffer has had to (re)allocate since
    /// creation. Stable across repeated same-shape executions after the
    /// first — the executor's zero-alloc-per-step guarantee.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize, events: &mut u64) {
        if v.capacity() < len {
            *events += 1;
        }
        v.resize(len, T::default());
    }

    /// Size every buffer for an `n`-column program.
    fn ensure(&mut self, n: usize) {
        Self::grow(&mut self.new_slots, n, &mut self.alloc_events);
        Self::grow(&mut self.new_layout, n, &mut self.alloc_events);
        Self::grow(&mut self.reports, n / 2, &mut self.alloc_events);
    }
}

/// Execute one sweep program against the column store.
///
/// Convenience wrapper that prices the program with [`analyze_program`]
/// and pays for a fresh [`ExecScratch`] on every call. The core drivers
/// instead take each program and its report from a
/// [`SweepPlan`](crate::SweepPlan) priced once per shape and kept across
/// solves, hold one scratch per solve, and call
/// [`execute_program_with_scratch`].
///
/// # Panics
/// Panics if the program's size disagrees with the store or machine.
pub fn execute_program(
    machine: &Machine,
    program: &Program,
    store: &mut ColumnStore,
    config: &ExecConfig,
) -> SweepStats {
    let priced = analyze_program(machine, program, store.column_words() as u64);
    let mut scratch = ExecScratch::new();
    execute_program_with_scratch(machine, program, &priced, store, config, &mut scratch)
}

/// Execute one sweep program against the column store, reusing `scratch`
/// for all per-step working memory.
///
/// Rotations of a step run in parallel over processors (each processor's
/// pair occupies two adjacent slots, so a recursive split at even offsets
/// gives data-race-free disjoint access); steps below
/// [`ExecConfig::serial_cutoff`] run serially. Movement is applied between
/// steps. The sweep's communication cost is copied from `priced`, which
/// must be this program's own [`analyze_program`] report for columns of
/// [`ColumnStore::column_words`] words, such as the
/// [`SweepPlan::price`](crate::SweepPlan::price) entry of the program's
/// sweep: the report depends on the program, the machine and the column
/// length only, so one report serves every sweep of every solve that runs
/// the program on that machine. Its step count and column length
/// are checked; the report of another program with as many steps (the
/// other half of a period-2 ordering) is not detected.
///
/// # Panics
/// Panics if the program's size disagrees with the store, machine or
/// `priced`, or if `priced` was priced for another column length.
pub fn execute_program_with_scratch(
    machine: &Machine,
    program: &Program,
    priced: &CommReport,
    store: &mut ColumnStore,
    config: &ExecConfig,
    scratch: &mut ExecScratch,
) -> SweepStats {
    let n = program.n;
    assert_eq!(store.n(), n, "store/program size mismatch");
    assert!(machine.slots() >= n, "machine too small for the program");
    assert_eq!(store.layout, program.initial_layout, "layout disagrees with program");
    assert_eq!(priced.phases.len(), program.steps.len(), "priced report/program mismatch");

    let column_words = store.column_words();
    // analyze_program stores rotation_cost(words) · steps, so this catches
    // a report priced with V on for a store without V, or the reverse
    assert_eq!(
        priced.compute_time.to_bits(),
        (machine.cost().rotation_cost(column_words) * program.steps.len() as f64).to_bits(),
        "priced report is for another column length"
    );

    let mut stats = SweepStats {
        rotations: 0,
        skips: 0,
        swaps: 0,
        max_coupling: 0.0,
        compute_time: 0.0,
        comm_time: priced.comm_time,
        phases: priced.phases.clone(),
        level_histogram: priced.level_histogram.clone(),
    };

    scratch.ensure(n);

    // Adaptive dispatch: fork only when a step moves enough data to
    // amortize the queue handoff to the worker pool.
    let step_work = n * column_words;
    let lanes = if config.threads == 0 { par::num_threads() } else { config.threads };
    let tasks = if step_work < config.serial_cutoff { 1 } else { lanes.min(n / 2).max(1) };
    let ctx = RotCtx { threshold: config.threshold, sort: config.sort };

    for step in &program.steps {
        // --- compute phase: rotate every processor's pair ---
        let ColumnStore { slots, layout } = &mut *store;
        rotate_pairs(slots, &mut scratch.reports, layout, 0, tasks, &ctx);
        for r in &scratch.reports {
            if r.rotated {
                stats.rotations += 1;
            } else {
                stats.skips += 1;
            }
            if r.swapped {
                stats.swaps += 1;
            }
            stats.max_coupling = stats.max_coupling.max(r.coupling);
        }
        // summed step by step, not taken from `priced`: analyze_program
        // multiplies, which rounds differently
        stats.compute_time += machine.cost().rotation_cost(column_words);

        // --- communication phase: move the columns (and the layout labels)
        apply_movement(store, &step.move_after, scratch);
    }
    stats
}

/// Per-pair rotation parameters shared across the fork tree.
#[derive(Clone, Copy)]
struct RotCtx {
    threshold: f64,
    sort: SortMode,
}

/// Rotate the pairs covered by `slots`/`reports` (pair `p` of this chunk is
/// global pair `base + p`), forking into at most `tasks` leaves.
///
/// A leaf takes its pairs in groups of [`LANES`]: the Gram entries of every
/// pair of the group, then one lane solve of the group's rotations, then
/// the pairs' updates. Lanes past a short group see zero Gram entries,
/// which skip. The lanes give [`compute_rotation`]'s bits, so each pair
/// comes out as [`rotate_pair`] would leave it.
fn rotate_pairs(
    slots: &mut [SlotData],
    reports: &mut [PairReport],
    layout: &[ColIndex],
    base: usize,
    tasks: usize,
    ctx: &RotCtx,
) {
    let pairs = reports.len();
    if tasks > 1 && pairs > 1 {
        let mid = pairs / 2;
        let (sl, sr) = slots.split_at_mut(2 * mid);
        let (rl, rr) = reports.split_at_mut(mid);
        par::join(
            || rotate_pairs(sl, rl, layout, base, tasks / 2, ctx),
            || rotate_pairs(sr, rr, layout, base + mid, tasks - tasks / 2, ctx),
        );
        return;
    }
    let groups = slots.chunks_mut(2 * LANES).zip(reports.chunks_mut(LANES));
    for (k, (group, reps)) in groups.enumerate() {
        let mut gram = [[0.0; LANES]; 3];
        for (p, pair) in group.chunks_exact(2).enumerate() {
            (gram[0][p], gram[1][p], gram[2][p]) = ops::gram3(&pair[0].a, &pair[1].a);
        }
        let [alpha, beta, gamma] = &gram;
        let rots = rotation_lanes(alpha, beta, gamma, ctx.threshold, false, &[u64::MAX; LANES]);
        for (p, (pair, rep)) in group.chunks_exact_mut(2).zip(reps.iter_mut()).enumerate() {
            let (left, right) = pair.split_at_mut(1);
            let rot = Rotation { c: rots.c[p], s: rots.s[p], skipped: rots.write[p] == 0 };
            // sorting rule: the larger-norm column must end in the slot
            // holding the smaller index label
            let g = base + k * LANES + p;
            let small_label_on_left = layout[2 * g] < layout[2 * g + 1];
            *rep = update_pair(
                &mut left[0],
                &mut right[0],
                rot,
                (alpha[p], beta[p], gamma[p]),
                ctx.sort,
                small_label_on_left,
            );
        }
    }
}

/// Orthogonalize one resident pair, honouring the sorting rule: the Gram
/// entries, [`compute_rotation`], then [`update_pair`]. The distributed
/// worker runs this, and it is the per-pair reference for the lane groups
/// of [`rotate_pairs`].
pub(crate) fn rotate_pair(
    left: &mut SlotData,
    right: &mut SlotData,
    threshold: f64,
    sort: SortMode,
    small_label_on_left: bool,
) -> PairReport {
    let (alpha, beta, gamma) = ops::gram3(&left.a, &right.a);
    let rot = compute_rotation(alpha, beta, gamma, threshold);
    update_pair(left, right, rot, (alpha, beta, gamma), sort, small_label_on_left)
}

/// Apply a pair's solved rotation (its Gram entries `(α, β, γ)` given):
/// decide the sorting swap, then rotate the `A` columns and, when vectors
/// are carried, the `V` columns with [`ops::rotate`], which measures
/// nothing. A skipped rotation that needs no swap writes nothing.
fn update_pair(
    left: &mut SlotData,
    right: &mut SlotData,
    rot: Rotation,
    (alpha, beta, gamma): (f64, f64, f64),
    sort: SortMode,
    small_label_on_left: bool,
) -> PairReport {
    let coupling =
        if alpha > 0.0 && beta > 0.0 { gamma.abs() / (alpha.sqrt() * beta.sqrt()) } else { 0.0 };
    let need_swap = need_swap(rot, alpha, beta, gamma, sort, small_label_on_left);
    if rot.skipped && !need_swap {
        return PairReport { rotated: false, swapped: false, coupling };
    }
    // V is empty when it is not carried
    ops::rotate(rot.c, rot.s, &mut left.a, &mut right.a, need_swap);
    ops::rotate(rot.c, rot.s, &mut left.v, &mut right.v, need_swap);
    PairReport { rotated: !rot.skipped, swapped: need_swap, coupling }
}

/// Decide whether the swapped update (equation (3)) is required: under
/// [`SortMode::Descending`] the larger-norm column must end up in the slot
/// holding the smaller index label. Uses the rotation-algebra predicted
/// norms so the decision is made before touching the column data. Only a
/// strictly larger norm on the wrong side swaps: two equal columns (two
/// zero columns, say) stay put, or they would swap at every meeting and
/// no sweep would ever be swap-free.
fn need_swap(
    rot: Rotation,
    alpha: f64,
    beta: f64,
    gamma: f64,
    sort: SortMode,
    small_label_on_left: bool,
) -> bool {
    match sort {
        SortMode::None => false,
        SortMode::Descending => {
            let (alpha_new, beta_new) = if rot.skipped {
                (alpha, beta)
            } else {
                let (c, s) = (rot.c, rot.s);
                (
                    c * c * alpha - 2.0 * c * s * gamma + s * s * beta,
                    s * s * alpha + 2.0 * c * s * gamma + c * c * beta,
                )
            };
            if small_label_on_left {
                beta_new > alpha_new
            } else {
                alpha_new > beta_new
            }
        }
    }
}

/// Apply a slot permutation to the store (columns and layout labels),
/// recycling the scratch's buffers.
fn apply_movement(
    store: &mut ColumnStore,
    perm: &treesvd_orderings::schedule::Permutation,
    scratch: &mut ExecScratch,
) {
    let n = store.n();
    for s in 0..n {
        let d = perm.dest_of(s);
        scratch.new_slots[d] = std::mem::take(&mut store.slots[s]);
        scratch.new_layout[d] = store.layout[s];
    }
    std::mem::swap(&mut store.slots, &mut scratch.new_slots);
    std::mem::swap(&mut store.layout, &mut scratch.new_layout);
}

/// Work threshold (in multiply-adds) below which [`off_measure`] stays
/// serial.
const OFF_MEASURE_SERIAL_CUTOFF: usize = 1 << 17;

/// The exact off-diagonal measure of the store's columns:
/// `off = sqrt(sum_{i<j} (a_i . a_j)^2)` — the quantity whose per-sweep
/// decay is ultimately quadratic (paper §1). O(n² m): use for
/// instrumentation, not in the hot path. Large stores are measured in
/// parallel (strided over `i` to balance the triangular loop).
pub fn off_measure(store: &ColumnStore) -> f64 {
    off_measure_limited(store, 0)
}

/// [`off_measure`] with an explicit lane cap: `threads == 0` means use
/// [`par::num_threads`]. Lets callers honor a configured thread budget.
pub fn off_measure_limited(store: &ColumnStore, threads: usize) -> f64 {
    let n = store.n();
    let work = n * n * store.m() / 2;
    let lanes = if threads == 0 { par::num_threads() } else { threads };
    let tasks = if work < OFF_MEASURE_SERIAL_CUTOFF { 1 } else { lanes };
    par::par_sum_indexed(n, tasks, |i| {
        let mut acc = 0.0;
        for j in (i + 1)..n {
            let d = ops::dot(&store.slots[i].a, &store.slots[j].a);
            acc += d * d;
        }
        acc
    })
    .sqrt()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use treesvd_net::TopologyKind;
    use treesvd_orderings::{FatTreeOrdering, JacobiOrdering, OrderingKind, RoundRobinOrdering};

    fn store_from(m: usize, n: usize, seed: u64, v: bool) -> ColumnStore {
        let mat = treesvd_matrix::generate::random_uniform(m, n, seed);
        ColumnStore::from_columns(mat.into_columns(), v)
    }

    fn machine(n: usize) -> Machine {
        Machine::with_kind(TopologyKind::PerfectFatTree, n / 2)
    }

    #[test]
    fn one_sweep_reduces_coupling() {
        let n = 8;
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mut store = store_from(12, n, 1, false);
        let mac = machine(n);
        let mut layout = ord.initial_layout();
        let mut couplings = Vec::new();
        for k in 0..8 {
            let prog = ord.sweep_program(k, &layout);
            let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
            layout = prog.final_layout();
            couplings.push(stats.max_coupling);
            if stats.is_converged() {
                break;
            }
        }
        assert!(couplings.len() >= 2);
        assert!(couplings.last().unwrap() < &1e-8, "did not converge: {couplings:?}");
    }

    #[test]
    fn sweep_preserves_frobenius_mass() {
        let n = 8;
        let ord = FatTreeOrdering::new(n).unwrap();
        let mut store = store_from(10, n, 2, false);
        let before: f64 = store.slots.iter().map(|s| treesvd_matrix::ops::norm2_sq(&s.a)).sum();
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let mac = machine(n);
        execute_program(&mac, &prog, &mut store, &ExecConfig::default());
        let after: f64 = store.slots.iter().map(|s| treesvd_matrix::ops::norm2_sq(&s.a)).sum();
        assert!((before - after).abs() < 1e-10 * before);
    }

    #[test]
    fn layout_tracking_matches_program() {
        let n = 8;
        let ord = FatTreeOrdering::new(n).unwrap();
        let mut store = store_from(6, n, 3, false);
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let mac = machine(n);
        execute_program(&mac, &prog, &mut store, &ExecConfig::default());
        assert_eq!(store.layout, prog.final_layout());
    }

    #[test]
    fn v_accumulation_tracks_rotations() {
        // A V = H must hold after any number of sweeps
        let n = 8;
        let m = 10;
        let mat = treesvd_matrix::generate::random_uniform(m, n, 4);
        let mut store = ColumnStore::from_columns(mat.clone().into_columns(), true);
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mac = machine(n);
        let mut layout = ord.initial_layout();
        for k in 0..3 {
            let prog = ord.sweep_program(k, &layout);
            execute_program(&mac, &prog, &mut store, &ExecConfig::default());
            layout = prog.final_layout();
        }
        // check A * v_j == h_j for each column (in index order)
        let cols = store.columns_in_index_order();
        for col in cols {
            let mut av = vec![0.0; m];
            for (j, &vj) in col.v.iter().enumerate() {
                for (r, avr) in av.iter_mut().enumerate() {
                    *avr += mat.get(r, j) * vj;
                }
            }
            for (r, &h) in col.a.iter().enumerate() {
                assert!((av[r] - h).abs() < 1e-10, "A·v != h at row {r}");
            }
        }
    }

    #[test]
    fn stats_add_up() {
        let n = 8;
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mut store = store_from(6, n, 5, false);
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let mac = machine(n);
        let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
        assert_eq!(stats.rotations + stats.skips, (n / 2) * (n - 1));
        assert_eq!(stats.phases.len(), n - 1);
        assert!(stats.total_time() > 0.0);
        assert!(stats.max_coupling > 0.0);
    }

    #[test]
    fn orthogonal_input_converges_immediately_without_sort() {
        let n = 8;
        let mat = treesvd_matrix::generate::already_orthogonal(10, n, 6);
        let mut store = ColumnStore::from_columns(mat.into_columns(), false);
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mac = machine(n);
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let cfg = ExecConfig { threshold: 1e-12, sort: SortMode::None, ..ExecConfig::default() };
        let stats = execute_program(&mac, &prog, &mut store, &cfg);
        assert!(stats.is_converged(), "{stats:?}");
    }

    #[test]
    fn scratch_reuse_is_zero_alloc_after_warmup() {
        // after one sweep warms the scratch up, further sweeps of the same
        // shape must not grow any scratch buffer — the zero-alloc-per-step
        // acceptance criterion.
        let n = 8;
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mut store = store_from(12, n, 21, false);
        let mac = machine(n);
        let cfg = ExecConfig::default();
        let mut scratch = ExecScratch::new();
        let mut layout = ord.initial_layout();
        let words = store.column_words() as u64;
        let prog = ord.sweep_program(0, &layout);
        let priced = analyze_program(&mac, &prog, words);
        execute_program_with_scratch(&mac, &prog, &priced, &mut store, &cfg, &mut scratch);
        layout = prog.final_layout();
        let warm = scratch.alloc_events();
        assert!(warm > 0, "warm-up should have populated the scratch");
        for k in 1..4 {
            let prog = ord.sweep_program(k, &layout);
            let priced = analyze_program(&mac, &prog, words);
            execute_program_with_scratch(&mac, &prog, &priced, &mut store, &cfg, &mut scratch);
            layout = prog.final_layout();
        }
        assert_eq!(scratch.alloc_events(), warm, "scratch reallocated after warm-up");
    }

    #[test]
    #[should_panic(expected = "priced report is for another column length")]
    fn a_report_priced_for_another_column_length_is_rejected() {
        // V carried: a move is 12 + 8 words, so a report priced for the
        // 12-word A column alone must be refused
        let n = 8;
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mut store = store_from(12, n, 23, true);
        let mac = machine(n);
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let priced = analyze_program(&mac, &prog, store.m() as u64);
        let mut scratch = ExecScratch::new();
        execute_program_with_scratch(
            &mac,
            &prog,
            &priced,
            &mut store,
            &ExecConfig::default(),
            &mut scratch,
        );
    }

    #[test]
    fn slot_columns_stay_on_lines_through_sweeps() {
        // a step hands each moving column over with its storage, so after
        // sweeps run serially and forked every A and V column still starts
        // on a 64-byte line (12 rows: not a whole number of lines)
        let n = 16;
        let ord = FatTreeOrdering::new(n).unwrap();
        let mac = machine(n);
        for (threads, serial_cutoff) in [(1, usize::MAX), (2, 0)] {
            let mut store = store_from(12, n, 29, true);
            let cfg = ExecConfig { threads, serial_cutoff, ..ExecConfig::default() };
            let mut layout = ord.initial_layout();
            for k in 0..3 {
                let prog = ord.sweep_program(k, &layout);
                execute_program(&mac, &prog, &mut store, &cfg);
                layout = prog.final_layout();
                assert!(slots_on_lines(&store.slots, true), "{threads} thread(s), sweep {k}");
            }
        }
    }

    /// Whether every slot's `A` column, and its `V` column when `vectors`
    /// (else `V` is empty), starts on a 64-byte line.
    pub(crate) fn slots_on_lines(slots: &[SlotData], vectors: bool) -> bool {
        let on_line = |x: &[f64]| (x.as_ptr() as usize).is_multiple_of(64);
        slots.iter().all(|s| on_line(&s.a) && if vectors { on_line(&s.v) } else { s.v.is_empty() })
    }

    /// Bit patterns of every `A` and `V` entry, slot by slot.
    pub(crate) fn slot_bits(slots: &[SlotData]) -> Vec<u64> {
        slots.iter().flat_map(|s| s.a.iter().chain(s.v.iter())).map(|x| x.to_bits()).collect()
    }

    /// The columns of an `m × n` uniform input whose columns 1 and 3 tie
    /// the norms of columns 0 and 2 (a copy and a negated copy) and whose
    /// last two columns are zero, like padding.
    pub(crate) fn tied_columns(m: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut cols = treesvd_matrix::generate::random_uniform(m, n, seed).into_columns();
        cols[1] = cols[0].clone();
        cols[3] = cols[2].iter().map(|x| -x).collect();
        cols[n - 1].fill(0.0);
        cols[n - 2].fill(0.0);
        cols
    }

    #[test]
    fn forked_execution_matches_serial_bitwise() {
        // the fork tree partitions the same disjoint pairs, and a leaf's
        // lane groups solve each pair as the serial groups do, so forcing
        // parallel dispatch on 2 or 3 lanes must give bit-identical columns
        // and stats. 9, 17 and 32 pairs: short groups and whole ones.
        for (n, kind) in [
            (18, OrderingKind::RoundRobin),
            (34, OrderingKind::NewRing),
            (64, OrderingKind::FatTree),
        ] {
            let ord = kind.build(n).unwrap();
            let mac = Machine::with_kind(TopologyKind::PerfectFatTree, (n / 2).next_power_of_two());
            for tied in [false, true] {
                let run = |cutoff: usize, threads: usize| {
                    let mut store = if tied {
                        ColumnStore::from_columns(tied_columns(n + 4, n, 22), true)
                    } else {
                        store_from(n + 4, n, 22, true)
                    };
                    let cfg =
                        ExecConfig { serial_cutoff: cutoff, threads, ..ExecConfig::default() };
                    let mut layout = ord.initial_layout();
                    let mut stats = Vec::new();
                    for k in 0..3 {
                        let prog = ord.sweep_program(k, &layout);
                        let st = execute_program(&mac, &prog, &mut store, &cfg);
                        stats.push((st.rotations, st.skips, st.swaps, st.max_coupling.to_bits()));
                        layout = prog.final_layout();
                    }
                    (slot_bits(&store.slots), store.layout, stats)
                };
                let serial = run(usize::MAX, 1);
                for threads in [2, 3] {
                    assert!(serial == run(0, threads), "n {n} tied {tied}: {threads} lanes differ");
                }
            }
        }
    }

    #[test]
    fn off_measure_parallel_matches_serial_closely() {
        // large enough to cross OFF_MEASURE_SERIAL_CUTOFF
        let store = store_from(64, 128, 23, false);
        let par = off_measure(&store);
        let mut acc = 0.0;
        for i in 0..store.n() {
            for j in (i + 1)..store.n() {
                let d = ops::dot(&store.slots[i].a, &store.slots[j].a);
                acc += d * d;
            }
        }
        let serial = acc.sqrt();
        assert!((par - serial).abs() <= 1e-12 * serial.max(1.0), "{par} vs {serial}");
    }

    #[test]
    fn sorting_mode_moves_larger_norm_to_smaller_label() {
        // columns with increasing norms: after enough sweeps with sorting,
        // label 0 should hold the largest-norm column
        let n = 8;
        let m = 8;
        let mat = treesvd_matrix::generate::already_orthogonal(m, n, 7);
        // already_orthogonal gives norms 1..n increasing with the label
        let mut store = ColumnStore::from_columns(mat.into_columns(), false);
        let ord = RoundRobinOrdering::new(n).unwrap();
        let mac = machine(n);
        let mut layout = ord.initial_layout();
        for k in 0..6 {
            let prog = ord.sweep_program(k, &layout);
            let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
            layout = prog.final_layout();
            if stats.is_converged() {
                break;
            }
        }
        let cols = store.columns_in_index_order();
        let norms: Vec<f64> =
            cols.iter().map(|c| treesvd_matrix::ops::norm2_sq(&c.a).sqrt()).collect();
        assert!(treesvd_matrix::checks::is_nonincreasing(&norms), "norms not sorted: {norms:?}");
    }
}
