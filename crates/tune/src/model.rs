//! The decision procedure: score every candidate execution config with
//! the calibrated cost model and keep the cheapest.
//!
//! Every solve runs the QR front-end, so the model prices three driver
//! families on the `n×n` factor `R₂ᵀ` the sweeps run on (`A·P = QR`, then
//! `Rᵀ = Q₂R₂`), in nanoseconds, and adds the front-end's own toll:
//!
//! * **blocked** — `2p` block columns of width `c`; each step runs `p`
//!   meetings priced by
//!   [`CostModel::gram_meeting_cost`]/[`pairwise_meeting_cost`]
//!   (per-phase compute terms), plus a fixed per-step handshake.
//! * **distributed** — one rank thread per column pair; each step is one
//!   rotation per rank plus the transport's fixed message cost (the
//!   zero-copy payload moves by pointer, so no per-word term) and the
//!   cross-thread hand-off that wakes the ranks.
//! * **simulated** — the sweep-program executor: one rotation per column
//!   pair per step plus the same fixed per-step handshake. Its traffic is
//!   priced once per program, outside the sweep loop, so no routing term
//!   is charged.
//!
//! The blocked and simulated drivers run a step on the calling thread
//! while it touches fewer than [`ExecConfig::DEFAULT_SERIAL_CUTOFF`]
//! words (the cutoff a plan's options keep), and fork it over the pool
//! lanes above that. So a serial step costs the sum of its meetings or
//! rotations, and a forked step one lane's share.
//!
//! Ordering selection reuses the data-free
//! [`analyze_program`](treesvd_sim::analyze_program) comm analysis (link
//! words from `phase_cost`) on the problem's topology, so the choice is
//! the paper's §5 analysis run under the calibrated constants rather
//! than a hard-coded table.

use treesvd_net::{CostModel, Topology, TopologyKind};
use treesvd_orderings::OrderingKind;
use treesvd_sim::{analyze_program, ExecConfig, Machine};

use crate::calib::Calibration;
use crate::plan::{DriverSel, KernelSel, TunePlan, TuneProblem};

/// Thread-spawn cost charged per distributed rank (the executor spawns
/// fresh rank threads per run; the blocked/simulated pool is persistent).
const SPAWN_NS: f64 = 25_000.0;

/// Cross-thread hand-off charged per distributed step: each step parks
/// and wakes the rank threads on their neighbours' messages, which the
/// same-thread `msg_ns` probe does not see. Measured on a 2-vCPU x86-64
/// host: a 2-rank solve (4×4, one rank per core) spent about 15 µs a
/// step beyond its rotations and thread spawns.
const RANK_HANDOFF_NS: f64 = 15_000.0;

/// Mild penalty on oversubscribed distributed ranks (context switching).
const OVERSUB_PENALTY: f64 = 1.25;

/// Empirical sweep-count estimate for one-sided Jacobi at width `n`
/// (quadratic convergence: grows like log₂ n; the recorded benches sit
/// at 7–9 sweeps for n ∈ 16..256).
fn est_sweeps(n: usize) -> f64 {
    let lg = (usize::BITS - n.max(2).leading_zeros()) as f64;
    (lg + 2.0).clamp(4.0, 12.0)
}

/// Per-pair rotation compute: the streamed A-rotation plus the V-row
/// update (the inner solve on `R₂ᵀ` always accumulates its `V`).
fn pair_compute_ns(cm: &CostModel, me: usize, ne: usize) -> f64 {
    cm.rotation_cost(me) + cm.gamma * (8 * ne) as f64
}

/// How many of a step's `tasks` (meetings or pair rotations) one lane
/// runs: all of them when the step touches fewer than the default serial
/// cutoff's words (both in-process drivers then stay on the calling
/// thread), otherwise an even share over up to `lanes` lanes.
fn tasks_per_lane(words: usize, lanes: usize, tasks: usize) -> usize {
    if words < ExecConfig::DEFAULT_SERIAL_CUTOFF {
        tasks
    } else {
        tasks.div_ceil(lanes.max(1))
    }
}

/// One scored driver candidate.
#[derive(Debug, Clone, Copy)]
struct DriverScore {
    driver: DriverSel,
    kernel: KernelSel,
    block_cols: u16,
    threads: u16,
    total_ns: f64,
}

/// Score the blocked driver at block-pair count `p`.
fn score_blocked(cm: &CostModel, cal: &Calibration, me: usize, ne: usize, p: usize) -> DriverScore {
    let c = ne.div_ceil(2 * p).max(1);
    let n_super = 2 * p;
    let steps = (n_super - 1).max(1) as f64;
    // A union panel (and the `ne`-row V panel riding with it) must stay
    // cache-resident for the Gram kernel's panel rate to hold; the
    // hierarchical level (always planned as Auto) restores residency for
    // oversized unions at a small strip-cycling overhead.
    let union_bytes = 8 * 2 * c * (me + ne + 2 * c);
    let resident = union_bytes <= cal.l2_bytes;
    let (kernel, mut meeting) = if c >= 2 {
        (KernelSel::Gram, cm.gram_meeting_cost(c, me, ne, true))
    } else {
        (KernelSel::Pairwise, cm.pairwise_meeting_cost(c, me, ne))
    };
    if kernel == KernelSel::Gram && !resident {
        // hier strip cycling: extra pass over the union per strip level
        meeting *= 1.15;
    }
    // the step's p meetings, on one lane below the serial cutoff or over
    // p pool lanes above it (candidates keep p ≤ P), plus one handshake
    let n_pad = n_super * c;
    let step_words = n_pad * (me + n_pad);
    let step = tasks_per_lane(step_words, p, p) as f64 * meeting + 2.0 * cm.alpha;
    DriverScore {
        driver: DriverSel::Blocked { processors: p.min(u16::MAX as usize) as u16 },
        kernel,
        block_cols: c.min(u16::MAX as usize) as u16,
        threads: p.min(u16::MAX as usize) as u16,
        total_ns: est_sweeps(ne) * steps * step,
    }
}

/// Score the thread-per-rank distributed executor (zero-copy transport).
fn score_distributed(cm: &CostModel, me: usize, ne_pad: usize, p: usize) -> DriverScore {
    let ranks = (ne_pad / 2).max(1);
    let q = ranks.div_ceil(p.max(1)) as f64;
    let comp = pair_compute_ns(cm, me, ne_pad) * q * if q > 1.0 { OVERSUB_PENALTY } else { 1.0 };
    let step = comp + 2.0 * cm.alpha + RANK_HANDOFF_NS;
    let steps = (ne_pad - 1).max(1) as f64;
    DriverScore {
        driver: DriverSel::Distributed,
        kernel: KernelSel::Pairwise,
        block_cols: 1,
        threads: ranks.min(u16::MAX as usize) as u16,
        total_ns: est_sweeps(ne_pad) * steps * step + SPAWN_NS * ranks as f64,
    }
}

/// Score the simulated sweep-program executor.
fn score_simulated(cm: &CostModel, me: usize, ne_pad: usize, p: usize) -> DriverScore {
    let pairs = (ne_pad / 2).max(1);
    let lanes = p.clamp(1, pairs);
    let comp = pair_compute_ns(cm, me, ne_pad);
    // the step's rotations, on one lane below the serial cutoff or over
    // the pool lanes above it, plus one handshake
    let step_words = ne_pad * (me + ne_pad);
    let step = tasks_per_lane(step_words, lanes, pairs) as f64 * comp + 2.0 * cm.alpha;
    let steps = (ne_pad - 1).max(1) as f64;
    DriverScore {
        driver: DriverSel::Simulated,
        kernel: KernelSel::Pairwise,
        block_cols: 1,
        threads: lanes.min(u16::MAX as usize) as u16,
        total_ns: est_sweeps(ne_pad) * steps * step,
    }
}

/// Choose the ordering for a sweep unit of `n_eff` columns by replaying
/// each buildable ordering's sweep program through the data-free comm
/// analysis on the problem's topology (calibrated `phase_cost` +
/// `rotation_cost`). Falls back to the first buildable kind of the
/// paper's preference order when the unit is too large to analyze or the
/// leaf count is not a power of two (the `Topology` constructor's
/// requirement).
fn pick_ordering(topology: TopologyKind, n_eff: usize, words: u64, cm: &CostModel) -> OrderingKind {
    const PREFERENCE: [OrderingKind; 5] = [
        OrderingKind::FatTree,
        OrderingKind::NewRing,
        OrderingKind::ModifiedRing,
        OrderingKind::Ring,
        OrderingKind::RoundRobin,
    ];
    let fallback =
        PREFERENCE.into_iter().find(|k| k.build(n_eff).is_ok()).unwrap_or(OrderingKind::RoundRobin);
    let leaves = n_eff / 2;
    if !leaves.is_power_of_two() || leaves < 2 || n_eff > 256 {
        return fallback;
    }
    let machine = Machine::new(Topology::new(topology, leaves), *cm);
    let mut best: Option<(OrderingKind, f64)> = None;
    for kind in OrderingKind::ALL {
        let Ok(ord) = kind.build(n_eff) else { continue };
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let rep = analyze_program(&machine, &prog, words);
        let t = rep.total_time();
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((kind, t));
        }
    }
    best.map_or(fallback, |(k, _)| k)
}

/// The ordering for the blocked driver's super-column sweep: the first
/// buildable kind of the convergence preference order (rotation order is
/// all an in-process ordering changes).
fn blocked_ordering(n_super: usize) -> OrderingKind {
    [
        OrderingKind::FatTree,
        OrderingKind::NewRing,
        OrderingKind::ModifiedRing,
        OrderingKind::Ring,
        OrderingKind::RoundRobin,
    ]
    .into_iter()
    .find(|k| k.build(n_super).is_ok())
    .unwrap_or(OrderingKind::RoundRobin)
}

/// The QR front-end's toll on an `m × n` input: the `2mn²` flops of the
/// factorization `A·P = QR` plus the `2mn²` of the back-transform
/// `U ← Q·[Ũ₂; 0]` (which runs whether or not the caller wants vectors,
/// since one-sided Jacobi always returns `U`), and the same pair for the
/// `n×n` second factorization `Rᵀ = Q₂R₂` and its back-transform
/// `Q₂·Ṽ₂`: `4n²·(m + n)` flops at the panel rate, with 1.5× for the
/// TSQR tree's reduction overhead.
fn frontend_toll_ns(cm: &CostModel, m: usize, n: usize) -> f64 {
    4.0 * (n * n * (m + n)) as f64 * cm.gamma_panel * 1.5
}

/// Run the full decision procedure (the cold path behind
/// [`plan_for`](crate::plan_for)).
#[must_use]
pub fn compute_plan(problem: &TuneProblem, cal: &Calibration) -> TunePlan {
    let cm = cal.cost_model();
    let (mm, nn) = problem.normalized_shape();
    let (mm, nn) = (mm.max(1), nn.max(1));
    let p = problem.processors.max(1);

    // 1) The QR front-end: the sweeps run on the n×n factor R₂ᵀ, and its
    //    inner solve always accumulates Ṽ₂ (Q₂·Ṽ₂ becomes A's V)
    let (me, ne) = (nn, nn);
    let ne_pad = ne + ne % 2;

    // 2) Driver family: every blocked block-pair count p' ≤ min(P, ne/2)
    //    (powers of two plus P itself), the distributed executor, and the
    //    simulated executor.
    let mut candidates: Vec<DriverScore> = Vec::new();
    let p_cap = p.min(ne / 2);
    let mut bp = 1;
    while bp <= p_cap {
        candidates.push(score_blocked(&cm, cal, me, ne, bp));
        bp *= 2;
    }
    if p_cap >= 1 && !p_cap.is_power_of_two() {
        candidates.push(score_blocked(&cm, cal, me, ne, p_cap));
    }
    if ne_pad >= 2 {
        candidates.push(score_distributed(&cm, me, ne_pad, p));
        candidates.push(score_simulated(&cm, me, ne_pad, p));
    }
    let best = candidates
        .into_iter()
        .min_by(|a, b| a.total_ns.total_cmp(&b.total_ns))
        .unwrap_or_else(|| score_simulated(&cm, me, ne_pad.max(2), p));

    // 3) Ordering for the winner's sweep unit. The blocked driver's
    //    meetings are in-process pool handoffs — no link ever carries the
    //    panels, so the ordering's only observable effect is rotation
    //    order, i.e. convergence; keep the default tree ordering there
    //    (measured best sweep counts: the comm-minimal llb pick costs an
    //    extra sweep on the recorded blocked shapes). The simulated and
    //    distributed executors do pay per-message costs, so their
    //    ordering comes from the comm analysis.
    let ordering = match best.driver {
        DriverSel::Blocked { processors } => blocked_ordering(2 * processors as usize),
        _ => pick_ordering(problem.topology, ne_pad, (me as u64).max(1), &cm),
    };

    // The candidate's thread count follows the stated budget `P` (it is
    // the machine the model priced), but the *pool request* must never
    // oversubscribe the physical host: extra workers on a saturated core
    // only buy context switches. Measured on a 1-core host: an
    // oversubscribed 4-lane pool cost ~8% against the same config at the
    // host's own lane count.
    let host = treesvd_sim::par::num_threads().clamp(1, u16::MAX as usize) as u16;

    TunePlan {
        driver: best.driver,
        ordering,
        kernel: best.kernel,
        block_cols: best.block_cols,
        threads: best.threads.min(host).max(1),
        predicted_ns: best.total_ns + frontend_toll_ns(&cm, mm, nn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::builtin()
    }

    #[test]
    fn sweeps_estimate_is_monotone_and_clamped() {
        assert!(est_sweeps(16) <= est_sweeps(64));
        assert!(est_sweeps(2) >= 4.0);
        assert!(est_sweeps(1 << 20) <= 12.0);
    }

    #[test]
    fn square_shapes_prefer_the_blocked_gram_driver() {
        let plan = compute_plan(&TuneProblem::new(1024, 128).with_processors(4), &cal());
        assert!(matches!(plan.driver, DriverSel::Blocked { .. }), "{plan:?}");
        assert_eq!(plan.kernel, KernelSel::Gram);
        assert!(plan.block_cols >= 2);
        assert!(plan.predicted_ns > 0.0);
    }

    #[test]
    fn small_steps_are_priced_serially() {
        // below the serial cutoff a step's meetings (or rotations) run
        // one after another, so they add up; no routing term is charged
        let cm = cal().cost_model();
        let blocked = score_blocked(&cm, &cal(), 12, 12, 2);
        let meeting = cm.gram_meeting_cost(3, 12, 12, true);
        assert_eq!(blocked.total_ns, est_sweeps(12) * 3.0 * (2.0 * meeting + 2.0 * cm.alpha));
        let simulated = score_simulated(&cm, 12, 12, 4);
        let rotation = pair_compute_ns(&cm, 12, 12);
        assert_eq!(simulated.total_ns, est_sweeps(12) * 11.0 * (6.0 * rotation + 2.0 * cm.alpha));
        // a step at the cutoff forks: one lane's share of the rotations
        let simulated = score_simulated(&cm, 4096, 64, 4);
        let rotation = pair_compute_ns(&cm, 4096, 64);
        assert_eq!(simulated.total_ns, est_sweeps(64) * 63.0 * (8.0 * rotation + 2.0 * cm.alpha));
    }

    #[test]
    fn block_pair_counts_at_the_recorded_auto_points() {
        // The sweep on a tiny R is serial, where one block pair (one
        // meeting a sweep) beats two: measured 2048x12 P=4 0.58 vs
        // 0.62 ms and 4096x16 P=4 1.89 vs 1.93 ms, interleaved. The
        // blocked points keep P block pairs, and the distributed
        // executor's per-step hand-off keeps it from the P=8 points.
        for (m, n, p, want) in [
            (256, 64, 4, 4),
            (512, 48, 4, 4),
            (1024, 64, 8, 8),
            (512, 96, 8, 8),
            (4096, 16, 4, 1),
            (2048, 12, 4, 1),
        ] {
            let plan = compute_plan(&TuneProblem::new(m, n).with_processors(p), &cal());
            assert_eq!(plan.driver, DriverSel::Blocked { processors: want }, "{m}x{n} P={p}");
        }
    }

    #[test]
    fn tall_shapes_engage_the_frontend() {
        // every plan sweeps the n×n factor: a tall shape plans the driver
        // of its square factor and pays the front-end's toll on top
        let tall = compute_plan(&TuneProblem::new(1 << 15, 64).with_processors(4), &cal());
        let square = compute_plan(&TuneProblem::new(64, 64).with_processors(4), &cal());
        assert_eq!(
            (tall.driver, tall.ordering, tall.kernel),
            (square.driver, square.ordering, square.kernel)
        );
        let cm = cal().cost_model();
        let toll = |m| frontend_toll_ns(&cm, m, 64);
        let sweeps = square.predicted_ns - toll(64);
        assert!(sweeps > 0.0);
        let want = sweeps + toll(1 << 15);
        assert!((tall.predicted_ns - want).abs() <= 1e-9 * want, "{} vs {want}", tall.predicted_ns);
    }

    #[test]
    fn wide_inputs_normalize_to_the_transpose() {
        let a = compute_plan(&TuneProblem::new(64, 1 << 15).with_processors(4), &cal());
        let b = compute_plan(&TuneProblem::new(1 << 15, 64).with_processors(4), &cal());
        assert_eq!(a, b);
    }

    #[test]
    fn plans_are_deterministic() {
        let p = TuneProblem::new(2000, 100).with_processors(8);
        assert_eq!(compute_plan(&p, &cal()), compute_plan(&p, &cal()));
    }

    #[test]
    fn ordering_comes_from_the_comm_analysis() {
        // On a perfect fat tree a localized tree-family ordering must win
        // the analysis for a pow2 sweep unit (the llb variant localizes
        // hardest and takes it at every measured size; ring/round-robin
        // traffic hits the root every step and must lose).
        let cm = cal().cost_model();
        let kind = pick_ordering(TopologyKind::PerfectFatTree, 16, 1024, &cm);
        assert!(
            matches!(kind, OrderingKind::Llb | OrderingKind::FatTree | OrderingKind::Hybrid),
            "{kind:?}"
        );
        // unanalyzable sizes fall back to a buildable kind
        let kind = pick_ordering(TopologyKind::PerfectFatTree, 6, 1024, &cm);
        assert!(kind.build(6).is_ok());
    }

    #[test]
    fn blocked_plans_keep_the_convergence_proven_tree_ordering() {
        let plan = compute_plan(&TuneProblem::new(256, 64).with_processors(4), &cal());
        assert!(matches!(plan.driver, DriverSel::Blocked { .. }), "{plan:?}");
        assert_eq!(plan.ordering, OrderingKind::FatTree);
    }

    #[test]
    fn thread_requests_never_oversubscribe_the_host() {
        let host = treesvd_sim::par::num_threads().max(1);
        for (m, n, p) in [(256, 64, 4), (4096, 16, 8), (1024, 128, 32)] {
            let plan = compute_plan(&TuneProblem::new(m, n).with_processors(p), &cal());
            assert!((plan.threads as usize) <= host, "{plan:?} vs host {host}");
            assert!(plan.threads >= 1);
        }
    }

    #[test]
    fn tiny_block_widths_fall_back_to_pairwise() {
        // ne/2P = 1 ⇒ c = 1: the Gram kernel's panel machinery has
        // nothing to amortize, the plan must keep the streaming kernel
        let plan = compute_plan(&TuneProblem::new(4096, 8).with_processors(4), &cal());
        if let DriverSel::Blocked { .. } = plan.driver {
            if plan.block_cols == 1 {
                assert_eq!(plan.kernel, KernelSel::Pairwise);
            }
        }
    }
}
