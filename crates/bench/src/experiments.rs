//! The claim-quantifying experiments E1–E7 (see DESIGN.md §5).
//!
//! Each function returns a markdown [`Table`] (plus, where useful, a short
//! narrative) so the `experiments` binary can assemble `EXPERIMENTS.md`.

use crate::table::{fnum, Table};
use treesvd_core::{
    sequential::sequential_svd, HestenesSvd, OrderingKind, SvdOptions, TopologyKind,
};
use treesvd_matrix::{checks, generate};
use treesvd_orderings::{HybridOrdering, JacobiOrdering};
use treesvd_sim::{analyze_program, Machine};

/// The orderings compared in the communication experiments.
pub const COMM_ORDERINGS: [OrderingKind; 5] = [
    OrderingKind::Ring,
    OrderingKind::RoundRobin,
    OrderingKind::FatTree,
    OrderingKind::NewRing,
    OrderingKind::Llb,
];

/// The paper's configuration: the QR front-end off, so the sweeps run on
/// `A` itself. Every experiment here measures an ordering or an executor
/// on `A`; behind the front-end they would measure it on `R₂ᵀ`.
#[must_use]
pub fn paper_opts() -> SvdOptions {
    SvdOptions::default().with_qr_frontend(false)
}

/// The paper's solver with the given ordering ([`paper_opts`]).
fn paper_solver(kind: OrderingKind) -> HestenesSvd {
    HestenesSvd::new(paper_opts().with_ordering(kind))
}

fn build(kind: OrderingKind, n: usize) -> Box<dyn JacobiOrdering> {
    kind.build(n).expect("size accepted")
}

/// A hybrid ordering with the contention-free block size for skinny trees
/// (blocks of two columns — groups of four — fit the narrowest channel).
pub fn hybrid_for(n: usize) -> HybridOrdering {
    HybridOrdering::new(n, n / 4).expect("groups of 4")
}

/// E1 — per-sweep communication on a perfect fat-tree (claim C1):
/// the fat-tree ordering localizes traffic; the Fig. 1 orderings go global
/// at every step.
pub fn e1_comm_cost(n: usize, words: u64) -> Table {
    let mut t = Table::new(vec![
        "ordering",
        "comm time",
        "global steps",
        "lvl-1 msgs",
        "lvl-2 msgs",
        "lvl>=3 msgs",
        "word-hops",
    ]);
    let machine = Machine::with_kind(TopologyKind::PerfectFatTree, n / 2);
    let mut orderings: Vec<(String, Box<dyn JacobiOrdering>)> =
        COMM_ORDERINGS.iter().map(|&k| (k.name().to_string(), build(k, n))).collect();
    let hy = hybrid_for(n);
    orderings.push((hy.name(), Box::new(hy)));
    for (name, ord) in &orderings {
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let rep = analyze_program(&machine, &prog, words);
        let h = &rep.level_histogram;
        let high: usize = h.iter().skip(3).sum();
        t.row(vec![
            name.clone(),
            fnum(rep.comm_time),
            rep.global_steps.to_string(),
            h.get(1).copied().unwrap_or(0).to_string(),
            h.get(2).copied().unwrap_or(0).to_string(),
            high.to_string(),
            rep.word_hops.to_string(),
        ]);
    }
    t
}

/// E2 — contention on skinny trees (claim C5): worst interior-vs-endpoint
/// slowdown factor per ordering per topology. ≤ 1 means contention-free.
pub fn e2_contention(n: usize, words: u64) -> Table {
    let mut t = Table::new(vec!["ordering", "perfect fat-tree", "cm5 tree", "binary tree"]);
    let kinds = [TopologyKind::PerfectFatTree, TopologyKind::Cm5, TopologyKind::BinaryTree];
    let mut orderings: Vec<(String, Box<dyn JacobiOrdering>)> =
        COMM_ORDERINGS.iter().map(|&k| (k.name().to_string(), build(k, n))).collect();
    let hy = hybrid_for(n);
    orderings.push((hy.name(), Box::new(hy)));
    for (name, ord) in &orderings {
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let mut cells = vec![name.clone()];
        for kind in kinds {
            let machine = Machine::with_kind(kind, n / 2);
            let rep = analyze_program(&machine, &prog, words);
            cells.push(fnum(rep.max_contention));
        }
        t.row(cells);
    }
    t
}

/// E3 — sweeps to convergence per ordering (claims C2/C3): the fat-tree
/// ordering restores order every sweep; the LLB baseline's forward/backward
/// alternation may converge more slowly and must finish on an even sweep.
pub fn e3_convergence(m: usize, n: usize, seeds: &[u64]) -> Table {
    let mut t = Table::new(vec!["ordering", "mean sweeps", "min", "max", "mean rotations"]);
    for kind in OrderingKind::ALL {
        let mut sweeps = Vec::new();
        let mut rots = Vec::new();
        for &seed in seeds {
            let a = generate::random_uniform(m, n, seed);
            let run = paper_solver(kind).compute(&a).expect("convergence");
            sweeps.push(run.sweeps as f64);
            rots.push(run.total_rotations() as f64);
        }
        let mean = sweeps.iter().sum::<f64>() / sweeps.len() as f64;
        let mean_r = rots.iter().sum::<f64>() / rots.len() as f64;
        t.row(vec![
            kind.name().to_string(),
            fnum(mean),
            fnum(sweeps.iter().cloned().fold(f64::INFINITY, f64::min)),
            fnum(sweeps.iter().cloned().fold(0.0, f64::max)),
            fnum(mean_r),
        ]);
    }
    // sequential reference row
    let mut sweeps = Vec::new();
    for &seed in seeds {
        let a = generate::random_uniform(m, n, seed);
        let run = sequential_svd(&a, 60).expect("convergence");
        sweeps.push(run.sweeps as f64);
    }
    let mean = sweeps.iter().sum::<f64>() / sweeps.len() as f64;
    t.row(vec![
        "sequential (cyclic)".to_string(),
        fnum(mean),
        fnum(sweeps.iter().cloned().fold(f64::INFINITY, f64::min)),
        fnum(sweeps.iter().cloned().fold(0.0, f64::max)),
        "-".to_string(),
    ]);
    t
}

/// E4 — equivalence of the new ring ordering and round-robin (claim C3):
/// the relabelling exists and the convergence traces coincide sweep by
/// sweep under it.
pub fn e4_equivalence(n: usize) -> (Table, String) {
    use treesvd_orderings::{equivalence, NewRingOrdering, RoundRobinOrdering};
    let nr = NewRingOrdering::new(n).expect("even n");
    let rr = RoundRobinOrdering::new(n).expect("even n");
    let pn = nr.sweep_program(0, &nr.initial_layout());
    let pr = rr.sweep_program(0, &rr.initial_layout());
    let pi = equivalence::find_relabelling(&pn, &pr);
    let narrative = match &pi {
        Some(p) => format!(
            "relabelling found for n = {n}: {}",
            p.iter()
                .enumerate()
                .map(|(i, &v)| format!("{}→{}", i + 1, v + 1))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        None => format!("NO relabelling found for n = {n} (unexpected)"),
    };

    // convergence comparison on the same matrices
    let mut t = Table::new(vec!["seed", "new-ring sweeps", "round-robin sweeps"]);
    for seed in [1u64, 2, 3, 4, 5] {
        let a = generate::random_uniform(2 * n, n, seed);
        let r1 = paper_solver(OrderingKind::NewRing).compute(&a).expect("conv");
        let r2 = paper_solver(OrderingKind::RoundRobin).compute(&a).expect("conv");
        t.row(vec![seed.to_string(), r1.sweeps.to_string(), r2.sweeps.to_string()]);
    }
    (t, narrative)
}

/// E5 — sorted singular values (claim C4): with the Fig. 4(a)-based
/// fat-tree ordering and the §4 rings, σ comes out nonincreasing.
pub fn e5_sorted_sigma(m: usize, n: usize, seeds: &[u64]) -> Table {
    let mut t = Table::new(vec!["ordering", "runs", "sorted (desc)", "max spectrum err"]);
    for kind in OrderingKind::ALL {
        let mut sorted = 0usize;
        let mut max_err = 0.0_f64;
        for &seed in seeds {
            let sigma_true: Vec<f64> =
                (1..=n).rev().map(|k| k as f64 + 0.25 * (seed as f64 % 3.0)).collect();
            let a = generate::with_singular_values(m, &sigma_true, seed);
            let run = paper_solver(kind).compute(&a).expect("convergence");
            if checks::is_nonincreasing(&run.svd.sigma) {
                sorted += 1;
            }
            max_err = max_err.max(checks::spectrum_distance(&run.svd.sigma, &sigma_true));
        }
        t.row(vec![
            kind.name().to_string(),
            seeds.len().to_string(),
            format!("{sorted}/{}", seeds.len()),
            fnum(max_err),
        ]);
    }
    t
}

/// E6 — quadratic convergence (claim C6): per-sweep maximum coupling and
/// the exact off-diagonal measure for a single representative run.
pub fn e6_quadratic(m: usize, n: usize, seed: u64) -> Table {
    let a = generate::random_uniform(m, n, seed);
    let run = HestenesSvd::new(paper_opts().with_track_off(true)).compute(&a).expect("convergence");
    let mut t = Table::new(vec!["sweep", "max coupling", "off(A)", "rotations"]);
    for (k, s) in run.sweep_stats.iter().enumerate() {
        t.row(vec![
            (k + 1).to_string(),
            format!("{:.3e}", s.max_coupling),
            format!("{:.3e}", run.off_history[k + 1]),
            s.rotations.to_string(),
        ]);
    }
    t
}

/// E7 — simulated sweep time vs machine size per topology (claim C7):
/// who wins where, as the paper's §6 predicts (hybrid on the CM-5; fat-tree
/// ordering once bandwidth is perfect).
pub fn e7_scalability(sizes: &[usize], words: u64) -> Table {
    let mut t =
        Table::new(vec!["n", "topology", "ring", "round-robin", "fat-tree", "llb", "hybrid"]);
    for &n in sizes {
        for kind in [TopologyKind::PerfectFatTree, TopologyKind::Cm5, TopologyKind::BinaryTree] {
            let machine = Machine::with_kind(kind, n / 2);
            let mut cells = vec![n.to_string(), kind.to_string()];
            for ord_kind in [
                OrderingKind::Ring,
                OrderingKind::RoundRobin,
                OrderingKind::FatTree,
                OrderingKind::Llb,
            ] {
                let ord = build(ord_kind, n);
                let prog = ord.sweep_program(0, &ord.initial_layout());
                cells.push(fnum(analyze_program(&machine, &prog, words).comm_time));
            }
            let hy = hybrid_for(n);
            let prog = hy.sweep_program(0, &hy.initial_layout());
            cells.push(fnum(analyze_program(&machine, &prog, words).comm_time));
            t.row(cells);
        }
    }
    t
}

/// E3b — the LLB half-sweep penalty (claim C2): LLB must end on an even
/// sweep count to leave vectors in place; measure how often that wastes a
/// half sweep relative to its own convergence point.
pub fn e3b_llb_parity(m: usize, n: usize, seeds: &[u64]) -> Table {
    let mut t =
        Table::new(vec!["seed", "llb sweeps", "odd (wastes half-sweep)", "fat-tree sweeps"]);
    for &seed in seeds {
        let a = generate::random_uniform(m, n, seed);
        let llb = paper_solver(OrderingKind::Llb).compute(&a).expect("conv");
        let ft = paper_solver(OrderingKind::FatTree).compute(&a).expect("conv");
        t.row(vec![
            seed.to_string(),
            llb.sweeps.to_string(),
            if llb.sweeps % 2 == 1 { "yes" } else { "no" }.to_string(),
            ft.sweeps.to_string(),
        ]);
    }
    t
}

/// E8 — undersized machines (Schreiber partitioning): the same problem on
/// fewer processors via blocked sweeps; accuracy invariant, sweeps drop as
/// blocks grow (each meeting does more local work).
pub fn e8_undersized(m: usize, n: usize, seed: u64) -> Table {
    use treesvd_core::{blocked_svd, BlockedOptions};
    let a = generate::random_uniform(m, n, seed);
    let full = HestenesSvd::new(paper_opts()).compute(&a).expect("convergence");
    let mut t = Table::new(vec![
        "processors",
        "block size",
        "sweeps",
        "rotations",
        "spectrum err vs P=n/2",
    ]);
    t.row(vec![
        format!("{} (unblocked)", n / 2),
        "1".to_string(),
        full.sweeps.to_string(),
        full.total_rotations().to_string(),
        "0".to_string(),
    ]);
    let mut p = n / 4;
    while p >= 2 {
        let opts = BlockedOptions { processors: p, svd: paper_opts() };
        let run = blocked_svd(&a, &opts).expect("convergence");
        let err = checks::spectrum_distance(&run.svd.sigma, &full.svd.sigma);
        t.row(vec![
            p.to_string(),
            run.block_size.to_string(),
            run.sweeps.to_string(),
            run.total_rotations.to_string(),
            format!("{err:.1e}"),
        ]);
        p /= 2;
    }
    t
}

/// SVD accuracy summary across all orderings and matrix classes — the
/// correctness floor under every experiment.
pub fn accuracy_table(seeds: &[u64]) -> Table {
    let mut t = Table::new(vec!["ordering", "matrix class", "max residual", "max orth err"]);
    for kind in OrderingKind::ALL {
        for (class, gen) in [("random 24x16", 0usize), ("graded 1e-6", 1), ("rank-deficient", 2)] {
            let mut max_res = 0.0_f64;
            let mut max_orth = 0.0_f64;
            for &seed in seeds {
                let a = match gen {
                    0 => generate::random_uniform(24, 16, seed),
                    1 => generate::graded(24, 16, 1e-6, seed),
                    _ => generate::rank_deficient(24, 16, 10, seed),
                };
                let run = paper_solver(kind).compute(&a).expect("convergence");
                max_res = max_res.max(run.svd.residual(&a));
                max_orth = max_orth.max(run.svd.orthogonality());
            }
            t.row(vec![
                kind.name().to_string(),
                class.to_string(),
                format!("{max_res:.2e}"),
                format!("{max_orth:.2e}"),
            ]);
        }
    }
    t
}

/// Sort-mode comparison for the modified ring ordering (the §4 parity
/// claim): direction of σ after odd vs even sweep counts, observed via the
/// layout (nonincreasing after even, nondecreasing after odd).
pub fn modified_ring_parity(n: usize) -> String {
    use treesvd_orderings::ModifiedRingOrdering;
    let ord = ModifiedRingOrdering::new(n).expect("even n");
    let progs = ord.programs(2);
    let after1 = progs[0].final_layout();
    let after2 = progs[1].final_layout();
    let rev: Vec<usize> = (0..n).rev().collect();
    let id: Vec<usize> = (0..n).collect();
    format!(
        "modified ring, n = {n}: layout after sweep 1 {} full reversal; after sweep 2 {} identity\n\
         => a column sorted descending by label reads nondecreasing after odd sweeps (claim holds)",
        if after1 == rev { "IS" } else { "IS NOT" },
        if after2 == id { "IS" } else { "IS NOT" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shapes_hold() {
        let t = e1_comm_cost(32, 64);
        assert_eq!(t.len(), 6);
        let md = t.to_markdown();
        assert!(md.contains("fat-tree"));
        assert!(md.contains("round-robin"));
    }

    #[test]
    fn e2_hybrid_contention_free_on_cm5() {
        let t = e2_contention(32, 64);
        let md = t.to_markdown();
        // the hybrid row ends with contention values; just check presence
        assert!(md.contains("hybrid"));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn e4_finds_relabelling() {
        let (t, narrative) = e4_equivalence(8);
        assert!(narrative.contains("relabelling found"));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn e6_couplings_decay() {
        let t = e6_quadratic(24, 16, 3);
        assert!(t.len() >= 3);
    }

    #[test]
    fn modified_ring_parity_claim() {
        let s = modified_ring_parity(16);
        assert!(s.contains("IS full reversal"));
        assert!(s.contains("IS identity"));
    }

    #[test]
    fn e3_small_run() {
        let t = e3_convergence(16, 8, &[1, 2]);
        assert_eq!(t.len(), OrderingKind::ALL.len() + 1);
    }
}
