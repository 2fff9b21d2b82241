//! Claim-level integration tests: each of the paper's qualitative claims
//! (C1–C7 in DESIGN.md) asserted end-to-end.

use treesvd_bench::experiments;
use treesvd_bench::experiments::paper_opts;
use treesvd_core::{HestenesSvd, OrderingKind, TopologyKind};
use treesvd_matrix::{checks, generate};
use treesvd_orderings::{HybridOrdering, JacobiOrdering};
use treesvd_sim::{analyze_program, Machine};

/// The paper's solver: `kind`'s ordering sweeping `A` itself.
fn paper_solver(kind: OrderingKind) -> HestenesSvd {
    HestenesSvd::new(paper_opts().with_ordering(kind))
}

fn comm_report(
    ord: &dyn JacobiOrdering,
    kind: TopologyKind,
    words: u64,
) -> treesvd_sim::CommReport {
    let machine = Machine::with_kind(kind, ord.n() / 2);
    let prog = ord.sweep_program(0, &ord.initial_layout());
    analyze_program(&machine, &prog, words)
}

/// C1 (§3): on a perfect fat-tree the fat-tree ordering needs *far* fewer
/// global communications and less total comm time than the Fig. 1
/// orderings.
#[test]
fn c1_fat_tree_ordering_wins_on_perfect_fat_tree() {
    let n = 128;
    let ft = comm_report(
        OrderingKind::FatTree.build(n).unwrap().as_ref(),
        TopologyKind::PerfectFatTree,
        256,
    );
    let rr = comm_report(
        OrderingKind::RoundRobin.build(n).unwrap().as_ref(),
        TopologyKind::PerfectFatTree,
        256,
    );
    let ring = comm_report(
        OrderingKind::Ring.build(n).unwrap().as_ref(),
        TopologyKind::PerfectFatTree,
        256,
    );
    // global steps: O(log n) for fat-tree vs every step for Fig. 1
    assert!(ft.global_steps <= 8, "{}", ft.global_steps);
    assert_eq!(rr.global_steps, n - 1);
    assert_eq!(ring.global_steps, n - 1);
    assert!(ft.comm_time < rr.comm_time);
    assert!(ft.comm_time < ring.comm_time);
}

/// C2 (§3): the fat-tree ordering restores the index order each sweep; the
/// LLB baseline does not (and needs the forward/backward alternation).
#[test]
fn c2_order_restoration_difference() {
    for e in [3u32, 4, 5, 6] {
        let n = 1usize << e;
        let ft = OrderingKind::FatTree.build(n).unwrap();
        let prog = ft.sweep_program(0, &ft.initial_layout());
        assert_eq!(prog.final_layout(), ft.initial_layout(), "fat-tree n = {n}");

        let llb = OrderingKind::Llb.build(n).unwrap();
        let prog = llb.sweep_program(0, &llb.initial_layout());
        assert_ne!(prog.final_layout(), llb.initial_layout(), "llb n = {n}");
    }
}

/// C3 (§4): the new ring ordering is equivalent to round-robin, hence the
/// same convergence behaviour. Pair order *within* a sweep still differs,
/// so sweep counts on random inputs track each other only loosely (±2
/// empirically); the structural equivalence itself is asserted exactly in
/// `treesvd-orderings`' equivalence tests. Both must agree on the spectrum.
#[test]
fn c3_new_ring_convergence_matches_round_robin() {
    for seed in [1u64, 2, 3, 4] {
        let a = generate::random_uniform(32, 16, seed);
        let nr = paper_solver(OrderingKind::NewRing).compute(&a).unwrap();
        let rr = paper_solver(OrderingKind::RoundRobin).compute(&a).unwrap();
        let diff = (nr.sweeps as i64 - rr.sweeps as i64).abs();
        assert!(diff <= 2, "seed {seed}: {} vs {}", nr.sweeps, rr.sweeps);
        assert!(
            checks::spectrum_distance(&nr.svd.sigma, &rr.svd.sigma) < 1e-10,
            "seed {seed}: spectra disagree"
        );
    }
}

/// C4 (§3.2.1/§4): singular values emerge nonincreasing for every
/// ordering under the larger-norm-to-smaller-label rule.
#[test]
fn c4_sorted_singular_values() {
    for kind in OrderingKind::ALL {
        for seed in [5u64, 6] {
            let a = generate::random_uniform(24, 12, seed);
            let run = paper_solver(kind).compute(&a).unwrap();
            assert!(
                checks::is_nonincreasing(&run.svd.sigma),
                "{kind} seed {seed}: {:?}",
                run.svd.sigma
            );
        }
    }
}

/// C5 (§5): on the CM-5-like skinny tree the hybrid ordering (with the
/// proper block size) is contention-free while the fat-tree ordering is
/// not; the hybrid also uses far fewer global steps than the rings.
#[test]
fn c5_hybrid_contention_freedom() {
    let n = 128;
    let hy = HybridOrdering::new(n, n / 4).unwrap();
    let hy_rep = comm_report(&hy, TopologyKind::Cm5, 256);
    assert!(hy_rep.max_contention <= 1.0, "hybrid contends: {}", hy_rep.max_contention);

    let ft_rep =
        comm_report(OrderingKind::FatTree.build(n).unwrap().as_ref(), TopologyKind::Cm5, 256);
    assert!(ft_rep.max_contention > 1.0, "fat-tree should contend on cm5");

    let nr_rep =
        comm_report(OrderingKind::NewRing.build(n).unwrap().as_ref(), TopologyKind::Cm5, 256);
    // the hybrid reduces the number of global communications relative to
    // the rings (paper §6)
    assert!(hy_rep.global_steps < nr_rep.global_steps);
}

/// C6 (§1): ultimately quadratic convergence — each late sweep roughly
/// squares the maximum coupling.
#[test]
fn c6_quadratic_convergence_tail() {
    let a = generate::random_uniform(48, 24, 9);
    let run = HestenesSvd::new(paper_opts()).compute(&a).unwrap();
    let h = run.coupling_history();
    assert!(h.len() >= 4, "{h:?}");
    // find the first sweep with coupling < 1e-2 and check the next sweep
    // is at least quadratically smaller (with a generous constant)
    let idx = h.iter().position(|&c| c < 1e-2).expect("reaches small coupling");
    if idx + 1 < h.len() && h[idx + 1] > 0.0 {
        assert!(
            h[idx + 1] <= 100.0 * h[idx] * h[idx],
            "not quadratic: {} -> {}",
            h[idx],
            h[idx + 1]
        );
    }
}

/// C7 (§6): simulated sweep times — the hybrid beats the fat-tree ordering
/// on the CM-5-like tree; the fat-tree ordering wins on the perfect
/// fat-tree once the full bandwidth is there.
#[test]
fn c7_who_wins_where() {
    let n = 128;
    let words = 1024; // long columns: serialization dominates latency
    let hy = HybridOrdering::new(n, n / 4).unwrap();
    let ft = OrderingKind::FatTree.build(n).unwrap();

    let hy_cm5 = comm_report(&hy, TopologyKind::Cm5, words);
    let ft_cm5 = comm_report(ft.as_ref(), TopologyKind::Cm5, words);
    assert!(
        hy_cm5.comm_time < ft_cm5.comm_time,
        "cm5: hybrid {} vs fat-tree {}",
        hy_cm5.comm_time,
        ft_cm5.comm_time
    );

    let ft_fat = comm_report(ft.as_ref(), TopologyKind::PerfectFatTree, words);
    let rr_fat = comm_report(
        OrderingKind::RoundRobin.build(n).unwrap().as_ref(),
        TopologyKind::PerfectFatTree,
        words,
    );
    assert!(ft_fat.comm_time < rr_fat.comm_time);
}

/// The experiment harness itself produces complete tables (smoke-level
/// integration of the `experiments` binary's internals).
#[test]
fn experiment_tables_complete() {
    let t = experiments::e1_comm_cost(32, 32);
    assert_eq!(t.len(), 6);
    let t = experiments::e2_contention(32, 32);
    assert_eq!(t.len(), 6);
    let (t, narrative) = experiments::e4_equivalence(8);
    assert!(narrative.contains("found"));
    assert!(t.len() == 5);
    let t = experiments::e7_scalability(&[16, 32], 64);
    assert_eq!(t.len(), 6); // 2 sizes x 3 topologies
}
