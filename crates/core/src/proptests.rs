//! Property-based tests of the blocked (Schreiber) driver (proptest).
//!
//! The Gram meeting kernel and the pairwise oracle realize the same block
//! meeting two different ways; these properties pin down that the choice
//! is unobservable in the results across random shapes, machine sizes,
//! padded/odd block sizes, and rank-deficient inputs.

#![cfg(test)]

use crate::blocked::{blocked_svd, BlockedOptions};
use crate::options::BlockKernel;
use crate::SvdOptions;
use proptest::prelude::*;
use treesvd_matrix::{checks, generate};

fn opts_with(processors: usize, kernel: BlockKernel) -> BlockedOptions {
    BlockedOptions { processors, svd: SvdOptions::default().with_block_kernel(kernel) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both kernels produce the same spectrum (and valid factors) on random
    /// matrices, across machine sizes and block paddings — including odd
    /// column counts that force padded, uneven final blocks.
    #[test]
    fn gram_and_pairwise_agree_on_random_input(
        n in 4usize..20,
        extra_rows in 0usize..12,
        p_log in 0u32..3,
        seed in 0u64..1000,
    ) {
        let m = n + extra_rows;
        let procs = 1usize << p_log; // 1, 2, 4: 2P stays a power of two
        let a = generate::random_uniform(m, n, seed);
        let pw = blocked_svd(&a, &opts_with(procs, BlockKernel::Pairwise)).unwrap();
        let gr = blocked_svd(&a, &opts_with(procs, BlockKernel::Gram)).unwrap();
        prop_assert!(
            checks::spectrum_distance(&pw.svd.sigma, &gr.svd.sigma) < 1e-9,
            "sigma mismatch: n={} m={} P={} seed={}", n, m, procs, seed
        );
        prop_assert!(gr.svd.residual(&a) < 1e-9);
        prop_assert!(gr.svd.orthogonality() < 1e-9);
        prop_assert!(checks::is_nonincreasing(&gr.svd.sigma));
        // V agrees up to sign wherever the spectrum is well separated
        let sig = &gr.svd.sigma;
        for j in 0..n {
            let separated = (0..n).all(|i| {
                i == j || (sig[j] - sig[i]).abs() > 1e-5 * sig[0].max(1.0)
            });
            if sig[j] > 1e-8 && separated {
                let d = treesvd_matrix::ops::dot(pw.svd.v.col(j), gr.svd.v.col(j)).abs();
                prop_assert!(d > 1.0 - 1e-6, "V col {} disagrees: |dot|={}", j, d);
            }
        }
    }

    /// The distributed executor is bitwise-identical to the synchronous
    /// simulated oracle: identical singular values, identical singular
    /// vectors, and identical sweep counts — over random shapes, random
    /// processor counts, and three orderings with very different movement
    /// patterns.
    #[test]
    fn distributed_run_is_bitwise_identical_to_oracle(
        half_n in 2usize..9,
        extra_rows in 1usize..16,
        seed in 0u64..1000,
    ) {
        use treesvd_orderings::OrderingKind;
        let n = 2 * half_n; // P = half_n ranks; tree orderings pad internally
        let m = n + extra_rows;
        let a = generate::random_uniform(m, n, seed);
        for kind in [OrderingKind::NewRing, OrderingKind::FatTree, OrderingKind::Hybrid] {
            if kind == OrderingKind::Hybrid && n < 8 {
                continue; // the hybrid ordering needs at least two groups of 4
            }
            let solver = crate::HestenesSvd::new(SvdOptions::default().with_ordering(kind));
            let oracle = solver.compute(&a).unwrap();
            let run = solver.compute_distributed(&a).unwrap();
            prop_assert_eq!(
                run.sweeps, oracle.sweeps,
                "sweep count diverged ({} n={} m={} seed={})", kind, n, m, seed
            );
            prop_assert_eq!(
                &run.svd.sigma, &oracle.svd.sigma,
                "sigma not bitwise-identical ({} n={} m={} seed={})", kind, n, m, seed
            );
            prop_assert_eq!(
                &run.svd.u, &oracle.svd.u,
                "U not bitwise-identical ({} n={} m={} seed={})", kind, n, m, seed
            );
            prop_assert_eq!(
                &run.svd.v, &oracle.svd.v,
                "V not bitwise-identical ({} n={} m={} seed={})", kind, n, m, seed
            );
        }
    }

    /// Tuner transparency: `SvdOptions::auto()` output is bitwise-identical
    /// to handing the *same* config to the *same* driver explicitly — the
    /// tuner selects, it never perturbs. Fuzzes shapes (square to tall
    /// aspect ratios, all behind the QR front-end) and processor budgets.
    #[test]
    fn auto_is_bitwise_identical_to_the_explicit_config(
        n in 4usize..24,
        aspect in 1usize..12,
        p in 1usize..6,
        seed in 0u64..1000,
    ) {
        use crate::auto::{auto_svd_for, options_from_plan, run_plan};
        use treesvd_tune::{plan_for, TuneProblem};
        let m = n * aspect + 1;
        let a = generate::random_uniform(m, n, seed);
        let problem = TuneProblem::new(m, n).with_processors(p);
        let auto = auto_svd_for(&a, &problem).unwrap();
        // hand-build the exact same options the plan implies and dispatch
        // the same driver explicitly
        let plan = plan_for(&problem);
        let explicit = run_plan(&a, &plan, options_from_plan(&plan, &problem)).unwrap();
        prop_assert_eq!(auto.sweeps, explicit.sweeps);
        prop_assert_eq!(&auto.svd.sigma, &explicit.svd.sigma,
            "sigma not bitwise-identical: m={} n={} p={} seed={}", m, n, p, seed);
        prop_assert_eq!(&auto.svd.u, &explicit.svd.u,
            "U not bitwise-identical: m={} n={} p={} seed={}", m, n, p, seed);
        prop_assert_eq!(&auto.svd.v, &explicit.svd.v,
            "V not bitwise-identical: m={} n={} p={} seed={}", m, n, p, seed);
        // and the auto path actually solves the problem
        prop_assert!(auto.svd.residual(&a) < 1e-8);
    }

    /// Rank-deficient panels (zero directions inside blocks) do not split
    /// the kernels apart either: same rank, same spectrum.
    #[test]
    fn gram_and_pairwise_agree_on_rank_deficient_input(
        n in 6usize..18,
        rank_cut in 1usize..5,
        seed in 0u64..1000,
    ) {
        let rank = n - rank_cut.min(n - 1);
        let a = generate::rank_deficient(n + 8, n, rank, seed);
        let pw = blocked_svd(&a, &opts_with(2, BlockKernel::Pairwise)).unwrap();
        let gr = blocked_svd(&a, &opts_with(2, BlockKernel::Gram)).unwrap();
        prop_assert_eq!(pw.svd.rank, rank);
        prop_assert_eq!(gr.svd.rank, rank);
        prop_assert!(
            checks::spectrum_distance(&pw.svd.sigma, &gr.svd.sigma) < 1e-9,
            "sigma mismatch: n={} rank={} seed={}", n, rank, seed
        );
    }
}
