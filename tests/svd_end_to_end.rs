//! End-to-end SVD integration tests: every ordering × every matrix class,
//! cross-checked against the sequential reference and the constructions'
//! known spectra.

use treesvd_core::{
    auto_svd, blocked_svd, sequential::sequential_svd, BlockKernel, BlockedOptions, HestenesSvd,
    OrderingKind, SortMode, Svd, SvdError, SvdOptions, TopologyKind,
};
use treesvd_matrix::{checks, generate, Matrix};

fn assert_valid_svd(a: &Matrix, svd: &treesvd_core::Svd, tol: f64, ctx: &str) {
    let res = svd.residual(a);
    let orth = svd.orthogonality();
    assert!(res < tol, "{ctx}: residual {res}");
    assert!(orth < tol, "{ctx}: orthogonality {orth}");
    assert!(checks::is_nonincreasing(&svd.sigma), "{ctx}: sigma unsorted {:?}", svd.sigma);
}

#[test]
fn all_orderings_all_classes() {
    let classes: Vec<(&str, Matrix)> = vec![
        ("random", generate::random_uniform(24, 16, 1)),
        ("graded", generate::graded(24, 16, 1e-6, 2)),
        ("rank-deficient", generate::rank_deficient(24, 16, 9, 3)),
        ("hilbert", generate::hilbert(20, 16)),
        ("orthogonal", generate::already_orthogonal(24, 16, 4)),
    ];
    for kind in OrderingKind::ALL {
        for (name, a) in &classes {
            let run = HestenesSvd::with_ordering(kind)
                .compute(a)
                .unwrap_or_else(|e| panic!("{kind}/{name}: {e}"));
            assert_valid_svd(a, &run.svd, 1e-9, &format!("{kind}/{name}"));
        }
    }
}

#[test]
fn parallel_matches_sequential_spectra() {
    for seed in [10u64, 11, 12] {
        let a = generate::random_uniform(30, 20, seed);
        let seq = sequential_svd(&a, 60).expect("sequential converges");
        for kind in OrderingKind::ALL {
            let par = HestenesSvd::with_ordering(kind).compute(&a).expect("parallel converges");
            let d = checks::spectrum_distance(&par.svd.sigma, &seq.svd.sigma);
            assert!(d < 1e-9, "{kind} seed {seed}: spectrum distance {d}");
        }
    }
}

#[test]
fn every_topology_gives_identical_numerics() {
    // the topology changes simulated time, never the arithmetic
    let a = generate::random_uniform(20, 16, 20);
    let base = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    for topo in [TopologyKind::BinaryTree, TopologyKind::Cm5, TopologyKind::SkinnyAbove(2)] {
        let run = HestenesSvd::new(SvdOptions::default().with_topology(topo)).compute(&a).unwrap();
        assert_eq!(run.sweeps, base.sweeps, "{topo}");
        for (x, y) in run.svd.sigma.iter().zip(base.svd.sigma.iter()) {
            assert_eq!(x, y, "{topo}: sigma must be bitwise identical");
        }
    }
}

#[test]
fn shapes_square_tall_wide_tiny() {
    let shapes = [(16usize, 16usize), (40, 8), (8, 40), (5, 4), (4, 5), (4, 4), (64, 3)];
    for (m, n) in shapes {
        let k = m.min(n);
        let sigma: Vec<f64> = (1..=k).rev().map(|x| x as f64).collect();
        let a = if m >= n {
            generate::with_singular_values(m, &sigma, (m * 31 + n) as u64)
        } else {
            generate::with_singular_values(n, &sigma, (m * 31 + n) as u64).transpose()
        };
        let run = HestenesSvd::new(SvdOptions::default())
            .compute(&a)
            .unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
        assert_eq!(run.svd.sigma.len(), k, "{m}x{n}");
        assert!(
            checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9,
            "{m}x{n}: {:?}",
            run.svd.sigma
        );
    }
}

#[test]
fn single_column_and_single_row() {
    let a = Matrix::from_col_major(5, 1, vec![3.0, 0.0, 4.0, 0.0, 0.0]).unwrap();
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert!((run.svd.sigma[0] - 5.0).abs() < 1e-12);
    let at = a.transpose();
    let run = HestenesSvd::new(SvdOptions::default()).compute(&at).unwrap();
    assert!((run.svd.sigma[0] - 5.0).abs() < 1e-12);
}

#[test]
fn scaled_matrices_extreme_magnitudes() {
    for scale in [1e-150_f64, 1e-30, 1e30, 1e150] {
        let mut a = generate::with_singular_values(10, &[4.0, 2.0, 1.0], 33);
        a.scale(scale);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let expect = [4.0 * scale, 2.0 * scale, scale];
        for (c, e) in run.svd.sigma.iter().zip(expect.iter()) {
            assert!((c - e).abs() < 1e-10 * e, "scale {scale}: {c} vs {e}");
        }
    }
}

#[test]
fn every_entry_point_screens_extreme_and_non_finite_input() {
    // 24×8 with σ = 8..1, scaled by 2^±600 and 2^±900: every path is
    // swept at one power-of-two scale, so after exact unscaling σ, U and V
    // agree bitwise across the four scales; a NaN is named, not swept
    let sigma: Vec<f64> = (1..=8).rev().map(f64::from).collect();
    let base = generate::with_singular_values(24, &sigma, 61);
    let blocked = |kernel: BlockKernel, frontend: bool| BlockedOptions {
        processors: 2,
        svd: SvdOptions::default().with_block_kernel(kernel).with_qr_frontend(frontend),
    };
    type Solve = Box<dyn Fn(&Matrix) -> Result<Svd, SvdError>>;
    let paths: [(&str, Solve); 7] = [
        (
            "simulated",
            Box::new(|a| HestenesSvd::new(SvdOptions::default()).compute(a).map(|r| r.svd)),
        ),
        (
            "distributed",
            Box::new(|a| {
                HestenesSvd::new(SvdOptions::default()).compute_distributed(a).map(|r| r.svd)
            }),
        ),
        (
            "blocked gram",
            Box::new(move |a| blocked_svd(a, &blocked(BlockKernel::Gram, false)).map(|r| r.svd)),
        ),
        (
            "blocked pairwise",
            Box::new(move |a| {
                blocked_svd(a, &blocked(BlockKernel::Pairwise, false)).map(|r| r.svd)
            }),
        ),
        (
            "blocked + qr front-end",
            Box::new(move |a| blocked_svd(a, &blocked(BlockKernel::Gram, true)).map(|r| r.svd)),
        ),
        ("sequential", Box::new(|a| sequential_svd(a, 60).map(|r| r.svd))),
        ("auto", Box::new(|a| auto_svd(a).map(|r| r.svd))),
    ];
    for (name, solve) in &paths {
        let mut first: Option<(i32, Svd)> = None;
        for k in [-900, -600, 600, 900] {
            let scale = 2.0_f64.powi(k);
            let mut a = base.clone();
            a.scale(scale);
            let mut svd = solve(&a).unwrap_or_else(|e| panic!("{name} at 2^{k}: {e}"));
            for s in &mut svd.sigma {
                *s /= scale;
            }
            for (c, e) in svd.sigma.iter().zip(&sigma) {
                assert!((c - e).abs() < 1e-12 * e, "{name} at 2^{k}: σ {c} vs {e}");
            }
            match &first {
                None => first = Some((k, svd)),
                Some((k0, r)) => {
                    assert_eq!(svd.sigma, r.sigma, "{name}: σ at 2^{k} vs 2^{k0}");
                    assert_eq!(svd.u, r.u, "{name}: U at 2^{k} vs 2^{k0}");
                    assert_eq!(svd.v, r.v, "{name}: V at 2^{k} vs 2^{k0}");
                }
            }
        }
        let mut a = base.clone();
        a.set(5, 3, f64::NAN);
        match solve(&a) {
            Err(SvdError::NonFinite { row: 5, col: 3 }) => {}
            other => panic!("{name}: expected NonFinite at (5, 3), got {other:?}"),
        }
    }
}

#[test]
fn duplicate_singular_values() {
    let sigma = [3.0, 3.0, 3.0, 1.0, 1.0];
    let a = generate::with_singular_values(10, &sigma, 44);
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-10);
    assert_valid_svd(&a, &run.svd, 1e-10, "duplicates");
}

#[test]
fn unsorted_mode_spectra_match_sorted_multiset() {
    let a = generate::random_uniform(18, 12, 55);
    let sorted = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    let unsorted =
        HestenesSvd::new(SvdOptions::default().with_sort(SortMode::None)).compute(&a).unwrap();
    let mut s = unsorted.svd.sigma.clone();
    s.sort_by(|x, y| y.partial_cmp(x).unwrap());
    assert!(checks::spectrum_distance(&s, &sorted.svd.sigma) < 1e-10);
    // unsorted mode must still produce a correct factorization
    assert!(unsorted.svd.residual(&a) < 1e-10);
    assert!(unsorted.svd.orthogonality() < 1e-10);
}

#[test]
fn repeated_runs_are_deterministic() {
    let a = generate::random_uniform(20, 12, 66);
    let r1 = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    let r2 = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    assert_eq!(r1.sweeps, r2.sweeps);
    assert_eq!(r1.svd.sigma, r2.svd.sigma);
}

#[test]
fn truncated_svd_is_best_low_rank() {
    let sigma = [10.0, 5.0, 1.0, 0.1];
    let a = generate::with_singular_values(12, &sigma, 77);
    let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
    for k in 1..=4usize {
        let ak = run.svd.truncate(k).unwrap();
        let err = a.sub(&ak).unwrap().frobenius_norm();
        let expect: f64 = sigma[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - expect).abs() < 1e-9, "k = {k}: {err} vs {expect}");
    }
}

#[test]
fn tied_columns_do_not_swap_forever() {
    // two equal columns (here zero ones, padding among them) once swapped
    // at every meeting whose smaller label sat on the right, so no sweep
    // was ever swap-free: NoConvergence on inputs with a trivial answer
    let direct = || SvdOptions::default().with_qr_frontend(false);
    for (m, n) in [(7, 5), (16, 8)] {
        let a = Matrix::zeros(m, n).unwrap();
        for kind in OrderingKind::ALL {
            for frontend in [false, true] {
                let solver =
                    HestenesSvd::new(direct().with_ordering(kind).with_qr_frontend(frontend));
                for (path, run) in [
                    ("simulated", solver.compute(&a)),
                    ("distributed", solver.compute_distributed(&a)),
                ] {
                    let run =
                        run.unwrap_or_else(|e| panic!("{m}x{n} {kind} {path} fe={frontend}: {e}"));
                    assert_eq!(run.sweeps, 1, "{m}x{n} {kind} {path} fe={frontend}");
                    assert_eq!(run.svd.rank, 0);
                    assert!(run.svd.sigma.iter().all(|&s| s == 0.0));
                    assert!(run.svd.orthogonality() < 1e-12);
                }
            }
        }
    }
    // one uniform column padded with three zero ones, under the rings
    let a = generate::random_uniform(10, 1, 3);
    let norm = a.frobenius_norm();
    for kind in [
        OrderingKind::Ring,
        OrderingKind::RoundRobin,
        OrderingKind::NewRing,
        OrderingKind::ModifiedRing,
    ] {
        for frontend in [false, true] {
            let run = HestenesSvd::new(direct().with_ordering(kind).with_qr_frontend(frontend))
                .compute(&a)
                .unwrap_or_else(|e| panic!("10x1 {kind} fe={frontend}: {e}"));
            assert_eq!(run.sweeps, 1, "10x1 {kind} fe={frontend}");
            assert!((run.svd.sigma[0] - norm).abs() <= 1e-15 * norm);
            assert!(run.svd.residual(&a) < 1e-15);
        }
    }
    // the tuner plans these one-column shapes on the simulated driver
    for (m, n) in [(1, 1), (5, 1), (1, 5), (10_000, 1), (1, 10_000)] {
        let a = generate::random_uniform(m, n, (m + n) as u64);
        let run = auto_svd(&a).unwrap_or_else(|e| panic!("auto {m}x{n}: {e}"));
        assert_eq!(run.sweeps, 1, "auto {m}x{n}");
        assert!((run.svd.sigma[0] - a.frobenius_norm()).abs() <= 1e-14 * a.frobenius_norm());
        assert!(run.svd.residual(&a) < 1e-14, "auto {m}x{n}");
    }
}

#[test]
fn subnormal_columns_come_back_with_real_norms() {
    // column scales rising from 1e-320 to 1: the first columns are all
    // subnormal, their squared norms 0, so no rotation moves them, and
    // the σ extraction's scaled norm overflowed 1/scale to ∞ there (the
    // simulated and blocked drivers returned Ok with σ₁ = 0, rank 0 and
    // residual 1)
    let mut a = generate::random_uniform(256, 32, 11);
    for j in 0..32 {
        let scale = 10f64.powf(-320.0 * (1.0 - j as f64 / 31.0));
        for x in a.col_mut(j) {
            *x *= scale;
        }
    }
    let top = a.col(31).iter().map(|x| x * x).sum::<f64>().sqrt();
    let opts = SvdOptions::default().with_qr_frontend(false);
    let solver = HestenesSvd::new(opts.clone());
    let blocked = blocked_svd(&a, &BlockedOptions { processors: 4, svd: opts }).map(|r| r.svd);
    for (path, run) in [
        ("simulated", solver.compute(&a).map(|r| r.svd)),
        ("distributed", solver.compute_distributed(&a).map(|r| r.svd)),
        ("blocked", blocked),
    ] {
        let svd = run.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            svd.sigma[0] >= top * (1.0 - 1e-13),
            "{path}: σ₁ {:e} < ‖a₃₁‖ {top:e}",
            svd.sigma[0]
        );
        assert!(svd.rank >= 1, "{path}");
        assert!(svd.residual(&a) < 1e-13, "{path}: residual {:.1e}", svd.residual(&a));
        assert!(svd.orthogonality() < 1e-12, "{path}: orthogonality {:.1e}", svd.orthogonality());
    }
}

#[test]
fn rotations_survive_a_zeta_past_the_square_root_of_overflow() {
    // A = B·D with D falling from 1 to 1e-150: late pairs meet with
    // |ζ| > 1.34e154, where 1 + ζ² overflowed, t collapsed to 0 and the
    // pair counted as a rotation that changed nothing, forever
    let b = generate::random_uniform(1024, 64, 7);
    let mut a = b.clone();
    for j in 0..64 {
        let scale = 10f64.powf(-150.0 * j as f64 / 63.0);
        for x in a.col_mut(j) {
            *x *= scale;
        }
    }
    let opts = SvdOptions::default().with_qr_frontend(false);
    let solver = HestenesSvd::new(opts.clone());
    let blocked =
        blocked_svd(&a, &BlockedOptions { processors: 4, svd: opts }).map(|r| (r.svd, r.sweeps));
    for (path, run) in [
        ("simulated", solver.compute(&a).map(|r| (r.svd, r.sweeps))),
        ("distributed", solver.compute_distributed(&a).map(|r| (r.svd, r.sweeps))),
        ("blocked", blocked),
    ] {
        let (svd, sweeps) = run.unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(sweeps <= 10, "{path}: {sweeps} sweeps");
        assert!(svd.residual(&a) < 1e-13, "{path}: residual {:.1e}", svd.residual(&a));
        assert!(svd.orthogonality() < 1e-12, "{path}: orthogonality {:.1e}", svd.orthogonality());
    }
}
