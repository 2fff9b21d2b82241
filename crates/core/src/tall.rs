//! The tall-skinny QR front-end.
//!
//! The paper's one-sided Jacobi sweeps rotate full `m`-length columns at
//! every meeting: for `m ≫ n` nearly all memory bandwidth moves data a
//! one-sided preprocessing stage could shrink first. The front-end
//! factors `A = QR` with the TSQR tree of [`treesvd_matrix::qr`]
//! (Faverge–Langou–Robert–Dongarra, arXiv 1611.06892), runs the chosen
//! Jacobi driver on the small `n×n` matrix `Rᵀ`, and maps its factors
//! back:
//!
//! ```text
//! Rᵀ = Ũ Σ Ṽᵀ   ⇒   A = QR = (Q·Ṽ) Σ Ũᵀ,   so  U = Q·[Ṽ; 0],  V = Ũ
//! ```
//!
//! with a tiled back-transform that never forms `Q` and skips the zero
//! rows of `[Ṽ; 0]` ([`TsqrQr::q_times`]). Sweeping `Rᵀ` rather than `R`
//! is Drmač–Veselić's preconditioning (*New fast and accurate Jacobi SVD
//! algorithm I/II*, SIAM J. Matrix Anal. Appl. 29(4), 2008): the columns
//! of `Rᵀ` — the rows of `R` — start out much closer to orthogonal, so
//! fewer sweeps converge (7–8 instead of 11–12 on the planted κ = 10⁴
//! spectra of perfbench's 8192×64 `tall` inputs). The inner solve
//! accumulates its `V` whatever [`SvdOptions::vectors`] says, because
//! that `Ṽ` becomes `A`'s `U`; with vectors off the caller still gets
//! both factors.
//!
//! The crossover model: the QR stage costs `≈ 2mn²` flops plus one
//! streaming pass over `A` per panel, while each Jacobi sweep streams
//! `O(mn·log n)` words through `O(n)` meetings; once `m/n` reaches
//! [`SvdOptions::qr_crossover`] the factorization pays for itself within
//! the first sweep and every subsequent sweep runs on an `n×n` working
//! set. Correctness is aspect-independent — `Q` has orthonormal columns,
//! so `Σ` of `Rᵀ` is exactly that of `A`, and `U = Q·Ṽ` stays
//! orthonormal even for rank-deficient `R` (the inner driver completes
//! `Ũ` to a full orthogonal basis).
//!
//! Wide inputs (`m < n`) reach this stage through the drivers' existing
//! transpose normalization: the front-end then runs on `Aᵀ` and the
//! caller swaps `U`/`V` back, so extreme aspect ratios are handled on
//! *both* sides.

use crate::options::{SvdError, SvdOptions};
use crate::result::Svd;
use treesvd_matrix::qr::{Joiner, QrOptions, TsqrQr};
use treesvd_matrix::Matrix;
use treesvd_sim::par;

/// The [`Joiner`] that plugs the matrix crate's TSQR fork points into the
/// persistent worker pool ([`par::join_dyn`]).
pub(crate) struct PoolJoin;

impl Joiner for PoolJoin {
    fn fork(&self, a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
        par::join_dyn(a, b);
    }
}

/// Whether the front-end engages for an `m × n` input (callers have
/// already normalized to `m ≥ n`): opted in, strictly tall, and past the
/// aspect-ratio crossover (floored at 1).
pub(crate) fn engages(opts: &SvdOptions, m: usize, n: usize) -> bool {
    opts.qr_frontend && m > n && m as f64 >= opts.qr_crossover.max(1.0) * n as f64
}

/// Solve `a` through the front-end: factor `A = QR` on the worker pool
/// (the explicit thread budget, else the machine parallelism), run
/// `driver` on `Rᵀ` with the inner options — the caller's, with the
/// front-end barred and vectors on — and turn `Rᵀ = ŨΣṼᵀ` into
/// `U = Q·[Ṽ; 0]`, `V = Ũ` in the decomposition `svd` selects from the
/// run. Also returns the factorization's steady-state allocation events.
pub(crate) fn solve<R>(
    a: &Matrix,
    opts: &SvdOptions,
    driver: impl FnOnce(&Matrix, SvdOptions) -> Result<R, SvdError>,
    svd: impl FnOnce(&mut R) -> &mut Svd,
) -> Result<(R, u64), SvdError> {
    let lanes = opts.threads.unwrap_or_else(par::num_threads).max(1);
    let qr_opts = QrOptions { panel: opts.qr_panel.max(1), leaf_rows: 0, lanes };
    // the engage guard guarantees m > n, so the factorization cannot fail
    let qr = TsqrQr::factor(a, &qr_opts, &PoolJoin).map_err(|_| SvdError::EmptyMatrix)?;
    let inner = SvdOptions { qr_frontend: false, vectors: true, ..opts.clone() };
    let mut run = driver(&qr.r().transpose(), inner)?;
    let out = svd(&mut run);
    let u = qr.q_times(&out.v, lanes, &PoolJoin);
    out.v = std::mem::replace(&mut out.u, u);
    Ok((run, qr.stats().steady_alloc_events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocked_svd, BlockedOptions, HestenesSvd, HierBlocking, SvdOptions};
    use treesvd_matrix::{checks, generate, ops};

    fn fe_opts() -> SvdOptions {
        SvdOptions::default().with_qr_frontend(true)
    }

    fn assert_matches_direct(a: &Matrix, tol: f64) {
        let direct = HestenesSvd::new(SvdOptions::default()).compute(a).unwrap();
        let fe = HestenesSvd::new(fe_opts()).compute(a).unwrap();
        assert!(
            checks::spectrum_distance(&fe.svd.sigma, &direct.svd.sigma)
                < tol * direct.svd.sigma.first().copied().unwrap_or(1.0).max(1.0),
            "spectra diverge: {:?} vs {:?}",
            fe.svd.sigma,
            direct.svd.sigma
        );
        assert!(fe.svd.residual(a) < tol, "residual {}", fe.svd.residual(a));
        assert!(fe.svd.orthogonality() < tol, "orthogonality {}", fe.svd.orthogonality());
    }

    #[test]
    fn engage_rule_honors_crossover_and_shape() {
        let o = fe_opts();
        assert!(engages(&o, 128, 16)); // aspect 8 = default crossover
        assert!(!engages(&o, 127, 16));
        assert!(!engages(&o, 16, 16), "square inputs gain nothing");
        assert!(!engages(&SvdOptions::default(), 4096, 8), "front-end is opt-in");
        let o = fe_opts().with_qr_crossover(0.0);
        assert!(engages(&o, 17, 16), "crossover floors at 1 (strictly tall)");
        assert!(!engages(&o, 16, 16), "square stays direct even at crossover 0");
    }

    #[test]
    fn frontend_matches_direct_jacobi() {
        let a = generate::random_uniform(160, 12, 21);
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend, "the front-end must actually engage");
        assert_matches_direct(&a, 1e-9);
    }

    #[test]
    fn aspect_ratio_sweep() {
        // m/n ∈ {1, 8, 4096}: square skips the front-end, the others take it
        for (m, n, expect_fe) in [(24usize, 24usize, false), (96, 12, true), (8192, 2, true)] {
            let a = generate::random_uniform(m, n, (m ^ n) as u64);
            let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
            assert_eq!(run.qr_frontend, expect_fe, "{m}x{n}");
            assert!(run.svd.residual(&a) < 1e-9, "{m}x{n}: {}", run.svd.residual(&a));
            assert!(run.svd.orthogonality() < 1e-10, "{m}x{n}");
            assert!(checks::is_nonincreasing(&run.svd.sigma), "{m}x{n}");
        }
    }

    #[test]
    fn wide_input_routes_through_transposed_frontend() {
        // m < n: the driver transposes, the front-end engages on Aᵀ, and
        // the U/V swap restores A = UΣVᵀ
        let at = generate::with_singular_values(96, &[7.0, 3.0, 1.0, 0.25], 22);
        let a = at.transpose(); // 4 × 96
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.transposed && run.qr_frontend);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-10, "residual {recon}");
        assert!(checks::spectrum_distance(&run.svd.sigma, &[7.0, 3.0, 1.0, 0.25]) < 1e-10);
    }

    #[test]
    fn rank_deficient_tall_input() {
        let a = generate::rank_deficient(200, 10, 4, 23);
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend);
        assert_eq!(run.svd.rank, 4);
        assert!(run.svd.orthogonality() < 1e-10, "U completion must survive Q");
        assert!(run.svd.residual(&a) < 1e-10);
    }

    #[test]
    fn known_spectrum_is_preserved_exactly_enough() {
        let sigma = [40.0, 8.0, 1.0, 1e-4];
        let tall = generate::with_singular_values(8, &sigma, 24);
        // embed the 8×4-spectrum matrix into a 512×4 tall one via QR-like
        // stacking: repeat the rows (scales the spectrum by sqrt(64))
        let mut a = Matrix::zeros(512, 4).unwrap();
        for j in 0..4 {
            let src = tall.col(j);
            for r in 0..64 {
                a.col_mut(j)[r * 8..(r + 1) * 8].copy_from_slice(src);
            }
        }
        let scale = 8.0; // sqrt(64)
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend);
        for (got, want) in run.svd.sigma.iter().zip(sigma.iter()) {
            assert!(
                (got - scale * want).abs() < 1e-9 * scale * sigma[0],
                "{got} vs {}",
                scale * want
            );
        }
    }

    #[test]
    fn every_driver_times_vectors_agrees() {
        let a = generate::random_uniform(144, 8, 25);
        let reference = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        for vectors in [true, false] {
            // simulated driver
            let sim = HestenesSvd::new(fe_opts().with_vectors(vectors)).compute(&a).unwrap();
            assert!(sim.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&sim.svd.sigma, &reference.svd.sigma) < 1e-9,
                "sim vectors={vectors}"
            );
            // distributed driver
            let dist =
                HestenesSvd::new(fe_opts().with_vectors(vectors)).compute_distributed(&a).unwrap();
            assert!(dist.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&dist.svd.sigma, &reference.svd.sigma) < 1e-9,
                "dist vectors={vectors}"
            );
            // blocked driver
            let mut bopts = BlockedOptions::for_processors(2);
            bopts.svd = fe_opts().with_vectors(vectors);
            let blk = blocked_svd(&a, &bopts).unwrap();
            assert!(blk.qr_frontend, "vectors={vectors}");
            assert!(
                checks::spectrum_distance(&blk.svd.sigma, &reference.svd.sigma) < 1e-9,
                "blocked vectors={vectors}"
            );
            // the inner solve on Rᵀ always accumulates its V (it becomes
            // A's U), so both factors are real with vectors off too
            assert!(sim.svd.residual(&a) < 1e-9, "sim vectors={vectors}");
            assert!(dist.svd.residual(&a) < 1e-9, "dist vectors={vectors}");
            assert!(blk.svd.residual(&a) < 1e-9, "blocked vectors={vectors}");
        }
    }

    #[test]
    fn graded_input_keeps_relative_accuracy() {
        // A = B·D with B uniform random and D graded over 8 and 12
        // decades, columns decreasing and increasing: through the
        // front-end every σ of every driver stays within 1e-13 relative
        // of the direct simulated driver's, down to the smallest
        for (m, n) in [(2048usize, 16usize), (1024, 32), (4096, 64)] {
            let b = generate::random_uniform(m, n, (m + n) as u64);
            for decades in [8.0, 12.0] {
                for increasing in [false, true] {
                    let mut a = b.clone();
                    for j in 0..n {
                        let t = j as f64 / (n - 1) as f64;
                        let t = if increasing { 1.0 - t } else { t };
                        ops::scal(10f64.powf(-decades * t), a.col_mut(j));
                    }
                    let direct = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
                    let sim = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
                    let dist = HestenesSvd::new(fe_opts()).compute_distributed(&a).unwrap();
                    let bopts = BlockedOptions { processors: 4, svd: fe_opts() };
                    let blk = blocked_svd(&a, &bopts).unwrap();
                    assert!(sim.qr_frontend && dist.qr_frontend && blk.qr_frontend);
                    let want = &direct.svd.sigma;
                    assert_eq!(direct.svd.rank, n, "{m}x{n}: the spread stays above the cutoff");
                    for (path, got) in
                        [("simulated", &sim.svd), ("distributed", &dist.svd), ("blocked", &blk.svd)]
                    {
                        for (k, (g, w)) in got.sigma.iter().zip(want).enumerate() {
                            let rel = (g - w).abs() / w;
                            assert!(
                                rel <= 1e-13,
                                "{m}x{n} 1e-{decades} increasing={increasing} {path}: \
                                 σ{k} {g:e} vs {w:e} (rel {rel:.1e})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_frontend_counts_allocs_and_stays_orthogonal() {
        let a = generate::random_uniform(512, 16, 26);
        let mut opts = BlockedOptions::for_processors(2);
        opts.svd = fe_opts().with_hier_blocking(HierBlocking::Off);
        let run = blocked_svd(&a, &opts).unwrap();
        assert!(run.qr_frontend);
        assert_eq!(run.steady_alloc_events, 0, "QR + blocked stage must be steady-state clean");
        assert!(run.svd.orthogonality() < 1e-10);
        assert!(run.svd.residual(&a) < 1e-9);
    }

    #[test]
    fn frontend_below_crossover_is_bitwise_direct() {
        // an engaged-off run must be *identical* to the plain driver, not
        // just close: the option defaults cannot perturb existing results
        let a = generate::random_uniform(40, 16, 27);
        let direct = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let fe = HestenesSvd::new(fe_opts()).compute(&a).unwrap(); // aspect 2.5 < 8
        assert!(!fe.qr_frontend);
        assert_eq!(direct.svd.sigma, fe.svd.sigma);
        assert_eq!(direct.svd.u, fe.svd.u);
        assert_eq!(direct.svd.v, fe.svd.v);
    }
}
