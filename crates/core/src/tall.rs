//! The QR front-end: every solve's preconditioner.
//!
//! The paper's one-sided Jacobi sweeps rotate full `m`-length columns at
//! every meeting, and its cost is sweeps × column length. The front-end
//! shrinks both, as LAPACK `DGEJSV` does (Drmač–Veselić, *New fast and
//! accurate Jacobi SVD algorithm I/II*, SIAM J. Matrix Anal. Appl. 29(4),
//! 2008). It sorts `A`'s columns by decreasing norm, factors `A·P = QR`
//! with the TSQR tree of [`treesvd_matrix::qr`]
//! (Faverge–Langou–Robert–Dongarra, arXiv 1611.06892), factors
//! `Rᵀ = Q₂R₂` on the same tree, runs the chosen Jacobi driver on the
//! small `n×n` matrix `R₂ᵀ`, and maps its factors back:
//!
//! ```text
//! R₂ᵀ = Ũ₂ Σ Ṽ₂ᵀ   ⇒   Rᵀ = Q₂R₂ = (Q₂·Ṽ₂) Σ Ũ₂ᵀ
//!                  ⇒   A·P = QR = (Q·Ũ₂) Σ (Q₂·Ṽ₂)ᵀ,
//!                      so  U = Q·[Ũ₂; 0],  V = P·Q₂·Ṽ₂
//! ```
//!
//! with tiled back-transforms that never form `Q` or `Q₂` and skip the
//! zero rows of `[Ũ₂; 0]` ([`TsqrQr::q_times`]). `P` only permutes the
//! rows of the `n×n` `Q₂·Ṽ₂`. A tall-skinny `A` is factored as one panel
//! of all its columns ([`qr_panel_for`]), so `Q·[Ũ₂; 0]` reads only the
//! reflectors and writes `U` once.
//!
//! * **Sweeping `R₂ᵀ`.** The columns of `Rᵀ` — the rows of `R` — start
//!   out much closer to orthogonal than those of `A` or `R`, and the
//!   columns of `R₂ᵀ` closer still, so fewer sweeps converge, on columns
//!   of `n` rows instead of `m`: on the planted 256×64 `paper` inputs of
//!   perfbench, 16 sweeps of `A` became 9–10 of `Rᵀ` and 7 of
//!   `R₂ᵀ`; on its 8192×64 `tall` inputs, 11–12 → 7–8 → 5–6.
//!   Spectra graded over many decades gain the most, uniform and flat
//!   ones nothing, and there the second factorization is a toll of its
//!   own (DESIGN.md §13). The second factorization is not pivoted. The
//!   inner solve accumulates its `V` whatever [`SvdOptions::vectors`]
//!   says, so with vectors off the caller still gets both factors.
//! * **The sort.** Unsorted, columns many decades below the rest ahead
//!   of the others leave the sweeps unsettled: with column scales rising
//!   from 1e-100 or 1e-150 to 1 at 1024×64 the simulated and distributed
//!   drivers on `Rᵀ` returned `NoConvergence`, where the direct path
//!   converges in 6 sweeps; and an exactly zero column ahead of the
//!   others doubled the sweeps, to 16–18. Sorted by decreasing norm, as
//!   `DGEJSV` pivots with `DGEQP3`, small and zero columns land last, and
//!   these inputs converge in 1–9 sweeps. The norms come free from
//!   the entry screen ([`crate::screen`]), which reads every entry anyway;
//!   the sort is stable, so ties keep index order, and
//!   [`TsqrQr::factor_permuted`] applies `P` in the copy into its working
//!   matrix that the factorization makes anyway.
//! * **Every shape.** The front-end runs for every `m ≥ n` unless
//!   [`SvdOptions::qr_frontend`] is off, square inputs included.
//!   Correctness is shape-independent — `Q` has orthonormal columns and
//!   `Q₂` is orthogonal, so `Σ` of `R₂ᵀ` is exactly that of `A`, and
//!   `U = Q·Ũ₂` stays orthonormal even for rank-deficient `R` (the inner
//!   driver completes `Ũ₂` to a full orthogonal basis).
//!
//! Wide inputs (`m < n`) reach this stage through the drivers' transpose
//! normalization: the front-end then runs on `Aᵀ`, sorted by the row
//! norms of `A`, and the caller swaps `U`/`V` back.

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

/// The panel width of the front-end's factorization of an `m×n` matrix
/// ([`QrOptions::panel`]), given [`SvdOptions::qr_panel`]. A tall-skinny
/// matrix, `m ≥ 16n`, at most twice `qr_panel` wide is factored as one
/// panel of all `n` columns, as TSQR factors a tall-skinny matrix: that
/// leaves no trailing update, and the back-transform's one panel reads
/// only `V` and writes `U` once ([`TsqrQr::q_times`]). Every other shape
/// keeps `qr_panel`, the `n×n` second factorization among them.
pub fn qr_panel_for(m: usize, n: usize, qr_panel: usize) -> usize {
    let panel = qr_panel.max(1);
    if m >= 16 * n && n <= 2 * panel {
        n
    } else {
        panel
    }
}

/// Solve `a` through the front-end: sort its columns by the sums of
/// squares `norms` (the entry screen's), factor `A·P = QR` and then `Rᵀ =
/// Q₂R₂` on the worker pool (the explicit thread budget, else the machine
/// parallelism), each in panels of [`qr_panel_for`] its shape, run
/// `driver` on `R₂ᵀ` with the inner options — the
/// caller's, with the front-end barred and vectors on — and turn `R₂ᵀ =
/// Ũ₂ΣṼ₂ᵀ` into `U = Q·[Ũ₂; 0]`, `V = P·Q₂·Ṽ₂` in the decomposition `svd`
/// selects from the run. Also returns the two factorizations'
/// steady-state allocation events.
pub(crate) fn solve<R>(
    a: &Matrix,
    norms: &[f64],
    opts: &SvdOptions,
    driver: impl FnOnce(&Matrix, SvdOptions) -> Result<R, SvdError>,
    svd: impl FnOnce(&mut R) -> &mut Svd,
) -> Result<(R, u64), SvdError> {
    let lanes = opts.threads.unwrap_or_else(par::num_threads).max(1);
    let (m, n) = a.shape();
    let qr_opts =
        |m, n| QrOptions { panel: qr_panel_for(m, n, opts.qr_panel), leaf_rows: 0, lanes };
    // P: the columns by decreasing norm, ties in index order (stable)
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));
    // the drivers pass m ≥ n and one norm per column, so neither can fail
    let qr = TsqrQr::factor_permuted(a, &order, &qr_opts(m, n), &PoolJoin)
        .map_err(|_| SvdError::EmptyMatrix)?;
    let qr2 = TsqrQr::factor(&qr.r().transpose(), &qr_opts(n, n), &PoolJoin)
        .map_err(|_| SvdError::EmptyMatrix)?;
    let allocs = qr.stats().steady_alloc_events + qr2.stats().steady_alloc_events;
    let inner = SvdOptions { qr_frontend: false, vectors: true, ..opts.clone() };
    let mut run = driver(&qr2.r().transpose(), inner)?;
    let out = svd(&mut run);
    let q2v = qr2.q_times(&out.v, lanes, &PoolJoin);
    // dropped first, so the thread's spare slot keeps Q's m×n working
    // matrix for the next solve rather than this n×n one
    drop(qr2);
    // V = P·Q₂·Ṽ₂: row k of Q₂·Ṽ₂ belongs to column order[k] of A
    for j in 0..q2v.cols() {
        let col = out.v.col_mut(j);
        for (&x, &i) in q2v.col(j).iter().zip(&order) {
            col[i] = x;
        }
    }
    out.u = qr.q_times(&out.u, lanes, &PoolJoin);
    Ok((run, allocs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocked_svd, BlockKernel, BlockedOptions, HestenesSvd, HierBlocking, SvdOptions};
    use treesvd_matrix::{checks, generate, ops};

    fn fe_opts() -> SvdOptions {
        SvdOptions::default()
    }

    /// A named solve, for tables of drivers.
    type Solver<'a, T> = (&'a str, &'a dyn Fn(&Matrix) -> Result<T, SvdError>);

    /// The reference: the same driver sweeping `A` itself.
    fn direct_opts() -> SvdOptions {
        SvdOptions::default().with_qr_frontend(false)
    }

    fn assert_matches_direct(a: &Matrix, tol: f64) {
        let direct = HestenesSvd::new(direct_opts()).compute(a).unwrap();
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
    fn frontend_matches_direct_jacobi() {
        let a = generate::random_uniform(160, 12, 21);
        let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
        assert!(run.qr_frontend, "the front-end must actually engage");
        assert_matches_direct(&a, 1e-9);
    }

    #[test]
    fn aspect_ratio_sweep() {
        // m/n ∈ {1, 8, 4096}: every shape takes the front-end, and the
        // switch alone turns it off
        for (m, n) in [(24usize, 24usize), (96, 12), (8192, 2)] {
            let a = generate::random_uniform(m, n, (m ^ n) as u64);
            let run = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
            assert!(run.qr_frontend, "{m}x{n}");
            assert!(run.svd.residual(&a) < 1e-9, "{m}x{n}: {}", run.svd.residual(&a));
            assert!(run.svd.orthogonality() < 1e-10, "{m}x{n}");
            assert!(checks::is_nonincreasing(&run.svd.sigma), "{m}x{n}");
            assert!(!HestenesSvd::new(direct_opts()).compute(&a).unwrap().qr_frontend, "{m}x{n}");
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
        let reference = HestenesSvd::new(direct_opts()).compute(&a).unwrap();
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
            // the inner solve on R₂ᵀ always accumulates its V (Q₂ maps it
            // to A's V), so both factors are real with vectors off too
            assert!(sim.svd.residual(&a) < 1e-9, "sim vectors={vectors}");
            assert!(dist.svd.residual(&a) < 1e-9, "dist vectors={vectors}");
            assert!(blk.svd.residual(&a) < 1e-9, "blocked vectors={vectors}");
        }
    }

    #[test]
    fn panel_rule_takes_one_panel_only_for_tall_skinny_inputs() {
        let panel = SvdOptions::default().qr_panel;
        for (m, n) in [(1024, 64), (2048, 48), (8192, 64)] {
            assert_eq!(qr_panel_for(m, n, panel), n, "{m}x{n}: one panel");
        }
        // too short (m < 16n), the n×n second factorization, too wide
        for (m, n) in [(256, 64), (512, 64), (64, 64), (1000, 100), (16384, 128)] {
            assert_eq!(qr_panel_for(m, n, panel), panel, "{m}x{n}: qr_panel");
        }
        // the bound moves with qr_panel, and a narrower input is one panel
        // whatever the rule says
        assert_eq!(qr_panel_for(16384, 128, 64), 128);
        assert_eq!(qr_panel_for(8192, 64, 16), 16);
        assert_eq!(qr_panel_for(100, 12, 32), 32);
    }

    #[test]
    fn graded_input_keeps_relative_accuracy() {
        // A = B·D with B uniform random and D graded over 8 and 12
        // decades, columns decreasing and increasing: through the
        // front-end every σ of every driver stays within 1e-13 relative
        // of the direct simulated driver's, down to the smallest. The
        // first factorization of 2048×48 and 4096×64 is one panel
        let panel = SvdOptions::default().qr_panel;
        assert_eq!(qr_panel_for(2048, 48, panel), 48);
        assert_eq!(qr_panel_for(4096, 64, panel), 64);
        for (m, n) in [(2048usize, 16usize), (1024, 32), (2048, 48), (4096, 64)] {
            let b = generate::random_uniform(m, n, (m + n) as u64);
            for decades in [8.0, 12.0] {
                for increasing in [false, true] {
                    let mut a = b.clone();
                    for j in 0..n {
                        let t = j as f64 / (n - 1) as f64;
                        let t = if increasing { 1.0 - t } else { t };
                        ops::scal(10f64.powf(-decades * t), a.col_mut(j));
                    }
                    let direct = HestenesSvd::new(direct_opts()).compute(&a).unwrap();
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
    fn second_qr_cuts_the_sweeps_on_graded_spectra() {
        // σ graded over 8 decades: sweeping Rᵀ took 9–10 sweeps on the
        // simulated driver and 7–8 on blocked P = 4; R₂ᵀ, whose columns
        // start closer to orthogonal, takes 6–7 and 5. These inputs are
        // U·Σ·Vᵀ with random orthogonal factors, not graded columns, so σ
        // is accurate to σ₁'s scale, not to its own: the direct simulated
        // and blocked drivers already differ by up to 1e-9 relative in
        // the smallest σ
        for seed in 1..=4 {
            let a = generate::graded(256, 64, 1e-8, seed);
            let direct = HestenesSvd::new(direct_opts()).compute(&a).unwrap();
            let sim = HestenesSvd::new(fe_opts()).compute(&a).unwrap();
            let blk = blocked_svd(&a, &BlockedOptions { processors: 4, svd: fe_opts() }).unwrap();
            assert!(sim.qr_frontend && blk.qr_frontend, "seed {seed}");
            assert!(sim.sweeps <= 8, "seed {seed}: {} simulated sweeps", sim.sweeps);
            assert!(blk.sweeps <= 6, "seed {seed}: {} blocked sweeps", blk.sweeps);
            let want = &direct.svd.sigma;
            for (path, got) in [("simulated", &sim.svd), ("blocked", &blk.svd)] {
                for (k, (g, w)) in got.sigma.iter().zip(want).enumerate() {
                    let rel = (g - w).abs() / want[0];
                    assert!(rel <= 1e-13, "seed {seed} {path}: σ{k} {g:e} vs {w:e} ({rel:.1e})");
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
    fn column_order_does_not_change_the_bits() {
        // the sort undoes any reordering of columns with distinct norms:
        // A and A·Π factor the same A·P, so σ and U agree bit for bit and
        // V differs by Π's row permutation
        let a = generate::random_uniform(300, 12, 28);
        let perm: Vec<usize> = (0..12).map(|k| (5 * k + 7) % 12).collect();
        let mut ap = Matrix::zeros(300, 12).unwrap();
        for (k, &j) in perm.iter().enumerate() {
            ap.col_mut(k).copy_from_slice(a.col(j));
        }
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let blocked = |a: &Matrix| {
            blocked_svd(a, &BlockedOptions { processors: 2, svd: fe_opts() }).map(|r| r.svd)
        };
        let solvers: [Solver<Svd>; 3] = [
            ("simulated", &|a| HestenesSvd::new(fe_opts()).compute(a).map(|r| r.svd)),
            ("distributed", &|a| HestenesSvd::new(fe_opts()).compute_distributed(a).map(|r| r.svd)),
            ("blocked", &blocked),
        ];
        for (name, solve) in solvers {
            let (x, y) = (solve(&a).unwrap(), solve(&ap).unwrap());
            assert_eq!(bits(&x.sigma), bits(&y.sigma), "{name}: σ");
            assert_eq!(bits(x.u.as_slice()), bits(y.u.as_slice()), "{name}: U");
            for (k, &j) in perm.iter().enumerate() {
                for c in 0..12 {
                    assert_eq!(x.v.get(j, c).to_bits(), y.v.get(k, c).to_bits(), "{name}: V");
                }
            }
        }
    }

    #[test]
    fn lane_count_does_not_change_the_bits() {
        // the QR's column chunks and the drivers' forked steps touch
        // disjoint data, so one lane and two through the pool's join give
        // the same bits: R, the thin Q and q_times of the factorization
        // (8192×64 as one panel, as the front-end factors it), and the
        // blocked and simulated front-end solves' σ, U and V with forced
        // forking (1000×40 is one panel there)
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (m, n, panel, leaf_rows) in
            [(1000, 40, 16, 0), (4096, 16, 8, 512), (300, 64, 32, 0), (8192, 64, 64, 0)]
        {
            let what = format!("{m}x{n}, panel {panel}, leaf rows {leaf_rows}");
            let a = generate::random_uniform(m, n, 31);
            let head = generate::random_uniform(n, n, 32);
            let on = |lanes| {
                let qr = TsqrQr::factor(&a, &QrOptions { panel, leaf_rows, lanes }, &PoolJoin);
                let qr = qr.unwrap();
                let r = bits(qr.r().as_slice());
                let q = bits(qr.thin_q(&PoolJoin).as_slice());
                (r, q, bits(qr.q_times(&head, lanes, &PoolJoin).as_slice()))
            };
            let (one, two) = (on(1), on(2));
            assert_eq!(one.0, two.0, "{what}: R");
            assert_eq!(one.1, two.1, "{what}: thin Q");
            assert_eq!(one.2, two.2, "{what}: q_times");
        }
        let a = generate::random_uniform(1000, 40, 33);
        let opts = |threads: usize| {
            let mut o = fe_opts().with_threads(Some(threads));
            o.serial_cutoff = if threads > 1 { 0 } else { o.serial_cutoff };
            o
        };
        let solve = |name: &str, threads: usize| match name {
            "blocked" => {
                let svd = opts(threads);
                let run = blocked_svd(&a, &BlockedOptions { processors: 4, svd }).unwrap();
                (run.svd, run.sweeps)
            }
            _ => {
                let run = HestenesSvd::new(opts(threads)).compute(&a).unwrap();
                (run.svd, run.sweeps)
            }
        };
        for name in ["blocked", "simulated"] {
            let ((x, sx), (y, sy)) = (solve(name, 1), solve(name, 2));
            assert_eq!(bits(&x.sigma), bits(&y.sigma), "{name}: σ");
            assert_eq!(bits(x.u.as_slice()), bits(y.u.as_slice()), "{name}: U");
            assert_eq!(bits(x.v.as_slice()), bits(y.v.as_slice()), "{name}: V");
            assert_eq!(sx, sy, "{name}: sweeps");
        }
    }

    /// `b` with column `j` scaled by `10^(-decades·(1 − j/(n−1)))`: scales
    /// rising from `10^-decades` to 1.
    fn rising(b: &Matrix, decades: f64) -> Matrix {
        let mut a = b.clone();
        let n = a.cols();
        for j in 0..n {
            ops::scal(10f64.powf(-decades * (1.0 - j as f64 / (n - 1) as f64)), a.col_mut(j));
        }
        a
    }

    #[test]
    fn zero_columns_and_rising_scales_converge_on_every_driver() {
        // Unsorted, scales rising over 100+ decades left the sweeps on Rᵀ
        // unsettled (NoConvergence on the simulated and distributed
        // drivers, where the direct path takes 6 sweeps), and a zero
        // column ahead of the others doubled them (16–18); sorted, every
        // case takes 1–9 sweeps of R₂ᵀ. Past about 1e-154 below the largest entry a
        // column's sum of squares is subnormal, past 1e-162 it is 0, so
        // from 1e-200 and 1e-300 the smallest columns tie and keep their
        // rising index order at the end of the sort: they converge too.
        // From 1e-320 the first columns are subnormal: their norms and
        // reflectors must be formed at a scale where they keep their bits
        let mut cases: Vec<(String, Matrix, Option<usize>)> = Vec::new();
        for (m, n, zero) in [(256, 16, 9), (1024, 32, 0), (8192, 64, 17), (64, 32, 3), (64, 64, 10)]
        {
            let mut a = generate::random_uniform(m, n, (m + zero) as u64);
            a.col_mut(zero).fill(0.0);
            cases.push((format!("{m}x{n}, column {zero} zero"), a, Some(n - 1)));
        }
        for (m, n) in [(1024, 64), (256, 32)] {
            for decades in [100.0, 150.0, 200.0, 300.0, 320.0] {
                let a = rising(&generate::random_uniform(m, n, (m * n) as u64), decades);
                cases.push((format!("{m}x{n}, scales rising from 1e-{decades}"), a, None));
            }
        }
        let blocked = |kernel| {
            move |a: &Matrix| -> Result<(Svd, bool, usize), SvdError> {
                let svd = fe_opts().with_block_kernel(kernel);
                blocked_svd(a, &BlockedOptions { processors: 4, svd })
                    .map(|r| (r.svd, r.qr_frontend, r.sweeps))
            }
        };
        let solvers: [Solver<(Svd, bool, usize)>; 5] = [
            ("simulated", &|a| {
                HestenesSvd::new(fe_opts()).compute(a).map(|r| (r.svd, r.qr_frontend, r.sweeps))
            }),
            ("distributed", &|a| {
                let run = HestenesSvd::new(fe_opts()).compute_distributed(a);
                run.map(|r| (r.svd, r.qr_frontend, r.sweeps))
            }),
            ("blocked gram", &blocked(BlockKernel::Gram)),
            ("blocked pairwise", &blocked(BlockKernel::Pairwise)),
            ("auto", &|a| crate::auto_svd(a).map(|r| (r.svd, r.qr_frontend, r.sweeps))),
        ];
        for (case, a, rank) in &cases {
            for (name, solve) in &solvers {
                let (svd, fe, sweeps) = solve(a).unwrap_or_else(|e| panic!("{case}, {name}: {e}"));
                assert!(fe, "{case}, {name}: the front-end must engage");
                assert!(sweeps <= 12, "{case}, {name}: {sweeps} sweeps");
                if let Some(rank) = rank {
                    assert_eq!(svd.rank, *rank, "{case}, {name}");
                }
                let (res, orth) = (svd.residual(a), svd.orthogonality());
                assert!(res <= 1e-12 && orth <= 1e-12, "{case}, {name}: {res:.1e} {orth:.1e}");
            }
        }
    }
}
