//! The parallel Hestenes SVD driver.
//!
//! Orchestrates: shape normalization (transpose wide inputs, pad the
//! column count to the ordering's requirement with zero columns),
//! distribution over the simulated machine, sweeping until the paper's
//! termination criterion holds (a complete sweep with no rotation and no
//! interchange), and extraction of `U`, `σ`, `V` in index order with
//! rank handling.

use crate::options::{SvdError, SvdOptions};
use crate::plan::sweep_plan;
use crate::result::{extract_svd, Svd};
use crate::screen::screened;
use treesvd_matrix::Matrix;
use treesvd_net::Topology;
use treesvd_orderings::{OrderingError, OrderingKind};
use treesvd_sim::{
    execute_program_with_scratch, ColumnStore, ExecConfig, ExecScratch, Machine, SweepStats,
};

/// A completed SVD run: the decomposition plus everything the experiments
/// need to know about how it went.
#[derive(Debug)]
pub struct SvdRun {
    /// The decomposition (of the original, unpadded, untransposed matrix).
    pub svd: Svd,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Whether the termination criterion was met within `max_sweeps`.
    pub converged: bool,
    /// Per-sweep execution statistics (rotations, couplings, simulated
    /// times, contention).
    pub sweep_stats: Vec<SweepStats>,
    /// Total simulated machine time (compute + communication).
    pub simulated_time: f64,
    /// Whether the result was transposed back (input had `m < n`).
    pub transposed: bool,
    /// Padded column count actually used by the ordering.
    pub padded_n: usize,
    /// Exact off-diagonal measure before the first sweep and after each
    /// sweep (empty unless `track_off` was set), of the matrix as swept:
    /// an input rescaled at entry is measured at that scale.
    pub off_history: Vec<f64>,
    /// Whether the tall-skinny QR front-end engaged: the sweeps (and
    /// `sweep_stats`, `simulated_time`, `off_history`) ran on the `n×n`
    /// matrix `R₂ᵀ`, and `U` and `V` were back-transformed through `Q`
    /// and `Q₂` (see [`SvdOptions::qr_frontend`]).
    pub qr_frontend: bool,
}

impl SvdRun {
    /// Per-sweep maximum normalized couplings — the convergence trace
    /// (ultimately quadratic, §1).
    pub fn coupling_history(&self) -> Vec<f64> {
        self.sweep_stats.iter().map(|s| s.max_coupling).collect()
    }

    /// Total rotations applied across all sweeps.
    pub fn total_rotations(&self) -> usize {
        self.sweep_stats.iter().map(|s| s.rotations).sum()
    }
}

/// The parallel one-sided Jacobi SVD solver.
#[derive(Debug)]
pub struct HestenesSvd {
    options: SvdOptions,
}

impl HestenesSvd {
    /// Create a solver with the given options.
    pub fn new(options: SvdOptions) -> Self {
        Self { options }
    }

    /// Convenience: solver with default options and the given ordering.
    pub fn with_ordering(kind: OrderingKind) -> Self {
        Self::new(SvdOptions::default().with_ordering(kind))
    }

    /// Compute the SVD of `a`.
    ///
    /// Accepts any shape: wide matrices are transposed internally
    /// (`A = UΣVᵀ ⇔ Aᵀ = VΣUᵀ`), and the column count is padded with zero
    /// columns up to the ordering's size requirement (even, or a power of
    /// two for the tree orderings); padding contributes exact zero
    /// singular values that are stripped before returning. Inputs with
    /// extreme magnitudes are swept at an exact power-of-two scale (see
    /// the crate's input screen); `σ` is returned unscaled. Unless
    /// [`SvdOptions::qr_frontend`] is off, the sweeps run on the `n×n`
    /// factor `R₂ᵀ` of `Rᵀ = Q₂R₂`, where `R` is the triangular factor of
    /// the norm-sorted input (see [`crate::tall`]).
    ///
    /// # Errors
    /// [`SvdError::EmptyMatrix`] for degenerate shapes,
    /// [`SvdError::NonFinite`] for a NaN or infinite entry,
    /// [`SvdError::Ordering`] if no padded size suits the ordering, and
    /// [`SvdError::NoConvergence`] if `max_sweeps` is exhausted.
    pub fn compute(&self, a: &Matrix) -> Result<SvdRun, SvdError> {
        let fe = self.options.qr_frontend;
        screened(a, fe, |a, norms| self.compute_screened(a, norms), |run| &mut run.svd)
    }

    fn compute_screened(&self, a: &Matrix, norms: &[f64]) -> Result<SvdRun, SvdError> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(SvdError::EmptyMatrix);
        }
        if a.rows() >= a.cols() {
            self.compute_tall(a, norms, false)
        } else {
            // the screen summed A's rows: the columns of Aᵀ
            let at = a.transpose();
            let mut run = self.compute_tall(&at, norms, true)?;
            // A = U Σ Vᵀ with Aᵀ = V Σ Uᵀ: swap the factors back
            std::mem::swap(&mut run.svd.u, &mut run.svd.v);
            Ok(run)
        }
    }

    /// The padded size for `n` columns: the smallest size ≥ max(n, 4) the
    /// ordering accepts (try even sizes, then powers of two).
    fn padded_size(&self, n: usize) -> Result<usize, OrderingError> {
        let start = n.max(4);
        // even candidate
        let even = start + start % 2;
        if self.options.ordering.build(even).is_ok() {
            return Ok(even);
        }
        let pow2 = start.next_power_of_two();
        self.options.ordering.build(pow2).map(|_| pow2)
    }

    /// The solve of an `m ≥ n` input whose columns have the sums of
    /// squares `norms` (read only by the front-end).
    fn compute_tall(
        &self,
        a: &Matrix,
        norms: &[f64],
        transposed: bool,
    ) -> Result<SvdRun, SvdError> {
        let (m, n) = a.shape();
        debug_assert!(m >= n);
        if self.options.qr_frontend {
            let (mut run, _) = crate::tall::solve(
                a,
                norms,
                &self.options,
                |rt, inner| HestenesSvd::new(inner).compute_tall(rt, &[], false),
                |run| &mut run.svd,
            )?;
            run.transposed = transposed;
            run.qr_frontend = true;
            return Ok(run);
        }
        let n_pad = self.padded_size(n)?;
        // ring orderings accept any even n, so the processor count may not
        // be a power of two; embed the processors in the smallest complete
        // binary tree that holds them (extra leaves stay idle)
        let leaves = (n_pad / 2).next_power_of_two().max(2);
        let machine = Machine::new(Topology::new(self.options.topology, leaves), self.options.cost);
        // a move carries the column and, with V, its V column
        // (ColumnStore::column_words)
        let words = m + if self.options.vectors { n_pad } else { 0 };
        // one priced restore period serves every sweep of every solve of
        // this shape
        let plan = sweep_plan(&self.options, n_pad, Some((&machine, words as u64)))?;
        let prices = plan.prices.expect("the plan was priced");

        // distribute columns (zero columns as padding)
        let mut columns = a.clone().into_columns();
        columns.resize(n_pad, vec![0.0; m]);
        let mut store = ColumnStore::from_columns(columns, self.options.vectors);
        let threshold = self.options.threshold.unwrap_or(n_pad as f64 * f64::EPSILON);
        let config = ExecConfig {
            threshold,
            sort: self.options.sort,
            serial_cutoff: self.options.serial_cutoff,
            threads: self.options.threads.unwrap_or(0),
        };

        let mut sweep_stats: Vec<SweepStats> = Vec::new();
        let mut off_history: Vec<f64> = Vec::new();
        if self.options.track_off {
            off_history
                .push(treesvd_sim::off_measure_limited(&store, self.options.threads.unwrap_or(0)));
        }
        let mut converged = false;
        // one scratch for the whole run: once the first sweep has sized it,
        // a sweep allocates only the two vectors of its SweepStats
        let mut scratch = ExecScratch::new();
        for k in 0..self.options.max_sweeps {
            let (prog, priced) = (plan.sweeps.program(k), &prices[k % plan.sweeps.period()]);
            let stats = execute_program_with_scratch(
                &machine,
                prog,
                priced,
                &mut store,
                &config,
                &mut scratch,
            );
            if self.options.track_off {
                off_history.push(treesvd_sim::off_measure_limited(
                    &store,
                    self.options.threads.unwrap_or(0),
                ));
            }
            let done = stats.is_converged();
            sweep_stats.push(stats);
            if done {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SvdError::NoConvergence {
                sweeps: sweep_stats.len(),
                last_coupling: sweep_stats.last().map_or(f64::NAN, |s| s.max_coupling),
            });
        }

        let simulated_time = sweep_stats.iter().map(|s| s.total_time()).sum();
        let svd = self.extract(&store, m, n, n_pad)?;
        Ok(SvdRun {
            svd,
            sweeps: sweep_stats.len(),
            converged,
            sweep_stats,
            simulated_time,
            transposed,
            padded_n: n_pad,
            off_history,
            qr_frontend: false,
        })
    }

    /// Compute the SVD by the *distributed* executor: one thread per
    /// processor exchanging columns through `treesvd-comm` (the CMMD-style
    /// message-passing path), instead of the synchronous simulated machine.
    ///
    /// Numerically identical to [`HestenesSvd::compute`] (the executors are
    /// bitwise-equivalent); no simulated timing is produced, so
    /// `simulated_time` is 0 and `sweep_stats` is empty.
    ///
    /// # Errors
    /// As [`HestenesSvd::compute`], plus [`SvdError::Distributed`] when a
    /// bounded receive times out (an executor bug) — carrying the failing
    /// rank, sweep, step, and message context.
    pub fn compute_distributed(&self, a: &Matrix) -> Result<SvdRun, SvdError> {
        let fe = self.options.qr_frontend;
        screened(a, fe, |a, norms| self.compute_distributed_inner(a, norms), |run| &mut run.svd)
    }

    fn compute_distributed_inner(&self, a: &Matrix, norms: &[f64]) -> Result<SvdRun, SvdError> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(SvdError::EmptyMatrix);
        }
        if a.rows() < a.cols() {
            // the screen summed A's rows: the columns of Aᵀ
            let at = a.transpose();
            let mut run = self.compute_distributed_inner(&at, norms)?;
            std::mem::swap(&mut run.svd.u, &mut run.svd.v);
            run.transposed = true;
            return Ok(run);
        }
        let (m, n) = a.shape();
        if self.options.qr_frontend {
            let (mut run, _) = crate::tall::solve(
                a,
                norms,
                &self.options,
                |rt, inner| HestenesSvd::new(inner).compute_distributed_inner(rt, &[]),
                |run| &mut run.svd,
            )?;
            run.qr_frontend = true;
            return Ok(run);
        }
        let n_pad = self.padded_size(n)?;
        let plan = sweep_plan(&self.options, n_pad, None)?;
        let mut columns = a.clone().into_columns();
        columns.resize(n_pad, vec![0.0; m]);
        let threshold = self.options.threshold.unwrap_or(n_pad as f64 * f64::EPSILON);
        let config = treesvd_sim::ExecConfig {
            threshold,
            sort: self.options.sort,
            serial_cutoff: self.options.serial_cutoff,
            threads: self.options.threads.unwrap_or(0),
        };
        let outcome = treesvd_sim::distributed_svd(
            plan.sweeps,
            columns,
            self.options.vectors,
            config,
            self.options.max_sweeps,
        )?;
        if !outcome.converged {
            return Err(SvdError::NoConvergence {
                sweeps: outcome.sweeps,
                last_coupling: f64::NAN,
            });
        }
        let store = ColumnStore { slots: outcome.slots, layout: outcome.layout };
        let svd = self.extract(&store, m, n, n_pad)?;
        Ok(SvdRun {
            svd,
            sweeps: outcome.sweeps,
            converged: true,
            sweep_stats: Vec::new(),
            simulated_time: 0.0,
            transposed: false,
            padded_n: n_pad,
            off_history: Vec::new(),
            qr_frontend: false,
        })
    }

    /// Extract `U`, `σ`, `V` from the converged store.
    fn extract(
        &self,
        store: &ColumnStore,
        m: usize,
        n: usize,
        n_pad: usize,
    ) -> Result<Svd, SvdError> {
        let cols = store.columns_in_index_order();
        let col = |j: usize| (cols[j].a.as_slice(), cols[j].v.as_slice());
        extract_svd(col, m, n, n_pad, self.options.sort, self.options.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::SvdOptions;
    use treesvd_matrix::{checks, generate};
    use treesvd_orderings::OrderingKind;
    use treesvd_sim::SortMode;

    fn assert_good_svd(a: &Matrix, run: &SvdRun, tol: f64) {
        assert!(run.converged);
        let svd = &run.svd;
        assert!(svd.residual(a) < tol, "residual {}", svd.residual(a));
        assert!(svd.orthogonality() < tol, "orthogonality {}", svd.orthogonality());
        assert!(checks::is_nonincreasing(&svd.sigma), "sigma not sorted: {:?}", svd.sigma);
    }

    #[test]
    fn default_solver_on_random_matrix() {
        let a = generate::random_uniform(20, 16, 1);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-11);
    }

    #[test]
    fn known_spectrum_recovered() {
        let sigma = [9.0, 4.0, 2.0, 1.0, 0.25];
        let a = generate::with_singular_values(12, &sigma, 2);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-10);
    }

    #[test]
    fn verified_schedule_accepts_builtin_and_rejects_corrupt() {
        use crate::options::OrderingChoice;
        use crate::{blocked_svd, BlockedOptions};
        use std::sync::Arc;
        use treesvd_orderings::{JacobiOrdering, PairStep, Permutation, Program};

        let a = generate::random_uniform(12, 8, 5);
        // all built-in orderings pass the pre-flight verifier
        let run =
            HestenesSvd::new(SvdOptions::default().with_verify_schedule(true)).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-11);

        // a custom ordering that stalls on its first pairing is rejected
        // before any matrix data is touched
        struct Stalled(usize);
        impl JacobiOrdering for Stalled {
            fn n(&self) -> usize {
                self.0
            }
            fn name(&self) -> String {
                "stalled".into()
            }
            fn restore_period(&self) -> usize {
                1
            }
            fn sweep_program(&self, _sweep: usize, layout: &[usize]) -> Program {
                Program {
                    n: self.0,
                    initial_layout: layout.to_vec(),
                    steps: vec![PairStep { move_after: Permutation::identity(self.0) }; self.0 - 1],
                }
            }
        }
        let stalled = || {
            SvdOptions {
                ordering: OrderingChoice::Custom(Arc::new(|n| {
                    Ok(Box::new(Stalled(n)) as Box<dyn JacobiOrdering>)
                })),
                ..SvdOptions::default()
            }
            .with_verify_schedule(true)
        };
        let expect_schedule_error = |result: Result<Svd, SvdError>| match result {
            Err(SvdError::Schedule(v)) => {
                assert!(v.to_string().contains("step"), "diagnostic not step-precise: {v}");
            }
            other => panic!("expected SvdError::Schedule, got {other:?}"),
        };
        expect_schedule_error(HestenesSvd::new(stalled()).compute(&a).map(|r| r.svd));

        // the blocked driver verifies its block-level ordering the same way
        // (32×16 on P = 4: eight block slots of two columns)
        let a = generate::random_uniform(32, 16, 5);
        let blocked = BlockedOptions { processors: 4, svd: stalled() };
        expect_schedule_error(blocked_svd(&a, &blocked).map(|r| r.svd));
        let builtin =
            BlockedOptions { processors: 4, svd: SvdOptions::default().with_verify_schedule(true) };
        let run = blocked_svd(&a, &builtin).unwrap();
        assert!(run.svd.orthogonality() < 1e-11, "orthogonality {}", run.svd.orthogonality());
    }

    #[test]
    fn every_ordering_computes_the_same_svd() {
        let sigma = [8.0, 5.0, 3.0, 2.0, 1.5, 1.0, 0.5, 0.25];
        let a = generate::with_singular_values(16, &sigma, 3);
        for kind in OrderingKind::ALL {
            let run = HestenesSvd::with_ordering(kind).compute(&a).unwrap();
            assert_good_svd(&a, &run, 1e-10);
            assert!(
                checks::spectrum_distance(&run.svd.sigma, &sigma) < 1e-9,
                "{kind}: {:?}",
                run.svd.sigma
            );
        }
    }

    #[test]
    fn wide_matrix_transposed_internally() {
        let at = generate::with_singular_values(10, &[4.0, 2.0, 1.0], 4);
        let a = at.transpose(); // 3 x 10
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.transposed);
        // for a wide matrix the thin factors swap roles: U is 3x10? No —
        // we return A = U Σ Vᵀ with U: 3×3? Our convention: factors of Aᵀ
        // swapped, so u is m×k with k = min-dim... check reconstruction
        // through the returned shapes instead:
        let svd = &run.svd;
        assert_eq!(svd.sigma.len(), 3);
        // Aᵀ = (V) Σ (U)ᵀ reconstructs, hence A = U Σ Vᵀ with the swap
        let recon = checks::reconstruction_residual(&a.transpose(), &svd.v, &svd.sigma, &svd.u);
        assert!(recon < 1e-11, "residual {recon}");
    }

    #[test]
    fn odd_and_non_power_sizes_padded() {
        // 7 columns with the fat-tree ordering: pads to 8
        let a = generate::random_uniform(9, 7, 5);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.padded_n, 8);
        assert_good_svd(&a, &run, 1e-11);
        assert_eq!(run.svd.sigma.len(), 7);

        // 10 columns with a ring ordering: even already, no padding needed
        let a = generate::random_uniform(12, 10, 6);
        let run = HestenesSvd::with_ordering(OrderingKind::NewRing).compute(&a).unwrap();
        assert_eq!(run.padded_n, 10);
        assert_good_svd(&a, &run, 1e-11);
    }

    #[test]
    fn rank_deficient_matrix() {
        let a = generate::rank_deficient(10, 6, 3, 7);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.svd.rank, 3);
        assert_good_svd(&a, &run, 1e-10);
        for &s in &run.svd.sigma[3..] {
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn already_orthogonal_converges_in_low_sweeps() {
        let a = generate::already_orthogonal(12, 8, 8);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        // norms are 1..8 ascending by label: sorting must reverse them,
        // which costs extra sweeps but must still converge quickly
        assert!(run.sweeps <= 6, "sweeps {}", run.sweeps);
        assert!(checks::is_nonincreasing(&run.svd.sigma));
    }

    #[test]
    fn no_vectors_mode_skips_v() {
        let a = generate::random_uniform(10, 8, 9);
        let run = HestenesSvd::new(SvdOptions::default().with_vectors(false)).compute(&a).unwrap();
        assert!(run.converged);
        // sigma still correct vs a full run
        let full = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(checks::spectrum_distance(&run.svd.sigma, &full.svd.sigma) < 1e-10);
    }

    #[test]
    fn ill_conditioned_graded_matrix() {
        let a = generate::graded(24, 16, 1e-8, 10);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.converged);
        assert!(run.svd.residual(&a) < 1e-10);
        // the small singular values are still resolved relatively well —
        // one-sided Jacobi's high relative accuracy
        let expect: Vec<f64> = (0..16).map(|k| 1e-8_f64.powf(k as f64 / 15.0)).collect();
        let mut sorted = expect.clone();
        sorted.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (c, e) in run.svd.sigma.iter().zip(sorted.iter()) {
            assert!((c - e).abs() <= 1e-6 * e.max(1e-12), "{c} vs {e}");
        }
    }

    #[test]
    fn hilbert_matrix() {
        let a = generate::hilbert(10, 8);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_good_svd(&a, &run, 1e-10);
    }

    #[test]
    fn unsorted_mode_still_correct() {
        let a = generate::random_uniform(12, 8, 11);
        let run =
            HestenesSvd::new(SvdOptions::default().with_sort(SortMode::None)).compute(&a).unwrap();
        assert!(run.converged);
        assert!(run.svd.residual(&a) < 1e-11);
        // not necessarily sorted in this mode — but the multiset matches
        let sorted_run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        let mut ours = run.svd.sigma.clone();
        ours.sort_by(|x, y| y.partial_cmp(x).unwrap());
        assert!(checks::spectrum_distance(&ours, &sorted_run.svd.sigma) < 1e-10);
    }

    #[test]
    fn zero_matrix_all_zero_sigma() {
        let a = Matrix::zeros(6, 4).unwrap();
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert_eq!(run.svd.rank, 0);
        assert!(run.svd.sigma.iter().all(|&s| s == 0.0));
        assert!(run.svd.orthogonality() < 1e-12);
    }

    #[test]
    fn simulated_time_positive_and_history_recorded() {
        let a = generate::random_uniform(16, 8, 12);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.simulated_time > 0.0);
        let hist = run.coupling_history();
        assert_eq!(hist.len(), run.sweeps);
        assert!(run.total_rotations() > 0);
        // couplings decay (ultimately quadratically)
        assert!(hist.last().unwrap() < &1e-7);
    }
}

#[cfg(test)]
mod distributed_tests {
    use super::*;
    use crate::options::SvdOptions;
    use treesvd_matrix::{checks, generate};
    use treesvd_orderings::OrderingKind;

    #[test]
    fn distributed_driver_matches_simulated_driver() {
        let a = generate::random_uniform(20, 12, 31);
        let solver = HestenesSvd::new(SvdOptions::default());
        let sim = solver.compute(&a).unwrap();
        let dist = solver.compute_distributed(&a).unwrap();
        assert_eq!(sim.sweeps, dist.sweeps);
        assert_eq!(sim.svd.sigma, dist.svd.sigma, "bitwise-identical spectra expected");
        assert!(dist.svd.residual(&a) < 1e-11);
        assert!(dist.svd.orthogonality() < 1e-11);
    }

    #[test]
    fn distributed_driver_all_orderings() {
        let a = generate::random_uniform(16, 8, 32);
        for kind in OrderingKind::ALL {
            let run = HestenesSvd::with_ordering(kind).compute_distributed(&a).unwrap();
            assert!(run.converged, "{kind}");
            assert!(run.svd.residual(&a) < 1e-10, "{kind}");
            assert!(checks::is_nonincreasing(&run.svd.sigma), "{kind}");
        }
    }

    #[test]
    fn distributed_driver_wide_input() {
        let at = generate::with_singular_values(10, &[3.0, 2.0, 1.0, 0.5], 33);
        let a = at.transpose();
        let run = HestenesSvd::new(SvdOptions::default()).compute_distributed(&a).unwrap();
        assert!(run.transposed);
        let recon =
            checks::reconstruction_residual(&a.transpose(), &run.svd.v, &run.svd.sigma, &run.svd.u);
        assert!(recon < 1e-11);
    }
}

#[cfg(test)]
mod off_tracking_tests {
    use super::*;
    use crate::options::SvdOptions;
    use treesvd_matrix::generate;

    #[test]
    fn off_history_decays_quadratically() {
        let a = generate::random_uniform(32, 16, 41);
        let run = HestenesSvd::new(SvdOptions::default().with_track_off(true)).compute(&a).unwrap();
        let h = &run.off_history;
        assert_eq!(h.len(), run.sweeps + 1);
        // strictly decreasing until roundoff
        for w in h.windows(2) {
            assert!(w[1] <= w[0] * 1.0000001, "off increased: {:?}", h);
        }
        // the tail contraction is at least quadratic-ish: once off is small
        // relative to ||A||^2, one more sweep crushes it
        let f2 = a.frobenius_norm().powi(2);
        if let Some(idx) = h.iter().position(|&x| x / f2 < 1e-3) {
            if idx + 1 < h.len() {
                assert!(
                    h[idx + 1] / f2 <= 1e-5,
                    "weak contraction: {:e} -> {:e}",
                    h[idx] / f2,
                    h[idx + 1] / f2
                );
            }
        }
    }

    #[test]
    fn off_history_empty_by_default() {
        let a = generate::random_uniform(10, 8, 42);
        let run = HestenesSvd::new(SvdOptions::default()).compute(&a).unwrap();
        assert!(run.off_history.is_empty());
    }

    #[test]
    fn cached_programs_change_nothing() {
        // sweeps and spectra agree with the sequential reference, which
        // regenerates nothing — guarding the period-based program cache
        let a = generate::random_uniform(24, 16, 43);
        for kind in [OrderingKind::NewRing, OrderingKind::Llb, OrderingKind::Hybrid] {
            let run = HestenesSvd::with_ordering(kind).compute(&a).unwrap();
            let seq = crate::sequential::sequential_svd(&a, 60).unwrap();
            assert!(
                treesvd_matrix::checks::spectrum_distance(&run.svd.sigma, &seq.svd.sigma) < 1e-9,
                "{kind}"
            );
        }
    }
}
