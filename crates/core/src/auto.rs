//! Auto-tuned execution: [`SvdOptions::auto`] and the [`auto_svd`]
//! dispatch entry — the production default path.
//!
//! The tuner ([`treesvd_tune`]) selects a full execution config (driver,
//! ordering, kernel, block width, threads) by
//! minimizing the calibrated cost model, pricing every candidate on the
//! `n×n` factor the QR front-end sweeps plus the front-end's own toll:
//! the front-end is not a choice, every auto run takes it. This
//! module maps that [`TunePlan`] onto [`SvdOptions`] and runs the planned
//! driver. The mapping is *transparent*: an auto run is bitwise-identical
//! to handing the same options to the same driver explicitly (pinned by a
//! property test), and every tuner choice still flows through the
//! existing gates (schedules verify when asked to). The tuner requests;
//! the gates decide.

use crate::blocked::{blocked_svd, BlockedOptions, BlockedRun};
use crate::driver::HestenesSvd;
use crate::options::{BlockKernel, SvdError, SvdOptions};
use crate::result::Svd;
use treesvd_matrix::Matrix;
use treesvd_tune::{plan_for, DriverSel, KernelSel, TunePlan, TuneProblem};

impl SvdOptions {
    /// Auto-tuned options for an `m × n` problem with the production
    /// defaults (vectors on, host parallelism from
    /// [`par::num_threads`](treesvd_sim::par::num_threads), perfect
    /// fat-tree topology). First call per shape-class runs the one-shot
    /// calibration probes and the model; repeats are allocation-free
    /// cache hits. See [`SvdOptions::auto_for`] to vary the problem
    /// statement and [`auto_svd`] to also dispatch the planned driver.
    #[must_use]
    pub fn auto(m: usize, n: usize) -> Self {
        Self::auto_for(&TuneProblem::new(m, n))
    }

    /// Auto-tuned options for an explicit problem statement.
    #[must_use]
    pub fn auto_for(problem: &TuneProblem) -> Self {
        options_from_plan(&plan_for(problem), problem)
    }
}

/// Materialize a tuner plan as explicit options (the same struct a caller
/// would build by hand — auto runs are bitwise-identical to explicit
/// ones by construction).
#[must_use]
pub fn options_from_plan(plan: &TunePlan, problem: &TuneProblem) -> SvdOptions {
    SvdOptions::default()
        .with_ordering(plan.ordering)
        .with_topology(problem.topology)
        .with_block_kernel(match plan.kernel {
            KernelSel::Pairwise => BlockKernel::Pairwise,
            KernelSel::Gram => BlockKernel::Gram,
        })
        .with_threads(Some(plan.threads as usize))
}

/// Result of an auto-tuned run: the decomposition plus the plan that
/// produced it (transparency — callers can see every tuner decision).
#[derive(Debug)]
pub struct AutoRun {
    /// The decomposition of the input.
    pub svd: Svd,
    /// Sweeps performed by the planned driver.
    pub sweeps: usize,
    /// The plan that was executed.
    pub plan: TunePlan,
    /// Whether the QR front-end engaged (always, on the auto path).
    pub qr_frontend: bool,
}

/// Compute the SVD of `a` on the auto-tuned path with the production
/// defaults. Equivalent to [`auto_svd_for`] with
/// [`TuneProblem::new`]`(a.rows(), a.cols())`.
///
/// # Errors
/// As the planned driver ([`HestenesSvd::compute`],
/// [`HestenesSvd::compute_distributed`](crate::HestenesSvd::compute_distributed),
/// or [`blocked_svd`]).
pub fn auto_svd(a: &Matrix) -> Result<AutoRun, SvdError> {
    auto_svd_for(a, &TuneProblem::new(a.rows(), a.cols()))
}

/// Compute the SVD of `a` on the auto-tuned path for an explicit problem
/// statement (the shape fields of `problem` should match `a`; the plan
/// is keyed on them).
///
/// # Errors
/// As the planned driver.
pub fn auto_svd_for(a: &Matrix, problem: &TuneProblem) -> Result<AutoRun, SvdError> {
    let plan = plan_for(problem);
    let options = options_from_plan(&plan, problem);
    run_plan(a, &plan, options)
}

/// Dispatch explicit options to the plan's driver — shared by the auto
/// path and the transparency property test (which hand-builds the same
/// options and must get bitwise-identical output).
pub fn run_plan(a: &Matrix, plan: &TunePlan, options: SvdOptions) -> Result<AutoRun, SvdError> {
    match plan.driver {
        DriverSel::Blocked { processors } => {
            let opts = BlockedOptions { processors: processors.max(1) as usize, svd: options };
            let BlockedRun { svd, sweeps, qr_frontend, .. } = blocked_svd(a, &opts)?;
            Ok(AutoRun { svd, sweeps, plan: *plan, qr_frontend })
        }
        DriverSel::Distributed => {
            let run = HestenesSvd::new(options).compute_distributed(a)?;
            Ok(AutoRun {
                svd: run.svd,
                sweeps: run.sweeps,
                plan: *plan,
                qr_frontend: run.qr_frontend,
            })
        }
        DriverSel::Simulated => {
            let run = HestenesSvd::new(options).compute(a)?;
            Ok(AutoRun {
                svd: run.svd,
                sweeps: run.sweeps,
                plan: *plan,
                qr_frontend: run.qr_frontend,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_matrix::generate;

    #[test]
    fn auto_options_reflect_the_plan() {
        let problem = TuneProblem::new(512, 64).with_processors(4);
        let plan = plan_for(&problem);
        let opts = SvdOptions::auto_for(&problem);
        assert_eq!(opts.threads, Some(plan.threads as usize));
        assert!(opts.qr_frontend);
        assert_eq!(
            opts.block_kernel,
            match plan.kernel {
                KernelSel::Pairwise => BlockKernel::Pairwise,
                KernelSel::Gram => BlockKernel::Gram,
            }
        );
    }

    #[test]
    fn auto_svd_solves_and_reconstructs() {
        let sigma: Vec<f64> = (1..=24).rev().map(|k| k as f64).collect();
        let a = generate::with_singular_values(96, &sigma, 7);
        let run = auto_svd_for(&a, &TuneProblem::new(96, 24).with_processors(4)).unwrap();
        assert!(run.sweeps > 0);
        let r = treesvd_matrix::checks::reconstruction_residual(
            &a,
            &run.svd.u,
            &run.svd.sigma,
            &run.svd.v,
        );
        assert!(r < 1e-9, "residual {r}");
        for (c, e) in run.svd.sigma.iter().zip(sigma.iter()) {
            assert!((c - e).abs() < 1e-8);
        }
    }

    #[test]
    fn auto_svd_matches_the_explicit_config_bitwise() {
        // the transparency contract on one deterministic point (the
        // property test in proptests.rs fuzzes shapes)
        let sigma: Vec<f64> = (1..=16).rev().map(|k| k as f64 * 0.5).collect();
        let a = generate::with_singular_values(160, &sigma, 99);
        let problem = TuneProblem::new(160, 16).with_processors(4);
        let auto = auto_svd_for(&a, &problem).unwrap();
        let plan = plan_for(&problem);
        let explicit = run_plan(&a, &plan, options_from_plan(&plan, &problem)).unwrap();
        assert_eq!(auto.svd.sigma, explicit.svd.sigma, "sigma must be bitwise-identical");
        assert_eq!(auto.svd.u, explicit.svd.u);
        assert_eq!(auto.svd.v, explicit.svd.v);
        assert_eq!(auto.sweeps, explicit.sweeps);
    }

    #[test]
    fn wide_inputs_run_through_the_same_plan() {
        let sigma: Vec<f64> = (1..=12).rev().map(|k| k as f64).collect();
        let a = generate::with_singular_values(48, &sigma, 3);
        let at = a.transpose();
        let tall = auto_svd_for(&a, &TuneProblem::new(48, 12).with_processors(2)).unwrap();
        let wide = auto_svd_for(&at, &TuneProblem::new(12, 48).with_processors(2)).unwrap();
        for (x, y) in tall.svd.sigma.iter().zip(wide.svd.sigma.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
