//! `treesvd-tune`: cost-model-driven auto-tuning.
//!
//! Given a problem statement `(m, n, P, topology)` — plus the
//! compile-time architecture — select the full execution config: driver
//! (simulated / blocked / distributed), Jacobi ordering, block kernel,
//! block width `c` and thread count, priced on the `n×n` factor the QR
//! front-end hands every driver (hierarchical blocking is left to the
//! blocked driver's own cache-size rule). Selection minimizes the
//! calibrated [`treesvd_net::CostModel`] extended with per-phase compute
//! terms; see [`model`] for the procedure and [`calib`] for where the
//! constants come from (compiled-in constants refined by one-shot
//! microprobes).
//!
//! Decisions are memoized in a process-wide [`cache::TuneCache`] keyed
//! by `(shape-class, P, topology, arch, ANALYZER_VERSION)`: steady-state
//! traffic pays zero tuning overhead, and the warm path —
//! [`plan_for`] on a cached key — performs no heap allocation and never
//! re-runs a probe ([`calib::probe_runs`] stays put).
//!
//! This crate sits *below* `treesvd-core`: core's `SvdOptions::auto()`
//! maps a [`TunePlan`] onto its options. Plans are *requests*, not
//! bypasses — every choice still flows through the drivers' own gates
//! (schedules still verify when asked to).

pub mod cache;
pub mod calib;
pub mod model;
pub mod plan;

pub use cache::{ShapeClass, TuneCache, TuneKey};
pub use calib::{CalibSource, Calibration};
pub use model::compute_plan;
pub use plan::{DriverSel, KernelSel, TunePlan, TuneProblem};

/// Plan the execution of `problem`, consulting (and filling) the
/// process-wide decision cache. First call per shape-class runs the
/// calibration probes (once per process) and the full model; every later
/// call with the same key is one allocation-free cache probe.
#[must_use]
pub fn plan_for(problem: &TuneProblem) -> TunePlan {
    let key = TuneKey::of(problem);
    if let Some(plan) = cache::global().get(&key) {
        return plan;
    }
    let cal = calib::global();
    let plan = model::compute_plan(problem, &cal);
    cache::global().insert(key, plan);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_path_hits_the_cache_without_reprobing() {
        let problem = TuneProblem::new(777, 33).with_processors(3);
        let cold = plan_for(&problem);
        let hits_before = cache::global().hits();
        let probes_before = calib::probe_runs();
        let warm = plan_for(&problem);
        assert_eq!(cold, warm, "cached plan must be bit-identical");
        assert!(cache::global().hits() > hits_before, "second call must hit the cache");
        assert_eq!(calib::probe_runs(), probes_before, "no probe re-runs");
        assert!(probes_before <= 1, "probe battery runs at most once per process");
    }

    #[test]
    fn same_class_shapes_share_one_plan() {
        let a = plan_for(&TuneProblem::new(1025, 40).with_processors(5));
        let b = plan_for(&TuneProblem::new(1999, 60).with_processors(5));
        assert_eq!(a, b);
    }
}
