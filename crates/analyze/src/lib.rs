//! Static verification of Jacobi SVD schedules before execution.
//!
//! `treesvd-analyze` takes any [`JacobiOrdering`] (or a raw
//! [`Program`](treesvd_orderings::Program)) and proves — or refutes with a
//! step-precise diagnostic — the four properties the rest of the workspace
//! silently assumes:
//!
//! 1. **Permutation safety** ([`verify_permutation_safety`]): every column
//!    index is owned by exactly one processor at every step, so no two
//!    processors ever rotate or move the same column concurrently.
//! 2. **Coverage and restoration** ([`verify_coverage`], [`verify_restore`]):
//!    each sweep meets all `n(n−1)/2` unordered pairs exactly once, and the
//!    index order returns to the initial layout after the ordering's claimed
//!    period — the paper's §3 sweep invariants.
//! 3. **Contention** ([`verify_contention`]): mapped onto a concrete
//!    `treesvd-net` tree, no interior channel ever drains slower than the
//!    busiest endpoint channel — the paper's §5 zero-contention claim,
//!    proved per (step, channel) rather than asserted.
//! 4. **Deadlock freedom** ([`verify_deadlock_freedom`]): the send/recv
//!    dependency graph the distributed executor would realize is complete
//!    (every receive matched, every send consumed, tags unambiguous) and
//!    acyclic.
//!
//! [`analyze_ordering`] bundles all four into an [`AnalysisReport`];
//! [`verify_ordering_schedule`] is the cheap topology-free subset the SVD
//! driver runs when `SvdOptions::verify_schedule` is enabled.
//!
//! ```
//! use treesvd_analyze::{analyze_ordering, AnalysisOptions};
//! use treesvd_net::{Topology, TopologyKind};
//! use treesvd_orderings::HybridOrdering;
//!
//! let ord = HybridOrdering::new(64, 16).unwrap();
//! let opts = AnalysisOptions {
//!     topology: Some(Topology::new(TopologyKind::Cm5, 32)),
//!     ..AnalysisOptions::default()
//! };
//! let report = analyze_ordering(&ord, &opts);
//! assert!(report.is_verified(), "{report}");
//! assert!(report.max_contention.unwrap() <= 1.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod contention;
pub mod coverage;
pub mod deadlock;
pub mod permutation;
pub mod report;

pub use contention::{verify_contention, ContentionProof};
pub use coverage::{assert_valid_sweep, check_restores_after, verify_coverage, verify_restore};
pub use deadlock::{
    tag_a, tag_v, verify_deadlock_freedom, verify_plan, CommModel, CommOp, CommPlan,
};
pub use permutation::verify_permutation_safety;
pub use report::{AnalysisReport, Check, CheckOutcome, OpRef, Violation};

use treesvd_net::Topology;
use treesvd_orderings::JacobiOrdering;

/// Version of the analyzer's proof rules. Bump whenever a prover or a
/// plan constructor changes semantics: the tuner keys its decision cache
/// on it, so a plan chosen under one generation of schedule proofs never
/// survives into the next.
pub const ANALYZER_VERSION: u32 = 3;

/// Knobs for [`analyze_ordering`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Tree to prove the contention claim on. `None` skips the contention
    /// check (the other three are topology-free).
    pub topology: Option<Topology>,
    /// Message size used for the contention proof, in words per column.
    /// `0` is treated as 1.
    pub words_per_column: u64,
}

impl AnalysisOptions {
    fn words(&self) -> u64 {
        self.words_per_column.max(1)
    }
}

/// Run all four checks over every sweep of the ordering's restore period
/// and collect the verdicts into a single report.
pub fn analyze_ordering(ord: &dyn JacobiOrdering, opts: &AnalysisOptions) -> AnalysisReport {
    let period = ord.restore_period().max(1);
    let programs = ord.programs(period);
    let steps_per_sweep = programs.first().map_or(0, |p| p.steps.len());
    let n = ord.n();
    let mut outcomes: Vec<(Check, CheckOutcome)> = Vec::with_capacity(Check::ALL.len());

    let permutation = programs
        .iter()
        .try_for_each(verify_permutation_safety)
        .map(|()| format!("every step a bijection of 0..{n}"));
    outcomes.push((Check::Permutation, permutation));

    let coverage =
        programs.iter().try_for_each(verify_coverage).and_then(|()| verify_restore(ord)).map(
            |()| {
                format!(
                    "{} pairs met once per sweep; order restored after {period} sweep(s)",
                    n * (n - 1) / 2
                )
            },
        );
    outcomes.push((Check::Coverage, coverage));

    let mut max_contention = None;
    let contention = match &opts.topology {
        Some(topo) => {
            let mut worst = 0.0f64;
            let result = programs
                .iter()
                .try_for_each(|prog| {
                    let proof = verify_contention(prog, topo, opts.words())?;
                    worst = worst.max(proof.max_contention);
                    Ok(())
                })
                .map(|()| format!("zero contention on {} (worst factor {worst:.2})", topo.kind()));
            max_contention = Some(worst);
            result
        }
        None => Ok("not checked (no topology given)".to_string()),
    };
    outcomes.push((Check::Contention, contention));

    let deadlock = programs
        .iter()
        .try_for_each(|prog| {
            for vectors in [false, true] {
                verify_deadlock_freedom(prog, vectors)?;
            }
            Ok(())
        })
        .map(|()| "wait-for graph acyclic; all sends matched (buffered model)".to_string());
    outcomes.push((Check::Deadlock, deadlock));

    AnalysisReport {
        ordering: ord.name(),
        n,
        processors: n / 2,
        sweeps: period,
        steps_per_sweep,
        outcomes,
        max_contention,
    }
}

/// The topology-free subset of the checks (permutation safety, coverage,
/// restoration, deadlock freedom), as a cheap pre-flight gate for the SVD
/// driver.
///
/// # Errors
/// The first [`Violation`] found, in check order.
pub fn verify_ordering_schedule(ord: &dyn JacobiOrdering) -> Result<(), Violation> {
    let period = ord.restore_period().max(1);
    for prog in &ord.programs(period) {
        verify_coverage(prog)?; // implies permutation safety
        verify_deadlock_freedom(prog, false)?;
        verify_deadlock_freedom(prog, true)?;
    }
    verify_restore(ord)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_net::TopologyKind;
    use treesvd_orderings::{HybridOrdering, LlbFatTreeOrdering, RingOrdering};

    #[test]
    fn report_covers_all_checks_in_order() {
        let ord = RingOrdering::new(8).unwrap();
        let report = analyze_ordering(&ord, &AnalysisOptions::default());
        assert!(report.is_verified(), "{report}");
        let order: Vec<Check> = report.outcomes.iter().map(|(c, _)| *c).collect();
        assert_eq!(order, Check::ALL);
        assert!(report.max_contention.is_none());
        assert_eq!(report.processors, 4);
    }

    #[test]
    fn report_with_topology_records_contention() {
        let ord = LlbFatTreeOrdering::new(16).unwrap();
        let opts = AnalysisOptions {
            topology: Some(Topology::new(TopologyKind::PerfectFatTree, 8)),
            words_per_column: 16,
        };
        let report = analyze_ordering(&ord, &opts);
        assert!(report.is_verified(), "{report}");
        assert!(report.max_contention.unwrap() <= 1.0);
    }

    #[test]
    fn driver_gate_accepts_builtin_orderings() {
        assert!(verify_ordering_schedule(&HybridOrdering::with_default_groups(16).unwrap()).is_ok());
        assert!(verify_ordering_schedule(&RingOrdering::new(12).unwrap()).is_ok());
    }
}
