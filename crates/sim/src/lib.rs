//! Simulated tree-connected multiprocessor executing Jacobi sweep programs.
//!
//! This crate is the "machine" of the reproduction: `P = n/2` leaf
//! processors, each holding two matrix columns (and, optionally, the
//! matching columns of the accumulated `V`), connected by a
//! [`treesvd_net::Topology`]. A [`Program`](treesvd_orderings::Program)
//! from `treesvd-orderings` is executed step by step:
//!
//! 1. every processor orthogonalizes its resident column pair (a real
//!    Hestenes rotation on real data — the simulator *is* the parallel
//!    machine, not a trace replayer); the per-step rotations run on real
//!    host cores via a persistent worker pool ([`par`]), since pairs touch
//!    disjoint columns — with an adaptive serial cutoff for small steps;
//! 2. the step's `move_after` permutation moves the columns between
//!    slots. Its traffic is priced per *program*, not per step: the
//!    inter-leaf movements of every step are routed through the tree and
//!    costed by the [`CostModel`](treesvd_net::CostModel) once, by
//!    [`analyze::analyze_program`], because the cost depends on the
//!    schedule, the machine and the column length but not on the data. A
//!    [`plan::SweepPlan`] holds one restore period of an ordering's
//!    programs; the core drivers build and price it once per shape and
//!    hand each report to every sweep that runs its program.
//!
//! [`exec::execute_program`] returns both the numerical outcome (rotation
//! counts, convergence measures) and the simulated time breakdown;
//! [`analyze::analyze_program`] is the data-free pricing it copies from,
//! also used by the communication experiments.
//!
//! ```
//! use treesvd_sim::{analyze_program, Machine};
//! use treesvd_net::TopologyKind;
//! use treesvd_orderings::{FatTreeOrdering, RoundRobinOrdering, JacobiOrdering};
//!
//! let machine = Machine::with_kind(TopologyKind::PerfectFatTree, 16);
//! let ft = FatTreeOrdering::new(32).unwrap();
//! let rr = RoundRobinOrdering::new(32).unwrap();
//! let ft_rep = analyze_program(&machine, &ft.sweep_program(0, &ft.initial_layout()), 64);
//! let rr_rep = analyze_program(&machine, &rr.sweep_program(0, &rr.initial_layout()), 64);
//! // the paper's C1 claim in two lines:
//! assert!(ft_rep.global_steps < rr_rep.global_steps);
//! assert!(ft_rep.comm_time < rr_rep.comm_time);
//! ```

#![deny(missing_docs)]

pub mod analyze;
pub mod distributed;
pub mod exec;
pub mod machine;
pub mod par;
pub mod plan;
pub mod timeline;

pub use analyze::{analyze_program, CommReport};
pub use distributed::{distributed_svd, DistError, DistributedOutcome};
pub use exec::{
    execute_program, execute_program_with_scratch, off_measure, off_measure_limited, ColumnStore,
    ExecConfig, ExecScratch, SortMode, SweepStats,
};
pub use machine::Machine;
pub use plan::SweepPlan;
pub use timeline::{StepTiming, Timeline};
// the error a distributed receive returns, named by `DistError::err`
pub use treesvd_comm::RecvError;
