//! The tuner's input (a problem statement) and output (a full execution
//! config).
//!
//! `treesvd-tune` sits *below* `treesvd-core` in the crate graph (core's
//! `SvdOptions::auto()` consumes these plans), so the driver/kernel
//! selections are small mirror enums here rather than core's own types;
//! core maps them one-to-one.

use treesvd_net::TopologyKind;
use treesvd_orderings::OrderingKind;

/// The problem statement the tuner plans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneProblem {
    /// Row count of the input (pre-transpose; wide inputs are normalized
    /// internally, matching what the drivers do).
    pub m: usize,
    /// Column count of the input.
    pub n: usize,
    /// Host-parallelism budget: the number of worker threads the plan may
    /// assume (the `P` of the paper's `P`-processor machine).
    pub processors: usize,
    /// The tree topology the comm phases are priced on.
    pub topology: TopologyKind,
}

impl TuneProblem {
    /// A problem with the production defaults: `P` from
    /// [`treesvd_sim::par::num_threads`] (honoring `TREESVD_THREADS`),
    /// perfect fat-tree topology.
    #[must_use]
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            m,
            n,
            processors: treesvd_sim::par::num_threads().max(1),
            topology: TopologyKind::PerfectFatTree,
        }
    }

    /// Set the host-parallelism budget.
    #[must_use]
    pub fn with_processors(mut self, processors: usize) -> Self {
        self.processors = processors.max(1);
        self
    }

    /// Set the topology.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// The shape the drivers actually sweep: wide inputs run on the
    /// transpose, so rows ≥ cols.
    #[must_use]
    pub fn normalized_shape(&self) -> (usize, usize) {
        (self.m.max(self.n), self.m.min(self.n))
    }
}

/// Which driver executes the problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverSel {
    /// The step-simulated Hestenes driver (`HestenesSvd::compute`): the
    /// central router walks the schedule, rotations fork on the
    /// persistent pool.
    Simulated,
    /// The blocked (Schreiber) driver with this many block pairs: `2p`
    /// block columns of width `c = n / 2p` meet pairwise.
    Blocked {
        /// Block-pair count (the blocked driver's `processors` argument).
        processors: u16,
    },
    /// The thread-per-rank distributed executor over `treesvd-comm`.
    Distributed,
}

impl DriverSel {
    /// Human-readable driver name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriverSel::Simulated => "simulated",
            DriverSel::Blocked { .. } => "blocked",
            DriverSel::Distributed => "distributed",
        }
    }
}

/// Which meeting kernel the blocked driver uses (mirror of core's
/// `BlockKernel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelSel {
    /// Stream every column pair through a full-length Hestenes rotation.
    Pairwise,
    /// Gram/panel block kernel (in-cache Jacobi + one panel product).
    Gram,
}

/// A full execution config, as selected by the tuner. `Copy` throughout:
/// a warm cache hit hands one out without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunePlan {
    /// Driver (and for the blocked driver, the block-pair count).
    pub driver: DriverSel,
    /// Jacobi ordering for the driver's sweep unit (block columns for the
    /// blocked driver, padded data columns otherwise).
    pub ordering: OrderingKind,
    /// Blocked-meeting kernel.
    pub kernel: KernelSel,
    /// The block width `c` the plan was priced at (informative; the
    /// blocked driver re-derives it from the actual `n` at run time).
    pub block_cols: u16,
    /// Worker-thread budget the plan prices.
    pub threads: u16,
    /// The model's predicted wall time (ns) for the planned config —
    /// transparency, not a promise.
    pub predicted_ns: f64,
}
