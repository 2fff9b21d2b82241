//! Configuration for the parallel Hestenes SVD.

use std::fmt;
use std::sync::Arc;
use treesvd_net::{CostModel, TopologyKind};
use treesvd_orderings::{JacobiOrdering, OrderingError, OrderingKind};
use treesvd_sim::{DistError, SortMode};

/// A caller-supplied ordering factory: given the padded column count,
/// produce the ordering. Shared, so cloning a choice clones the handle.
pub type OrderingFactory =
    Arc<dyn Fn(usize) -> Result<Box<dyn JacobiOrdering>, OrderingError> + Send + Sync>;

/// Which Jacobi ordering drives the sweeps.
#[derive(Clone)]
pub enum OrderingChoice {
    /// One of the built-in orderings, instantiated for the (padded) size.
    Kind(OrderingKind),
    /// A caller-supplied ordering factory.
    Custom(OrderingFactory),
}

impl fmt::Debug for OrderingChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderingChoice::Kind(k) => write!(f, "OrderingChoice::Kind({k})"),
            OrderingChoice::Custom(_) => write!(f, "OrderingChoice::Custom(..)"),
        }
    }
}

impl OrderingChoice {
    /// Instantiate the ordering for `n` (padded) columns.
    pub(crate) fn build(&self, n: usize) -> Result<Box<dyn JacobiOrdering>, OrderingError> {
        match self {
            OrderingChoice::Kind(k) => k.build(n),
            OrderingChoice::Custom(f) => f(n),
        }
    }
}

/// Which meeting kernel the blocked (Schreiber) driver uses when two
/// column blocks meet on a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockKernel {
    /// Orthogonalize the `2c`-column union one pair at a time with
    /// [`orthogonalize_pair`](treesvd_matrix::orthogonalize_pair),
    /// streaming full `m`-length columns O(c²) times. The reference
    /// (oracle) path.
    Pairwise,
    /// Block one-sided Jacobi: form the `2c×2c` Gram matrix
    /// `G = [X Y]ᵀ[X Y]`, run the cyclic sweep with sorted storage on `G`
    /// in-cache while accumulating the orthogonal update `W`, then apply
    /// `[X Y] ← [X Y]·W` as one blocked panel multiply — BLAS-3-shaped
    /// work that reads the panel O(1) times per meeting instead of O(c).
    #[default]
    Gram,
}

impl fmt::Display for BlockKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockKernel::Pairwise => write!(f, "pairwise"),
            BlockKernel::Gram => write!(f, "gram"),
        }
    }
}

/// Outer (cache-level) blocking of the blocked driver's Gram meetings.
///
/// A meeting's union panel is `m × 2c` doubles; once it outgrows the L2
/// cache the Gram sweep re-reads every column from DRAM and the kernel's
/// advantage collapses (the `c = 32` falloff in `BENCH_blocked.json`).
/// Hierarchical blocking splits such a union into cache-sized sub-blocks
/// and cycles the in-cache Gram kernel over all sub-block pairs —
/// Novaković's multi-level scheme (arXiv 1401.2720) grafted onto the
/// paper's tree ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HierBlocking {
    /// Engage automatically when a union panel outgrows a quarter of the
    /// probed L2 size ([`treesvd_matrix::cache::l2_bytes`], overridable
    /// via `TREESVD_L2`).
    #[default]
    Auto,
    /// Never split meetings (the pre-hierarchical behavior).
    Off,
    /// Engage when the union column count exceeds this width; sub-blocks
    /// are half this wide.
    Cols(usize),
}

impl fmt::Display for HierBlocking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierBlocking::Auto => write!(f, "auto"),
            HierBlocking::Off => write!(f, "off"),
            HierBlocking::Cols(c) => write!(f, "{c}"),
        }
    }
}

/// Options for [`HestenesSvd`](crate::HestenesSvd).
#[derive(Debug, Clone)]
pub struct SvdOptions {
    /// The parallel Jacobi ordering (default: the paper's fat-tree
    /// ordering).
    pub ordering: OrderingChoice,
    /// The simulated machine's topology (default: perfect binary fat-tree).
    pub topology: TopologyKind,
    /// Cost-model parameters for the simulated timing.
    pub cost: CostModel,
    /// Pair threshold, relative to the column norms; `None` derives
    /// `n · ε` from the (padded) size, the classical choice.
    pub threshold: Option<f64>,
    /// Hard cap on sweeps (the iteration normally terminates much earlier;
    /// convergence is ultimately quadratic, §1).
    pub max_sweeps: usize,
    /// Sorting behaviour (default: descending singular values, §3.2.1).
    pub sort: SortMode,
    /// Whether to accumulate `V` and produce singular vectors. With the
    /// QR front-end on (the default, [`SvdOptions::qr_frontend`]) this
    /// changes nothing: its inner solve always accumulates its `V`,
    /// because that becomes `A`'s `U`, so both factors are real either
    /// way. With the front-end off, turning this off roughly halves memory
    /// traffic when only `Σ` is needed; `U` is still returned (one-sided
    /// Jacobi gets it from the converged columns) and `V` is the identity
    /// placeholder.
    pub vectors: bool,
    /// Record the exact off-diagonal measure before the first sweep and
    /// after every sweep (O(n²m) per sweep — instrumentation only).
    pub track_off: bool,
    /// Adaptive dispatch cutoff forwarded to the executor
    /// ([`treesvd_sim::ExecConfig::serial_cutoff`]): per-step work (in
    /// data words) below which rotations run serially instead of forking
    /// host threads. The QR front-end does not read it: it factors on the
    /// caller's lanes ([`SvdOptions::threads`]) whatever the input's size.
    pub serial_cutoff: usize,
    /// Statically verify the ordering's schedule (ownership safety, pair
    /// coverage, order restoration, deadlock freedom) with
    /// `treesvd-analyze` before touching matrix data, rejecting the run
    /// with [`SvdError::Schedule`] on a violation — in the unblocked,
    /// distributed and blocked drivers alike (the blocked driver verifies
    /// its block-level ordering). Cheap (combinatorial in `n`, independent
    /// of `m`); mainly valuable with [`OrderingChoice::Custom`].
    pub verify_schedule: bool,
    /// Meeting kernel for the blocked (Schreiber) driver
    /// ([`blocked_svd`](crate::blocked_svd)); ignored by the unblocked
    /// driver. Default: [`BlockKernel::Gram`].
    pub block_kernel: BlockKernel,
    /// Host-thread budget: caps the fork lanes used by the executor, the
    /// blocked driver, and `off_measure`. `None` uses
    /// [`par::num_threads`](treesvd_sim::par::num_threads) (which honors
    /// the `TREESVD_THREADS` environment variable).
    pub threads: Option<usize>,
    /// The QR front-end (Drmač–Veselić preconditioning, LAPACK
    /// `DGEJSV`): sort `A`'s columns by decreasing norm, factor
    /// `A·P = QR` and then `Rᵀ = Q₂R₂` with the TSQR tree
    /// ([`treesvd_matrix::qr`]), run the Jacobi driver on the `n×n` matrix
    /// `R₂ᵀ = Ũ₂ΣṼ₂ᵀ` (whose columns start out nearly orthogonal, so it
    /// takes fewer sweeps than `A` or `Rᵀ`), and return `U = Q·[Ũ₂; 0]` —
    /// back-transformed without ever forming `Q` — and `V = P·Q₂·Ṽ₂`.
    /// Wide inputs (`m < n`) go through the same path on `Aᵀ`. Default
    /// `true`, on every shape; `false` sweeps `A` itself, as the paper does
    /// (its experiments and the `blocked` benchmark measure orderings and
    /// executors on `A` that way).
    pub qr_frontend: bool,
    /// Panel width (compact-WY block size) of the front-end's tiled QR.
    /// Default 32. A tall-skinny input (`m ≥ 16n`) at most twice this
    /// wide is factored as one panel of all its columns instead, so the
    /// back-transform writes `U` in one pass; the `n×n` second
    /// factorization and every other shape keep this width
    /// ([`crate::tall::qr_panel_for`]).
    pub qr_panel: usize,
    /// Outer cache-level blocking of the blocked driver's meetings.
    pub hier: HierBlocking,
}

impl Default for SvdOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingChoice::Kind(OrderingKind::FatTree),
            topology: TopologyKind::PerfectFatTree,
            cost: CostModel::default(),
            threshold: None,
            max_sweeps: 60,
            sort: SortMode::Descending,
            vectors: true,
            track_off: false,
            serial_cutoff: treesvd_sim::ExecConfig::DEFAULT_SERIAL_CUTOFF,
            verify_schedule: false,
            block_kernel: BlockKernel::default(),
            threads: None,
            qr_frontend: true,
            qr_panel: 32,
            hier: HierBlocking::default(),
        }
    }
}

impl SvdOptions {
    /// Use the given built-in ordering.
    pub fn with_ordering(mut self, kind: OrderingKind) -> Self {
        self.ordering = OrderingChoice::Kind(kind);
        self
    }

    /// Use the given topology.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Set the sweep cap.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Set the sort mode.
    pub fn with_sort(mut self, sort: SortMode) -> Self {
        self.sort = sort;
        self
    }

    /// Enable or disable singular-vector accumulation.
    pub fn with_vectors(mut self, vectors: bool) -> Self {
        self.vectors = vectors;
        self
    }

    /// Enable exact off-diagonal tracking (instrumentation).
    pub fn with_track_off(mut self, track_off: bool) -> Self {
        self.track_off = track_off;
        self
    }

    /// Set the executor's serial-dispatch cutoff (`0` always forks,
    /// `usize::MAX` always runs serially).
    pub fn with_serial_cutoff(mut self, serial_cutoff: usize) -> Self {
        self.serial_cutoff = serial_cutoff;
        self
    }

    /// Require the schedule to pass static verification before execution.
    pub fn with_verify_schedule(mut self, verify: bool) -> Self {
        self.verify_schedule = verify;
        self
    }

    /// Select the blocked driver's meeting kernel.
    pub fn with_block_kernel(mut self, kernel: BlockKernel) -> Self {
        self.block_kernel = kernel;
        self
    }

    /// Cap the host-thread budget (`None` = machine parallelism /
    /// `TREESVD_THREADS`).
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Keep (or switch off) the QR front-end.
    pub fn with_qr_frontend(mut self, enabled: bool) -> Self {
        self.qr_frontend = enabled;
        self
    }

    /// Set the front-end's QR panel width.
    pub fn with_qr_panel(mut self, panel: usize) -> Self {
        self.qr_panel = panel.max(1);
        self
    }

    /// Select the blocked driver's outer cache-level blocking policy.
    pub fn with_hier_blocking(mut self, hier: HierBlocking) -> Self {
        self.hier = hier;
        self
    }
}

/// Errors from the SVD driver.
#[derive(Debug)]
pub enum SvdError {
    /// The input matrix had a zero dimension.
    EmptyMatrix,
    /// The input matrix holds a NaN or an infinite entry (the first one
    /// in column-major order is named). Detected before any sweep.
    NonFinite {
        /// Row of the entry.
        row: usize,
        /// Column of the entry.
        col: usize,
    },
    /// The blocked driver was asked to run on zero processors.
    NoProcessors,
    /// The chosen ordering rejected the (padded) size.
    Ordering(OrderingError),
    /// Static schedule verification found a violation (only with
    /// [`SvdOptions::verify_schedule`]).
    Schedule(treesvd_analyze::Violation),
    /// The iteration hit `max_sweeps` without converging.
    NoConvergence {
        /// Sweeps performed.
        sweeps: usize,
        /// Last sweep's maximum normalized coupling.
        last_coupling: f64,
    },
    /// A bounded receive of the distributed executor timed out, which
    /// means an executor bug: the network is lossless. The inner
    /// [`DistError`] names the rank, sweep, global step, and the missing
    /// message's source and tag.
    Distributed(DistError),
}

impl fmt::Display for SvdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvdError::EmptyMatrix => write!(f, "matrix has a zero dimension"),
            SvdError::NonFinite { row, col } => {
                write!(f, "matrix entry ({row}, {col}) is not finite (NaN or infinite)")
            }
            SvdError::NoProcessors => write!(f, "the blocked driver needs at least one processor"),
            SvdError::Ordering(e) => write!(f, "ordering rejected the problem size: {e}"),
            SvdError::Schedule(v) => write!(f, "schedule verification failed: {v}"),
            SvdError::NoConvergence { sweeps, last_coupling } => write!(
                f,
                "no convergence after {sweeps} sweeps (last max coupling {last_coupling:.3e})"
            ),
            SvdError::Distributed(e) => write!(f, "distributed run failed: {e}"),
        }
    }
}

impl std::error::Error for SvdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvdError::Distributed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistError> for SvdError {
    fn from(e: DistError) -> Self {
        SvdError::Distributed(e)
    }
}

impl From<OrderingError> for SvdError {
    fn from(e: OrderingError) -> Self {
        SvdError::Ordering(e)
    }
}

impl From<treesvd_analyze::Violation> for SvdError {
    fn from(v: treesvd_analyze::Violation) -> Self {
        SvdError::Schedule(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use treesvd_sim::RecvError;

    #[test]
    fn default_options_are_the_papers() {
        let o = SvdOptions::default();
        assert!(matches!(o.ordering, OrderingChoice::Kind(OrderingKind::FatTree)));
        assert_eq!(o.topology, TopologyKind::PerfectFatTree);
        assert_eq!(o.sort, SortMode::Descending);
        assert!(o.vectors);
    }

    #[test]
    fn builder_methods_chain() {
        let o = SvdOptions::default()
            .with_ordering(OrderingKind::NewRing)
            .with_topology(TopologyKind::Cm5)
            .with_max_sweeps(10)
            .with_sort(SortMode::None)
            .with_vectors(false)
            .with_block_kernel(BlockKernel::Pairwise)
            .with_threads(Some(2));
        assert!(matches!(o.ordering, OrderingChoice::Kind(OrderingKind::NewRing)));
        assert_eq!(o.topology, TopologyKind::Cm5);
        assert_eq!(o.max_sweeps, 10);
        assert_eq!(o.sort, SortMode::None);
        assert!(!o.vectors);
        assert_eq!(o.block_kernel, BlockKernel::Pairwise);
        assert_eq!(o.threads, Some(2));
    }

    #[test]
    fn block_kernel_default_and_display() {
        assert_eq!(SvdOptions::default().block_kernel, BlockKernel::Gram);
        assert_eq!(BlockKernel::Gram.to_string(), "gram");
        assert_eq!(BlockKernel::Pairwise.to_string(), "pairwise");
    }

    #[test]
    fn qr_frontend_defaults_and_builders() {
        let o = SvdOptions::default();
        assert!(o.qr_frontend, "every solve is preconditioned by default");
        assert_eq!(o.qr_panel, 32);
        assert_eq!(o.hier, HierBlocking::Auto);
        let o =
            o.with_qr_frontend(false).with_qr_panel(0).with_hier_blocking(HierBlocking::Cols(48));
        assert!(!o.qr_frontend);
        assert_eq!(o.qr_panel, 1, "panel width is floored at 1");
        assert_eq!(o.hier, HierBlocking::Cols(48));
        assert!(o.with_qr_frontend(true).qr_frontend);
    }

    #[test]
    fn hier_blocking_displays() {
        assert_eq!(HierBlocking::Auto.to_string(), "auto");
        assert_eq!(HierBlocking::Off.to_string(), "off");
        assert_eq!(HierBlocking::Cols(64).to_string(), "64");
    }

    #[test]
    fn error_display() {
        let e = SvdError::NoConvergence { sweeps: 60, last_coupling: 1e-3 };
        assert!(e.to_string().contains("60"));
        assert!(SvdError::EmptyMatrix.to_string().contains("zero"));
        assert!(SvdError::NonFinite { row: 3, col: 1 }.to_string().contains("(3, 1)"));
        assert!(SvdError::NoProcessors.to_string().contains("processor"));
        let e: SvdError = OrderingError::OddSize(7).into();
        assert!(e.to_string().contains('7'));
        let err = RecvError::Disconnected;
        let e = SvdError::Distributed(DistError { rank: 1, sweep: 0, step: 4, err });
        assert!(e.to_string().starts_with("distributed run failed: rank 1"), "{e}");
    }

    #[test]
    fn distributed_error_names_the_missing_message() {
        let err =
            RecvError::Timeout { rank: 3, source: 5, tag: 42, waited: Duration::from_secs(5) };
        let e: SvdError = DistError { rank: 3, sweep: 2, step: 17, err: err.clone() }.into();
        let msg = e.to_string();
        for part in ["rank 3", "sweep 2", "step 17", "source 5", "tag 42"] {
            assert!(msg.contains(part), "{msg:?} does not name {part:?}");
        }
        let dist = std::error::Error::source(&e).expect("the DistError");
        let recv = dist.source().expect("the RecvError");
        assert_eq!(recv.downcast_ref::<RecvError>(), Some(&err));
    }

    #[test]
    fn cloned_custom_choice_builds_the_same_ordering() {
        let c = OrderingChoice::Custom(Arc::new(|n| {
            Ok(Box::new(treesvd_orderings::RoundRobinOrdering::new(n)?) as Box<dyn JacobiOrdering>)
        }));
        let (a, b) = (c.build(8).unwrap(), c.clone().build(8).unwrap());
        assert_eq!(a.name(), b.name());
        assert_eq!(a.programs(2), b.programs(2));
        assert!(c.clone().build(7).is_err(), "the clone keeps the factory's size checks");
    }
}
