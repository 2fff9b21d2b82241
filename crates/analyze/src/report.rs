//! Structured verdicts: checks, violations, and the aggregate report.
//!
//! Every violation is *step-precise*: it names the first sweep step (and,
//! where relevant, the channel, rank, or index pair) at which the schedule
//! property fails, so a bad ordering generator can be debugged from the
//! diagnostic alone, before any matrix data is touched.

use std::fmt;
use treesvd_net::routing::Channel;
use treesvd_orderings::{ColIndex, Slot};

/// The four static checks of the schedule verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Check {
    /// Each column index is owned by exactly one processor at every step
    /// (schedule-level data-race freedom).
    Permutation,
    /// Every unordered index pair meets exactly once per sweep and the
    /// slot layout is restored after the ordering's period (paper §3).
    Coverage,
    /// No tree channel is ever loaded beyond the busiest endpoint channel
    /// (the §5 zero-contention claim).
    Contention,
    /// The send/recv dependency graph implied by the schedule is acyclic
    /// and every receive has a matching send.
    Deadlock,
}

impl Check {
    /// All checks, in report order.
    pub const ALL: [Check; 4] =
        [Check::Permutation, Check::Coverage, Check::Contention, Check::Deadlock];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Check::Permutation => "permutation-safety",
            Check::Coverage => "coverage/restore",
            Check::Contention => "contention",
            Check::Deadlock => "deadlock-freedom",
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One step of a communication plan, for deadlock diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRef {
    /// Rank executing the operation.
    pub rank: usize,
    /// Sweep step (0-based) the operation belongs to.
    pub step: usize,
    /// `true` for a send, `false` for a receive.
    pub is_send: bool,
    /// The peer rank (destination of a send, source of a receive).
    pub peer: usize,
    /// The message tag.
    pub tag: u64,
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, dir) = if self.is_send { ("send", "to") } else { ("recv", "from") };
        write!(
            f,
            "rank {} step {}: {kind} {dir} rank {} (tag {})",
            self.rank, self.step, self.peer, self.tag
        )
    }
}

/// A step-precise schedule violation — the reason a check failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The program's initial layout or a step layout has the wrong size.
    ShapeMismatch {
        /// Step at which the mismatch appears (0 = initial layout).
        step: usize,
        /// Slots found.
        found: usize,
        /// Slots expected (`n`).
        expected: usize,
    },
    /// An index appears in two slots at once — two processors own the same
    /// column (a schedule-level data race).
    DuplicateOwnership {
        /// First step at which the duplication holds.
        step: usize,
        /// The doubly-owned column index.
        index: ColIndex,
        /// The two slots claiming it.
        slots: (Slot, Slot),
    },
    /// An index is out of range or absent from a step's layout.
    IndexOutOfRange {
        /// Step at which the bad index appears.
        step: usize,
        /// The offending index value.
        index: ColIndex,
        /// Valid range bound (`n`).
        n: usize,
    },
    /// A pair is rotated twice within one sweep.
    PairRepeated {
        /// The step of the second meeting.
        step: usize,
        /// The step of the first meeting.
        first_step: usize,
        /// The repeated unordered pair.
        pair: (ColIndex, ColIndex),
    },
    /// A slot pair holds the same index twice (degenerate rotation).
    DegeneratePair {
        /// Step at which it happens.
        step: usize,
        /// The index paired with itself.
        index: ColIndex,
    },
    /// The sweep ends without meeting all `n(n−1)/2` pairs.
    PairsMissed {
        /// Pairs actually covered.
        covered: usize,
        /// Pairs required.
        expected: usize,
        /// One example pair that never met.
        example: (ColIndex, ColIndex),
    },
    /// The layout after `sweeps` sweeps is not the one the schedule needs
    /// there: after the ordering's claimed period, the initial layout;
    /// before it, the one the next sweep's program starts from.
    LayoutNotRestored {
        /// Sweeps executed (the claimed period, or fewer when a program
        /// does not start where the sweeps before it left the columns).
        sweeps: usize,
        /// First slot whose content differs.
        slot: Slot,
        /// Index expected in that slot.
        expected: ColIndex,
        /// Index actually there.
        found: ColIndex,
    },
    /// The layout is restored *before* the claimed period — the period
    /// claim is not tight.
    RestoredEarly {
        /// Sweep count after which the layout is already back.
        sweeps: usize,
        /// The claimed period.
        claimed: usize,
    },
    /// An interior channel drains slower than the busiest endpoint channel:
    /// contention in the sense of §5.
    ChannelOverload {
        /// Sweep step of the overloading phase.
        step: usize,
        /// The overloaded channel.
        channel: Channel,
        /// Words crossing the channel in the phase.
        load: u64,
        /// The channel's capacity in wires.
        capacity: u64,
        /// The phase's contention factor (interior over endpoint).
        factor: f64,
    },
    /// A receive with no matching send: the rank would block forever.
    UnmatchedRecv {
        /// The starving receive.
        op: OpRef,
    },
    /// A send that no receive ever consumes: the column is lost in flight.
    UnconsumedSend {
        /// The orphaned send.
        op: OpRef,
    },
    /// Two sends carry the same (source, destination, tag): the receiver
    /// cannot tell the columns apart.
    AmbiguousTag {
        /// The second send with the duplicate tag.
        op: OpRef,
    },
    /// A cyclic wait chain: under the given communication semantics these
    /// operations all wait on each other.
    WaitCycle {
        /// The operations forming the cycle, in wait order.
        cycle: Vec<OpRef>,
    },
}

impl Violation {
    /// The check this violation belongs to.
    pub fn check(&self) -> Check {
        match self {
            Violation::ShapeMismatch { .. }
            | Violation::DuplicateOwnership { .. }
            | Violation::IndexOutOfRange { .. } => Check::Permutation,
            Violation::PairRepeated { .. }
            | Violation::DegeneratePair { .. }
            | Violation::PairsMissed { .. }
            | Violation::LayoutNotRestored { .. }
            | Violation::RestoredEarly { .. } => Check::Coverage,
            Violation::ChannelOverload { .. } => Check::Contention,
            Violation::UnmatchedRecv { .. }
            | Violation::UnconsumedSend { .. }
            | Violation::AmbiguousTag { .. }
            | Violation::WaitCycle { .. } => Check::Deadlock,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ShapeMismatch { step, found, expected } => {
                write!(f, "step {step}: layout has {found} slots, expected {expected}")
            }
            Violation::DuplicateOwnership { step, index, slots } => write!(
                f,
                "step {step}: index {index} owned twice, by slot {} (processor {}) and slot {} (processor {})",
                slots.0,
                slots.0 / 2,
                slots.1,
                slots.1 / 2
            ),
            Violation::IndexOutOfRange { step, index, n } => {
                write!(f, "step {step}: index {index} out of range 0..{n}")
            }
            Violation::PairRepeated { step, first_step, pair } => write!(
                f,
                "step {step}: pair ({},{}) meets again (first met at step {first_step})",
                pair.0, pair.1
            ),
            Violation::DegeneratePair { step, index } => {
                write!(f, "step {step}: degenerate pair ({index},{index})")
            }
            Violation::PairsMissed { covered, expected, example } => write!(
                f,
                "sweep covers {covered} of {expected} pairs; e.g. ({},{}) never meets",
                example.0, example.1
            ),
            Violation::LayoutNotRestored { sweeps, slot, expected, found } => write!(
                f,
                "layout not restored after {sweeps} sweep(s): slot {slot} holds index {found}, expected {expected}"
            ),
            Violation::RestoredEarly { sweeps, claimed } => write!(
                f,
                "layout already restored after {sweeps} sweep(s) but the ordering claims period {claimed}"
            ),
            Violation::ChannelOverload { step, channel, load, capacity, factor } => write!(
                f,
                "step {step}: {} channel at level {} above node {} carries {load} words over capacity {capacity} (contention factor {factor:.2})",
                if channel.up { "up" } else { "down" },
                channel.level,
                channel.node
            ),
            Violation::UnmatchedRecv { op } => {
                write!(f, "{op} has no matching send: the rank blocks forever")
            }
            Violation::UnconsumedSend { op } => {
                write!(f, "{op} is never received: the column is lost in flight")
            }
            Violation::AmbiguousTag { op } => {
                write!(f, "{op} duplicates an earlier send's (source, dest, tag)")
            }
            Violation::WaitCycle { cycle } => {
                write!(f, "cyclic wait chain of {} operations: ", cycle.len())?;
                for (i, op) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "[{op}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Outcome of one check: a short success summary or the first violation.
pub type CheckOutcome = Result<String, Violation>;

/// The aggregate verdict of [`analyze_ordering`](crate::analyze_ordering).
#[derive(Debug)]
pub struct AnalysisReport {
    /// Ordering name.
    pub ordering: String,
    /// Index count.
    pub n: usize,
    /// Processor count (`n/2`).
    pub processors: usize,
    /// Sweeps analyzed (the ordering's restore period).
    pub sweeps: usize,
    /// Steps per sweep.
    pub steps_per_sweep: usize,
    /// Per-check outcomes, in [`Check::ALL`] order.
    pub outcomes: Vec<(Check, CheckOutcome)>,
    /// Worst per-phase contention factor observed (when a topology was
    /// given); ≤ 1.0 means the zero-contention claim holds.
    pub max_contention: Option<f64>,
}

impl AnalysisReport {
    /// Whether every executed check passed.
    pub fn is_verified(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.is_ok())
    }

    /// The first violation, if any check failed.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.outcomes.iter().find_map(|(_, o)| o.as_ref().err())
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule analysis: {} (n = {}, {} processors, {} sweep(s) x {} steps)",
            self.ordering, self.n, self.processors, self.sweeps, self.steps_per_sweep
        )?;
        for (check, outcome) in &self.outcomes {
            match outcome {
                Ok(msg) => writeln!(f, "  {:<20} OK   {msg}", check.name())?,
                Err(v) => writeln!(f, "  {:<20} FAIL {v}", check.name())?,
            }
        }
        Ok(())
    }
}
