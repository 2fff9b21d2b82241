//! Recovery policy, health reporting, checkpoints, and the error taxonomy
//! of the fault-tolerant distributed executor.
//!
//! The executor ([`distributed_svd_with`](crate::distributed_svd_with))
//! composes three mechanisms, each individually proved or tested
//! bitwise-invisible when no fault fires:
//!
//! * **Bounded receives with retry** — every blocking receive gets a
//!   timeout window; on expiry the communicator redelivers from the
//!   retransmission store and retries with exponential backoff
//!   ([`FaultPolicy::max_retries`], [`FaultPolicy::backoff`]). Proven
//!   deadlock-free by `treesvd_analyze::verify_recovery_freedom`.
//! * **Sweep-boundary checkpoints** — every [`FaultPolicy::checkpoint_every`]
//!   sweeps each rank deposits its two columns into a shared
//!   [`CheckpointStore`]; after a crash the whole world restarts from the
//!   last sweep *all* ranks completed.
//! * **A degradation ladder** — if restarts are exhausted on the zero-copy
//!   rung the executor descends to a single-rank sequential fallback that
//!   needs no network at all and therefore absorbs even a fully poisoned
//!   link.
//!
//! What the run actually needed is reported in a [`HealthReport`]; what it
//! could not absorb becomes a [`DistError::Unrecoverable`] carrying the
//! final failure plus the restart/ladder history — the executor fails
//! fast with a precise diagnostic, never hangs.

use crate::exec::SlotData;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;
use treesvd_comm::{FaultSnapshot, RecvError};

/// Recovery knobs of a distributed run: how hard to try before giving up,
/// and how much state to keep for restarts.
///
/// The default policy reproduces the pre-recovery executor exactly: a
/// generous 5 s receive window, no retries, no checkpoints, no
/// degradation — a timeout is a schedule bug and should fail loudly.
/// [`FaultPolicy::chaos`] is the tuned-for-fault-injection profile the
/// chaos tests and the `--chaos` CLI flag use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Initial window of every blocking receive.
    pub recv_timeout: Duration,
    /// Additional receive attempts after the first timeout (each attempt
    /// first asks the retransmission store for a redelivery).
    pub max_retries: u32,
    /// Window multiplier between attempts (exponential backoff).
    pub backoff: f64,
    /// Deposit a checkpoint every this many sweeps; `0` disables
    /// checkpointing (a crash then restarts from the initial columns).
    pub checkpoint_every: usize,
    /// Whole-world restarts allowed per ladder rung before descending.
    pub max_restarts: u32,
    /// Whether to descend the ladder (zero-copy → sequential) once
    /// restarts are exhausted. `false` turns the last restart failure
    /// into [`DistError::Unrecoverable`] directly.
    pub degrade: bool,
    /// Screen every received payload for NaN/Inf at the communicator seam.
    pub check_finite: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(5),
            max_retries: 0,
            backoff: 2.0,
            checkpoint_every: 0,
            max_restarts: 0,
            degrade: false,
            check_finite: false,
        }
    }
}

impl FaultPolicy {
    /// The profile tuned for seeded fault injection: tight 20 ms windows
    /// so drops are detected quickly, six retries with doubling backoff
    /// (absorbs several consecutive losses on one edge), a checkpoint
    /// every sweep, two restarts per rung, the full degradation ladder,
    /// and the finite screen armed.
    pub fn chaos() -> Self {
        Self {
            recv_timeout: Duration::from_millis(20),
            max_retries: 6,
            backoff: 2.0,
            checkpoint_every: 1,
            max_restarts: 2,
            degrade: true,
            check_finite: true,
        }
    }
}

/// What a completed distributed run actually went through: injected
/// faults, receiver retries, whole-world restarts, and any ladder
/// descents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Injected-fault counters from the armed [`FaultInjector`]
    /// (all zero when no injector was armed).
    ///
    /// [`FaultInjector`]: treesvd_comm::FaultInjector
    pub faults: FaultSnapshot,
    /// Receive attempts beyond the first, summed over the ranks of the
    /// attempt that completed.
    pub retries: u64,
    /// Whole-world restarts consumed across all ladder rungs.
    pub restarts: u32,
    /// Ladder rungs abandoned, in descent order (empty when the first
    /// rung finished the run).
    pub fallbacks: Vec<&'static str>,
}

impl HealthReport {
    /// Whether the run needed any recovery at all.
    pub fn degraded(&self) -> bool {
        self.retries > 0 || self.restarts > 0 || !self.fallbacks.is_empty()
    }
}

/// Why a distributed run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A rank's receive failed (timeout after exhausting its retry
    /// budget, or unrecoverably poisoned data).
    Recv {
        /// The rank whose receive failed.
        rank: usize,
        /// The sweep it was executing.
        sweep: usize,
        /// The global step counter at the failure.
        step: u64,
        /// The underlying communicator error (source, tag, wait time).
        err: RecvError,
    },
    /// A rank crashed (fault-injected [`StallKind::Crash`]).
    ///
    /// [`StallKind::Crash`]: treesvd_comm::StallKind::Crash
    Crashed {
        /// The rank that died.
        rank: usize,
        /// The sweep at whose start it died.
        sweep: usize,
    },
    /// Every restart and every ladder rung failed. Carries the last
    /// failure plus the recovery history so the diagnostic is precise.
    Unrecoverable {
        /// The failure that exhausted the ladder.
        last: Box<DistError>,
        /// Whole-world restarts consumed before giving up.
        restarts: u32,
        /// Ladder rungs attempted, in order.
        rungs: Vec<&'static str>,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Recv { rank, sweep, step, err } => {
                write!(f, "rank {rank} failed in sweep {sweep} at global step {step}: {err}")
            }
            Self::Crashed { rank, sweep } => {
                write!(f, "rank {rank} crashed at the start of sweep {sweep}")
            }
            Self::Unrecoverable { last, restarts, rungs } => {
                write!(
                    f,
                    "unrecoverable after {restarts} restart(s) across {} rung(s) [{}]: {last}",
                    rungs.len(),
                    rungs.join(" → ")
                )
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Recv { err, .. } => Some(err),
            Self::Crashed { .. } => None,
            Self::Unrecoverable { last, .. } => Some(last),
        }
    }
}

/// One rank's sweep-boundary snapshot: its two resident columns and its
/// cumulative rotation count up to and including the checkpointed sweep.
#[derive(Debug, Clone)]
pub(crate) struct RankCkpt {
    pub(crate) left: SlotData,
    pub(crate) right: SlotData,
    pub(crate) rotations: usize,
}

/// Shared sweep-boundary checkpoint store: each rank deposits its
/// [`RankCkpt`] after finishing a checkpointed sweep; the supervisor
/// restarts a crashed world from the newest sweep *every* rank completed
/// (a partial row — some ranks died before depositing — is ignored).
#[derive(Debug)]
pub(crate) struct CheckpointStore {
    ranks: usize,
    /// completed sweep count → per-rank deposits.
    rows: Mutex<HashMap<usize, Vec<Option<RankCkpt>>>>,
}

impl CheckpointStore {
    pub(crate) fn new(ranks: usize) -> Self {
        Self { ranks, rows: Mutex::new(HashMap::new()) }
    }

    /// Deposit rank `rank`'s state after completing `sweeps` sweeps.
    pub(crate) fn deposit(&self, sweeps: usize, rank: usize, ckpt: RankCkpt) {
        let mut rows = self.rows.lock().expect("checkpoint store");
        let row = rows.entry(sweeps).or_insert_with(|| vec![None; self.ranks]);
        row[rank] = Some(ckpt);
    }

    /// The newest complete checkpoint: `(sweeps_completed, per-rank
    /// state)`, or `None` if no sweep has a deposit from every rank.
    pub(crate) fn latest_complete(&self) -> Option<(usize, Vec<RankCkpt>)> {
        let rows = self.rows.lock().expect("checkpoint store");
        rows.iter()
            .filter(|(_, row)| row.iter().all(Option::is_some))
            .max_by_key(|(sweeps, _)| **sweeps)
            .map(|(sweeps, row)| {
                (*sweeps, row.iter().map(|c| c.clone().expect("complete row")).collect())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(x: f64) -> SlotData {
        SlotData { a: vec![x], v: vec![] }
    }

    #[test]
    fn default_policy_is_pre_recovery_behavior() {
        let p = FaultPolicy::default();
        assert_eq!(p.recv_timeout, Duration::from_secs(5));
        assert_eq!(p.max_retries, 0);
        assert!(!p.degrade && !p.check_finite && p.checkpoint_every == 0);
        assert_eq!(p.max_restarts, 0);
    }

    #[test]
    fn checkpoint_store_returns_newest_complete_row() {
        let store = CheckpointStore::new(2);
        store.deposit(1, 0, RankCkpt { left: slot(1.0), right: slot(2.0), rotations: 3 });
        store.deposit(1, 1, RankCkpt { left: slot(3.0), right: slot(4.0), rotations: 5 });
        // sweep 2 is partial: rank 1 crashed before depositing
        store.deposit(2, 0, RankCkpt { left: slot(9.0), right: slot(9.0), rotations: 9 });
        let (sweeps, row) = store.latest_complete().expect("sweep 1 is complete");
        assert_eq!(sweeps, 1);
        assert_eq!(row[0].left.a, [1.0]);
        assert_eq!(row[1].rotations, 5);
    }

    #[test]
    fn empty_or_partial_store_has_no_checkpoint() {
        let store = CheckpointStore::new(2);
        assert!(store.latest_complete().is_none());
        store.deposit(1, 0, RankCkpt { left: slot(1.0), right: slot(1.0), rotations: 0 });
        assert!(store.latest_complete().is_none());
    }

    #[test]
    fn unrecoverable_display_carries_the_history() {
        let last = DistError::Crashed { rank: 2, sweep: 4 };
        let err = DistError::Unrecoverable {
            last: Box::new(last),
            restarts: 3,
            rungs: vec!["zero-copy", "sequential"],
        };
        let s = err.to_string();
        assert!(s.contains("3 restart(s)"), "{s}");
        assert!(s.contains("zero-copy → sequential"), "{s}");
        assert!(s.contains("rank 2 crashed at the start of sweep 4"), "{s}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
