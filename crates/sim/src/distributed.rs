//! A genuinely distributed-style executor: every processor is its own
//! thread owning its two columns, exchanging them by explicit tag-matched
//! messages over `treesvd-comm` — the shape of the paper's CM-5
//! implementation (CMMD send/recv), with the convergence test as a global
//! allreduce once per sweep.
//!
//! The same schedules, the same arithmetic: the distributed run is
//! **bitwise identical** to [`execute_program`](crate::exec::execute_program)
//! (asserted in this module's tests and in
//! `tests/simulation_integration.rs`), because rotation order within a pair
//! is fully determined by the schedule and f64 arithmetic is deterministic.
//!
//! The transport is **zero-copy**: a departing column's storage *is* the
//! message. The sender moves its `Vec` into a detached
//! [`MsgBuf`](treesvd_comm::MsgBuf) and the receiver adopts the
//! allocation, so exactly `n` data (and `n` vector) buffers exist for the
//! whole run, wandering between ranks along the movement permutations; the
//! steady state performs **zero payload allocations** (collectives lease
//! from the rank-local [`BufferPool`](treesvd_comm::BufferPool), which is
//! warm after the first sweep).
//!
//! Every step is the paper's rotation-then-exchange: a rank rotates its
//! resident pair, ships each departing column as a data message then a
//! vector message, and blocks on its arrivals in the same order — the
//! operation sequence `treesvd_analyze::CommPlan::from_program` models
//! message for message.
//!
//! # Fault tolerance
//!
//! [`DistConfig::policy`] and [`DistConfig::fault`] arm the recovery
//! layer. A [`FaultPlan`] interposes deterministic, seeded message faults
//! (drop / delay / duplication / corruption, rank stalls and crashes,
//! poisoned links) at the communicator boundary; a [`FaultPolicy`]
//! decides how much the run absorbs:
//!
//! 1. **Retry + redelivery** — receives are bounded and retried with
//!    exponential backoff; each retry first asks the retransmission store
//!    for the lost payload (proved deadlock-free by
//!    `treesvd_analyze::verify_recovery_freedom`).
//! 2. **Checkpoint restart** — ranks deposit their columns at sweep
//!    boundaries; a crash restarts the world from the last sweep *all*
//!    ranks completed.
//! 3. **Degradation ladder** — when restarts are exhausted the executor
//!    descends zero-copy → single-rank sequential (no network at all, so
//!    even a fully poisoned link is absorbed).
//!
//! Absorbable faults leave the result **bitwise identical** to the
//! fault-free run — the store redelivers the exact payload, checkpoints
//! capture exact state, and every ladder rung computes the same
//! arithmetic. Unabsorbable faults surface as a precise
//! [`DistError::Unrecoverable`]; the executor never hangs. What recovery
//! actually ran is reported in [`DistributedOutcome::health`].

use crate::exec::{execute_program, rotate_pair, ColumnStore, ExecConfig, SlotData};
use crate::machine::Machine;
use crate::recovery::{CheckpointStore, DistError, FaultPolicy, HealthReport, RankCkpt};
use std::sync::Arc;
use treesvd_analyze::{tag_a, tag_v};
use treesvd_comm::{
    allreduce_sum_in_place, Communicator, FaultInjector, FaultPlan, MsgBuf, RecvError, RetryPolicy,
    StallKind, ThreadWorld, WorldConfig,
};
use treesvd_net::TopologyKind;
use treesvd_orderings::{ColIndex, JacobiOrdering, Program};

/// Configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Rotation/kernel parameters (shared with the simulated executor).
    pub exec: ExecConfig,
    /// Sweep cap.
    pub max_sweeps: usize,
    /// Recovery knobs: receive windows, retries, checkpoints, restarts,
    /// and the degradation ladder. The default policy reproduces the
    /// pre-recovery executor (5 s windows, fail on first timeout).
    pub policy: FaultPolicy,
    /// Seeded fault plan to arm, if any. `None` runs fault-free with no
    /// interposition at all.
    pub fault: Option<FaultPlan>,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            exec: ExecConfig::default(),
            max_sweeps: 64,
            policy: FaultPolicy::default(),
            fault: None,
        }
    }
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// Slot contents at termination, indexed by slot.
    pub slots: Vec<SlotData>,
    /// Final slot→index layout.
    pub layout: Vec<ColIndex>,
    /// Sweeps executed.
    pub sweeps: usize,
    /// Whether the termination criterion (no rotations, no swaps in a full
    /// sweep) was reached.
    pub converged: bool,
    /// Total rotations across all ranks and sweeps.
    pub total_rotations: usize,
    /// Payload allocation events during the warm-up sweep, summed over all
    /// ranks' buffer pools.
    pub warm_payload_allocs: u64,
    /// Payload allocation events *after* the warm-up sweep, summed over
    /// all ranks. Zero for a zero-copy run (the smoke-benchmark gate);
    /// fault-layer copies are charged separately
    /// ([`FaultSnapshot::chaos_allocations`](treesvd_comm::FaultSnapshot)).
    pub steady_payload_allocs: u64,
    /// What the recovery layer actually did: injected faults, retries,
    /// restarts, ladder descents. All-zero/empty for a clean run.
    pub health: HealthReport,
}

/// One rung of the degradation ladder, ordered fastest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    ZeroCopy,
    Sequential,
}

impl Rung {
    fn label(self) -> &'static str {
        match self {
            Self::ZeroCopy => "zero-copy",
            Self::Sequential => "sequential",
        }
    }
}

/// Everything a per-rank worker owns besides its communicator: the shared
/// schedule, its two resident columns, the execution parameters, and its
/// resume/checkpoint context.
struct WorkerTask<'a> {
    programs: &'a [Program],
    left: SlotData,
    right: SlotData,
    config: ExecConfig,
    vectors: bool,
    /// First sweep to execute (0 on a fresh start, the checkpointed sweep
    /// count on a restart).
    start_sweep: usize,
    /// Global step counter at `start_sweep` (steps of all prior sweeps).
    start_step: usize,
    /// This rank's cumulative rotation count at `start_sweep`.
    base_rotations: usize,
    checkpoints: Option<Arc<CheckpointStore>>,
    checkpoint_every: usize,
}

/// What a per-rank worker reports back.
struct WorkerOut {
    left: SlotData,
    right: SlotData,
    sweeps: usize,
    rotations: usize,
    converged: bool,
    warm_allocs: u64,
    steady_allocs: u64,
    retries: u64,
}

/// Context-preserving wrapper for receive failures inside a worker.
fn recv_fail(rank: usize, sweep: usize, step: u64) -> impl Fn(RecvError) -> DistError {
    move |err| DistError::Recv { rank, sweep, step, err }
}

/// Fire this rank's stall/crash event at the top of `sweep`, if the armed
/// plan schedules one (one-shot: a restarted run resumes past it).
fn check_stall(comm: &Communicator, rank: usize, sweep: usize) -> Result<(), DistError> {
    let Some(inj) = comm.fault() else { return Ok(()) };
    match inj.stall_event(rank, sweep) {
        Some(StallKind::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(StallKind::Crash) => Err(DistError::Crashed { rank, sweep }),
        None => Ok(()),
    }
}

/// Deposit a sweep-boundary checkpoint when one is due.
fn maybe_checkpoint(
    checkpoints: &Option<Arc<CheckpointStore>>,
    every: usize,
    sweeps_done: usize,
    rank: usize,
    left: &SlotData,
    right: &SlotData,
    rotations: usize,
) {
    if every == 0 {
        return;
    }
    if let Some(store) = checkpoints {
        if sweeps_done.is_multiple_of(every) {
            store.deposit(
                sweeps_done,
                rank,
                RankCkpt { left: left.clone(), right: right.clone(), rotations },
            );
        }
    }
}

/// Per-rank worker: executes its two slots across all sweeps. The full
/// pair rotation runs, then departing columns leave as two detached
/// messages (A phase: the data column; V phase: the vector column) whose
/// storage the receiver adopts, and the step blocks on its arrivals.
fn worker(comm: &mut Communicator, task: WorkerTask<'_>) -> Result<WorkerOut, DistError> {
    let WorkerTask {
        programs,
        mut left,
        mut right,
        config,
        vectors,
        start_sweep,
        start_step,
        base_rotations,
        checkpoints,
        checkpoint_every,
    } = task;
    let rank = comm.rank();
    let my_slots = [2 * rank, 2 * rank + 1];
    let mut total_rotations = base_rotations;
    let mut sweeps = start_sweep;
    let mut converged = false;
    let mut global_step = start_step;
    let mut warm_allocs = 0u64;

    'sweeps: for (sweep_no, program) in programs.iter().enumerate().skip(start_sweep) {
        check_stall(comm, rank, sweep_no)?;
        let layouts = program.layouts();
        let mut rotations = 0usize;
        let mut swaps = 0usize;
        for (step_no, step) in program.steps.iter().enumerate() {
            let layout = &layouts[step_no];
            let small_on_left = layout[my_slots[0]] < layout[my_slots[1]];
            let report =
                rotate_pair(&mut left, &mut right, config.threshold, config.sort, small_on_left);
            rotations += report.rotated as usize;
            swaps += report.swapped as usize;

            let perm = &step.move_after;
            let inv = perm.inverse();
            // departures: the column's storage is the message
            for (i, &s) in my_slots.iter().enumerate() {
                let d = perm.dest_of(s);
                if d / 2 != rank {
                    let slot = if i == 0 { &mut left } else { &mut right };
                    let a = std::mem::take(&mut slot.a);
                    comm.send_buf(d / 2, tag_a(global_step, d), MsgBuf::detached(a));
                    if vectors {
                        let v = std::mem::take(&mut slot.v);
                        comm.send_buf(d / 2, tag_v(global_step, d), MsgBuf::detached(v));
                    }
                }
            }
            // local shuffle: a stay crossing slots is a plain swap of the
            // resident pair (departed columns left empty shells behind)
            if crosses_locally(perm, rank) {
                std::mem::swap(&mut left, &mut right);
            }
            // arrivals: adopt the sender's storage into the vacated shells
            for (local, &dest_slot) in my_slots.iter().enumerate() {
                let src_slot = inv.dest_of(dest_slot);
                if src_slot / 2 != rank {
                    let slot = if local == 0 { &mut left } else { &mut right };
                    slot.a = comm
                        .recv(src_slot / 2, tag_a(global_step, dest_slot))
                        .map_err(recv_fail(rank, sweep_no, global_step as u64))?;
                    if vectors {
                        slot.v = comm
                            .recv(src_slot / 2, tag_v(global_step, dest_slot))
                            .map_err(recv_fail(rank, sweep_no, global_step as u64))?;
                    }
                }
            }
            global_step += 1;
        }

        let mut sums = [rotations as f64, swaps as f64];
        allreduce_sum_in_place(comm, sweep_no as u64, &mut sums).map_err(recv_fail(
            rank,
            sweep_no,
            global_step as u64,
        ))?;
        total_rotations += rotations;
        sweeps = sweep_no + 1;
        if sweep_no == start_sweep {
            warm_allocs = comm.payload_allocations();
        }
        maybe_checkpoint(
            &checkpoints,
            checkpoint_every,
            sweeps,
            rank,
            &left,
            &right,
            total_rotations,
        );
        if sums[0] == 0.0 && sums[1] == 0.0 {
            converged = true;
            break 'sweeps;
        }
    }
    let steady_allocs = comm.payload_allocations() - warm_allocs;
    Ok(WorkerOut {
        left,
        right,
        sweeps,
        rotations: total_rotations,
        converged,
        warm_allocs,
        steady_allocs,
        retries: comm.retries(),
    })
}

/// Whether this step's movement keeps a column on `rank` but moves it to
/// the other local slot — the only intra-rank shuffle two slots allow.
fn crosses_locally(perm: &treesvd_orderings::schedule::Permutation, rank: usize) -> bool {
    for (i, s) in [2 * rank, 2 * rank + 1].into_iter().enumerate() {
        let d = perm.dest_of(s);
        if d / 2 == rank && d % 2 != i {
            return true;
        }
    }
    false
}

/// What one completed attempt (any rung) produced.
struct AttemptOut {
    slots: Vec<SlotData>,
    sweeps: usize,
    converged: bool,
    total_rotations: usize,
    warm: u64,
    steady: u64,
    retries: u64,
}

/// Where a (re)start resumes: the newest complete checkpoint, or the
/// initial columns.
fn resume_point(
    checkpoints: &Option<Arc<CheckpointStore>>,
    initial: &[SlotData],
    procs: usize,
) -> (usize, Vec<SlotData>, Vec<usize>) {
    if let Some(store) = checkpoints {
        if let Some((sweeps, row)) = store.latest_complete() {
            let mut slots = Vec::with_capacity(initial.len());
            let mut bases = Vec::with_capacity(procs);
            for ckpt in row {
                slots.push(ckpt.left);
                slots.push(ckpt.right);
                bases.push(ckpt.rotations);
            }
            return (sweeps, slots, bases);
        }
    }
    (0, initial.to_vec(), vec![0; procs])
}

/// One threaded-world attempt on the zero-copy rung. Spawns a thread per
/// rank, joins them all (a failed rank makes its peers time out, so every
/// thread terminates), and reports the first failure — a crash wins over
/// the receive errors it caused on other ranks.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    programs: &Arc<Vec<Program>>,
    start_sweep: usize,
    mut slot_data: Vec<SlotData>,
    bases: &[usize],
    vectors: bool,
    exec: ExecConfig,
    policy: &FaultPolicy,
    injector: &Option<Arc<FaultInjector>>,
    checkpoints: &Option<Arc<CheckpointStore>>,
) -> Result<AttemptOut, DistError> {
    let procs = slot_data.len() / 2;
    let world = ThreadWorld::with_config(
        procs,
        WorldConfig {
            recv_timeout: policy.recv_timeout,
            retry: RetryPolicy { max_retries: policy.max_retries, backoff: policy.backoff },
            check_finite: policy.check_finite,
            fault: injector.clone(),
        },
    );
    let start_step: usize = programs[..start_sweep].iter().map(|p| p.steps.len()).sum();
    let checkpoint_every = policy.checkpoint_every;

    let mut handles = Vec::with_capacity(procs);
    for (rank, mut comm) in world.into_communicators().into_iter().enumerate() {
        let left = std::mem::take(&mut slot_data[2 * rank]);
        let right = std::mem::take(&mut slot_data[2 * rank + 1]);
        let programs = Arc::clone(programs);
        let checkpoints = checkpoints.clone();
        let base_rotations = bases[rank];
        handles.push(crate::par::spawn_worker(format!("treesvd-rank-{rank}"), move || {
            worker(
                &mut comm,
                WorkerTask {
                    programs: &programs,
                    left,
                    right,
                    config: exec,
                    vectors,
                    start_sweep,
                    start_step,
                    base_rotations,
                    checkpoints,
                    checkpoint_every,
                },
            )
        }));
    }

    let n = 2 * procs;
    let mut slots: Vec<SlotData> = (0..n).map(|_| SlotData::default()).collect();
    let mut sweeps = start_sweep;
    let mut converged = false;
    let mut total_rotations = 0usize;
    let mut warm = 0u64;
    let mut steady = 0u64;
    let mut retries = 0u64;
    let mut first_err: Option<DistError> = None;
    for (rank, h) in handles.into_iter().enumerate() {
        match h.join().expect("worker panicked") {
            Ok(out) => {
                slots[2 * rank] = out.left;
                slots[2 * rank + 1] = out.right;
                sweeps = out.sweeps; // identical on all ranks by the allreduce
                converged = out.converged;
                total_rotations += out.rotations;
                warm += out.warm_allocs;
                steady += out.steady_allocs;
                retries += out.retries;
            }
            Err(e) => {
                let crash = matches!(e, DistError::Crashed { .. });
                match &first_err {
                    None => first_err = Some(e),
                    Some(prev) if crash && !matches!(prev, DistError::Crashed { .. }) => {
                        first_err = Some(e);
                    }
                    _ => {}
                }
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(AttemptOut { slots, sweeps, converged, total_rotations, warm, steady, retries })
}

/// The bottom of the ladder: the synchronous single-process executor,
/// which exchanges no messages and therefore cannot be faulted. Bitwise
/// identical to the distributed rungs (that equivalence is this module's
/// founding invariant).
fn run_sequential(
    programs: &[Program],
    start_sweep: usize,
    slots: Vec<SlotData>,
    bases: &[usize],
    exec: ExecConfig,
) -> AttemptOut {
    let n = slots.len();
    let mac = Machine::with_kind(TopologyKind::PerfectFatTree, (n / 2).next_power_of_two());
    let layout: Vec<ColIndex> = if start_sweep == 0 {
        programs.first().map_or_else(|| (0..n).collect(), |p| p.initial_layout.clone())
    } else {
        programs[start_sweep - 1].final_layout()
    };
    let mut store = ColumnStore { slots, layout };
    let mut total_rotations: usize = bases.iter().sum();
    let mut sweeps = start_sweep;
    let mut converged = false;
    for (k, program) in programs.iter().enumerate().skip(start_sweep) {
        let stats = execute_program(&mac, program, &mut store, &exec);
        total_rotations += stats.rotations;
        sweeps = k + 1;
        if stats.is_converged() {
            converged = true;
            break;
        }
    }
    AttemptOut {
        slots: store.slots,
        sweeps,
        converged,
        total_rotations,
        warm: 0,
        steady: 0,
        retries: 0,
    }
}

/// Run the ordering to convergence with one thread per processor, using
/// the default [`DistConfig`] (no recovery armed).
///
/// `columns[j]` is column `j`; `accumulate_v` attaches identity `V`
/// columns. Returns the final slots, layout, and counters.
///
/// # Errors
/// Returns a [`DistError`] if a rank fails past its recovery budget (with
/// the default policy: on the first receive timeout — a schedule bug).
///
/// # Panics
/// Panics if `columns.len()` is odd or disagrees with the ordering.
pub fn distributed_svd(
    ordering: &dyn JacobiOrdering,
    columns: Vec<Vec<f64>>,
    accumulate_v: bool,
    config: ExecConfig,
    max_sweeps: usize,
) -> Result<DistributedOutcome, DistError> {
    let cfg = DistConfig { exec: config, max_sweeps, ..DistConfig::default() };
    distributed_svd_with(ordering, columns, accumulate_v, &cfg)
}

/// [`distributed_svd`] with full control over fault injection and
/// recovery.
///
/// The supervisor walks the degradation ladder: on each rung it runs up
/// to `1 + policy.max_restarts` whole-world attempts (each resuming from
/// the newest complete checkpoint, or the initial columns), then — if the
/// policy allows — descends to the next rung. The retransmission store is
/// cleared between attempts (a new attempt re-sends tags the aborted one
/// already used, so a stale deposit must never satisfy a later
/// redelivery); stall/crash latches are *not* cleared, so a restarted run
/// resumes past the event that killed its predecessor.
///
/// # Errors
/// [`DistError::Unrecoverable`] when every attempt on every permitted
/// rung failed, carrying the final failure and the recovery history.
///
/// # Panics
/// Panics if `columns.len()` is odd or disagrees with the ordering.
pub fn distributed_svd_with(
    ordering: &dyn JacobiOrdering,
    columns: Vec<Vec<f64>>,
    accumulate_v: bool,
    cfg: &DistConfig,
) -> Result<DistributedOutcome, DistError> {
    let n = columns.len();
    assert_eq!(n, ordering.n(), "column count disagrees with the ordering");
    assert_eq!(n % 2, 0, "need an even column count");
    let procs = n / 2;

    // programs are precomputed (they are deterministic) and shared read-only
    let programs: Arc<Vec<Program>> = Arc::new(ordering.programs(cfg.max_sweeps));

    let policy = cfg.policy;
    let injector: Option<Arc<FaultInjector>> =
        cfg.fault.as_ref().map(|plan| Arc::new(FaultInjector::new(plan.clone())));

    let store = ColumnStore::from_columns(columns, accumulate_v);
    let initial: Vec<SlotData> = store.slots;

    // the rungs this run may use, fastest first; descent only when the
    // policy allows degradation
    let ladder: &[Rung] =
        if policy.degrade { &[Rung::ZeroCopy, Rung::Sequential] } else { &[Rung::ZeroCopy] };
    let checkpoints = (policy.checkpoint_every > 0).then(|| Arc::new(CheckpointStore::new(procs)));

    let mut restarts_used = 0u32;
    let mut fallbacks: Vec<&'static str> = Vec::new();
    let mut rungs_tried: Vec<&'static str> = Vec::new();
    let mut last_err: Option<DistError> = None;
    let mut completed: Option<AttemptOut> = None;

    'ladder: for (ri, &rung) in ladder.iter().enumerate() {
        rungs_tried.push(rung.label());
        for attempt in 0..=policy.max_restarts {
            if attempt > 0 {
                restarts_used += 1;
            }
            if let Some(inj) = &injector {
                inj.reset_store();
            }
            let (start_sweep, slots, bases) = resume_point(&checkpoints, &initial, procs);
            let result = if rung == Rung::Sequential {
                Ok(run_sequential(&programs, start_sweep, slots, &bases, cfg.exec))
            } else {
                run_attempt(
                    &programs,
                    start_sweep,
                    slots,
                    &bases,
                    accumulate_v,
                    cfg.exec,
                    &policy,
                    &injector,
                    &checkpoints,
                )
            };
            match result {
                Ok(out) => {
                    completed = Some(out);
                    break 'ladder;
                }
                Err(e) => last_err = Some(e),
            }
        }
        if ri + 1 < ladder.len() {
            fallbacks.push(rung.label());
        }
    }

    let out = match completed {
        Some(out) => out,
        None => {
            return Err(DistError::Unrecoverable {
                last: Box::new(last_err.expect("a failed attempt recorded its error")),
                restarts: restarts_used,
                rungs: rungs_tried,
            });
        }
    };

    let health = HealthReport {
        faults: injector.as_ref().map(|i| i.snapshot()).unwrap_or_default(),
        retries: out.retries,
        restarts: restarts_used,
        fallbacks,
    };

    // final layout: replay the programs that actually ran
    let mut layout: Vec<ColIndex> = (0..n).collect();
    for program in programs.iter().take(out.sweeps) {
        layout = program.final_layout();
    }

    Ok(DistributedOutcome {
        slots: out.slots,
        layout,
        sweeps: out.sweeps,
        converged: out.converged,
        total_rotations: out.total_rotations,
        warm_payload_allocs: out.warm,
        steady_payload_allocs: out.steady,
        health,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_program, ColumnStore, ExecConfig};
    use crate::machine::Machine;
    use std::time::Duration;
    use treesvd_comm::{StallEvent, StallKind};
    use treesvd_matrix::generate;
    use treesvd_net::TopologyKind;
    use treesvd_orderings::OrderingKind;

    fn reference_run(
        kind: OrderingKind,
        a: &treesvd_matrix::Matrix,
        accumulate_v: bool,
        max_sweeps: usize,
    ) -> (Vec<SlotData>, Vec<usize>, usize) {
        let n = a.cols();
        let ord = kind.build(n).unwrap();
        let mac = Machine::with_kind(TopologyKind::PerfectFatTree, (n / 2).next_power_of_two());
        let mut store = ColumnStore::from_columns(a.clone().into_columns(), accumulate_v);
        let mut layout = ord.initial_layout();
        let mut sweeps = 0;
        for k in 0..max_sweeps {
            let prog = ord.sweep_program(k, &layout);
            let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
            layout = prog.final_layout();
            sweeps = k + 1;
            if stats.is_converged() {
                break;
            }
        }
        (store.slots, store.layout, sweeps)
    }

    #[test]
    fn distributed_matches_synchronous_bitwise() {
        for kind in [OrderingKind::RoundRobin, OrderingKind::FatTree, OrderingKind::NewRing] {
            let n = 8;
            let a = generate::random_uniform(12, n, 3);
            let ord = kind.build(n).unwrap();
            let dist = distributed_svd(
                ord.as_ref(),
                a.clone().into_columns(),
                false,
                ExecConfig::default(),
                40,
            )
            .unwrap();
            let (ref_slots, ref_layout, ref_sweeps) = reference_run(kind, &a, false, 40);
            assert_eq!(dist.sweeps, ref_sweeps, "{kind}");
            assert_eq!(dist.layout, ref_layout, "{kind}");
            for (s, (d, r)) in dist.slots.iter().zip(ref_slots.iter()).enumerate() {
                assert_eq!(d.a, r.a, "{kind}: slot {s} differs");
            }
            assert!(!dist.health.degraded(), "{kind}: clean run reported recovery");
        }
    }

    #[test]
    fn distributed_with_v_accumulation() {
        let n = 8;
        let a = generate::random_uniform(10, n, 5);
        let ord = OrderingKind::FatTree.build(n).unwrap();
        let dist = distributed_svd(
            ord.as_ref(),
            a.clone().into_columns(),
            true,
            ExecConfig::default(),
            40,
        )
        .unwrap();
        let (ref_slots, _, _) = reference_run(OrderingKind::FatTree, &a, true, 40);
        for (d, r) in dist.slots.iter().zip(ref_slots.iter()) {
            assert_eq!(d.a, r.a);
            assert_eq!(d.v, r.v);
        }
        assert!(dist.converged);
    }

    #[test]
    fn zero_copy_steady_state_makes_no_payload_allocations() {
        let n = 16;
        let a = generate::random_uniform(24, n, 13);
        let ord = OrderingKind::NewRing.build(n).unwrap();
        let run = distributed_svd(ord.as_ref(), a.into_columns(), true, ExecConfig::default(), 64)
            .unwrap();
        assert!(run.converged);
        assert!(run.sweeps > 2, "need a steady state to measure");
        assert!(run.warm_payload_allocs > 0, "warm-up must populate the pools");
        assert_eq!(run.steady_payload_allocs, 0, "steady state allocated payload buffers");
    }

    #[test]
    fn distributed_converges_and_orthogonalizes() {
        let n = 16;
        let a = generate::random_uniform(20, n, 7);
        let ord = OrderingKind::Hybrid.build(n).unwrap();
        let dist =
            distributed_svd(ord.as_ref(), a.into_columns(), false, ExecConfig::default(), 40)
                .unwrap();
        assert!(dist.converged);
        assert!(dist.total_rotations > 0);
        // all pairs orthogonal
        for i in 0..n {
            for j in (i + 1)..n {
                let d = treesvd_matrix::ops::dot(&dist.slots[i].a, &dist.slots[j].a).abs();
                let ni = treesvd_matrix::ops::norm2(&dist.slots[i].a);
                let nj = treesvd_matrix::ops::norm2(&dist.slots[j].a);
                assert!(d <= 1e-10 * ni * nj, "columns in slots {i},{j} coupled");
            }
        }
    }

    // ---- recovery layer ----

    /// Fault-free oracle with the default config.
    fn oracle(kind: OrderingKind, a: &treesvd_matrix::Matrix, vectors: bool) -> DistributedOutcome {
        let ord = kind.build(a.cols()).unwrap();
        distributed_svd(ord.as_ref(), a.clone().into_columns(), vectors, ExecConfig::default(), 40)
            .unwrap()
    }

    fn assert_bitwise(run: &DistributedOutcome, base: &DistributedOutcome, what: &str) {
        assert_eq!(run.sweeps, base.sweeps, "{what}: sweeps");
        assert_eq!(run.total_rotations, base.total_rotations, "{what}: rotations");
        assert_eq!(run.layout, base.layout, "{what}: layout");
        for (s, (d, r)) in run.slots.iter().zip(base.slots.iter()).enumerate() {
            assert_eq!(d.a, r.a, "{what}: slot {s} data differs");
            assert_eq!(d.v, r.v, "{what}: slot {s} vectors differ");
        }
    }

    /// A quick-failing recovery policy for tests (small windows so
    /// unabsorbable faults surface in milliseconds, not seconds).
    fn test_policy() -> FaultPolicy {
        FaultPolicy {
            recv_timeout: Duration::from_millis(10),
            max_retries: 4,
            backoff: 2.0,
            checkpoint_every: 1,
            max_restarts: 2,
            degrade: true,
            check_finite: true,
        }
    }

    #[test]
    fn seeded_message_chaos_is_bitwise_identical_to_fault_free() {
        for kind in [OrderingKind::NewRing, OrderingKind::FatTree] {
            let n = 8;
            let a = generate::random_uniform(12, n, 23);
            let base = oracle(kind, &a, true);
            let plan = FaultPlan {
                seed: 7,
                drop: 0.1,
                delay: 0.1,
                max_delay: Duration::from_millis(2),
                duplicate: 0.1,
                corrupt: 0.05,
                stalls: vec![StallEvent {
                    rank: 1,
                    sweep: 1,
                    kind: StallKind::Sleep(Duration::from_millis(3)),
                }],
                ..FaultPlan::default()
            };
            let cfg =
                DistConfig { policy: test_policy(), fault: Some(plan), ..DistConfig::default() };
            let ord = kind.build(n).unwrap();
            let run =
                distributed_svd_with(ord.as_ref(), a.clone().into_columns(), true, &cfg).unwrap();
            assert!(run.converged, "{kind}");
            assert!(run.health.faults.injected() > 0, "{kind}: plan never fired");
            assert!(run.health.restarts == 0, "{kind}: message faults must not need a restart");
            assert_bitwise(&run, &base, &format!("{kind} under message chaos"));
        }
    }

    #[test]
    fn crash_restarts_from_the_last_checkpoint() {
        let n = 8;
        let a = generate::random_uniform(12, n, 29);
        let base = oracle(OrderingKind::NewRing, &a, true);
        let plan = FaultPlan::default().with_stall(StallEvent {
            rank: 1,
            sweep: 2,
            kind: StallKind::Crash,
        });
        let cfg = DistConfig { policy: test_policy(), fault: Some(plan), ..DistConfig::default() };
        let ord = OrderingKind::NewRing.build(n).unwrap();
        let run = distributed_svd_with(ord.as_ref(), a.clone().into_columns(), true, &cfg).unwrap();
        assert!(run.converged);
        assert!(run.health.restarts >= 1, "the crash must consume a restart");
        assert_eq!(run.health.faults.stalls, 1);
        assert!(run.health.fallbacks.is_empty(), "a checkpointed crash needs no ladder descent");
        assert_bitwise(&run, &base, "crash + checkpoint restart");
    }

    #[test]
    fn canonical_chaos_plan_recovers_bitwise() {
        // the exact profile the CLI's --chaos flag arms
        let n = 8;
        let a = generate::random_uniform(12, n, 31);
        let base = oracle(OrderingKind::Hybrid, &a, true);
        let ord = OrderingKind::Hybrid.build(n).unwrap();
        for seed in [2u64, 3, 5] {
            let mut policy = FaultPolicy::chaos();
            policy.recv_timeout = Duration::from_millis(10); // keep the test fast
            let cfg =
                DistConfig { policy, fault: Some(FaultPlan::chaos(seed)), ..DistConfig::default() };
            let run =
                distributed_svd_with(ord.as_ref(), a.clone().into_columns(), true, &cfg).unwrap();
            assert!(run.converged, "seed {seed}");
            assert!(run.health.faults.injected() > 0, "seed {seed}: plan never fired");
            assert_bitwise(&run, &base, &format!("chaos seed {seed}"));
        }
    }

    #[test]
    fn poisoned_link_descends_the_ladder_to_sequential() {
        let n = 8;
        let a = generate::random_uniform(12, n, 37);
        let base = oracle(OrderingKind::NewRing, &a, true);
        let plan = FaultPlan::default().with_poisoned_link(0, 1).with_poisoned_link(1, 0);
        let policy = FaultPolicy {
            recv_timeout: Duration::from_millis(5),
            max_retries: 1,
            max_restarts: 0,
            ..test_policy()
        };
        let cfg = DistConfig { policy, fault: Some(plan), ..DistConfig::default() };
        let ord = OrderingKind::NewRing.build(n).unwrap();
        let run = distributed_svd_with(ord.as_ref(), a.clone().into_columns(), true, &cfg).unwrap();
        assert!(run.converged);
        assert_eq!(run.health.fallbacks, vec!["zero-copy"], "the network rung must fail");
        assert_bitwise(&run, &base, "sequential fallback");
    }

    #[test]
    fn unabsorbable_fault_without_degradation_fails_fast_with_context() {
        let n = 8;
        let a = generate::random_uniform(12, n, 41);
        let plan = FaultPlan::default().with_poisoned_link(0, 1);
        let policy = FaultPolicy {
            recv_timeout: Duration::from_millis(5),
            max_retries: 1,
            max_restarts: 1,
            degrade: false,
            ..test_policy()
        };
        let cfg = DistConfig { policy, fault: Some(plan), ..DistConfig::default() };
        let ord = OrderingKind::NewRing.build(n).unwrap();
        let err = distributed_svd_with(ord.as_ref(), a.into_columns(), true, &cfg).unwrap_err();
        let DistError::Unrecoverable { last, restarts, rungs } = &err else {
            panic!("expected Unrecoverable, got {err}");
        };
        assert_eq!(*restarts, 1, "the restart budget must be spent before giving up");
        assert_eq!(rungs.len(), 1, "degrade=false must stay on one rung");
        assert!(matches!(**last, DistError::Recv { .. }), "a dead link surfaces as a recv failure");
        let msg = err.to_string();
        assert!(msg.contains("rank") && msg.contains("sweep"), "diagnostic lacks context: {msg}");
    }

    #[test]
    fn armed_inert_plan_is_bitwise_invisible_and_allocation_free() {
        let n = 16;
        let a = generate::random_uniform(24, n, 43);
        let base = oracle(OrderingKind::NewRing, &a, true);
        let cfg = DistConfig {
            policy: test_policy(),
            fault: Some(FaultPlan::default()),
            ..DistConfig::default()
        };
        let ord = OrderingKind::NewRing.build(n).unwrap();
        let run = distributed_svd_with(ord.as_ref(), a.clone().into_columns(), true, &cfg).unwrap();
        assert!(run.converged);
        assert_eq!(run.health.faults.injected(), 0);
        assert!(!run.health.degraded(), "inert plan must not trigger recovery");
        assert_eq!(
            run.steady_payload_allocs, 0,
            "armed recovery must keep the zero-alloc steady state (fault-layer copies are \
             charged to chaos_allocations, not the pools)"
        );
        assert_bitwise(&run, &base, "armed-inert plan");
    }
}
