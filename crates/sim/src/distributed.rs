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
//! message. The sender moves its allocation, line padding included
//! ([`AlignedBuf::into_padded`]), into a detached
//! [`MsgBuf`](treesvd_comm::MsgBuf) and the receiver adopts it
//! ([`AlignedBuf::from_padded`]), so the column arrives on the line it left
//! on. Exactly `n` data (and `n` vector) buffers exist for the whole run,
//! wandering between ranks along the movement permutations, and the
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
//! The network is lossless, so the executor makes one attempt: a schedule
//! whose sends and receives come from the same movement permutation
//! cannot leave a receive unmatched. Each receive still waits at most one
//! bounded window (5 s); a receive that times out means an executor bug,
//! and surfaces as a [`DistError`] naming the rank, sweep and step rather
//! than a hang.

use crate::exec::{rotate_pair, ColumnStore, ExecConfig, SlotData};
use crate::plan::SweepPlan;
use std::fmt;
use std::sync::Arc;
use treesvd_analyze::{tag_a, tag_v};
use treesvd_comm::{allreduce_sum_in_place, Communicator, MsgBuf, RecvError, ThreadWorld};
use treesvd_matrix::aligned::AlignedBuf;
use treesvd_orderings::ColIndex;

/// Why a distributed run failed: a rank's bounded receive timed out (or its
/// world was torn down) — on a lossless network, an executor bug.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    /// The rank whose receive failed.
    pub rank: usize,
    /// The sweep it was executing.
    pub sweep: usize,
    /// The global step counter at the failure.
    pub step: u64,
    /// The underlying communicator error (source, tag, wait time).
    pub err: RecvError,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Self { rank, sweep, step, err } = self;
        write!(f, "rank {rank} failed in sweep {sweep} at global step {step}: {err}")
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.err)
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
    /// all ranks. Zero for a zero-copy run (the smoke-benchmark gate).
    pub steady_payload_allocs: u64,
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
}

/// Context-preserving wrapper for receive failures inside a worker.
fn recv_fail(rank: usize, sweep: usize, step: u64) -> impl Fn(RecvError) -> DistError {
    move |err| DistError { rank, sweep, step, err }
}

/// Per-rank worker: executes its two slots across all sweeps. The full
/// pair rotation runs, then departing columns leave as two detached
/// messages (A phase: the data column; V phase: the vector column) whose
/// storage the receiver adopts, and the step blocks on its arrivals.
fn worker(
    comm: &mut Communicator,
    plan: &SweepPlan,
    max_sweeps: usize,
    mut left: SlotData,
    mut right: SlotData,
    config: ExecConfig,
    vectors: bool,
) -> Result<WorkerOut, DistError> {
    let rank = comm.rank();
    let my_slots = [2 * rank, 2 * rank + 1];
    let mut total_rotations = 0usize;
    let mut sweeps = 0usize;
    let mut converged = false;
    let mut global_step = 0usize;
    let mut warm_allocs = 0u64;

    for sweep_no in 0..max_sweeps {
        let mut rotations = 0usize;
        let mut swaps = 0usize;
        for (step, layout) in plan.program(sweep_no).steps.iter().zip(plan.layouts(sweep_no)) {
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
                    let a = std::mem::take(&mut slot.a).into_padded();
                    comm.send_buf(d / 2, tag_a(global_step, d), MsgBuf::detached(a));
                    if vectors {
                        let v = std::mem::take(&mut slot.v).into_padded();
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
                    slot.a = AlignedBuf::from_padded(
                        comm.recv(src_slot / 2, tag_a(global_step, dest_slot))
                            .map_err(recv_fail(rank, sweep_no, global_step as u64))?,
                    );
                    if vectors {
                        slot.v = AlignedBuf::from_padded(
                            comm.recv(src_slot / 2, tag_v(global_step, dest_slot))
                                .map_err(recv_fail(rank, sweep_no, global_step as u64))?,
                        );
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
        if sweep_no == 0 {
            warm_allocs = comm.payload_allocations();
        }
        if sums[0] == 0.0 && sums[1] == 0.0 {
            converged = true;
            break;
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

/// Run the plan's sweeps to convergence with one thread per processor.
///
/// `columns[j]` is column `j`; `accumulate_v` attaches identity `V`
/// columns. Sweep `k` runs the plan's program `k mod period`, which every
/// rank reads from the one shared plan. Every rank runs the zero-copy
/// worker in its own thread; the threads are all joined (a failed rank
/// makes its peers time out, so every thread terminates) and the lowest
/// failed rank's error is returned. Returns the final slots, layout, and
/// counters.
///
/// # Errors
/// Returns a [`DistError`] when a receive times out — an executor bug.
///
/// # Panics
/// Panics if `columns.len()` is odd or disagrees with the plan.
pub fn distributed_svd(
    plan: Arc<SweepPlan>,
    columns: Vec<Vec<f64>>,
    accumulate_v: bool,
    config: ExecConfig,
    max_sweeps: usize,
) -> Result<DistributedOutcome, DistError> {
    let n = columns.len();
    assert_eq!(n, plan.n(), "column count disagrees with the plan");
    assert_eq!(n % 2, 0, "need an even column count");
    let procs = n / 2;

    let mut slots = ColumnStore::from_columns(columns, accumulate_v).slots;

    let mut handles = Vec::with_capacity(procs);
    for (rank, mut comm) in ThreadWorld::new(procs).into_communicators().into_iter().enumerate() {
        let left = std::mem::take(&mut slots[2 * rank]);
        let right = std::mem::take(&mut slots[2 * rank + 1]);
        let plan = Arc::clone(&plan);
        handles.push(crate::par::spawn_worker(format!("treesvd-rank-{rank}"), move || {
            worker(&mut comm, &plan, max_sweeps, left, right, config, accumulate_v)
        }));
    }

    let mut sweeps = 0usize;
    let mut converged = false;
    let mut total_rotations = 0usize;
    let mut warm = 0u64;
    let mut steady = 0u64;
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
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    // the plan chains, so the sweeps end where the next program starts
    let layout = plan.program(sweeps).initial_layout.clone();

    Ok(DistributedOutcome {
        slots,
        layout,
        sweeps,
        converged,
        total_rotations,
        warm_payload_allocs: warm,
        steady_payload_allocs: steady,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{slot_bits, slots_on_lines, tied_columns};
    use crate::exec::{execute_program, ColumnStore, ExecConfig};
    use crate::machine::Machine;
    use treesvd_matrix::generate;
    use treesvd_net::TopologyKind;
    use treesvd_orderings::OrderingKind;

    fn plan(kind: OrderingKind, n: usize) -> Arc<SweepPlan> {
        Arc::new(SweepPlan::new(kind.build(n).unwrap().as_ref(), n).unwrap())
    }

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
        // each rank solves its pair alone with compute_rotation; the
        // synchronous executor solves a step's pairs in lane groups. 9, 17
        // and 32 pairs give short and whole groups; the tied input has
        // equal-norm columns and two zero columns, like padding. The
        // reference generates every sweep's program; the distributed run
        // reuses one restore period of them, so every case runs past one
        // period, and the LLB ordering's programs alternate direction.
        let cases = [
            (OrderingKind::RoundRobin, 8, false, false),
            (OrderingKind::FatTree, 8, false, false),
            (OrderingKind::NewRing, 8, false, false),
            (OrderingKind::RoundRobin, 18, true, true),
            (OrderingKind::NewRing, 34, false, true),
            (OrderingKind::FatTree, 64, true, true),
            (OrderingKind::Llb, 16, false, true),
            (OrderingKind::ModifiedRing, 16, true, false),
        ];
        for (kind, n, tied, accumulate_v) in cases {
            let a = if tied {
                treesvd_matrix::Matrix::from_columns(&tied_columns(n + 4, n, 3)).unwrap()
            } else {
                generate::random_uniform(n + 4, n, 3)
            };
            let plan = plan(kind, n);
            let dist = distributed_svd(
                Arc::clone(&plan),
                a.clone().into_columns(),
                accumulate_v,
                ExecConfig::default(),
                40,
            )
            .unwrap();
            let (ref_slots, ref_layout, ref_sweeps) = reference_run(kind, &a, accumulate_v, 40);
            let case = format!("{kind} n {n} tied {tied} v {accumulate_v}");
            assert!(ref_sweeps > plan.period(), "{case}: {ref_sweeps} sweeps");
            assert_eq!(dist.sweeps, ref_sweeps, "{case}");
            assert_eq!(dist.layout, ref_layout, "{case}");
            assert!(slot_bits(&dist.slots) == slot_bits(&ref_slots), "{case}: slots differ");
        }
    }

    #[test]
    fn distributed_with_v_accumulation() {
        let n = 8;
        let a = generate::random_uniform(10, n, 5);
        let dist = distributed_svd(
            plan(OrderingKind::FatTree, n),
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
        let plan = plan(OrderingKind::NewRing, n);
        let run = distributed_svd(plan, a.into_columns(), true, ExecConfig::default(), 64).unwrap();
        assert!(run.converged);
        assert!(run.sweeps > 2, "need a steady state to measure");
        assert!(run.warm_payload_allocs > 0, "warm-up must populate the pools");
        assert_eq!(run.steady_payload_allocs, 0, "steady state allocated payload buffers");
    }

    #[test]
    fn columns_arrive_on_the_lines_they_left_on() {
        // a column travels as its allocation, padding included, so after
        // the run every rank's A and V columns still start on a line
        let n = 16;
        let a = generate::random_uniform(12, n, 31);
        for vectors in [true, false] {
            let plan = plan(OrderingKind::FatTree, n);
            let run =
                distributed_svd(plan, a.clone().into_columns(), vectors, ExecConfig::default(), 64)
                    .unwrap();
            assert!(run.converged && run.sweeps > 1, "need sweeps that move columns");
            assert!(slots_on_lines(&run.slots, vectors), "vectors {vectors}");
        }
    }

    #[test]
    fn distributed_converges_and_orthogonalizes() {
        let n = 16;
        let a = generate::random_uniform(20, n, 7);
        let plan = plan(OrderingKind::Hybrid, n);
        let dist =
            distributed_svd(plan, a.into_columns(), false, ExecConfig::default(), 40).unwrap();
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
}
