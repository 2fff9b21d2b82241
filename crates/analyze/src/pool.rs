//! Pool-lease lifetime analysis: every `MsgBuf` the recovery layer leases
//! must come back.
//!
//! The fault-tolerance layer (`treesvd-comm`) deposits a retransmission
//! copy of every data-plane message into a shared store before the send
//! ([`CommOp::Deposit`]) and removes it after the matching receive
//! completes ([`CommOp::Ack`]). Each deposit *leases* a pooled buffer
//! copy; the ack *returns* it. A deposit that is never acknowledged is a
//! leaked buffer that the `BufferPool` can never recycle — under the
//! steady-state-zero-allocation discipline of the zero-copy transport
//! that is a correctness bug, not a slow leak. A second ack for the same
//! lease would hand the pool a buffer it no longer owns.
//!
//! [`verify_pool_discipline`] proves, per plan, that every lease is
//! returned exactly once within its *store epoch*. Epochs are delimited
//! by [`CommOp::ClearStore`] — the supervisor wiping the whole store
//! between whole-world attempts (checkpoint restart, degradation-ladder
//! descent; `distributed_svd_with` calls `reset_store` at exactly that
//! point). Deposits stranded by an aborted attempt are forgiven *only*
//! across that boundary: [`restart_splice`] models an attempt cut short
//! mid-sweep and proves the restart discipline leak-free, and the same
//! splice **without** the clear is the negative exhibit showing why the
//! supervisor must reset the store.
//!
//! [`verify_pool_safety`] is the per-program bundle: the executor's
//! recovery plan, plus a mid-sweep restart replay of it.

use crate::deadlock::{CommOp, CommPlan};
use crate::report::{OpRef, Violation};
use std::collections::HashMap;
use treesvd_orderings::Program;

/// A successful pool-lease proof: the witness numbers backing the claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolProof {
    /// Buffer leases (deposits) proven returned exactly once.
    pub leases: usize,
    /// Store epochs analyzed (1 + the number of `ClearStore` boundaries).
    pub epochs: usize,
}

/// One proven lease: where the buffer was deposited and where it was
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Store key: the original sender.
    pub src: usize,
    /// Store key: the receiver.
    pub dst: usize,
    /// Store key: the message tag.
    pub tag: u64,
    /// The deposit (on the sender).
    pub deposit: OpRef,
    /// The return (on the receiver).
    pub ack: OpRef,
}

/// Prove that every [`CommOp::Deposit`] in `plan` is matched by exactly
/// one [`CommOp::Ack`] within its store epoch, and return the proven
/// leases in deposit order (sorted by step, then sender rank).
///
/// The store key is `(src, dst, tag)` — exactly how `treesvd-comm` keys
/// its retransmission store. Epoch boundaries are [`CommOp::ClearStore`]
/// ops; the analysis assumes the supervisor clears the store on *all*
/// ranks at once (which is how the executor behaves — the store is a
/// single shared object), so the k-th `ClearStore` on each rank delimits
/// the same global epoch.
///
/// # Errors
/// * [`Violation::BufferLeak`] — a deposit still unacknowledged when the
///   plan ends, naming the earliest dangling deposit. Deposits stranded
///   at a [`CommOp::ClearStore`] boundary are *not* leaks: the
///   supervisor's wipe reclaims them wholesale.
/// * [`Violation::DoubleReturn`] — a second ack for the same lease in one
///   epoch, naming both returns.
/// * [`Violation::ReturnWithoutLease`] — an ack whose key was never
///   deposited in the epoch.
/// * [`Violation::AmbiguousTag`] — two live deposits with the same key
///   (the store could not tell the copies apart).
pub fn verify_pool_discipline(plan: &CommPlan) -> Result<Vec<Lease>, Violation> {
    // split each rank's ops into per-epoch segments at ClearStore ops
    let mut segments: Vec<Vec<Vec<(usize, OpRef, CommOp)>>> = vec![Vec::new(); plan.ranks];
    let mut epochs = 1usize;
    for (rank, rank_ops) in plan.ops.iter().enumerate() {
        let mut current: Vec<(usize, OpRef, CommOp)> = Vec::new();
        for (pos, &(step, op)) in rank_ops.iter().enumerate() {
            if matches!(op, CommOp::ClearStore) {
                segments[rank].push(std::mem::take(&mut current));
                continue;
            }
            current.push((step, plan.op_ref(rank, pos), op));
        }
        segments[rank].push(current);
        epochs = epochs.max(segments[rank].len());
    }

    let mut leases: Vec<Lease> = Vec::new();
    for epoch in 0..epochs {
        // live[key] = (deposit, ack-so-far) for this epoch. Deposits are
        // collected across all ranks first: a deposit always causally
        // precedes its ack (the ack sits behind the receive that matches
        // the send the deposit guards — program order the deadlock proof
        // certifies), but the two live on *different* ranks, so a linear
        // rank-major scan would see acks before their deposits.
        let mut live: HashMap<(usize, usize, u64), (OpRef, Option<OpRef>)> = HashMap::new();
        for (rank, rank_segments) in segments.iter().enumerate() {
            let Some(segment) = rank_segments.get(epoch) else { continue };
            for &(_, op_ref, op) in segment {
                if let CommOp::Deposit { to, tag } = op {
                    if live.insert((rank, to, tag), (op_ref, None)).is_some() {
                        return Err(Violation::AmbiguousTag { op: op_ref });
                    }
                }
            }
        }
        for (rank, rank_segments) in segments.iter().enumerate() {
            let Some(segment) = rank_segments.get(epoch) else { continue };
            for &(_, op_ref, op) in segment {
                if let CommOp::Ack { to, tag } = op {
                    // the receiver releases (sender → self, tag)
                    match live.get_mut(&(to, rank, tag)) {
                        None => return Err(Violation::ReturnWithoutLease { op: op_ref }),
                        Some((_, ack @ None)) => *ack = Some(op_ref),
                        Some((_, Some(first))) => {
                            return Err(Violation::DoubleReturn { op: op_ref, first: *first });
                        }
                    }
                }
            }
        }
        // End of epoch: anything still unreturned leaks — unless this
        // epoch ends at a ClearStore, where the supervisor wipes the
        // whole store and the stranded copies are reclaimed wholesale
        // (an aborted attempt legitimately leaves in-flight deposits
        // behind; that is the *point* of the clear).
        if epoch + 1 == epochs {
            let mut dangling: Vec<OpRef> = live
                .values()
                .filter_map(|(deposit, ack)| ack.is_none().then_some(*deposit))
                .collect();
            dangling.sort_by_key(|op| (op.step, op.rank));
            if let Some(&op) = dangling.first() {
                return Err(Violation::BufferLeak { op });
            }
        }
        leases.extend(live.into_iter().filter_map(|((src, dst, tag), (deposit, ack))| {
            Some(Lease { src, dst, tag, deposit, ack: ack? })
        }));
    }
    leases.sort_by_key(|l| (l.deposit.step, l.src, l.dst, l.tag));
    Ok(leases)
}

/// Model an attempt aborted at the start of step `cut_step` followed by a
/// whole-world restart: the plan's ops before `cut_step`, a
/// [`CommOp::ClearStore`] on every rank (the supervisor's `reset_store`),
/// then the full plan again. The aborted prefix strands every deposit
/// whose receive had not yet acknowledged it — the clear is what keeps
/// that from being a leak, and [`verify_pool_discipline`] on this splice
/// proves it. Splicing **without** the clear (`clear = false`) is the
/// negative exhibit: the analysis reports the stranded deposit
/// step-precisely.
pub fn restart_splice(plan: &CommPlan, cut_step: usize, clear: bool) -> CommPlan {
    let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); plan.ranks];
    for (rank, rank_ops) in plan.ops.iter().enumerate() {
        ops[rank].extend(rank_ops.iter().copied().filter(|&(step, _)| step < cut_step));
        if clear {
            ops[rank].push((cut_step, CommOp::ClearStore));
        }
        ops[rank].extend(rank_ops.iter().copied());
    }
    CommPlan { ranks: plan.ranks, ops }
}

/// Prove the pool-lease discipline for one sweep program across every
/// recovery path the distributed executor can take: the recovery plan of
/// the zero-copy rung (the sequential rung exchanges nothing), and a
/// mid-sweep restart replay of it (checkpoint restart / ladder descent
/// with the store cleared in between).
///
/// # Errors
/// As [`verify_pool_discipline`], from the first failing plan.
pub fn verify_pool_safety(prog: &Program, vectors: bool) -> Result<PoolProof, Violation> {
    let mut proof = PoolProof { leases: 0, epochs: 0 };
    let plan = CommPlan::from_program(prog, vectors).with_recovery();
    let cut = prog.steps.len() / 2;
    for plan in [&plan, &restart_splice(&plan, cut, true)] {
        proof.leases += verify_pool_discipline(plan)?.len();
        proof.epochs += 1 + plan
            .ops
            .first()
            .map_or(0, |ops| ops.iter().filter(|(_, op)| matches!(op, CommOp::ClearStore)).count());
    }
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_orderings::{FatTreeOrdering, JacobiOrdering, NewRingOrdering, RoundRobinOrdering};

    fn sweep(ord: &dyn JacobiOrdering) -> Program {
        ord.sweep_program(0, &ord.initial_layout())
    }

    #[test]
    fn shipped_recovery_plans_are_leak_free() {
        let orderings: Vec<Box<dyn JacobiOrdering>> = vec![
            Box::new(FatTreeOrdering::new(16).unwrap()),
            Box::new(NewRingOrdering::new(10).unwrap()),
            Box::new(RoundRobinOrdering::new(12).unwrap()),
        ];
        for ord in &orderings {
            for vectors in [false, true] {
                for prog in ord.programs(ord.restore_period().max(1)) {
                    let proof = verify_pool_safety(&prog, vectors).unwrap_or_else(|v| {
                        panic!("{} (vectors={vectors}): {v}", ord.name());
                    });
                    assert!(proof.leases > 0, "{}: a sweep must lease buffers", ord.name());
                }
            }
        }
    }

    #[test]
    fn lease_count_matches_message_count() {
        let prog = sweep(&FatTreeOrdering::new(16).unwrap());
        for vectors in [false, true] {
            let plan = CommPlan::from_program(&prog, vectors).with_recovery();
            let leases = verify_pool_discipline(&plan).unwrap();
            assert_eq!(leases.len(), (1 + usize::from(vectors)) * prog.total_messages());
            for lease in &leases {
                assert!(lease.deposit.is_send, "deposits live on the sender");
                assert!(!lease.ack.is_send, "acks live on the receiver");
                assert_eq!(lease.deposit.rank, lease.src);
                assert_eq!(lease.ack.rank, lease.dst);
            }
        }
    }

    #[test]
    fn seeded_leak_is_rejected_step_precisely() {
        // drop one ack: the matching deposit's buffer is never returned
        let prog = sweep(&FatTreeOrdering::new(8).unwrap());
        let mut plan = CommPlan::from_program(&prog, true).with_recovery();
        let pos = plan.ops[1]
            .iter()
            .position(|(_, op)| matches!(op, CommOp::Ack { .. }))
            .expect("rank 1 acknowledges something");
        let (step, CommOp::Ack { to, tag }) = plan.ops[1][pos] else { unreachable!() };
        plan.ops[1].remove(pos);
        match verify_pool_discipline(&plan) {
            Err(Violation::BufferLeak { op }) => {
                assert_eq!(op.rank, to, "the leak names the depositing sender");
                assert_eq!(op.tag, tag);
                assert!(op.step <= step, "the leak names the deposit step");
            }
            other => panic!("expected BufferLeak, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_delivery_ack_is_a_double_return() {
        let prog = sweep(&RoundRobinOrdering::new(8).unwrap());
        let mut plan = CommPlan::from_program(&prog, true).with_recovery();
        let dup = plan.ops[0]
            .iter()
            .find(|(_, op)| matches!(op, CommOp::Ack { .. }))
            .copied()
            .expect("rank 0 acknowledges something");
        plan.ops[0].push(dup);
        match verify_pool_discipline(&plan) {
            Err(Violation::DoubleReturn { op, first }) => {
                assert_eq!(op.rank, 0);
                assert_eq!(first.rank, 0);
                assert_eq!(op.tag, first.tag);
            }
            other => panic!("expected DoubleReturn, got {other:?}"),
        }
    }

    #[test]
    fn ack_without_deposit_is_rejected() {
        let prog = sweep(&RoundRobinOrdering::new(8).unwrap());
        let mut plan = CommPlan::from_program(&prog, false);
        // a bare plan has no deposits at all; a stray ack has no lease
        plan.ops[0].push((0, CommOp::Ack { to: 1, tag: 0 }));
        assert!(matches!(verify_pool_discipline(&plan), Err(Violation::ReturnWithoutLease { .. })));
    }

    #[test]
    fn restart_with_store_clear_is_leak_free_but_without_is_not() {
        let prog = sweep(&NewRingOrdering::new(8).unwrap());
        let plan = CommPlan::from_program(&prog, false).with_recovery();
        let cut = prog.steps.len() / 2;
        // the supervisor's discipline: clear between attempts
        let leases = verify_pool_discipline(&restart_splice(&plan, cut, true)).unwrap();
        assert!(leases.len() > prog.total_messages(), "both epochs contribute leases");
        // the negative exhibit: an aborted attempt without the clear
        // strands its in-flight deposits — and a replayed deposit with the
        // same key collides with the stranded one
        let bad = restart_splice(&plan, cut, false);
        match verify_pool_discipline(&bad) {
            Err(
                Violation::BufferLeak { op }
                | Violation::AmbiguousTag { op }
                | Violation::DoubleReturn { op, .. },
            ) => {
                assert!(op.step <= prog.steps.len());
            }
            other => panic!("expected a pool violation, got {other:?}"),
        }
    }
}
