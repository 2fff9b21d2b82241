//! Deadlock freedom: the send/recv dependency graph implied by a schedule.
//!
//! The distributed executor (`treesvd-sim::distributed`) turns each step's
//! `move_after` into explicit tag-matched messages over the
//! `treesvd-comm` world: every rank first sends its departing columns
//! (each as a data message, then a vector message when `V` is
//! accumulated), then blocks receiving its arrivals in the same order,
//! with the tags of [`tag_a`] and [`tag_v`]. [`CommPlan::from_program`]
//! extracts exactly that operation sequence, and
//! [`verify_deadlock_freedom`] checks that the induced wait-for graph is
//! acyclic and complete:
//!
//! * every receive has exactly one matching send (an unmatched receive
//!   blocks forever — the static twin of `RecvError::Timeout`);
//! * every send is consumed (an orphan send is a column lost in flight);
//! * no cyclic wait chain exists under the chosen [`CommModel`].
//!
//! Under [`CommModel::Buffered`] (the executor's real semantics — sends
//! are asynchronous, like a buffered CMMD `send_noblock`) a well-formed
//! slot schedule is always acyclic. Under [`CommModel::Rendezvous`]
//! (synchronous sends) the Jacobi exchange idiom itself deadlocks — both
//! partners sit in `send` waiting for the other's `recv` — which the
//! verifier demonstrates by exhibiting the cycle; this is the formal
//! reason the communicator buffers.

use crate::report::{OpRef, Violation};
use std::collections::HashMap;
use treesvd_orderings::Program;

/// Communication semantics for the wait-for analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommModel {
    /// Sends complete immediately (asynchronous/buffered). The executor's
    /// actual semantics.
    Buffered,
    /// Sends block until the matching receive is reached (synchronous).
    Rendezvous,
}

/// One communication operation of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// Send a column to `to` with `tag`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag ([`tag_a`] or [`tag_v`]).
        tag: u64,
    },
    /// Blocking receive from `from` with `tag`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
}

/// Tag of the A-phase message (the data column) for an arrival into
/// `dest_slot` at global step `step`. The low bit is the phase (A = 0,
/// V = 1), the next the destination-slot parity.
pub fn tag_a(step: usize, dest_slot: usize) -> u64 {
    (step as u64) << 2 | ((dest_slot % 2) as u64) << 1
}

/// Tag of the V-phase message (the accumulated right singular vector
/// column); see [`tag_a`].
pub fn tag_v(step: usize, dest_slot: usize) -> u64 {
    tag_a(step, dest_slot) | 1
}

/// The per-rank, program-ordered communication operations implied by a
/// sweep program, annotated with the step each belongs to.
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// Number of ranks (`n/2`).
    pub ranks: usize,
    /// `ops[rank]` = that rank's operations in program order, as
    /// `(step, op)`.
    pub ops: Vec<Vec<(usize, CommOp)>>,
}

impl CommPlan {
    /// Extract the communication plan of one sweep, mirroring the
    /// distributed executor message for message: per step, each rank
    /// sends its departing columns (slot order; the A-phase data column,
    /// then the V-phase vector column when `vectors`), then receives its
    /// arrivals in the same order.
    pub fn from_program(prog: &Program, vectors: bool) -> Self {
        let ranks = prog.processors();
        let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); ranks];
        for (step, pair_step) in prog.steps.iter().enumerate() {
            let perm = &pair_step.move_after;
            let inv = perm.inverse();
            for (rank, rank_ops) in ops.iter_mut().enumerate() {
                for s in [2 * rank, 2 * rank + 1] {
                    let d = perm.dest_of(s);
                    if d / 2 != rank {
                        let to = d / 2;
                        rank_ops.push((step, CommOp::Send { to, tag: tag_a(step, d) }));
                        if vectors {
                            rank_ops.push((step, CommOp::Send { to, tag: tag_v(step, d) }));
                        }
                    }
                }
                for dest_slot in [2 * rank, 2 * rank + 1] {
                    let src_slot = inv.dest_of(dest_slot);
                    if src_slot / 2 != rank {
                        let from = src_slot / 2;
                        rank_ops.push((step, CommOp::Recv { from, tag: tag_a(step, dest_slot) }));
                        if vectors {
                            let tag = tag_v(step, dest_slot);
                            rank_ops.push((step, CommOp::Recv { from, tag }));
                        }
                    }
                }
            }
        }
        Self { ranks, ops }
    }

    /// Total operation count across all ranks.
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    pub(crate) fn op_ref(&self, rank: usize, pos: usize) -> OpRef {
        let (step, op) = self.ops[rank][pos];
        match op {
            CommOp::Send { to, tag } => OpRef { rank, step, is_send: true, peer: to, tag },
            CommOp::Recv { from, tag } => OpRef { rank, step, is_send: false, peer: from, tag },
        }
    }
}

/// The wait-for graph of a plan under one [`CommModel`]: global node ids
/// (rank-major program order) and the dependency edges between them, as
/// [`verify_plan`] topologically sorts them.
struct WaitGraph {
    /// `base[r]` = global id of rank `r`'s first op; `base[ranks]` = node count.
    base: Vec<usize>,
    /// `edges[dep]` = nodes that must wait for `dep` to complete.
    edges: Vec<Vec<usize>>,
    /// In-degree per node (for Kahn's algorithm).
    indegree: Vec<usize>,
}

impl WaitGraph {
    fn node_count(&self) -> usize {
        *self.base.last().expect("base has ranks+1 entries")
    }

    /// The (rank, pos) coordinates of a global node id.
    fn locate(&self, node: usize) -> (usize, usize) {
        let ranks = self.base.len() - 1;
        let rank = (0..ranks).rfind(|&r| self.base[r] <= node).expect("node in range");
        (rank, node - self.base[rank])
    }
}

/// Build the wait-for graph of `plan` under `model`, checking plan
/// completeness on the way (every receive matched, every send consumed,
/// tags unambiguous).
fn build_wait_graph(plan: &CommPlan, model: CommModel) -> Result<WaitGraph, Violation> {
    // global node ids: (rank, position) -> id
    let mut base = vec![0usize; plan.ranks + 1];
    for r in 0..plan.ranks {
        base[r + 1] = base[r] + plan.ops[r].len();
    }
    let node_count = base[plan.ranks];
    let id = |rank: usize, pos: usize| base[rank] + pos;

    // match sends to recvs on (sender, receiver, tag)
    let mut sends: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let mut consumed: Vec<bool> = vec![false; node_count];
    for rank in 0..plan.ranks {
        for (pos, &(_, op)) in plan.ops[rank].iter().enumerate() {
            if let CommOp::Send { to, tag } = op {
                if sends.insert((rank, to, tag), id(rank, pos)).is_some() {
                    return Err(Violation::AmbiguousTag { op: plan.op_ref(rank, pos) });
                }
            }
        }
    }

    // dependency edges: dep -> node ("dep must complete before node can")
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); node_count];
    let mut indegree: Vec<usize> = vec![0; node_count];
    let add_edge =
        |edges: &mut Vec<Vec<usize>>, indegree: &mut Vec<usize>, dep: usize, node: usize| {
            edges[dep].push(node);
            indegree[node] += 1;
        };
    for rank in 0..plan.ranks {
        for (pos, &(_, op)) in plan.ops[rank].iter().enumerate() {
            let node = id(rank, pos);
            if pos > 0 {
                add_edge(&mut edges, &mut indegree, id(rank, pos - 1), node);
            }
            if let CommOp::Recv { from, tag } = op {
                let Some(&send) = sends.get(&(from, rank, tag)) else {
                    return Err(Violation::UnmatchedRecv { op: plan.op_ref(rank, pos) });
                };
                consumed[send] = true;
                // the message must be sent before it is received
                add_edge(&mut edges, &mut indegree, send, node);
                if model == CommModel::Rendezvous && pos > 0 {
                    // a synchronous send cannot complete until the peer has
                    // *reached* the receive: everything before the recv in
                    // the peer's program order must complete first
                    add_edge(&mut edges, &mut indegree, id(rank, pos - 1), send);
                }
            }
        }
    }
    for rank in 0..plan.ranks {
        for (pos, &(_, op)) in plan.ops[rank].iter().enumerate() {
            if matches!(op, CommOp::Send { .. }) && !consumed[id(rank, pos)] {
                return Err(Violation::UnconsumedSend { op: plan.op_ref(rank, pos) });
            }
        }
    }
    Ok(WaitGraph { base, edges, indegree })
}

/// Verify that `plan` is deadlock-free under `model`.
///
/// # Errors
/// [`Violation::UnmatchedRecv`], [`Violation::UnconsumedSend`],
/// [`Violation::AmbiguousTag`], or [`Violation::WaitCycle`] with the full
/// wait chain.
pub fn verify_plan(plan: &CommPlan, model: CommModel) -> Result<(), Violation> {
    let mut graph = build_wait_graph(plan, model)?;
    let node_count = graph.node_count();
    let mut indegree = std::mem::take(&mut graph.indegree);

    // Kahn's algorithm; whatever survives with nonzero indegree is cyclic
    let mut queue: Vec<usize> = (0..node_count).filter(|&v| indegree[v] == 0).collect();
    let mut sorted = 0usize;
    while let Some(v) = queue.pop() {
        sorted += 1;
        for &w in &graph.edges[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                queue.push(w);
            }
        }
    }
    if sorted == node_count {
        return Ok(());
    }

    // extract one concrete cycle among the remaining nodes for the report
    let to_ref = |node: usize| {
        let (rank, pos) = graph.locate(node);
        plan.op_ref(rank, pos)
    };
    let in_cycle: Vec<usize> = (0..node_count).filter(|&v| indegree[v] > 0).collect();
    let cycle = find_cycle(&graph.edges, &indegree, in_cycle[0]);
    Err(Violation::WaitCycle { cycle: cycle.into_iter().map(to_ref).collect() })
}

/// Extract one cycle among the blocked nodes (indegree > 0 after Kahn).
///
/// Every blocked node has at least one blocked *predecessor* — the
/// dependency that never completed — so walking backwards along residual
/// edges must eventually revisit a node; that loop, reversed into wait
/// order, is the cycle.
fn find_cycle(edges: &[Vec<usize>], indegree: &[usize], start: usize) -> Vec<usize> {
    let mut pred: Vec<Option<usize>> = vec![None; edges.len()];
    for (v, outs) in edges.iter().enumerate() {
        if indegree[v] > 0 {
            for &w in outs {
                if indegree[w] > 0 && pred[w].is_none() {
                    pred[w] = Some(v);
                }
            }
        }
    }
    let mut path: Vec<usize> = Vec::new();
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut v = start;
    loop {
        if let Some(&at) = seen.get(&v) {
            let mut cycle = path[at..].to_vec();
            cycle.reverse();
            return cycle;
        }
        seen.insert(v, path.len());
        path.push(v);
        v = pred[v].expect("blocked node must have a blocked dependency");
    }
}

/// Verify deadlock freedom of one sweep program's plan
/// ([`CommPlan::from_program`]) under buffered semantics — the semantics
/// of the real executor.
///
/// # Errors
/// As [`verify_plan`].
pub fn verify_deadlock_freedom(prog: &Program, vectors: bool) -> Result<(), Violation> {
    verify_plan(&CommPlan::from_program(prog, vectors), CommModel::Buffered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_orderings::{FatTreeOrdering, JacobiOrdering, NewRingOrdering, RoundRobinOrdering};

    fn sweep(ord: &dyn JacobiOrdering) -> Program {
        ord.sweep_program(0, &ord.initial_layout())
    }

    #[test]
    fn built_in_orderings_deadlock_free_when_buffered() {
        for vectors in [false, true] {
            let fat_tree = sweep(&FatTreeOrdering::new(16).unwrap());
            assert!(verify_deadlock_freedom(&fat_tree, vectors).is_ok());
            let round_robin = sweep(&RoundRobinOrdering::new(12).unwrap());
            assert!(verify_deadlock_freedom(&round_robin, vectors).is_ok());
            let new_ring = sweep(&NewRingOrdering::new(10).unwrap());
            assert!(verify_deadlock_freedom(&new_ring, vectors).is_ok());
        }
    }

    #[test]
    fn exchange_idiom_deadlocks_under_rendezvous() {
        // the first step of round-robin is a pure pairwise exchange: with
        // synchronous sends both partners block in send — a 4-op cycle
        let plan = CommPlan::from_program(&sweep(&RoundRobinOrdering::new(8).unwrap()), false);
        match verify_plan(&plan, CommModel::Rendezvous) {
            Err(Violation::WaitCycle { cycle }) => {
                assert!(cycle.len() >= 2, "cycle too short: {cycle:?}");
            }
            other => panic!("expected WaitCycle, got {other:?}"),
        }
    }

    #[test]
    fn dropped_send_is_an_unmatched_recv() {
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()), false);
        // lose the first send of rank 0
        let pos = plan.ops[0]
            .iter()
            .position(|(_, op)| matches!(op, CommOp::Send { .. }))
            .expect("rank 0 sends something");
        plan.ops[0].remove(pos);
        match verify_plan(&plan, CommModel::Buffered) {
            Err(Violation::UnmatchedRecv { op }) => assert!(!op.is_send),
            other => panic!("expected UnmatchedRecv, got {other:?}"),
        }
    }

    #[test]
    fn dropped_recv_is_an_unconsumed_send() {
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()), false);
        let pos = plan.ops[0]
            .iter()
            .position(|(_, op)| matches!(op, CommOp::Recv { .. }))
            .expect("rank 0 receives something");
        plan.ops[0].remove(pos);
        match verify_plan(&plan, CommModel::Buffered) {
            Err(Violation::UnconsumedSend { op }) => assert!(op.is_send),
            other => panic!("expected UnconsumedSend, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_tag_detected() {
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()), false);
        let dup = plan.ops[0]
            .iter()
            .find(|(_, op)| matches!(op, CommOp::Send { .. }))
            .copied()
            .expect("rank 0 sends something");
        plan.ops[0].push(dup);
        assert!(matches!(
            verify_plan(&plan, CommModel::Buffered),
            Err(Violation::AmbiguousTag { .. })
        ));
    }

    #[test]
    fn plan_mirrors_program_movement_volume() {
        let prog = sweep(&FatTreeOrdering::new(16).unwrap());
        let plan = CommPlan::from_program(&prog, false);
        let sends: usize =
            plan.ops.iter().flatten().filter(|(_, op)| matches!(op, CommOp::Send { .. })).count();
        assert_eq!(sends, prog.total_messages());
        assert_eq!(plan.op_count(), 2 * prog.total_messages());
    }

    #[test]
    fn overlapped_plan_doubles_messages_with_vectors() {
        // the name predates the single zero-copy schedule: every moved
        // column sends its A-phase message and, when vectors ride along,
        // a V-phase message too, each matched by one receive
        let prog = sweep(&FatTreeOrdering::new(16).unwrap());
        for (vectors, factor) in [(false, 1), (true, 2)] {
            let plan = CommPlan::from_program(&prog, vectors);
            let count = |pred: &dyn Fn(&CommOp) -> bool| {
                plan.ops.iter().flatten().filter(|(_, op)| pred(op)).count()
            };
            let sends = count(&|op| matches!(op, CommOp::Send { .. }));
            let recvs = count(&|op| matches!(op, CommOp::Recv { .. }));
            let v_sends = count(&|op| matches!(op, CommOp::Send { tag, .. } if tag & 1 == 1));
            assert_eq!(sends, factor * prog.total_messages());
            assert_eq!(recvs, sends, "one receive per message");
            assert_eq!(v_sends, (factor - 1) * prog.total_messages(), "one V-phase send per move");
        }
    }
}
