//! Deadlock freedom: the send/recv dependency graph implied by a schedule.
//!
//! The distributed executor (`treesvd-sim::distributed`) turns each step's
//! `move_after` into explicit tag-matched messages over the
//! `treesvd-comm` world: every rank first sends its departing columns,
//! then blocks receiving its arrivals, with the tag identifying
//! `(global step, destination slot)`. [`CommPlan::from_program`] extracts
//! exactly that operation sequence, and [`verify_deadlock_freedom`] checks
//! that the induced wait-for graph is acyclic and complete:
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
        /// Message tag (`global_step << 1 | dest_slot parity`).
        tag: u64,
    },
    /// Blocking receive from `from` with `tag`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// Nonblocking prefetch post (MPI `Irecv` style): the rank registers
    /// the landing buffer for a future arrival and continues computing.
    /// The overlapped executor posts the arrivals of movement *s* at the
    /// top of step *s*, before its rotation — the double buffer.
    PostRecv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// Blocking completion of an earlier [`CommOp::PostRecv`] with the
    /// same `(from, tag)` — issued at the point of use, one step after the
    /// post.
    WaitRecv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// Nonblocking deposit of a retransmission copy into the reliable
    /// store, issued immediately before the matching [`CommOp::Send`]. A
    /// purely local mutex write: it participates only in program order,
    /// never in cross-rank matching — which is exactly why the recovery
    /// protocol stays acyclic (see [`CommPlan::with_recovery`]).
    Deposit {
        /// Destination rank of the guarded send.
        to: usize,
        /// Tag of the guarded send.
        tag: u64,
    },
    /// Nonblocking acknowledgement: on successful receipt the receiver
    /// removes `(peer → self, tag)` from the retransmission store. Like
    /// [`CommOp::Deposit`], a local store write with no cross-rank edge —
    /// the receiver never sends an ack *message* (the design that does is
    /// [`CommPlan::with_blocking_acks`], which the verifier rejects).
    Ack {
        /// Original sender whose deposit is being released.
        to: usize,
        /// Tag of the received message.
        tag: u64,
    },
    /// The supervisor wipes the whole retransmission store — the epoch
    /// boundary between two whole-world attempts (checkpoint restart or a
    /// degradation-ladder descent). A local store write like
    /// [`CommOp::Deposit`]; it matters only to the pool-lease analysis
    /// ([`crate::pool::verify_pool_discipline`]), which forgives deposits
    /// stranded by an aborted attempt *only* across this boundary.
    ClearStore,
}

/// Tag of an overlapped-transport A-phase message (the data column) for
/// an arrival into `dest_slot` belonging to global step `step`. The low
/// bit is the phase (A = 0, V = 1), the next the destination-slot parity.
pub fn overlap_tag_a(step: usize, dest_slot: usize) -> u64 {
    (step as u64) << 2 | ((dest_slot % 2) as u64) << 1
}

/// Tag of an overlapped-transport V-phase message (the accumulated right
/// singular vector column); see [`overlap_tag_a`].
pub fn overlap_tag_v(step: usize, dest_slot: usize) -> u64 {
    overlap_tag_a(step, dest_slot) | 1
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
    /// distributed executor: per step, each rank sends its departing
    /// columns (slot order), then receives its arrivals (slot order).
    pub fn from_program(prog: &Program) -> Self {
        let ranks = prog.processors();
        let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); ranks];
        for (step, pair_step) in prog.steps.iter().enumerate() {
            let perm = &pair_step.move_after;
            let inv = perm.inverse();
            for (rank, rank_ops) in ops.iter_mut().enumerate() {
                for s in [2 * rank, 2 * rank + 1] {
                    let d = perm.dest_of(s);
                    if d / 2 != rank {
                        let tag = (step as u64) << 1 | (d % 2) as u64;
                        rank_ops.push((step, CommOp::Send { to: d / 2, tag }));
                    }
                }
                for dest_slot in [2 * rank, 2 * rank + 1] {
                    let src_slot = inv.dest_of(dest_slot);
                    if src_slot / 2 != rank {
                        let tag = (step as u64) << 1 | (dest_slot % 2) as u64;
                        rank_ops.push((step, CommOp::Recv { from: src_slot / 2, tag }));
                    }
                }
            }
        }
        Self { ranks, ops }
    }

    /// Extract the communication plan of one sweep under the *overlapped*
    /// transport, mirroring `treesvd-sim`'s send-ahead executor. Per step
    /// `s`, each rank:
    ///
    /// 1. posts the receives for movement-`s` arrivals (`PostRecv`, the
    ///    prefetch/double buffer — legal because the movement permutation
    ///    fixes every next destination statically);
    /// 2. completes the movement-`s−1` A-phase arrivals (`WaitRecv`) it
    ///    posted one step earlier, then rotates the data columns;
    /// 3. sends its departing A-phase columns;
    /// 4. completes the movement-`s−1` V-phase arrivals, rotates the
    ///    vector columns, and sends the departing V phase (when `vectors`).
    ///
    /// A final drain step (index `steps.len()`) completes the last
    /// movement's arrivals.
    pub fn from_program_overlapped(prog: &Program, vectors: bool) -> Self {
        let ranks = prog.processors();
        let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); ranks];
        // arrivals[rank] = the (src_rank, dest_slot, step) triples whose
        // completions are still pending from the previous movement
        let mut arrivals: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); ranks];
        for (step, pair_step) in prog.steps.iter().enumerate() {
            let perm = &pair_step.move_after;
            let inv = perm.inverse();
            for (rank, rank_ops) in ops.iter_mut().enumerate() {
                let mut posted = Vec::new();
                for dest_slot in [2 * rank, 2 * rank + 1] {
                    let src_slot = inv.dest_of(dest_slot);
                    if src_slot / 2 != rank {
                        let from = src_slot / 2;
                        let tag = overlap_tag_a(step, dest_slot);
                        rank_ops.push((step, CommOp::PostRecv { from, tag }));
                        if vectors {
                            let tag = overlap_tag_v(step, dest_slot);
                            rank_ops.push((step, CommOp::PostRecv { from, tag }));
                        }
                        posted.push((from, dest_slot, step));
                    }
                }
                for &(from, dest_slot, prev) in &arrivals[rank] {
                    let tag = overlap_tag_a(prev, dest_slot);
                    rank_ops.push((step, CommOp::WaitRecv { from, tag }));
                }
                for s in [2 * rank, 2 * rank + 1] {
                    let d = perm.dest_of(s);
                    if d / 2 != rank {
                        let tag = overlap_tag_a(step, d);
                        rank_ops.push((step, CommOp::Send { to: d / 2, tag }));
                    }
                }
                if vectors {
                    for &(from, dest_slot, prev) in &arrivals[rank] {
                        let tag = overlap_tag_v(prev, dest_slot);
                        rank_ops.push((step, CommOp::WaitRecv { from, tag }));
                    }
                    for s in [2 * rank, 2 * rank + 1] {
                        let d = perm.dest_of(s);
                        if d / 2 != rank {
                            let tag = overlap_tag_v(step, d);
                            rank_ops.push((step, CommOp::Send { to: d / 2, tag }));
                        }
                    }
                }
                arrivals[rank] = posted;
            }
        }
        // drain: the last movement's posts complete after the sweep loop
        let drain = prog.steps.len();
        for (rank, rank_ops) in ops.iter_mut().enumerate() {
            for &(from, dest_slot, prev) in &arrivals[rank] {
                rank_ops
                    .push((drain, CommOp::WaitRecv { from, tag: overlap_tag_a(prev, dest_slot) }));
            }
            if vectors {
                for &(from, dest_slot, prev) in &arrivals[rank] {
                    rank_ops.push((
                        drain,
                        CommOp::WaitRecv { from, tag: overlap_tag_v(prev, dest_slot) },
                    ));
                }
            }
        }
        Self { ranks, ops }
    }

    /// Augment the plan with the fault layer's recovery protocol, exactly
    /// as `treesvd-comm` implements it: a [`CommOp::Deposit`] to the
    /// retransmission store immediately before every send, a
    /// [`CommOp::Ack`] immediately after every receive completion. Both
    /// are local store writes — nonblocking nodes with only program-order
    /// edges — so retransmission can never introduce a new wait cycle;
    /// [`verify_recovery_freedom`] proves it per program.
    pub fn with_recovery(&self) -> Self {
        let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); self.ranks];
        for (rank, rank_ops) in self.ops.iter().enumerate() {
            for &(step, op) in rank_ops {
                match op {
                    CommOp::Send { to, tag } => {
                        ops[rank].push((step, CommOp::Deposit { to, tag }));
                        ops[rank].push((step, op));
                    }
                    CommOp::Recv { from, tag } | CommOp::WaitRecv { from, tag } => {
                        ops[rank].push((step, op));
                        ops[rank].push((step, CommOp::Ack { to: from, tag }));
                    }
                    _ => ops[rank].push((step, op)),
                }
            }
        }
        Self { ranks: self.ranks, ops }
    }

    /// Tag bit reserved for modelled acknowledgement *messages* (only used
    /// by [`CommPlan::with_blocking_acks`]; the real protocol sends no ack
    /// messages at all).
    pub const ACK_TAG: u64 = 1 << 61;

    /// The rejected alternative recovery design, kept as the verifier's
    /// negative exhibit: acknowledge by *message* and have every sender
    /// block on its ack before proceeding. On any pairwise-exchange
    /// schedule this deadlocks even under buffered sends — each rank sits
    /// waiting for an ack its partner can only send after a receive that
    /// sits behind the partner's own ack wait — and
    /// [`verify_plan`] exhibits the cycle. This is the formal reason the
    /// shipped protocol acknowledges through the shared store instead.
    pub fn with_blocking_acks(&self) -> Self {
        let mut ops: Vec<Vec<(usize, CommOp)>> = vec![Vec::new(); self.ranks];
        for (rank, rank_ops) in self.ops.iter().enumerate() {
            for &(step, op) in rank_ops {
                match op {
                    CommOp::Send { to, tag } => {
                        ops[rank].push((step, op));
                        ops[rank].push((step, CommOp::Recv { from: to, tag: tag | Self::ACK_TAG }));
                    }
                    CommOp::Recv { from, tag } | CommOp::WaitRecv { from, tag } => {
                        ops[rank].push((step, op));
                        ops[rank].push((step, CommOp::Send { to: from, tag: tag | Self::ACK_TAG }));
                    }
                    _ => ops[rank].push((step, op)),
                }
            }
        }
        Self { ranks: self.ranks, ops }
    }

    /// Total operation count across all ranks.
    pub fn op_count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    pub(crate) fn op_ref(&self, rank: usize, pos: usize) -> OpRef {
        let (step, op) = self.ops[rank][pos];
        match op {
            CommOp::Send { to, tag } | CommOp::Deposit { to, tag } => {
                OpRef { rank, step, is_send: true, peer: to, tag }
            }
            CommOp::Recv { from, tag }
            | CommOp::PostRecv { from, tag }
            | CommOp::WaitRecv { from, tag }
            | CommOp::Ack { to: from, tag } => {
                OpRef { rank, step, is_send: false, peer: from, tag }
            }
            CommOp::ClearStore => OpRef { rank, step, is_send: false, peer: rank, tag: 0 },
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
/// tags unambiguous, prefetch posts paired).
fn build_wait_graph(plan: &CommPlan, model: CommModel) -> Result<WaitGraph, Violation> {
    // global node ids: (rank, position) -> id
    let mut base = vec![0usize; plan.ranks + 1];
    for r in 0..plan.ranks {
        base[r + 1] = base[r] + plan.ops[r].len();
    }
    let node_count = base[plan.ranks];
    let id = |rank: usize, pos: usize| base[rank] + pos;

    // match sends to recvs on (sender, receiver, tag); prefetch posts are
    // matched the same way, keyed by the rank that posts them
    let mut sends: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let mut posts: HashMap<(usize, usize, u64), usize> = HashMap::new();
    let mut consumed: Vec<bool> = vec![false; node_count];
    let mut post_used: Vec<bool> = vec![false; node_count];
    for rank in 0..plan.ranks {
        for (pos, &(_, op)) in plan.ops[rank].iter().enumerate() {
            match op {
                CommOp::Send { to, tag }
                    if sends.insert((rank, to, tag), id(rank, pos)).is_some() =>
                {
                    return Err(Violation::AmbiguousTag { op: plan.op_ref(rank, pos) });
                }
                CommOp::PostRecv { from, tag }
                    if posts.insert((from, rank, tag), pos).is_some() =>
                {
                    return Err(Violation::AmbiguousTag { op: plan.op_ref(rank, pos) });
                }
                _ => {}
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
            match op {
                CommOp::Recv { from, tag } => {
                    let Some(&send) = sends.get(&(from, rank, tag)) else {
                        return Err(Violation::UnmatchedRecv { op: plan.op_ref(rank, pos) });
                    };
                    consumed[send] = true;
                    // the message must be sent before it is received
                    add_edge(&mut edges, &mut indegree, send, node);
                    if model == CommModel::Rendezvous {
                        // a synchronous send cannot complete until the peer
                        // has *reached* the receive: everything before the
                        // recv in the peer's program order must complete
                        // first
                        if pos > 0 {
                            add_edge(&mut edges, &mut indegree, id(rank, pos - 1), send);
                        }
                    }
                }
                CommOp::WaitRecv { from, tag } => {
                    // the completion must pair with an earlier prefetch
                    // post on this rank ...
                    match posts.get(&(from, rank, tag)) {
                        Some(&post_pos) if post_pos < pos => post_used[id(rank, post_pos)] = true,
                        _ => return Err(Violation::PrefetchMissing { op: plan.op_ref(rank, pos) }),
                    }
                    // ... and with a send, which must happen first
                    let Some(&send) = sends.get(&(from, rank, tag)) else {
                        return Err(Violation::UnmatchedRecv { op: plan.op_ref(rank, pos) });
                    };
                    consumed[send] = true;
                    add_edge(&mut edges, &mut indegree, send, node);
                    // under rendezvous the send blocks only until the peer
                    // *posts* the receive — not until the completion — so
                    // the prefetch is exactly what breaks the exchange
                    // idiom's two-cycle
                }
                _ => {}
            }
        }
    }
    if model == CommModel::Rendezvous {
        for (&(from, to, tag), &post_pos) in &posts {
            if let Some(&send) = sends.get(&(from, to, tag)) {
                // a synchronous send completes once the peer has reached
                // the matching post: everything before the post must
                // complete first
                if post_pos > 0 {
                    add_edge(&mut edges, &mut indegree, id(to, post_pos - 1), send);
                }
            }
        }
    }
    for rank in 0..plan.ranks {
        for (pos, &(_, op)) in plan.ops[rank].iter().enumerate() {
            if matches!(op, CommOp::Send { .. }) && !consumed[id(rank, pos)] {
                return Err(Violation::UnconsumedSend { op: plan.op_ref(rank, pos) });
            }
            if matches!(op, CommOp::PostRecv { .. }) && !post_used[id(rank, pos)] {
                return Err(Violation::PrefetchUnused { op: plan.op_ref(rank, pos) });
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

/// Verify deadlock freedom of one sweep program under buffered semantics —
/// the semantics of the real executor.
///
/// # Errors
/// As [`verify_plan`].
pub fn verify_deadlock_freedom(prog: &Program) -> Result<(), Violation> {
    verify_plan(&CommPlan::from_program(prog), CommModel::Buffered)
}

/// Verify the *overlapped* (send-ahead) plan of one sweep program under
/// **both** communication models. This is the gate the distributed
/// executor runs before enabling comm/compute overlap: unlike the
/// blocking plan — whose exchange idiom deadlocks under rendezvous — the
/// prefetch posts make the overlapped order acyclic even with synchronous
/// sends, because a send only waits for the peer to *post* the receive at
/// the top of its step, never for the completion.
///
/// # Errors
/// As [`verify_plan`], plus [`Violation::PrefetchMissing`] /
/// [`Violation::PrefetchUnused`] if posts and completions do not pair up.
pub fn verify_overlap_freedom(prog: &Program, vectors: bool) -> Result<(), Violation> {
    let plan = CommPlan::from_program_overlapped(prog, vectors);
    verify_plan(&plan, CommModel::Buffered)?;
    verify_plan(&plan, CommModel::Rendezvous)
}

/// Verify that one sweep program stays deadlock-free with the fault
/// layer's retry/ack recovery protocol armed
/// ([`CommPlan::with_recovery`]): the blocking plan under buffered
/// semantics (the non-overlapped zero-copy rung), and the overlapped
/// plan under **both** models. This is the gate the distributed executor
/// runs instead of [`verify_overlap_freedom`] when a fault policy arms
/// retransmission — deposits and acks are nonblocking store writes, so a
/// plan that was clean without them must stay clean, and this proves it
/// rather than assuming it.
///
/// # Errors
/// As [`verify_plan`].
pub fn verify_recovery_freedom(prog: &Program, vectors: bool) -> Result<(), Violation> {
    verify_plan(&CommPlan::from_program(prog).with_recovery(), CommModel::Buffered)?;
    let plan = CommPlan::from_program_overlapped(prog, vectors).with_recovery();
    verify_plan(&plan, CommModel::Buffered)?;
    verify_plan(&plan, CommModel::Rendezvous)
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
        assert!(verify_deadlock_freedom(&sweep(&FatTreeOrdering::new(16).unwrap())).is_ok());
        assert!(verify_deadlock_freedom(&sweep(&RoundRobinOrdering::new(12).unwrap())).is_ok());
        assert!(verify_deadlock_freedom(&sweep(&NewRingOrdering::new(10).unwrap())).is_ok());
    }

    #[test]
    fn exchange_idiom_deadlocks_under_rendezvous() {
        // the first step of round-robin is a pure pairwise exchange: with
        // synchronous sends both partners block in send — a 4-op cycle
        let plan = CommPlan::from_program(&sweep(&RoundRobinOrdering::new(8).unwrap()));
        match verify_plan(&plan, CommModel::Rendezvous) {
            Err(Violation::WaitCycle { cycle }) => {
                assert!(cycle.len() >= 2, "cycle too short: {cycle:?}");
            }
            other => panic!("expected WaitCycle, got {other:?}"),
        }
    }

    #[test]
    fn dropped_send_is_an_unmatched_recv() {
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()));
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
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()));
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
        let mut plan = CommPlan::from_program(&sweep(&FatTreeOrdering::new(8).unwrap()));
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
        let plan = CommPlan::from_program(&prog);
        let sends: usize =
            plan.ops.iter().flatten().filter(|(_, op)| matches!(op, CommOp::Send { .. })).count();
        assert_eq!(sends, prog.total_messages());
        assert_eq!(plan.op_count(), 2 * prog.total_messages());
    }

    #[test]
    fn overlapped_plans_deadlock_free_under_both_models() {
        use treesvd_orderings::{HybridOrdering, ModifiedRingOrdering, RingOrdering};
        let orderings: Vec<Box<dyn JacobiOrdering>> = vec![
            Box::new(NewRingOrdering::new(10).unwrap()),
            Box::new(RingOrdering::new(8).unwrap()),
            Box::new(ModifiedRingOrdering::new(8).unwrap()),
            Box::new(RoundRobinOrdering::new(12).unwrap()),
            Box::new(FatTreeOrdering::new(16).unwrap()),
            Box::new(HybridOrdering::with_default_groups(16).unwrap()),
        ];
        for ord in &orderings {
            for vectors in [false, true] {
                // every sweep of the restore period, since movement
                // patterns differ sweep to sweep
                for prog in ord.programs(ord.restore_period().max(1)) {
                    verify_overlap_freedom(&prog, vectors).unwrap_or_else(|v| {
                        panic!("{} (vectors={vectors}): {v}", ord.name());
                    });
                }
            }
        }
    }

    #[test]
    fn overlapped_plan_doubles_messages_with_vectors() {
        let prog = sweep(&FatTreeOrdering::new(16).unwrap());
        for (vectors, factor) in [(false, 1), (true, 2)] {
            let plan = CommPlan::from_program_overlapped(&prog, vectors);
            let count = |pred: fn(&CommOp) -> bool| {
                plan.ops.iter().flatten().filter(|(_, op)| pred(op)).count()
            };
            let sends = count(|op| matches!(op, CommOp::Send { .. }));
            let posts = count(|op| matches!(op, CommOp::PostRecv { .. }));
            let waits = count(|op| matches!(op, CommOp::WaitRecv { .. }));
            assert_eq!(sends, factor * prog.total_messages());
            assert_eq!(posts, sends, "one prefetch post per message");
            assert_eq!(waits, sends, "one completion per message");
        }
    }

    #[test]
    fn legacy_blocking_plan_still_cycles_but_overlap_does_not() {
        // the exchange two-cycle: blocking receives + rendezvous sends
        // deadlock on the very same schedule whose overlapped plan is clean
        let prog = sweep(&NewRingOrdering::new(8).unwrap());
        assert!(matches!(
            verify_plan(&CommPlan::from_program(&prog), CommModel::Rendezvous),
            Err(Violation::WaitCycle { .. })
        ));
        assert!(verify_overlap_freedom(&prog, true).is_ok());
    }

    #[test]
    fn recovery_protocol_deadlock_free_for_all_builtins() {
        use treesvd_orderings::{HybridOrdering, ModifiedRingOrdering, RingOrdering};
        let orderings: Vec<Box<dyn JacobiOrdering>> = vec![
            Box::new(NewRingOrdering::new(10).unwrap()),
            Box::new(RingOrdering::new(8).unwrap()),
            Box::new(ModifiedRingOrdering::new(8).unwrap()),
            Box::new(RoundRobinOrdering::new(12).unwrap()),
            Box::new(FatTreeOrdering::new(16).unwrap()),
            Box::new(HybridOrdering::with_default_groups(16).unwrap()),
        ];
        for ord in &orderings {
            for vectors in [false, true] {
                for prog in ord.programs(ord.restore_period().max(1)) {
                    verify_recovery_freedom(&prog, vectors).unwrap_or_else(|v| {
                        panic!("{} (vectors={vectors}): {v}", ord.name());
                    });
                }
            }
        }
    }

    #[test]
    fn recovery_adds_one_deposit_per_send_and_one_ack_per_recv() {
        let prog = sweep(&FatTreeOrdering::new(16).unwrap());
        let plan = CommPlan::from_program(&prog).with_recovery();
        let count = |pred: fn(&CommOp) -> bool| {
            plan.ops.iter().flatten().filter(|(_, op)| pred(op)).count()
        };
        let sends = count(|op| matches!(op, CommOp::Send { .. }));
        assert_eq!(sends, prog.total_messages());
        assert_eq!(count(|op| matches!(op, CommOp::Deposit { .. })), sends);
        assert_eq!(count(|op| matches!(op, CommOp::Ack { .. })), sends);
        // each deposit immediately precedes its send, sharing (peer, tag)
        for rank_ops in &plan.ops {
            for w in rank_ops.windows(2) {
                if let (_, CommOp::Deposit { to, tag }) = w[0] {
                    assert_eq!(w[1].1, CommOp::Send { to, tag }, "deposit must guard its send");
                }
            }
        }
    }

    #[test]
    fn blocking_ack_design_is_rejected_with_a_cycle() {
        // the negative exhibit: ack-by-message with the sender blocking on
        // its ack deadlocks on a pairwise exchange even with buffered
        // sends — the verifier must produce the cycle, not hang or pass
        let plan = CommPlan::from_program(&sweep(&RoundRobinOrdering::new(8).unwrap()))
            .with_blocking_acks();
        match verify_plan(&plan, CommModel::Buffered) {
            Err(Violation::WaitCycle { cycle }) => {
                assert!(cycle.len() >= 4, "cycle too short: {cycle:?}");
                assert!(
                    cycle.iter().any(|op| op.tag & CommPlan::ACK_TAG != 0),
                    "the cycle must pass through an ack edge: {cycle:?}"
                );
            }
            other => panic!("expected WaitCycle, got {other:?}"),
        }
        // ... and the shipped store-based protocol on the same schedule is clean
        let prog = sweep(&RoundRobinOrdering::new(8).unwrap());
        assert!(verify_recovery_freedom(&prog, true).is_ok());
    }

    #[test]
    fn corrupted_prefetch_is_rejected_step_precisely() {
        let prog = sweep(&NewRingOrdering::new(8).unwrap());
        let mut plan = CommPlan::from_program_overlapped(&prog, false);
        // aim one prefetch at the wrong next destination
        let pos = plan.ops[1]
            .iter()
            .position(|(_, op)| matches!(op, CommOp::PostRecv { .. }))
            .expect("rank 1 posts something");
        let (step, CommOp::PostRecv { from, tag }) = plan.ops[1][pos] else { unreachable!() };
        plan.ops[1][pos] = (step, CommOp::PostRecv { from: (from + 1) % plan.ranks, tag });
        match verify_plan(&plan, CommModel::Buffered) {
            Err(Violation::PrefetchMissing { op }) => {
                assert_eq!(op.rank, 1);
                assert_eq!(op.peer, from, "the starving completion names the true source");
            }
            other => panic!("expected PrefetchMissing, got {other:?}"),
        }
    }
}
