//! The communicator and its threaded implementation.

use crate::fault::{FaultInjector, RetryPolicy, SendFate};
use crate::pool::{BufferPool, MsgBuf};
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point-to-point message: payload plus matching metadata.
#[derive(Debug)]
struct Envelope {
    source: usize,
    tag: u64,
    payload: MsgBuf,
    /// Injected delay: the message exists but is not receivable before
    /// this instant. `None` for the (default) undelayed case.
    not_before: Option<Instant>,
    /// Sender's vector clock at the send — the happens-before piggyback.
    #[cfg(feature = "hb-tracker")]
    clock: Vec<u64>,
}

impl Envelope {
    /// Whether the message is receivable at `now`.
    fn due(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }
}

/// Errors from a blocking receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The matching message did not arrive within the (possibly retried)
    /// timeout budget — a schedule bug, or an unabsorbable fault such as
    /// a dead link or crashed peer.
    Timeout {
        /// Rank that was waiting.
        rank: usize,
        /// Expected source rank.
        source: usize,
        /// Expected tag.
        tag: u64,
        /// Total time spent blocked on this edge across all attempts.
        waited: Duration,
    },
    /// The received payload contained a non-finite value and no clean
    /// redelivery was available — the poison guard at the recv seam.
    Poisoned {
        /// Rank that received the poison.
        rank: usize,
        /// Source rank of the poisoned message.
        source: usize,
        /// Tag of the poisoned message.
        tag: u64,
        /// Index of the first non-finite element.
        index: usize,
    },
    /// The world has been torn down (a peer hung up).
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout { rank, source, tag, waited } => {
                write!(
                    f,
                    "rank {rank}: timed out waiting for message (source {source}, tag {tag}) \
                     after {waited:?}"
                )
            }
            RecvError::Poisoned { rank, source, tag, index } => {
                write!(
                    f,
                    "rank {rank}: non-finite value at element {index} of message \
                     (source {source}, tag {tag})"
                )
            }
            RecvError::Disconnected => write!(f, "communicator torn down"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Internal outcome of one bounded receive attempt.
enum AttemptError {
    Timeout,
    Disconnected,
}

/// Construction-time knobs of a [`ThreadWorld`]: the base receive
/// window, the retry discipline, the poison guard, and (optionally) an
/// armed fault injector shared by every rank.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Base bounded-receive window (the first attempt's timeout; retries
    /// grow it by [`RetryPolicy::backoff`]).
    pub recv_timeout: Duration,
    /// Receiver-side retry discipline.
    pub retry: RetryPolicy,
    /// Reject non-finite payload elements at the recv seam.
    pub check_finite: bool,
    /// Armed fault layer (injection + retransmission store), shared by
    /// all ranks. `None` runs the plain lossless transport.
    pub fault: Option<Arc<FaultInjector>>,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            check_finite: false,
            fault: None,
        }
    }
}

/// One rank's endpoint: send to any rank, receive tag-matched messages.
///
/// Receives match on `(source, tag)`; out-of-order arrivals are parked in a
/// local pending buffer, so any send/recv interleaving consistent with the
/// schedule is accepted. When the world was built with a fault layer
/// ([`WorldConfig::fault`]), sends pass through the injector (deposit to
/// the retransmission store, then drop/delay/duplicate/corrupt per plan)
/// and receives recover: bounded attempts with exponential backoff, store
/// redelivery on timeout, duplicate suppression keyed on `(source, tag)`
/// (tags are unique per directed edge within a run, which is what makes
/// redelivery idempotent), and an optional non-finite poison guard.
pub struct Communicator {
    rank: usize,
    size: usize,
    inbox: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    pending: Vec<Envelope>,
    recv_timeout: Duration,
    retry: RetryPolicy,
    check_finite: bool,
    fault: Option<Arc<FaultInjector>>,
    /// `(source, tag)` keys already consumed — the duplicate filter.
    /// Only populated when the fault layer is armed.
    delivered: HashSet<(usize, u64)>,
    /// Receive attempts beyond the first, across all edges.
    retries: u64,
    pool: BufferPool,
    #[cfg(feature = "hb-tracker")]
    hb: crate::hb::RankState,
}

impl Communicator {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Borrow a cleared buffer from this rank's pool, with capacity for
    /// `capacity` elements. Fill it and pass it to
    /// [`send_buf`](Communicator::send_buf); when the receiver drops the
    /// lease the storage returns here for reuse.
    pub fn buf(&mut self, capacity: usize) -> MsgBuf {
        self.pool.take(capacity)
    }

    /// Allocation events charged to this rank's buffer pool so far. Stable
    /// across an interval ⇔ every message in that interval reused pooled
    /// (or adopted) storage.
    pub fn payload_allocations(&self) -> u64 {
        self.pool.allocations()
    }

    /// Receive attempts beyond the first (timeouts that were retried),
    /// across all edges of this rank.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The armed fault layer, if any.
    pub fn fault(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Asynchronous (buffered) send of `payload` to `dest` with `tag`.
    ///
    /// The buffer travels by reference-move, never by copy: a pooled
    /// buffer comes back to this rank's pool when the receiver drops its
    /// lease; a [detached](MsgBuf::detached) one transfers ownership of
    /// the allocation outright. With a fault layer armed the message
    /// first deposits its retransmission copy, then suffers whatever the
    /// plan decides (an injected drop releases the buffer back to the
    /// pool exactly as a delivered-and-dropped lease would).
    ///
    /// # Panics
    /// Panics if `dest` is out of range, or — on the plain lossless
    /// transport only — if the destination endpoint is gone. With the
    /// fault layer armed a dead peer counts as a drop instead (crashed
    /// ranks are a modelled fault, not a programming error).
    pub fn send_buf(&self, dest: usize, tag: u64, mut payload: MsgBuf) {
        assert!(dest < self.size, "rank {dest} out of range");
        let fate = match &self.fault {
            Some(f) if dest != self.rank => {
                f.deposit(self.rank, dest, tag, &payload);
                f.decide_send(self.rank, dest, tag, payload.len())
            }
            _ => SendFate { deliveries: 1, delay: None, corrupt_index: None },
        };
        #[cfg(feature = "hb-tracker")]
        let clock = self.hb.tick_send();
        if fate.deliveries == 0 {
            // injected drop: the buffer goes home to the pool right here
            return;
        }
        if let Some(i) = fate.corrupt_index {
            payload[i] = f64::NAN;
        }
        let not_before = fate.delay.map(|d| Instant::now() + d);
        if fate.deliveries > 1 {
            let f = self.fault.as_ref().expect("duplicates only come from the injector");
            f.charge_allocation();
            let _ = self.peers[dest].send(Envelope {
                source: self.rank,
                tag,
                payload: MsgBuf::detached(payload.to_vec()),
                not_before,
                #[cfg(feature = "hb-tracker")]
                clock: clock.clone(),
            });
        }
        // unbounded channel: cannot block, cannot deadlock
        let delivered = self.peers[dest].send(Envelope {
            source: self.rank,
            tag,
            payload,
            not_before,
            #[cfg(feature = "hb-tracker")]
            clock,
        });
        if delivered.is_err() && self.fault.is_none() {
            panic!("world torn down during send");
        }
    }

    /// Asynchronous (buffered) send of an owned `payload` — the
    /// compatibility wrapper over [`send_buf`](Communicator::send_buf).
    ///
    /// # Panics
    /// Panics if `dest` is out of range. Sending to self is allowed (the
    /// message is received like any other).
    pub fn send(&self, dest: usize, tag: u64, payload: Vec<f64>) {
        self.send_buf(dest, tag, MsgBuf::detached(payload));
    }

    /// Park an arrival, unless the duplicate filter already consumed its
    /// `(source, tag)` key.
    fn intake(&mut self, env: Envelope) {
        if self.fault.is_some() && self.delivered.contains(&(env.source, env.tag)) {
            return; // duplicate (or late original after redelivery): discard
        }
        self.pending.push(env);
    }

    /// Index of the first non-finite payload element, when the poison
    /// guard is on.
    fn screen(&self, payload: &[f64]) -> Option<usize> {
        if !self.check_finite {
            return None;
        }
        payload.iter().position(|x| !x.is_finite())
    }

    /// Mark `(source, tag)` consumed: arm the duplicate filter, purge any
    /// parked copies, and acknowledge the retransmission store.
    fn complete(&mut self, source: usize, tag: u64) {
        if let Some(f) = &self.fault {
            f.acknowledge(source, self.rank, tag);
            self.delivered.insert((source, tag));
            self.pending.retain(|e| !(e.source == source && e.tag == tag));
        }
    }

    /// One bounded receive attempt: wait up to `window` for a *due*
    /// `(source, tag)` message, honouring injected delays (a parked
    /// not-yet-due match shortens the sleep to its due time, never past
    /// the window's deadline).
    fn recv_attempt(
        &mut self,
        source: usize,
        tag: u64,
        window: Duration,
    ) -> Result<MsgBuf, AttemptError> {
        let deadline = Instant::now() + window;
        loop {
            let now = Instant::now();
            if let Some(idx) =
                self.pending.iter().position(|e| e.source == source && e.tag == tag && e.due(now))
            {
                let env = self.pending.swap_remove(idx);
                #[cfg(feature = "hb-tracker")]
                self.hb.join(&env.clock);
                return Ok(env.payload);
            }
            // earliest matching parked-but-delayed arrival, if any
            let next_due = self
                .pending
                .iter()
                .filter(|e| e.source == source && e.tag == tag)
                .filter_map(|e| e.not_before)
                .min();
            let limit = next_due.map_or(deadline, |t| t.min(deadline));
            let now = Instant::now();
            if limit <= now {
                if next_due.is_none_or(|t| t > now) {
                    return Err(AttemptError::Timeout);
                }
                continue; // a delayed match just became due
            }
            match self.inbox.recv_timeout(limit - now) {
                Ok(env) => self.intake(env),
                Err(RecvTimeoutError::Timeout) => {} // loop re-evaluates deadline/due
                Err(RecvTimeoutError::Disconnected) => match next_due {
                    // all senders are gone but a delayed match is already
                    // parked: sleep it due, then take it
                    Some(t) => {
                        let now = Instant::now();
                        if t > now {
                            std::thread::sleep(t - now);
                        }
                    }
                    None => return Err(AttemptError::Disconnected),
                },
            }
        }
    }

    /// Blocking receive of the message with exactly `(source, tag)`,
    /// returning the payload as a lease. Dropping the lease recycles the
    /// storage into the *sender's* pool; [`MsgBuf::detach`] adopts it.
    ///
    /// With a fault layer armed this is the recovery seam: each timed-out
    /// attempt first asks the retransmission store for a redelivery, then
    /// retries with an exponentially grown window, up to
    /// [`RetryPolicy::max_retries`]. A payload failing the poison guard
    /// is discarded and recovered the same way (the store holds the
    /// pre-corruption copy).
    ///
    /// # Errors
    /// [`RecvError::Timeout`] if nothing matching arrives within the
    /// whole retry budget (carrying the total time blocked),
    /// [`RecvError::Poisoned`] if only non-finite payloads were seen, or
    /// [`RecvError::Disconnected`] if the world died.
    pub fn recv_buf(&mut self, source: usize, tag: u64) -> Result<MsgBuf, RecvError> {
        let start = Instant::now();
        let mut window = self.recv_timeout;
        let mut poisoned: Option<usize> = None;
        let mut attempt: u32 = 0;
        loop {
            match self.recv_attempt(source, tag, window) {
                Ok(buf) => match self.screen(&buf) {
                    None => {
                        self.complete(source, tag);
                        return Ok(buf);
                    }
                    Some(index) => {
                        poisoned = Some(index);
                        drop(buf); // poisoned copy: discard, try to recover
                    }
                },
                Err(AttemptError::Disconnected) => return Err(RecvError::Disconnected),
                Err(AttemptError::Timeout) => {}
            }
            // recovery: the reliable store may hold the clean copy
            if let Some(f) = &self.fault {
                if let Some(data) = f.redeliver(source, self.rank, tag) {
                    let buf = MsgBuf::detached(data);
                    if let Some(index) = self.screen(&buf) {
                        // even the deposited copy is poisoned: the sender
                        // itself produced non-finite data — unrecoverable
                        return Err(RecvError::Poisoned { rank: self.rank, source, tag, index });
                    }
                    self.complete(source, tag);
                    return Ok(buf);
                }
            }
            attempt += 1;
            if attempt > self.retry.max_retries {
                return match poisoned {
                    Some(index) => Err(RecvError::Poisoned { rank: self.rank, source, tag, index }),
                    None => Err(RecvError::Timeout {
                        rank: self.rank,
                        source,
                        tag,
                        waited: start.elapsed(),
                    }),
                };
            }
            self.retries += 1;
            window = window.mul_f64(self.retry.backoff);
        }
    }

    /// Blocking receive returning an owned `Vec<f64>` — the compatibility
    /// wrapper over [`recv_buf`](Communicator::recv_buf) (the payload is
    /// detached, so pooled storage is adopted rather than recycled).
    ///
    /// # Errors
    /// Propagates [`Communicator::recv_buf`] errors.
    pub fn recv(&mut self, source: usize, tag: u64) -> Result<Vec<f64>, RecvError> {
        Ok(self.recv_buf(source, tag)?.detach())
    }

    /// Exchange with a peer: send ours, receive theirs (same tag). The
    /// common idiom of the Jacobi schedules.
    ///
    /// # Errors
    /// Propagates [`Communicator::recv`] errors.
    pub fn exchange(
        &mut self,
        peer: usize,
        tag: u64,
        payload: Vec<f64>,
    ) -> Result<Vec<f64>, RecvError> {
        self.send(peer, tag, payload);
        self.recv(peer, tag)
    }

    /// Register an access to column block `block` with the happens-before
    /// tracker, flagging it if the previous access by another rank is not
    /// ordered before this one by a message chain.
    ///
    /// # Errors
    /// [`RaceViolation`](crate::hb::RaceViolation) naming the block and the
    /// two racing ranks.
    #[cfg(feature = "hb-tracker")]
    pub fn record_access(&self, block: usize) -> Result<(), crate::hb::RaceViolation> {
        self.hb.record_access(block)
    }

    /// This rank's current vector clock (for diagnostics).
    #[cfg(feature = "hb-tracker")]
    pub fn vector_clock(&self) -> Vec<u64> {
        self.hb.snapshot()
    }
}

/// A "world": builds the communicators for `size` ranks sharing one
/// process.
pub struct ThreadWorld {
    comms: Vec<Communicator>,
}

impl ThreadWorld {
    /// Create a world of `size` ranks with the default 5-second receive
    /// timeout.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_config(size, WorldConfig::default())
    }

    /// Create a world with an explicit receive timeout (tests use short
    /// ones to exercise the failure path).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_timeout(size: usize, recv_timeout: Duration) -> Self {
        Self::with_config(size, WorldConfig { recv_timeout, ..WorldConfig::default() })
    }

    /// Create a world with the full knob set: receive window, retry
    /// discipline, poison guard, and (optionally) an armed fault layer.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_config(size: usize, config: WorldConfig) -> Self {
        assert!(size > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        #[cfg(feature = "hb-tracker")]
        let registry = std::sync::Arc::new(crate::hb::Registry::default());
        let comms = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Communicator {
                rank,
                size,
                inbox,
                peers: senders.clone(),
                pending: Vec::new(),
                recv_timeout: config.recv_timeout,
                retry: config.retry,
                check_finite: config.check_finite,
                fault: config.fault.clone(),
                delivered: HashSet::new(),
                retries: 0,
                pool: BufferPool::new(),
                #[cfg(feature = "hb-tracker")]
                hb: crate::hb::RankState::new(rank, size, registry.clone()),
            })
            .collect();
        Self { comms }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comms.len()
    }

    /// Take the per-rank communicators (consumes the world's endpoints;
    /// call once, then move each into its thread).
    pub fn into_communicators(self) -> Vec<Communicator> {
        self.comms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::thread;

    #[test]
    fn ping_pong() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            let msg = c1.recv(0, 7).unwrap();
            c1.send(0, 8, msg.iter().map(|x| x * 2.0).collect());
        });
        c0.send(1, 7, vec![1.0, 2.0]);
        let back = c0.recv(1, 8).unwrap();
        assert_eq!(back, vec![2.0, 4.0]);
        h.join().unwrap();
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(1, 2, vec![2.0]);
        c0.send(1, 1, vec![1.0]);
        // receive in the opposite order
        assert_eq!(c1.recv(0, 1).unwrap(), vec![1.0]);
        assert_eq!(c1.recv(0, 2).unwrap(), vec![2.0]);
    }

    #[test]
    fn self_send_works() {
        let world = ThreadWorld::new(1);
        let mut comms = world.into_communicators();
        let mut c = comms.pop().unwrap();
        c.send(0, 0, vec![9.0]);
        assert_eq!(c.recv(0, 0).unwrap(), vec![9.0]);
    }

    #[test]
    fn timeout_reports_context() {
        let world = ThreadWorld::with_timeout(2, Duration::from_millis(20));
        let mut comms = world.into_communicators();
        let _c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let err = c0.recv(1, 42).unwrap_err();
        match err {
            RecvError::Timeout { rank, source, tag, waited } => {
                assert_eq!((rank, source, tag), (0, 1, 42));
                assert!(waited >= Duration::from_millis(20), "waited = {waited:?}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("tag 42") && text.contains("after"), "{text}");
    }

    #[test]
    fn exchange_is_symmetric() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || c1.exchange(0, 3, vec![10.0]).unwrap());
        let got0 = c0.exchange(1, 3, vec![20.0]).unwrap();
        let got1 = h.join().unwrap();
        assert_eq!(got0, vec![10.0]);
        assert_eq!(got1, vec![20.0]);
    }

    #[cfg(feature = "hb-tracker")]
    #[test]
    fn message_chain_orders_block_accesses() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        // rank 0 writes block 5, then hands it to rank 1 by message:
        // the receive creates the happens-before edge, so no race
        c0.record_access(5).unwrap();
        c0.send(1, 0, vec![1.0]);
        c1.recv(0, 0).unwrap();
        assert_eq!(c1.record_access(5), Ok(()));
    }

    #[cfg(feature = "hb-tracker")]
    #[test]
    fn unordered_block_accesses_are_flagged() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        // both ranks touch block 7 with no message between them: wall-clock
        // order exists, happens-before order does not
        c0.record_access(7).unwrap();
        let err = c1.record_access(7).unwrap_err();
        assert_eq!(err.block, 7);
        assert_eq!((err.first_rank, err.second_rank), (0, 1));
        assert!(err.to_string().contains("block 7"));
    }

    #[cfg(feature = "hb-tracker")]
    #[test]
    fn same_rank_reaccess_is_not_a_race() {
        let world = ThreadWorld::new(2);
        let comms = world.into_communicators();
        comms[0].record_access(3).unwrap();
        comms[0].record_access(3).unwrap();
        assert!(comms[0].vector_clock()[0] >= 2);
    }

    #[test]
    fn pooled_send_recycles_to_sender_after_lease_drop() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            for step in 0..4u64 {
                let lease = c1.recv_buf(0, step).unwrap();
                assert_eq!(&lease[..], &[step as f64]);
                drop(lease); // storage rides the return channel to rank 0
                c1.send(0, 100 + step, Vec::new()); // ack paces the sender
            }
        });
        for step in 0..4u64 {
            let mut buf = c0.buf(1);
            buf.load(&[step as f64]);
            c0.send_buf(1, step, buf);
            c0.recv(1, 100 + step).unwrap();
        }
        assert_eq!(c0.payload_allocations(), 1, "one warm-up allocation, then reuse");
        h.join().unwrap();
    }

    #[test]
    fn detached_send_transfers_ownership_without_pool_traffic() {
        let world = ThreadWorld::new(2);
        let mut comms = world.into_communicators();
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let column = vec![1.0, 2.0, 3.0];
        let ptr = column.as_ptr();
        c0.send(1, 0, column);
        let adopted = c1.recv(0, 0).unwrap();
        assert_eq!(adopted.as_ptr(), ptr, "the very same allocation arrives");
        assert_eq!(c1.payload_allocations(), 0);
    }

    #[test]
    fn many_ranks_ring_pass() {
        let p = 8;
        let world = ThreadWorld::new(p);
        let comms = world.into_communicators();
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let rank = c.rank();
                    let next = (rank + 1) % c.size();
                    let prev = (rank + c.size() - 1) % c.size();
                    // pass a token all the way around
                    let mut token = vec![rank as f64];
                    for round in 0..c.size() as u64 {
                        c.send(next, round, token);
                        token = c.recv(prev, round).unwrap();
                    }
                    token[0]
                })
            })
            .collect();
        let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // after P hops every token is back home
        for (rank, v) in results.iter().enumerate() {
            assert_eq!(*v, rank as f64);
        }
    }

    /// A two-rank chaos world with the given plan and retry knobs.
    fn chaos_pair(
        plan: FaultPlan,
        retry: RetryPolicy,
        check_finite: bool,
    ) -> (Communicator, Communicator, Arc<FaultInjector>) {
        let injector = Arc::new(FaultInjector::new(plan));
        let world = ThreadWorld::with_config(
            2,
            WorldConfig {
                recv_timeout: Duration::from_millis(10),
                retry,
                check_finite,
                fault: Some(injector.clone()),
            },
        );
        let mut comms = world.into_communicators();
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        (c0, c1, injector)
    }

    #[test]
    fn dropped_messages_are_redelivered_from_the_store() {
        let plan = FaultPlan { drop: 1.0, ..FaultPlan::default() };
        let (c0, mut c1, inj) =
            chaos_pair(plan, RetryPolicy { max_retries: 3, backoff: 2.0 }, false);
        for tag in 0..5u64 {
            c0.send(1, tag, vec![tag as f64, -1.0]);
        }
        for tag in 0..5u64 {
            assert_eq!(c1.recv(0, tag).unwrap(), vec![tag as f64, -1.0]);
        }
        let s = inj.snapshot();
        assert_eq!(s.drops, 5);
        assert_eq!(s.redeliveries, 5, "every drop recovered from the store");
    }

    #[test]
    fn duplicated_messages_are_deduplicated() {
        let plan = FaultPlan { duplicate: 1.0, ..FaultPlan::default() };
        let (c0, mut c1, inj) = chaos_pair(plan, RetryPolicy::default(), false);
        c0.send(1, 7, vec![3.5]);
        c0.send(1, 8, vec![4.5]);
        assert_eq!(c1.recv(0, 7).unwrap(), vec![3.5]);
        assert_eq!(c1.recv(0, 8).unwrap(), vec![4.5]);
        // the duplicate copies were discarded at intake or purge time:
        // nothing is left parked once the inbox is drained
        while let Ok(env) = c1.inbox.try_recv() {
            c1.intake(env);
        }
        assert!(c1.pending.is_empty(), "a duplicate copy survived");
        assert_eq!(inj.snapshot().duplicates, 2);
    }

    #[test]
    fn delayed_messages_arrive_once_due() {
        let plan =
            FaultPlan { delay: 1.0, max_delay: Duration::from_millis(30), ..FaultPlan::default() };
        let (c0, mut c1, inj) =
            chaos_pair(plan, RetryPolicy { max_retries: 4, backoff: 2.0 }, false);
        c0.send(1, 3, vec![1.0, 2.0]);
        assert_eq!(c1.recv(0, 3).unwrap(), vec![1.0, 2.0]);
        assert_eq!(inj.snapshot().delays, 1);
    }

    #[test]
    fn corrupted_payloads_recover_clean_via_redelivery() {
        let plan = FaultPlan { corrupt: 1.0, ..FaultPlan::default() };
        let (c0, mut c1, inj) =
            chaos_pair(plan, RetryPolicy { max_retries: 2, backoff: 2.0 }, true);
        c0.send(1, 11, vec![1.0, 2.0, 3.0]);
        // the wire copy is poisoned; the store copy is clean
        assert_eq!(c1.recv(0, 11).unwrap(), vec![1.0, 2.0, 3.0]);
        let s = inj.snapshot();
        assert_eq!(s.corruptions, 1);
        assert_eq!(s.redeliveries, 1);
    }

    #[test]
    fn genuinely_poisoned_data_reports_the_element() {
        // no injected corruption: the sender's own data is non-finite, so
        // even the store copy is poisoned — must fail with the index
        let (c0, mut c1, _inj) = chaos_pair(FaultPlan::default(), RetryPolicy::default(), true);
        c0.send(1, 5, vec![1.0, f64::NAN, 3.0]);
        match c1.recv(0, 5).unwrap_err() {
            RecvError::Poisoned { rank, source, tag, index } => {
                assert_eq!((rank, source, tag, index), (1, 0, 5, 1));
            }
            other => panic!("expected poison error, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_link_times_out_with_waited_context() {
        let plan = FaultPlan::default().with_poisoned_link(0, 1);
        let (c0, mut c1, _inj) =
            chaos_pair(plan, RetryPolicy { max_retries: 1, backoff: 2.0 }, false);
        c0.send(1, 0, vec![9.0]);
        match c1.recv(0, 0).unwrap_err() {
            RecvError::Timeout { rank, source, tag, waited } => {
                assert_eq!((rank, source, tag), (1, 0, 0));
                // base window 10ms + one retried 20ms window
                assert!(waited >= Duration::from_millis(30), "waited = {waited:?}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // the reverse edge still works
        c1.send(0, 1, vec![2.0]);
        let mut c0 = c0;
        assert_eq!(c0.recv(1, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn armed_inert_plan_changes_nothing_and_stays_pooled() {
        let (mut c0, mut c1, inj) =
            chaos_pair(FaultPlan::default(), RetryPolicy { max_retries: 2, backoff: 2.0 }, true);
        let h = thread::spawn(move || {
            for step in 0..4u64 {
                let lease = c1.recv_buf(0, step).unwrap();
                assert_eq!(&lease[..], &[step as f64]);
                drop(lease);
                c1.send(0, 100 + step, Vec::new());
            }
        });
        for step in 0..4u64 {
            let mut buf = c0.buf(1);
            buf.load(&[step as f64]);
            c0.send_buf(1, step, buf);
            c0.recv(1, 100 + step).unwrap();
        }
        h.join().unwrap();
        assert_eq!(c0.payload_allocations(), 1, "pool discipline intact under an armed layer");
        assert_eq!(inj.snapshot().injected(), 0);
    }
}
