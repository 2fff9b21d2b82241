//! The communicator and its threaded implementation.

use crate::pool::{BufferPool, MsgBuf};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// The receive window of [`ThreadWorld::new`]. The transport is lossless,
/// so a receive only waits this long when the schedule never sends the
/// message — an executor bug, which the window turns into a
/// [`RecvError::Timeout`] instead of a hang.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// A point-to-point message: payload plus matching metadata.
#[derive(Debug)]
struct Envelope {
    source: usize,
    tag: u64,
    payload: MsgBuf,
    /// Sender's vector clock at the send — the happens-before piggyback.
    #[cfg(feature = "hb-tracker")]
    clock: Vec<u64>,
}

/// Errors from a blocking receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The matching message did not arrive within the receive window — a
    /// schedule bug, since the transport never loses a message.
    Timeout {
        /// Rank that was waiting.
        rank: usize,
        /// Expected source rank.
        source: usize,
        /// Expected tag.
        tag: u64,
        /// Time spent blocked on this edge.
        waited: Duration,
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
            RecvError::Disconnected => write!(f, "communicator torn down"),
        }
    }
}

impl std::error::Error for RecvError {}

/// One rank's endpoint: send to any rank, receive tag-matched messages.
///
/// Receives match on `(source, tag)`; out-of-order arrivals are parked in a
/// local pending buffer, so any send/recv interleaving consistent with the
/// schedule is accepted.
pub struct Communicator {
    rank: usize,
    size: usize,
    inbox: Receiver<Envelope>,
    peers: Vec<Sender<Envelope>>,
    pending: Vec<Envelope>,
    recv_timeout: Duration,
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

    /// Asynchronous (buffered) send of `payload` to `dest` with `tag`.
    ///
    /// The buffer travels by reference-move, never by copy: a pooled
    /// buffer comes back to this rank's pool when the receiver drops its
    /// lease; a [detached](MsgBuf::detached) one transfers ownership of
    /// the allocation outright.
    ///
    /// # Panics
    /// Panics if `dest` is out of range or the destination endpoint is
    /// gone.
    pub fn send_buf(&self, dest: usize, tag: u64, payload: MsgBuf) {
        assert!(dest < self.size, "rank {dest} out of range");
        // unbounded channel: cannot block, cannot deadlock
        self.peers[dest]
            .send(Envelope {
                source: self.rank,
                tag,
                payload,
                #[cfg(feature = "hb-tracker")]
                clock: self.hb.tick_send(),
            })
            .expect("world torn down during send");
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

    /// Blocking receive of the message with exactly `(source, tag)`,
    /// returning the payload as a lease. Dropping the lease recycles the
    /// storage into the *sender's* pool; [`MsgBuf::detach`] adopts it.
    ///
    /// A parked arrival matches first; otherwise the inbox is drained,
    /// parking every non-matching arrival, for at most one receive window.
    ///
    /// # Errors
    /// [`RecvError::Timeout`] if nothing matching arrives within the
    /// window, or [`RecvError::Disconnected`] if the world died.
    pub fn recv_buf(&mut self, source: usize, tag: u64) -> Result<MsgBuf, RecvError> {
        let start = Instant::now();
        let env = match self.pending.iter().position(|e| e.source == source && e.tag == tag) {
            Some(idx) => self.pending.swap_remove(idx),
            None => loop {
                let left = self.recv_timeout.saturating_sub(start.elapsed());
                match self.inbox.recv_timeout(left) {
                    Ok(env) if env.source == source && env.tag == tag => break env,
                    Ok(env) => self.pending.push(env),
                    Err(RecvTimeoutError::Timeout) => {
                        let waited = start.elapsed();
                        return Err(RecvError::Timeout { rank: self.rank, source, tag, waited });
                    }
                    Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Disconnected),
                }
            },
        };
        #[cfg(feature = "hb-tracker")]
        self.hb.join(&env.clock);
        Ok(env.payload)
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
    /// window.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        Self::with_timeout(size, DEFAULT_RECV_TIMEOUT)
    }

    /// Create a world with an explicit receive window (tests use short
    /// ones to exercise the failure path).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn with_timeout(size: usize, recv_timeout: Duration) -> Self {
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
                recv_timeout,
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
}
