//! Minimal message-passing substrate — the stand-in for the CM-5's CMMD
//! library that the paper's implementation would have been written against.
//!
//! The SVD executors in this workspace come in two flavours: the
//! *simulated* machine in `treesvd-sim` (synchronous, with modelled
//! communication costs) and a genuinely *distributed-style* executor in
//! which every processor is its own thread owning its two columns and
//! exchanging them by explicit point-to-point messages. This crate
//! provides the communication layer for the latter:
//!
//! * [`Communicator`] — the rank-addressed send/recv interface;
//! * [`ThreadWorld`] — a real multi-threaded implementation over
//!   std channels (one mailbox per rank, tag-matched receives);
//! * barrier and allreduce collectives built on the point-to-point layer,
//!   as a real message-passing library would.
//!
//! Like the paper's data network, the transport is lossless: a message is
//! never dropped, duplicated or corrupted. Each receive still waits at
//! most one bounded window, so an executor bug that never sends a message
//! surfaces as [`RecvError::Timeout`] rather than a hang.
//!
//! Messages are [`MsgBuf`] payloads with a `u64` tag; receives match on
//! `(source, tag)` exactly, so the deterministic schedules of
//! `treesvd-orderings` translate into deadlock-free, order-independent
//! exchanges (sends are buffered/asynchronous, like a buffered CMMD
//! `send_noblock`). Payloads move zero-copy: a pooled buffer is leased
//! from the sender's [`BufferPool`] and recycled when the receiver drops
//! the lease, while a detached one transfers ownership of its allocation
//! outright — either way the steady state of a long run allocates nothing
//! (see the `pool` module).
//!
//! ```
//! use treesvd_comm::ThreadWorld;
//!
//! let mut comms = ThreadWorld::new(2).into_communicators();
//! let mut c1 = comms.pop().unwrap();
//! let c0 = comms.pop().unwrap();
//! let worker = std::thread::spawn(move || c1.recv(0, 7).unwrap());
//! c0.send(1, 7, vec![1.0, 2.0]);
//! assert_eq!(worker.join().unwrap(), vec![1.0, 2.0]);
//! ```

#![deny(missing_docs)]

pub mod collectives;
#[cfg(feature = "hb-tracker")]
pub mod hb;
pub mod pool;
pub mod world;

pub use collectives::{allreduce_sum, allreduce_sum_in_place, barrier};
#[cfg(feature = "hb-tracker")]
pub use hb::RaceViolation;
pub use pool::{loopback_channel, BufferPool, MsgBuf};
pub use world::{Communicator, RecvError, ThreadWorld};
