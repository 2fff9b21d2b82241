//! Collectives built on the point-to-point layer: a dissemination barrier
//! and a recursive-doubling allreduce — the two operations the distributed
//! SVD driver needs (sweep synchronization and the global convergence
//! test).

use crate::world::{Communicator, RecvError};

/// Tag space reserved for collectives (high bit set, round in the low
/// bits); the SVD executor's data tags stay below this.
const COLLECTIVE_BASE: u64 = 1 << 63;

/// Dissemination barrier over all ranks: rank r waits, in round k, for
/// rank `r − 2^k` and signals rank `r + 2^k` (mod P). `epoch` keeps
/// successive barriers' messages apart.
///
/// # Errors
/// Propagates receive errors (a timeout means a rank died or diverged).
pub fn barrier(comm: &mut Communicator, epoch: u64) -> Result<(), RecvError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let rank = comm.rank();
    let rounds = usize::BITS - (p - 1).leading_zeros();
    for k in 0..rounds {
        let dist = 1usize << k;
        let to = (rank + dist) % p;
        let from = (rank + p - dist) % p;
        let tag = COLLECTIVE_BASE | (epoch << 8) | k as u64;
        comm.send(to, tag, Vec::new());
        comm.recv(from, tag)?;
    }
    Ok(())
}

/// Allreduce (sum) of a small vector over all ranks, in place: a binomial
/// tree reduce toward rank 0 followed by the mirrored binomial broadcast.
/// Exact for any rank count. Every payload travels in a pooled
/// [`MsgBuf`](crate::MsgBuf) leased from the sender — no `clone()` per
/// level, and after the first epoch warms each rank's pool the collective
/// runs allocation-free (asserted in this module's tests).
///
/// The tree changes the order partial sums combine in compared to the old
/// gather-to-root loop; the SVD driver only reduces small integer-valued
/// counters (exact in `f64`), so results are unchanged.
///
/// # Errors
/// Propagates receive errors.
///
/// # Panics
/// Panics if ranks pass different-length vectors.
pub fn allreduce_sum_in_place(
    comm: &mut Communicator,
    epoch: u64,
    local: &mut [f64],
) -> Result<(), RecvError> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let rank = comm.rank();
    let base = COLLECTIVE_BASE | (1 << 62) | (epoch << 8);
    // Reduce: at distance d = 2^k, every rank that is an odd multiple of d
    // ships its partial sum to the even multiple d below it and goes
    // passive; rank 0 absorbs a partner per level.
    let mut dist = 1usize;
    let mut passive_at = None;
    while dist < p {
        let up_tag = base | ((dist.trailing_zeros() as u64) << 1);
        if rank.is_multiple_of(2 * dist) {
            let partner = rank + dist;
            if partner < p {
                let lease = comm.recv_buf(partner, up_tag)?;
                assert_eq!(lease.len(), local.len(), "allreduce length mismatch");
                for (l, r) in local.iter_mut().zip(lease.iter()) {
                    *l += r;
                }
            }
        } else {
            let partner = rank - dist;
            let mut buf = comm.buf(local.len());
            buf.load(local);
            comm.send_buf(partner, up_tag, buf);
            passive_at = Some(dist);
            break;
        }
        dist *= 2;
    }
    // Broadcast: mirror the tree. A rank that went passive at distance d
    // receives the total from its parent there, then relays to its own
    // children at distances d/2, d/4, …, 1; rank 0 starts at the top.
    let top = match passive_at {
        Some(d) => {
            let down_tag = base | ((d.trailing_zeros() as u64) << 1) | 1;
            let lease = comm.recv_buf(rank - d, down_tag)?;
            assert_eq!(lease.len(), local.len(), "allreduce length mismatch");
            local.copy_from_slice(&lease);
            d / 2
        }
        None => dist / 2,
    };
    // Take every relay buffer before sending any: at this point nothing
    // leased from this rank's pool is still in flight (the reduce/down
    // receives above prove all prior leases returned), so availability is
    // deterministic and the pool's population settles at exactly the relay
    // fan-out after the first epoch — a lucky fast return in the warm-up
    // epoch can no longer under-provision the steady state.
    let mut relays = Vec::new();
    let mut d = top;
    while d >= 1 {
        if rank + d < p {
            relays.push((d, comm.buf(local.len())));
        }
        d /= 2;
    }
    for (d, mut buf) in relays {
        let down_tag = base | ((d.trailing_zeros() as u64) << 1) | 1;
        buf.load(local);
        comm.send_buf(rank + d, down_tag, buf);
    }
    Ok(())
}

/// Allreduce (sum) of a small vector over all ranks — the owned-`Vec`
/// wrapper over [`allreduce_sum_in_place`].
///
/// # Errors
/// Propagates receive errors.
///
/// # Panics
/// Panics if ranks pass different-length vectors.
pub fn allreduce_sum(
    comm: &mut Communicator,
    epoch: u64,
    mut local: Vec<f64>,
) -> Result<Vec<f64>, RecvError> {
    allreduce_sum_in_place(comm, epoch, &mut local)?;
    Ok(local)
}

#[cfg(test)]
mod tests {
    use crate::world::ThreadWorld;
    use std::thread;

    #[test]
    fn barrier_all_ranks_pass() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let world = ThreadWorld::new(p);
            let handles: Vec<_> = world
                .into_communicators()
                .into_iter()
                .map(|mut c| {
                    thread::spawn(move || {
                        for epoch in 0..3 {
                            super::barrier(&mut c, epoch).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for p in [1usize, 2, 4, 5, 8] {
            let world = ThreadWorld::new(p);
            let handles: Vec<_> = world
                .into_communicators()
                .into_iter()
                .map(|mut c| {
                    thread::spawn(move || {
                        let rank = c.rank() as f64;
                        super::allreduce_sum(&mut c, 0, vec![rank, 1.0]).unwrap()
                    })
                })
                .collect();
            let expect_sum: f64 = (0..p).map(|r| r as f64).sum();
            for h in handles {
                let v = h.join().unwrap();
                assert_eq!(v, vec![expect_sum, p as f64]);
            }
        }
    }

    #[test]
    fn allreduce_exact_for_non_power_of_two() {
        let p = 3;
        let world = ThreadWorld::new(p);
        let handles: Vec<_> = world
            .into_communicators()
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || super::allreduce_sum(&mut c, 9, vec![1.0]).unwrap()[0])
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3.0);
        }
    }

    #[test]
    fn allreduce_is_allocation_free_after_warmup() {
        for p in [2usize, 3, 4, 8] {
            let world = ThreadWorld::new(p);
            let handles: Vec<_> = world
                .into_communicators()
                .into_iter()
                .map(|mut c| {
                    thread::spawn(move || {
                        let mut acc = [c.rank() as f64, 1.0];
                        // epoch 0 warms the pool ...
                        super::allreduce_sum_in_place(&mut c, 0, &mut acc).unwrap();
                        let warm = c.payload_allocations();
                        // ... every later epoch reuses leased storage
                        for epoch in 1..12u64 {
                            acc = [c.rank() as f64, 1.0];
                            super::allreduce_sum_in_place(&mut c, epoch, &mut acc).unwrap();
                        }
                        (acc, warm, c.payload_allocations())
                    })
                })
                .collect();
            let expect: f64 = (0..p).map(|r| r as f64).sum();
            for h in handles {
                let (acc, warm, steady) = h.join().unwrap();
                assert_eq!(acc, [expect, p as f64]);
                assert_eq!(steady, warm, "P={p}: allreduce allocated after warm-up");
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let p = 4;
        let world = ThreadWorld::new(p);
        let handles: Vec<_> = world
            .into_communicators()
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let mut sums = Vec::new();
                    for epoch in 0..5u64 {
                        super::barrier(&mut c, epoch).unwrap();
                        let v = super::allreduce_sum(&mut c, epoch, vec![epoch as f64]).unwrap();
                        sums.push(v[0]);
                    }
                    sums
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0.0, 4.0, 8.0, 12.0, 16.0]);
        }
    }
}
