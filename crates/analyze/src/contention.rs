//! The §5 contention proof: map a schedule onto a tree topology and prove
//! no interior channel ever becomes the bottleneck — or report the first
//! violating (step, channel).
//!
//! Every message unavoidably serializes through its endpoint (level-1)
//! channels, so the *endpoint* drain time is the floor of a phase.
//! Contention, in the sense of the paper's "no contention will occur
//! anywhere in the tree" guarantee for the hybrid ordering, is an interior
//! channel draining slower than that floor. The proof simply replays each
//! step's `move_after` as a routed [`Phase`] and compares per-channel
//! `load/capacity` ratios.

use crate::report::Violation;
use treesvd_net::routing::Channel;
use treesvd_net::{Message, Phase, Topology};
use treesvd_orderings::Program;

/// A successful contention proof: the witness numbers backing the claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionProof {
    /// Worst per-phase contention factor across the sweep (≤ 1.0).
    pub max_contention: f64,
    /// The step attaining the worst factor (0 when the sweep is silent).
    pub worst_step: usize,
    /// Total messages routed through the tree.
    pub messages: usize,
}

/// Prove the zero-contention claim for `prog` on `topo`, with columns of
/// `words_per_column` words, or report the first violating (step, channel).
///
/// Processor `p` (slots `2p`, `2p+1`) is mapped to leaf `p`; the topology
/// must have at least `n/2` leaves.
///
/// # Errors
/// [`Violation::ChannelOverload`] naming the first step whose phase loads
/// an interior channel beyond the busiest endpoint channel, and the worst
/// such channel (the smallest in [`Channel`]'s order among ties).
///
/// # Panics
/// Panics if the topology has fewer than `n/2` leaves.
pub fn verify_contention(
    prog: &Program,
    topo: &Topology,
    words_per_column: u64,
) -> Result<ContentionProof, Violation> {
    assert!(2 * topo.leaves() >= prog.n, "topology too small for the program");
    let mut proof = ContentionProof { max_contention: 0.0, worst_step: 0, messages: 0 };
    for (step, pair_step) in prog.steps.iter().enumerate() {
        let messages: Vec<Message> = pair_step
            .move_after
            .inter_processor_moves()
            .into_iter()
            .map(|(f, t)| Message { src: f / 2, dst: t / 2, words: words_per_column })
            .collect();
        proof.messages += messages.len();
        let loads = Phase::new(topo, messages).channel_loads();
        let factor = loads.contention(topo);
        if factor > proof.max_contention {
            proof.max_contention = factor;
            proof.worst_step = step;
        }
        if factor > 1.0 {
            // the witness: the interior channel with the worst load ratio,
            // the smallest such channel when several tie
            let ratio = |c: &Channel, w: u64| w as f64 / topo.capacity(c.level) as f64;
            let (channel, load) = loads
                .iter()
                .filter(|(c, _)| c.level >= 2)
                .max_by(|(c1, w1), (c2, w2)| {
                    ratio(c1, *w1).total_cmp(&ratio(c2, *w2)).then_with(|| c2.cmp(c1))
                })
                .expect("contention > 1 implies a loaded interior channel");
            return Err(Violation::ChannelOverload {
                step,
                channel,
                load,
                capacity: topo.capacity(channel.level),
                factor,
            });
        }
    }
    Ok(proof)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_net::TopologyKind;
    use treesvd_orderings::{FatTreeOrdering, HybridOrdering, JacobiOrdering, RingOrdering};

    fn sweep(ord: &dyn JacobiOrdering) -> Program {
        ord.sweep_program(0, &ord.initial_layout())
    }

    #[test]
    fn hybrid_zero_contention_on_cm5() {
        // §5: with group size 4 (blocks of 2 columns) the CM-5 tree's
        // lowest skinny level is never oversubscribed.
        let n = 64;
        let ord = HybridOrdering::new(n, n / 4).unwrap();
        let topo = Topology::new(TopologyKind::Cm5, n / 2);
        let proof = verify_contention(&sweep(&ord), &topo, 64).unwrap();
        assert!(proof.max_contention <= 1.0);
        assert!(proof.messages > 0);
    }

    #[test]
    fn fat_tree_ordering_contends_on_binary_tree() {
        let n = 64;
        let ord = FatTreeOrdering::new(n).unwrap();
        let topo = Topology::new(TopologyKind::BinaryTree, n / 2);
        match verify_contention(&sweep(&ord), &topo, 64) {
            Err(Violation::ChannelOverload { step, channel, load, capacity, factor }) => {
                assert!(channel.level >= 2, "violating channel must be interior");
                assert!(load > capacity, "load {load} vs capacity {capacity}");
                assert!(factor > 1.0);
                // the first high-level merge stage is where it breaks
                assert!(step < n - 1);
            }
            other => panic!("expected ChannelOverload, got {other:?}"),
        }
    }

    #[test]
    fn overload_witness_is_the_smallest_tied_channel() {
        // symmetric traffic ties many interior channels at the worst
        // ratio; the witness must not depend on iteration order
        let prog = sweep(&FatTreeOrdering::new(32).unwrap());
        let topo = Topology::new(TopologyKind::BinaryTree, 16);
        let witness = || verify_contention(&prog, &topo, 1).unwrap_err().to_string();
        let first = witness();
        assert_eq!(
            first,
            "step 4: down channel at level 2 above node 0 carries 2 words over capacity 1 \
             (contention factor 2.00)"
        );
        for _ in 0..20 {
            assert_eq!(witness(), first);
        }
    }

    #[test]
    fn ring_contention_free_on_binary_tree() {
        let ord = RingOrdering::new(32).unwrap();
        let topo = Topology::new(TopologyKind::BinaryTree, 16);
        assert!(verify_contention(&sweep(&ord), &topo, 32).is_ok());
    }

    #[test]
    fn everything_contention_free_on_perfect_fat_tree() {
        for n in [8usize, 16, 32] {
            let ord = FatTreeOrdering::new(n).unwrap();
            let topo = Topology::new(TopologyKind::PerfectFatTree, n / 2);
            let proof = verify_contention(&sweep(&ord), &topo, 64).unwrap();
            assert!(proof.max_contention <= 1.0, "n = {n}: {}", proof.max_contention);
        }
    }
}
