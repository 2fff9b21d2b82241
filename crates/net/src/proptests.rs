//! Property-based tests of routing and traffic accounting.

#![cfg(test)]

use crate::routing::{comm_level, route, Channel};
use crate::topology::{Topology, TopologyKind};
use crate::traffic::{Message, Phase};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn route_lengths_match_level(a in 0usize..256, b in 0usize..256) {
        let r = route(a, b);
        prop_assert_eq!(r.channels.len(), 2 * r.level);
        prop_assert_eq!(r.level, comm_level(a, b));
    }

    #[test]
    fn comm_level_is_a_metric_like_quantity(a in 0usize..128, b in 0usize..128, c in 0usize..128) {
        // symmetry
        prop_assert_eq!(comm_level(a, b), comm_level(b, a));
        // identity
        prop_assert_eq!(comm_level(a, a), 0);
        // ultrametric triangle inequality: the LCA level of (a, c) is at
        // most the max of (a, b) and (b, c)
        prop_assert!(comm_level(a, c) <= comm_level(a, b).max(comm_level(b, c)));
    }

    #[test]
    fn route_up_channels_belong_to_source_subtree(a in 0usize..64, b in 0usize..64) {
        prop_assume!(a != b);
        let r = route(a, b);
        for ch in &r.channels {
            if ch.up {
                // the channel's child node contains the source leaf
                prop_assert_eq!(ch.node, a >> (ch.level - 1));
            } else {
                prop_assert_eq!(ch.node, b >> (ch.level - 1));
            }
        }
    }

    #[test]
    fn aggregate_bandwidth_monotone_families(e in 1u32..8) {
        let leaves = 1usize << e;
        let fat = Topology::new(TopologyKind::PerfectFatTree, leaves);
        let cm5 = Topology::new(TopologyKind::Cm5, leaves);
        let bin = Topology::new(TopologyKind::BinaryTree, leaves);
        for k in 1..=fat.levels() {
            // perfect >= cm5 >= binary at every level
            prop_assert!(fat.capacity(k) >= cm5.capacity(k));
            prop_assert!(cm5.capacity(k) >= bin.capacity(k));
        }
    }

    #[test]
    fn contention_never_negative_and_zero_iff_local(
        srcs in proptest::collection::vec(0usize..8, 1..6),
        dsts in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let n = srcs.len().min(dsts.len());
        let msgs: Vec<Message> = srcs
            .iter()
            .zip(dsts.iter())
            .take(n)
            .map(|(&s, &d)| Message { src: s, dst: d, words: 4 })
            .collect();
        let topo = Topology::new(TopologyKind::BinaryTree, 8);
        let phase = Phase::new(&topo, msgs.clone());
        let c = phase.contention(&topo);
        prop_assert!(c >= 0.0);
        let all_local = msgs.iter().all(|m| comm_level(m.src, m.dst) <= 1);
        if all_local {
            prop_assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn word_hops_consistent_with_histogram(
        pairs in proptest::collection::vec((0usize..16, 0usize..16), 1..10),
    ) {
        let topo = Topology::new(TopologyKind::PerfectFatTree, 16);
        let msgs: Vec<Message> =
            pairs.iter().map(|&(s, d)| Message { src: s, dst: d, words: 3 }).collect();
        let phase = Phase::new(&topo, msgs);
        let hist = phase.level_histogram(&topo);
        let expect: u64 = hist
            .iter()
            .enumerate()
            .map(|(lvl, &count)| 2 * lvl as u64 * 3 * count as u64)
            .sum();
        prop_assert_eq!(phase.word_hops(), expect);
    }

    #[test]
    fn channel_loads_conserve_words(
        pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..8),
    ) {
        let topo = Topology::new(TopologyKind::PerfectFatTree, 8);
        let msgs: Vec<Message> =
            pairs.iter().map(|&(s, d)| Message { src: s, dst: d, words: 5 }).collect();
        let phase = Phase::new(&topo, msgs.clone());
        let loads = phase.channel_loads();
        let total: u64 = loads.iter().map(|(_, w)| w).sum();
        let expect: u64 = msgs
            .iter()
            .map(|m| 2 * comm_level(m.src, m.dst) as u64 * m.words)
            .sum();
        prop_assert_eq!(total, expect);
    }

    #[test]
    fn dense_channel_loads_match_summed_routes(
        e in 1u32..7,
        kind in 0usize..4,
        cut in 1u32..5,
        raw in proptest::collection::vec((0usize..64, 0usize..64, 1u64..100), 0..24),
    ) {
        let leaves = 1usize << e;
        let kind = [
            TopologyKind::PerfectFatTree,
            TopologyKind::BinaryTree,
            TopologyKind::Cm5,
            TopologyKind::SkinnyAbove(cut),
        ][kind];
        let topo = Topology::new(kind, leaves);
        // every third message stays on its leaf
        let msgs: Vec<Message> = raw
            .iter()
            .enumerate()
            .map(|(i, &(s, d, words))| {
                let src = s % leaves;
                let dst = if i % 3 == 0 { src } else { d % leaves };
                Message { src, dst, words }
            })
            .collect();
        // the spec: sum each message's words over its route's channels
        let mut expect: BTreeMap<Channel, u64> = BTreeMap::new();
        for m in &msgs {
            for c in route(m.src, m.dst).channels {
                *expect.entry(c).or_insert(0) += m.words;
            }
        }
        let loads = Phase::new(&topo, msgs).channel_loads();
        // same channels, same words, in Channel order
        let got: Vec<(Channel, u64)> = loads.iter().collect();
        let want: Vec<(Channel, u64)> = expect.iter().map(|(&c, &w)| (c, w)).collect();
        prop_assert_eq!(got, want);
        for (&c, &w) in &expect {
            prop_assert_eq!(loads.load(c), w);
        }
        prop_assert_eq!(loads.max_load(), expect.values().copied().max().unwrap_or(0));
        for level in 1..=topo.levels() {
            let words: u64 = expect.iter().filter(|(c, _)| c.level == level).map(|(_, &w)| w).sum();
            prop_assert_eq!(loads.level_words(level), words);
        }
        let ratio = |(c, w): (&Channel, &u64)| *w as f64 / topo.capacity(c.level) as f64;
        let endpoint = expect.iter().filter(|(c, _)| c.level == 1).map(ratio).fold(0.0, f64::max);
        let interior = expect.iter().filter(|(c, _)| c.level >= 2).map(ratio).fold(0.0, f64::max);
        let contention = if endpoint == 0.0 { 0.0 } else { interior / endpoint };
        prop_assert_eq!(loads.contention(&topo), contention);
    }
}
