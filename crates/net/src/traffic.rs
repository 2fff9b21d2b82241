//! Per-phase traffic accounting: channel loads and contention.

use crate::routing::{comm_level, Channel};
use crate::topology::Topology;

/// One message: a column (or block) moving between leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source leaf.
    pub src: usize,
    /// Destination leaf.
    pub dst: usize,
    /// Payload size in words.
    pub words: u64,
}

/// Accumulated per-channel loads for one communication phase (all the
/// messages between two computation steps, injected simultaneously).
///
/// One counter per directed channel of the tree, laid out in
/// [`Channel`]'s order: direction (down before up), then level, then
/// node. Level `k` holds [`Topology::channels_at`]`(k) = leaves >> (k−1)`
/// counters per direction.
#[derive(Debug, Clone)]
pub struct ChannelLoads {
    leaves: usize,
    words: Vec<u64>,
}

impl ChannelLoads {
    /// Empty loads for a tree with `leaves` leaves.
    fn new(leaves: usize) -> Self {
        Self { leaves, words: vec![0; 2 * Self::per_direction(leaves)] }
    }

    /// Channels per direction over all levels: `leaves + leaves/2 + … + 2`.
    fn per_direction(leaves: usize) -> usize {
        2 * leaves - 2
    }

    fn levels(&self) -> usize {
        self.leaves.trailing_zeros() as usize
    }

    /// Index of the first level-`level` counter within one direction
    /// (`levels + 1` gives the direction's length).
    fn level_start(&self, level: usize) -> usize {
        2 * self.leaves - ((2 * self.leaves) >> (level - 1))
    }

    /// Counter index of the up (or down) channel above `node` at `level`.
    fn index(&self, up: bool, level: usize, node: usize) -> usize {
        usize::from(up) * Self::per_direction(self.leaves) + self.level_start(level) + node
    }

    /// Add `words` to every channel of the up-over-down route from `src`
    /// to `dst` (the channels of [`route`](crate::routing::route)).
    fn add_route(&mut self, src: usize, dst: usize, words: u64) {
        for k in 1..=comm_level(src, dst) {
            let up = self.index(true, k, src >> (k - 1));
            self.words[up] += words;
            let down = self.index(false, k, dst >> (k - 1));
            self.words[down] += words;
        }
    }

    /// Words crossing `channel` this phase.
    pub fn load(&self, channel: Channel) -> u64 {
        let Channel { up, level, node } = channel;
        if level == 0 || level > self.levels() || node >= self.leaves >> (level - 1) {
            return 0;
        }
        self.words[self.index(up, level, node)]
    }

    /// All loaded channels with their word counts, in [`Channel`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Channel, u64)> + '_ {
        let (leaves, levels) = (self.leaves, self.levels());
        [false, true]
            .into_iter()
            .flat_map(move |up| {
                (1..=levels).flat_map(move |level| {
                    (0..leaves >> (level - 1)).map(move |node| Channel { up, level, node })
                })
            })
            .zip(self.words.iter().copied())
            .filter(|&(_, w)| w > 0)
    }

    /// Total words crossing channels at `level` (both directions).
    pub fn level_words(&self, level: usize) -> u64 {
        self.iter().filter(|(c, _)| c.level == level).map(|(_, w)| w).sum()
    }

    /// The busiest channel's load in words, or 0 if the phase is empty.
    pub fn max_load(&self) -> u64 {
        self.words.iter().copied().max().unwrap_or(0)
    }

    /// The busiest level-`level` channel's load in words, either direction.
    /// Capacity is per level, so this channel also has the level's worst
    /// `load/capacity`.
    pub(crate) fn level_max(&self, level: usize) -> u64 {
        let (start, end) = (self.level_start(level), self.level_start(level + 1));
        let (down, up) = self.words.split_at(Self::per_direction(self.leaves));
        down[start..end].iter().chain(&up[start..end]).copied().max().unwrap_or(0)
    }

    /// The **contention factor** on `topo`: how much slower the tree's
    /// *interior* is than the phase's busiest *endpoint*.
    ///
    /// Every message necessarily serializes through its source and
    /// destination leaf channels (level 1), so that injection time is the
    /// unavoidable floor of the phase. Contention — in the sense of the
    /// CM-5 measurements \[13\] and §5's "no contention will occur
    /// anywhere in the tree" guarantee — happens when messages from
    /// *different* sources pile up on a shared interior channel and make it
    /// drain slower than that floor:
    ///
    /// ```text
    /// contention = max_{level ≥ 2 channels} (load/capacity)
    ///            / max_{level 1 channels}   (load/capacity)
    /// ```
    ///
    /// A value ≤ 1 means the interior is never the bottleneck
    /// (contention-free); `k > 1` means some interior wire serializes `k×`
    /// longer than any endpoint. Returns 0 for an empty phase or one that
    /// never leaves level 1.
    pub fn contention(&self, topo: &Topology) -> f64 {
        let ratio = |level| self.level_max(level) as f64 / topo.capacity(level) as f64;
        let endpoint = ratio(1);
        let interior = (2..=self.levels()).map(ratio).fold(0.0, f64::max);
        if endpoint == 0.0 {
            0.0
        } else {
            interior / endpoint
        }
    }
}

/// One communication phase: a set of simultaneous messages on a topology.
#[derive(Debug, Clone)]
pub struct Phase {
    messages: Vec<Message>,
    max_level: usize,
    leaves: usize,
}

impl Phase {
    /// Build a phase from messages, validating leaves against `topo`.
    ///
    /// # Panics
    /// Panics if a message references a leaf outside the topology.
    pub fn new(topo: &Topology, messages: Vec<Message>) -> Self {
        let mut max_level = 0;
        for m in &messages {
            assert!(m.src < topo.leaves() && m.dst < topo.leaves(), "leaf out of range");
            max_level = max_level.max(comm_level(m.src, m.dst));
        }
        Self { messages, max_level, leaves: topo.leaves() }
    }

    /// The messages in this phase.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// The highest communication level any message reaches — the paper's
    /// level-r of the phase.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Total message count (excluding src == dst no-ops).
    pub fn message_count(&self) -> usize {
        self.messages.iter().filter(|m| m.src != m.dst).count()
    }

    /// Total words moved, weighted by hops (a words×hops volume metric).
    pub fn word_hops(&self) -> u64 {
        self.messages.iter().map(|m| 2 * comm_level(m.src, m.dst) as u64 * m.words).sum()
    }

    /// Accumulate per-channel loads.
    pub fn channel_loads(&self) -> ChannelLoads {
        let mut loads = ChannelLoads::new(self.leaves);
        for m in &self.messages {
            loads.add_route(m.src, m.dst, m.words);
        }
        loads
    }

    /// The contention factor of this phase on `topo`: the
    /// [`ChannelLoads::contention`] of its [`channel_loads`](Self::channel_loads).
    pub fn contention(&self, topo: &Topology) -> f64 {
        self.channel_loads().contention(topo)
    }

    /// Histogram of message counts by communication level; `hist[r]` counts
    /// level-r messages (index 0 = co-located no-ops).
    pub fn level_histogram(&self, topo: &Topology) -> Vec<usize> {
        let mut hist = vec![0usize; topo.levels() + 1];
        for m in &self.messages {
            hist[comm_level(m.src, m.dst)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn topo8() -> Topology {
        Topology::new(TopologyKind::PerfectFatTree, 8)
    }

    #[test]
    fn empty_phase() {
        let p = Phase::new(&topo8(), vec![]);
        assert_eq!(p.max_level(), 0);
        assert_eq!(p.message_count(), 0);
        assert_eq!(p.contention(&topo8()), 0.0);
        assert_eq!(p.word_hops(), 0);
    }

    #[test]
    fn sibling_exchange_loads_level_one_only() {
        let p = Phase::new(
            &topo8(),
            vec![Message { src: 0, dst: 1, words: 10 }, Message { src: 1, dst: 0, words: 10 }],
        );
        let loads = p.channel_loads();
        assert_eq!(loads.level_words(1), 40); // 2 msgs × (1 up + 1 down) × 10
        assert_eq!(loads.level_words(2), 0);
        assert_eq!(p.max_level(), 1);
    }

    #[test]
    fn contention_on_binary_tree_root() {
        // 4 messages all crossing the root of an 8-leaf binary tree, going
        // to 4 distinct destinations: the 4 up-routes share only partially,
        // but each up channel at level 3 has capacity 1.
        let topo = Topology::new(TopologyKind::BinaryTree, 8);
        let msgs = vec![
            Message { src: 0, dst: 4, words: 5 },
            Message { src: 1, dst: 5, words: 5 },
            Message { src: 2, dst: 6, words: 5 },
            Message { src: 3, dst: 7, words: 5 },
        ];
        let p = Phase::new(&topo, msgs.clone());
        // all four ascend through the single level-3 up channel of node 0
        assert!(p.contention(&topo) >= 4.0);
        // the same phase on a perfect fat-tree: level-3 capacity 4 -> free
        let fat = topo8();
        let p2 = Phase::new(&fat, msgs);
        assert!(p2.contention(&fat) <= 1.0);
    }

    #[test]
    fn level_histogram_counts() {
        let p = Phase::new(
            &topo8(),
            vec![
                Message { src: 0, dst: 0, words: 1 },
                Message { src: 0, dst: 1, words: 1 },
                Message { src: 0, dst: 2, words: 1 },
                Message { src: 0, dst: 4, words: 1 },
            ],
        );
        assert_eq!(p.level_histogram(&topo8()), vec![1, 1, 1, 1]);
    }

    #[test]
    fn word_hops_scale_with_level() {
        let p = Phase::new(&topo8(), vec![Message { src: 0, dst: 7, words: 3 }]);
        assert_eq!(p.word_hops(), 2 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "leaf out of range")]
    fn rejects_bad_leaf() {
        let _ = Phase::new(&topo8(), vec![Message { src: 0, dst: 9, words: 1 }]);
    }
}
