//! Timing model: turning channel loads into phase times.
//!
//! The model is the standard postal/LogP-flavoured abstraction used for
//! fat-tree machines: a phase of simultaneous messages finishes when the
//! busiest channel has drained. Channel drain time is
//! `words / capacity × beta`; add a fixed per-phase startup `alpha` and a
//! per-hop switch latency `hop × 2r_max`. Absolute constants are
//! deliberately parameterized — the experiments compare *shapes* across
//! orderings and topologies, not 1993 hardware microseconds.

use crate::topology::Topology;
use crate::traffic::Phase;

/// Cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-phase startup latency (charged once if any message moves).
    pub alpha: f64,
    /// Transfer time per word per unit capacity.
    pub beta: f64,
    /// Per-hop switch latency.
    pub hop: f64,
    /// Time per floating-point operation (for streaming compute: long
    /// column traversals that miss cache on every pass).
    pub gamma: f64,
    /// Time per floating-point operation for cache-blocked panel kernels
    /// (Gram build, `[X Y]·W` panel product, compact-WY updates). On real
    /// hardware these run closer to peak than streaming rotations, which
    /// is why the Gram meeting beats pairwise despite similar flop counts.
    pub gamma_panel: f64,
}

impl Default for CostModel {
    /// A ratio set loosely inspired by CM-5-class machines: startup ≫ per
    /// word ≫ per flop, with panel flops cheaper than streaming flops.
    fn default() -> Self {
        CostModel { alpha: 100.0, beta: 1.0, hop: 5.0, gamma: 0.05, gamma_panel: 0.02 }
    }
}

/// The cost breakdown of one communication phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCost {
    /// Total phase time.
    pub time: f64,
    /// The serialization component (busiest channel drain).
    pub serialization: f64,
    /// The latency component (startup + hops).
    pub latency: f64,
    /// Contention factor of the phase (see
    /// [`ChannelLoads::contention`](crate::traffic::ChannelLoads::contention)).
    pub contention: f64,
    /// Highest communication level used.
    pub max_level: usize,
}

impl CostModel {
    /// Time for one communication phase on `topo`.
    pub fn phase_cost(&self, topo: &Topology, phase: &Phase) -> PhaseCost {
        if phase.message_count() == 0 {
            return PhaseCost {
                time: 0.0,
                serialization: 0.0,
                latency: 0.0,
                contention: 0.0,
                max_level: 0,
            };
        }
        let loads = phase.channel_loads();
        let serialization = (1..=topo.levels())
            .map(|k| loads.level_max(k) as f64 / topo.capacity(k) as f64 * self.beta)
            .fold(0.0, f64::max);
        let latency = self.alpha + self.hop * (2 * phase.max_level()) as f64;
        PhaseCost {
            time: serialization + latency,
            serialization,
            latency,
            contention: loads.contention(topo),
            max_level: phase.max_level(),
        }
    }

    /// Time for one computation step: every processor rotates one column
    /// pair of length `m` in parallel. A Hestenes rotation costs three
    /// fused dot products (`6m` flops) plus the two-column update (`8m`
    /// flops).
    pub fn rotation_cost(&self, m: usize) -> f64 {
        self.gamma * (14 * m) as f64
    }

    /// Compute cost of one *pairwise* blocked meeting: two width-`c`
    /// panels of column length `m` meet and every cross/intra pair among
    /// the `2c` columns is orthogonalized by a streamed Hestenes rotation
    /// (`14m` flops), plus the `8·v_rows` V-update per pair when singular
    /// vectors are accumulated (`v_rows = 0` otherwise).
    pub fn pairwise_meeting_cost(&self, c: usize, m: usize, v_rows: usize) -> f64 {
        let k = 2 * c;
        let pairs = (k * (k - 1) / 2) as f64;
        self.gamma * pairs * (14 * m + 8 * v_rows) as f64
    }

    /// Compute cost of one *Gram* blocked meeting over the same `2c`
    /// columns: build the `2c×2c` Gram matrix (`k²m` flops), run an
    /// in-cache Jacobi on it (O(k³), charged at the streaming rate — it
    /// is tiny), then apply the accumulated rotation as one panel product
    /// to A (and V when `v_rows > 0`), `2k²·rows` flops each. Panel flops
    /// are charged at `gamma_panel` only while the working set fits the
    /// cache (`in_cache`); an oversized panel degrades to streaming rate,
    /// which is exactly what the hierarchical-blocking level exists to
    /// avoid.
    pub fn gram_meeting_cost(&self, c: usize, m: usize, v_rows: usize, in_cache: bool) -> f64 {
        let k = (2 * c) as f64;
        let panel_flops = k * k * m as f64 + 2.0 * k * k * (m + v_rows) as f64;
        let incache_flops = 4.0 * k * k * k;
        let g_panel = if in_cache { self.gamma_panel } else { self.gamma };
        g_panel * panel_flops + self.gamma * incache_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;
    use crate::traffic::Message;

    fn model() -> CostModel {
        CostModel { alpha: 10.0, beta: 1.0, hop: 2.0, gamma: 0.1, gamma_panel: 0.04 }
    }

    /// One far exchange phase on a `p`-leaf fat-tree: leaf `i` swaps
    /// `words`-word columns with leaf `i + p/2`.
    fn far_exchange(p: usize, words: u64) -> (Topology, Phase) {
        let topo = Topology::new(TopologyKind::PerfectFatTree, p);
        let msgs = (0..p / 2)
            .flat_map(|i| {
                [
                    Message { src: i, dst: i + p / 2, words },
                    Message { src: i + p / 2, dst: i, words },
                ]
            })
            .collect();
        let phase = Phase::new(&topo, msgs);
        (topo, phase)
    }

    #[test]
    fn empty_phase_is_free() {
        let topo = Topology::new(TopologyKind::PerfectFatTree, 8);
        let phase = Phase::new(&topo, vec![]);
        let c = model().phase_cost(&topo, &phase);
        assert_eq!(c.time, 0.0);
    }

    #[test]
    fn sibling_exchange_cost() {
        let topo = Topology::new(TopologyKind::PerfectFatTree, 8);
        let phase = Phase::new(
            &topo,
            vec![Message { src: 0, dst: 1, words: 8 }, Message { src: 1, dst: 0, words: 8 }],
        );
        let c = model().phase_cost(&topo, &phase);
        // busiest channel: 8 words / capacity 1 = 8; latency 10 + 2*2
        assert_eq!(c.serialization, 8.0);
        assert_eq!(c.latency, 14.0);
        assert_eq!(c.time, 22.0);
        assert_eq!(c.max_level, 1);
    }

    #[test]
    fn contention_slows_binary_tree() {
        let topo_fat = Topology::new(TopologyKind::PerfectFatTree, 8);
        let topo_bin = Topology::new(TopologyKind::BinaryTree, 8);
        let msgs = vec![
            Message { src: 0, dst: 4, words: 8 },
            Message { src: 1, dst: 5, words: 8 },
            Message { src: 2, dst: 6, words: 8 },
            Message { src: 3, dst: 7, words: 8 },
        ];
        let fat_cost = model().phase_cost(&topo_fat, &Phase::new(&topo_fat, msgs.clone()));
        let bin_cost = model().phase_cost(&topo_bin, &Phase::new(&topo_bin, msgs));
        assert!(
            bin_cost.time > 2.0 * fat_cost.serialization,
            "binary tree should serialize root traffic: {bin_cost:?} vs {fat_cost:?}"
        );
        assert!(bin_cost.contention > fat_cost.contention);
    }

    #[test]
    fn rotation_cost_scales_with_m() {
        let m = model();
        assert!(m.rotation_cost(200) > m.rotation_cost(100));
        assert_eq!(m.rotation_cost(100), 0.1 * 1400.0);
    }

    #[test]
    fn default_model_orders_constants() {
        let d = CostModel::default();
        assert!(d.alpha > d.beta);
        assert!(d.beta > d.gamma);
        assert!(d.gamma_panel < d.gamma, "panel flops must be cheaper than streaming flops");
    }

    /// PhaseCost is monotone in the column length m (message words).
    #[test]
    fn phase_cost_monotone_in_m() {
        let mdl = model();
        let mut last = 0.0;
        for m in [64, 128, 256, 512, 1024] {
            let (topo, phase) = far_exchange(8, m);
            let c = mdl.phase_cost(&topo, &phase);
            assert!(c.time >= last, "phase time must not shrink as m grows (m={m})");
            assert!(c.serialization > 0.0);
            last = c.time;
        }
    }

    /// PhaseCost is monotone in P: a far exchange over more leaves climbs
    /// higher in the tree, so both latency and total time grow.
    #[test]
    fn phase_cost_monotone_in_p() {
        let mdl = model();
        let mut last_time = 0.0;
        let mut last_level = 0;
        for p in [4, 8, 16, 32] {
            let (topo, phase) = far_exchange(p, 128);
            let c = mdl.phase_cost(&topo, &phase);
            assert!(c.time >= last_time, "phase time must not shrink as P grows (p={p})");
            assert!(c.max_level > last_level, "far exchange must climb with P (p={p})");
            last_time = c.time;
            last_level = c.max_level;
        }
    }

    /// Meeting costs are monotone in the block width c (and therefore in
    /// n at fixed P, since c = n / 2P).
    #[test]
    fn meeting_costs_monotone_in_c() {
        let mdl = model();
        let mut last_pw = 0.0;
        let mut last_gr = 0.0;
        for c in [1, 2, 4, 8, 16] {
            let pw = mdl.pairwise_meeting_cost(c, 256, 64);
            let gr = mdl.gram_meeting_cost(c, 256, 64, true);
            assert!(pw > last_pw, "pairwise cost must grow with c (c={c})");
            assert!(gr > last_gr, "gram cost must grow with c (c={c})");
            last_pw = pw;
            last_gr = gr;
        }
    }

    /// In-cache Gram panels are charged the panel rate; once the panel
    /// falls out of cache the advantage over pairwise must shrink.
    #[test]
    fn gram_in_cache_beats_out_of_cache() {
        let mdl = model();
        let hot = mdl.gram_meeting_cost(8, 4096, 4096, true);
        let cold = mdl.gram_meeting_cost(8, 4096, 4096, false);
        assert!(hot < cold);
        let pw = mdl.pairwise_meeting_cost(8, 4096, 4096);
        assert!(hot < pw, "in-cache gram must beat pairwise: {hot} vs {pw}");
    }
}
