//! Integration tests of the simulated machine: numerics are
//! schedule-faithful, costs are topology-faithful, and the two never
//! interfere.

use treesvd_core::{HestenesSvd, SvdOptions};
use treesvd_matrix::generate;
use treesvd_net::routing::comm_level;
use treesvd_net::{CostModel, Message, Phase, PhaseCost, Topology, TopologyKind};
use treesvd_orderings::{OrderingKind, Program};
use treesvd_sim::{analyze_program, execute_program, ColumnStore, ExecConfig, Machine, SortMode};

fn machine(kind: TopologyKind, n: usize) -> Machine {
    Machine::new(Topology::new(kind, (n / 2).next_power_of_two()), CostModel::default())
}

/// One sweep's communication accounting priced step by step from the
/// public `Phase` and `CostModel`, the way the executor once did it:
/// per-step phase costs, their running sum, and the level histogram.
fn price_per_step(
    machine: &Machine,
    prog: &Program,
    words: u64,
) -> (Vec<PhaseCost>, f64, Vec<usize>) {
    let topo = machine.topology();
    let mut phases = Vec::with_capacity(prog.steps.len());
    let mut comm_time = 0.0;
    let mut histogram = vec![0; topo.levels() + 1];
    for step in &prog.steps {
        let messages: Vec<Message> = step
            .move_after
            .as_dest_slice()
            .iter()
            .enumerate()
            .filter(|&(s, &d)| s / 2 != d / 2)
            .map(|(s, &d)| Message { src: s / 2, dst: d / 2, words })
            .collect();
        for msg in &messages {
            histogram[comm_level(msg.src, msg.dst)] += 1;
        }
        let cost = machine.cost().phase_cost(topo, &Phase::new(topo, messages));
        comm_time += cost.time;
        phases.push(cost);
    }
    (phases, comm_time, histogram)
}

#[test]
fn executed_stats_match_dry_run_analysis() {
    // the driver prices each program of the restore period once; every
    // sweep's accounting must equal a step-by-step pricing exactly, for
    // every ordering, topology and payload, on a padded column count
    let (m, n) = (15, 13);
    let a = generate::random_uniform(m, n, 1);
    let topologies = [
        TopologyKind::PerfectFatTree,
        TopologyKind::BinaryTree,
        TopologyKind::Cm5,
        TopologyKind::SkinnyAbove(2),
    ];
    for kind in OrderingKind::ALL {
        for topology in topologies {
            for vectors in [false, true] {
                let ctx = format!("{kind} on {topology}, vectors {vectors}");
                // the front-end off: the stats price A's column length
                let options = SvdOptions::default()
                    .with_qr_frontend(false)
                    .with_ordering(kind)
                    .with_topology(topology)
                    .with_vectors(vectors);
                let run = HestenesSvd::new(options).compute(&a).unwrap();
                let n_pad = run.padded_n;
                assert!(n_pad > n, "{ctx}: not padded");
                let programs = kind.build(n_pad).unwrap().programs(run.sweeps);
                let mac = machine(topology, n_pad);
                let words = m + if vectors { n_pad } else { 0 };
                let step_compute = mac.cost().rotation_cost(words);
                for (k, (stats, prog)) in run.sweep_stats.iter().zip(&programs).enumerate() {
                    let (phases, comm_time, histogram) = price_per_step(&mac, prog, words as u64);
                    assert_eq!(stats.phases, phases, "{ctx}, sweep {k}");
                    assert_eq!(stats.comm_time.to_bits(), comm_time.to_bits(), "{ctx}, sweep {k}");
                    assert_eq!(stats.level_histogram, histogram, "{ctx}, sweep {k}");
                    let compute_time = prog.steps.iter().fold(0.0, |t, _| t + step_compute);
                    assert_eq!(
                        stats.compute_time.to_bits(),
                        compute_time.to_bits(),
                        "{ctx}, sweep {k}"
                    );
                }
                let total: f64 = run.sweep_stats.iter().map(|s| s.total_time()).sum();
                assert_eq!(run.simulated_time.to_bits(), total.to_bits(), "{ctx}");
            }
        }
    }
}

#[test]
fn v_payload_increases_comm_time_only() {
    let n = 8;
    let ord = OrderingKind::RoundRobin.build(n).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let mac = machine(TopologyKind::PerfectFatTree, n);
    let a = generate::random_uniform(16, n, 2);

    let mut with_v = ColumnStore::from_columns(a.clone().into_columns(), true);
    let mut without_v = ColumnStore::from_columns(a.into_columns(), false);
    let s1 = execute_program(&mac, &prog, &mut with_v, &ExecConfig::default());
    let s2 = execute_program(&mac, &prog, &mut without_v, &ExecConfig::default());
    assert!(s1.comm_time > s2.comm_time);
    assert_eq!(s1.rotations, s2.rotations);
    assert_eq!(s1.swaps, s2.swaps);
}

#[test]
fn full_iteration_to_convergence_on_every_ordering() {
    let n = 16;
    let a = generate::random_uniform(24, n, 3);
    for kind in OrderingKind::ALL {
        let ord = kind.build(n).unwrap();
        let mac = machine(TopologyKind::PerfectFatTree, n);
        let mut store = ColumnStore::from_columns(a.clone().into_columns(), false);
        let mut layout = ord.initial_layout();
        let mut converged = false;
        for k in 0..40 {
            let prog = ord.sweep_program(k, &layout);
            let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
            layout = prog.final_layout();
            if stats.is_converged() {
                converged = true;
                break;
            }
        }
        assert!(converged, "{kind}: no convergence");
        // all pairwise couplings tiny at the end
        let cols = store.columns_in_index_order();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = treesvd_matrix::ops::dot(&cols[i].a, &cols[j].a).abs();
                let ni = treesvd_matrix::ops::norm2(&cols[i].a);
                let nj = treesvd_matrix::ops::norm2(&cols[j].a);
                assert!(d <= 1e-10 * ni * nj, "{kind}: columns {i},{j} still coupled");
            }
        }
    }
}

#[test]
fn cost_scales_with_column_length() {
    let n = 8;
    let ord = OrderingKind::NewRing.build(n).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let mac = machine(TopologyKind::BinaryTree, n);
    let short = analyze_program(&mac, &prog, 16);
    let long = analyze_program(&mac, &prog, 1024);
    assert!(long.comm_time > short.comm_time);
    assert!(long.compute_time > short.compute_time);
    // the serialization component scales ~linearly in words; latency does not
    let ratio = long.comm_time / short.comm_time;
    assert!(ratio > 2.0 && ratio < 64.0, "ratio {ratio}");
}

#[test]
fn skinny_trees_cost_more_for_global_traffic() {
    let n = 64;
    let ord = OrderingKind::RoundRobin.build(n).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let fat = analyze_program(&machine(TopologyKind::PerfectFatTree, n), &prog, 512);
    let cm5 = analyze_program(&machine(TopologyKind::Cm5, n), &prog, 512);
    let bin = analyze_program(&machine(TopologyKind::BinaryTree, n), &prog, 512);
    assert!(fat.comm_time <= cm5.comm_time, "{} vs {}", fat.comm_time, cm5.comm_time);
    assert!(cm5.comm_time <= bin.comm_time, "{} vs {}", cm5.comm_time, bin.comm_time);
}

#[test]
fn sort_mode_none_never_swaps() {
    let n = 8;
    let ord = OrderingKind::RoundRobin.build(n).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let mac = machine(TopologyKind::PerfectFatTree, n);
    let a = generate::random_uniform(12, n, 4);
    let mut store = ColumnStore::from_columns(a.into_columns(), false);
    let cfg = ExecConfig { threshold: 1e-14, sort: SortMode::None, ..ExecConfig::default() };
    let stats = execute_program(&mac, &prog, &mut store, &cfg);
    assert_eq!(stats.swaps, 0);
}

#[test]
fn store_layout_follows_multi_sweep_programs() {
    let n = 8;
    let ord = OrderingKind::ModifiedRing.build(n).unwrap();
    let mac = machine(TopologyKind::PerfectFatTree, n);
    let a = generate::random_uniform(6, n, 5);
    let mut store = ColumnStore::from_columns(a.into_columns(), false);
    let mut layout = ord.initial_layout();
    for k in 0..2 {
        let prog = ord.sweep_program(k, &layout);
        execute_program(&mac, &prog, &mut store, &ExecConfig::default());
        layout = prog.final_layout();
        assert_eq!(store.layout, layout);
    }
    // period 2: back to identity
    assert_eq!(store.layout, (0..n).collect::<Vec<_>>());
}

#[test]
fn contention_consistency_between_exec_and_analysis() {
    let n = 32;
    let ord = OrderingKind::FatTree.build(n).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let mac = machine(TopologyKind::Cm5, n);
    let m_rows = 10usize;
    let a = generate::random_uniform(m_rows, n, 6);
    let mut store = ColumnStore::from_columns(a.into_columns(), false);
    let stats = execute_program(&mac, &prog, &mut store, &ExecConfig::default());
    let rep = analyze_program(&mac, &prog, m_rows as u64);
    assert!((stats.max_contention() - rep.max_contention).abs() < 1e-12);
    assert!(stats.max_contention() > 1.0, "fat-tree ordering must contend on cm5");
}
