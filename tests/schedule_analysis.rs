//! Cross-crate schedule-verification suite: every built-in ordering
//! generator, every analyzer check, sizes n ∈ {4..32}, plus deliberately
//! corrupted schedules that must fail each check with a step-precise
//! diagnostic.

use treesvd_analyze::{
    analyze_ordering, verify_contention, verify_coverage, verify_deadlock_freedom,
    verify_ordering_schedule, verify_permutation_safety, verify_plan, verify_restore,
    AnalysisOptions, CommModel, CommOp, CommPlan, Violation,
};
use treesvd_net::{Topology, TopologyKind};
use treesvd_orderings::four_block::{module_a_movements, module_b_movements};
use treesvd_orderings::schedule::Permutation;
use treesvd_orderings::two_block::{two_block_movements, RotatingSide};
use treesvd_orderings::{
    FatTreeOrdering, HybridOrdering, JacobiOrdering, LlbFatTreeOrdering, ModifiedRingOrdering,
    NewRingOrdering, PairStep, Program, RingOrdering, RoundRobinOrdering,
};

/// Every built-in ordering constructible at size `n`, by name.
fn orderings_for(n: usize) -> Vec<Box<dyn JacobiOrdering>> {
    let mut out: Vec<Box<dyn JacobiOrdering>> = Vec::new();
    if let Ok(o) = RingOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = NewRingOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = ModifiedRingOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = RoundRobinOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = FatTreeOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = LlbFatTreeOrdering::new(n) {
        out.push(Box::new(o));
    }
    if let Ok(o) = HybridOrdering::with_default_groups(n) {
        out.push(Box::new(o));
    }
    out
}

#[test]
fn every_builtin_ordering_verifies_at_every_size() {
    for n in (4..=32).step_by(2) {
        for ord in orderings_for(n) {
            let report = analyze_ordering(ord.as_ref(), &AnalysisOptions::default());
            assert!(report.is_verified(), "{} n = {n}:\n{report}", ord.name());
        }
    }
}

#[test]
fn every_builtin_ordering_passes_the_driver_gate() {
    for n in [8usize, 16] {
        for ord in orderings_for(n) {
            assert!(
                verify_ordering_schedule(ord.as_ref()).is_ok(),
                "{} n = {n} rejected by the driver gate",
                ord.name()
            );
        }
    }
}

#[test]
fn paper_contention_claims_hold() {
    // §5: the hybrid ordering with groups of 4 columns is contention-free
    // on the CM-5 tree (capacity doubling stops above level 2).
    for n in [16usize, 32, 64] {
        let ord = HybridOrdering::new(n, n / 4).unwrap();
        let topo = Topology::new(TopologyKind::Cm5, n / 2);
        let opts = AnalysisOptions { topology: Some(topo), words_per_column: 64 };
        let report = analyze_ordering(&ord, &opts);
        assert!(report.is_verified(), "hybrid n = {n} on CM-5:\n{report}");
        assert!(report.max_contention.unwrap() <= 1.0);
    }
    // the recursive fat-tree ordering is contention-free on the perfect
    // fat-tree it was designed for...
    for n in [8usize, 16, 32] {
        let ord = FatTreeOrdering::new(n).unwrap();
        let topo = Topology::new(TopologyKind::PerfectFatTree, n / 2);
        let opts = AnalysisOptions { topology: Some(topo), words_per_column: 64 };
        let report = analyze_ordering(&ord, &opts);
        assert!(report.is_verified(), "fat-tree n = {n}:\n{report}");
    }
    // ...but not on a plain binary tree, where the verifier must name the
    // first violating (step, channel).
    let ord = FatTreeOrdering::new(32).unwrap();
    let prog = ord.sweep_program(0, &ord.initial_layout());
    let topo = Topology::new(TopologyKind::BinaryTree, 16);
    match verify_contention(&prog, &topo, 64) {
        Err(Violation::ChannelOverload { channel, load, capacity, .. }) => {
            assert!(channel.level >= 2);
            assert!(load > capacity);
        }
        other => panic!("expected ChannelOverload on the binary tree, got {other:?}"),
    }
}

/// A `Program` built from raw movement permutations: pairs come from the
/// running layout, so permutation-safety and deadlock checks apply even
/// though a single basic module does not constitute a full sweep.
fn program_from_movements(n: usize, movements: Vec<Permutation>) -> Program {
    Program {
        n,
        initial_layout: (0..n).collect(),
        steps: movements.into_iter().map(|m| PairStep { move_after: m }).collect(),
    }
}

#[test]
fn basic_modules_are_safe_and_deadlock_free() {
    for base in [0usize, 4] {
        let a = program_from_movements(8, module_a_movements(8, base).to_vec());
        assert!(verify_permutation_safety(&a).is_ok());
        assert!(verify_deadlock_freedom(&a, true).is_ok());
        let b = program_from_movements(8, module_b_movements(8, base).to_vec());
        assert!(verify_permutation_safety(&b).is_ok());
        assert!(verify_deadlock_freedom(&b, true).is_ok());
    }
    for rot in [RotatingSide::Even, RotatingSide::Odd] {
        let prog = program_from_movements(16, two_block_movements(16, 0, 8, rot));
        assert!(verify_permutation_safety(&prog).is_ok());
        assert!(verify_deadlock_freedom(&prog, true).is_ok());
    }
}

// --- corrupted schedules: each check must fail with a precise diagnostic ---

fn valid_sweep(n: usize) -> Program {
    let ord = FatTreeOrdering::new(n).unwrap();
    ord.sweep_program(0, &ord.initial_layout())
}

#[test]
fn corrupted_layout_fails_permutation_check() {
    let mut prog = valid_sweep(16);
    prog.initial_layout[7] = prog.initial_layout[3];
    match verify_permutation_safety(&prog) {
        Err(Violation::DuplicateOwnership { step, index, slots }) => {
            assert_eq!(step, 0, "corruption is visible at the first step");
            assert_eq!(index, prog.initial_layout[3]);
            assert_eq!(slots, (3, 7));
        }
        other => panic!("expected DuplicateOwnership, got {other:?}"),
    }
    // the coverage check subsumes permutation safety and must also reject
    assert!(verify_coverage(&prog).is_err());
}

#[test]
fn stalled_schedule_fails_coverage_check() {
    // identity movements: the same n/2 pairs rotate at every step
    let n = 8;
    let prog = program_from_movements(n, vec![Permutation::identity(n); n - 1]);
    match verify_coverage(&prog) {
        Err(Violation::PairRepeated { step, first_step, pair }) => {
            assert_eq!((step, first_step), (1, 0));
            assert_eq!(pair, (0, 1));
        }
        other => panic!("expected PairRepeated, got {other:?}"),
    }
}

#[test]
fn truncated_sweep_fails_coverage_check() {
    let mut prog = valid_sweep(16);
    prog.steps.truncate(prog.steps.len() - 2);
    match verify_coverage(&prog) {
        Err(Violation::PairsMissed { covered, expected, example }) => {
            assert!(covered < expected);
            assert!(example.0 < example.1);
        }
        other => panic!("expected PairsMissed, got {other:?}"),
    }
}

#[test]
fn non_restoring_ordering_fails_restore_check() {
    /// Fat-tree sweeps with the final restoring movement replaced by the
    /// identity, so the layout never returns.
    struct Truncated(FatTreeOrdering);
    impl JacobiOrdering for Truncated {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn name(&self) -> String {
            "truncated-fat-tree".into()
        }
        fn restore_period(&self) -> usize {
            1
        }
        fn sweep_program(&self, sweep: usize, layout: &[usize]) -> Program {
            let mut prog = self.0.sweep_program(sweep, layout);
            let last = prog.steps.len() - 1;
            prog.steps[last].move_after = Permutation::identity(self.0.n());
            prog
        }
    }
    let ord = Truncated(FatTreeOrdering::new(8).unwrap());
    match verify_restore(&ord) {
        Err(Violation::LayoutNotRestored { sweeps, slot, expected, found }) => {
            assert_eq!(sweeps, 1);
            assert_ne!(expected, found, "slot {slot} must name a real mismatch");
        }
        other => panic!("expected LayoutNotRestored, got {other:?}"),
    }
}

#[test]
fn misrouted_schedule_fails_contention_check() {
    // the fat-tree ordering's long-range exchanges overload a skinny
    // binary tree: the proof must name the first step and channel
    let prog = valid_sweep(64);
    let topo = Topology::new(TopologyKind::BinaryTree, 32);
    match verify_contention(&prog, &topo, 64) {
        Err(Violation::ChannelOverload { step, channel, factor, .. }) => {
            assert!(step < prog.steps.len());
            assert!(channel.level >= 2);
            assert!(factor > 1.0);
        }
        other => panic!("expected ChannelOverload, got {other:?}"),
    }
}

#[test]
fn mutilated_comm_plan_fails_deadlock_check() {
    let prog = valid_sweep(16);
    let intact = CommPlan::from_program(&prog, true);
    assert!(verify_plan(&intact, CommModel::Buffered).is_ok());

    // dropping one send starves its receiver — a data column (A phase) or
    // the vector column that follows it (V phase) alike
    for (phase, parity) in [("A", 0), ("V", 1)] {
        let mut no_send = intact.clone();
        let (pos, tag) = no_send.ops[3]
            .iter()
            .enumerate()
            .find_map(|(i, (_, op))| match *op {
                CommOp::Send { tag, .. } if tag & 1 == parity => Some((i, tag)),
                _ => None,
            })
            .expect("rank 3 sends both phases in a fat-tree sweep");
        no_send.ops[3].remove(pos);
        match verify_plan(&no_send, CommModel::Buffered) {
            Err(Violation::UnmatchedRecv { op }) => {
                assert!(!op.is_send, "{phase}");
                assert_eq!((op.peer, op.tag), (3, tag), "{phase}: the starving receive");
            }
            other => panic!("{phase}: expected UnmatchedRecv, got {other:?}"),
        }
    }

    // under rendezvous semantics the pairwise exchange idiom itself is a
    // wait cycle — the formal reason the communicator buffers sends
    match verify_plan(&intact, CommModel::Rendezvous) {
        Err(Violation::WaitCycle { cycle }) => {
            assert!(cycle.len() >= 2);
            assert!(cycle.iter().any(|op| op.is_send), "a send must participate");
        }
        other => panic!("expected WaitCycle under rendezvous, got {other:?}"),
    }
}

#[test]
fn executor_plans_pass_the_deadlock_proof() {
    // the plan of the messages the distributed executor sends, for every
    // built-in ordering, with and without the V-phase messages
    for n in [8usize, 16] {
        for ord in orderings_for(n) {
            for prog in ord.programs(ord.restore_period().max(1)) {
                for vectors in [false, true] {
                    let ctx = format!("{} n = {n} vectors = {vectors}", ord.name());
                    verify_deadlock_freedom(&prog, vectors)
                        .unwrap_or_else(|v| panic!("{ctx}: {v}"));
                }
            }
        }
    }
}

#[test]
fn hb_tracker_complements_the_static_check() {
    use std::thread;
    use treesvd_comm::ThreadWorld;

    // the dynamic twin of permutation safety: column ownership handed over
    // through a message is race-free...
    let mut comms = ThreadWorld::new(2).into_communicators();
    let mut c1 = comms.pop().unwrap();
    let c0 = comms.pop().unwrap();
    let h = thread::spawn(move || {
        c1.recv(0, 1).unwrap();
        c1.record_access(0)
    });
    c0.record_access(0).unwrap();
    c0.send(1, 1, vec![0.0]);
    assert_eq!(h.join().unwrap(), Ok(()));

    // ...while touching a block the schedule never handed over is flagged
    let comms = ThreadWorld::new(2).into_communicators();
    comms[0].record_access(9).unwrap();
    let race = comms[1].record_access(9).unwrap_err();
    assert_eq!((race.first_rank, race.second_rank), (0, 1));
}

#[test]
fn analysis_report_displays_failures() {
    /// An ordering whose sweeps stall on the first pairing forever.
    struct Stalled(usize);
    impl JacobiOrdering for Stalled {
        fn n(&self) -> usize {
            self.0
        }
        fn name(&self) -> String {
            "stalled".into()
        }
        fn restore_period(&self) -> usize {
            1
        }
        fn sweep_program(&self, _sweep: usize, layout: &[usize]) -> Program {
            Program {
                n: self.0,
                initial_layout: layout.to_vec(),
                steps: vec![PairStep { move_after: Permutation::identity(self.0) }; self.0 - 1],
            }
        }
    }
    let report = analyze_ordering(&Stalled(8), &AnalysisOptions::default());
    assert!(!report.is_verified());
    let violation = report.first_violation().expect("stalled schedule must fail");
    assert!(matches!(violation, Violation::PairRepeated { .. }));
    let rendered = format!("{report}");
    assert!(rendered.contains("FAIL"), "rendered report must flag the failure:\n{rendered}");
    assert!(rendered.contains("step 1"), "diagnostic must be step-precise:\n{rendered}");
}
