//! Sweep plans: one restore period of an ordering's sweep programs,
//! checked to chain, with the slot layouts the drivers read at each step.
//!
//! An ordering's layout returns to its start after
//! [`restore_period`](JacobiOrdering::restore_period) sweeps, so sweep `k`
//! runs program `k mod period` and one period serves every sweep of every
//! solve of that shape. [`SweepPlan::new`] generates that period once and
//! checks it against the layout the drivers start from: every program has
//! the solve's size, starts on the layout the previous one left, and the
//! last ends on the initial layout. An ordering that breaks this (a custom
//! one that misreports its size or its period) is refused with a
//! [`Violation`] before any column moves. [`SweepPlan::price`] prices the
//! programs' traffic for the simulated machine, which depends on the
//! schedule, the topology, the cost model and the column length, never on
//! the data.

use crate::analyze::{analyze_program, CommReport};
use crate::machine::Machine;
use treesvd_analyze::Violation;
use treesvd_orderings::{ColIndex, JacobiOrdering, Program};

/// One restore period of an ordering's sweep programs, starting from the
/// identity layout, and the layout in force during each of their steps.
#[derive(Debug)]
pub struct SweepPlan {
    programs: Vec<Program>,
    /// `layouts[k][s]`: the layout during step `s` of program `k`.
    layouts: Vec<Vec<Vec<ColIndex>>>,
}

impl SweepPlan {
    /// Generate one restore period of `ordering`'s programs for `n`
    /// columns, from the identity layout (column `j` in slot `j`, where the
    /// drivers place it), and check that they chain.
    ///
    /// # Errors
    /// [`Violation::ShapeMismatch`] when the ordering, a program, its
    /// initial layout or a step's movement is not of size `n`;
    /// [`Violation::LayoutNotRestored`] when a program does not start on
    /// the layout the sweeps before it left (`sweeps` of them), or the
    /// period does not end on the identity.
    pub fn new(ordering: &dyn JacobiOrdering, n: usize) -> Result<Self, Violation> {
        let found = ordering.n();
        if found != n {
            return Err(Violation::ShapeMismatch { step: 0, found, expected: n });
        }
        let period = ordering.restore_period().max(1);
        let start: Vec<ColIndex> = (0..n).collect();
        let mut layout = start.clone();
        let (mut programs, mut layouts) = (Vec::with_capacity(period), Vec::with_capacity(period));
        for sweep in 0..period {
            let prog = ordering.sweep_program(sweep, &layout);
            for found in [prog.n, prog.initial_layout.len()] {
                if found != n {
                    return Err(Violation::ShapeMismatch { step: 0, found, expected: n });
                }
            }
            not_restored(sweep, &layout, &prog.initial_layout)?;
            let mut steps = Vec::with_capacity(prog.steps.len());
            for (step, pair_step) in prog.steps.iter().enumerate() {
                let found = pair_step.move_after.len();
                if found != n {
                    return Err(Violation::ShapeMismatch { step, found, expected: n });
                }
                let next = pair_step.move_after.apply(&layout);
                steps.push(std::mem::replace(&mut layout, next));
            }
            programs.push(prog);
            layouts.push(steps);
        }
        not_restored(period, &layout, &start)?;
        Ok(Self { programs, layouts })
    }

    /// The column count the plan was built for.
    pub fn n(&self) -> usize {
        self.programs[0].n
    }

    /// Programs in one period.
    pub fn period(&self) -> usize {
        self.programs.len()
    }

    /// The program sweep `sweep` runs.
    pub fn program(&self, sweep: usize) -> &Program {
        &self.programs[sweep % self.period()]
    }

    /// The layout in force during each step of sweep `sweep`.
    pub fn layouts(&self, sweep: usize) -> &[Vec<ColIndex>] {
        &self.layouts[sweep % self.period()]
    }

    /// Price each program of the period on `machine` for columns of
    /// `words` words ([`analyze_program`]); sweep `k` takes report
    /// `k mod period`.
    pub fn price(&self, machine: &Machine, words: u64) -> Vec<CommReport> {
        self.programs.iter().map(|prog| analyze_program(machine, prog, words)).collect()
    }
}

/// `Err` naming the first slot where the layout `sweeps` sweeps left
/// (`found`) differs from the one the schedule needs next (`expected`).
fn not_restored(sweeps: usize, found: &[ColIndex], expected: &[ColIndex]) -> Result<(), Violation> {
    match found.iter().zip(expected).position(|(f, e)| f != e) {
        Some(slot) => Err(Violation::LayoutNotRestored {
            sweeps,
            slot,
            expected: expected[slot],
            found: found[slot],
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesvd_orderings::{OrderingKind, PairStep, Permutation};

    /// Programs of another ordering's, with its period replaced.
    struct Period(Box<dyn JacobiOrdering>, usize);

    impl JacobiOrdering for Period {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn name(&self) -> String {
            self.0.name()
        }
        fn restore_period(&self) -> usize {
            self.1
        }
        fn sweep_program(&self, sweep: usize, layout: &[ColIndex]) -> Program {
            self.0.sweep_program(sweep, layout)
        }
    }

    #[test]
    fn builtin_plans_chain_and_match_their_programs() {
        for kind in OrderingKind::ALL {
            let ord = kind.build(16).unwrap();
            let plan = SweepPlan::new(ord.as_ref(), 16).unwrap();
            let programs = ord.programs(ord.restore_period());
            assert_eq!(plan.period(), programs.len(), "{kind}");
            for (k, prog) in programs.iter().enumerate() {
                assert_eq!(plan.program(k), prog, "{kind}");
                assert_eq!(plan.program(k + plan.period()), prog, "{kind}");
                assert_eq!(plan.layouts(k), prog.layouts(), "{kind}");
            }
        }
    }

    #[test]
    fn a_wrong_period_is_refused() {
        // the new ring ordering restores its layout every second sweep
        let ord = Period(OrderingKind::NewRing.build(8).unwrap(), 1);
        match SweepPlan::new(&ord, 8) {
            Err(Violation::LayoutNotRestored { sweeps: 1, slot, expected, found }) => {
                assert_eq!(expected, slot);
                assert_ne!(found, slot);
            }
            other => panic!("expected LayoutNotRestored after 1 sweep, got {other:?}"),
        }
        // one period too many ends on the wrong layout too
        let ord = Period(OrderingKind::NewRing.build(8).unwrap(), 3);
        assert!(matches!(SweepPlan::new(&ord, 8), Err(Violation::LayoutNotRestored { .. })));
    }

    #[test]
    fn a_misreported_size_is_refused() {
        let ord = OrderingKind::FatTree.build(16).unwrap();
        match SweepPlan::new(ord.as_ref(), 8) {
            Err(Violation::ShapeMismatch { step: 0, found: 16, expected: 8 }) => {}
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_program_that_ignores_the_layout_it_starts_from_is_refused() {
        // every sweep starts from the identity, whatever the last one left
        struct Forgetful;
        impl JacobiOrdering for Forgetful {
            fn n(&self) -> usize {
                4
            }
            fn name(&self) -> String {
                "forgetful".into()
            }
            fn restore_period(&self) -> usize {
                2
            }
            fn sweep_program(&self, _sweep: usize, _layout: &[ColIndex]) -> Program {
                let swap = Permutation::from_dest(vec![1, 0, 2, 3]);
                Program {
                    n: 4,
                    initial_layout: (0..4).collect(),
                    steps: vec![PairStep { move_after: swap }],
                }
            }
        }
        match SweepPlan::new(&Forgetful, 4) {
            Err(Violation::LayoutNotRestored { sweeps: 1, slot: 0, expected: 0, found: 1 }) => {}
            other => panic!("expected LayoutNotRestored at sweep 1, got {other:?}"),
        }
    }
}
