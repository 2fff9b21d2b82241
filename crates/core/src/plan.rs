//! The sweep plan every driver runs, built once per shape.
//!
//! A solve's sweep programs depend only on the ordering and the padded
//! column count, and their simulated traffic only on those, the topology,
//! the cost model and the column length — never on the data. So
//! [`sweep_plan`] keeps the plans it builds for built-in orderings in a
//! per-thread cache, and a later solve of the same shape on that thread
//! generates and prices nothing:
//!
//! * the [`SweepPlan`] (one restore period of programs and their step
//!   layouts) under the key ([`OrderingKind`], padded `n`);
//! * its simulated-machine prices ([`SweepPlan::price`]) under that key
//!   plus the topology kind and leaf count, the bits of the five
//!   [`CostModel`](treesvd_net::CostModel) fields, and the words one column
//!   move carries.
//!
//! Each part keeps its [`SLOTS`] most recently used entries per thread, so
//! a thread holds at most that many plans and that many price sets (their
//! size in DESIGN.md §8); a solve holds its own `Arc` to what it runs, so
//! an eviction never pulls a plan from under a running solve. A
//! [`OrderingChoice::Custom`] factory is called on every solve and its
//! plan is never cached, and with [`SvdOptions::verify_schedule`] on, the
//! verifier runs on every solve, cached plan or not.

use crate::options::{OrderingChoice, SvdError, SvdOptions};
use std::cell::RefCell;
use std::sync::Arc;
use std::thread::LocalKey;
use treesvd_net::TopologyKind;
use treesvd_orderings::{JacobiOrdering, OrderingKind};
use treesvd_sim::{CommReport, Machine, SweepPlan};

/// Entries each part of a thread's cache keeps.
const SLOTS: usize = 4;

/// What a [`SweepPlan`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    kind: OrderingKind,
    n: usize,
}

/// What a plan's prices depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PriceKey {
    plan: PlanKey,
    topology: TopologyKind,
    leaves: usize,
    /// `alpha`, `beta`, `hop`, `gamma`, `gamma_panel`, by bits.
    cost: [u64; 5],
    words: u64,
}

/// The most recently used entries first.
type Slots<K, V> = RefCell<Vec<(K, V)>>;

thread_local! {
    static PLANS: Slots<PlanKey, Arc<SweepPlan>> = const { RefCell::new(Vec::new()) };
    static PRICES: Slots<PriceKey, Arc<Vec<CommReport>>> = const { RefCell::new(Vec::new()) };
}

/// What a solve runs: the plan and, when asked for, its prices (report
/// `k mod period` for sweep `k`).
pub(crate) struct Plan {
    pub(crate) sweeps: Arc<SweepPlan>,
    pub(crate) prices: Option<Arc<Vec<CommReport>>>,
}

/// Build the configured ordering for `n` (padded) columns and, when
/// [`SvdOptions::verify_schedule`] is set, gate it through the static
/// schedule verifier before any matrix data is touched.
fn checked_ordering(options: &SvdOptions, n: usize) -> Result<Box<dyn JacobiOrdering>, SvdError> {
    let ordering = options.ordering.build(n)?;
    if options.verify_schedule {
        treesvd_analyze::verify_ordering_schedule(ordering.as_ref())?;
    }
    Ok(ordering)
}

/// The sweep plan for `n` (padded) columns under `options`, priced on
/// `machine` for columns of `words` words when `pricing` is given. Every
/// driver gets its plan here, so the schedule gate cannot be bypassed.
///
/// # Errors
/// [`SvdError::Ordering`] when the ordering rejects `n`, and
/// [`SvdError::Schedule`] when the verifier rejects it or its programs do
/// not chain ([`SweepPlan::new`]).
pub(crate) fn sweep_plan(
    options: &SvdOptions,
    n: usize,
    pricing: Option<(&Machine, u64)>,
) -> Result<Plan, SvdError> {
    let price =
        |plan: &SweepPlan, (machine, words): (&Machine, u64)| Arc::new(plan.price(machine, words));
    let kind = match options.ordering {
        OrderingChoice::Kind(kind) => kind,
        OrderingChoice::Custom(_) => {
            let sweeps = Arc::new(SweepPlan::new(checked_ordering(options, n)?.as_ref(), n)?);
            let prices = pricing.map(|p| price(&sweeps, p));
            return Ok(Plan { sweeps, prices });
        }
    };
    if options.verify_schedule {
        checked_ordering(options, n)?;
    }
    let key = PlanKey { kind, n };
    let sweeps = cached(&PLANS, key, || Ok(Arc::new(SweepPlan::new(kind.build(n)?.as_ref(), n)?)))?;
    let prices = match pricing {
        Some((machine, words)) => {
            let topology = machine.topology();
            let c = machine.cost();
            let key = PriceKey {
                plan: key,
                topology: topology.kind(),
                leaves: topology.leaves(),
                cost: [c.alpha, c.beta, c.hop, c.gamma, c.gamma_panel].map(f64::to_bits),
                words,
            };
            Some(cached(&PRICES, key, || Ok(price(&sweeps, (machine, words))))?)
        }
        None => None,
    };
    Ok(Plan { sweeps, prices })
}

/// The entry for `key` in this thread's `slots`, built by `build` (outside
/// the borrow) on a miss; the entry moves to the front either way and the
/// least recently used one past [`SLOTS`] is dropped. A thread tearing down
/// its locals builds without caching.
fn cached<K: Copy + PartialEq + 'static, V: Clone + 'static>(
    slots: &'static LocalKey<Slots<K, V>>,
    key: K,
    build: impl FnOnce() -> Result<V, SvdError>,
) -> Result<V, SvdError> {
    let hit = slots.try_with(|slots| {
        let mut slots = slots.borrow_mut();
        let i = slots.iter().position(|(k, _)| *k == key)?;
        slots[..=i].rotate_right(1);
        Some(slots[0].1.clone())
    });
    if let Ok(Some(value)) = hit {
        return Ok(value);
    }
    let value = build()?;
    let _ = slots.try_with(|slots| {
        let mut slots = slots.borrow_mut();
        slots.truncate(SLOTS - 1);
        slots.insert(0, (key, value.clone()));
    });
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{blocked_svd, BlockedOptions, HestenesSvd, SvdRun};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use treesvd_analyze::Violation;
    use treesvd_matrix::{generate, Matrix};
    use treesvd_net::CostModel;
    use treesvd_orderings::{ColIndex, Program};

    #[derive(Debug, Clone, Copy)]
    enum Driver {
        Simulated,
        Distributed,
        Blocked,
    }

    const DRIVERS: [Driver; 3] = [Driver::Simulated, Driver::Distributed, Driver::Blocked];

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// σ, U and V by bits, the sweeps, every `SweepStats` field (`Debug`
    /// prints each `f64` exactly) and the simulated time by bits.
    fn fingerprint(run: &SvdRun) -> String {
        let svd = &run.svd;
        format!(
            "{:?}",
            (
                bits(&svd.sigma),
                bits(svd.u.as_slice()),
                bits(svd.v.as_slice()),
                run.sweeps,
                &run.sweep_stats,
                run.simulated_time.to_bits(),
            )
        )
    }

    /// Everything `driver` reports for `a`, bit for bit; the blocked
    /// driver runs on four processors.
    fn solve(driver: Driver, a: &Matrix, opts: &SvdOptions) -> Result<String, SvdError> {
        let solver = HestenesSvd::new(opts.clone());
        Ok(match driver {
            Driver::Simulated => fingerprint(&solver.compute(a)?),
            Driver::Distributed => fingerprint(&solver.compute_distributed(a)?),
            Driver::Blocked => {
                let run = blocked_svd(a, &BlockedOptions { processors: 4, svd: opts.clone() })?;
                let svd = &run.svd;
                format!(
                    "{:?}",
                    (
                        bits(&svd.sigma),
                        bits(svd.u.as_slice()),
                        bits(svd.v.as_slice()),
                        run.sweeps,
                        run.total_rotations,
                    )
                )
            }
        })
    }

    /// `f` on a thread of its own, whose plan cache starts empty.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("the solve panicked"))
    }

    fn custom(factory: crate::options::OrderingFactory) -> SvdOptions {
        SvdOptions { ordering: OrderingChoice::Custom(factory), ..SvdOptions::default() }
    }

    #[test]
    fn cold_and_warm_solves_agree_bit_for_bit() {
        let a = generate::random_uniform(24, 16, 7);
        let topologies = [
            TopologyKind::PerfectFatTree,
            TopologyKind::BinaryTree,
            TopologyKind::SkinnyAbove(1),
            TopologyKind::Cm5,
        ];
        for driver in DRIVERS {
            for kind in OrderingKind::ALL {
                for topology in topologies {
                    for frontend in [false, true] {
                        let opts = SvdOptions::default()
                            .with_ordering(kind)
                            .with_topology(topology)
                            .with_qr_frontend(frontend);
                        let solve = || solve(driver, &a, &opts).unwrap();
                        let (cold, warm) = on_fresh_thread(|| (solve(), solve()));
                        let what =
                            format!("{driver:?}, {kind} on {topology}, front-end {frontend}");
                        assert!(cold == warm, "{what}: the warm solve differs");
                    }
                }
            }
        }
    }

    #[test]
    fn a_solve_that_changes_one_key_component_matches_it_cold() {
        // front-end off, so m and the vectors reach the column length
        let base = SvdOptions::default().with_qr_frontend(false);
        let a = generate::random_uniform(24, 16, 9);
        let cost = |change: fn(&mut CostModel)| {
            let mut cost = CostModel::default();
            change(&mut cost);
            SvdOptions { cost, ..base.clone() }
        };
        let variants = [
            ("ordering", a.clone(), base.clone().with_ordering(OrderingKind::NewRing)),
            ("n", generate::random_uniform(24, 8, 9), base.clone()),
            ("topology", a.clone(), base.clone().with_topology(TopologyKind::Cm5)),
            ("alpha", a.clone(), cost(|c| c.alpha *= 3.0)),
            ("beta", a.clone(), cost(|c| c.beta *= 3.0)),
            ("hop", a.clone(), cost(|c| c.hop *= 3.0)),
            ("gamma", a.clone(), cost(|c| c.gamma *= 3.0)),
            ("gamma_panel", a.clone(), cost(|c| c.gamma_panel *= 3.0)),
            ("vectors", a.clone(), base.clone().with_vectors(false)),
            ("m", generate::random_uniform(40, 16, 9), base.clone()),
        ];
        for driver in DRIVERS {
            for (what, b, opts) in &variants {
                let after_base = on_fresh_thread(|| {
                    solve(driver, &a, &base).unwrap();
                    solve(driver, b, opts).unwrap()
                });
                let cold = on_fresh_thread(|| solve(driver, b, opts).unwrap());
                assert!(after_base == cold, "{driver:?}: another {what} reused the cached plan");
            }
        }
    }

    #[test]
    fn a_custom_factory_is_called_on_every_solve() {
        let a = generate::random_uniform(24, 16, 11);
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let opts = custom(Arc::new(move |n| {
            counter.fetch_add(1, Ordering::Relaxed);
            OrderingKind::FatTree.build(n)
        }));
        for driver in DRIVERS {
            let first = solve(driver, &a, &opts).unwrap();
            for _ in 0..3 {
                let before = calls.load(Ordering::Relaxed);
                assert!(solve(driver, &a, &opts).unwrap() == first, "{driver:?}");
                assert!(calls.load(Ordering::Relaxed) > before, "{driver:?}: factory not called");
            }
        }
    }

    /// Another ordering's programs under a claimed restore period.
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
    fn programs_that_do_not_chain_are_a_schedule_error_from_every_driver() {
        let a = generate::random_uniform(24, 16, 13);
        // the fat-tree ordering for twice the size asked for
        let misreported = custom(Arc::new(|n| OrderingKind::FatTree.build(2 * n)));
        // the new ring ordering restores its layout every second sweep
        let every_sweep = custom(Arc::new(|n| {
            Ok(Box::new(Period(OrderingKind::NewRing.build(n)?, 1)) as Box<dyn JacobiOrdering>)
        }));
        for driver in DRIVERS {
            for frontend in [false, true] {
                let size = misreported.clone().with_qr_frontend(frontend);
                match solve(driver, &a, &size) {
                    Err(SvdError::Schedule(Violation::ShapeMismatch {
                        found, expected, ..
                    })) => {
                        assert_eq!(found, 2 * expected, "{driver:?}");
                    }
                    other => panic!("{driver:?}: expected ShapeMismatch, got {other:?}"),
                }
                let period = every_sweep.clone().with_qr_frontend(frontend);
                match solve(driver, &a, &period) {
                    Err(SvdError::Schedule(Violation::LayoutNotRestored { sweeps: 1, .. })) => {}
                    other => panic!("{driver:?}: expected LayoutNotRestored, got {other:?}"),
                }
            }
        }
    }
}
