//! A warm solve reuses its shape's sweep plan, counted by a global
//! allocator: a same-shape `HestenesSvd::compute` after the first makes
//! none of the allocations of generating the ordering's programs and
//! pricing them, which a solve through a `Custom` ordering factory (never
//! cached) still makes. Its own test binary, so the counting allocator
//! sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use treesvd_core::{HestenesSvd, OrderingChoice, SvdOptions};
use treesvd_matrix::{generate, Matrix};
use treesvd_net::{CostModel, Topology, TopologyKind};
use treesvd_orderings::{FatTreeOrdering, JacobiOrdering};
use treesvd_sim::{analyze_program, Machine};

/// Heap-allocation counter wrapped around the system allocator. Counts are
/// per thread, so the test harness's own threads never leak into them.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // a thread being torn down has no counter left; its frees are not
    // counted anyway and its allocations are not the solve's
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method defers verbatim to `System` after bumping a
// thread-local counter — the counter has no effect on the allocator
// contract, so `System`'s own guarantees carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counter bump, then `System` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; passed
        // through to `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: counter bump, then `System` verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc` — same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: counter bump, then `System` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from a prior allocation through this
        // same wrapper, i.e. from `System`, which `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: uncounted pass-through — frees are not allocation events.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of one solve of `a`.
fn solve_allocations(opts: &SvdOptions, a: &Matrix) -> u64 {
    let before = allocations();
    let run = HestenesSvd::new(opts.clone()).compute(a).unwrap();
    let made = allocations() - before;
    assert!(run.converged);
    made
}

#[test]
fn warm_solve_neither_generates_nor_prices_its_programs() {
    // the perfbench `paper` shape: the front-end hands the simulated
    // driver the 64×64 R₂ᵀ, 32 leaves of a perfect fat-tree, V carried;
    // one thread, so every allocation happens on this one
    let a = generate::random_uniform(256, 64, 1);
    let builtin = SvdOptions::default().with_threads(Some(1));
    let factory = OrderingChoice::Custom(Arc::new(|n| {
        Ok(Box::new(FatTreeOrdering::new(n)?) as Box<dyn JacobiOrdering>)
    }));
    let custom = SvdOptions { ordering: factory, ..builtin.clone() };
    // warm-up: the worker pool, the QR's spare working matrix, the cache
    for _ in 0..2 {
        solve_allocations(&builtin, &a);
        solve_allocations(&custom, &a);
    }
    let warm = solve_allocations(&builtin, &a);
    let uncached = solve_allocations(&custom, &a);

    // what generating and pricing one restore period allocates
    let before = allocations();
    let ordering = FatTreeOrdering::new(64).unwrap();
    let machine =
        Machine::new(Topology::new(TopologyKind::PerfectFatTree, 32), CostModel::default());
    for program in ordering.programs(ordering.restore_period()) {
        analyze_program(&machine, &program, 128);
    }
    let generation = allocations() - before;

    assert!(generation > 0);
    assert!(
        uncached >= warm + generation,
        "a warm solve made {warm} allocations and an uncached one {uncached}, \
         but generating and pricing the programs alone makes {generation}"
    );
    assert_eq!(solve_allocations(&builtin, &a), warm, "warm solves are not steady");
}
