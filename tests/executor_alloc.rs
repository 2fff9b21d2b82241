//! The simulated executor's steady state, counted by a global allocator:
//! once a first sweep has sized the scratch, a serial sweep allocates only
//! the two vectors of the `SweepStats` it returns, the same count at every
//! size. Its own test binary, so the counting allocator sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treesvd_matrix::generate;
use treesvd_net::TopologyKind;
use treesvd_orderings::{FatTreeOrdering, JacobiOrdering};
use treesvd_sim::{
    analyze_program, execute_program_with_scratch, ColumnStore, ExecConfig, ExecScratch, Machine,
};

/// Heap-allocation counter wrapped around the system allocator. Counts are
/// per thread, so the test harness's own threads never leak into them.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // a thread being torn down has no counter left; its frees are not
    // counted anyway and its allocations are not the executor's
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

/// Allocations of one steady fat-tree sweep at `n` columns (with `V`),
/// after a warm-up sweep on the same scratch.
fn steady_sweep_allocations(n: usize) -> u64 {
    let ord = FatTreeOrdering::new(n).unwrap();
    let machine = Machine::with_kind(TopologyKind::PerfectFatTree, n / 2);
    let a = generate::random_uniform(2 * n, n, 1);
    let mut store = ColumnStore::from_columns(a.into_columns(), true);
    // fork-free, so every allocation happens on this thread
    let config = ExecConfig { serial_cutoff: usize::MAX, ..ExecConfig::default() };
    // the fat-tree ordering restores its layout after every sweep
    let prog = ord.sweep_program(0, &ord.initial_layout());
    assert_eq!(prog.final_layout(), prog.initial_layout);
    let priced = analyze_program(&machine, &prog, store.column_words() as u64);
    let mut scratch = ExecScratch::new();
    execute_program_with_scratch(&machine, &prog, &priced, &mut store, &config, &mut scratch);

    let before = allocations();
    let stats =
        execute_program_with_scratch(&machine, &prog, &priced, &mut store, &config, &mut scratch);
    let steady = allocations() - before;
    assert_eq!(stats.phases.len(), n - 1);
    steady
}

#[test]
fn steady_sweep_allocates_only_its_stats() {
    let small = steady_sweep_allocations(16);
    let large = steady_sweep_allocations(64);
    assert_eq!(small, large, "per-step allocations: {small} at n = 16, {large} at n = 64");
    assert_eq!(large, 2, "a steady sweep allocates only SweepStats::{{phases, level_histogram}}");
}
