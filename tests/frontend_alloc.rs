//! The QR front-end's large buffers, counted by a global allocator that
//! also records sizes: once a first solve has left its working matrix in
//! the factorization's per-thread spare, a steady front-end solve
//! allocates one `m×n` buffer — the `U` it returns — and a smaller solve
//! after a larger one does not keep the larger buffer. Its own test
//! binary, so the counting allocator sees nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use treesvd_core::{blocked_svd, BlockedOptions, SvdOptions};
use treesvd_matrix::generate;

/// Heap-allocation counter wrapped around the system allocator. Counts are
/// per thread, so the test harness's own threads never leak into them.
struct CountingAlloc;

thread_local! {
    /// Allocations of at least `BIG_FROM` bytes: (count, total bytes).
    static BIG: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
    static BIG_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn record(grown: isize, size: usize) {
    // a thread being torn down has no counters left; its traffic is not
    // the solver's
    let _ = LIVE.try_with(|l| l.set(l.get() + grown));
    if BIG_FROM.try_with(Cell::get).is_ok_and(|from| size >= from) {
        let _ = BIG.try_with(|b| {
            let (count, bytes) = b.get();
            b.set((count + 1, bytes + size));
        });
    }
}

// SAFETY: every method defers verbatim to `System` after updating
// thread-local counters — the counters have no effect on the allocator
// contract, so `System`'s own guarantees carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counter update, then `System` verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize, layout.size());
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; passed
        // through to `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: counter update, then `System` verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize, layout.size());
        // SAFETY: as `alloc` — same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: counter update, then `System` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize, new_size);
        // SAFETY: `ptr`/`layout` come from a prior allocation through this
        // same wrapper, i.e. from `System`, which `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: counter update, then `System` verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` via this wrapper with the
        // same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// A front-end blocked solve of a random `m × n` matrix on this thread
/// alone (one thread: the factorization, the sweeps and the
/// back-transform all run here), dropped at once.
fn solve(m: usize, n: usize) {
    let a = generate::random_uniform(m, n, (m + n) as u64);
    let svd = SvdOptions::default().with_qr_frontend(true).with_threads(Some(1));
    let run = blocked_svd(&a, &BlockedOptions { processors: 4, svd }).unwrap();
    assert!(run.qr_frontend, "{m}x{n} must take the front-end");
}

#[test]
fn steady_frontend_solve_allocates_only_its_u() {
    let (m, n) = (4096, 16);
    let a = generate::random_uniform(m, n, 1);
    let svd = SvdOptions::default().with_qr_frontend(true).with_threads(Some(1));
    let opts = BlockedOptions { processors: 4, svd };
    drop(blocked_svd(&a, &opts).unwrap());

    BIG_FROM.with(|f| f.set(m * n * 4));
    let run = blocked_svd(&a, &opts).unwrap();
    let (count, bytes) = BIG.with(Cell::get);
    BIG_FROM.with(|f| f.set(usize::MAX));
    assert!(run.qr_frontend);
    assert_eq!(
        (count, bytes),
        (1, m * n * 8),
        "a steady {m}x{n} solve must allocate one m×n buffer, the U it returns"
    );
    assert_eq!(run.svd.u.shape(), (m, n));
}

#[test]
fn smaller_solve_drops_the_larger_working_matrix() {
    // the 4096×64 working matrix, 2 MiB
    const BIG_BUF: isize = 4096 * 64 * 8;
    // warm every lazily built static on a small solve first
    solve(1024, 16);
    let base = live_bytes();
    solve(4096, 64);
    let kept = live_bytes() - base;
    assert!(kept >= BIG_BUF - 1024 * 16 * 8, "the 4096x64 working matrix is the spare: {kept}");
    solve(1024, 16);
    let kept = live_bytes() - base;
    assert!(kept < BIG_BUF / 2, "a 1024x16 solve must not keep the 2 MiB buffer: {kept} bytes");
}
