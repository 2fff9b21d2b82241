//! Minimal fork–join parallelism on a **persistent parked-worker pool**.
//!
//! The executor previously forked scoped threads per step
//! (`std::thread::scope`); the spawn + join cost tens of microseconds per
//! step, which caps speedup on the thousands of small steps a sweep
//! program emits. The pool here is spawned **once** (lazily, on first
//! use) and reused for every step of every sweep: workers park on a
//! condvar when idle, so a fork is one queue push + one wake instead of a
//! thread spawn.
//!
//! [`join`] keeps the fork–join shape callers build balanced trees with:
//! it runs two closures concurrently and blocks for both. The forked
//! closure is pushed to the shared queue as a stack job; when the caller
//! finishes its own half it either *reclaims* the job (if no worker got
//! to it yet — the job is removed from the queue and run inline) or
//! parks until the worker that took it signals completion. Because a
//! waiter only ever parks on a job some thread is *actively running*,
//! nested joins cannot deadlock, whatever the worker count.
//!
//! Pool size: [`num_threads`] − 1 workers (the caller is the remaining
//! lane). `TREESVD_THREADS` overrides the probed parallelism; setting it
//! to `1` disables forking entirely.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::Thread;

/// Parse a `TREESVD_THREADS`-style override: a positive integer, else
/// `None` (invalid or absent values fall back to the probed parallelism).
fn parse_thread_override(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// Number of worker lanes (pool workers + the calling thread): the
/// `TREESVD_THREADS` environment variable when set to a positive integer,
/// otherwise the machine's available parallelism. Probed once and cached —
/// the persistent pool is sized from this on first use.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        parse_thread_override(std::env::var("TREESVD_THREADS").ok().as_deref()).unwrap_or_else(
            || std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
        )
    })
}

/// A type-erased pointer to a stack-allocated [`JobSlot`], valid until the
/// owning `join`/`par_sum_indexed` call returns (enforced by the
/// reclaim-or-wait protocol).
struct JobPtr(*const dyn Job);
// SAFETY: the pointee is a `JobSlot` whose closure and result types are
// `Send`; the queue discipline guarantees exactly one thread executes it.
unsafe impl Send for JobPtr {}

/// What the workers run. Implemented only by [`JobSlot`].
trait Job {
    /// Execute the job. Called exactly once, by whichever thread popped
    /// the job from the queue (worker) or reclaimed it (owner).
    fn execute(&self);
}

/// Erase the borrow lifetime of a stack job so it can sit in the static
/// queue.
///
/// SAFETY (caller): the pointer must be removed from the queue (reclaim)
/// or fully executed before the referent's frame is popped — the
/// reclaim-or-wait protocol in [`join`]/[`par_sum_indexed`] guarantees it.
fn erase<'a>(job: &'a (dyn Job + 'a)) -> *const (dyn Job + 'static) {
    // SAFETY: only the lifetime brand changes — same pointer, same vtable.
    // The 'static claim is never acted on: every dereference happens
    // before the referent's frame is popped, per the caller contract
    // above (reclaim-or-wait).
    unsafe {
        std::mem::transmute::<*const (dyn Job + 'a), *const (dyn Job + 'static)>(
            job as *const (dyn Job + 'a),
        )
    }
}

/// The persistent pool: a shared FIFO of pending jobs plus parked workers.
struct Pool {
    queue: Mutex<VecDeque<JobPtr>>,
    available: Condvar,
    /// Worker threads spawned (0 when `num_threads() == 1` — every join
    /// then degrades to a serial call).
    workers: usize,
}

impl Pool {
    /// Push a job and wake one parked worker.
    fn push(&self, job: *const dyn Job) {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        q.push_back(JobPtr(job));
        drop(q);
        self.available.notify_one();
    }

    /// Remove `job` from the queue if no worker has taken it yet.
    /// Returns `true` when the caller now owns the job and must run it
    /// inline.
    fn reclaim(&self, job: *const dyn Job) -> bool {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        let target = job as *const ();
        if let Some(pos) = q.iter().position(|j| std::ptr::eq(j.0 as *const (), target)) {
            q.remove(pos);
            true
        } else {
            false
        }
    }

    /// Worker body: pop jobs forever, parking on the condvar while the
    /// queue is empty. Workers live for the process lifetime.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("pool queue poisoned");
                loop {
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    q = self.available.wait(q).expect("pool queue poisoned");
                }
            };
            // SAFETY: the owning call frame is alive: it cannot return
            // before the job is executed (reclaim-or-wait), and we are the
            // unique executor because we popped the queue entry.
            unsafe { (*job.0).execute() };
        }
    }
}

/// The process-wide pool, spawned on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = num_threads().saturating_sub(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::with_capacity(4 * workers.max(1))),
            available: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("treesvd-worker-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("failed to spawn pool worker");
        }
        pool
    })
}

/// Spawn a dedicated, named OS thread *outside* the fork/join pool.
///
/// This is the one sanctioned long-lived thread seam in the workspace
/// besides `treesvd-comm` itself (the `treesvd-lint` source audit
/// enforces it): the distributed executor's rank workers live for a whole
/// run and block on receives, so they must never occupy pool workers
/// — a pool worker parked in a receive would deadlock the fork/join
/// traffic of the ranks still computing.
///
/// # Panics
/// Panics if the OS refuses to spawn a thread.
pub fn spawn_worker<T, F>(name: String, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new().name(name).spawn(f).expect("failed to spawn dedicated worker")
}

/// A fork's stack-allocated state: the closure to run, the slot its result
/// (or panic payload) lands in, and the completion handshake.
struct JobSlot<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    done: AtomicBool,
    owner: Thread,
}

// SAFETY: `func`/`result` are touched by exactly one executor thread
// (queue discipline) and read back by the owner only after the `done`
// release/acquire handshake.
unsafe impl<F: Send, R: Send> Sync for JobSlot<F, R> {}

impl<F: FnOnce() -> R + Send, R: Send> JobSlot<F, R> {
    fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            owner: std::thread::current(),
        }
    }

    /// Block until a worker finishes the job, then return its result,
    /// re-raising a panic from the worker on the owner.
    fn wait(&self) -> R {
        while !self.done.load(Ordering::Acquire) {
            std::thread::park();
        }
        // SAFETY: `done` is set with release ordering after the result is
        // written; we are the only reader.
        let result = unsafe { (*self.result.get()).take().expect("job completed without result") };
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Run the job on the owner itself after reclaiming it from the queue.
    fn run_inline(&self) -> R {
        // SAFETY: reclaiming removed the queue entry, so we are the unique
        // executor.
        let func = unsafe { (*self.func.get()).take().expect("job executed twice") };
        func()
    }
}

impl<F: FnOnce() -> R + Send, R: Send> Job for JobSlot<F, R> {
    fn execute(&self) {
        // SAFETY: we are the unique executor (popped the queue entry).
        let func = unsafe { (*self.func.get()).take().expect("job executed twice") };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(func));
        // Clone the unpark handle *before* publishing completion: the
        // owner may observe `done` and pop its frame the moment the store
        // lands, so no access to `self` is allowed after it.
        let owner = self.owner.clone();
        // SAFETY: unique executor; owner reads only after the handshake.
        unsafe { *self.result.get() = Some(result) };
        self.done.store(true, Ordering::Release);
        owner.unpark();
    }
}

/// Run both closures, `b` on the persistent pool and `a` on the caller,
/// and return both results. Panics in either closure propagate. With a
/// single-lane pool (`TREESVD_THREADS=1` or a one-core machine) both run
/// serially on the caller.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let pool = pool();
    if pool.workers == 0 {
        return (a(), b());
    }
    let slot = JobSlot::new(b);
    let job = erase(&slot);
    pool.push(job);
    let ra = a();
    let rb = if pool.reclaim(job) { slot.run_inline() } else { slot.wait() };
    (ra, rb)
}

/// Dyn-compatible [`join`]: run both mutable closures, the second on the
/// persistent pool, returning when both are done. This is the adapter the
/// `treesvd_matrix::qr::Joiner` trait object plugs into — the matrix
/// crate sits *below* this one and cannot name the pool, so the QR
/// front-end hands its fork–join needs down through `&dyn` closures.
pub fn join_dyn(a: &mut (dyn FnMut() + Send), b: &mut (dyn FnMut() + Send)) {
    join(a, b);
}

/// Parallel sum of `f(i)` over `i in 0..count` using up to `tasks` lanes of
/// the persistent pool with a strided index assignment (balances
/// triangular loops). Falls back to a serial loop for `tasks <= 1`.
pub fn par_sum_indexed<F>(count: usize, tasks: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let tasks = tasks.clamp(1, count.max(1));
    if tasks <= 1 || pool().workers == 0 {
        return (0..count).map(&f).sum();
    }
    let p = pool();
    let f = &f;
    let slots: Vec<_> = (1..tasks)
        .map(|t| JobSlot::new(move || (t..count).step_by(tasks).map(f).sum::<f64>()))
        .collect();
    for slot in &slots {
        p.push(erase(slot));
    }
    let mine: f64 = (0..count).step_by(tasks).map(f).sum();
    let mut total = mine;
    for slot in &slots {
        let job = erase(slot);
        total += if p.reclaim(job) { slot.run_inline() } else { slot.wait() };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "forked");
        assert_eq!(a, 4);
        assert_eq!(b, "forked");
    }

    #[test]
    fn join_recursion_builds_a_tree() {
        fn sum(range: std::ops::Range<u64>, tasks: usize) -> u64 {
            let len = range.end - range.start;
            if tasks <= 1 || len <= 1 {
                return range.sum();
            }
            let mid = range.start + len / 2;
            let (lo, hi) = join(
                || sum(range.start..mid, tasks / 2),
                || sum(mid..range.end, tasks - tasks / 2),
            );
            lo + hi
        }
        assert_eq!(sum(0..1000, 8), 499_500);
    }

    #[test]
    fn join_deeply_nested_and_repeated() {
        // thousands of small forks: the per-step pattern the pool exists
        // for. Also exercises reclaim (tiny jobs are often won back by the
        // owner before a worker wakes).
        for round in 0..200u64 {
            let (a, (b, c)) = join(|| round * 2, || join(|| round * 3, || round * 5));
            assert_eq!((a, b, c), (round * 2, round * 3, round * 5));
        }
    }

    #[test]
    fn join_propagates_forked_panic() {
        let caught = std::panic::catch_unwind(|| {
            join(|| 1, || -> i32 { panic!("forked job panicked on purpose") })
        });
        let payload = caught.expect_err("panic must propagate to the joiner");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("on purpose"), "unexpected payload: {msg:?}");
        // the pool survives a panicked job
        let (a, b) = join(|| 1, || 2);
        assert_eq!(a + b, 3);
    }

    #[test]
    fn join_dyn_runs_both_closures() {
        let (mut a, mut b) = (0u64, 0u64);
        {
            let mut fa = || a = 7;
            let mut fb = || b = 11;
            join_dyn(&mut fa, &mut fb);
        }
        assert_eq!((a, b), (7, 11));
    }

    #[test]
    fn par_sum_matches_serial() {
        let f = |i: usize| (i as f64).sqrt();
        let serial: f64 = (0..500).map(f).sum();
        for tasks in [1, 2, 3, 7] {
            let par = par_sum_indexed(500, tasks, f);
            assert!((par - serial).abs() < 1e-9 * serial, "tasks={tasks}");
        }
    }

    #[test]
    fn num_threads_is_positive_and_stable() {
        assert!(num_threads() >= 1);
        assert_eq!(num_threads(), num_threads());
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override(None), None);
        assert_eq!(parse_thread_override(Some("")), None);
        assert_eq!(parse_thread_override(Some("0")), None);
        assert_eq!(parse_thread_override(Some("-2")), None);
        assert_eq!(parse_thread_override(Some("abc")), None);
        assert_eq!(parse_thread_override(Some("1")), Some(1));
        assert_eq!(parse_thread_override(Some(" 8 ")), Some(8));
    }
}
