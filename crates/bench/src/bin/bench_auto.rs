//! Machine-readable auto-tuner benchmarks: `SvdOptions::auto()` against
//! fixed hand-picked configs and against the untuned defaults.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_auto            # full run,
//!                                                                  # writes BENCH_auto.json
//! cargo run --release -p treesvd-bench --bin bench_auto -- --smoke # quick gate, no file
//! ```
//!
//! The full run walks a (shape × P) grid of six points in two families
//! and, at every point, times the auto-tuned path against that point's
//! fixed candidate set and against the untuned default:
//!
//! - **blocked** points: fixed = the blocked driver with the Gram and the
//!   pairwise meeting kernels; default = the simulated driver with stock
//!   options (what an untuned caller gets). All three, like auto, run
//!   behind the QR front-end, which every solve takes by default.
//! - **tall** points: fixed = the direct path (front-end off) and the
//!   simulated driver behind the QR front-end; default = the latter.
//!
//! Gates, asserted by the full run and the `--smoke` subset alike:
//! auto within 5% of the best fixed config at every point, judged by the
//! median over rounds of the per-round ratio of auto to that round's
//! fastest fixed config; auto strictly faster than the untuned default on
//! ≥ 2 points (≥ 1 in the smoke subset), by per-config medians; and the
//! warm tuning path (second `plan_for` on a cached key) makes zero heap
//! allocations and re-runs no calibration probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use treesvd_core::{
    auto_svd_for, blocked_svd, BlockKernel, BlockedOptions, HestenesSvd, SvdOptions, TuneProblem,
};
use treesvd_matrix::{generate, Matrix};

/// Heap-allocation counter wrapped around the system allocator, so the
/// smoke gate can prove the warm tuning path touches the heap zero times.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method defers verbatim to `System` after bumping an
// atomic counter — the counter has no effect on the allocator contract,
// so `System`'s own guarantees (validity of returned pointers, layout
// handling) carry over unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: defers verbatim to `System` after bumping an atomic counter
    // (no effect on the allocator contract), so the caller's obligations
    // and `System`'s guarantees pass through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; passed
        // through to `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as `alloc` — counter bump, then `System` verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc` — same layout, same contract, `System` does
        // the zeroing.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: as `alloc` — counter bump, then `System` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior allocation through
        // this same wrapper, i.e. from `System`, which `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: uncounted pass-through — frees are not allocation events.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Which comparison family a grid point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Blocked,
    Tall,
}

impl Family {
    fn label(self) -> &'static str {
        match self {
            Family::Blocked => "blocked",
            Family::Tall => "tall",
        }
    }
}

struct Point {
    family: Family,
    m: usize,
    n: usize,
    processors: usize,
}

struct PointResult {
    family: Family,
    m: usize,
    n: usize,
    processors: usize,
    auto_seconds: f64,
    auto_driver: &'static str,
    auto_kernel: &'static str,
    fixed: Vec<(&'static str, f64)>,
    default_seconds: f64,
    best_fixed: &'static str,
    best_fixed_seconds: f64,
    /// Median over rounds of auto's time over the round's fastest fixed
    /// config.
    auto_over_best_fixed: f64,
    within_5pct: bool,
    beats_default: bool,
}

/// A named, repeatable solver configuration to be timed.
type Config<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// The least wall-clock time one timing sample spans.
const BATCH: Duration = Duration::from_millis(20);

/// Round-robin rounds per point. The 5% gate reads the median of the
/// rounds' auto/best-fixed ratios, and a round's ratio still spreads
/// when the host changes speed between two batches: at `blocked 256x64`,
/// where auto plans exactly the `blocked-gram` config, the median of 5
/// rounds missed 5% in 6 of 100 runs and the median of 15 in 2 and 3 of
/// 100 (two sets of runs), while an auto made 10% slower failed 100 and
/// 99 of 100 at 15 rounds. What misses at 15 rounds is a whole run in
/// which every round reads auto about 7% slower than the identical
/// config; more rounds do not remove that.
const ROUNDS: usize = 15;

/// Wall-clock seconds per run of each configuration in each round
/// (`times[config][round]`), with the samples interleaved round-robin
/// across the configs: sequential per-config blocks let
/// scheduler/thermal drift pull two *identical* code paths several
/// percent apart, which a 5% gate cannot tolerate.
///
/// A sample is the mean of a batch of back-to-back runs lasting at least
/// [`BATCH`]: single runs of a ~2 ms solve spread about ±10% on a shared
/// host. Even so the host's speed can switch between two levels from one
/// batch to the next, so the 5% gate compares configs within a round
/// (see [`measure_point`]) rather than per-config medians: auto plans
/// exactly `blocked-gram` at the smoke's `blocked 256x64` point, and the
/// medians of two identical configs failed the gate there in about one
/// run in ten.
///
/// Each batch directly follows an untimed run of the same config, so it
/// sees the heap its own previous call left, as a caller repeating it
/// would. Timed straight after another config, a run inherits that
/// config's allocator state: at `tall 2048x12` the same QR front-end
/// solve took about 8% longer after a front-end solve than after a
/// direct one (glibc trims the freed buffers off the heap, and the next
/// solve faults them back in), so the config in the first slot was
/// charged for the one in the last.
fn time_round_robin(configs: &mut [Config<'_>], rounds: usize) -> Vec<Vec<f64>> {
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); configs.len()];
    for _ in 0..rounds {
        for (i, (_, f)) in configs.iter_mut().enumerate() {
            f();
            let t = Instant::now();
            let mut runs = 0u32;
            while runs == 0 || t.elapsed() < BATCH {
                f();
                runs += 1;
            }
            times[i].push(t.elapsed().as_secs_f64() / f64::from(runs));
        }
    }
    times
}

/// The median (the upper one of an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn run_blocked(a: &Matrix, p: usize, kernel: BlockKernel) {
    let opts =
        BlockedOptions { processors: p, svd: SvdOptions::default().with_block_kernel(kernel) };
    let run = blocked_svd(a, &opts).expect("blocked_svd");
    std::hint::black_box(run.sweeps);
}

fn run_default(a: &Matrix) {
    let run = HestenesSvd::new(SvdOptions::default()).compute(a).expect("compute");
    std::hint::black_box(run.sweeps);
}

fn run_direct(a: &Matrix) {
    let opts = SvdOptions::default().with_qr_frontend(false);
    let run = HestenesSvd::new(opts).compute(a).expect("compute");
    std::hint::black_box(run.sweeps);
}

fn run_auto(a: &Matrix, problem: &TuneProblem) {
    let run = auto_svd_for(a, problem).expect("auto_svd_for");
    std::hint::black_box(run.sweeps);
}

/// Time every configuration at one grid point and judge the gates.
fn measure_point(pt: &Point, rounds: usize, seed: u64) -> PointResult {
    let a = generate::random_uniform(pt.m, pt.n, seed);
    let problem = TuneProblem::new(pt.m, pt.n).with_processors(pt.processors);
    // warm the decision cache so the timed auto runs exercise the steady
    // state (first call pays the one-shot probes + model)
    let plan = treesvd_tune::plan_for(&problem);

    let kernel_name = match plan.kernel {
        treesvd_core::KernelSel::Gram => "gram",
        treesvd_core::KernelSel::Pairwise => "pairwise",
    };
    // config 0 is always the auto path; then the fixed set's indices and
    // the untuned default's (it may alias a fixed config, timed once)
    let (times, fixed, default) = match pt.family {
        Family::Blocked => {
            let mut configs: Vec<Config<'_>> = vec![
                ("auto", Box::new(|| run_auto(&a, &problem))),
                ("blocked-gram", Box::new(|| run_blocked(&a, pt.processors, BlockKernel::Gram))),
                (
                    "blocked-pairwise",
                    Box::new(|| run_blocked(&a, pt.processors, BlockKernel::Pairwise)),
                ),
                ("default", Box::new(|| run_default(&a))),
            ];
            let t = time_round_robin(&mut configs, rounds);
            (t, vec![("blocked-gram", 1), ("blocked-pairwise", 2)], 3)
        }
        Family::Tall => {
            let mut configs: Vec<Config<'_>> = vec![
                ("auto", Box::new(|| run_auto(&a, &problem))),
                ("direct", Box::new(|| run_direct(&a))),
                ("qr-frontend", Box::new(|| run_default(&a))),
            ];
            let t = time_round_robin(&mut configs, rounds);
            // the front-end path IS the untuned default
            (t, vec![("direct", 1), ("qr-frontend", 2)], 2)
        }
    };

    // the host's speed can change between rounds, so auto is judged
    // against the fixed configs timed beside it in the same round
    let auto_over_best_fixed = median(
        (0..rounds)
            .map(|r| times[0][r] / fixed.iter().map(|&(_, i)| times[i][r]).fold(f64::MAX, f64::min))
            .collect(),
    );
    let seconds: Vec<f64> = times.into_iter().map(median).collect();
    let (auto_seconds, default_seconds) = (seconds[0], seconds[default]);
    let fixed: Vec<(&'static str, f64)> = fixed.iter().map(|&(l, i)| (l, seconds[i])).collect();
    let (best_fixed, best_fixed_seconds) =
        fixed.iter().copied().min_by(|x, y| x.1.total_cmp(&y.1)).expect("fixed set is non-empty");
    PointResult {
        family: pt.family,
        m: pt.m,
        n: pt.n,
        processors: pt.processors,
        auto_seconds,
        auto_driver: plan.driver.name(),
        auto_kernel: kernel_name,
        fixed,
        default_seconds,
        best_fixed,
        best_fixed_seconds,
        auto_over_best_fixed,
        within_5pct: auto_over_best_fixed <= 1.05,
        beats_default: auto_seconds < default_seconds,
    }
}

fn report(r: &PointResult) {
    let fixed: Vec<String> =
        r.fixed.iter().map(|(l, s)| format!("{l} {:.3} ms", s * 1e3)).collect();
    eprintln!(
        "{:<7} {:>5}x{:<3} P={:<2} auto {:.3} ms ({}, {}) vs [{}] default {:.3} ms, \
         auto/best fixed {:.3} (median per round) — {}{}",
        r.family.label(),
        r.m,
        r.n,
        r.processors,
        r.auto_seconds * 1e3,
        r.auto_driver,
        r.auto_kernel,
        fixed.join(", "),
        r.default_seconds * 1e3,
        r.auto_over_best_fixed,
        if r.within_5pct { "within 5% of best fixed" } else { "SLOWER than best fixed +5%" },
        if r.beats_default { ", beats default" } else { "" },
    );
}

/// Judge the cross-point gates over a measured grid.
fn grid_gates(results: &[PointResult]) -> (bool, usize) {
    let within_everywhere = results.iter().all(|r| r.within_5pct);
    let strict_wins = results.iter().filter(|r| r.beats_default).count();
    (within_everywhere, strict_wins)
}

/// Warm-path gate: a second `plan_for` on an already-planned key must hit
/// the cache, re-run no probe, and make zero heap allocations.
fn warm_path_gate() -> bool {
    let problem = TuneProblem::new(3000, 40).with_processors(4);
    let cold = treesvd_tune::plan_for(&problem); // plan + (at most once) probes
    let probes_before = treesvd_tune::calib::probe_runs();
    let hits_before = treesvd_tune::cache::global().hits();
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);
    let warm = treesvd_tune::plan_for(&problem);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let hit = treesvd_tune::cache::global().hits() > hits_before;
    let no_reprobe = treesvd_tune::calib::probe_runs() == probes_before;
    let identical = cold == warm;
    println!(
        "warm tuning path: {allocs} heap allocations, cache hit {hit}, \
         probe re-runs {} , plan identical {identical} — {}",
        !no_reprobe,
        if allocs == 0 && hit && no_reprobe && identical { "PASS" } else { "FAIL" }
    );
    allocs == 0 && hit && no_reprobe && identical
}

fn full_grid() -> Vec<Point> {
    vec![
        Point { family: Family::Blocked, m: 256, n: 64, processors: 4 },
        Point { family: Family::Blocked, m: 512, n: 48, processors: 4 },
        Point { family: Family::Blocked, m: 1024, n: 64, processors: 8 },
        Point { family: Family::Blocked, m: 512, n: 96, processors: 8 },
        Point { family: Family::Tall, m: 4096, n: 16, processors: 4 },
        Point { family: Family::Tall, m: 2048, n: 12, processors: 4 },
    ]
}

fn full_run(seed: u64) -> bool {
    let mut results = Vec::new();
    for pt in &full_grid() {
        let r = measure_point(pt, ROUNDS, seed);
        report(&r);
        results.push(r);
    }
    let (within, wins) = grid_gates(&results);
    let warm_ok = warm_path_gate();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_auto\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    json.push_str(
        "  \"unit\": \"seconds (median wall-clock, full solve, vectors on); \
         auto_over_best_fixed: median over rounds of auto's time over that round's fastest \
         fixed config, the statistic the 5% gate reads\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let mut fixed = String::new();
        for (j, (label, s)) in r.fixed.iter().enumerate() {
            let sep = if j + 1 < r.fixed.len() { ", " } else { "" };
            let _ = write!(fixed, "\"{label}\": {s:.6}{sep}");
        }
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"m\": {}, \"n\": {}, \"processors\": {}, \
             \"auto_seconds\": {:.6}, \"auto_driver\": \"{}\", \"auto_kernel\": \"{}\", \
             \"fixed\": {{{fixed}}}, \
             \"best_fixed\": \"{}\", \"best_fixed_seconds\": {:.6}, \
             \"auto_over_best_fixed\": {:.4}, \
             \"default_seconds\": {:.6}, \"auto_within_5pct\": {}, \
             \"auto_beats_default\": {}}}{comma}",
            r.family.label(),
            r.m,
            r.n,
            r.processors,
            r.auto_seconds,
            r.auto_driver,
            r.auto_kernel,
            r.best_fixed,
            r.best_fixed_seconds,
            r.auto_over_best_fixed,
            r.default_seconds,
            r.within_5pct,
            r.beats_default,
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"gates\": {{\"auto_within_5pct_everywhere\": {within}, \
         \"strict_wins_vs_default\": {wins}, \
         \"warm_path_zero_alloc_probe_free\": {warm_ok}}}\n"
    );
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_auto.json");
    std::fs::write(out, &json).expect("write BENCH_auto.json");
    println!("{json}");
    eprintln!("wrote {out}");

    let pass = within && wins >= 2 && warm_ok;
    println!(
        "gates: within-5%-everywhere {within}, strict wins vs default {wins} (need ≥ 2), \
         warm path {warm_ok} — {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

/// Quick gate for `scripts/verify.sh`: a two-point sub-grid (one per
/// family, shrunk shapes) plus the warm-path gate.
fn smoke_run(seed: u64) -> bool {
    let grid = [
        Point { family: Family::Blocked, m: 256, n: 64, processors: 4 },
        Point { family: Family::Tall, m: 2048, n: 12, processors: 4 },
    ];
    let mut results = Vec::new();
    for pt in &grid {
        let r = measure_point(pt, ROUNDS, seed);
        report(&r);
        results.push(r);
    }
    let (within, wins) = grid_gates(&results);
    let warm_ok = warm_path_gate();
    let pass = within && wins >= 1 && warm_ok;
    println!(
        "smoke gates: within-5%-of-best-fixed {within}, strict wins vs default {wins} \
         (need ≥ 1), warm path zero-alloc + probe-free {warm_ok} — {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

fn main() {
    let seed = treesvd_bench::meta::seed_from_args();
    let ok =
        if std::env::args().any(|a| a == "--smoke") { smoke_run(seed) } else { full_run(seed) };
    if !ok {
        std::process::exit(1);
    }
}
