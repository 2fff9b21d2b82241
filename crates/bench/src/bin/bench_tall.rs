//! Machine-readable tall-skinny benchmarks: QR front-end vs direct Jacobi.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_tall            # full run,
//!                                                                  # writes BENCH_tall.json
//! cargo run --release -p treesvd-bench --bin bench_tall -- --smoke # quick gate, no file
//! ```
//!
//! The full run times `blocked_svd` (Gram kernel, `P = 4`, vectors on) on
//! extreme-aspect matrices twice per shape: directly, and with the
//! tall-skinny QR front-end engaged (`A·P = QR`, `Rᵀ = Q₂R₂`, Jacobi
//! sweeps on the `n×n` matrix `R₂ᵀ = Ũ₂ΣṼ₂ᵀ`, `U ← Q·[Ũ₂; 0]`). Direct
//! Jacobi pays `O(m·n²)` per sweep on the full column height; the
//! front-end pays the `O(m·n²)` factorization once and then sweeps on
//! `n`-row columns, so the gap widens with `m/n` and with the sweep count.
//! Median wall-clock seconds (of three samples, but one direct sample at
//! the two largest shapes), the sweep counts (the front-end's are sweeps
//! of `R₂ᵀ`) and the derived speedups go to `BENCH_tall.json` at the
//! repository root.
//!
//! The full run also records the QR layer on its own (the `qr` block):
//! `TsqrQr::factor`, `apply_q` on an `m×n` block, and the back-transform
//! `q_times` of an `n×n` head on one thread, at panels 16, 32 and 64,
//! each in ms and GF/s: the median over [`QR_ROUNDS`] rounds of each
//! round's best of [`QR_REPS`], the panels of a shape taking turns within
//! every round. Four tall shapes stand for the front-end's first
//! factorization, `A·P = QR`, and three square ones (n = 64, 128, 256)
//! for its second, `Rᵀ = Q₂R₂`, and the back-transform `Q₂·Ṽ₂`; each row
//! names its `layer`, and `frontend` marks the panel the front-end itself
//! takes for that shape ([`qr_panel_for`]).
//!
//! The smoke run is the regression gate wired into `scripts/verify.sh`:
//! at `m/n = 128` the front-end must beat direct Jacobi outright, the
//! whole pipeline (TSQR + sweeps + back-transform) must be
//! allocation-free after warm-up, the factorization alone must be
//! allocation-free after warm-up at every panel width, both paths must
//! agree on the spectrum, and on the front-end's own factorization
//! (one panel at 8192×64) `q_times` of a random head must equal
//! `apply_q` of the zero-padded head bit for bit.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use treesvd_core::tall::qr_panel_for;
use treesvd_core::{blocked_svd, BlockKernel, BlockedOptions, BlockedRun, SvdOptions};
use treesvd_matrix::qr::{QrOptions, SerialJoin, TsqrQr};
use treesvd_matrix::{generate, Matrix};

/// Processors for the blocked driver (`2P` block slots, `n = 8c`).
const PROCESSORS: usize = 4;

/// The blocked driver behind the QR front-end (the default), or on `A`
/// itself.
fn opts_for(frontend: bool) -> BlockedOptions {
    let svd = SvdOptions::default()
        .with_block_kernel(BlockKernel::Gram)
        .with_vectors(true)
        .with_qr_frontend(frontend);
    BlockedOptions { processors: PROCESSORS, svd }
}

/// Median wall-clock seconds over `samples` runs, plus the final run for
/// sweep/allocation/engagement introspection.
fn time_blocked(a: &Matrix, opts: &BlockedOptions, samples: usize) -> (f64, BlockedRun) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let t = Instant::now();
        let run = blocked_svd(a, opts).expect("blocked_svd");
        times.push(t.elapsed().as_secs_f64());
        last = Some(run);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], last.unwrap())
}

/// Largest relative disagreement between two sigma vectors.
fn sigma_gap(a: &[f64], b: &[f64]) -> f64 {
    let scale = a.first().copied().unwrap_or(1.0).max(1e-300);
    a.iter().zip(b).map(|(x, y)| (x - y).abs() / scale).fold(0.0, f64::max)
}

struct Record {
    m: usize,
    n: usize,
    direct_s: f64,
    frontend_s: f64,
    direct_sweeps: usize,
    frontend_sweeps: usize,
    /// Timed samples behind each median: (direct, front-end).
    samples: (usize, usize),
    sigma_gap: f64,
}

/// Both paths on a random `m × n` input, each timed over its own number
/// of samples.
fn run_shape(m: usize, n: usize, samples: (usize, usize), seed: u64) -> Record {
    let a = generate::random_uniform(m, n, seed);
    let (direct_s, direct) = time_blocked(&a, &opts_for(false), samples.0);
    let (frontend_s, fe) = time_blocked(&a, &opts_for(true), samples.1);
    assert!(!direct.qr_frontend, "direct path must not engage the front-end");
    assert!(fe.qr_frontend, "front-end must engage at m/n = {}", m / n);
    assert_eq!(fe.steady_alloc_events, 0, "front-end pipeline allocated in steady state");
    Record {
        m,
        n,
        direct_s,
        frontend_s,
        direct_sweeps: direct.sweeps,
        frontend_sweeps: fe.sweeps,
        samples,
        sigma_gap: sigma_gap(&direct.svd.sigma, &fe.svd.sigma),
    }
}

/// Panel widths of the QR-layer table.
const QR_PANELS: [usize; 3] = [16, 32, 64];

/// Shapes of the QR-layer table: the `tall` workload's 8192×64, then a
/// short, a tall and a wide-panel shape (the front-end's first
/// factorization, `A·P = QR`), then the `n×n` inputs of its second,
/// `Rᵀ = Q₂R₂`, at n = 64, 128 and 256.
const QR_SHAPES: [(usize, usize); 7] =
    [(8192, 64), (512, 128), (16384, 128), (2048, 256), (64, 64), (128, 128), (256, 256)];

/// The front-end's factorization a QR-layer shape stands for: the second
/// one factors the `n×n` `Rᵀ`.
fn qr_layer(m: usize, n: usize) -> &'static str {
    if m == n {
        "second: R^T = Q2 R2"
    } else {
        "first: A P = Q R"
    }
}

/// Rounds of the QR-layer table: in each, every panel of a shape takes
/// its turn, and the median over rounds of each round's best is recorded.
/// A single best of 15 moved entries by up to a third between runs of one
/// build on a shared host, as its speed drifted from one entry to the
/// next.
const QR_ROUNDS: usize = 7;

/// Timed repetitions per panel and round; the round keeps the best.
const QR_REPS: usize = 3;

struct QrRecord {
    m: usize,
    n: usize,
    panel: usize,
    factor_ms: f64,
    apply_ms: f64,
    q_times_ms: f64,
    steady_alloc_events: u64,
}

impl QrRecord {
    /// Householder QR flops, `2mn² − 2n³/3`.
    fn factor_gflops(&self) -> f64 {
        let (m, n) = (self.m as f64, self.n as f64);
        (2.0 * m * n * n - 2.0 / 3.0 * n * n * n) / (self.factor_ms * 1e6)
    }

    /// Flops of applying `n` reflectors of length `m` to `n` columns,
    /// `4mn² − 2n³`.
    fn apply_flops(&self) -> f64 {
        let (m, n) = (self.m as f64, self.n as f64);
        4.0 * m * n * n - 2.0 * n * n * n
    }

    fn apply_gflops(&self) -> f64 {
        self.apply_flops() / (self.apply_ms * 1e6)
    }

    /// `q_times` on `apply_q`'s flop count: it delivers the same product,
    /// `Q` applied to `n` columns, but skips the zero rows of the padded
    /// head, so this is its effective rate.
    fn q_times_gflops(&self) -> f64 {
        self.apply_flops() / (self.q_times_ms * 1e6)
    }

    /// Whether the front-end factors this shape in panels of this width.
    fn frontend(&self) -> bool {
        self.panel == qr_panel_for(self.m, self.n, SvdOptions::default().qr_panel)
    }
}

/// Best wall-clock milliseconds of `reps` calls.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One thread's factorization of `a` in panels of `panel` columns.
fn factor(a: &Matrix, panel: usize) -> TsqrQr {
    let opts = QrOptions { panel, leaf_rows: 0, lanes: 1 };
    TsqrQr::factor(a, &opts, &SerialJoin).expect("m >= n")
}

/// `TsqrQr::factor`, `apply_q` (on an `m×n` block) and `q_times` (of an
/// `n×n` head, its `m×n` result allocated per call as in the front-end) on
/// one thread, at each of `panels`: in each of `rounds` rounds every panel
/// takes its turn and keeps its best of `reps` calls, and each entry is
/// the median over rounds of those bests.
fn time_qr(
    m: usize,
    n: usize,
    panels: &[usize],
    rounds: usize,
    reps: usize,
    seed: u64,
) -> Vec<QrRecord> {
    let a = generate::random_uniform(m, n, seed);
    let mut x = generate::random_uniform(m, n, seed + 1);
    let head = generate::random_uniform(n, n, seed + 2);
    // per panel, each round's bests: (factor, apply_q, q_times)
    let mut bests = vec![Vec::with_capacity(rounds); panels.len()];
    let mut steady = vec![0; panels.len()];
    for _ in 0..rounds {
        for (k, &panel) in panels.iter().enumerate() {
            let factor_ms = best_ms(reps, || {
                black_box(factor(&a, panel));
            });
            let qr = factor(&a, panel);
            let apply_ms = best_ms(reps, || qr.apply_q(black_box(&mut x), 1, &SerialJoin));
            let q_times_ms = best_ms(reps, || {
                black_box(qr.q_times(black_box(&head), 1, &SerialJoin));
            });
            bests[k].push([factor_ms, apply_ms, q_times_ms]);
            steady[k] += qr.stats().steady_alloc_events;
        }
    }
    let median = |rows: &[[f64; 3]], i: usize| {
        let mut v: Vec<f64> = rows.iter().map(|r| r[i]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    panels
        .iter()
        .zip(bests.iter().zip(steady))
        .map(|(&panel, (b, steady_alloc_events))| QrRecord {
            m,
            n,
            panel,
            factor_ms: median(b, 0),
            apply_ms: median(b, 1),
            q_times_ms: median(b, 2),
            steady_alloc_events,
        })
        .collect()
}

fn full_run(seed: u64) {
    // the QR layer first, while the heap is fresh: after the 262144×256
    // solves below, the same factorizations timed up to 2× slower
    let mut qr_records = Vec::new();
    for &(m, n) in &QR_SHAPES {
        for q in time_qr(m, n, &QR_PANELS, QR_ROUNDS, QR_REPS, seed) {
            eprintln!(
                "qr {m:5}x{n:<3} panel {:2}{}: factor {:7.3} ms ({:5.1} GF/s), \
                 apply_q {:7.3} ms ({:5.1} GF/s), q_times {:7.3} ms ({:5.1} GF/s)",
                q.panel,
                if q.frontend() { "*" } else { " " },
                q.factor_ms,
                q.factor_gflops(),
                q.apply_ms,
                q.apply_gflops(),
                q.q_times_ms,
                q.q_times_gflops()
            );
            assert_eq!(q.steady_alloc_events, 0, "QR factor allocated in steady state");
            qr_records.push(q);
        }
    }

    // (rows, cols, (direct, front-end) timed samples): one direct sample
    // at the two largest shapes, where a direct run takes 20 s to minutes;
    // the front-end takes the median of three everywhere, since one sample
    // of its 1–7 s run there moved by up to 45% between runs of one build
    let shapes =
        [(16384usize, 128usize, (3usize, 3usize)), (65536, 256, (1, 3)), (262144, 256, (1, 3))];
    let mut records = Vec::new();

    for &(m, n, samples) in &shapes {
        let r = run_shape(m, n, samples, seed);
        eprintln!(
            "{m:6}x{n}: direct {:.3} s ({} sweeps) vs qr front-end {:.3} s ({} sweeps) \
             = {:.2}x, sigma gap {:.1e}",
            r.direct_s,
            r.direct_sweeps,
            r.frontend_s,
            r.frontend_sweeps,
            r.direct_s / r.frontend_s,
            r.sigma_gap
        );
        records.push(r);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_tall\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    let _ = writeln!(json, "  \"processors\": {PROCESSORS},");
    json.push_str(
        "  \"unit\": \"seconds (median wall-clock of the samples named, full blocked_svd, \
         vectors on)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"m\": {}, \"n\": {}, \"aspect\": {}, \"direct_seconds\": {:.6}, \
             \"frontend_seconds\": {:.6}, \"direct_sweeps\": {}, \"frontend_sweeps\": {}, \
             \"direct_samples\": {}, \"frontend_samples\": {}, \"sigma_gap\": {:.3e}}}{comma}",
            r.m,
            r.n,
            r.m / r.n,
            r.direct_s,
            r.frontend_s,
            r.direct_sweeps,
            r.frontend_sweeps,
            r.samples.0,
            r.samples.1,
            r.sigma_gap
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"frontend_speedup_over_direct\": {\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}x{}\": {:.2}{comma}", r.m, r.n, r.direct_s / r.frontend_s);
    }
    json.push_str("  },\n");
    json.push_str("  \"qr\": {\n");
    let _ = writeln!(
        json,
        "    \"unit\": \"ms (one thread; the median over {QR_ROUNDS} rounds of each round's \
         best of {QR_REPS}, a shape's panels taking turns within each round): TsqrQr::factor, \
         apply_q on an m x n block, and q_times of an n x n head (Q*[head; 0], result \
         allocated per call); GF/s from 2mn^2 - 2n^3/3 flops for the factor and 4mn^2 - 2n^3 \
         for apply_q and q_times (q_times skips the zero rows of the padded head: its rate is \
         effective); layer names the front-end factorization a shape stands for, the first of \
         A or the second, of the n x n R^T; frontend marks the panel the front-end takes for \
         the shape\","
    );
    json.push_str("    \"results\": [\n");
    for (i, q) in qr_records.iter().enumerate() {
        let comma = if i + 1 < qr_records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"layer\": \"{}\", \"m\": {}, \"n\": {}, \"panel\": {}, \"frontend\": {}, \
             \"factor_ms\": {:.3}, \"factor_gflops\": {:.1}, \"apply_q_ms\": {:.3}, \
             \"apply_q_gflops\": {:.1}, \"q_times_ms\": {:.3}, \"q_times_gflops\": {:.1}}}{comma}",
            qr_layer(q.m, q.n),
            q.m,
            q.n,
            q.panel,
            q.frontend(),
            q.factor_ms,
            q.factor_gflops(),
            q.apply_ms,
            q.apply_gflops(),
            q.q_times_ms,
            q.q_times_gflops()
        );
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tall.json");
    std::fs::write(out, &json).expect("write BENCH_tall.json");
    println!("{json}");
    eprintln!("wrote {out}");

    let headline = records.last().map(|r| r.direct_s / r.frontend_s).unwrap_or(f64::NAN);
    eprintln!("front-end speedup at 262144x256: {headline:.2}x");
}

/// Whether `q_times` of a random `n×n` head equals `apply_q` of the
/// zero-padded head, bit for bit, on one thread.
fn q_times_is_apply_q(qr: &TsqrQr, m: usize, n: usize, seed: u64) -> bool {
    let head = generate::random_uniform(n, n, seed);
    let mut padded = Matrix::zeros(m, n).expect("nonzero shape");
    for j in 0..n {
        padded.col_mut(j)[..n].copy_from_slice(head.col(j));
    }
    qr.apply_q(&mut padded, 1, &SerialJoin);
    let got = qr.q_times(&head, 1, &SerialJoin);
    let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(&got) == bits(&padded)
}

/// Quick gate at `m/n = 128`: the QR front-end must beat direct Jacobi
/// outright, stay allocation-free in steady state (the whole pipeline, and
/// the factorization alone at every panel width), agree with the direct
/// spectrum to near machine precision, and, on the front-end's own
/// factorization, back-transform a head exactly as `apply_q` does.
fn smoke_run(seed: u64) -> bool {
    const M: usize = 8192;
    const N: usize = 64; // c = 8 at P = 4
    let mut alloc_free = true;
    for q in time_qr(M, N, &QR_PANELS, 1, 1, seed) {
        println!(
            "smoke qr {M}x{N} panel {}: {} steady-state scratch allocation(s)",
            q.panel, q.steady_alloc_events
        );
        alloc_free &= q.steady_alloc_events == 0;
    }
    let panel = qr_panel_for(M, N, SvdOptions::default().qr_panel);
    let qr = factor(&generate::random_uniform(M, N, seed), panel);
    let exact = q_times_is_apply_q(&qr, M, N, seed + 3);
    alloc_free &= qr.stats().steady_alloc_events == 0;
    println!(
        "smoke qr {M}x{N}, the front-end's panel {panel} ({} panel(s)): q_times {} apply_q \
         of the padded head bit for bit, {} steady-state scratch allocation(s)",
        qr.stats().panels,
        if exact { "equals" } else { "DIFFERS from" },
        qr.stats().steady_alloc_events
    );
    let r = run_shape(M, N, (1, 1), seed);

    let fast_enough = r.frontend_s < r.direct_s;
    let accurate = r.sigma_gap < 1e-10;
    let pass = fast_enough && accurate && alloc_free && exact;
    println!(
        "smoke {M}x{N} (m/n = {}): qr front-end {:.1} ms vs direct {:.1} ms ({:.2}x), \
         sigma gap {:.1e} — {}",
        M / N,
        r.frontend_s * 1e3,
        r.direct_s * 1e3,
        r.direct_s / r.frontend_s,
        r.sigma_gap,
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

fn main() {
    let seed = treesvd_bench::meta::seed_from_args();
    if std::env::args().any(|a| a == "--smoke") {
        if !smoke_run(seed) {
            std::process::exit(1);
        }
    } else {
        full_run(seed);
    }
}
