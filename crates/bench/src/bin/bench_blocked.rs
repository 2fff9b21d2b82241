//! Machine-readable blocked-meeting benchmarks: pairwise oracle vs Gram kernel.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_blocked            # full run,
//!                                                                     # writes BENCH_blocked.json
//! cargo run --release -p treesvd-bench --bin bench_blocked -- --smoke # quick gate, no file
//! ```
//!
//! The full run times `blocked_svd` end to end on an `m × n` matrix at
//! several block widths `c` (with `n = 8c`, i.e. `P = 4` processors and
//! eight block slots), for both meeting kernels, with and without singular
//! vectors, and writes median wall-clock seconds plus the derived
//! Gram-over-pairwise speedups to `BENCH_blocked.json` at the repository
//! root. The smoke run is the regression gate wired into
//! `scripts/verify.sh`: at `c = 16` the Gram kernel must not lose to the
//! pairwise oracle, and the Gram run must be allocation-free after the
//! first sweep warms its scratch buffers.

use std::fmt::Write as _;
use std::time::Instant;
use treesvd_core::{blocked_svd, BlockKernel, BlockedOptions, BlockedRun, SvdOptions};
use treesvd_matrix::{generate, Matrix};

/// Timed samples per configuration; the median is reported.
const SAMPLES: usize = 5;

/// The blocked driver on `A` itself: the QR front-end is off, so the
/// meetings stream `m`-row panels, the shape this bench measures.
fn opts_for(kernel: BlockKernel, vectors: bool, processors: usize) -> BlockedOptions {
    let svd = SvdOptions::default()
        .with_qr_frontend(false)
        .with_block_kernel(kernel)
        .with_vectors(vectors);
    BlockedOptions { processors, svd }
}

/// Median wall-clock seconds of a full `blocked_svd` run, plus the run
/// itself (from the final sample) for sweep/allocation introspection.
fn time_blocked(a: &Matrix, opts: &BlockedOptions) -> (f64, BlockedRun) {
    let mut samples = [0.0f64; SAMPLES];
    let mut last = None;
    for s in &mut samples {
        let t = Instant::now();
        let run = blocked_svd(a, opts).expect("blocked_svd");
        *s = t.elapsed().as_secs_f64();
        last = Some(run);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[SAMPLES / 2], last.unwrap())
}

struct Record {
    kernel: BlockKernel,
    vectors: bool,
    c: usize,
    seconds: f64,
    sweeps: usize,
}

fn find(records: &[Record], kernel: BlockKernel, vectors: bool, c: usize) -> f64 {
    records
        .iter()
        .find(|r| r.kernel == kernel && r.vectors == vectors && r.c == c)
        .map(|r| r.seconds)
        .unwrap_or(f64::NAN)
}

fn full_run(seed: u64) {
    const M: usize = 1024;
    const PROCESSORS: usize = 4; // 8 block slots, n = 8c
    let block_widths = [4usize, 8, 16, 32];
    let mut records = Vec::new();

    for &c in &block_widths {
        let n = 2 * PROCESSORS * c;
        let a = generate::random_uniform(M, n, seed);
        for vectors in [true, false] {
            for kernel in [BlockKernel::Pairwise, BlockKernel::Gram] {
                let (seconds, run) = time_blocked(&a, &opts_for(kernel, vectors, PROCESSORS));
                eprintln!(
                    "c={c:2} n={n:3} kernel={kernel} vectors={vectors}: \
                     {seconds:.4} s over {} sweeps",
                    run.sweeps
                );
                records.push(Record { kernel, vectors, c, seconds, sweeps: run.sweeps });
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_blocked\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    let _ = writeln!(json, "  \"matrix_rows\": {M},");
    let _ = writeln!(json, "  \"processors\": {PROCESSORS},");
    json.push_str("  \"unit\": \"seconds (median wall-clock, full blocked_svd)\",\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"vectors\": {}, \"c\": {}, \
             \"seconds\": {:.6}, \"sweeps\": {}}}{comma}",
            r.kernel, r.vectors, r.c, r.seconds, r.sweeps
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"gram_speedup_over_pairwise\": {\n");
    for (i, &vectors) in [true, false].iter().enumerate() {
        let label = if vectors { "with_vectors" } else { "no_vectors" };
        let mut entries = String::new();
        for (j, &c) in block_widths.iter().enumerate() {
            let sep = if j + 1 < block_widths.len() { ", " } else { "" };
            let s = find(&records, BlockKernel::Pairwise, vectors, c)
                / find(&records, BlockKernel::Gram, vectors, c);
            let _ = write!(entries, "\"{c}\": {s:.2}{sep}");
        }
        let comma = if i == 0 { "," } else { "" };
        let _ = writeln!(json, "    \"{label}\": {{{entries}}}{comma}");
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_blocked.json");
    std::fs::write(out, &json).expect("write BENCH_blocked.json");
    println!("{json}");
    eprintln!("wrote {out}");

    let headline = find(&records, BlockKernel::Pairwise, true, 32)
        / find(&records, BlockKernel::Gram, true, 32);
    eprintln!("gram speedup at c=32 (with vectors): {headline:.2}x");
}

/// Quick gate: at block width 16 the Gram kernel must not lose to the
/// pairwise oracle, and its scratch buffers must stop growing after the
/// warm-up sweep.
fn smoke_run(seed: u64) -> bool {
    const M: usize = 512;
    const C: usize = 16;
    const PROCESSORS: usize = 4;
    let n = 2 * PROCESSORS * C;
    let a = generate::random_uniform(M, n, seed);

    let (pairwise, _) = time_blocked(&a, &opts_for(BlockKernel::Pairwise, true, PROCESSORS));
    let (gram, run) = time_blocked(&a, &opts_for(BlockKernel::Gram, true, PROCESSORS));

    // generous 10% slack: the gate guards against regressions, not noise
    let fast_enough = gram <= pairwise * 1.10;
    let zero_alloc = run.steady_alloc_events == 0;
    println!(
        "smoke {M}x{n} c={C}: gram {:.1} ms vs pairwise {:.1} ms ({:.2}x), \
         steady allocations {} — {}",
        gram * 1e3,
        pairwise * 1e3,
        pairwise / gram,
        run.steady_alloc_events,
        if fast_enough && zero_alloc { "PASS" } else { "FAIL" }
    );
    fast_enough && zero_alloc
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
