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
//! root. Beside them it records the Gram kernel's three meeting stages per
//! call at each width, on the first step's `P` meetings of the same input:
//! the Gram build (`ops::gram_block`, one meeting), the in-cache lane pass
//! (`soa::GramLanes`: interleave the `P` meetings' `G`, one pass over all
//! of them, hand back each `W`) and the panel apply on one meeting's `A`
//! panel, in both forms: `ops::panel_update_into`, which the driver's flat
//! meetings run, writing into two spare panels, and the in-place
//! `ops::panel_update` (band snapshot), which its hierarchical
//! sub-meetings run. The panel stages run on a copy of the panel that
//! starts on a 64-byte line, as the driver's block slots and spares do;
//! the Gram build and the in-place update run again 16 bytes past one
//! (with `panel_update`'s tile), an offset glibc gives a plain `Vec`. The
//! smoke run is the regression gate wired into
//! `scripts/verify.sh`: at `c = 16` the Gram kernel must not lose to the
//! pairwise oracle, and the Gram run must be allocation-free after the
//! first sweep warms its scratch buffers.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use treesvd_core::{blocked_svd, BlockKernel, BlockedOptions, BlockedRun, SvdOptions};
use treesvd_matrix::aligned::AlignedBuf;
use treesvd_matrix::soa::GramLanes;
use treesvd_matrix::{generate, ops, Matrix};

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

/// Median microseconds per call of `f`, over [`SAMPLES`] samples of about
/// 2 ms each.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let reps = (2e-3 / t.elapsed().as_secs_f64().max(1e-8)).clamp(1.0, 1e5) as usize;
    let mut samples = [0.0f64; SAMPLES];
    for s in &mut samples {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        *s = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[SAMPLES / 2]
}

/// Per-call microseconds of the Gram meeting's three stages at block
/// width `c`, on the meetings of the first step (slot pair `p` holds
/// columns `2pc..2(p+1)c` of `a`), with the meeting's panel (and
/// `panel_update`'s tile) `offset` bytes past a 64-byte line; at this
/// first meeting of random columns every pair of every union rotates.
struct Stages {
    c: usize,
    offset: usize,
    gram_block_us: f64,
    /// Timed with the panel on a line only: the pass reads no panel.
    lane_pass_us: Option<f64>,
    /// The out-of-place update into two spare panels on lines, as the
    /// driver's flat meetings run it; timed on a line only, where the
    /// driver keeps its panels.
    panel_update_into_us: Option<f64>,
    /// The in-place update (band snapshot into the tile).
    panel_update_us: f64,
}

/// Byte offsets past a line at which the panel stages are timed: where the
/// driver's block slots start, and where glibc may put a plain `Vec`.
const PANEL_OFFSETS: [usize; 2] = [0, 16];

/// A copy of `src` at `buf[skip..]`, `skip` values past a 64-byte line.
fn past_a_line(src: &[f64], skip: usize) -> AlignedBuf {
    let mut buf = AlignedBuf::zeros(skip + src.len());
    buf[skip..].copy_from_slice(src);
    buf
}

fn time_stages(a: &Matrix, c: usize, processors: usize) -> Vec<Stages> {
    let (m, k) = (a.rows(), 2 * c);
    let unions: Vec<&[f64]> = a.as_slice().chunks_exact(k * m).take(processors).collect();
    let gs: Vec<Vec<f64>> = unions
        .iter()
        .map(|u| {
            let (x, y) = u.split_at(c * m);
            let mut g = vec![0.0; k * k];
            ops::gram_block(x, y, m, &mut g);
            g
        })
        .collect();
    // the driver's default threshold, n_pad·ε
    let threshold = (a.cols() as f64) * f64::EPSILON;
    let mut lanes = GramLanes::default();
    let mut w = vec![0.0; k * k];
    let lane_pass_us = per_call_us(|| {
        lanes.reset(k, processors);
        for (lane, g) in gs.iter().enumerate() {
            lanes.load(lane, g);
        }
        black_box(lanes.pass(threshold, true));
        for lane in 0..processors {
            lanes.w_into(lane, &mut w);
        }
        black_box(&w);
    });
    lanes.w_into(0, &mut w);
    let mut g = vec![0.0; k * k];
    PANEL_OFFSETS
        .iter()
        .map(|&offset| {
            let skip = offset / size_of::<f64>();
            let mut panel = past_a_line(unions[0], skip);
            let mut tile = past_a_line(&vec![0.0; k * ops::PANEL_TILE], skip);
            let gram_block_us = per_call_us(|| {
                let (x, y) = panel[skip..].split_at(c * m);
                ops::gram_block(x, y, m, &mut g);
                black_box(&g);
            });
            let panel_update_us = per_call_us(|| {
                let (x, y) = panel[skip..].split_at_mut(c * m);
                ops::panel_update(x, y, m, &w, &mut tile[skip..]);
                black_box(&panel);
            });
            let panel_update_into_us = (offset == 0).then(|| {
                let (mut xo, mut yo) = (AlignedBuf::zeros(c * m), AlignedBuf::zeros(c * m));
                per_call_us(|| {
                    let (x, y) = panel.split_at(c * m);
                    black_box(ops::panel_update_into(x, y, m, &w, &mut xo, &mut yo));
                })
            });
            let lane_pass_us = (offset == 0).then_some(lane_pass_us);
            Stages { c, offset, gram_block_us, lane_pass_us, panel_update_into_us, panel_update_us }
        })
        .collect()
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
    let mut stages = Vec::new();

    for &c in &block_widths {
        let n = 2 * PROCESSORS * c;
        let a = generate::random_uniform(M, n, seed);
        for st in time_stages(&a, c, PROCESSORS) {
            let lane_pass = st.lane_pass_us.map_or(String::new(), |us| {
                format!(", lane pass ({PROCESSORS} meetings) {us:.2} us")
            });
            let into = st
                .panel_update_into_us
                .map_or(String::new(), |us| format!(", panel_update_into {us:.2} us"));
            eprintln!(
                "c={c:2} stages per call, panel {} B past a line: gram_block {:.2} us{lane_pass}\
                 {into}, panel_update {:.2} us",
                st.offset, st.gram_block_us, st.panel_update_us
            );
            stages.push(st);
        }
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
    json.push_str(
        "  \"stages_unit\": \"microseconds per call (median): gram_block, panel_update_into \
         (the out-of-place update the driver's flat meetings run, into two spare panels on \
         lines) and panel_update (in place, with its band snapshot) on one meeting's A panel, \
         copied to start panel_offset_bytes past a 64-byte line (0: on a line, as the \
         driver's block slots are; 16: with panel_update's tile, an offset glibc gives a \
         plain Vec; panel_update_into is timed on the line only), the lane pass over the \
         first step's meetings (every pair rotates; it reads no panel, so it is timed on the \
         line only)\",\n",
    );
    let _ = writeln!(json, "  \"meetings_per_lane_pass\": {PROCESSORS},");
    json.push_str("  \"stages\": [\n");
    for (i, st) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        let lane_pass =
            st.lane_pass_us.map_or(String::new(), |us| format!(", \"lane_pass_us\": {us:.2}"));
        let into = st
            .panel_update_into_us
            .map_or(String::new(), |us| format!(", \"panel_update_into_us\": {us:.2}"));
        let _ = writeln!(
            json,
            "    {{\"c\": {}, \"panel_offset_bytes\": {}, \"gram_block_us\": {:.2}{lane_pass}\
             {into}, \"panel_update_us\": {:.2}}}{comma}",
            st.c, st.offset, st.gram_block_us, st.panel_update_us
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
