//! Machine-readable distributed-executor benchmarks: the zero-copy
//! transport with and without comm/compute overlap.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_distributed            # full run,
//!                                                                         # writes BENCH_distributed.json
//! cargo run --release -p treesvd-bench --bin bench_distributed -- --smoke # quick gate, no file
//! ```
//!
//! The full run times `distributed_svd_with` end to end (one thread per
//! processor, vectors accumulated) over three orderings and two problem
//! sizes, with send-ahead overlap off and on. It writes median wall-clock
//! seconds to `BENCH_distributed.json` at the repository root, plus the
//! per-step price of the overlapped schedule (`overlap_step_ns`, the one
//! cost-model constant a microprobe cannot reach; the tuner compiles it
//! into `Calibration::builtin`). The smoke run is the regression gate
//! wired into `scripts/verify.sh`: the overlapped schedule must actually
//! engage, and its steady state must make zero payload allocations.

use std::fmt::Write as _;
use std::time::Instant;
use treesvd_matrix::generate;
use treesvd_orderings::OrderingKind;
use treesvd_sim::{distributed_svd_with, DistConfig, DistributedOutcome, ExecConfig};

/// Timed samples per configuration; the median is reported.
const SAMPLES: usize = 5;

/// The two executor configurations under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    ZeroCopy,
    ZeroCopyOverlap,
}

impl Config {
    const ALL: [Config; 2] = [Config::ZeroCopy, Config::ZeroCopyOverlap];

    fn label(self) -> &'static str {
        match self {
            Config::ZeroCopy => "zero-copy",
            Config::ZeroCopyOverlap => "zero-copy+overlap",
        }
    }

    fn dist(self) -> DistConfig {
        DistConfig {
            exec: ExecConfig::default(),
            max_sweeps: 64,
            overlap: self == Config::ZeroCopyOverlap,
            ..DistConfig::default()
        }
    }
}

/// Median wall-clock seconds of a full distributed run, plus the outcome
/// of the final sample for sweep/allocation introspection.
fn time_distributed(
    kind: OrderingKind,
    m: usize,
    n: usize,
    config: Config,
    seed: u64,
) -> (f64, DistributedOutcome) {
    let a = generate::random_uniform(m, n, seed);
    let ord = kind.build(n).expect("ordering");
    let cfg = config.dist();
    let mut samples = [0.0f64; SAMPLES];
    let mut last = None;
    for s in &mut samples {
        let columns = a.clone().into_columns();
        let t = Instant::now();
        let run = distributed_svd_with(ord.as_ref(), columns, true, &cfg).expect("distributed_svd");
        *s = t.elapsed().as_secs_f64();
        last = Some(run);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[SAMPLES / 2], last.unwrap())
}

struct Record {
    ordering: OrderingKind,
    n: usize,
    config: Config,
    seconds: f64,
    sweeps: usize,
    overlap: bool,
    steady_allocs: u64,
}

fn find(records: &[Record], ordering: OrderingKind, n: usize, config: Config) -> f64 {
    records
        .iter()
        .find(|r| r.ordering == ordering && r.n == n && r.config == config)
        .map(|r| r.seconds)
        .unwrap_or(f64::NAN)
}

fn full_run(seed: u64) {
    const M: usize = 4096;
    let orderings = [OrderingKind::NewRing, OrderingKind::FatTree, OrderingKind::Hybrid];
    let sizes = [16usize, 32];
    let mut records = Vec::new();

    for &kind in &orderings {
        for &n in &sizes {
            for config in Config::ALL {
                let (seconds, run) = time_distributed(kind, M, n, config, seed);
                eprintln!(
                    "{} n={n:2} P={:2} {}: {seconds:.4} s over {} sweeps \
                     (overlap {}, steady payload allocs {})",
                    kind.name(),
                    n / 2,
                    config.label(),
                    run.sweeps,
                    run.overlap,
                    run.steady_payload_allocs
                );
                records.push(Record {
                    ordering: kind,
                    n,
                    config,
                    seconds,
                    sweeps: run.sweeps,
                    overlap: run.overlap,
                    steady_allocs: run.steady_payload_allocs,
                });
            }
        }
    }

    // The per-step price of the overlapped schedule, observed as the
    // median (overlap − zero-copy) wall-clock delta per schedule step —
    // the one tuner constant a microprobe cannot reach. Steps per sweep
    // ≈ n rounds for these orderings.
    let mut step_deltas: Vec<f64> = Vec::new();
    for &kind in &orderings {
        for &n in &sizes {
            let zc = find(&records, kind, n, Config::ZeroCopy);
            let ov = find(&records, kind, n, Config::ZeroCopyOverlap);
            let sweeps = records
                .iter()
                .find(|r| r.ordering == kind && r.n == n && r.config == Config::ZeroCopyOverlap)
                .map_or(0, |r| r.sweeps);
            let steps = (sweeps * n) as f64;
            if ov.is_finite() && zc.is_finite() && ov > zc && steps > 0.0 {
                step_deltas.push((ov - zc) * 1e9 / steps);
            }
        }
    }
    step_deltas.sort_by(f64::total_cmp);
    let overlap_step_ns = step_deltas.get(step_deltas.len() / 2).copied();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_distributed\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    let _ = writeln!(json, "  \"matrix_rows\": {M},");
    if let Some(ns) = overlap_step_ns {
        let _ = writeln!(json, "  \"overlap_step_ns\": {ns:.1},");
    }
    json.push_str(
        "  \"unit\": \"seconds (median wall-clock, full distributed_svd, vectors on)\",\n",
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"ordering\": \"{}\", \"n\": {}, \"processors\": {}, \
             \"config\": \"{}\", \"seconds\": {:.6}, \"sweeps\": {}, \
             \"overlap\": {}, \"steady_payload_allocs\": {}}}{comma}",
            r.ordering.name(),
            r.n,
            r.n / 2,
            r.config.label(),
            r.seconds,
            r.sweeps,
            r.overlap,
            r.steady_allocs
        );
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distributed.json");
    std::fs::write(out, &json).expect("write BENCH_distributed.json");
    println!("{json}");
    eprintln!("wrote {out}");
}

/// Quick gate: the overlapped schedule must actually engage, and its
/// steady state must make zero payload allocations. (Whether overlap is
/// worth engaging at this point is `bench_auto --smoke`'s gate.)
fn smoke_run(seed: u64) -> bool {
    const M: usize = 4096;
    const N: usize = 16;
    let kind = OrderingKind::NewRing;

    let (overlapped, run) = time_distributed(kind, M, N, Config::ZeroCopyOverlap, seed);
    let engaged = run.overlap;
    let zero_alloc = run.steady_payload_allocs == 0;
    println!(
        "smoke {M}x{N} {}: overlap {:.1} ms, overlap engaged {engaged}, \
         steady payload allocations {} — {}",
        kind.name(),
        overlapped * 1e3,
        run.steady_payload_allocs,
        if engaged && zero_alloc { "PASS" } else { "FAIL" }
    );
    engaged && zero_alloc
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
