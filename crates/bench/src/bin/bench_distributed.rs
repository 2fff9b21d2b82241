//! Machine-readable distributed-executor benchmarks: the zero-copy
//! thread-per-rank executor end to end.
//!
//! ```text
//! cargo run --release -p treesvd-bench --bin bench_distributed            # full run,
//!                                                                         # writes BENCH_distributed.json
//! cargo run --release -p treesvd-bench --bin bench_distributed -- --smoke # quick gate, no file
//! ```
//!
//! The full run times `distributed_svd` end to end (one thread per
//! processor, vectors accumulated; its sweep plan built once per shape,
//! as the library's drivers keep it) over three orderings and two problem
//! sizes, and writes median wall-clock seconds to `BENCH_distributed.json`
//! at the repository root. The smoke run is the regression gate wired
//! into `scripts/verify.sh`: the steady state must make zero payload
//! allocations.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use treesvd_matrix::generate;
use treesvd_orderings::OrderingKind;
use treesvd_sim::{distributed_svd, DistributedOutcome, ExecConfig, SweepPlan};

/// Timed samples per configuration; the median is reported.
const SAMPLES: usize = 5;

/// Sweep cap of every timed run.
const MAX_SWEEPS: usize = 64;

/// Median wall-clock seconds of a full distributed run, plus the outcome
/// of the final sample for sweep/allocation introspection.
fn time_distributed(
    kind: OrderingKind,
    m: usize,
    n: usize,
    seed: u64,
) -> (f64, DistributedOutcome) {
    let a = generate::random_uniform(m, n, seed);
    let ord = kind.build(n).expect("ordering");
    let plan = Arc::new(SweepPlan::new(ord.as_ref(), n).expect("built-in orderings chain"));
    let mut samples = [0.0f64; SAMPLES];
    let mut last = None;
    for s in &mut samples {
        let columns = a.clone().into_columns();
        let plan = Arc::clone(&plan);
        let t = Instant::now();
        let run = distributed_svd(plan, columns, true, ExecConfig::default(), MAX_SWEEPS)
            .expect("distributed_svd");
        *s = t.elapsed().as_secs_f64();
        last = Some(run);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[SAMPLES / 2], last.unwrap())
}

fn full_run(seed: u64) {
    const M: usize = 4096;
    let orderings = [OrderingKind::NewRing, OrderingKind::FatTree, OrderingKind::Hybrid];
    let sizes = [16usize, 32];
    let mut rows = Vec::new();

    for &kind in &orderings {
        for &n in &sizes {
            let (seconds, run) = time_distributed(kind, M, n, seed);
            eprintln!(
                "{} n={n:2} P={:2}: {seconds:.4} s over {} sweeps \
                 (steady payload allocs {})",
                kind.name(),
                n / 2,
                run.sweeps,
                run.steady_payload_allocs
            );
            rows.push(format!(
                "{{\"ordering\": \"{}\", \"n\": {n}, \"processors\": {}, \
                 \"config\": \"zero-copy\", \"seconds\": {seconds:.6}, \"sweeps\": {}, \
                 \"steady_payload_allocs\": {}}}",
                kind.name(),
                n / 2,
                run.sweeps,
                run.steady_payload_allocs
            ));
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo run --release -p treesvd-bench --bin bench_distributed\",\n",
    );
    let _ = writeln!(json, "  \"meta\": {},", treesvd_bench::meta::meta_json(seed));
    let _ = writeln!(json, "  \"matrix_rows\": {M},");
    json.push_str(
        "  \"unit\": \"seconds (median wall-clock, full distributed_svd, vectors on)\",\n",
    );
    let _ = writeln!(json, "  \"results\": [\n    {}\n  ]", rows.join(",\n    "));
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distributed.json");
    std::fs::write(out, &json).expect("write BENCH_distributed.json");
    println!("{json}");
    eprintln!("wrote {out}");
}

/// Quick gate: the executor's steady state must make zero payload
/// allocations.
fn smoke_run(seed: u64) -> bool {
    const M: usize = 4096;
    const N: usize = 16;
    let kind = OrderingKind::NewRing;

    let (seconds, run) = time_distributed(kind, M, N, seed);
    let zero_alloc = run.steady_payload_allocs == 0;
    println!(
        "smoke {M}x{N} {}: {:.1} ms, steady payload allocations {} — {}",
        kind.name(),
        seconds * 1e3,
        run.steady_payload_allocs,
        if zero_alloc { "PASS" } else { "FAIL" }
    );
    zero_alloc
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
