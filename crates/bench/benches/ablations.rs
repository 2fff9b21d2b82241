//! Ablation benches (A1–A4 in `treesvd_bench::ablations`): block size,
//! intra-group ordering, threshold, and message-size sensitivity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treesvd_bench::ablations;
use treesvd_bench::experiments::paper_opts;
use treesvd_core::{HestenesSvd, SvdOptions};
use treesvd_matrix::generate;

fn print_tables() {
    println!("\n== A1: hybrid block-size sweep (n = 64) ==");
    println!("{}", ablations::a1_block_size(64, 64).to_markdown());
    println!("== A2: intra-group ordering ablation ==");
    println!("{}", ablations::a2_intra_group(32, 2, 64).to_markdown());
    println!("== A4: message-size sweep on the CM-5 tree ==");
    println!("{}", ablations::a4_message_size(64).to_markdown());
}

fn bench_threshold(c: &mut Criterion) {
    print_tables();
    let mut group = c.benchmark_group("ablation/threshold");
    group.sample_size(10);
    let a = generate::random_uniform(48, 24, 5);
    // threshold 0 is excluded: rotating everything never satisfies the
    // rotation-count termination rule (see A3 in EXPERIMENTS.md)
    for (label, thr) in
        [("default", None), ("loose-1e-8", Some(1e-8)), ("tight-1e-15", Some(1e-15))]
    {
        group.bench_with_input(BenchmarkId::new("svd", label), &a, |b, a| {
            b.iter(|| {
                let opts = SvdOptions { threshold: thr, ..paper_opts() };
                let run = HestenesSvd::new(opts).compute(a).expect("convergence");
                std::hint::black_box(run.sweeps)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_threshold);
criterion_main!(benches);
