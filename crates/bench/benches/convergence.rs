//! E3/E4/E6 bench: sweeps-to-convergence per ordering, plus the quadratic
//! convergence trace (paper §1, §3, §4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treesvd_bench::experiments::paper_opts;
use treesvd_core::{HestenesSvd, OrderingKind};
use treesvd_matrix::generate;

fn print_convergence_summary() {
    println!("\n== E3: sweeps to convergence (random 64x32, 3 seeds) ==");
    for kind in OrderingKind::ALL {
        let mut sweeps = Vec::new();
        for seed in [1u64, 2, 3] {
            let a = generate::random_uniform(64, 32, seed);
            let run = HestenesSvd::new(paper_opts().with_ordering(kind))
                .compute(&a)
                .expect("convergence");
            sweeps.push(run.sweeps);
        }
        println!("{:>14}: {:?}", kind.name(), sweeps);
    }
    println!("\n== E6: coupling per sweep (fat-tree ordering, 48x24) ==");
    let a = generate::random_uniform(48, 24, 7);
    let run = HestenesSvd::new(paper_opts()).compute(&a).expect("convergence");
    for (k, c) in run.coupling_history().iter().enumerate() {
        println!("  sweep {:2}: {c:.3e}", k + 1);
    }
    println!();
}

fn bench_convergence(c: &mut Criterion) {
    print_convergence_summary();
    let mut group = c.benchmark_group("convergence");
    group.sample_size(10);
    let a = generate::random_uniform(48, 24, 11);
    for kind in [
        OrderingKind::RoundRobin,
        OrderingKind::FatTree,
        OrderingKind::NewRing,
        OrderingKind::Llb,
        OrderingKind::Hybrid,
    ] {
        group.bench_with_input(BenchmarkId::new(kind.name(), "48x24"), &a, |b, a| {
            b.iter(|| {
                let run = HestenesSvd::new(paper_opts().with_ordering(kind))
                    .compute(a)
                    .expect("convergence");
                std::hint::black_box(run.sweeps)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_convergence);
criterion_main!(benches);
