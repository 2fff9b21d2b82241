//! E7 bench: full-SVD end-to-end runs across orderings and machine sizes
//! (paper claim C7, §6) — real data, simulated machine, real rayon cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treesvd_bench::experiments::paper_opts;
use treesvd_core::{HestenesSvd, OrderingKind, TopologyKind};
use treesvd_matrix::generate;

fn print_simulated_scaling() {
    println!("\n== E7: simulated total time for one full SVD (m = 2n) ==");
    for topo in [TopologyKind::PerfectFatTree, TopologyKind::Cm5] {
        for n in [16usize, 32, 64] {
            let a = generate::random_uniform(2 * n, n, 99);
            print!("{topo} n={n:3}:");
            for kind in [OrderingKind::RoundRobin, OrderingKind::FatTree, OrderingKind::Hybrid] {
                let run = HestenesSvd::new(paper_opts().with_ordering(kind).with_topology(topo))
                    .compute(&a)
                    .expect("convergence");
                print!("  {}={:.3e}({}sw)", kind.name(), run.simulated_time, run.sweeps);
            }
            println!();
        }
    }
    println!();
}

fn bench_full_svd(c: &mut Criterion) {
    print_simulated_scaling();
    let mut group = c.benchmark_group("svd_end_to_end");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let a = generate::random_uniform(2 * n, n, 5);
        for kind in [OrderingKind::RoundRobin, OrderingKind::FatTree, OrderingKind::Hybrid] {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &a, |b, a| {
                b.iter(|| {
                    let run = HestenesSvd::new(paper_opts().with_ordering(kind))
                        .compute(a)
                        .expect("convergence");
                    std::hint::black_box(run.svd.sigma[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_full_svd);
criterion_main!(benches);
