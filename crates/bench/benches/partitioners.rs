//! Criterion benches: partitioner throughput per strategy (the cost a user
//! pays once per mesh, amortised over the whole simulation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_partition::{partition_mesh, Strategy};
use std::hint::black_box;

fn bench_strategies(c: &mut Criterion) {
    let b = BenchmarkMesh::build(MeshKind::Trench, 10_000);
    let k = 8;
    let mut g = c.benchmark_group("partition_10k_k8");
    g.sample_size(10);
    let mut strategies = Strategy::paper_set();
    strategies.push(Strategy::ScotchBaseline);
    for s in strategies {
        g.bench_with_input(BenchmarkId::new("strategy", s.name()), &s, |bch, &s| {
            bch.iter(|| black_box(partition_mesh(&b.mesh, &b.levels, k, s, 1)))
        });
    }
    g.finish();
}

fn bench_part_counts(c: &mut Criterion) {
    let b = BenchmarkMesh::build(MeshKind::Trench, 10_000);
    let mut g = c.benchmark_group("scotch_p_by_k");
    g.sample_size(10);
    for k in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::new("k", k), &k, |bch, &k| {
            bch.iter(|| black_box(partition_mesh(&b.mesh, &b.levels, k, Strategy::ScotchP, 1)))
        });
    }
    g.finish();
}

/// The partitions the wave-lts benchmark workloads run, at their sizes:
/// PaToH on the 64k-element geometric crust and MeTiS on the 32k-element
/// trench-big, both k = 2.
fn bench_workload_sizes(c: &mut Criterion) {
    let crust = BenchmarkMesh::crust_geometric(64_000);
    let big = BenchmarkMesh::build(MeshKind::TrenchBig, 32_000);
    let mut g = c.benchmark_group("partition_workload_sizes");
    g.sample_size(10);
    g.bench_function("crust64k_patoh_k2", |bch| {
        let s = Strategy::Patoh { final_imbal: 0.05 };
        bch.iter(|| black_box(partition_mesh(&crust.mesh, &crust.levels, 2, s, 1)))
    });
    g.bench_function("trenchbig32k_metis_k2", |bch| {
        bch.iter(|| {
            black_box(partition_mesh(
                &big.mesh,
                &big.levels,
                2,
                Strategy::MetisMc,
                1,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_part_counts,
    bench_workload_sizes
);
criterion_main!(benches);
