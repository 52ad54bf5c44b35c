//! One worker pool per rank per run: each rank spawns exactly
//! `threads_per_rank − 1` OS threads, shared by the coloured masked applies
//! and the LTS vector updates, and none at one thread per rank.
//!
//! The count is read from a process-wide counter, so this binary holds this
//! one test and nothing else spawns pools while it runs.

use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_obs::MetricsRegistry;
use lts_partition::{partition_mesh, Strategy};
use lts_runtime::{run_distributed_local_acoustic_flight, DistributedConfig};
use lts_sem::gll::cfl_dt_scale;
use lts_sem::pool::WorkerPool;

#[test]
fn each_rank_spawns_threads_minus_one_workers_per_run() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 400);
    let order = 2;
    let ndof = lts_core::Operator::ndof(&lts_sem::AcousticOperator::new(&b.mesh, order));
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    let v0 = vec![0.0; ndof];
    for (ranks, threads) in [(2, 1), (1, 2), (2, 3), (3, 2)] {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig {
            threads_per_rank: threads,
            ..DistributedConfig::new(ranks)
        };
        let before = WorkerPool::spawned_total();
        let mut host = MetricsRegistry::new();
        let (result, _) = run_distributed_local_acoustic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &v0,
            3,
            &cfg,
            &[],
            &mut host,
        );
        result.unwrap_or_else(|e| panic!("{ranks} ranks x {threads} threads: {e}"));
        assert_eq!(
            WorkerPool::spawned_total() - before,
            ranks * (threads - 1),
            "{ranks} ranks x {threads} threads"
        );
    }
}
