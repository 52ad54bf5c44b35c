//! The pluggable-transport contract on the real 3-D SEM: every backend, in
//! both communication modes, must reproduce the channel/blocking reference
//! **bit for bit** — fields via `to_bits`, deterministic counters exactly.
//! Anything weaker would let a backend silently reorder the interface
//! assembly. Both world layouts are held to it, across intra-rank thread
//! counts too: the replicated one (`run_distributed`) and the rank-local
//! one `wave-lts simulate` runs (`run_distributed_local_*_flight`).

use wave_lts::lts::{LtsNewmark, LtsSetup, Operator, Source};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::obs::MetricsRegistry;
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::exchange::build_plans;
use wave_lts::runtime::{
    run_distributed, run_distributed_local_acoustic_flight, run_distributed_local_elastic_flight,
    DistributedConfig, RankStats, RuntimeError, TransportKind,
};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::{AcousticOperator, ElasticOperator};

const BACKENDS: [TransportKind; 3] = [
    TransportKind::Channel,
    TransportKind::SharedRing,
    TransportKind::UnixSocket,
];

#[allow(clippy::too_many_arguments)] // a test harness knob per axis beats a one-use config struct
fn run_case(
    op: &AcousticOperator,
    setup: &LtsSetup,
    part: &[u32],
    dt: f64,
    u0: &[f64],
    steps: usize,
    ranks: usize,
    kind: TransportKind,
    overlap: bool,
) -> (Vec<f64>, Vec<f64>, Vec<RankStats>) {
    let cfg = DistributedConfig {
        transport: kind,
        overlap,
        ..DistributedConfig::new(ranks)
    };
    run_distributed(
        op,
        setup,
        part,
        dt,
        u0,
        &vec![0.0; u0.len()],
        steps,
        &cfg,
        &[],
    )
    .unwrap_or_else(|e| panic!("{kind:?} overlap={overlap} ranks={ranks}: {e}"))
}

fn assert_identical(
    label: &str,
    reference: &(Vec<f64>, Vec<f64>, Vec<RankStats>),
    got: &(Vec<f64>, Vec<f64>, Vec<RankStats>),
) {
    let (ur, vr, sr) = reference;
    let (u, v, s) = got;
    for i in 0..ur.len() {
        assert_eq!(ur[i].to_bits(), u[i].to_bits(), "{label}: u[{i}]");
        assert_eq!(vr[i].to_bits(), v[i].to_bits(), "{label}: v[{i}]");
    }
    for (a, b) in sr.iter().zip(s) {
        assert_eq!(a.elem_ops, b.elem_ops, "{label}: elem_ops rank {}", a.rank);
        assert_eq!(
            a.n_exchanges, b.n_exchanges,
            "{label}: n_exchanges rank {}",
            a.rank
        );
        assert_eq!(
            a.msgs_sent, b.msgs_sent,
            "{label}: msgs_sent rank {}",
            a.rank
        );
        assert_eq!(
            a.dofs_sent, b.dofs_sent,
            "{label}: dofs_sent rank {}",
            a.rank
        );
    }
}

fn sweep(elements: usize, order: usize, rank_counts: &[usize], steps: usize) {
    let b = BenchmarkMesh::build(MeshKind::Trench, elements);
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = Operator::ndof(&op);
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    for &ranks in rank_counts {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let reference = run_case(
            &op,
            &setup,
            &part,
            dt,
            &u0,
            steps,
            ranks,
            TransportKind::Channel,
            false,
        );
        assert!(reference.2.iter().any(|s| s.n_exchanges > 0));
        for kind in BACKENDS {
            for overlap in [false, true] {
                if kind == TransportKind::Channel && !overlap {
                    continue; // that's the reference itself
                }
                let got = run_case(&op, &setup, &part, dt, &u0, steps, ranks, kind, overlap);
                assert_identical(
                    &format!("order {order}, {ranks} ranks, {kind:?}, overlap={overlap}"),
                    &reference,
                    &got,
                );
            }
        }
    }
}

#[test]
fn order2_all_transports_all_rank_counts_bitwise() {
    sweep(600, 2, &[2, 4, 8], 2);
}

#[test]
fn order3_all_transports_bitwise() {
    sweep(200, 3, &[4], 2);
}

#[test]
fn order4_all_transports_bitwise() {
    sweep(80, 4, &[4], 2);
}

type Fields = (Vec<f64>, Vec<f64>, Vec<RankStats>);

/// Run the rank-local path at every backend × overlap × `threads_per_rank`
/// point and assert each bitwise-identical to the channel/blocking/serial
/// reference, which is returned. Three threads split the per-level DOF
/// lists of the LTS vector updates unevenly.
fn local_sweep(
    label: &str,
    ranks: usize,
    run: impl Fn(&DistributedConfig) -> Result<Fields, RuntimeError>,
) -> Fields {
    let reference = run(&DistributedConfig::new(ranks))
        .unwrap_or_else(|e| panic!("{label}: reference run: {e}"));
    assert!(reference.2.iter().any(|s| s.n_exchanges > 0));
    for kind in BACKENDS {
        for overlap in [false, true] {
            for threads in [1, 2, 3] {
                if kind == TransportKind::Channel && !overlap && threads == 1 {
                    continue; // that's the reference itself
                }
                let cfg = DistributedConfig {
                    transport: kind,
                    overlap,
                    threads_per_rank: threads,
                    ..DistributedConfig::new(ranks)
                };
                let case = format!("{label}, {kind:?}, overlap={overlap}, threads={threads}");
                let got = run(&cfg).unwrap_or_else(|e| panic!("{case}: {e}"));
                assert_identical(&case, &reference, &got);
            }
        }
    }
    reference
}

/// The replicated worlds (`run_distributed`, and through the same world
/// constructor `run_distributed_endpoints` and `run_rank_endpoint`) split
/// the same per-level DOF lists across intra-rank threads as the rank-local
/// ones, with a source injected between the threaded updates.
#[test]
fn replicated_worlds_threads_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let op = AcousticOperator::new(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = Operator::ndof(&op);
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.03).sin()).collect();
    let v0 = vec![0.0; ndof];
    let src_dof = setup.leaf[setup.n_levels - 1][0];
    let sources = [Source::new(src_dof, |t| (40.0 * t).sin())];
    for ranks in [1, 3] {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let run = |threads: usize, overlap: bool| {
            let cfg = DistributedConfig {
                threads_per_rank: threads,
                overlap,
                ..DistributedConfig::new(ranks)
            };
            run_distributed(&op, &setup, &part, dt, &u0, &v0, 3, &cfg, &sources)
                .unwrap_or_else(|e| panic!("{ranks} ranks, {threads} threads: {e}"))
        };
        let reference = run(1, false);
        for threads in [2, 3] {
            for overlap in [false, true] {
                let case =
                    format!("replicated, {ranks} ranks, {threads} threads, overlap={overlap}");
                assert_identical(&case, &reference, &run(threads, overlap));
            }
        }
    }
}

#[test]
fn rank_local_acoustic_all_transports_and_threads_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let ndof = Operator::ndof(&AcousticOperator::new(&b.mesh, order));
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
    let v0 = vec![0.0; ndof];
    let ranks = 3;
    let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
    local_sweep("rank-local acoustic", ranks, |cfg| {
        let mut host = MetricsRegistry::new();
        run_distributed_local_acoustic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &v0,
            2,
            cfg,
            &[],
            &mut host,
        )
        .0
    });
}

/// Four ranks of two threads each put eight threads on a two-core host: the
/// run finishes in test time only if idle pool workers park instead of
/// spinning, and it must still reproduce the single-thread bits and
/// counters.
#[test]
fn oversubscribed_ranks_times_threads_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 600);
    let order = 2;
    let ndof = Operator::ndof(&AcousticOperator::new(&b.mesh, order));
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).cos()).collect();
    let v0 = vec![0.0; ndof];
    let ranks = 4;
    let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 2);
    let run = |threads: usize| {
        let cfg = DistributedConfig {
            threads_per_rank: threads,
            ..DistributedConfig::new(ranks)
        };
        let mut host = MetricsRegistry::new();
        run_distributed_local_acoustic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &v0,
            6,
            &cfg,
            &[],
            &mut host,
        )
        .0
        .unwrap_or_else(|e| panic!("{threads} threads per rank: {e}"))
    };
    let reference = run(1);
    assert!(reference.2.iter().any(|s| s.n_exchanges > 0));
    assert_identical("4 ranks x 2 threads", &reference, &run(2));
}

/// Elastic worlds renumber DOFs as `3·node + comp`; a source on a
/// non-zero component of an interface node is injected by every rank
/// holding it, through that map.
#[test]
fn rank_local_elastic_interface_source_all_transports_and_threads_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 400);
    let order = 2;
    let op = ElasticOperator::poisson(&b.mesh, order);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = Operator::ndof(&op);
    let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
    let ranks = 3;
    let steps = 3;
    let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
    let plans = build_plans(&op, &setup, &part, ranks);
    let (src_dof, holders) = plans[0]
        .shared
        .iter()
        .flatten()
        .find(|(d, _)| d % 3 == 1)
        .expect("rank 0 has an interface node");
    assert!(holders.len() >= 2);
    let sources = vec![Source::ricker(*src_dof, 0.3, 1.0, 1.0)];
    let zero = vec![0.0; ndof];

    let (u, _, _) = local_sweep("rank-local elastic + interface source", ranks, |cfg| {
        let mut host = MetricsRegistry::new();
        run_distributed_local_elastic_flight(
            &b.mesh, &b.levels, order, &part, dt, &zero, &zero, steps, cfg, &sources, &mut host,
        )
        .0
    });

    let mut u_ref = zero.clone();
    let mut v_ref = zero.clone();
    LtsNewmark::new(&op, &setup, dt).run(&mut u_ref, &mut v_ref, 0.0, steps, &sources);
    let scale = u_ref.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    assert!(scale > 0.0, "the source must move the field");
    for i in 0..ndof {
        assert!(
            (u[i] - u_ref[i]).abs() <= 1e-12 * scale,
            "dof {i}: {} vs serial {}",
            u[i],
            u_ref[i]
        );
    }
}
