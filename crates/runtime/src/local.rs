//! Distributed-*memory* execution: the decomposer cuts the mesh into one
//! compact world per rank — a sub-operator over the rank's own elements
//! plus its exchange plan, level metadata, state and sources, all
//! renumbered to rank-local DOFs — so per-rank state scales with the
//! partition size instead of the mesh, the memory model of an MPI code like
//! SPECFEM3D.
//!
//! This is the *rank-local* world constructor; the *replicated* one and the
//! driver both runs share live in [`crate::distributed`]. One builder serves
//! both physics through the small `LocalOperator` trait:
//! [`UnstructuredAcoustic`] has one DOF per mesh node,
//! [`UnstructuredElastic`] three (`dof = 3·node + comp`). Verified bitwise
//! against the serial stepper and across transports.

use crate::distributed::{
    assemble, level_sources, run_worlds, DistributedConfig, RankWorld, RunResult,
};
use crate::exchange::{build_plans, RankPlan};
use crate::transport;
use lts_core::{DofTopology, LtsSetup, Operator, Source};
use lts_mesh::{HexMesh, Levels};
use lts_obs::{MetricsRegistry, RankRecording};
use lts_sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A rank-local sub-operator the decomposer cuts from a global one.
trait LocalOperator: Operator + Sync + Sized {
    /// DOFs per mesh node: global DOF `= COMPONENTS·node + comp`.
    const COMPONENTS: u32;
    /// The global operator the decomposer discretizes first.
    type Global: Operator + DofTopology;
    fn global(mesh: &HexMesh, order: usize) -> Self::Global;
    /// The sub-operator over `elems`, with the globally assembled mass of
    /// each node from `mass_of_node`, and the global node of each local node
    /// (ascending).
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        mass_of_node: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>);
}

impl LocalOperator for UnstructuredAcoustic {
    const COMPONENTS: u32 = 1;
    type Global = AcousticOperator;
    fn global(mesh: &HexMesh, order: usize) -> AcousticOperator {
        AcousticOperator::new(mesh, order)
    }
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        mass_of_node: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>) {
        UnstructuredAcoustic::from_subset(mesh, order, elems, Some(mass_of_node))
    }
}

impl LocalOperator for UnstructuredElastic {
    const COMPONENTS: u32 = 3;
    type Global = ElasticOperator;
    fn global(mesh: &HexMesh, order: usize) -> ElasticOperator {
        ElasticOperator::poisson(mesh, order)
    }
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        mass_of_node: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>) {
        UnstructuredElastic::from_subset(mesh, order, elems, Some(mass_of_node))
    }
}

/// Run partitioned LTS with per-rank local memory on the acoustic SEM.
///
/// Builds the global setup and mass once (as a real code would during its
/// mesher/decomposer phase), then hands each rank only its own slice of the
/// world. Records the decomposer phases (`decompose.discretize`,
/// `decompose.build_worlds`, `run.steps`) as spans in `host` and, on
/// success, folds every rank's registry into it so `host` ends with the
/// global counter totals. Returns the assembled global `(u, v)` and
/// per-rank statistics, plus every rank's drained flight-recorder ring.
/// Recordings come back on the `Err` side too — they are the crash-report
/// material when a rank dies mid-run (the error is the lowest failed
/// rank's).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredAcoustic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

/// [`run_distributed_local_acoustic_flight`] for the elastic operator: local
/// node numbering with three interleaved components per node.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredElastic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_local<L: LocalOperator>(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    let n_ranks = cfg.n_ranks;
    // global discretization (mass + level sets), as the decomposer computes
    let discretize = host.start_span("decompose.discretize", None);
    let global_op = L::global(mesh, order);
    let setup = LtsSetup::new(&global_op, &levels.elem_level);
    let ndof = Operator::ndof(&global_op);
    assert_eq!(u0.len(), ndof);
    let plans = build_plans(&global_op, &setup, partition, n_ranks);
    drop(discretize);
    host.set_gauge("ndof", ndof as f64);
    host.set_gauge("n_ranks", n_ranks as f64);

    let worlds_span = host.start_span("decompose.build_worlds", None);
    let mut elems_of = vec![Vec::new(); n_ranks];
    for (e, &r) in partition.iter().enumerate() {
        elems_of[r as usize].push(e as u32);
    }
    let mass = global_op.mass();
    let c = L::COMPONENTS as usize;
    let ops: Vec<(L, Vec<u32>)> = elems_of
        .iter()
        .map(|elems| L::from_subset(mesh, order, elems, &|n| mass[c * n as usize]))
        .collect();
    drop(global_op);
    let mut worlds = rank_local_worlds(&ops, &elems_of, plans, &setup, u0, v0, sources);
    drop(worlds_span);

    let run_span = host.start_span("run.steps", None);
    let endpoints = transport::make_cluster(cfg.transport, n_ranks);
    let (outcomes, recordings) = run_worlds(&mut worlds, endpoints, dt, n_steps, cfg, sources);
    drop(run_span);
    let result = assemble(ndof, &worlds, outcomes);
    if let Ok((_, _, stats)) = &result {
        for s in stats {
            host.merge_from(&s.registry);
        }
    }
    (result, recordings)
}

/// Every rank's world on its own sub-operator: `ops[r]` is rank `r`'s
/// operator with its local→global node map, `elems_of[r]` its elements
/// (global ids, ascending). Each global plan is relabelled in place to
/// local element and DOF numbering through flat maps.
fn rank_local_worlds<'a, L: LocalOperator>(
    ops: &'a [(L, Vec<u32>)],
    elems_of: &[Vec<u32>],
    plans: Vec<RankPlan>,
    setup: &LtsSetup,
    u0: &[f64],
    v0: &[f64],
    sources: &[Source],
) -> Vec<RankWorld<'a, L>> {
    const ABSENT: u32 = u32::MAX;
    let c = L::COMPONENTS;
    let mut local_of_global = vec![ABSENT; u0.len()];
    let mut local_elem = vec![0u32; elems_of.iter().map(Vec::len).sum()];
    ops.iter()
        .zip(elems_of)
        .zip(plans)
        .map(|(((op, nodes), elems), mut plan)| {
            let global_of_local: Vec<u32> = nodes
                .iter()
                .flat_map(|&n| (0..c).map(move |k| c * n + k))
                .collect();
            for (l, &g) in global_of_local.iter().enumerate() {
                local_of_global[g as usize] = l as u32;
            }
            for (l, &e) in elems.iter().enumerate() {
                local_elem[e as usize] = l as u32;
            }
            for lists in [
                &mut plan.my_elems,
                &mut plan.my_boundary_elems,
                &mut plan.my_interior_elems,
            ] {
                relabel(lists, &local_elem);
            }
            for lists in [&mut plan.my_zero, &mut plan.my_active, &mut plan.my_leaf]
                .into_iter()
                .chain(plan.pair_dofs.iter_mut())
            {
                relabel(lists, &local_of_global);
            }
            for (d, _) in plan.shared.iter_mut().flatten() {
                *d = local_of_global[*d as usize];
            }
            plan.my_dofs = (0..global_of_local.len() as u32).collect();
            let sources = level_sources(setup, sources, |g| {
                Some(local_of_global[g as usize]).filter(|&l| l != ABSENT)
            });
            let gather = |x: &[f64]| global_of_local.iter().map(|&g| x[g as usize]).collect();
            let world = RankWorld {
                op,
                plan,
                dof_level: global_of_local
                    .iter()
                    .map(|&g| setup.dof_level[g as usize])
                    .collect(),
                u: gather(u0),
                v: gather(v0),
                sources,
                global_of_local,
            };
            // the next rank's source lookup must not see this rank's DOFs
            for &g in &world.global_of_local {
                local_of_global[g as usize] = ABSENT;
            }
            world
        })
        .collect()
}

/// Map every id in `lists` through `to`.
fn relabel(lists: &mut [Vec<u32>], to: &[u32]) {
    for id in lists.iter_mut().flatten() {
        *id = to[*id as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::LtsNewmark;
    use lts_mesh::BenchmarkMesh;
    use lts_mesh::MeshKind;
    use lts_partition::{partition_mesh, Strategy};
    use lts_sem::gll::cfl_dt_scale;

    fn serial(
        mesh: &HexMesh,
        levels: &Levels,
        order: usize,
        dt: f64,
        u0: &[f64],
        steps: usize,
        sources: &[Source],
    ) -> Vec<f64> {
        let op = AcousticOperator::new(mesh, order);
        let setup = LtsSetup::new(&op, &levels.elem_level);
        let mut u = u0.to_vec();
        let mut v = vec![0.0; u0.len()];
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u, &mut v, 0.0, steps, sources);
        u
    }

    #[test]
    fn local_memory_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 600);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
        let reference = serial(&b.mesh, &b.levels, order, dt, &u0, 4, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, stats) = run_distributed_local_acoustic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            4,
            &cfg,
            &[],
            &mut MetricsRegistry::new(),
        )
        .0
        .unwrap();
        let scale = reference.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
        assert_eq!(stats.len(), n_ranks);
    }

    #[test]
    fn local_memory_with_sources_and_overlap() {
        let b = BenchmarkMesh::build(MeshKind::Embedding, 500);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let src_dof = setup.leaf[0][setup.leaf[0].len() / 3];
        let mk = || vec![Source::ricker(src_dof, 0.3, 1.0, 1.0)];
        let reference = serial(&b.mesh, &b.levels, order, dt, &vec![0.0; ndof], 5, &mk());

        let n_ranks = 4;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchBaseline, 2);
        let cfg = DistributedConfig {
            overlap: true,
            ..DistributedConfig::new(n_ranks)
        };
        let srcs = mk();
        let (u, _, _) = run_distributed_local_acoustic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &vec![0.0; ndof],
            &vec![0.0; ndof],
            5,
            &cfg,
            &srcs,
            &mut MetricsRegistry::new(),
        )
        .0
        .unwrap();
        let scale = reference.iter().fold(1e-30f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-11 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
    }

    #[test]
    fn local_memory_elastic_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 400);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = lts_sem::ElasticOperator::poisson(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).sin()).collect();
        let mut u_ref = u0.clone();
        let mut v_ref = vec![0.0; ndof];
        let mut lts = LtsNewmark::new(&op, &setup, dt);
        lts.run(&mut u_ref, &mut v_ref, 0.0, 3, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, _) = run_distributed_local_elastic_flight(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            3,
            &cfg,
            &[],
            &mut MetricsRegistry::new(),
        )
        .0
        .unwrap();
        let scale = u_ref.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - u_ref[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                u_ref[i]
            );
        }
    }

    #[test]
    fn rank_memory_is_local() {
        // the per-rank DOF count must be ≈ ndof/k + surface, far below ndof
        let b = BenchmarkMesh::build(MeshKind::Crust, 1_500);
        let order = 2;
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let n_ranks = 8;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        for rank in 0..n_ranks as u32 {
            let mine: Vec<u32> = (0..b.mesh.n_elems() as u32)
                .filter(|&e| part[e as usize] == rank)
                .collect();
            let (local, map) = UnstructuredAcoustic::from_subset(&b.mesh, order, &mine, None);
            assert!(
                lts_core::DofTopology::n_dofs(&local) < ndof / 4,
                "rank {rank}: {} local dofs of {} global",
                map.len(),
                ndof
            );
        }
    }
}
