//! The multi-process backend against the in-process reference: real
//! `wave-lts worker` OS processes, spawned through the coordinator, must
//! reproduce the channel-transport fields **bitwise** and the deterministic
//! counters **exactly** — the payload `f64`s cross the wire as raw bit
//! patterns and the workers rebuild the same plans, so nothing may differ.

#![cfg(unix)]

use std::time::Duration;
use wave_lts::lts::{LtsSetup, Operator};
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::process::{run_coordinator_flight, ProcSpec};
use wave_lts::runtime::{run_distributed, DistributedConfig};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::AcousticOperator;

const ELEMENTS: usize = 600;
const ORDER: usize = 2;
const STEPS: usize = 3;

fn worker_args(dt: f64, overlap: bool) -> Vec<String> {
    [
        "worker",
        "--mesh",
        "trench",
        "--elements",
        &ELEMENTS.to_string(),
        "--order",
        &ORDER.to_string(),
        "--steps",
        &STEPS.to_string(),
        "--strategy",
        "scotch-p",
        "--seed",
        "1",
        "--overlap",
        &overlap.to_string(),
        "--dt-bits",
        &dt.to_bits().to_string(),
        "--u0-bits",
        &0.003f64.to_bits().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn worker_processes_match_in_process_bitwise() {
    let b = BenchmarkMesh::build(MeshKind::Trench, ELEMENTS);
    let op = AcousticOperator::new(&b.mesh, ORDER);
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let ndof = Operator::ndof(&op);
    let dt = b.levels.dt_global * cfl_dt_scale(ORDER, 3);
    // must match the worker's --u0-bits initial condition
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.003).sin()).collect();
    let v0 = vec![0.0; ndof];

    for (ranks, overlap) in [(2usize, false), (3, true)] {
        let part = partition_mesh(&b.mesh, &b.levels, ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig {
            overlap,
            ..DistributedConfig::new(ranks)
        };
        let (u_ref, v_ref, stats_ref) =
            run_distributed(&op, &setup, &part, dt, &u0, &v0, STEPS, &cfg, &[]).unwrap();

        let spec = ProcSpec {
            bin: env!("CARGO_BIN_EXE_wave-lts").into(),
            args: worker_args(dt, overlap),
            n_ranks: ranks,
            timeout: Duration::from_secs(300),
        };
        let (u, v, stats) = run_coordinator_flight(&spec)
            .0
            .unwrap_or_else(|e| panic!("{ranks} ranks overlap={overlap}: {e}"));

        assert_eq!(u.len(), ndof, "{ranks} ranks: assembled field size");
        for i in 0..ndof {
            assert_eq!(
                u_ref[i].to_bits(),
                u[i].to_bits(),
                "{ranks} ranks overlap={overlap}: u[{i}]"
            );
            assert_eq!(
                v_ref[i].to_bits(),
                v[i].to_bits(),
                "{ranks} ranks overlap={overlap}: v[{i}]"
            );
        }
        assert_eq!(stats.len(), ranks);
        for (a, b) in stats_ref.iter().zip(&stats) {
            assert_eq!(a.elem_ops, b.elem_ops, "elem_ops rank {}", a.rank);
            assert_eq!(a.n_exchanges, b.n_exchanges, "n_exchanges rank {}", a.rank);
            assert_eq!(a.msgs_sent, b.msgs_sent, "msgs_sent rank {}", a.rank);
            assert_eq!(a.dofs_sent, b.dofs_sent, "dofs_sent rank {}", a.rank);
        }
    }
}

#[test]
fn coordinator_reports_worker_failure_cleanly() {
    // a worker launched with an unknown mesh exits nonzero before dialling
    // in; the coordinator must return an error, not hang
    let spec = ProcSpec {
        bin: env!("CARGO_BIN_EXE_wave-lts").into(),
        args: vec!["worker".into(), "--mesh".into(), "bogus".into()],
        n_ranks: 2,
        timeout: Duration::from_secs(60),
    };
    assert!(run_coordinator_flight(&spec).0.is_err());
}
