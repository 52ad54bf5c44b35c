//! Measure the stall reduction from communication/computation overlap at
//! 8 ranks: sends posted after the full apply (blocking) vs. between the
//! boundary and interior applies (overlap).
//!
//! Two regimes, each repeated and averaged:
//!
//! * **zero-latency** — raw in-process channels. On a single-CPU host the
//!   aggregate wait fraction is pinned near `(ranks-1)/ranks` by
//!   time-sharing (the busy sums equal the wall clock), so overlap cannot
//!   move it; this run documents the floor.
//! * **emulated wire latency** — messages mature `T` after they were
//!   posted ([`channel_cluster_with_latency`]), like an in-flight MPI
//!   message; the sender is never blocked. In blocking mode every rank
//!   posts at the end of its apply and the whole fabric idles while the
//!   last partials mature; with overlap they are posted before the
//!   interior apply and mature *during* it. This is exactly the latency
//!   the paper's asynchronous exchange hides.
//!
//! The committed numbers live in EXPERIMENTS.md ("Comm/compute overlap at
//! 8 ranks"). Both modes must produce bitwise-identical fields.
//!
//! ```sh
//! cargo run --release --example overlap_wait -- 2000 12 5 300
//! ```
//! (elements, global steps, repetitions, wire latency in µs — all optional)

use std::time::Duration;
use wave_lts::lts::LtsSetup;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::partition::{partition_mesh, Strategy};
use wave_lts::runtime::stats::names;
use wave_lts::runtime::transport::channel::channel_cluster_with_latency;
use wave_lts::runtime::{run_distributed_endpoints, DistributedConfig};
use wave_lts::sem::AcousticOperator;

const RANKS: usize = 8;

fn arg(n: usize, default: usize) -> usize {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

struct World {
    bench: BenchmarkMesh,
    op: AcousticOperator,
    setup: LtsSetup,
    part: Vec<u32>,
    u0: Vec<f64>,
    v0: Vec<f64>,
    steps: usize,
}

struct Cell {
    wait_fraction: f64,
    wait_sum_s: f64,
    wall_s: f64,
    /// Fraction of received partials that were already delivered when the
    /// receiver reached its exchange point (`exchange.partials_ready` /
    /// `msgs_sent`) — the scheduler-independent witness of overlap.
    ready_fraction: f64,
    norm_bits: u64,
}

/// Run one configuration `reps` times; means over the repetitions.
fn measure(w: &World, overlap: bool, latency: Duration, reps: usize) -> Cell {
    let cfg = DistributedConfig {
        overlap,
        ..DistributedConfig::new(RANKS)
    };
    let (mut frac_sum, mut wall_sum, mut wait_sums, mut ready_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut norm_bits = 0u64;
    for _ in 0..reps {
        let endpoints = channel_cluster_with_latency(RANKS, latency);
        let started = std::time::Instant::now();
        let (outcomes, _) = run_distributed_endpoints(
            &w.op,
            &w.setup,
            &w.part,
            w.bench.levels.dt_global,
            &w.u0,
            &w.v0,
            w.steps,
            &cfg,
            &[],
            endpoints,
        );
        wall_sum += started.elapsed().as_secs_f64();
        let (mut busy, mut wait) = (0.0, 0.0);
        let (mut ready, mut partials) = (0u64, 0u64);
        let mut norm2 = 0.0;
        for (rank, out) in outcomes.into_iter().enumerate() {
            let (u, _, stats) = out.unwrap_or_else(|e| panic!("rank {rank}: {e}"));
            busy += stats.busy_s;
            wait += stats.wait_s;
            ready += stats.registry.counter_total(names::EXCHANGE_READY);
            partials += stats.msgs_sent;
            norm2 += u.iter().map(|x| x * x).sum::<f64>();
        }
        frac_sum += wait / (busy + wait);
        wait_sums += wait;
        ready_sum += ready as f64 / partials.max(1) as f64;
        norm_bits = norm2.sqrt().to_bits();
    }
    Cell {
        wait_fraction: frac_sum / reps as f64,
        wait_sum_s: wait_sums / reps as f64,
        wall_s: wall_sum / reps as f64,
        ready_fraction: ready_sum / reps as f64,
        norm_bits,
    }
}

fn main() {
    let elements = arg(1, 2_000);
    let steps = arg(2, 12);
    let reps = arg(3, 5);
    let latency_us = arg(4, 300) as u64;

    let bench = BenchmarkMesh::build(MeshKind::Trench, elements);
    let op = AcousticOperator::new(&bench.mesh, 2);
    let setup = LtsSetup::new(&op, &bench.levels.elem_level);
    let ndof = op.dofmap.n_nodes();
    let part = partition_mesh(&bench.mesh, &bench.levels, RANKS, Strategy::ScotchP, 1);
    let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.013).sin()).collect();
    let v0 = vec![0.0; ndof];
    println!(
        "trench {} elems, order 2, {} levels, {RANKS} ranks (scotch-p), \
         {steps} steps x {reps} reps per cell\n",
        bench.mesh.n_elems(),
        setup.n_levels,
    );
    let w = World {
        bench,
        op,
        setup,
        part,
        u0,
        v0,
        steps,
    };

    for latency_case in [0u64, latency_us] {
        let latency = Duration::from_micros(latency_case);
        let label = if latency_case == 0 {
            "zero-latency (single-CPU time-sharing floor)".to_string()
        } else {
            format!("emulated {latency_case} us wire latency")
        };
        let bl = measure(&w, false, latency, reps);
        let ov = measure(&w, true, latency, reps);
        assert_eq!(
            bl.norm_bits, ov.norm_bits,
            "{label}: overlap changed the solution"
        );
        println!("== {label} ==");
        println!(
            "  blocking: wait fraction {:.3}   wait sum {:.3}s   wall {:.3}s   ready partials {:.3}",
            bl.wait_fraction, bl.wait_sum_s, bl.wall_s, bl.ready_fraction
        );
        println!(
            "  overlap : wait fraction {:.3}   wait sum {:.3}s   wall {:.3}s   ready partials {:.3}",
            ov.wait_fraction, ov.wait_sum_s, ov.wall_s, ov.ready_fraction
        );
        println!(
            "  wait-sum change {:+.1}%   wall change {:+.1}%   ready-partials change {:+.3}\n",
            100.0 * (ov.wait_sum_s / bl.wait_sum_s - 1.0),
            100.0 * (ov.wall_s / bl.wall_s - 1.0),
            ov.ready_fraction - bl.ready_fraction,
        );
    }
}
