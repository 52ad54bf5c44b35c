//! One end-to-end run through the public rank-local entry point — the path
//! `wave-lts simulate --ranks N` takes — timed by the outer clock and by the
//! program's own host spans and flight-recorder events.

use std::time::Instant;

use wave_lts::mesh::BenchmarkMesh;
use wave_lts::obs::{EventKind, FlightRecorder, MetricsRegistry, RankRecording, NO_LEVEL};
use wave_lts::partition::partition_mesh;
use wave_lts::runtime::{
    run_distributed_local_acoustic_flight, run_distributed_local_elastic_flight, DistributedConfig,
    RankStats, RuntimeError,
};
use wave_lts::sem::gll::cfl_dt_scale;

use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};

/// Flight-recorder capacity for a run of `steps` Δt₀ steps on
/// `n_levels` levels: large enough that no event of the run is evicted, so
/// the first step and every steady step survive. Per rank and step the
/// runtime records a StepBegin/StepEnd pair and, per force evaluation
/// (`2^l` at level `l`), at most LevelBegin/End, ExchangeBegin/End and one
/// Send and one Recv per peer. The per-event cost does not depend on the
/// capacity.
pub fn flight_capacity(steps: usize, n_levels: usize, ranks: usize) -> usize {
    let evals: usize = (0..n_levels).map(|l| 1usize << l).sum();
    let per_step = 2 + evals * (4 + 2 * ranks.saturating_sub(1));
    FlightRecorder::DEFAULT_CAPACITY.max(per_step * (steps + 1))
}

/// The program's own clock of one run, read from its flight events.
pub struct Clock {
    /// Mesh build start → first StepBegin on any rank.
    pub setup_s: f64,
    /// Wall time of every step, in step order: the max StepEnd minus the
    /// min StepBegin over ranks.
    pub step_s: Vec<f64>,
}

/// What one end-to-end run leaves behind.
pub struct Run {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub stats: Vec<RankStats>,
    pub recordings: Vec<RankRecording>,
    pub part: Vec<u32>,
    /// Outer clock: mesh build start → assembled global `(u, v)`.
    pub time_to_solution_s: f64,
    /// `None` unless every rank recorded StepBegin and StepEnd of every
    /// step (the recorder was off, or its ring too small).
    pub clock: Option<Clock>,
    /// `run.steps` host span: rank spawn, precompile, all steps, join.
    pub run_steps_s: f64,
}

/// Outcome of an attempted run: the run, or why it failed.
pub type Attempt = Result<Run, RuntimeError>;

/// Mesh build → partition (with `inputs.partition_seed(partition)`) →
/// `run_distributed_local_*_flight`. `tracer` wraps each public call into
/// a crate in a span (the traced run); pass [`Tracer::off`] for the
/// end-to-end measurement.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    partition: usize,
    flight_cap: usize,
    tracer: &mut Tracer,
) -> Attempt {
    let t0 = Instant::now();
    let mut host = MetricsRegistry::with_trace();
    let host_offset_s = t0.elapsed().as_secs_f64();

    let b: BenchmarkMesh = tracer.span("lts-mesh", w.mesh.call_name(), || w.mesh.build());
    let part = tracer.span("lts-partition", "partition_mesh", || {
        partition_mesh(
            &b.mesh,
            &b.levels,
            w.ranks,
            w.strategy,
            inputs.partition_seed(partition),
        )
    });
    let dt = b.levels.dt_global * cfl_dt_scale(w.order, 3);
    // `DistributedConfig::new` defaults otherwise: no timeline, no stall
    // monitor.
    let cfg = DistributedConfig {
        threads_per_rank: w.threads_per_rank,
        overlap: w.overlap,
        transport: w.transport,
        flight_capacity: flight_cap,
        ..DistributedConfig::new(w.ranks)
    };
    let sources = inputs.sources();
    let call = if w.elastic {
        "run_distributed_local_elastic_flight"
    } else {
        "run_distributed_local_acoustic_flight"
    };
    let (result, recordings) = tracer.span("lts-runtime", call, || {
        let f = if w.elastic {
            run_distributed_local_elastic_flight
        } else {
            run_distributed_local_acoustic_flight
        };
        f(
            &b.mesh, &b.levels, w.order, &part, dt, &inputs.u0, &inputs.v0, w.steps, &cfg,
            &sources, &mut host,
        )
    });
    let (u, v, stats) = result?;
    let time_to_solution_s = t0.elapsed().as_secs_f64();
    tracer.adopt_host_spans(&host, host_offset_s, t0);

    let run_steps = host
        .trace()
        .iter()
        .find(|e| e.name == "run.steps")
        .expect("the rank-local entry point records a run.steps span");
    // The rank group's recorder epoch is taken right after the transport is
    // built, inside `run.steps`; its offset from the span start is the
    // cluster build, microseconds.
    let clock = step_spans(&recordings, w.steps).map(|spans| Clock {
        setup_s: host_offset_s + run_steps.start_s + spans[0].0,
        step_s: spans.iter().map(|(b, e)| e - b).collect(),
    });
    Ok(Run {
        u,
        v,
        stats,
        recordings,
        part,
        time_to_solution_s,
        clock,
        run_steps_s: run_steps.dur_s,
    })
}

/// `(min StepBegin, max StepEnd)` over ranks of every step, in seconds on
/// the rank group's shared recorder epoch; `None` unless every rank
/// recorded both events of every step.
fn step_spans(recs: &[RankRecording], steps: usize) -> Option<Vec<(f64, f64)>> {
    let mut spans = vec![(f64::INFINITY, f64::NEG_INFINITY); steps];
    let mut seen = vec![0usize; steps];
    for e in recs.iter().flat_map(|r| &r.events) {
        let s = e.step as usize;
        if s >= steps || e.level != NO_LEVEL {
            continue;
        }
        let t = e.t_ns as f64 * 1e-9;
        match e.kind {
            EventKind::StepBegin => spans[s].0 = spans[s].0.min(t),
            EventKind::StepEnd => spans[s].1 = spans[s].1.max(t),
            _ => continue,
        }
        seen[s] += 1;
    }
    (steps > 0 && seen.iter().all(|&n| n == 2 * recs.len())).then_some(spans)
}
