//! The traced run: the per-layer ledger.
//!
//! One untraced end-to-end run gives the flight events the runtime ledger
//! is read from, and the baseline for the tracing overhead. The same
//! pipeline then runs with a span around every public call into a crate.
//! Probes follow, each call again in its own span: the partition quality,
//! the global discretization, the rank-local builds, plan compilation and
//! the masked kernel per level, the serial `lts-core` steppers (Eq. 9), a
//! transport ping-pong, and the recorder on/off pair. Every run is checked
//! like an end-to-end run. The spans are written to
//! `ltsbench-out/spans-<workload>-seed<n>.json` when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wave_lts::lts::{DofTopology, LtsSetup, Newmark, Operator, Workspace};
use wave_lts::mesh::BenchmarkMesh;
use wave_lts::obs::{EventKind, FlightRecorder, Json, RankRecording};
use wave_lts::partition::{load_imbalance, mpi_volume};
use wave_lts::runtime::eq21_lambda;
use wave_lts::runtime::stats::names;
use wave_lts::runtime::transport::{make_cluster, Recv};
use wave_lts::runtime::{RankStats, TransportKind};
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

use crate::check::{self, Checker, Counters, Reference};
use crate::e2e::{self, Run};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Inputs, Workload};
use crate::{metric, Metric, Outcome, OUT_DIR};

/// Per-level metrics are reported for levels `0..MAX_LEVELS` on every
/// workload (the deepest mesh, trench-big, has six); absent levels read 0.
const MAX_LEVELS: usize = 6;

/// The layers whose self time the traced pipeline reports.
const LAYERS: [&str; 5] = [
    "ltsbench",
    "lts-mesh",
    "lts-partition",
    "lts-sem",
    "lts-runtime",
];

/// Call `f` until `budget` has passed (at least `min`, at most `max`
/// times); `f` returns the wall time of the call it made. Returns the
/// median.
fn time_median(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && start.elapsed() < budget) {
        samples.push(f());
    }
    median(&samples)
}

/// Wall time of `f`, in seconds.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Record an attempted run on partition 0 into `checker`; the run if it
/// returned fields (and, with `need_clock`, step events for every step).
fn checked(
    checker: &mut Checker,
    w: &Workload,
    b: &BenchmarkMesh,
    attempt: e2e::Attempt,
    need_clock: bool,
) -> Option<Run> {
    match attempt {
        Ok(run) if need_clock && run.clock.is_none() => {
            checker.record_failure("flight events do not cover every step".into());
            None
        }
        Ok(run) => {
            let counters = w.oracle_exact.then(|| {
                (
                    Counters::of(&run.stats),
                    Counters::oracle(b, &run.part, w.steps),
                )
            });
            checker.record(0, &run.u, &run.v, counters);
            Some(run)
        }
        Err(e) => {
            checker.record_failure(format!("run failed: {e}"));
            None
        }
    }
}

pub fn traced(w: &Workload, seed: u64) -> Outcome {
    let b = w.mesh.build();
    let inputs = Inputs::generate(seed, workload::ndof(w, &b));
    let cap = e2e::flight_capacity(w.steps, b.levels.n_levels, w.ranks);
    let mut checker = Checker::new(w.tolerance);
    let mut tracer = Tracer::on();
    let mut notes = Vec::new();

    // Untraced baseline, the traced pipeline, then the recorder at its
    // default capacity against recorder off. The last two are compared on
    // the `run.steps` host span: with the recorder off there are no step
    // events to read.
    let base = e2e::run(w, &inputs, 0, cap, &mut Tracer::off());
    let base = checked(&mut checker, w, &b, base, true);
    let traced = tracer.group("pipeline", |t| e2e::run(w, &inputs, 0, cap, t));
    let traced = checked(&mut checker, w, &b, traced, true);
    let recorder = [FlightRecorder::DEFAULT_CAPACITY, 0].map(|cap| {
        let run = tracer.group(&format!("probes.obs.flight_capacity={cap}"), |_| {
            e2e::run(w, &inputs, 0, cap, &mut Tracer::off())
        });
        checked(&mut checker, w, &b, run, false).map(|r| r.run_steps_s / w.steps as f64)
    });
    let (Some(base), Some(traced)) = (base, traced) else {
        let verdicts = checker.finish(&Reference::compute(w, &b, &inputs));
        return Outcome {
            verdicts,
            metrics: Vec::new(),
            notes,
        };
    };

    let mut metrics = vec![
        metric(
            "mesh.build_s",
            tracer.total(&format!("lts-mesh::{}", w.mesh.call_name())),
            "s",
        ),
        metric(
            "partition.s",
            tracer.total("lts-partition::partition_mesh"),
            "s",
        ),
    ];
    let part = traced.part.clone();
    let cut = tracer.span("lts-partition", "mpi_volume", || {
        mpi_volume(&b.mesh, &b.levels, &part)
    });
    let imbalance = tracer.span("lts-partition", "load_imbalance", || {
        load_imbalance(&b.levels, &part, w.ranks)
    });
    metrics.push(metric("partition.cut_dofs", cut as f64, "count"));
    metrics.push(metric(
        "partition.level_imbalance_max",
        imbalance.per_level_pct.iter().copied().fold(0.0, f64::max),
        "%",
    ));

    let probes = tracer.group("probes.sem-core", |t| {
        if w.elastic {
            let mut op = None;
            let ctor_s = t.span("lts-sem", "ElasticOperator::poisson", || {
                timed(|| op = Some(ElasticOperator::poisson(&b.mesh, w.order)))
            });
            let op = op.expect("constructed");
            let local = "UnstructuredElastic::from_subset";
            sem_core_probes(
                t,
                w,
                &b,
                &inputs,
                &part,
                (&op, ctor_s),
                local,
                |elems, mass| {
                    let (local, nodes) = UnstructuredElastic::from_subset(
                        &b.mesh,
                        w.order,
                        elems,
                        Some(&|g| mass[3 * g as usize]),
                    );
                    let dofs = nodes
                        .iter()
                        .flat_map(|&n| (0..3).map(move |c| 3 * n + c))
                        .collect();
                    (local, dofs)
                },
            )
        } else {
            let mut op = None;
            let ctor_s = t.span("lts-sem", "AcousticOperator::new", || {
                timed(|| op = Some(AcousticOperator::new(&b.mesh, w.order)))
            });
            let op = op.expect("constructed");
            let local = "UnstructuredAcoustic::from_subset";
            sem_core_probes(
                t,
                w,
                &b,
                &inputs,
                &part,
                (&op, ctor_s),
                local,
                |elems, mass| {
                    UnstructuredAcoustic::from_subset(
                        &b.mesh,
                        w.order,
                        elems,
                        Some(&|g| mass[g as usize]),
                    )
                },
            )
        }
    });
    let verdicts = checker.finish(&probes.reference);
    metrics.extend(probes.metrics);
    notes.extend(probes.notes);

    // lts-runtime, from the untraced run's flight events and registry.
    let step_p50 = median(&base.clock.as_ref().expect("checked").step_s[1..]);
    let ledger = level_ledger(&base.recordings, w.steps);
    let n_ranks = ledger.len().max(1) as f64;
    let mut attributed = 0.0;
    for l in 0..MAX_LEVELS {
        let busy: Vec<f64> = ledger.iter().map(|r| r[l].0).collect();
        let wait_mean = ledger.iter().map(|r| r[l].1).sum::<f64>() / n_ranks;
        let busy_mean = busy.iter().sum::<f64>() / n_ranks;
        attributed += busy_mean + wait_mean;
        metrics.push(metric(format!("runtime.busy_s.L{l}"), busy_mean, "s"));
        metrics.push(metric(format!("runtime.wait_s.L{l}"), wait_mean, "s"));
        metrics.push(metric(
            format!("runtime.lambda.L{l}"),
            eq21_lambda(&busy),
            "ratio",
        ));
    }
    let unattributed = 1.0 - attributed / step_p50;
    metrics.push(metric("runtime.step_s_p50", step_p50, "s"));
    metrics.push(metric("runtime.unattributed_frac", unattributed, "ratio"));
    notes.push(format!(
        "ledger: sum over levels of busy + wait {attributed:.6} s + unattributed {:.6} s \
         = runtime.step_s_p50 {step_p50:.6} s (per steady step, mean over ranks)",
        unattributed * step_p50
    ));
    let counts = Counters::of(&base.stats);
    let per_step = |n: u64| n as f64 / w.steps as f64;
    metrics.push(metric(
        "runtime.msgs_per_step",
        per_step(counts.msgs_sent),
        "count",
    ));
    metrics.push(metric(
        "dofs_sent_per_step",
        per_step(counts.dofs_sent),
        "count",
    ));
    let gauge = |stats: &[RankStats], name: &str| -> f64 {
        stats
            .iter()
            .filter_map(|s| s.registry.gauge_labeled(name, w.transport.name()))
            .sum()
    };
    metrics.push(metric(
        "transport.send_block_s",
        gauge(&base.stats, names::TRANSPORT_SEND_BLOCK_S),
        "s",
    ));
    metrics.push(metric(
        "transport.bytes",
        gauge(&base.stats, names::TRANSPORT_BYTES),
        "B",
    ));

    // Ping-pong through `make_cluster` at this workload's mean halo
    // message length (one value where ranks exchange nothing).
    let halo = (counts.dofs_sent / counts.msgs_sent.max(1)).max(1) as usize;
    // Each ping-pong is an attempted operation of its own.
    let mut pingpongs = Vec::new();
    for kind in [TransportKind::Channel, TransportKind::SharedRing] {
        let name = format!("transport.roundtrip_us.{}", kind.name());
        let rt = tracer.group("probes.transport", |t| roundtrip_s(t, kind, halo));
        match rt {
            Ok(s) => {
                metrics.push(metric(name, s * 1e6, "us"));
                pingpongs.push(Vec::new());
            }
            Err(e) => {
                pingpongs.push(vec![format!("{name}: {e}")]);
                metrics.push(metric(name, f64::NAN, "us"));
            }
        }
    }
    notes.push(format!("transport round trips carry {halo} f64 values"));

    let flight_overhead = match recorder {
        [Some(on), Some(off)] => on / off - 1.0,
        _ => f64::NAN,
    };
    metrics.push(metric("obs.flight_overhead", flight_overhead, "ratio"));
    let trace_overhead = traced.time_to_solution_s / base.time_to_solution_s - 1.0;
    metrics.push(metric("obs.trace_overhead", trace_overhead, "ratio"));
    notes.push(format!(
        "tracing overhead: traced time_to_solution {:.4} s against untraced {:.4} s",
        traced.time_to_solution_s, base.time_to_solution_s
    ));

    let root = tracer.find("pipeline").expect("pipeline span recorded");
    let by_layer = tracer.self_time_by_layer(root);
    for layer in LAYERS {
        metrics.push(metric(
            format!("self_s.{layer}"),
            by_layer.get(layer).copied().unwrap_or(0.0),
            "s",
        ));
    }
    notes.push(write_spans(w, seed, &tracer, &by_layer, trace_overhead));

    let mut verdicts = verdicts;
    verdicts.extend(pingpongs);
    Outcome {
        verdicts,
        metrics,
        notes,
    }
}

struct Probes {
    reference: Reference,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Computed (not measured) floating-point operations and bytes one
/// element's masked stiffness product costs, from the sum-factorised
/// kernels in `lts-sem`: `n = order + 1` points per axis, `N = n³` nodes.
/// Bytes count each node's index, level mask, state value and the output
/// read-modify-write once, ignoring caches.
fn kernel_cost(order: usize, elastic: bool) -> (f64, f64) {
    let n = (order + 1) as f64;
    let nodes = n * n * n;
    if elastic {
        // 9 scaled gradients, 9 stress fluxes each through a transposed
        // derivative, 3 scattered components.
        (36.0 * n * nodes + 81.0 * nodes, nodes * (4.0 + 3.0 * 32.0))
    } else {
        // 3 derivatives and 3 transposed derivatives, scaled, scattered.
        (12.0 * n * nodes + 11.0 * nodes, nodes * 36.0)
    }
}

/// `lts-sem` and `lts-core` probes around one global operator `op`, built
/// in `ctor_s` seconds; `local_build(elems, global_mass)`, the public
/// call `local_name`, makes a rank-local operator and the global DOF of
/// each of its DOFs.
#[allow(clippy::too_many_arguments)]
fn sem_core_probes<G, L>(
    t: &mut Tracer,
    w: &Workload,
    b: &BenchmarkMesh,
    inputs: &Inputs,
    part: &[u32],
    (op, ctor_s): (&G, f64),
    local_name: &str,
    local_build: impl Fn(&[u32], &[f64]) -> (L, Vec<u32>),
) -> Probes
where
    G: Operator + DofTopology,
    L: Operator,
{
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut setup = None;
    let setup_s = t.span("lts-core", "LtsSetup::new", || {
        timed(|| setup = Some(LtsSetup::new(op, &b.levels.elem_level)))
    });
    let setup = setup.expect("constructed");
    metrics.push(metric("sem.discretize_s", ctor_s + setup_s, "s"));

    // Rank-local operators, as `decompose.build_worlds` makes them; the
    // kernel probes run on rank 0's.
    let mass = op.mass().to_vec();
    let mut rank0 = None;
    let mut local_build_s = Vec::new();
    for rank in 0..w.ranks as u32 {
        let elems: Vec<u32> = (0..part.len() as u32)
            .filter(|&e| part[e as usize] == rank)
            .collect();
        let t0 = Instant::now();
        let built = t.span("lts-sem", local_name, || local_build(&elems, &mass));
        local_build_s.push(t0.elapsed().as_secs_f64());
        if rank == 0 {
            rank0 = Some((built, elems));
        }
    }
    metrics.push(metric("sem.local_build_s", local_build_s.iter().sum(), "s"));
    notes.push(format!("sem.local_build_s per rank: {local_build_s:.4?}"));
    let ((local, dofs), elems) = rank0.expect("at least one rank");
    let dof_level: Vec<u8> = dofs.iter().map(|&g| setup.dof_level[g as usize]).collect();
    let level_elems: Vec<Vec<u32>> = setup
        .elems
        .iter()
        .map(|es| {
            es.iter()
                .filter_map(|e| elems.binary_search(e).ok().map(|l| l as u32))
                .collect()
        })
        .collect();

    let mut ws = Workspace::new();
    let mut compile_s = 0.0;
    for (l, es) in level_elems.iter().enumerate() {
        compile_s += t.span("lts-sem", &format!("precompile_masked.L{l}"), || {
            timed(|| local.precompile_masked(es, &dof_level, l as u8, &mut ws))
        });
    }
    metrics.push(metric("sem.compile_s", compile_s, "s"));

    let u: Vec<f64> = dofs.iter().map(|&g| inputs.u0[g as usize]).collect();
    let mut out = vec![0.0; u.len()];
    let budget = Duration::from_millis(300);
    let (mut ops, mut secs) = (0.0, 0.0);
    for l in 0..MAX_LEVELS {
        let Some(es) = level_elems.get(l).filter(|es| !es.is_empty()) else {
            metrics.push(metric(format!("sem.apply_s.L{l}"), 0.0, "s"));
            continue;
        };
        let name = format!("apply_masked_ws.L{l}");
        let s = time_median(5, 200, budget, || {
            t.span("lts-sem", &name, || {
                timed(|| local.apply_masked_ws(&u, &mut out, es, &dof_level, l as u8, &mut ws))
            })
        });
        metrics.push(metric(format!("sem.apply_s.L{l}"), s, "s"));
        // Weighted as in one Δt₀ step: level l is applied 2^l times.
        ops += (1u64 << l) as f64 * es.len() as f64;
        secs += (1u64 << l) as f64 * s;
    }
    metrics.push(metric("sem.apply_elem_per_s", ops / secs, "1/s"));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let es0 = &level_elems[0];
    let mut threaded = |threads: usize| {
        let name = format!("apply_masked_threads.T{threads}");
        time_median(5, 200, budget, || {
            t.span("lts-sem", &name, || {
                timed(|| {
                    local.apply_masked_threads(&u, &mut out, es0, &dof_level, 0, &mut ws, threads)
                })
            })
        })
    };
    let one = threaded(1);
    let all = threaded(nproc);
    metrics.push(metric("sem.threads_speedup", one / all, "x"));
    notes.push(format!(
        "sem.threads_speedup: level-0 masked apply at {nproc} threads against 1 ({} elements)",
        es0.len()
    ));

    let (flops, bytes) = kernel_cost(w.order, w.elastic);
    metrics.push(metric("sem.flops_per_elem", flops, "flop"));
    metrics.push(metric("sem.bytes_per_elem", bytes, "B"));
    metrics.push(metric("sem.ops_per_byte", flops / bytes, "flop/B"));
    notes.push(
        "sem.flops_per_elem, sem.bytes_per_elem, sem.ops_per_byte are computed, not measured"
            .into(),
    );

    // lts-core: the serial LTS step (the reference run) against p_max
    // global Newmark steps at Δt/p_max, on the same global operator.
    let (reference, lts_steps) = check::serial(op, &setup, w, b, inputs, t);
    let lts_step = median(&lts_steps);
    let p_max = b.levels.p_max() as usize;
    let dt = b.levels.dt_global * cfl_dt_scale(w.order, 3);
    let sources = inputs.sources();
    let mut nm = Newmark::new(op, dt / p_max as f64);
    let (mut u, mut v) = (inputs.u0.clone(), inputs.v0.clone());
    let mut time = 0.0;
    let fine = time_median(3, 20, Duration::from_secs(1), || {
        (0..p_max)
            .map(|_| {
                let s = t.span("lts-core", "Newmark::step", || {
                    timed(|| nm.step(&mut u, &mut v, time, &sources))
                });
                time += nm.dt;
                s
            })
            .sum()
    });
    let speedup = fine / lts_step;
    metrics.push(metric("core.lts_step_s", lts_step, "s"));
    metrics.push(metric("core.newmark_fine_s", fine, "s"));
    metrics.push(metric("core.lts_speedup", speedup, "x"));
    let model = b.levels.speedup_model().speedup();
    metrics.push(metric("core.eq9_efficiency", speedup / model, "ratio"));
    notes.push(format!(
        "Eq. 9: measured LTS speed-up {speedup:.3}x against the model's {model:.3}x (p_max {p_max})"
    ));
    Probes {
        reference,
        metrics,
        notes,
    }
}

/// Per rank and level, the mean per steady step (every step after the
/// first) of `(busy, wait)`: wait is ExchangeBegin → ExchangeEnd, busy is
/// the rest of LevelBegin → LevelEnd (the level's force evaluation).
fn level_ledger(recs: &[RankRecording], steps: usize) -> Vec<[(f64, f64); MAX_LEVELS]> {
    let steady = steps.saturating_sub(1).max(1) as f64;
    recs.iter()
        .map(|r| {
            let mut out = [(0.0, 0.0); MAX_LEVELS];
            let mut level_begin = [0.0; MAX_LEVELS];
            let mut exchange_begin = [0.0; MAX_LEVELS];
            for e in r.events.iter().filter(|e| e.step > 0) {
                let l = e.level as usize;
                if l >= MAX_LEVELS {
                    continue;
                }
                let t = e.t_ns as f64 * 1e-9;
                match e.kind {
                    EventKind::LevelBegin => level_begin[l] = t,
                    EventKind::LevelEnd => out[l].0 += t - level_begin[l],
                    EventKind::ExchangeBegin => exchange_begin[l] = t,
                    EventKind::ExchangeEnd => {
                        out[l].0 -= t - exchange_begin[l];
                        out[l].1 += t - exchange_begin[l];
                    }
                    _ => {}
                }
            }
            out.map(|(busy, wait)| (busy / steady, wait / steady))
        })
        .collect()
}

/// Median round trip of a `len`-value halo message between two endpoints
/// of a fresh `make_cluster(kind, 2)`, in seconds.
fn roundtrip_s(t: &mut Tracer, kind: TransportKind, len: usize) -> Result<f64, String> {
    const WARMUP: usize = 100;
    const ITERS: usize = 2_000;
    let timeout = Some(Duration::from_secs(10));
    let mut eps = t.span("lts-runtime", "transport::make_cluster", || {
        make_cluster(kind, 2)
    });
    let (Some(mut echo), Some(mut ping)) = (eps.pop(), eps.pop()) else {
        return Err("make_cluster returned fewer than two endpoints".into());
    };
    t.span("lts-runtime", "Transport::send+recv_into_timeout", || {
        std::thread::scope(|s| {
            let echoer = s.spawn(move || -> Result<(), String> {
                let mut buf = Vec::new();
                for _ in 0..WARMUP + ITERS {
                    match echo.recv_into_timeout(&mut buf, timeout) {
                        Ok(Recv::Msg { seq, .. }) => echo
                            .send(0, 0, seq, &buf)
                            .map_err(|e| format!("echo send: {e:?}"))?,
                        Ok(Recv::Goodbye { .. }) => return Err("pinger left".into()),
                        Err(e) => return Err(format!("echo recv: {e:?}")),
                    }
                }
                echo.close();
                Ok(())
            });
            let payload = vec![1.0; len];
            let mut buf = Vec::new();
            let mut samples = Vec::with_capacity(ITERS);
            let mut result = Ok(());
            for i in 0..WARMUP + ITERS {
                let t0 = Instant::now();
                if let Err(e) = ping.send(1, 0, i as u64, &payload) {
                    result = Err(format!("ping send: {e:?}"));
                    break;
                }
                match ping.recv_into_timeout(&mut buf, timeout) {
                    Ok(Recv::Msg { .. }) if buf.len() == len => {}
                    other => {
                        result = Err(format!("ping recv: {other:?}"));
                        break;
                    }
                }
                if i >= WARMUP {
                    samples.push(t0.elapsed().as_secs_f64());
                }
            }
            ping.close();
            let echoed = echoer
                .join()
                .unwrap_or_else(|_| Err("echo thread panicked".into()));
            result.and(echoed).map(|()| median(&samples))
        })
    })
}

/// Write the spans, one per public call, with the self time per layer;
/// returns the line to print.
fn write_spans(
    w: &Workload,
    seed: u64,
    tracer: &Tracer,
    by_layer: &BTreeMap<&'static str, f64>,
    trace_overhead: f64,
) -> String {
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(w.name)),
        ("seed".into(), Json::UInt(seed)),
        ("trace_overhead".into(), Json::Num(trace_overhead)),
        (
            "self_s".into(),
            Json::Obj(
                by_layer
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("spans".into(), tracer.to_json()),
    ]);
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.json", w.name));
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, doc.render_pretty()))
    {
        Ok(()) => format!("spans: {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    }
}
