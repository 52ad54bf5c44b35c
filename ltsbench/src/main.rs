//! `ltsbench` — the wave-lts benchmark.
//!
//! ```text
//! ltsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's own
//! spans off; `--trace 1` makes the separate traced run that yields the
//! per-layer ledger. Human-readable lines go first; the last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}`. See `README.md` next to this package for every workload and
//! metric.

mod check;
mod e2e;
mod layers;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use wave_lts::obs::Json;
use wave_lts::sem::simd;

use crate::check::{Checker, Counters, Reference};
use crate::trace::Tracer;
use crate::workload::{Inputs, Workload, WORKLOADS};

/// Directory (relative to the working directory) for span files and the
/// host record.
pub const OUT_DIR: &str = "ltsbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ltsbench --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One named metric as printed and reported.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a measurement hands back to `main`.
pub struct Outcome {
    pub verdicts: Vec<Vec<String>>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (sample counts, percentiles, checks).
    pub notes: Vec<String>,
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end measurement: `runs` runs of the workload, every one
/// checked; then the serial reference, outside the timed region. The first
/// two runs share a partition, so one is a bitwise repeat of the other;
/// every later run partitions with a seed of its own, so the medians
/// average over the partitioner's seed-dependent work.
fn measure(w: &Workload, seed: u64, seconds: u64) -> Outcome {
    let b = w.mesh.build();
    let inputs = Inputs::generate(seed, workload::ndof(w, &b));
    let cap = e2e::flight_capacity(w.steps, b.levels.n_levels, w.ranks);
    let runs = ((seconds as f64 * w.runs_per_second).round() as usize).max(4);

    let mut checker = Checker::new(w.tolerance);
    let mut oracle: Option<(Vec<u32>, Counters)> = None;
    let (mut setup, mut tts, mut first) = (vec![], vec![], vec![]);
    let (mut steady, mut tails, mut tail_p) = (vec![], vec![], 0.0);
    let (mut elem_ops, mut dofs_sent) = (0u64, vec![]);
    for r in 0..runs {
        let partition = r.saturating_sub(1);
        let run = match e2e::run(w, &inputs, partition, cap, &mut Tracer::off()) {
            Ok(run) => run,
            Err(e) => {
                checker.record_failure(format!("run failed: {e}"));
                continue;
            }
        };
        let Some(clock) = &run.clock else {
            checker.record_failure("flight events do not cover every step".into());
            continue;
        };
        let got = Counters::of(&run.stats);
        let counters = w.oracle_exact.then(|| {
            if oracle.as_ref().is_none_or(|(p, _)| *p != run.part) {
                oracle = Some((run.part.clone(), Counters::oracle(&b, &run.part, w.steps)));
            }
            (got, oracle.as_ref().expect("just computed").1)
        });
        checker.record(partition, &run.u, &run.v, counters);
        let (p, tail) = stats::tail(&clock.step_s[1..]);
        tail_p = p;
        tails.push(tail);
        steady.extend_from_slice(&clock.step_s[1..]);
        setup.push(clock.setup_s);
        tts.push(run.time_to_solution_s);
        first.push(clock.step_s[0]);
        elem_ops = got.elem_ops / w.steps as u64;
        dofs_sent.push(got.dofs_sent / w.steps as u64);
    }
    let rss = peak_rss_mib();
    let attempted = checker.attempted();
    let verdicts = checker.finish(&Reference::compute(w, &b, &inputs));

    let step_p50 = stats::median(&steady);
    let failed = verdicts.iter().filter(|v| !v.is_empty()).count();
    dofs_sent.dedup();
    let notes = vec![
        format!(
            "runs: {attempted} end-to-end on {} partitions, {} steady steps sampled ({} per run)",
            attempted.saturating_sub(1),
            steady.len(),
            w.steps - 1
        ),
        format!(
            "step_s_tail: median over runs of each run's p{tail_p} ({} steady steps, >= 10 beyond it)",
            w.steps - 1
        ),
        format!("per run: setup_s {setup:.4?}"),
        format!("per run: first_step_s {first:.4?}"),
        format!("per run: time_to_solution_s {tts:.4?}"),
        format!("dofs_sent_per_step: {dofs_sent:?} (exact, per partition)"),
        format!(
            "failed_runs: {} ({failed} of {attempted} runs failed or were incorrect)",
            failed as f64 / attempted.max(1) as f64
        ),
    ];
    Outcome {
        verdicts,
        metrics: vec![
            metric("setup_s", stats::median(&setup), "s"),
            metric("first_step_s", stats::median(&first), "s"),
            metric("step_s_p50", step_p50, "s"),
            metric("step_s_tail", stats::median(&tails), "s"),
            metric("time_to_solution_s", stats::median(&tts), "s"),
            metric("elem_ops_per_s", elem_ops as f64 / step_p50, "1/s"),
            metric("peak_rss_mib", rss, "MiB"),
        ],
        notes,
    }
}

/// Host description, and a warning when an earlier run in this directory
/// used another kernel variant (its timings are not comparable).
fn host_lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let variant = simd::active().name();
    let features = simd::cpu_features();
    let record = Json::Obj(vec![
        ("nproc".into(), Json::UInt(nproc as u64)),
        ("kernel_variant".into(), Json::str(variant)),
        ("cpu_features".into(), Json::str(features)),
    ])
    .render();
    let mut lines = vec![format!(
        "host: nproc {nproc}, kernel variant {variant}, cpu features [{features}]"
    )];
    let path = std::path::Path::new(OUT_DIR).join("host.json");
    if let Some(prev) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
    {
        let prev_variant = prev.get("kernel_variant").and_then(|v| v.as_str());
        if prev_variant.is_some_and(|p| p != variant) {
            lines.push(format!(
                "WARNING kernel_variant_mismatch: an earlier run here used {}, this one {variant}; \
                 their timings are not comparable",
                prev_variant.unwrap_or("?")
            ));
        }
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, record)) {
        lines.push(format!(
            "could not record the host in {}: {e}",
            path.display()
        ));
    }
    lines
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ltsbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    for line in host_lines() {
        println!("{line}");
    }
    println!(
        "workload {}: {:?}, order {}, {}, {} rank(s) x {} thread(s), {} steps, seed {}",
        w.name,
        w.mesh,
        w.order,
        if w.elastic { "elastic" } else { "acoustic" },
        w.ranks,
        w.threads_per_rank,
        w.steps,
        args.seed
    );
    let out = if args.trace {
        layers::traced(&w, args.seed)
    } else {
        measure(&w, args.seed, args.seconds)
    };
    for m in &out.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("{n}");
    }
    let failed = out.verdicts.iter().filter(|v| !v.is_empty()).count();
    for (i, why) in out.verdicts.iter().enumerate() {
        for reason in why {
            println!("run {i} FAILED: {reason}");
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::UInt(out.verdicts.len() as u64)),
        ("failed".into(), Json::UInt(failed as u64)),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
