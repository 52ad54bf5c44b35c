//! Per-run correctness: every run's fields against the serial
//! `LtsNewmark` reference, repeats bit for bit against the first run, and
//! on order-1 workloads the exchange counters against the closed-form
//! oracle. A run that fails any of these counts toward `failed_runs`.

use std::collections::BTreeMap;
use std::time::Instant;

use wave_lts::lts::{LtsNewmark, LtsSetup, Operator};
use wave_lts::mesh::BenchmarkMesh;
use wave_lts::partition::metrics::exchange_oracle;
use wave_lts::runtime::RankStats;
use wave_lts::sem::gll::cfl_dt_scale;
use wave_lts::sem::{AcousticOperator, ElasticOperator};

use crate::trace::Tracer;
use crate::workload::{Inputs, Workload};

/// The serial reference `(u, v)` after the workload's steps.
pub struct Reference {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
}

impl Reference {
    /// Serial `LtsNewmark` on the global operator, one thread.
    pub fn compute(w: &Workload, b: &BenchmarkMesh, inputs: &Inputs) -> Reference {
        if w.elastic {
            let op = ElasticOperator::poisson(&b.mesh, w.order);
            let setup = LtsSetup::new(&op, &b.levels.elem_level);
            serial(&op, &setup, w, b, inputs, &mut Tracer::off()).0
        } else {
            let op = AcousticOperator::new(&b.mesh, w.order);
            let setup = LtsSetup::new(&op, &b.levels.elem_level);
            serial(&op, &setup, w, b, inputs, &mut Tracer::off()).0
        }
    }
}

/// The reference run: `LtsNewmark::step` from the workload's inputs, one
/// thread, with the wall time of every step.
pub fn serial<O: Operator>(
    op: &O,
    setup: &LtsSetup,
    w: &Workload,
    b: &BenchmarkMesh,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> (Reference, Vec<f64>) {
    let dt = b.levels.dt_global * cfl_dt_scale(w.order, 3);
    let sources = inputs.sources();
    let mut u = inputs.u0.clone();
    let mut v = inputs.v0.clone();
    let mut lts = LtsNewmark::new(op, setup, dt);
    let mut times = Vec::with_capacity(w.steps);
    // `LtsNewmark::run`, step by step.
    let mut t = 0.0;
    for _ in 0..w.steps {
        tracer.span("lts-core", "LtsNewmark::step", || {
            let t0 = Instant::now();
            lts.step(&mut u, &mut v, t, &sources);
            times.push(t0.elapsed().as_secs_f64());
        });
        t += dt;
    }
    (Reference { u, v }, times)
}

/// Exchange counters summed over ranks and a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub elem_ops: u64,
    pub msgs_sent: u64,
    pub dofs_sent: u64,
}

impl Counters {
    pub fn of(stats: &[RankStats]) -> Counters {
        Counters {
            elem_ops: stats.iter().map(|s| s.elem_ops).sum(),
            msgs_sent: stats.iter().map(|s| s.msgs_sent).sum(),
            dofs_sent: stats.iter().map(|s| s.dofs_sent).sum(),
        }
    }

    /// `exchange_oracle` × steps for the run's partition.
    pub fn oracle(b: &BenchmarkMesh, part: &[u32], steps: usize) -> Counters {
        let o = exchange_oracle(&b.mesh, &b.levels, part);
        let n = steps as u64;
        Counters {
            elem_ops: o.total_elem_ops() * n,
            msgs_sent: o.total_msgs_sent() * n,
            dofs_sent: o.total_dofs_sent() * n,
        }
    }
}

/// Largest `|a − b|` relative to `max |b|`.
fn rel_error(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let scale = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let diff = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Collects every attempted run's verdict. Runs on the same partition are
/// repeats: each is compared bit for bit with the first one as it
/// arrives, so only that first run's fields are kept. [`Checker::finish`]
/// then holds each partition's first run against the reference, which
/// settles every run identical to it.
pub struct Checker {
    tolerance: f64,
    first: BTreeMap<usize, (Vec<f64>, Vec<f64>)>,
    /// Per attempted run: its partition (`None` when it returned nothing)
    /// and why it failed (empty when it passed so far).
    verdicts: Vec<(Option<usize>, Vec<String>)>,
}

impl Checker {
    pub fn new(tolerance: f64) -> Checker {
        Checker {
            tolerance,
            first: BTreeMap::new(),
            verdicts: Vec::new(),
        }
    }

    /// A run on partition `partition` that returned fields; `counters` is
    /// `(measured, oracle)` when the oracle is exact for the workload.
    pub fn record(
        &mut self,
        partition: usize,
        u: &[f64],
        v: &[f64],
        counters: Option<(Counters, Counters)>,
    ) {
        let mut why = Vec::new();
        match self.first.get(&partition) {
            None => {
                self.first.insert(partition, (u.to_vec(), v.to_vec()));
            }
            Some((u1, v1)) => {
                if !same_bits(u, u1) || !same_bits(v, v1) {
                    why.push("fields are not bitwise identical to the first run".into());
                }
            }
        }
        if let Some((got, want)) = counters {
            if got != want {
                why.push(format!(
                    "counters {got:?} != exchange oracle x steps {want:?}"
                ));
            }
        }
        self.verdicts.push((Some(partition), why));
    }

    /// A run that did not return fields at all.
    pub fn record_failure(&mut self, why: String) {
        self.verdicts.push((None, vec![why]));
    }

    pub fn attempted(&self) -> usize {
        self.verdicts.len()
    }

    /// Final verdicts, one per attempted run, after holding each
    /// partition's first run against `reference`.
    pub fn finish(self, reference: &Reference) -> Vec<Vec<String>> {
        let tolerance = self.tolerance;
        let against_reference: BTreeMap<usize, Vec<String>> = self
            .first
            .iter()
            .map(|(&k, (u, v))| {
                let mut why = Vec::new();
                for (name, got, want) in [("u", u, &reference.u), ("v", v, &reference.v)] {
                    let e = rel_error(got, want);
                    if e.is_nan() || e > tolerance {
                        why.push(format!(
                            "{name} differs from the serial reference by {e:e} (> {tolerance:e})"
                        ));
                    }
                }
                (k, why)
            })
            .collect();
        self.verdicts
            .into_iter()
            .map(|(k, mut why)| {
                if let Some(k) = k {
                    why.extend(against_reference[&k].iter().cloned());
                }
                why
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e;
    use crate::workload::MeshSpec;
    use wave_lts::mesh::MeshKind;

    /// A small order-1, two-rank workload: fast, and the oracle is exact.
    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            mesh: MeshSpec::Kind(MeshKind::TrenchBig, 600),
            order: 1,
            steps: 3,
            runs_per_second: 1.0,
            ..crate::workload::by_name("trenchbig-p1-halo").unwrap()
        }
    }

    fn tiny_run() -> (Workload, BenchmarkMesh, e2e::Run, Reference) {
        let w = tiny();
        let b = w.mesh.build();
        let inputs = Inputs::generate(7, crate::workload::ndof(&w, &b));
        let cap = e2e::flight_capacity(w.steps, b.levels.n_levels, w.ranks);
        let run = e2e::run(&w, &inputs, 0, cap, &mut Tracer::off()).expect("tiny run");
        let reference = Reference::compute(&w, &b, &inputs);
        (w, b, run, reference)
    }

    fn failed(verdicts: &[Vec<String>]) -> usize {
        verdicts.iter().filter(|v| !v.is_empty()).count()
    }

    #[test]
    fn clean_runs_pass_every_check() {
        let (w, b, run, reference) = tiny_run();
        let counters = (
            Counters::of(&run.stats),
            Counters::oracle(&b, &run.part, w.steps),
        );
        assert!(counters.0.msgs_sent > 0);
        let mut c = Checker::new(w.tolerance);
        c.record(0, &run.u, &run.v, Some(counters));
        c.record(0, &run.u, &run.v, Some(counters));
        // Another partition: its own repeats, its own bits.
        let inputs = Inputs::generate(7, crate::workload::ndof(&w, &b));
        let cap = e2e::flight_capacity(w.steps, b.levels.n_levels, w.ranks);
        let other = e2e::run(&w, &inputs, 1, cap, &mut Tracer::off()).expect("tiny run");
        c.record(1, &other.u, &other.v, None);
        let verdicts = c.finish(&reference);
        assert_eq!(verdicts.len(), 3);
        assert_eq!(failed(&verdicts), 0, "{verdicts:?}");
    }

    #[test]
    fn perturbed_field_is_a_failed_run() {
        let (w, _, run, reference) = tiny_run();
        let scale = reference.u.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let mut u = run.u.clone();
        let mid = u.len() / 2;
        u[mid] += 1e-9 * scale;

        // A perturbed repeat differs from the first run's bits.
        let mut c = Checker::new(w.tolerance);
        c.record(0, &run.u, &run.v, None);
        c.record(0, &u, &run.v, None);
        let verdicts = c.finish(&reference);
        assert_eq!(failed(&verdicts), 1, "{verdicts:?}");
        assert!(verdicts[1][0].contains("bitwise"));

        // A perturbed first run misses the reference, and so does every
        // repeat identical to it.
        let mut c = Checker::new(w.tolerance);
        c.record(0, &u, &run.v, None);
        c.record(0, &u, &run.v, None);
        c.record(0, &run.u, &run.v, None);
        let verdicts = c.finish(&reference);
        assert_eq!(failed(&verdicts), 3, "{verdicts:?}");
        assert!(verdicts[0][0].starts_with("u differs from the serial reference"));
    }

    #[test]
    fn miscounted_exchange_and_errors_are_failed_runs() {
        let (w, b, run, reference) = tiny_run();
        let want = Counters::oracle(&b, &run.part, w.steps);
        let got = Counters {
            dofs_sent: want.dofs_sent + 1,
            ..want
        };
        let mut c = Checker::new(w.tolerance);
        c.record(0, &run.u, &run.v, Some((want, want)));
        c.record(0, &run.u, &run.v, Some((got, want)));
        c.record_failure("rank 1 died".into());
        let verdicts = c.finish(&reference);
        assert_eq!(verdicts.len(), 3);
        assert_eq!(failed(&verdicts), 2, "{verdicts:?}");
    }
}
