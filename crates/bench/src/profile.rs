//! The `lts-profile` performance-regression harness.
//!
//! Runs a fixed scenario matrix — graded benchmark meshes × partition
//! strategies × rank counts — through the real threaded runtime and writes a
//! `BENCH_lts.json` document: **deterministic counters** (element operations,
//! messages, DOF volumes, exchanges — exact integers, independent of timing),
//! p50/p95/p99 busy/wait histograms, per-level Eq. 21 λ, and host metadata.
//!
//! [`compare_bench`] is the `bench-compare` gate: counters must match a
//! baseline *exactly* (any drift is a correctness regression in disguise),
//! while wall-clock timings are held to a relative tolerance and can be
//! skipped entirely on cross-machine CI (`--timings false`).
//!
//! The smoke matrix is a strict subset of the full matrix with identical
//! per-scenario parameters, so a smoke run compares cleanly against a
//! committed full baseline (scenarios are intersected by id).

use lts_core::{Operator, Source};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_obs::{Histogram, Json, MetricsRegistry};
use lts_partition::{partition_mesh, Strategy};
use lts_runtime::stats::{lambda_from_stats, names};
use lts_runtime::{run_distributed_local_acoustic_flight, DistributedConfig, MonitorConfig};
use lts_sem::gll::cfl_dt_scale;
use lts_sem::simd;
use lts_sem::AcousticOperator;

pub const SCHEMA: &str = "lts-bench/1";

/// One cell of the benchmark matrix. Parameters are part of the identity:
/// two documents may only compare counters for scenarios whose parameters
/// (encoded in the fixed matrix) agree.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Mesh key: `"trench"` (graded surface strip), `"trench-big"` (one
    /// extra refinement layer, 6 levels), `"embedding"` (small fast block)
    /// or `"crust"` (geometric crust grading).
    pub mesh: &'static str,
    /// Strategy key: `"scotch"`, `"scotch-p"`, `"metis"` or `"patoh"`.
    pub strategy: &'static str,
    pub ranks: usize,
    pub elements: usize,
    pub steps: usize,
    pub order: usize,
    pub seed: u64,
    /// Communication/computation overlap: boundary partials are sent
    /// before the interior apply instead of after the full apply.
    pub overlap: bool,
}

impl Scenario {
    pub fn id(&self) -> String {
        // The order is part of the identity only when it differs from the
        // historical default (1), so legacy baseline ids stay stable.
        let p = if self.order > 1 {
            format!("__p{}", self.order)
        } else {
            String::new()
        };
        let ov = if self.overlap { "__ov" } else { "" };
        format!("{}__{}__r{}{p}{ov}", self.mesh, self.strategy, self.ranks)
    }

    pub fn strategy_enum(&self) -> Strategy {
        match self.strategy {
            "scotch" => Strategy::ScotchBaseline,
            "scotch-p" => Strategy::ScotchP,
            "metis" => Strategy::MetisMc,
            "patoh" => Strategy::Patoh { final_imbal: 0.05 },
            other => panic!("unknown strategy key {other:?}"),
        }
    }

    pub fn build_mesh(&self) -> BenchmarkMesh {
        match self.mesh {
            "trench" => BenchmarkMesh::build(MeshKind::Trench, self.elements),
            "trench-big" => BenchmarkMesh::build(MeshKind::TrenchBig, self.elements),
            "embedding" => BenchmarkMesh::build(MeshKind::Embedding, self.elements),
            "crust" => BenchmarkMesh::crust_geometric(self.elements),
            other => panic!("unknown mesh key {other:?}"),
        }
    }
}

/// Shared per-scenario parameters — identical in the full and smoke
/// matrices so smoke runs compare against full baselines.
const ELEMENTS: usize = 256;
const STEPS: usize = 4;
const ORDER: usize = 1;
const SEED: u64 = 1;
/// The paper's production polynomial order. Order-4 scenarios exercise the
/// SIMD stiffness batch at its real arithmetic intensity; steps are capped
/// at 2 so the smoke run stays fast despite the ~60× heavier elements.
const P4_ORDER: usize = 4;
const P4_STEPS: usize = 2;

fn scenario(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        mesh,
        strategy,
        ranks,
        elements: ELEMENTS,
        steps: STEPS,
        order: ORDER,
        seed: SEED,
        overlap: false,
    }
}

fn scenario_ov(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        overlap: true,
        ..scenario(mesh, strategy, ranks)
    }
}

fn scenario_p4(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        order: P4_ORDER,
        steps: P4_STEPS,
        ..scenario(mesh, strategy, ranks)
    }
}

fn scenario_p4_ov(mesh: &'static str, strategy: &'static str, ranks: usize) -> Scenario {
    Scenario {
        overlap: true,
        ..scenario_p4(mesh, strategy, ranks)
    }
}

/// The scenario matrix: `smoke` selects the CI subset (four scenarios),
/// the full matrix is 2 meshes × 4 strategies × {2, 4, 8} ranks, plus an
/// overlap twin of every r8 scenario so the wait-time reduction from
/// comm/compute overlap is tracked by the bench gate, not claimed.
///
/// On top of that, every one of the four benchmark meshes gets an order-4
/// (`__p4`) block — r2, r8 and an r8 overlap twin under the default
/// partitioner — so the SIMD stiffness batch runs at the paper's real
/// polynomial order inside the gated matrix, not only in microbenches.
pub fn matrix(smoke: bool) -> Vec<Scenario> {
    if smoke {
        return vec![
            scenario("trench", "scotch", 2),
            scenario("trench", "scotch-p", 2),
            scenario_ov("trench", "scotch", 8),
            scenario_p4("trench", "scotch", 2),
        ];
    }
    let mut out = Vec::new();
    for mesh in ["trench", "crust"] {
        for strategy in ["scotch", "scotch-p", "metis", "patoh"] {
            for ranks in [2, 4, 8] {
                out.push(scenario(mesh, strategy, ranks));
            }
            out.push(scenario_ov(mesh, strategy, 8));
        }
    }
    for mesh in ["trench", "trench-big", "embedding", "crust"] {
        out.push(scenario_p4(mesh, "scotch", 2));
        out.push(scenario_p4(mesh, "scotch", 8));
        out.push(scenario_p4_ov(mesh, "scotch", 8));
    }
    out
}

fn quantile_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count".to_string(), Json::UInt(h.count)),
        ("sum_s".to_string(), Json::Num(h.sum)),
        ("p50".to_string(), Json::Num(h.p50())),
        ("p95".to_string(), Json::Num(h.p95())),
        ("p99".to_string(), Json::Num(h.p99())),
    ])
}

/// Run one scenario and return its result object. `wall_s` is measured by
/// the caller-visible clock; every counter in `"counters"` is deterministic.
pub fn run_scenario(sc: &Scenario) -> Json {
    let b = sc.build_mesh();
    let part = partition_mesh(&b.mesh, &b.levels, sc.ranks, sc.strategy_enum(), sc.seed);
    let op_dt = b.levels.dt_global * cfl_dt_scale(sc.order, 3);
    let ndof = Operator::ndof(&AcousticOperator::new(&b.mesh, sc.order));
    let sources = vec![Source::ricker(0, 0.3, 1.0, 1.0)];
    let cfg = DistributedConfig {
        stall_monitor: Some(MonitorConfig {
            log_warnings: false,
            ..MonitorConfig::default()
        }),
        overlap: sc.overlap,
        ..DistributedConfig::new(sc.ranks)
    };
    let zero = vec![0.0; ndof];
    let mut host = MetricsRegistry::new();
    let started = std::time::Instant::now();
    let (_, _, stats) = run_distributed_local_acoustic_flight(
        &b.mesh, &b.levels, sc.order, &part, op_dt, &zero, &zero, sc.steps, &cfg, &sources,
        &mut host,
    )
    .0
    .expect("distributed run failed");
    let wall_s = started.elapsed().as_secs_f64();

    let n_levels = b.levels.n_levels;
    let sum_counter =
        |name: &str| -> u64 { stats.iter().map(|s| s.registry.counter_total(name)).sum() };
    let mut busy = Histogram::default();
    let mut wait = Histogram::default();
    for s in &stats {
        for level in std::iter::once(None).chain((0..n_levels as u8).map(Some)) {
            if let Some(h) = s.registry.histogram(names::BUSY, level) {
                busy.merge(h);
            }
            if let Some(h) = s.registry.histogram(names::WAIT, level) {
                wait.merge(h);
            }
        }
    }
    let lambda = Json::Arr(
        lambda_from_stats(&stats)
            .into_iter()
            .map(|(l, lam)| {
                Json::Obj(vec![
                    ("level".to_string(), Json::UInt(l as u64)),
                    ("lambda".to_string(), Json::Num(lam)),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("id".to_string(), Json::str(sc.id())),
        ("mesh".to_string(), Json::str(sc.mesh)),
        ("strategy".to_string(), Json::str(sc.strategy)),
        ("ranks".to_string(), Json::UInt(sc.ranks as u64)),
        ("elements".to_string(), Json::UInt(b.mesh.n_elems() as u64)),
        ("steps".to_string(), Json::UInt(sc.steps as u64)),
        ("order".to_string(), Json::UInt(sc.order as u64)),
        ("seed".to_string(), Json::UInt(sc.seed)),
        ("overlap".to_string(), Json::Bool(sc.overlap)),
        ("n_levels".to_string(), Json::UInt(n_levels as u64)),
        (
            "counters".to_string(),
            Json::Obj(vec![
                (
                    "elem_ops".to_string(),
                    Json::UInt(sum_counter(names::ELEM_OPS)),
                ),
                (
                    "msgs_sent".to_string(),
                    Json::UInt(sum_counter(names::MSGS_SENT)),
                ),
                (
                    "dofs_sent".to_string(),
                    Json::UInt(sum_counter(names::DOFS_SENT)),
                ),
                (
                    "exchanges".to_string(),
                    Json::UInt(sum_counter(names::EXCHANGES)),
                ),
            ]),
        ),
        ("lambda".to_string(), lambda),
        (
            // Run-long stall-monitor summary: the per-level λ watermark (the
            // worst imbalance any window saw, not just the final snapshot)
            // and how many observation windows the monitor closed. Window
            // counts are exchange-derived and deterministic; the watermark is
            // timing-derived — the whole block sits outside "counters" so the
            // exact-match gate never sees it.
            "stall".to_string(),
            Json::Obj(vec![
                (
                    "lambda_wm".to_string(),
                    Json::Arr(
                        (0..n_levels as u8)
                            .map(|l| {
                                let wm = stats
                                    .iter()
                                    .filter_map(|s| {
                                        s.registry.gauge(names::STALL_LAMBDA_WM, Some(l))
                                    })
                                    .fold(0.0f64, f64::max);
                                Json::Obj(vec![
                                    ("level".to_string(), Json::UInt(l as u64)),
                                    ("lambda_wm".to_string(), Json::Num(wm)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "windows".to_string(),
                    Json::UInt(sum_counter(names::STALL_WINDOWS)),
                ),
            ]),
        ),
        (
            "timings".to_string(),
            Json::Obj(vec![
                ("wall_s".to_string(), Json::Num(wall_s)),
                ("busy".to_string(), quantile_json(&busy)),
                ("wait".to_string(), quantile_json(&wait)),
                // Throughput view of the counters: aggregate and the
                // per-rank `elem_ops_per_sec` gauges stamped by RankStats.
                // Timing-derived, so deliberately *not* under "counters".
                (
                    "elem_ops_per_sec".to_string(),
                    Json::Num(if busy.sum > 0.0 {
                        sum_counter(names::ELEM_OPS) as f64 / busy.sum
                    } else {
                        0.0
                    }),
                ),
                (
                    "elem_ops_per_sec_per_rank".to_string(),
                    Json::Arr(
                        stats
                            .iter()
                            .map(|s| {
                                Json::Num(
                                    s.registry
                                        .gauge(names::ELEM_OPS_PER_SEC, None)
                                        .unwrap_or(0.0),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

fn host_json() -> Json {
    Json::Obj(vec![
        ("os".to_string(), Json::str(std::env::consts::OS)),
        ("arch".to_string(), Json::str(std::env::consts::ARCH)),
        (
            "cpus".to_string(),
            Json::UInt(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(0),
            ),
        ),
        // SIMD provenance: which vector extensions the host advertises and
        // which stiffness-kernel variant was actually dispatched for this
        // document. Timings produced by different kernels are not
        // comparable even on identical hardware (e.g. `LTS_SIMD=scalar`).
        ("features".to_string(), Json::str(simd::cpu_features())),
        (
            "kernel_variant".to_string(),
            Json::str(simd::active().name()),
        ),
    ])
}

/// Run the matrix and build the `BENCH_lts.json` document.
pub fn run_suite(smoke: bool) -> Json {
    let scenarios = matrix(smoke);
    let mut out = Vec::with_capacity(scenarios.len());
    for sc in &scenarios {
        eprintln!("# lts-profile: {}", sc.id());
        out.push(run_scenario(sc));
    }
    Json::Obj(vec![
        ("schema".to_string(), Json::str(SCHEMA)),
        ("smoke".to_string(), Json::Bool(smoke)),
        ("host".to_string(), host_json()),
        ("scenarios".to_string(), Json::Arr(out)),
    ])
}

const COUNTER_KEYS: [&str; 4] = ["elem_ops", "msgs_sent", "dofs_sent", "exchanges"];

/// Structural check of a BENCH document. Returns the scenario count.
pub fn validate_bench(doc: &Json) -> Result<usize, String> {
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("schema field missing or not {SCHEMA:?}"));
    }
    doc.get("host")
        .and_then(|h| h.get("os"))
        .and_then(|o| o.as_str())
        .ok_or("missing host.os")?;
    let scenarios = doc
        .get("scenarios")
        .and_then(|s| s.as_arr())
        .ok_or("missing scenarios array")?;
    if scenarios.is_empty() {
        return Err("scenarios array is empty".to_string());
    }
    for (i, sc) in scenarios.iter().enumerate() {
        let id = sc
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("scenario {i}: missing id"))?;
        for key in ["ranks", "elements", "steps", "n_levels"] {
            sc.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("scenario {id}: missing {key}"))?;
        }
        let counters = sc
            .get("counters")
            .ok_or_else(|| format!("scenario {id}: missing counters"))?;
        for key in COUNTER_KEYS {
            counters
                .get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("scenario {id}: missing counter {key}"))?;
        }
        sc.get("lambda")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("scenario {id}: missing lambda array"))?;
        let timings = sc
            .get("timings")
            .ok_or_else(|| format!("scenario {id}: missing timings"))?;
        timings
            .get("wall_s")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("scenario {id}: missing timings.wall_s"))?;
        for h in ["busy", "wait"] {
            let hist = timings
                .get(h)
                .ok_or_else(|| format!("scenario {id}: missing timings.{h}"))?;
            for q in ["p50", "p95", "p99"] {
                hist.get(q)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("scenario {id}: missing timings.{h}.{q}"))?;
            }
        }
    }
    Ok(scenarios.len())
}

/// Describe a host mismatch between two BENCH documents, if any. Counters
/// stay comparable across hosts, wall-clock does not — the `compare` CLI
/// warns with this so a stale or foreign host record is surfaced instead
/// of silently gating timings against an incomparable machine.
pub fn host_mismatch(baseline: &Json, current: &Json) -> Option<String> {
    let field = |doc: &Json, key: &str| -> String {
        doc.get("host")
            .and_then(|h| h.get(key))
            .map(|v| v.render())
            .unwrap_or_else(|| "?".to_string())
    };
    for key in ["os", "arch", "cpus"] {
        let b = field(baseline, key);
        let c = field(current, key);
        if b != c {
            return Some(format!("host.{key} differs: baseline {b}, current {c}"));
        }
    }
    None
}

/// Describe a SIMD kernel-variant mismatch between two BENCH documents, if
/// any. Like [`host_mismatch`] this only invalidates wall-clock gates —
/// counters are variant-independent by the bitwise-identity contract — but
/// a baseline recorded with `avx512f` must not gate timings of a `scalar`
/// run (or vice versa), and a baseline predating the `kernel_variant`
/// field should be flagged as stale rather than silently trusted.
pub fn kernel_variant_mismatch(baseline: &Json, current: &Json) -> Option<String> {
    let field = |doc: &Json, key: &str| -> String {
        doc.get("host")
            .and_then(|h| h.get(key))
            .map(|v| v.render())
            .unwrap_or_else(|| "?".to_string())
    };
    for key in ["kernel_variant", "features"] {
        let b = field(baseline, key);
        let c = field(current, key);
        if b != c {
            return Some(format!("host.{key} differs: baseline {b}, current {c}"));
        }
    }
    None
}

fn index_by_id(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("scenarios")
        .and_then(|s| s.as_arr())
        .map(|arr| {
            arr.iter()
                .filter_map(|sc| sc.get("id").and_then(|v| v.as_str()).map(|id| (id, sc)))
                .collect()
        })
        .unwrap_or_default()
}

/// `bench-compare`: check `current` against `baseline`. Scenarios are
/// intersected by id; counters must match **exactly**, `wall_s` may regress
/// by at most `timing_tol` (relative) when `check_timings` is set. Returns
/// the list of failures — empty means the gate passes.
pub fn compare_bench(
    baseline: &Json,
    current: &Json,
    timing_tol: f64,
    check_timings: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    let base = index_by_id(baseline);
    let cur = index_by_id(current);
    let mut compared = 0usize;
    for (id, c) in &cur {
        let Some((_, b)) = base.iter().find(|(bid, _)| bid == id) else {
            continue;
        };
        compared += 1;
        for key in ["elements", "steps", "n_levels"] {
            let bv = b.get(key).and_then(|v| v.as_u64());
            let cv = c.get(key).and_then(|v| v.as_u64());
            if bv != cv {
                failures.push(format!("{id}: {key} changed {bv:?} -> {cv:?}"));
            }
        }
        for key in COUNTER_KEYS {
            let bv = b
                .get("counters")
                .and_then(|o| o.get(key))
                .and_then(|v| v.as_u64());
            let cv = c
                .get("counters")
                .and_then(|o| o.get(key))
                .and_then(|v| v.as_u64());
            if bv != cv {
                failures.push(format!(
                    "{id}: counter {key} drifted {} -> {}",
                    bv.map_or("missing".to_string(), |v| v.to_string()),
                    cv.map_or("missing".to_string(), |v| v.to_string()),
                ));
            }
        }
        if check_timings {
            let bw = b
                .get("timings")
                .and_then(|t| t.get("wall_s"))
                .and_then(|v| v.as_f64());
            let cw = c
                .get("timings")
                .and_then(|t| t.get("wall_s"))
                .and_then(|v| v.as_f64());
            if let (Some(bw), Some(cw)) = (bw, cw) {
                if cw > bw * (1.0 + timing_tol) {
                    failures.push(format!(
                        "{id}: wall_s regressed {bw:.4}s -> {cw:.4}s (tol {:.0}%)",
                        100.0 * timing_tol
                    ));
                }
            } else {
                failures.push(format!("{id}: wall_s missing on one side"));
            }
        }
    }
    if compared == 0 {
        failures.push("no common scenario ids between baseline and current".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            mesh: "trench",
            strategy: "scotch",
            ranks: 2,
            elements: 64,
            steps: 2,
            order: 1,
            seed: 1,
            overlap: false,
        }
    }

    fn tiny_doc() -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("smoke".to_string(), Json::Bool(true)),
            ("host".to_string(), host_json()),
            (
                "scenarios".to_string(),
                Json::Arr(vec![run_scenario(&tiny())]),
            ),
        ])
    }

    #[test]
    fn smoke_matrix_is_subset_of_full() {
        let full = matrix(false);
        let smoke = matrix(true);
        // 2 meshes × 4 strategies × {2,4,8} ranks, plus one r8 overlap
        // twin per mesh × strategy, plus the order-4 block (r2/r8/r8-ov)
        // on each of the four benchmark meshes
        assert_eq!(full.len(), 2 * 4 * 3 + 2 * 4 + 4 * 3);
        assert!(full.iter().any(|s| s.overlap && s.ranks == 8));
        // every benchmark mesh has order-4 coverage, including an overlap
        // twin, and the order is encoded in the id before the __ov suffix
        for mesh in ["trench", "trench-big", "embedding", "crust"] {
            assert!(full
                .iter()
                .any(|s| s.mesh == mesh && s.order == 4 && !s.overlap));
            let ov = full
                .iter()
                .find(|s| s.mesh == mesh && s.order == 4 && s.overlap)
                .expect("p4 overlap twin");
            assert_eq!(ov.id(), format!("{mesh}__scotch__r8__p4__ov"));
            assert_eq!(ov.steps, P4_STEPS, "p4 scenarios cap steps");
        }
        assert!(
            smoke.iter().any(|s| s.order == 4),
            "smoke must exercise the order-4 SIMD path"
        );
        assert!(!smoke.is_empty());
        for sc in &smoke {
            let twin = full
                .iter()
                .find(|f| f.id() == sc.id())
                .expect("smoke scenario present in full matrix");
            assert_eq!(twin, sc, "smoke parameters must match the full matrix");
        }
        let mut ids: Vec<String> = full.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), full.len(), "scenario ids must be unique");
    }

    #[test]
    fn scenario_reports_stall_watermark_and_windows() {
        let a = run_scenario(&tiny());
        let stall = a.get("stall").expect("stall block");
        let wm = stall.get("lambda_wm").and_then(|v| v.as_arr()).unwrap();
        assert!(!wm.is_empty());
        for e in wm {
            assert!(e.get("level").and_then(|v| v.as_u64()).is_some());
            let v = e.get("lambda_wm").and_then(|v| v.as_f64()).unwrap();
            assert!(v.is_finite() && v >= 0.0);
        }
        // window count is exchange-derived: identical across reruns
        let b = run_scenario(&tiny());
        assert_eq!(
            stall.get("windows").and_then(|v| v.as_u64()),
            b.get("stall")
                .unwrap()
                .get("windows")
                .and_then(|v| v.as_u64())
        );
        assert!(stall.get("windows").and_then(|v| v.as_u64()).unwrap() > 0);
    }

    #[test]
    fn counters_are_deterministic_across_runs() {
        let a = run_scenario(&tiny());
        let b = run_scenario(&tiny());
        for key in COUNTER_KEYS {
            let av = a.get("counters").unwrap().get(key).unwrap().as_u64();
            let bv = b.get("counters").unwrap().get(key).unwrap().as_u64();
            assert_eq!(av, bv, "counter {key} must be timing-independent");
            assert!(av.unwrap() > 0 || key == "dofs_sent", "counter {key} zero");
        }
    }

    #[test]
    fn generated_document_validates_and_compares_clean() {
        let doc = tiny_doc();
        let n = validate_bench(&doc).expect("valid");
        assert_eq!(n, 1);
        // round-trip through the renderer + parser, as bench-compare does
        let reparsed = Json::parse(&doc.render_pretty()).expect("round-trip");
        assert_eq!(validate_bench(&reparsed), Ok(1));
        let failures = compare_bench(&doc, &reparsed, 0.0, false);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn compare_detects_counter_drift_and_timing_regression() {
        let doc = tiny_doc();
        let mut tampered = Json::parse(&doc.render()).unwrap();
        // bump elem_ops by one in the reparsed copy
        if let Json::Obj(fields) = &mut tampered {
            let scenarios = fields.iter_mut().find(|(k, _)| k == "scenarios").unwrap();
            if let Json::Arr(arr) = &mut scenarios.1 {
                if let Json::Obj(sc) = &mut arr[0] {
                    let counters = sc.iter_mut().find(|(k, _)| k == "counters").unwrap();
                    if let Json::Obj(cs) = &mut counters.1 {
                        let eo = cs.iter_mut().find(|(k, _)| k == "elem_ops").unwrap();
                        if let Json::UInt(v) = &mut eo.1 {
                            *v += 1;
                        }
                    }
                    let timings = sc.iter_mut().find(|(k, _)| k == "timings").unwrap();
                    if let Json::Obj(ts) = &mut timings.1 {
                        let w = ts.iter_mut().find(|(k, _)| k == "wall_s").unwrap();
                        w.1 = Json::Num(1e9);
                    }
                }
            }
        }
        let drift_only = compare_bench(&doc, &tampered, 0.5, false);
        assert_eq!(drift_only.len(), 1, "{drift_only:?}");
        assert!(drift_only[0].contains("elem_ops"), "{drift_only:?}");
        let with_timings = compare_bench(&doc, &tampered, 0.5, true);
        assert_eq!(with_timings.len(), 2, "{with_timings:?}");
        assert!(with_timings[1].contains("regressed"), "{with_timings:?}");
    }

    #[test]
    fn host_block_records_simd_and_variant_mismatch_is_detected() {
        let doc = tiny_doc();
        let host = doc.get("host").unwrap();
        assert!(host.get("features").and_then(|v| v.as_str()).is_some());
        assert_eq!(
            host.get("kernel_variant").and_then(|v| v.as_str()),
            Some(simd::active().name())
        );
        assert!(kernel_variant_mismatch(&doc, &doc).is_none());
        // a baseline recorded under a different (e.g. forced-scalar) kernel
        // must be flagged against the current run
        let mut tampered = Json::parse(&doc.render()).unwrap();
        if let Json::Obj(fields) = &mut tampered {
            let host = fields.iter_mut().find(|(k, _)| k == "host").unwrap();
            if let Json::Obj(hs) = &mut host.1 {
                let kv = hs.iter_mut().find(|(k, _)| k == "kernel_variant").unwrap();
                kv.1 = Json::str("some-other-kernel");
            }
        }
        let m = kernel_variant_mismatch(&tampered, &doc).expect("mismatch");
        assert!(m.contains("kernel_variant"), "{m}");
        // a legacy baseline predating the field reads as stale, not equal
        if let Json::Obj(fields) = &mut tampered {
            let host = fields.iter_mut().find(|(k, _)| k == "host").unwrap();
            if let Json::Obj(hs) = &mut host.1 {
                hs.retain(|(k, _)| k != "kernel_variant" && k != "features");
            }
        }
        assert!(kernel_variant_mismatch(&tampered, &doc).is_some());
    }

    #[test]
    fn compare_fails_on_disjoint_documents() {
        let doc = tiny_doc();
        let empty = Json::Obj(vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("scenarios".to_string(), Json::Arr(vec![])),
        ]);
        let failures = compare_bench(&doc, &empty, 0.5, false);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("no common scenario"), "{failures:?}");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_bench(&Json::Obj(vec![])).is_err());
        let wrong_schema = Json::Obj(vec![("schema".to_string(), Json::str("nope"))]);
        assert!(validate_bench(&wrong_schema).is_err());
        let mut doc = tiny_doc();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "host");
        }
        assert!(validate_bench(&doc).unwrap_err().contains("host"));
    }
}
