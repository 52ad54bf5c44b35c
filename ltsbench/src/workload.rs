//! The three workloads and the inputs each run generates from its seed.
//!
//! The program under test only ever sees what [`Inputs::generate`] builds:
//! the partitioner seed, the initial displacement and one Ricker point
//! source. Mesh, order, rank layout and step count are fixed per workload.

use wave_lts::lts::Source;
use wave_lts::mesh::{BenchmarkMesh, MeshKind};
use wave_lts::partition::Strategy;
use wave_lts::runtime::TransportKind;

/// Which benchmark mesh a workload builds, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeshSpec {
    /// `BenchmarkMesh::build(kind, elements)`.
    Kind(MeshKind, usize),
    /// `BenchmarkMesh::crust_geometric(elements)`.
    CrustGeometric(usize),
}

impl MeshSpec {
    pub fn build(self) -> BenchmarkMesh {
        match self {
            MeshSpec::Kind(kind, n) => BenchmarkMesh::build(kind, n),
            MeshSpec::CrustGeometric(n) => BenchmarkMesh::crust_geometric(n),
        }
    }

    /// The public call this spec makes, as spans name it.
    pub fn call_name(self) -> &'static str {
        match self {
            MeshSpec::Kind(..) => "BenchmarkMesh::build",
            MeshSpec::CrustGeometric(_) => "BenchmarkMesh::crust_geometric",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mesh: MeshSpec,
    pub order: usize,
    pub elastic: bool,
    pub ranks: usize,
    pub threads_per_rank: usize,
    pub strategy: Strategy,
    pub overlap: bool,
    pub transport: TransportKind,
    /// Global Δt₀ steps per end-to-end run.
    pub steps: usize,
    /// Relative field tolerance against the serial `LtsNewmark` reference
    /// (the `local_memory_*_matches_serial` tests' bound).
    pub tolerance: f64,
    /// Whether the closed-form exchange oracle is exact here (order 1:
    /// DOFs coincide with the mesh corner nodes).
    pub oracle_exact: bool,
    /// End-to-end runs per second of `--seconds`. Fixing the run count
    /// from `--seconds` (instead of looping until a deadline) keeps the
    /// steady-step sample count, and with it the tail percentile, the same
    /// on every run.
    pub runs_per_second: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    // Stiffness kernel, gather/scatter, vector updates and par_colored do
    // all the work; no halo exchange; the 587k-DOF state exceeds the LLC.
    Workload {
        name: "trench-p4-threads",
        mesh: MeshSpec::Kind(MeshKind::Trench, 8_800),
        order: 4,
        elastic: false,
        ranks: 1,
        threads_per_rank: 2,
        strategy: Strategy::MetisMc,
        overlap: false,
        transport: TransportKind::Channel,
        steps: 100,
        tolerance: 1e-11,
        oracle_exact: false,
        runs_per_second: 0.25,
    },
    // Six levels: 32 sub-steps and exchanges per Δt₀, cheap order-1
    // elements, a cache-resident working set — transport, waiting and
    // recorder cost dominate.
    Workload {
        name: "trenchbig-p1-halo",
        mesh: MeshSpec::Kind(MeshKind::TrenchBig, 32_000),
        order: 1,
        elastic: false,
        ranks: 2,
        threads_per_rank: 1,
        strategy: Strategy::MetisMc,
        overlap: true,
        transport: TransportKind::Channel,
        steps: 200,
        tolerance: 1e-11,
        oracle_exact: true,
        runs_per_second: 0.34,
    },
    // Mesh build, hypergraph partitioning, discretization and world build
    // take nearly all the time; 3-component elastic DOFs, larger halos.
    Workload {
        name: "crust-elastic-setup",
        mesh: MeshSpec::CrustGeometric(64_000),
        order: 2,
        elastic: true,
        ranks: 2,
        threads_per_rank: 1,
        strategy: Strategy::Patoh { final_imbal: 0.05 },
        overlap: false,
        transport: TransportKind::Channel,
        steps: 41,
        tolerance: 1e-12,
        oracle_exact: false,
        runs_per_second: 0.2,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: a tiny, fixed, portable generator — the same seed gives the
/// same inputs on every host.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything a run feeds the program, derived from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    pub u0: Vec<f64>,
    pub v0: Vec<f64>,
    /// `(dof, peak frequency, delay)` of the Ricker source.
    pub source: (u32, f64, f64),
}

impl Inputs {
    pub fn generate(seed: u64, ndof: usize) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let freq = rng.uniform(0.002, 0.01);
        let phase = rng.uniform(0.0, std::f64::consts::TAU);
        let u0 = (0..ndof).map(|i| (freq * i as f64 + phase).sin()).collect();
        let dof = (rng.next_u64() % ndof as u64) as u32;
        let f0 = rng.uniform(0.2, 0.5);
        let t0 = rng.uniform(0.5, 1.5);
        Inputs {
            seed,
            u0,
            v0: vec![0.0; ndof],
            source: (dof, f0, t0),
        }
    }

    /// The partitioner seed of the `k`-th partition a measurement makes.
    pub fn partition_seed(&self, k: usize) -> u64 {
        let mut rng = SplitMix::new(self.seed ^ (k as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        1 + rng.next_u64() % 1_000_000
    }

    pub fn sources(&self) -> Vec<Source> {
        let (dof, f0, t0) = self.source;
        vec![Source::ricker(dof, f0, t0, 1.0)]
    }
}

/// Global DOF count of `w` on `b`, without building an operator.
pub fn ndof(w: &Workload, b: &BenchmarkMesh) -> usize {
    let nodes = b.mesh.n_gll_nodes(w.order);
    if w.elastic {
        3 * nodes
    } else {
        nodes
    }
}
