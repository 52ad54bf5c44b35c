//! Golden element→part maps: `partition_mesh` must return, bit for bit, the
//! partitions recorded below for every strategy, part count and seed.
//!
//! The hashes were recorded before the FM passes and the net merge were
//! made linear per move; those are pure speed changes, so every world, halo
//! and counter downstream of a partition stays as it was. A hash here may
//! change only with a deliberate change to what a partitioner computes.

use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_partition::{partition_mesh, Strategy};

/// FNV-1a (64-bit) over the little-endian bytes of the part map.
fn fnv1a(part: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in part {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn strategies() -> Vec<Strategy> {
    let mut s = Strategy::paper_set();
    s.push(Strategy::ScotchBaseline);
    s
}

/// Compare every `(label, hash)` against `golden`, reporting all mismatches.
fn check(got: &[(String, u64)], golden: &[(&str, u64)]) {
    assert_eq!(got.len(), golden.len(), "case count");
    let bad: Vec<String> = got
        .iter()
        .zip(golden)
        .filter(|((gl, gh), (l, h))| gl != l || gh != h)
        .map(|((gl, gh), (l, h))| format!("{gl}: {gh:#018x} (golden {l}: {h:#018x})"))
        .collect();
    assert!(bad.is_empty(), "partitions changed:\n{}", bad.join("\n"));
}

#[test]
fn trench_10k_all_strategies_k_and_seeds() {
    let b = BenchmarkMesh::build(MeshKind::Trench, 10_000);
    let mut got = Vec::new();
    for s in strategies() {
        for k in [2usize, 4, 8, 16] {
            for seed in [1u64, 5] {
                let part = partition_mesh(&b.mesh, &b.levels, k, s, seed);
                got.push((format!("{} k={k} seed={seed}", s.name()), fnv1a(&part)));
            }
        }
    }
    check(&got, TRENCH_10K);
}

#[test]
fn crust_geometric_8k_patoh_k2() {
    let b = BenchmarkMesh::crust_geometric(8_000);
    let s = Strategy::Patoh { final_imbal: 0.05 };
    let got: Vec<(String, u64)> = [1u64, 5]
        .into_iter()
        .map(|seed| {
            let part = partition_mesh(&b.mesh, &b.levels, 2, s, seed);
            (format!("{} k=2 seed={seed}", s.name()), fnv1a(&part))
        })
        .collect();
    check(&got, CRUST_8K);
}

#[test]
fn trench_big_8k_metis_k2() {
    let b = BenchmarkMesh::build(MeshKind::TrenchBig, 8_000);
    let s = Strategy::MetisMc;
    let got: Vec<(String, u64)> = [1u64, 5]
        .into_iter()
        .map(|seed| {
            let part = partition_mesh(&b.mesh, &b.levels, 2, s, seed);
            (format!("{} k=2 seed={seed}", s.name()), fnv1a(&part))
        })
        .collect();
    check(&got, TRENCH_BIG_8K);
}

// Recorded with the partitioners as they were before the linear-per-move
// FM passes and net merge (release build; debug builds give the same maps).
const TRENCH_10K: &[(&str, u64)] = &[
    ("MeTiS k=2 seed=1", 0xd7b14939e27ca225),
    ("MeTiS k=2 seed=5", 0xceeeeda11340f1a5),
    ("MeTiS k=4 seed=1", 0xe63e03d4161ae2c5),
    ("MeTiS k=4 seed=5", 0x103a4e3e30d324d4),
    ("MeTiS k=8 seed=1", 0x9c550bf03f215fd4),
    ("MeTiS k=8 seed=5", 0x275f8e70bd9199f7),
    ("MeTiS k=16 seed=1", 0x49f0149795017335),
    ("MeTiS k=16 seed=5", 0xe6a7140971741424),
    ("PaToH 0.05 k=2 seed=1", 0x757e4deca55f41e5),
    ("PaToH 0.05 k=2 seed=5", 0x9b79538076ad9225),
    ("PaToH 0.05 k=4 seed=1", 0xc2ed51a7e00ec8a5),
    ("PaToH 0.05 k=4 seed=5", 0x544d1b3edf9d58a5),
    ("PaToH 0.05 k=8 seed=1", 0xe3e66ff9b5ab12b4),
    ("PaToH 0.05 k=8 seed=5", 0x3fdd5f62af479d33),
    ("PaToH 0.05 k=16 seed=1", 0x2731c8794c757064),
    ("PaToH 0.05 k=16 seed=5", 0x29a8fc5e9f147fd8),
    ("PaToH 0.01 k=2 seed=1", 0xceeeeda11340f1a5),
    ("PaToH 0.01 k=2 seed=5", 0xceeeeda11340f1a5),
    ("PaToH 0.01 k=4 seed=1", 0x4c77ff46d2259e25),
    ("PaToH 0.01 k=4 seed=5", 0x19a8f69f620e9ec4),
    ("PaToH 0.01 k=8 seed=1", 0xca927723c9ed51b6),
    ("PaToH 0.01 k=8 seed=5", 0xfc3a74b5add78c95),
    ("PaToH 0.01 k=16 seed=1", 0xe007110790337fb9),
    ("PaToH 0.01 k=16 seed=5", 0xc16613c7fa1076f0),
    ("SCOTCH-P k=2 seed=1", 0x21db5f8af7d212c5),
    ("SCOTCH-P k=2 seed=5", 0x136cd1f47f666ff4),
    ("SCOTCH-P k=4 seed=1", 0xbadef37c5912d9f4),
    ("SCOTCH-P k=4 seed=5", 0x20ce9d873baf4856),
    ("SCOTCH-P k=8 seed=1", 0x7c80a7dbbe5d0976),
    ("SCOTCH-P k=8 seed=5", 0x1c9c11dcf4ae2a21),
    ("SCOTCH-P k=16 seed=1", 0xf008f3edf20cacb6),
    ("SCOTCH-P k=16 seed=5", 0x85241ca2bf2e8aeb),
    ("SCOTCH k=2 seed=1", 0x1188281a689a3d25),
    ("SCOTCH k=2 seed=5", 0xceeeeda11340f1a5),
    ("SCOTCH k=4 seed=1", 0x26f96dd4fca10fc4),
    ("SCOTCH k=4 seed=5", 0x544d1b3edf9d58a5),
    ("SCOTCH k=8 seed=1", 0xe63f8d81515c1de2),
    ("SCOTCH k=8 seed=5", 0x99585cadbcc7d2d5),
    ("SCOTCH k=16 seed=1", 0xe7bb2941bb940550),
    ("SCOTCH k=16 seed=5", 0x6eac0b927426e0b5),
];

const CRUST_8K: &[(&str, u64)] = &[
    ("PaToH 0.05 k=2 seed=1", 0x8f9f5ed0573fbd65),
    ("PaToH 0.05 k=2 seed=5", 0xd90cbb754cf97ac5),
];

const TRENCH_BIG_8K: &[(&str, u64)] = &[
    ("MeTiS k=2 seed=1", 0x2c319600bedf55f5),
    ("MeTiS k=2 seed=5", 0xe949b3811a2af7f5),
];
