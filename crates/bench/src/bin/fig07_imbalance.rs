//! Fig. 7 — total work-load imbalance (Eq. 21) of MeTiS, PaToH
//! (final_imbal = 0.05 / 0.01) and SCOTCH-P on the trench mesh, for
//! K = 16 / 32 / 64 parts.
//!
//! Paper values (2.5M elements): MeTiS 34/88/89 %, PaToH.05 11/17/19 %,
//! PaToH.01 2/5/7 %, SCOTCH-P 6/6/7 %.

use lts_bench::{build_mesh, write_output, Args, Table};
use lts_mesh::MeshKind;
use lts_obs::{registry_to_csv, MetricsRegistry};
use lts_partition::{load_imbalance, partition_mesh, partition_mesh_observed, Strategy};

fn main() {
    let args = Args::parse();
    let elements: usize = args.get("elements", 100_000);
    let seed: u64 = args.get("seed", 1);
    let parts = args.get_list("parts", &[16, 32, 64]);
    let csv_path: String = args.get("csv", "fig07_metrics.csv".to_string());
    let b = build_mesh(MeshKind::Trench, elements);

    let strategies = [
        Strategy::MetisMc,
        Strategy::Patoh { final_imbal: 0.05 },
        Strategy::Patoh { final_imbal: 0.01 },
        Strategy::ScotchP,
    ];
    let mut t = Table::new(&[
        "# of parts",
        "MeTiS",
        "PaToH 0.05",
        "PaToH 0.01",
        "SCOTCH-P",
    ]);
    for &k in &parts {
        let mut row = vec![k.to_string()];
        for s in strategies {
            let part = partition_mesh(&b.mesh, &b.levels, k, s, seed);
            let rep = load_imbalance(&b.levels, &part, k);
            row.push(format!("{:.0}%", rep.total_pct));
        }
        t.row(row);
    }
    println!("Fig. 7 — total work-load imbalance (Eq. 21), trench mesh");
    t.print();
    println!("\npaper (2.5M elements):  16: 34% / 11% / 2% / 6%   32: 88% / 17% / 5% / 6%   64: 89% / 19% / 7% / 7%");

    // per-level detail for the largest K, recorded through the observability
    // layer: phase timers, V-cycle/FM engine counters and the Eq. 21 gauges
    // land in one registry per strategy, flattened into a single CSV.
    let k = *parts.last().unwrap();
    println!("\nper-level imbalance at K = {k}:");
    let mut t2 = Table::new(&["strategy", "level 0", "level 1", "level 2", "level 3"]);
    let mut csv = String::new();
    for s in strategies {
        let mut reg = MetricsRegistry::new();
        let part = partition_mesh_observed(&b.mesh, &b.levels, k, s, seed, &mut reg);
        let rep = load_imbalance(&b.levels, &part, k);
        let mut row = vec![s.name()];
        for l in 0..4 {
            row.push(
                rep.per_level_pct
                    .get(l)
                    .map(|p| format!("{p:.0}%"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        t2.row(row);
        // prefix every exporter row with the strategy so the four registries
        // share one file
        for (i, line) in registry_to_csv(&reg).lines().enumerate() {
            if i == 0 {
                if csv.is_empty() {
                    csv.push_str(&format!("strategy,{line}\n"));
                }
            } else {
                csv.push_str(&format!("{},{line}\n", s.name()));
            }
        }
    }
    t2.print();
    write_output(&csv_path, csv);
    println!("\nwrote partitioner metrics (K = {k}) to {csv_path}");
}
