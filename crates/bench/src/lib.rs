//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the index) and accepts `--elements N` to change the mesh
//! scale (defaults are laptop-sized; paper-scale runs are a flag away).

#![forbid(unsafe_code)]

pub mod profile;
pub mod scaling;

use lts_mesh::{BenchmarkMesh, MeshKind};

/// Minimal flag parser: `--key value` pairs.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if i + 1 < argv.len() {
                    pairs.push((key.to_string(), argv[i + 1].clone()));
                    i += 2;
                    continue;
                }
            }
            eprintln!("ignoring argument {:?}", argv[i]);
            i += 1;
        }
        Args { pairs }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// Comma-separated list (e.g. `--parts 16,32,64`).
    pub fn get_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_else(|| default.to_vec())
    }
}

/// Build a benchmark mesh and print its headline stats.
pub fn build_mesh(kind: MeshKind, elements: usize) -> BenchmarkMesh {
    let b = BenchmarkMesh::build(kind, elements);
    eprintln!(
        "# {} mesh: {} elements ({} requested), {} levels, model speed-up {:.2}x (paper: {:.1}x at {}M elements)",
        kind.name(),
        b.mesh.n_elems(),
        elements,
        b.levels.n_levels,
        b.speedup(),
        kind.paper_speedup(),
        kind.paper_elements() / 1_000_000,
    );
    b
}

/// Fixed-width table printer.
pub struct Table {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!("{:>width$}  ", c, width = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Engineering formatter: 1.4e6 → "1.4e6"-style short scientific.
pub fn sci(x: f64) -> String {
    // lint: allow(float-eq) — exact-zero guard before log10 (±0 → "0")
    if x == 0.0 {
        return "0".into();
    }
    let mut exp = x.abs().log10().floor() as i32;
    let mut mant = x / 10f64.powi(exp);
    if format!("{mant:.1}").parse::<f64>().unwrap().abs() >= 10.0 {
        mant /= 10.0;
        exp += 1;
    }
    format!("{mant:.1}e{exp}")
}

/// Write an output file the user asked for, or report the failure as
/// `could not write <path>: <error>` and exit 1 — a run whose requested
/// output is missing must not look successful.
pub fn write_output(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(sci(1.4e6), "1.4e6");
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(3.0e7), "3.0e7");
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print();
    }
}
