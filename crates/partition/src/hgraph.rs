//! Hypergraphs for partitioning (Sec. III-A2).
//!
//! Vertices are mesh elements with multi-constraint weights; nets are mesh
//! nodes with costs `c[h'_n] = Σ_{e ∋ n} p_e`, so the connectivity-1 cut
//! size (Eq. 20) of a partition equals the exact MPI communication volume
//! per LTS cycle.

use lts_mesh::{HexMesh, Levels, NodalHypergraph};

/// A hypergraph in dual CSR form (net→pins and vertex→nets) with net costs
/// and `ncon` weights per vertex.
#[derive(Debug, Clone)]
pub struct HGraph {
    pub xpins: Vec<u32>,
    pub pins: Vec<u32>,
    pub xnets: Vec<u32>,
    pub vnets: Vec<u32>,
    pub netcost: Vec<u64>,
    pub ncon: usize,
    pub vwgt: Vec<u32>,
}

impl HGraph {
    pub fn n_vertices(&self) -> usize {
        self.xnets.len() - 1
    }

    pub fn n_nets(&self) -> usize {
        self.xpins.len() - 1
    }

    #[inline]
    pub fn pins_of(&self, net: u32) -> &[u32] {
        &self.pins[self.xpins[net as usize] as usize..self.xpins[net as usize + 1] as usize]
    }

    #[inline]
    pub fn nets_of(&self, v: u32) -> &[u32] {
        &self.vnets[self.xnets[v as usize] as usize..self.xnets[v as usize + 1] as usize]
    }

    #[inline]
    pub fn weight_of(&self, v: u32) -> &[u32] {
        &self.vwgt[v as usize * self.ncon..(v as usize + 1) * self.ncon]
    }

    pub fn total_weights(&self) -> Vec<u64> {
        let mut tot = vec![0u64; self.ncon];
        for v in 0..self.n_vertices() {
            for c in 0..self.ncon {
                tot[c] += self.vwgt[v * self.ncon + c] as u64;
            }
        }
        tot
    }

    /// Build from parallel arrays of nets (pins per net) and weights; nets
    /// with fewer than two pins are dropped (they can never be cut) and
    /// *identical* nets are merged with summed costs (the standard PaToH
    /// simplification — Sec. III-A2 notes the same collapse for the
    /// per-element-copy hyperedges). Nets keep their first-occurrence order.
    ///
    /// Each net's sorted pins go straight into the flat `pins` buffer; an
    /// open-addressing table of net ids, probed by a 64-bit hash of the pin
    /// slice and resolved by slice comparison, finds a repeat.
    pub fn from_nets(
        n_vertices: usize,
        nets: impl IntoIterator<Item = (Vec<u32>, u64)>,
        ncon: usize,
        vwgt: Vec<u32>,
    ) -> Self {
        assert_eq!(vwgt.len(), n_vertices * ncon);
        let mut xpins = vec![0u32];
        let mut pins: Vec<u32> = Vec::new();
        let mut netcost: Vec<u64> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new();
        let mut table = vec![u32::MAX; 64];
        for (mut p, cost) in nets {
            p.sort_unstable();
            p.dedup();
            if p.len() < 2 {
                continue;
            }
            assert!(p.iter().all(|&v| (v as usize) < n_vertices));
            let hash = pin_hash(&p);
            let mask = table.len() - 1;
            let mut slot = hash as usize & mask;
            loop {
                let net = table[slot];
                if net == u32::MAX {
                    table[slot] = netcost.len() as u32;
                    pins.extend_from_slice(&p);
                    xpins.push(pins.len() as u32);
                    netcost.push(cost);
                    hashes.push(hash);
                    break;
                }
                let n = net as usize;
                if hashes[n] == hash && pins[xpins[n] as usize..xpins[n + 1] as usize] == p[..] {
                    netcost[n] += cost;
                    break;
                }
                slot = (slot + 1) & mask;
            }
            // keep the table at most half full
            if 2 * netcost.len() > table.len() {
                table = vec![u32::MAX; 2 * table.len()];
                let mask = table.len() - 1;
                for (net, &hash) in hashes.iter().enumerate() {
                    let mut slot = hash as usize & mask;
                    while table[slot] != u32::MAX {
                        slot = (slot + 1) & mask;
                    }
                    table[slot] = net as u32;
                }
            }
        }
        let (xnets, vnets) = invert_pins(n_vertices, &xpins, &pins);
        HGraph {
            xpins,
            pins,
            xnets,
            vnets,
            netcost,
            ncon,
            vwgt,
        }
    }

    /// The paper's LTS hypergraph: one net per mesh corner node with cost
    /// `Σ_{e ∋ n} p_e`, one-hot per-level vertex weights.
    pub fn lts_model(mesh: &HexMesh, levels: &Levels) -> Self {
        let nh = NodalHypergraph::build(mesh, Some(levels));
        let ncon = levels.n_levels;
        let mut vwgt = vec![0u32; mesh.n_elems() * ncon];
        for e in 0..mesh.n_elems() {
            vwgt[e * ncon + levels.elem_level[e] as usize] = 1;
        }
        let nets =
            (0..nh.n_nets() as u32).map(|n| (nh.pins_of(n).to_vec(), nh.netcost[n as usize]));
        Self::from_nets(mesh.n_elems(), nets, ncon, vwgt)
    }

    /// Connectivity-1 cut size (Eq. 20).
    pub fn cut(&self, part: &[u32]) -> u64 {
        let mut seen: Vec<u32> = Vec::with_capacity(8);
        let mut total = 0u64;
        for net in 0..self.n_nets() as u32 {
            seen.clear();
            for &p in self.pins_of(net) {
                let pp = part[p as usize];
                if !seen.contains(&pp) {
                    seen.push(pp);
                }
            }
            if seen.len() > 1 {
                total += self.netcost[net as usize] * (seen.len() as u64 - 1);
            }
        }
        total
    }

    pub fn part_weights(&self, part: &[u32], k: usize) -> Vec<u64> {
        let mut w = vec![0u64; k * self.ncon];
        for v in 0..self.n_vertices() {
            for c in 0..self.ncon {
                w[part[v] as usize * self.ncon + c] += self.vwgt[v * self.ncon + c] as u64;
            }
        }
        w
    }

    /// Sub-hypergraph induced by `keep`, with net splitting: nets keep only
    /// surviving pins and are dropped when fewer than two remain.
    pub fn induced(&self, keep: &[u32]) -> HGraph {
        let mut g2l = vec![u32::MAX; self.n_vertices()];
        for (l, &g) in keep.iter().enumerate() {
            g2l[g as usize] = l as u32;
        }
        let mut vwgt = Vec::with_capacity(keep.len() * self.ncon);
        for &g in keep {
            vwgt.extend_from_slice(self.weight_of(g));
        }
        let nets = (0..self.n_nets() as u32).filter_map(|n| {
            let p: Vec<u32> = self
                .pins_of(n)
                .iter()
                .filter_map(|&v| {
                    let l = g2l[v as usize];
                    (l != u32::MAX).then_some(l)
                })
                .collect();
            (p.len() >= 2).then_some((p, self.netcost[n as usize]))
        });
        HGraph::from_nets(keep.len(), nets, self.ncon, vwgt)
    }
}

/// 64-bit hash of a sorted pin list (FxHash mixing with a murmur3
/// finalizer, so the low bits that pick a table slot are well spread).
fn pin_hash(pins: &[u32]) -> u64 {
    let mut h = pins.len() as u64;
    for &p in pins {
        h = (h.rotate_left(5) ^ p as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

fn invert_pins(n_vertices: usize, xpins: &[u32], pins: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut deg = vec![0u32; n_vertices];
    for &p in pins {
        deg[p as usize] += 1;
    }
    let mut xnets = vec![0u32; n_vertices + 1];
    for v in 0..n_vertices {
        xnets[v + 1] = xnets[v] + deg[v];
    }
    let mut cursor = xnets[..n_vertices].to_vec();
    let mut vnets = vec![0u32; pins.len()];
    for net in 0..xpins.len() - 1 {
        for i in xpins[net]..xpins[net + 1] {
            let v = pins[i as usize] as usize;
            vnets[cursor[v] as usize] = net as u32;
            cursor[v] += 1;
        }
    }
    (xnets, vnets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original `HashMap<Vec<u32>, u64>` merge: the reference that
    /// [`HGraph::from_nets`] must match field for field.
    fn reference_from_nets(
        n_vertices: usize,
        nets: impl IntoIterator<Item = (Vec<u32>, u64)>,
        ncon: usize,
        vwgt: Vec<u32>,
    ) -> HGraph {
        let mut merged: std::collections::HashMap<Vec<u32>, u64> = std::collections::HashMap::new();
        let mut order: Vec<Vec<u32>> = Vec::new();
        for (mut p, cost) in nets {
            p.sort_unstable();
            p.dedup();
            if p.len() < 2 {
                continue;
            }
            match merged.entry(p) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += cost;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    order.push(e.key().clone());
                    e.insert(cost);
                }
            }
        }
        let mut xpins = vec![0u32];
        let mut pins: Vec<u32> = Vec::new();
        let mut netcost = Vec::new();
        for p in order {
            let cost = merged[&p];
            pins.extend_from_slice(&p);
            xpins.push(pins.len() as u32);
            netcost.push(cost);
        }
        let (xnets, vnets) = invert_pins(n_vertices, &xpins, &pins);
        HGraph {
            xpins,
            pins,
            xnets,
            vnets,
            netcost,
            ncon,
            vwgt,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random nets with repeated pins, single-pin and empty nets, and
        /// permuted duplicates of earlier nets inserted anywhere (enough of
        /// them to grow the merge table several times).
        #[test]
        fn from_nets_matches_hashmap_reference(
            n in 1usize..12,
            base in prop::collection::vec((prop::collection::vec(0u32..12, 0..7), 1u64..50), 0..80),
            copies in prop::collection::vec((0usize..80, 0u64..1000), 0..80),
        ) {
            let mut nets: Vec<(Vec<u32>, u64)> = base
                .into_iter()
                .map(|(p, c)| (p.into_iter().map(|v| v % n as u32).collect(), c))
                .collect();
            for (i, (pick, r)) in copies.into_iter().enumerate() {
                if nets.is_empty() {
                    break;
                }
                let (mut p, c) = nets[pick % nets.len()].clone();
                if !p.is_empty() {
                    let len = p.len();
                    p.rotate_left(r as usize % len);
                }
                if r % 2 == 1 {
                    p.reverse();
                }
                let at = (r as usize + i) % (nets.len() + 1);
                nets.insert(at, (p, c + r));
            }
            let got = HGraph::from_nets(n, nets.clone(), 1, vec![1; n]);
            let want = reference_from_nets(n, nets, 1, vec![1; n]);
            prop_assert_eq!(got.xpins, want.xpins);
            prop_assert_eq!(got.pins, want.pins);
            prop_assert_eq!(got.netcost, want.netcost);
            prop_assert_eq!(got.xnets, want.xnets);
            prop_assert_eq!(got.vnets, want.vnets);
        }
    }

    #[test]
    fn empty_input_has_no_nets() {
        let h = HGraph::from_nets(3, Vec::new(), 1, vec![1; 3]);
        assert_eq!(h.n_nets(), 0);
        assert_eq!(h.xnets, [0; 4]);
    }

    fn tiny() -> HGraph {
        // 4 vertices; nets: {0,1} cost 2, {1,2,3} cost 3, {0,3} cost 1
        HGraph::from_nets(
            4,
            vec![(vec![0, 1], 2), (vec![1, 2, 3], 3), (vec![0, 3], 1)],
            1,
            vec![1; 4],
        )
    }

    #[test]
    fn inversion_consistent() {
        let h = tiny();
        assert_eq!(h.n_nets(), 3);
        for v in 0..h.n_vertices() as u32 {
            for &n in h.nets_of(v) {
                assert!(h.pins_of(n).contains(&v));
            }
        }
        for n in 0..h.n_nets() as u32 {
            for &v in h.pins_of(n) {
                assert!(h.nets_of(v).contains(&n));
            }
        }
    }

    #[test]
    fn cut_connectivity_minus_one() {
        let h = tiny();
        // part {0,1 | 2,3}: net0 internal, net1 spans both (λ=2 → 3),
        // net2 spans both (λ=2 → 1) → 4
        assert_eq!(h.cut(&[0, 0, 1, 1]), 4);
        // all separate: net0 λ=2 → 2; net1 λ=3 → 6; net2 λ=2 → 1 → 9
        assert_eq!(h.cut(&[0, 1, 2, 3]), 9);
        assert_eq!(h.cut(&[0, 0, 0, 0]), 0);
    }

    #[test]
    fn single_pin_nets_dropped() {
        let h = HGraph::from_nets(3, vec![(vec![0], 5), (vec![1, 2], 1)], 1, vec![1; 3]);
        assert_eq!(h.n_nets(), 1);
    }

    #[test]
    fn induced_splits_nets() {
        let h = tiny();
        let sub = h.induced(&[1, 2, 3]);
        // net {0,1} → {1} dropped; net {1,2,3} → {0,1,2} kept; {0,3} → {3}→ dropped
        assert_eq!(sub.n_nets(), 1);
        assert_eq!(sub.pins_of(0), &[0, 1, 2]);
        assert_eq!(sub.netcost[0], 3);
    }

    #[test]
    fn lts_model_matches_mesh_volume() {
        let mut m = HexMesh::uniform(4, 2, 2, 1.0, 1.0);
        m.paint_box((3, 4), (0, 2), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let h = HGraph::lts_model(&m, &lv);
        let nh = NodalHypergraph::build(&m, Some(&lv));
        // cut sizes agree with the mesh-level model for a column split
        let part: Vec<u32> = (0..m.n_elems() as u32)
            .map(|e| u32::from(m.elem_ijk(e).0 >= 2))
            .collect();
        assert_eq!(h.cut(&part), nh.cut_size(&part));
    }

    #[test]
    fn duplicate_pins_removed() {
        let h = HGraph::from_nets(2, vec![(vec![0, 1, 1, 0], 1)], 1, vec![1; 2]);
        assert_eq!(h.pins_of(0), &[0, 1]);
    }

    #[test]
    fn identical_nets_merged_with_summed_costs() {
        let h = HGraph::from_nets(
            3,
            vec![(vec![0, 1], 2), (vec![1, 0], 3), (vec![1, 2], 1)],
            1,
            vec![1; 3],
        );
        assert_eq!(h.n_nets(), 2);
        assert_eq!(h.netcost[0], 5); // merged {0,1}
                                     // cut semantics unchanged: splitting 0|1 costs the summed 5
        assert_eq!(h.cut(&[0, 1, 1]), 5);
    }
}
