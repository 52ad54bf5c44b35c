//! Per-level DOF sets of the LTS scheme (Sec. II-C).
//!
//! Node (DOF) level = the finest level of any element containing it (the
//! paper's `P_k` selections, with interface nodes owned by the finer side).
//! For every level `k` the scheme needs:
//!
//! * `elems[k]` — elements containing at least one level-`k` DOF: the
//!   element list over which `A·P_k·u` must be assembled (level-`k` elements
//!   plus their coarser neighbours);
//! * `active[k]` — DOFs integrated by the level-`k` auxiliary system: DOFs
//!   of level ≥ `k` plus the "gray" halo (DOFs sharing an element with one);
//! * `leaf[k]` — DOFs whose *own* sub-stepping happens at level `k`
//!   (`active[k] \ active[k+1]`); every DOF is in exactly one leaf set;
//! * `touched[k]` — DOFs written by the masked product (those of `elems[k]`),
//!   the entries of the force buffer that must be re-zeroed per sub-step.

use crate::operator::DofTopology;

/// Precomputed level structure for a discretization + element level map.
#[derive(Debug, Clone)]
pub struct LtsSetup {
    /// Number of levels `L` (coarsest = 0).
    pub n_levels: usize,
    /// Level of every DOF: the max level of any element containing it.
    pub dof_level: Vec<u8>,
    /// Level of every element (as given).
    pub elem_level: Vec<u8>,
    /// `elems[k]`: elements containing ≥ 1 DOF of level exactly `k`.
    pub elems: Vec<Vec<u32>>,
    /// `active[k]`: DOFs integrated by level `k`'s auxiliary system
    /// (`active[0]` is the full DOF range and is stored empty as a sentinel —
    /// use [`LtsSetup::is_full_level`]).
    pub active: Vec<Vec<u32>>,
    /// `leaf[k] = active[k] \ active[k+1]`.
    pub leaf: Vec<Vec<u32>>,
    /// `touched[k]`: union of DOFs of `elems[k]`, ascending.
    pub touched: Vec<Vec<u32>>,
    /// Per-DOF leaf level: the level whose sub-stepping integrates this DOF
    /// (the largest `k` with the DOF in `active[k]`, 0 otherwise).
    pub leaf_level: Vec<u8>,
}

impl LtsSetup {
    /// `active[0]`/`leaf`-set handling: level 0 integrates all DOFs.
    pub fn is_full_level(&self, level: usize) -> bool {
        level == 0
    }

    pub fn new<T: DofTopology>(topo: &T, elem_level: &[u8]) -> Self {
        assert_eq!(elem_level.len(), topo.n_elems());
        let ndof = topo.n_dofs();
        let n_levels = elem_level.iter().copied().max().unwrap_or(0) as usize + 1;
        assert!(n_levels <= 16, "more than 16 LTS levels is never useful");
        let mut dof_level = vec![0u8; ndof];
        let mut dofs = Vec::new();

        // DOF level = max adjacent element level
        for e in 0..topo.n_elems() as u32 {
            let le = elem_level[e as usize];
            if le == 0 {
                continue;
            }
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                if dof_level[d as usize] < le {
                    dof_level[d as usize] = le;
                }
            }
        }

        // max DOF level within each element (element + finer neighbours)
        let mut elem_max_dof = vec![0u8; topo.n_elems()];
        let mut elems: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        for e in 0..topo.n_elems() as u32 {
            topo.elem_dofs(e, &mut dofs);
            let mut present = [false; 16];
            let mut maxl = 0u8;
            for &d in &dofs {
                let l = dof_level[d as usize];
                present[l as usize] = true;
                maxl = maxl.max(l);
            }
            elem_max_dof[e as usize] = maxl;
            for (k, elems_k) in elems.iter_mut().enumerate() {
                if present[k] {
                    elems_k.push(e);
                }
            }
        }

        // active[k]: DOFs of elements whose max DOF level ≥ k
        let mut active: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        let mut mark = vec![0u8; ndof];
        for k in (1..n_levels).rev() {
            for e in 0..topo.n_elems() as u32 {
                if elem_max_dof[e as usize] >= k as u8 {
                    topo.elem_dofs(e, &mut dofs);
                    for &d in &dofs {
                        if mark[d as usize] < k as u8 {
                            mark[d as usize] = k as u8;
                        }
                    }
                }
            }
        }
        for (d, &m) in mark.iter().enumerate() {
            for lvl in active.iter_mut().take(m as usize + 1).skip(1) {
                lvl.push(d as u32);
            }
        }

        // leaf[k] = active[k] \ active[k+1]  (leaf[0] = complement of active[1])
        let mut leaf: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        for d in 0..ndof as u32 {
            let m = mark[d as usize] as usize;
            leaf[m].push(d);
        }

        // touched[k] = DOFs of elems[k], ascending: bit k of in_level[d]
        // marks d ∈ touched[k]
        let mut in_level = vec![0u16; ndof];
        for (k, elems_k) in elems.iter().enumerate() {
            for &e in elems_k {
                topo.elem_dofs(e, &mut dofs);
                for &d in &dofs {
                    in_level[d as usize] |= 1 << k;
                }
            }
        }
        // one list at a time, so no two grow side by side in the heap
        let touched: Vec<Vec<u32>> = (0..n_levels)
            .map(|k| {
                (0..ndof as u32)
                    .filter(|&d| in_level[d as usize] & (1 << k) != 0)
                    .collect()
            })
            .collect();

        LtsSetup {
            n_levels,
            dof_level,
            elem_level: elem_level.to_vec(),
            elems,
            active,
            leaf,
            touched,
            leaf_level: mark,
        }
    }

    /// The paper's cache optimization (Sec. IV-D): "the nodal degrees of
    /// freedom are grouped by p-level in order to utilize vector operations,
    /// which additionally improves cache performance." Returns the
    /// permutation `new_id = perm[old_id]` that orders DOFs by leaf level
    /// (coarsest first, stable within a level), making every per-level index
    /// set of this setup a contiguous ascending run.
    ///
    /// Apply it to the discretization (e.g.
    /// [`set_permutation`](`crate::chain1d::Chain1d::set_permutation`)) and
    /// rebuild the `LtsSetup`; the stepper then streams through consecutive
    /// memory in every sub-step update.
    pub fn grouping_permutation(&self) -> Vec<u32> {
        let n = self.dof_level.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&d| (self.leaf_level[d as usize], d));
        let mut perm = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as u32;
        }
        perm
    }

    /// Element-operations per global `Δt` performed by the masked LTS
    /// stepper: level `k`'s product runs `2^k` times over `elems[k]`.
    pub fn lts_elem_ops(&self) -> u64 {
        self.elems
            .iter()
            .enumerate()
            .map(|(k, e)| (1u64 << k) * e.len() as u64)
            .sum()
    }

    /// Element-operations per `Δt` of the ideal Eq. 9 model (`Σ_e 2^l_e`).
    pub fn model_elem_ops(&self) -> u64 {
        self.elem_level.iter().map(|&l| 1u64 << l).sum()
    }

    /// Element-operations per `Δt` of the non-LTS scheme (`E · 2^(L−1)`).
    pub fn global_elem_ops(&self) -> u64 {
        (self.elem_level.len() as u64) << (self.n_levels - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain1d::Chain1d;

    /// 8-element chain, elements 5..8 at level 1.
    fn chain() -> (Chain1d, Vec<u8>) {
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let lv = vec![0, 0, 0, 0, 0, 1, 1, 1];
        (c, lv)
    }

    #[test]
    fn dof_levels_take_finer_side() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // dofs 0..=4 level 0; dof 5 shared between elem 4 (l0) and 5 (l1) → 1
        assert_eq!(&s.dof_level[..5], &[0, 0, 0, 0, 0]);
        assert_eq!(&s.dof_level[5..], &[1, 1, 1, 1]);
    }

    #[test]
    fn elems_k_include_coarse_neighbors() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // level-1 dofs are 5..=8; elements containing them: 4 (coarse
        // neighbour), 5, 6, 7
        assert_eq!(s.elems[1], vec![4, 5, 6, 7]);
        // level-0 dofs are 0..=4; elements containing them: 0..=4
        assert_eq!(s.elems[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn active_includes_halo() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        // active[1]: dofs of elements with a level-1 dof = dofs 4..=8
        assert_eq!(s.active[1], vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn leaf_sets_partition_dofs() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        let mut all: Vec<u32> = s.leaf.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<u32>>());
        assert_eq!(s.leaf[0], vec![0, 1, 2, 3]);
        assert_eq!(s.leaf[1], vec![4, 5, 6, 7, 8]);
    }

    #[test]
    fn three_level_nesting() {
        let c = Chain1d::uniform(9, 1.0, 1.0);
        let lv = vec![0, 0, 0, 1, 1, 1, 2, 2, 2];
        let s = LtsSetup::new(&c, &lv);
        assert_eq!(s.n_levels, 3);
        // active sets are nested
        for d in &s.active[2] {
            assert!(s.active[1].contains(d));
        }
        // element lists: level 2 dofs are 6..=9 → elements 5..=8
        assert_eq!(s.elems[2], vec![5, 6, 7, 8]);
        // level-1 dofs: 3..=5 (6 is level 2) → elements 2,3,4,5
        assert_eq!(s.elems[1], vec![2, 3, 4, 5]);
    }

    #[test]
    fn op_counters_bound_model() {
        let (c, lv) = chain();
        let s = LtsSetup::new(&c, &lv);
        assert!(s.lts_elem_ops() >= s.model_elem_ops());
        assert!(s.lts_elem_ops() <= s.global_elem_ops());
        // 8 elems: model = 5 + 3·2 = 11; lts = 5 + 2·4 = 13; global = 16
        assert_eq!(s.model_elem_ops(), 11);
        assert_eq!(s.lts_elem_ops(), 13);
        assert_eq!(s.global_elem_ops(), 16);
    }

    #[test]
    fn uniform_single_level() {
        let c = Chain1d::uniform(4, 1.0, 1.0);
        let s = LtsSetup::new(&c, &[0, 0, 0, 0]);
        assert_eq!(s.n_levels, 1);
        assert_eq!(s.leaf[0].len(), 5);
        assert_eq!(s.elems[0].len(), 4);
    }
}
