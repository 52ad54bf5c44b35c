//! Exchange plans: which DOFs' partial forces must be assembled across which
//! rank pairs at each LTS level.
//!
//! A DOF's *rank set* is every rank owning an element containing it. After a
//! masked product at level `l`, all DOFs in `touched[l]` with two or more
//! ranks exchange partials among their rank set and re-assemble the total in
//! ascending-rank order — making every rank's copy bitwise identical.

use lts_core::{DofTopology, LtsSetup};

/// Exchange plan of one rank.
#[derive(Debug, Clone, Default)]
pub struct RankPlan {
    /// Elements this rank owns, intersected with `setup.elems[l]`.
    pub my_elems: Vec<Vec<u32>>,
    /// `my_elems[l]` split for communication overlap: elements touching a
    /// shared DOF (their contributions must be computed before the sends)…
    pub my_boundary_elems: Vec<Vec<u32>>,
    /// …and the rest, computable while messages are in flight.
    pub my_interior_elems: Vec<Vec<u32>>,
    /// `setup.touched[l] ∩ my_dofs` — force-buffer entries to zero.
    /// Like `my_active` and `my_leaf`, ascending, as the threaded vector
    /// updates need.
    pub my_zero: Vec<Vec<u32>>,
    /// `setup.active[l] ∩ my_dofs`, ascending.
    pub my_active: Vec<Vec<u32>>,
    /// `setup.leaf[l] ∩ my_dofs`, ascending.
    pub my_leaf: Vec<Vec<u32>>,
    /// All DOFs of owned elements.
    pub my_dofs: Vec<u32>,
    /// Per level: peers this rank exchanges with (sorted).
    pub peers: Vec<Vec<usize>>,
    /// Per level, aligned with `peers`: the ascending DOF list sent to (and
    /// received from) that peer.
    pub pair_dofs: Vec<Vec<Vec<u32>>>,
    /// Per level: all shared DOFs of this rank (ascending) with their full
    /// ascending rank sets.
    pub shared: Vec<Vec<(u32, Vec<u32>)>>,
}

/// Build the per-rank plans for a partition.
pub fn build_plans<T: DofTopology>(
    topo: &T,
    setup: &LtsSetup,
    partition: &[u32],
    n_ranks: usize,
) -> Vec<RankPlan> {
    assert_eq!(partition.len(), topo.n_elems());
    assert!(n_ranks >= 1);
    assert!(partition.iter().all(|&p| (p as usize) < n_ranks));
    let ndof = topo.n_dofs();
    let nl = setup.n_levels;

    // rank sets per dof (sorted, deduped)
    let mut dof_ranks: Vec<Vec<u32>> = vec![Vec::new(); ndof];
    let mut dofs = Vec::new();
    for e in 0..topo.n_elems() as u32 {
        let r = partition[e as usize];
        topo.elem_dofs(e, &mut dofs);
        for &d in &dofs {
            let v = &mut dof_ranks[d as usize];
            if !v.contains(&r) {
                v.push(r);
            }
        }
    }
    for v in dof_ranks.iter_mut() {
        v.sort_unstable();
    }

    let mut plans: Vec<RankPlan> = (0..n_ranks)
        .map(|_| RankPlan {
            my_elems: vec![Vec::new(); nl],
            my_boundary_elems: vec![Vec::new(); nl],
            my_interior_elems: vec![Vec::new(); nl],
            my_zero: vec![Vec::new(); nl],
            my_active: vec![Vec::new(); nl],
            my_leaf: vec![Vec::new(); nl],
            my_dofs: Vec::new(),
            peers: vec![Vec::new(); nl],
            pair_dofs: vec![Vec::new(); nl],
            shared: vec![Vec::new(); nl],
        })
        .collect();

    for d in 0..ndof as u32 {
        for &r in &dof_ranks[d as usize] {
            plans[r as usize].my_dofs.push(d);
        }
    }
    for (l, elems_l) in setup.elems.iter().enumerate() {
        for &e in elems_l {
            plans[partition[e as usize] as usize].my_elems[l].push(e);
        }
    }
    let owns = |r: usize, d: u32| dof_ranks[d as usize].contains(&(r as u32));
    // boundary/interior split of each rank's per-level element lists
    for (l, elems_l) in setup.elems.iter().enumerate() {
        for &e in elems_l {
            let r = partition[e as usize] as usize;
            topo.elem_dofs(e, &mut dofs);
            let boundary = dofs.iter().any(|&d| dof_ranks[d as usize].len() >= 2);
            if boundary {
                plans[r].my_boundary_elems[l].push(e);
            } else {
                plans[r].my_interior_elems[l].push(e);
            }
        }
    }
    for l in 0..nl {
        for &d in &setup.touched[l] {
            for &r in &dof_ranks[d as usize] {
                plans[r as usize].my_zero[l].push(d);
            }
        }
        for &d in &setup.active[l] {
            for &r in &dof_ranks[d as usize] {
                plans[r as usize].my_active[l].push(d);
            }
        }
        for &d in &setup.leaf[l] {
            for &r in &dof_ranks[d as usize] {
                plans[r as usize].my_leaf[l].push(d);
            }
        }
        let _ = owns;
        // shared dofs and pair lists (ascending dof order by construction)
        for &d in &setup.touched[l] {
            let ranks = &dof_ranks[d as usize];
            if ranks.len() < 2 {
                continue;
            }
            for &r in ranks {
                plans[r as usize].shared[l].push((d, ranks.clone()));
                for &p in ranks {
                    if p == r {
                        continue;
                    }
                    let plan = &mut plans[r as usize];
                    let pos = match plan.peers[l].binary_search(&(p as usize)) {
                        Ok(i) => i,
                        Err(i) => {
                            plan.peers[l].insert(i, p as usize);
                            plan.pair_dofs[l].insert(i, Vec::new());
                            i
                        }
                    };
                    plan.pair_dofs[l][pos].push(d);
                }
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::Chain1d;

    #[test]
    fn chain_two_ranks_share_one_dof_per_level_interface() {
        // 8 elements, uniform (single level), split 4|4 → dof 4 shared
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let plans = build_plans(&c, &setup, &part, 2);
        assert_eq!(plans[0].peers[0], vec![1]);
        assert_eq!(plans[1].peers[0], vec![0]);
        assert_eq!(plans[0].pair_dofs[0][0], vec![4]);
        assert_eq!(plans[1].pair_dofs[0][0], vec![4]);
        assert_eq!(plans[0].shared[0], vec![(4, vec![0, 1])]);
    }

    #[test]
    fn pair_lists_are_mirror_images() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 1.0);
        let (lv, _) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let part = vec![0, 0, 1, 1, 0, 0, 1, 1]; // deliberately scrambled
        let plans = build_plans(&c, &setup, &part, 2);
        for l in 0..setup.n_levels {
            for (pi, &peer) in plans[0].peers[l].iter().enumerate() {
                let back = plans[peer].peers[l].iter().position(|&x| x == 0).unwrap();
                assert_eq!(
                    plans[0].pair_dofs[l][pi], plans[peer].pair_dofs[l][back],
                    "level {l} pair lists differ"
                );
            }
        }
    }

    #[test]
    fn my_sets_partition_global_sets() {
        let c = Chain1d::uniform(10, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 10]);
        let part: Vec<u32> = (0..10).map(|e| (e / 4) as u32).collect(); // 3 ranks
        let plans = build_plans(&c, &setup, &part, 3);
        // every leaf dof is covered by at least one rank; shared dofs by several
        let mut coverage = [0usize; 11];
        for p in &plans {
            for &d in &p.my_leaf[0] {
                coverage[d as usize] += 1;
            }
        }
        assert!(coverage.iter().all(|&c| c >= 1));
        assert_eq!(coverage[4], 2); // interface dof owned by ranks 0 and 1
    }

    #[test]
    fn single_rank_has_no_peers() {
        let c = Chain1d::uniform(6, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 6]);
        let plans = build_plans(&c, &setup, &[0; 6], 1);
        assert!(plans[0].peers[0].is_empty());
        assert_eq!(plans[0].my_elems[0].len(), 6);
        assert_eq!(plans[0].my_dofs.len(), 7);
    }
}
