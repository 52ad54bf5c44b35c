//! The scalar (acoustic) wave operator: `ρ ü = ∇·(μ ∇u)` with `μ = ρc²`,
//! discretized by SEM on axis-aligned hexahedra.
//!
//! `A = M⁻¹K` is applied matrix-free per element with sum-factorised
//! tensor-product contractions; the mass matrix is diagonal by GLL
//! quadrature. Implements [`lts_core::Operator`] (full and *masked* products)
//! and [`lts_core::DofTopology`] so both Newmark and LTS-Newmark drive it
//! directly.

use crate::compiled::{AcousticEngine, GatherCache, ScalarScratch, ScalarWs, FULL_LEVEL};
use crate::dofmap::DofMap;
use crate::gll::GllBasis;
use lts_core::{DofTopology, Operator, Workspace};
use lts_mesh::HexMesh;

/// Matrix-free SEM operator for the scalar wave equation.
pub struct AcousticOperator {
    pub dofmap: DofMap,
    pub basis: GllBasis,
    /// Per-axis cell sizes.
    hx: Vec<f64>,
    hy: Vec<f64>,
    hz: Vec<f64>,
    /// Per-element stiffness coefficient `μ_e = ρ_e c_e²`.
    mu: Vec<f64>,
    /// Global diagonal mass (in the external numbering).
    mass: Vec<f64>,
    /// Reciprocal mass, so the scatter multiplies instead of divides.
    inv_mass: Vec<f64>,
    /// Optional DOF renumbering `new = perm[natural]` (p-level grouping,
    /// Sec. IV-D).
    perm: Option<Vec<u32>>,
}

/// Workspace slot of the structured acoustic operator.
struct AcousticWs(ScalarWs);

impl AcousticOperator {
    pub fn new(mesh: &HexMesh, order: usize) -> Self {
        let dofmap = DofMap::new(mesh, order);
        let basis = GllBasis::new(order);
        let hx: Vec<f64> = mesh.xs.windows(2).map(|w| w[1] - w[0]).collect();
        let hy: Vec<f64> = mesh.ys.windows(2).map(|w| w[1] - w[0]).collect();
        let hz: Vec<f64> = mesh.zs.windows(2).map(|w| w[1] - w[0]).collect();
        let ne = mesh.n_elems();
        let mu: Vec<f64> = (0..ne)
            .map(|e| mesh.density[e] * mesh.velocity[e] * mesh.velocity[e])
            .collect();

        // diagonal mass: M_g = Σ_e ρ_e w_a w_b w_c J_e
        let mut mass = vec![0.0; dofmap.n_nodes()];
        let np = basis.n_points();
        for e in 0..ne as u32 {
            let (ei, ej, ek) = dofmap.elem_ijk(e);
            let jac = 0.125 * hx[ei] * hy[ej] * hz[ek];
            let rho = mesh.density[e as usize];
            for c in 0..np {
                for b in 0..np {
                    let wbc = basis.weights[b] * basis.weights[c];
                    for a in 0..np {
                        let g = dofmap.elem_node(ei, ej, ek, a, b, c) as usize;
                        mass[g] += rho * basis.weights[a] * wbc * jac;
                    }
                }
            }
        }
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        AcousticOperator {
            dofmap,
            basis,
            hx,
            hy,
            hz,
            mu,
            mass,
            inv_mass,
            perm: None,
        }
    }

    /// Renumber the DOFs with `new = perm[natural]` (see
    /// `LtsSetup::grouping_permutation`); the mass diagonal and all
    /// gather/scatter indices switch to the new numbering.
    pub fn set_permutation(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.dofmap.n_nodes());
        assert!(self.perm.is_none(), "permutation already set");
        let mut mass = vec![0.0; self.mass.len()];
        for (old, &new) in perm.iter().enumerate() {
            mass[new as usize] = self.mass[old];
        }
        self.mass = mass;
        self.inv_mass = self.mass.iter().map(|&m| 1.0 / m).collect();
        self.perm = Some(perm.to_vec());
    }

    #[inline]
    fn gid(&self, natural: u32) -> usize {
        match &self.perm {
            Some(p) => p[natural as usize] as usize,
            None => natural as usize,
        }
    }

    /// Fetch or compile the colour-major gather entry for `(level, elems)`.
    fn compiled_entry(
        &self,
        cache: &mut GatherCache,
        key_level: u16,
        elems: &[u32],
        dof_level: Option<(&[u8], u8)>,
    ) -> usize {
        let npe = self.dofmap.nodes_per_elem();
        cache.get_or_build(
            key_level,
            elems,
            self.dofmap.n_nodes(),
            &mut |e, out| DofTopology::elem_dofs(self, e, out),
            &mut |order, idx, mask| {
                let mut nodes = Vec::with_capacity(npe);
                for &e in order {
                    DofTopology::elem_dofs(self, e, &mut nodes);
                    if let Some((lvl, k)) = dof_level {
                        for &g in &nodes {
                            mask.push(if lvl[g as usize] == k { 1.0 } else { 0.0 });
                        }
                    }
                    idx.extend_from_slice(&nodes);
                }
            },
        )
    }

    /// The shared execution engine over this operator's geometry.
    fn engine(&self) -> AcousticEngine<'_, impl Fn(u32) -> (f64, f64, f64, f64) + Sync + '_> {
        AcousticEngine {
            basis: &self.basis,
            inv_mass: &self.inv_mass,
            npe: self.dofmap.nodes_per_elem(),
            geom: move |e: u32| {
                let (ei, ej, ek) = self.dofmap.elem_ijk(e);
                (self.hx[ei], self.hy[ej], self.hz[ek], self.mu[e as usize])
            },
        }
    }
}

impl DofTopology for AcousticOperator {
    fn n_dofs(&self) -> usize {
        self.dofmap.n_nodes()
    }

    fn n_elems(&self) -> usize {
        self.dofmap.n_elems()
    }

    fn elem_dofs(&self, e: u32, out: &mut Vec<u32>) {
        self.dofmap.elem_nodes(e, out);
        if self.perm.is_some() {
            for d in out.iter_mut() {
                *d = self.gid(*d) as u32;
            }
        }
    }
}

impl Operator for AcousticOperator {
    fn ndof(&self) -> usize {
        self.dofmap.n_nodes()
    }

    fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
        out.fill(0.0);
        let npe = self.dofmap.nodes_per_elem();
        let st = ws.get_or_insert_with(|| AcousticWs(ScalarWs::new(npe)));
        let i = match st.0.cache.find(FULL_LEVEL, &[]) {
            Some(i) => i,
            None => {
                let all: Vec<u32> = (0..self.dofmap.n_elems() as u32).collect();
                self.compiled_entry(&mut st.0.cache, FULL_LEVEL, &all, None)
            }
        };
        let variant = crate::simd::active();
        st.0.cache.ensure_plan(i, npe, 1, variant);
        st.0.serial.ensure_lanes(npe, variant.lanes());
        let ScalarWs { cache, serial, .. } = &mut st.0;
        self.engine().run_serial(cache.entry(i), u, serial, out);
    }

    fn apply_masked_ws(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
    ) {
        let npe = self.dofmap.nodes_per_elem();
        let st = ws.get_or_insert_with(|| AcousticWs(ScalarWs::new(npe)));
        let i = self.compiled_entry(
            &mut st.0.cache,
            level as u16,
            elems,
            Some((dof_level, level)),
        );
        let variant = crate::simd::active();
        st.0.cache.ensure_plan(i, npe, 1, variant);
        st.0.serial.ensure_lanes(npe, variant.lanes());
        let ScalarWs { cache, serial, .. } = &mut st.0;
        self.engine().run_serial(cache.entry(i), u, serial, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_masked_threads(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
        threads: usize,
    ) {
        if threads <= 1 {
            return self.apply_masked_ws(u, out, elems, dof_level, level, ws);
        }
        let npe = self.dofmap.nodes_per_elem();
        let st = ws.get_or_insert_with(|| AcousticWs(ScalarWs::new(npe)));
        let i = self.compiled_entry(
            &mut st.0.cache,
            level as u16,
            elems,
            Some((dof_level, level)),
        );
        let variant = crate::simd::active();
        st.0.cache.ensure_plan(i, npe, 1, variant);
        let ScalarWs { cache, par, .. } = &mut st.0;
        if par.len() < threads {
            par.resize_with(threads, || ScalarScratch::new(npe));
        }
        for sc in par.iter_mut() {
            sc.ensure_lanes(npe, variant.lanes());
        }
        self.engine()
            .run_threads(cache.entry(i), u, &mut par[..threads], out);
    }

    fn precompile_masked(&self, elems: &[u32], dof_level: &[u8], level: u8, ws: &mut Workspace) {
        let npe = self.dofmap.nodes_per_elem();
        let st = ws.get_or_insert_with(|| AcousticWs(ScalarWs::new(npe)));
        let i = self.compiled_entry(
            &mut st.0.cache,
            level as u16,
            elems,
            Some((dof_level, level)),
        );
        // warm the SIMD plan too, so no transpose happens mid-run
        let variant = crate::simd::active();
        st.0.cache.ensure_plan(i, npe, 1, variant);
        st.0.serial.ensure_lanes(npe, variant.lanes());
    }

    fn mass(&self) -> &[f64] {
        &self.mass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_op(order: usize) -> (HexMesh, AcousticOperator) {
        let m = HexMesh::uniform(2, 2, 2, 1.5, 1.2);
        let op = AcousticOperator::new(&m, order);
        (m, op)
    }

    #[test]
    fn total_mass_is_density_times_volume() {
        let (_m, op) = small_op(4);
        let total: f64 = op.mass.iter().sum();
        let volume = 2.0 * 2.0 * 2.0;
        assert!((total - 1.2 * volume).abs() < 1e-10, "{total}");
        assert!(op.mass.iter().all(|&mg| mg > 0.0));
    }

    #[test]
    fn constant_field_in_kernel() {
        // K·const = 0 (pure Neumann operator annihilates constants)
        let (_, op) = small_op(4);
        let u = vec![3.7; op.dofmap.n_nodes()];
        let mut out = vec![0.0; op.dofmap.n_nodes()];
        op.apply(&u, &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert!(o.abs() < 1e-10, "dof {i}: {o}");
        }
    }

    #[test]
    fn linear_field_interior_residual_zero() {
        // u = x is in the SEM space; K·x has only (free-)boundary rows
        // nonzero... with natural BC, ∫μ∇φ·∇u = boundary flux term which is
        // nonzero only for boundary basis functions on x-faces.
        let m = HexMesh::uniform(3, 2, 2, 1.0, 1.0);
        let op = AcousticOperator::new(&m, 3);
        let b = GllBasis::new(3);
        let d = &op.dofmap;
        let mut u = vec![0.0; d.n_nodes()];
        // physical x of global plane index
        let mut px = Vec::new();
        for e in 0..3 {
            for (a, &xi) in b.points.iter().enumerate() {
                if e > 0 && a == 0 {
                    continue;
                }
                px.push(e as f64 + 0.5 * (xi + 1.0));
            }
        }
        for iz in 0..d.gz {
            for iy in 0..d.gy {
                for ix in 0..d.gx {
                    u[d.global_node(ix, iy, iz) as usize] = px[ix];
                }
            }
        }
        let mut out = vec![0.0; d.n_nodes()];
        op.apply(&u, &mut out);
        for iz in 0..d.gz {
            for iy in 0..d.gy {
                for ix in 1..d.gx - 1 {
                    let g = d.global_node(ix, iy, iz) as usize;
                    assert!(out[g].abs() < 1e-9, "interior ({ix},{iy},{iz}): {}", out[g]);
                }
            }
        }
        // boundary x-faces see the flux
        let g0 = d.global_node(0, 1, 1) as usize;
        assert!(out[g0].abs() > 1e-6);
    }

    #[test]
    fn operator_is_symmetric_in_m_inner_product() {
        // (M A u)·w = (M A w)·u since K is symmetric
        let (_, op) = small_op(3);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 83 % 17) as f64) / 17.0 - 0.5)
            .collect();
        let w: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 13) as f64) / 13.0 - 0.5)
            .collect();
        let mut au = vec![0.0; n];
        let mut aw = vec![0.0; n];
        op.apply(&u, &mut au);
        op.apply(&w, &mut aw);
        let lhs: f64 = (0..n).map(|i| op.mass[i] * au[i] * w[i]).sum();
        let rhs: f64 = (0..n).map(|i| op.mass[i] * aw[i] * u[i]).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn operator_is_positive_semidefinite() {
        let (_, op) = small_op(2);
        let n = op.dofmap.n_nodes();
        for seed in 0..5u64 {
            let u: Vec<f64> = (0..n)
                .map(|i| {
                    (((i as u64)
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(seed)
                        >> 33) as f64
                        / 2.0_f64.powi(31))
                        - 0.5
                })
                .collect();
            let mut au = vec![0.0; n];
            op.apply(&u, &mut au);
            let q: f64 = (0..n).map(|i| op.mass[i] * au[i] * u[i]).sum();
            assert!(q > -1e-10, "uᵀKu = {q}");
        }
    }

    #[test]
    fn masked_sum_equals_full_apply() {
        use lts_core::LtsSetup;
        use lts_mesh::Levels;
        let mut m = HexMesh::uniform(4, 2, 2, 1.0, 1.0);
        m.paint_box((3, 4), (0, 2), (0, 2), 2.0, 1.0);
        let lv = Levels::assign(&m, 0.5, 4);
        let op = AcousticOperator::new(&m, 3);
        let setup = LtsSetup::new(&op, &lv.elem_level);
        let n = op.dofmap.n_nodes();
        let u: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
        let mut full = vec![0.0; n];
        op.apply(&u, &mut full);
        let mut sum = vec![0.0; n];
        for k in 0..setup.n_levels {
            op.apply_masked(&u, &mut sum, &setup.elems[k], &setup.dof_level, k as u8);
        }
        for i in 0..n {
            assert!(
                (full[i] - sum[i]).abs() < 1e-11 * (1.0 + full[i].abs()),
                "dof {i}: {} vs {}",
                full[i],
                sum[i]
            );
        }
    }

    #[test]
    fn eigenmode_residual_shrinks_with_order() {
        // u = cos(πx/L) is an approximate eigenfunction with eigenvalue
        // (π/L)²c²; the SEM residual must fall rapidly with order.
        let mut prev = f64::MAX;
        for order in [2usize, 4, 6] {
            let m = HexMesh::uniform(3, 1, 1, 1.0, 1.0);
            let op = AcousticOperator::new(&m, order);
            let b = GllBasis::new(order);
            let d = &op.dofmap;
            let l = 3.0;
            let kx = std::f64::consts::PI / l;
            let mut px = Vec::new();
            for e in 0..3 {
                for (a, &xi) in b.points.iter().enumerate() {
                    if e > 0 && a == 0 {
                        continue;
                    }
                    px.push(e as f64 + 0.5 * (xi + 1.0));
                }
            }
            let n = d.n_nodes();
            let mut u = vec![0.0; n];
            for iz in 0..d.gz {
                for iy in 0..d.gy {
                    for ix in 0..d.gx {
                        u[d.global_node(ix, iy, iz) as usize] = (kx * px[ix]).cos();
                    }
                }
            }
            let mut au = vec![0.0; n];
            op.apply(&u, &mut au);
            let resid: f64 = (0..n)
                .map(|i| (au[i] - kx * kx * u[i]).abs())
                .fold(0.0, f64::max);
            assert!(resid < prev, "order {order}: residual {resid} vs {prev}");
            prev = resid;
        }
        assert!(prev < 1e-6, "order-6 residual {prev}");
    }
}
