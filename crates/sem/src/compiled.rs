//! Level-compiled gather lists: the `dof_level == level` branch of a masked
//! product, baked once per `(level, element list)` into flat index/mask
//! tables, ordered colour-major by a greedy conflict-free colouring.
//!
//! A compiled entry lets the inner sub-step loops of LTS-Newmark run
//! branch-free (`loc = u[idx] * mask` with `mask ∈ {0, 1}`) and gives the
//! threaded executor its race-freedom invariant for free: within one colour
//! no two elements share a scatter target, so any interleaving of a colour's
//! elements produces bitwise-identical sums. The *serial* path walks the same
//! colour-major order, which is what makes the threaded product bitwise equal
//! to the serial one.
//!
//! Entries live in a [`GatherCache`] stashed in the stepper's
//! [`lts_core::Workspace`], so each `(level, element set)` pair is compiled
//! exactly once per run.

use crate::gll::GllBasis;
use crate::parallel::ElementColoring;
use crate::pool::WorkerPool;
use crate::simd::{
    batch_elastic_stiffness, batch_scalar_stiffness, AcousticLanes, ElasticLanes, KernelVariant,
};

/// Sentinel `level` for the unmasked full-mesh product.
pub(crate) const FULL_LEVEL: u16 = u16::MAX;

/// Emits the flat `idx`/`mask` tables for a colour-major element order.
pub(crate) type FillFn<'a> = &'a mut dyn FnMut(&[u32], &mut Vec<u32>, &mut Vec<f64>);

/// One compiled `(level, element list)` entry.
pub(crate) struct CompiledGather {
    level: u16,
    /// The element list this entry was compiled for (cache key).
    key: Vec<u32>,
    /// Element ids in colour-major order.
    pub(crate) order: Vec<u32>,
    /// Prefix offsets into `order`, one span per colour (`n_colours + 1`).
    pub(crate) color_off: Vec<u32>,
    /// Per ordered element: its `npe` scatter-target ids (global nodes or
    /// local DOFs, whatever the operator gathers from).
    pub(crate) idx: Vec<u32>,
    /// Multiplicative level masks (1.0 / 0.0), aligned with the gathered
    /// values; empty for the unmasked full product.
    pub(crate) mask: Vec<f64>,
    /// SIMD batching plan for the active [`KernelVariant`]; `None` on the
    /// scalar variant (lanes = 1). Rebuilt by [`GatherCache::ensure_plan`]
    /// when the active lane width changes.
    pub(crate) simd: Option<SimdPlan>,
}

/// Derived structure-of-arrays view of a [`CompiledGather`] for one SIMD
/// lane width: the colour-major element order chopped into *units* of up to
/// `lanes` elements, with per-unit transposed gather tables so node `q` of
/// all lanes is one contiguous `lanes`-wide run (`tidx[toff + q·lanes + l]`).
/// Units never straddle a colour boundary, so the within-colour
/// conflict-freedom invariant carries over to whole units and both the
/// serial and threaded walks keep the colour-phase accumulation order —
/// which is what keeps the batched product bitwise equal to the scalar one.
pub(crate) struct SimdPlan {
    /// The variant the plan was transposed for.
    pub(crate) variant: KernelVariant,
    /// `variant.lanes()`, cached.
    pub(crate) lanes: usize,
    /// Prefix offsets into the unit arrays, one span per colour.
    pub(crate) unit_off: Vec<u32>,
    /// First position (into `CompiledGather::order`) of each unit.
    pub(crate) unit_base: Vec<u32>,
    /// Elements in each unit (`lanes` for full units, less for tails).
    /// Tail units are *padded* to the full lane width in the transposed
    /// tables by replicating their last element, so every unit runs the
    /// batched kernel; only the first `unit_len` lanes are scattered (a
    /// padded lane's result is discarded, and vertical-only arithmetic
    /// means it cannot perturb the valid lanes).
    pub(crate) unit_len: Vec<u32>,
    /// Offset into `tidx` (node-lane entries) of each unit.
    pub(crate) unit_toff: Vec<u32>,
    /// Transposed scatter-target ids of the units (lane-padded).
    pub(crate) tidx: Vec<u32>,
    /// Transposed masks (`mask_stride` per node-lane entry, offset
    /// `toff · mask_stride`); empty when the entry is unmasked.
    pub(crate) tmask: Vec<f64>,
}

impl SimdPlan {
    fn build(
        color_off: &[u32],
        idx: &[u32],
        mask: &[f64],
        npe: usize,
        mask_stride: usize,
        variant: KernelVariant,
    ) -> SimdPlan {
        let lanes = variant.lanes();
        let mut p = SimdPlan {
            variant,
            lanes,
            unit_off: vec![0],
            unit_base: Vec::new(),
            unit_len: Vec::new(),
            unit_toff: Vec::new(),
            tidx: Vec::new(),
            tmask: Vec::new(),
        };
        for w in color_off.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let mut pos = lo;
            while pos < hi {
                let len = lanes.min(hi - pos);
                p.unit_base.push(pos as u32);
                p.unit_len.push(len as u32);
                p.unit_toff.push(p.tidx.len() as u32);
                // lanes ≥ len replicate the unit's last element (valid
                // gather addresses, results never scattered)
                for q in 0..npe {
                    for l in 0..lanes {
                        p.tidx.push(idx[(pos + l.min(len - 1)) * npe + q]);
                    }
                }
                if !mask.is_empty() {
                    for q in 0..npe {
                        for l in 0..lanes {
                            let nb = ((pos + l.min(len - 1)) * npe + q) * mask_stride;
                            p.tmask.extend_from_slice(&mask[nb..nb + mask_stride]);
                        }
                    }
                }
                pos += len;
            }
            p.unit_off.push(p.unit_base.len() as u32);
        }
        p
    }
}

/// Per-run cache of compiled gather lists (lives in a `Workspace`).
#[derive(Default)]
pub(crate) struct GatherCache {
    entries: Vec<CompiledGather>,
}

impl GatherCache {
    pub(crate) fn entry(&self, i: usize) -> &CompiledGather {
        &self.entries[i]
    }

    /// Look up an existing entry. The full-mesh entry is unique per
    /// operator, so `FULL_LEVEL` matches regardless of `elems`.
    pub(crate) fn find(&self, level: u16, elems: &[u32]) -> Option<usize> {
        self.entries
            .iter()
            .position(|en| en.level == level && (level == FULL_LEVEL || en.key == elems))
    }

    /// Fetch or compile the entry for `(level, elems)`.
    ///
    /// `targets_of` yields an element's scatter targets (drives the greedy
    /// colouring); `fill` receives the colour-major `order` and emits the
    /// flat `idx`/`mask` tables.
    pub(crate) fn get_or_build(
        &mut self,
        level: u16,
        elems: &[u32],
        n_targets: usize,
        targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
        fill: FillFn,
    ) -> usize {
        if let Some(i) = self.find(level, elems) {
            return i;
        }
        let coloring = ElementColoring::greedy(elems, n_targets, targets_of);
        // lts-check hook: re-assert, at every compile, the exact invariants
        // the threaded scatter relies on — conflict-freedom within each
        // colour and a one-to-one cover of the requested element list.
        #[cfg(debug_assertions)]
        {
            let conflict = crate::verify::conflict_free(&coloring.classes, n_targets, targets_of);
            debug_assert!(
                conflict.is_ok(),
                "compiled colouring for level {level}: {}",
                conflict.unwrap_err()
            );
            let cover = crate::verify::complete_cover(&coloring.classes, elems);
            debug_assert!(
                cover.is_ok(),
                "compiled colouring for level {level}: {}",
                cover.unwrap_err()
            );
        }
        let (order, color_off) = coloring.flatten();
        let mut idx = Vec::new();
        let mut mask = Vec::new();
        fill(&order, &mut idx, &mut mask);
        self.entries.push(CompiledGather {
            level,
            key: elems.to_vec(),
            order,
            color_off,
            idx,
            mask,
            simd: None,
        });
        self.entries.len() - 1
    }

    /// Make entry `i`'s [`SimdPlan`] match `variant`: build (or rebuild) the
    /// transposed tables when a multi-lane variant is active, drop them when
    /// the scalar variant is. Called by the operators on every apply — a
    /// no-op once the plan matches, so the cost is one comparison per apply.
    pub(crate) fn ensure_plan(
        &mut self,
        i: usize,
        npe: usize,
        mask_stride: usize,
        variant: KernelVariant,
    ) {
        let en = &mut self.entries[i];
        let lanes = variant.lanes();
        if lanes <= 1 {
            en.simd = None;
            return;
        }
        if en.simd.as_ref().is_some_and(|p| p.variant == variant) {
            return;
        }
        en.simd = Some(SimdPlan::build(
            &en.color_off,
            &en.idx,
            &en.mask,
            npe,
            mask_stride,
            variant,
        ));
    }
}

/// Reusable element scratch for the scalar kernel, plus the SoA batch
/// buffers of the SIMD path (`v*`, `npe · lanes` doubles, lane-minor).
pub(crate) struct ScalarScratch {
    pub(crate) loc: Vec<f64>,
    pub(crate) tmp: Vec<f64>,
    pub(crate) der: Vec<f64>,
    pub(crate) vloc: Vec<f64>,
    pub(crate) vtmp: Vec<f64>,
    pub(crate) vder: Vec<f64>,
}

impl ScalarScratch {
    pub(crate) fn new(npe: usize) -> Self {
        ScalarScratch {
            loc: vec![0.0; npe],
            tmp: vec![0.0; npe],
            der: vec![0.0; npe],
            vloc: Vec::new(),
            vtmp: Vec::new(),
            vder: Vec::new(),
        }
    }

    /// Size the batch buffers for `lanes`-wide units (outside the hot loop).
    pub(crate) fn ensure_lanes(&mut self, npe: usize, lanes: usize) {
        let n = npe * lanes;
        if lanes > 1 && self.vloc.len() < n {
            self.vloc.resize(n, 0.0);
            self.vtmp.resize(n, 0.0);
            self.vder.resize(n, 0.0);
        }
    }
}

/// Workspace state of a scalar (acoustic) operator: compiled entries plus
/// serial and per-thread element scratch.
pub(crate) struct ScalarWs {
    pub(crate) cache: GatherCache,
    pub(crate) serial: ScalarScratch,
    pub(crate) par: Vec<ScalarScratch>,
}

impl ScalarWs {
    pub(crate) fn new(npe: usize) -> Self {
        ScalarWs {
            cache: GatherCache::default(),
            serial: ScalarScratch::new(npe),
            par: Vec::new(),
        }
    }
}

/// Workspace state of an elastic operator.
pub(crate) struct ElasticScratchWs {
    pub(crate) cache: GatherCache,
    pub(crate) serial: crate::elastic::Scratch,
    pub(crate) par: Vec<crate::elastic::Scratch>,
}

impl ElasticScratchWs {
    pub(crate) fn new(npe: usize) -> Self {
        ElasticScratchWs {
            cache: GatherCache::default(),
            serial: crate::elastic::Scratch::new(npe),
            par: Vec::new(),
        }
    }
}

/// The shared acoustic execution engine: one scalar per-element path and one
/// SIMD unit path over a compiled entry, parameterized on a geometry lookup
/// `e → (hx, hy, hz, μ)` so the structured and unstructured operators drive
/// the same code.
pub(crate) struct AcousticEngine<'a, G: Fn(u32) -> (f64, f64, f64, f64) + Sync> {
    pub(crate) basis: &'a GllBasis,
    pub(crate) inv_mass: &'a [f64],
    pub(crate) npe: usize,
    pub(crate) geom: G,
}

impl<G: Fn(u32) -> (f64, f64, f64, f64) + Sync> AcousticEngine<'_, G> {
    /// Process position `pos` of a compiled entry: branch-free gather,
    /// stiffness kernel, multiply-by-`M⁻¹` scatter.
    // lint: hot-path
    #[inline]
    pub(crate) fn elem(
        &self,
        entry: &CompiledGather,
        pos: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let base = pos * npe;
        let ids = &entry.idx[base..base + npe];
        if entry.mask.is_empty() {
            for li in 0..npe {
                sc.loc[li] = u[ids[li] as usize];
            }
        } else {
            let mk = &entry.mask[base..base + npe];
            for li in 0..npe {
                sc.loc[li] = u[ids[li] as usize] * mk[li];
            }
        }
        let (hx, hy, hz, mu) = (self.geom)(entry.order[pos]);
        crate::kernel::scalar_stiffness(
            self.basis,
            hx,
            hy,
            hz,
            mu,
            &sc.loc,
            &mut sc.tmp,
            &mut sc.der,
        );
        for li in 0..npe {
            let g = ids[li] as usize;
            out[g] += sc.tmp[li] * self.inv_mass[g];
        }
    }

    /// Process unit `unit` of a plan: SoA gather through the transposed
    /// (lane-padded) tables, one batched kernel call, SoA scatter of the
    /// first `unit_len` lanes. Any variant the build lacks a kernel for
    /// falls back to [`Self::elem`].
    // lint: hot-path
    fn unit(
        &self,
        entry: &CompiledGather,
        plan: &SimdPlan,
        unit: usize,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        let base = plan.unit_base[unit] as usize;
        let len = plan.unit_len[unit] as usize;
        let w = plan.lanes;
        let npe = self.npe;
        let toff = plan.unit_toff[unit] as usize;
        let ids = &plan.tidx[toff..toff + npe * w];
        if entry.mask.is_empty() {
            for (i, &id) in ids.iter().enumerate() {
                sc.vloc[i] = u[id as usize];
            }
        } else {
            let mk = &plan.tmask[toff..toff + npe * w];
            for (i, &id) in ids.iter().enumerate() {
                sc.vloc[i] = u[id as usize] * mk[i];
            }
        }
        // per-lane coefficients, with the scalar kernel's exact expressions
        // (padded lanes reuse the last element's geometry)
        let mut cf = AcousticLanes::default();
        for l in 0..w {
            let (hx, hy, hz, mu) = (self.geom)(entry.order[base + l.min(len - 1)]);
            let jac = 0.125 * hx * hy * hz;
            cf.cx[l] = mu * jac * (2.0 / hx) * (2.0 / hx);
            cf.cy[l] = mu * jac * (2.0 / hy) * (2.0 / hy);
            cf.cz[l] = mu * jac * (2.0 / hz) * (2.0 / hz);
        }
        if !batch_scalar_stiffness(
            plan.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &sc.vloc,
            &mut sc.vtmp,
            &mut sc.vder,
        ) {
            for pos in base..base + len {
                self.elem(entry, pos, u, sc, out);
            }
            return;
        }
        if len == w {
            for (i, &id) in ids.iter().enumerate() {
                let g = id as usize;
                out[g] += sc.vtmp[i] * self.inv_mass[g];
            }
        } else {
            // padded tail: scatter only the valid lanes
            for q in 0..npe {
                let row = q * w;
                for l in 0..len {
                    let g = ids[row + l] as usize;
                    out[g] += sc.vtmp[row + l] * self.inv_mass[g];
                }
            }
        }
    }

    /// Serial walk of an entry, batch-wise when a plan is attached. Both
    /// walks visit colours in order and touch every scatter target once per
    /// colour, so they produce bitwise-identical sums.
    pub(crate) fn run_serial(
        &self,
        entry: &CompiledGather,
        u: &[f64],
        sc: &mut ScalarScratch,
        out: &mut [f64],
    ) {
        match entry.simd.as_ref() {
            Some(plan) => {
                for unit in 0..plan.unit_base.len() {
                    self.unit(entry, plan, unit, u, sc, out);
                }
            }
            None => {
                for pos in 0..entry.order.len() {
                    self.elem(entry, pos, u, sc, out);
                }
            }
        }
    }

    /// Colour-phased threaded walk; with a plan the work items handed to
    /// [`crate::parallel::par_colored`] are whole units.
    pub(crate) fn run_threads(
        &self,
        entry: &CompiledGather,
        u: &[f64],
        pool: &WorkerPool,
        par: &mut [ScalarScratch],
        out: &mut [f64],
    ) {
        match entry.simd.as_ref() {
            Some(plan) => {
                crate::parallel::par_colored(pool, out, &plan.unit_off, par, |unit, sc, o| {
                    self.unit(entry, plan, unit, u, sc, o);
                });
            }
            None => {
                crate::parallel::par_colored(pool, out, &entry.color_off, par, |pos, sc, o| {
                    self.elem(entry, pos, u, sc, o);
                });
            }
        }
    }
}

/// The shared elastic execution engine (`e → (hx, hy, hz, λ, μ)`), mirroring
/// [`AcousticEngine`] for the 3-component operator. `idx` entries are *node*
/// ids; DOF `3·node + comp` addresses `u`/`out`/`inv_mass`.
pub(crate) struct ElasticEngine<'a, G: Fn(u32) -> (f64, f64, f64, f64, f64) + Sync> {
    pub(crate) basis: &'a GllBasis,
    pub(crate) inv_mass: &'a [f64],
    pub(crate) npe: usize,
    pub(crate) geom: G,
}

impl<G: Fn(u32) -> (f64, f64, f64, f64, f64) + Sync> ElasticEngine<'_, G> {
    /// Process position `pos` of a compiled entry.
    // lint: hot-path
    #[inline]
    pub(crate) fn elem(
        &self,
        entry: &CompiledGather,
        pos: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let npe = self.npe;
        let base = pos * npe;
        let ids = &entry.idx[base..base + npe];
        if entry.mask.is_empty() {
            for li in 0..npe {
                let gn = ids[li] as usize;
                for comp in 0..3 {
                    s.u[comp][li] = u[3 * gn + comp];
                }
            }
        } else {
            let mk = &entry.mask[3 * base..3 * (base + npe)];
            for li in 0..npe {
                let gn = ids[li] as usize;
                for comp in 0..3 {
                    s.u[comp][li] = u[3 * gn + comp] * mk[3 * li + comp];
                }
            }
        }
        let (hx, hy, hz, lam, mu) = (self.geom)(entry.order[pos]);
        crate::elastic::elastic_stiffness(self.basis, hx, hy, hz, lam, mu, s);
        for li in 0..npe {
            let gn = ids[li] as usize;
            for comp in 0..3 {
                let dof = 3 * gn + comp;
                out[dof] += s.out[comp][li] * self.inv_mass[dof];
            }
        }
    }

    /// Process unit `unit` of a plan (SoA gather through the lane-padded
    /// tables → batched kernel → SoA scatter of the first `unit_len`
    /// lanes), falling back to [`Self::elem`] on variants without a kernel.
    // lint: hot-path
    fn unit(
        &self,
        entry: &CompiledGather,
        plan: &SimdPlan,
        unit: usize,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        let base = plan.unit_base[unit] as usize;
        let len = plan.unit_len[unit] as usize;
        let w = plan.lanes;
        let npe = self.npe;
        let n = npe * w;
        let toff = plan.unit_toff[unit] as usize;
        let ids = &plan.tidx[toff..toff + n];
        if entry.mask.is_empty() {
            for (i, &id) in ids.iter().enumerate() {
                let gn = id as usize;
                s.vu[i] = u[3 * gn];
                s.vu[n + i] = u[3 * gn + 1];
                s.vu[2 * n + i] = u[3 * gn + 2];
            }
        } else {
            let mk = &plan.tmask[3 * toff..3 * (toff + n)];
            for (i, &id) in ids.iter().enumerate() {
                let gn = id as usize;
                s.vu[i] = u[3 * gn] * mk[3 * i];
                s.vu[n + i] = u[3 * gn + 1] * mk[3 * i + 1];
                s.vu[2 * n + i] = u[3 * gn + 2] * mk[3 * i + 2];
            }
        }
        let mut cf = ElasticLanes::default();
        for l in 0..w {
            let (hx, hy, hz, lam, mu) = (self.geom)(entry.order[base + l.min(len - 1)]);
            cf.jac[l] = 0.125 * hx * hy * hz;
            cf.g[0][l] = 2.0 / hx;
            cf.g[1][l] = 2.0 / hy;
            cf.g[2][l] = 2.0 / hz;
            cf.lam[l] = lam;
            cf.mu[l] = mu;
            cf.tmu[l] = 2.0 * mu;
        }
        if !batch_elastic_stiffness(
            plan.variant,
            self.basis.n_points(),
            &self.basis.d,
            &self.basis.wgll3,
            &cf,
            &s.vu,
            &mut s.vgrad,
            &mut s.vflux,
            &mut s.vout,
        ) {
            for pos in base..base + len {
                self.elem(entry, pos, u, s, out);
            }
            return;
        }
        if len == w {
            for (i, &id) in ids.iter().enumerate() {
                let gn = id as usize;
                for comp in 0..3 {
                    let dof = 3 * gn + comp;
                    out[dof] += s.vout[comp * n + i] * self.inv_mass[dof];
                }
            }
        } else {
            // padded tail: scatter only the valid lanes
            for q in 0..npe {
                let row = q * w;
                for l in 0..len {
                    let gn = ids[row + l] as usize;
                    for comp in 0..3 {
                        let dof = 3 * gn + comp;
                        out[dof] += s.vout[comp * n + row + l] * self.inv_mass[dof];
                    }
                }
            }
        }
    }

    /// Serial walk of an entry (see [`AcousticEngine::run_serial`]).
    pub(crate) fn run_serial(
        &self,
        entry: &CompiledGather,
        u: &[f64],
        s: &mut crate::elastic::Scratch,
        out: &mut [f64],
    ) {
        match entry.simd.as_ref() {
            Some(plan) => {
                for unit in 0..plan.unit_base.len() {
                    self.unit(entry, plan, unit, u, s, out);
                }
            }
            None => {
                for pos in 0..entry.order.len() {
                    self.elem(entry, pos, u, s, out);
                }
            }
        }
    }

    /// Colour-phased threaded walk (see [`AcousticEngine::run_threads`]).
    pub(crate) fn run_threads(
        &self,
        entry: &CompiledGather,
        u: &[f64],
        pool: &WorkerPool,
        par: &mut [crate::elastic::Scratch],
        out: &mut [f64],
    ) {
        match entry.simd.as_ref() {
            Some(plan) => {
                crate::parallel::par_colored(pool, out, &plan.unit_off, par, |unit, s, o| {
                    self.unit(entry, plan, unit, u, s, o);
                });
            }
            None => {
                crate::parallel::par_colored(pool, out, &entry.color_off, par, |pos, s, o| {
                    self.elem(entry, pos, u, s, o);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_compiles_once_per_level_and_list() {
        // toy adjacency: element e targets {e, e+1} (a chain)
        let mut targets = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e);
            out.push(e + 1);
        };
        let mut builds = 0usize;
        let mut cache = GatherCache::default();
        let elems: Vec<u32> = (0..6).collect();
        for _ in 0..3 {
            let mut fill = |order: &[u32], idx: &mut Vec<u32>, _mask: &mut Vec<f64>| {
                builds += 1;
                idx.extend_from_slice(order);
            };
            let i = cache.get_or_build(0, &elems, 7, &mut targets, &mut fill);
            assert_eq!(i, 0);
        }
        assert_eq!(builds, 1, "entry must be compiled exactly once");
        // a different list is a different entry
        let sub: Vec<u32> = vec![1, 3];
        let mut fill = |order: &[u32], idx: &mut Vec<u32>, _mask: &mut Vec<f64>| {
            idx.extend_from_slice(order);
        };
        let j = cache.get_or_build(0, &sub, 7, &mut targets, &mut fill);
        assert_eq!(j, 1);
        // the full-mesh sentinel matches without a key comparison
        let k = cache.get_or_build(FULL_LEVEL, &elems, 7, &mut targets, &mut fill);
        assert_eq!(cache.find(FULL_LEVEL, &[]), Some(k));
    }

    #[test]
    fn simd_plan_units_respect_colours_and_transpose() {
        let npe = 2usize;
        // two colours: 5 + 3 elements; idx[pos] = [10·pos, 10·pos + 1]
        let color_off = vec![0u32, 5, 8];
        let idx: Vec<u32> = (0..8u32).flat_map(|p| [10 * p, 10 * p + 1]).collect();
        let mask: Vec<f64> = (0..8)
            .flat_map(|p| [1.0, if p % 2 == 0 { 1.0 } else { 0.0 }])
            .collect();
        let plan = SimdPlan::build(&color_off, &idx, &mask, npe, 1, KernelVariant::Avx2);
        assert_eq!(plan.lanes, 4);
        // colour 0 → one full unit + one 1-element tail; colour 1 → one tail
        assert_eq!(plan.unit_off, vec![0, 2, 3]);
        assert_eq!(plan.unit_base, vec![0, 4, 5]);
        assert_eq!(plan.unit_len, vec![4, 1, 3]);
        assert_eq!(plan.unit_toff, vec![0, 8, 16]);
        // transposed: node q of lanes 0..4, contiguous; tail units pad the
        // missing lanes with their last element (positions 4 and 7)
        assert_eq!(
            plan.tidx,
            vec![
                0, 10, 20, 30, 1, 11, 21, 31, // full unit, positions 0-3
                40, 40, 40, 40, 41, 41, 41, 41, // 1-element tail, padded
                50, 60, 70, 70, 51, 61, 71, 71, // 3-element tail, padded
            ]
        );
        assert_eq!(
            plan.tmask,
            vec![
                1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, //
                1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, //
                1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0,
            ]
        );
        // scalar variant → no plan
        let mut cache = GatherCache::default();
        cache.entries.push(CompiledGather {
            level: 0,
            key: vec![],
            order: (0..8).collect(),
            color_off,
            idx,
            mask,
            simd: None,
        });
        cache.ensure_plan(0, npe, 1, KernelVariant::Avx2);
        assert!(cache.entry(0).simd.is_some());
        cache.ensure_plan(0, npe, 1, KernelVariant::Scalar);
        assert!(cache.entry(0).simd.is_none());
    }

    #[test]
    fn compiled_order_is_colour_major_and_complete() {
        let mut targets = |e: u32, out: &mut Vec<u32>| {
            out.clear();
            out.push(e / 2); // pairs (0,1), (2,3), … conflict
        };
        let elems: Vec<u32> = (0..8).collect();
        let mut cache = GatherCache::default();
        let mut fill = |_: &[u32], _: &mut Vec<u32>, _: &mut Vec<f64>| {};
        let i = cache.get_or_build(0, &elems, 4, &mut targets, &mut fill);
        let en = cache.entry(i);
        assert_eq!(en.color_off, vec![0, 4, 8]);
        assert_eq!(en.order, vec![0, 2, 4, 6, 1, 3, 5, 7]);
        let mut all: Vec<u32> = en.order.clone();
        all.sort_unstable();
        assert_eq!(all, elems);
    }
}
