//! Shared-memory parallel operator application via element colouring.
//!
//! A greedy colouring splits an element list into classes whose members
//! never share a scatter target, so same-colour stiffness scatters touch
//! disjoint DOFs and can run on worker threads without synchronization.
//! Colours are processed one after another — the result is deterministic
//! (within a colour every DOF receives contributions from exactly one
//! element). The compiled gather plans (`compiled.rs`) colour every masked
//! element list this way and drive `par_colored` on the rank's persistent
//! [`WorkerPool`] of `threads_per_rank` participants.
//!
//! This is the per-node parallelism of the paper's platform (8 cores per
//! node under MPI); combined with `lts-runtime` it gives the familiar
//! MPI × threads hybrid.
//!
//! The executor's `unsafe` is the [`DisjointOut`] primitive plus the pool's
//! job lifetime erasure (see `disjoint.rs` for both soundness arguments);
//! single-threaded calls never reach it, as the operators take their serial
//! path without a pool. The colour/barrier protocol itself is model-checked
//! across all interleavings in `tests/loom_model.rs`, which drives the same
//! [`chunk_range`] split used here.

use crate::disjoint::DisjointOut;
use crate::pool::WorkerPool;

/// Element classes that share no scatter target within a class.
#[derive(Debug, Clone)]
pub struct ElementColoring {
    /// `classes[c]` = element ids of colour `c`.
    pub classes: Vec<Vec<u32>>,
}

impl ElementColoring {
    /// Greedy first-fit colouring of an arbitrary element list: walk the
    /// list in order and give each element the smallest colour not yet used
    /// by any element sharing one of its scatter targets. Deterministic —
    /// the classes depend only on the list order and the sharing pattern, so
    /// two operators with the same connectivity (e.g. a structured mesh and
    /// its gather-list re-representation, under any DOF relabelling) colour
    /// identically. Capped at 128 colours (a hex element has ≤ 26 sharing
    /// neighbours, so first-fit never needs more than 27).
    pub fn greedy(
        elems: &[u32],
        n_targets: usize,
        targets_of: &mut dyn FnMut(u32, &mut Vec<u32>),
    ) -> ElementColoring {
        let mut used = vec![0u128; n_targets];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        let mut buf = Vec::new();
        for &e in elems {
            targets_of(e, &mut buf);
            let mut occupied: u128 = 0;
            for &t in &buf {
                occupied |= used[t as usize];
            }
            let c = (!occupied).trailing_zeros() as usize;
            assert!(c < 128, "greedy colouring needs more than 128 colours");
            if c == classes.len() {
                classes.push(Vec::new());
            }
            let bit = 1u128 << c;
            for &t in &buf {
                used[t as usize] |= bit;
            }
            classes[c].push(e);
        }
        ElementColoring { classes }
    }

    /// Flatten into the colour-major `(order, color_off)` representation the
    /// executor consumes: `order` lists all elements colour by colour,
    /// `color_off[c]..color_off[c+1]` is colour `c`'s span.
    pub fn flatten(&self) -> (Vec<u32>, Vec<u32>) {
        let total: usize = self.classes.iter().map(|c| c.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut color_off = Vec::with_capacity(self.classes.len() + 1);
        color_off.push(0u32);
        for class in &self.classes {
            order.extend_from_slice(class);
            color_off.push(order.len() as u32);
        }
        (order, color_off)
    }
}

/// The contiguous position range thread `tid` of `threads` owns within a
/// colour span `lo..hi`: ceil-divided chunks, clamped to the span. Shared
/// with the interleaving model checker (`tests/loom_model.rs`) so the model
/// verifies the exact split the executor runs.
#[doc(hidden)]
pub fn chunk_range(lo: usize, hi: usize, threads: usize, tid: usize) -> (usize, usize) {
    let chunk = (hi - lo).div_ceil(threads);
    let start = (lo + tid * chunk).min(hi);
    let end = (start + chunk).min(hi);
    (start, end)
}

/// Run a colour-major compiled order on the participants of `pool`.
///
/// `f(pos, scratch, out)` processes the element at position `pos` of the
/// compiled order; participant `tid` uses `scratch[tid]` (one slot per
/// participant). Each colour span `color_off[c]..color_off[c+1]` is split
/// into one contiguous chunk per participant ([`chunk_range`]); the pool's
/// barrier separates colours. Within a colour no two elements share a
/// scatter target, and every DOF receives at most one contribution per
/// colour, so the accumulation order per DOF is exactly the colour order —
/// the result is bitwise identical to a serial walk of the same compiled
/// order, at any thread count.
// lint: hot-path
pub(crate) fn par_colored<S: Send>(
    pool: &WorkerPool,
    out: &mut [f64],
    color_off: &[u32],
    scratch: &mut [S],
    f: impl Fn(usize, &mut S, &mut [f64]) + Sync,
) {
    let threads = pool.threads();
    let shared = &DisjointOut::new(out);
    let scratch = &DisjointOut::new(scratch);
    pool.broadcast(&|tid| {
        // SAFETY: each participant claims only its own slot `tid..tid + 1`
        // (bounds-checked, so a short `scratch` panics instead of aliasing)
        let sc = &mut unsafe { scratch.claim_range(tid, tid + 1) }[0];
        for w in color_off.windows(2) {
            let (start, end) = chunk_range(w[0] as usize, w[1] as usize, threads, tid);
            // SAFETY: participants take disjoint position ranges of this
            // colour span and same-colour elements share no scatter
            // targets (the compiled-colouring invariant, re-checked at
            // build time), so concurrent writes through the claimed view
            // never alias until the barrier.
            let out = unsafe { shared.claim() };
            for pos in start..end {
                f(pos, sc, out);
            }
            if !pool.barrier_wait() {
                return; // another participant panicked; the pool re-raises it
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustic::AcousticOperator;
    use lts_mesh::HexMesh;

    #[test]
    fn greedy_coloring_is_conflict_free_and_list_invariant() {
        let mut m = HexMesh::uniform(4, 3, 2, 1.0, 1.0);
        m.paint_box((0, 2), (0, 3), (0, 2), 2.0, 1.0);
        let op = AcousticOperator::new(&m, 2);
        let elems: Vec<u32> = (0..m.n_elems() as u32).collect();
        let mut targets = |e: u32, out: &mut Vec<u32>| op.dofmap.elem_nodes(e, out);
        let coloring = ElementColoring::greedy(&elems, op.dofmap.n_nodes(), &mut targets);
        // conflict-free within every class
        let mut a = Vec::new();
        let mut b = Vec::new();
        for class in &coloring.classes {
            for (i, &e1) in class.iter().enumerate() {
                for &e2 in class.iter().skip(i + 1) {
                    op.dofmap.elem_nodes(e1, &mut a);
                    op.dofmap.elem_nodes(e2, &mut b);
                    assert!(a.iter().all(|d| !b.contains(d)), "{e1} vs {e2}");
                }
            }
        }
        let total: usize = coloring.classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, m.n_elems());
        // relabelling the targets does not change the classes: shift every
        // node id by a constant (same sharing pattern, different labels)
        let nn = op.dofmap.n_nodes();
        let mut shifted = |e: u32, out: &mut Vec<u32>| {
            op.dofmap.elem_nodes(e, out);
            for t in out.iter_mut() {
                *t = nn as u32 - 1 - *t;
            }
        };
        let relabelled = ElementColoring::greedy(&elems, nn, &mut shifted);
        assert_eq!(coloring.classes, relabelled.classes);
    }

    #[test]
    fn par_colored_partitions_every_colour_span() {
        // record which positions each thread count visits; all must see the
        // full range exactly once
        let color_off = [0u32, 5, 5, 12];
        for threads in [1usize, 2, 3, 7] {
            let pool = WorkerPool::new(threads);
            let mut hits = vec![0u32; 12];
            let mut out = vec![0.0; 12];
            let mut scratch = vec![(); threads];
            let cell = std::sync::Mutex::new(&mut hits);
            par_colored(
                &pool,
                &mut out,
                &color_off,
                &mut scratch,
                |pos, _sc, _out| {
                    cell.lock().unwrap()[pos] += 1;
                },
            );
            assert!(hits.iter().all(|&h| h == 1), "{threads} threads: {hits:?}");
        }
    }

    #[test]
    fn chunk_ranges_tile_span_without_overlap() {
        for (lo, hi) in [(0usize, 12usize), (3, 3), (5, 6), (0, 97)] {
            for threads in 1..=9usize {
                let mut seen = vec![0u32; hi];
                for tid in 0..threads {
                    let (s, e) = chunk_range(lo, hi, threads, tid);
                    assert!(lo <= s && s <= e && e <= hi);
                    for p in s..e {
                        seen[p] += 1;
                    }
                }
                for p in lo..hi {
                    assert_eq!(seen[p], 1, "pos {p} for {threads} threads on {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn flatten_is_colour_major() {
        let coloring = ElementColoring {
            classes: vec![vec![4, 2], vec![], vec![1, 3, 0]],
        };
        let (order, color_off) = coloring.flatten();
        assert_eq!(order, vec![4, 2, 1, 3, 0]);
        assert_eq!(color_off, vec![0, 2, 2, 5]);
    }
}
