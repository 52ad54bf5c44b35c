//! The two `unsafe` primitives of the threaded executor, audited here and
//! nowhere else:
//!
//! * [`DisjointOut`] — a lifetime-carrying shared view of a slice whose
//!   writers promise index-disjointness;
//! * [`erase_job`] — the lifetime erasure that lets a borrowed job run on
//!   the persistent workers of a [`crate::pool::WorkerPool`].
//!
//! Everything `unsafe` in `lts-sem` funnels through these two so the
//! soundness arguments live in exactly one place. The invariant
//! [`DisjointOut`] encodes — *concurrent claimants never touch the same
//! index between two barriers* — is discharged structurally:
//!
//! * in the coloured scatter, by the colouring: within one colour of a
//!   [`crate::compiled::CompiledGather`] no two elements share a scatter
//!   target (verified by [`crate::verify::conflict_free`], re-checked by a
//!   `debug_assert!` at every compile, model-checked across interleavings by
//!   `tests/loom_model.rs`, and auditable offline via the `lts-check`
//!   binary);
//! * in the per-thread scratch hand-out and the LTS vector loops, by
//!   construction: each participant claims a sub-range
//!   ([`DisjointOut::claim_range`]) and the ranges are disjoint by
//!   arithmetic, whatever the input.
//!
//! Safe alternatives considered and rejected:
//! * `&[Cell<f64>]` via `Cell::as_slice_of_cells` — `Cell` is not `Sync`,
//!   so it cannot cross the thread boundary.
//! * `&[AtomicU64]` — would change the generated code on the hottest loop
//!   of the whole system and forfeit bitwise identity guarantees.
//! * per-thread private buffers merged afterwards — changes the memory
//!   traffic the paper's performance model is calibrated against.
//!
//! Unlike a raw `(*mut T, usize)` pair, [`DisjointOut`] carries the lifetime
//! of the borrowed slice, so a claimed view can never outlive the buffer it
//! aliases.

use std::marker::PhantomData;

/// A `Sync` view over a `&'a mut [T]` that hands out aliasing `&mut`
/// slices to cooperating threads which promise disjoint index access.
pub(crate) struct DisjointOut<'a, T> {
    ptr: *mut T,
    len: usize,
    /// Ties the view to the original mutable borrow: while a `DisjointOut`
    /// exists the caller cannot touch the slice through any other path.
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: sharing `DisjointOut` across threads only shares the *capability*
// to call `claim`/`claim_range`; actual aliased access is governed by their
// contract (disjoint index sets between barriers). The wrapped pointer
// originates from an exclusive `&mut [T]` borrow held for the view's
// lifetime, so no third party can observe the writes mid-flight, and
// `T: Send` lets each element be mutated from whichever thread claims it.
unsafe impl<T: Send> Sync for DisjointOut<'_, T> {}

impl<'a, T> DisjointOut<'a, T> {
    /// Wrap an exclusively borrowed slice. The borrow is held for `'a`, so
    /// all access until then goes through the claim methods.
    pub(crate) fn new(out: &'a mut [T]) -> Self {
        DisjointOut {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _borrow: PhantomData,
        }
    }

    /// Reborrow the full slice.
    ///
    /// # Safety
    ///
    /// Callers on distinct threads must write disjoint index sets between
    /// two consecutive synchronisation points (the colour barrier in
    /// [`crate::parallel::par_colored`]). In the colored executor this holds
    /// because (a) threads take disjoint position ranges of the compiled
    /// order and (b) same-colour elements share no scatter targets — the
    /// invariant `lts-check` verifies and `GatherCache::get_or_build`
    /// re-asserts in debug builds.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn claim(&self) -> &mut [T] {
        // SAFETY: `ptr`/`len` come from a live `&'a mut [T]` (see `new`);
        // the aliasing produced by concurrent `claim`s is harmless under the
        // caller contract above (disjoint index sets between barriers).
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Reborrow the sub-slice `lo..hi` only. Panics (before any aliasing
    /// is created) if the range is reversed or out of bounds.
    ///
    /// # Safety
    ///
    /// Ranges claimed concurrently (between two synchronisation points)
    /// must not overlap. Unlike [`Self::claim`], non-overlapping claims
    /// produce non-overlapping `&mut` slices, so no two live references
    /// ever cover the same element.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn claim_range(&self, lo: usize, hi: usize) -> &mut [T] {
        // lint: allow(no-panic) — this bounds check is what makes the claim sound
        assert!(
            lo <= hi && hi <= self.len,
            "claim {lo}..{hi} of {}",
            self.len
        );
        // SAFETY: `lo ≤ hi ≤ len` was just checked, so `ptr + lo` and the
        // `hi − lo` elements after it lie inside the live `&'a mut [T]` the
        // view was built from; the caller contract keeps concurrent claims
        // disjoint.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

/// A pool job: called once per participant with its thread index.
pub(crate) type Job<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// Erase the lifetime of a borrowed job so it can be published to the
/// pool's `'static` worker threads.
///
/// # Safety
///
/// The returned reference must not be called, or kept anywhere it could be
/// called, after `'a` ends. [`crate::pool::WorkerPool::broadcast`] is the
/// only caller and discharges this: it publishes the job, runs its own
/// share, then blocks until every worker has checked out of the job — on
/// the unwinding path too, since both its own share and each worker's run
/// under `catch_unwind` — and clears the published slot before it returns.
/// Workers copy the job out of the slot only while it is published and drop
/// their copy before they check out.
pub(crate) unsafe fn erase_job<'a>(job: Job<'a>) -> Job<'static> {
    // SAFETY: a fat reference's layout does not depend on its lifetimes;
    // the caller contract above bounds every use of the result to `'a`.
    unsafe { std::mem::transmute::<Job<'a>, Job<'static>>(job) }
}
