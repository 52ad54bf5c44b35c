//! One persistent worker pool per rank: the intra-rank threads of the
//! MPI × threads hybrid.
//!
//! A [`WorkerPool`] of `threads` participants spawns `threads − 1` OS
//! threads once, parks them between jobs and joins them on drop. The thread
//! that calls [`WorkerPool::broadcast`] is participant 0, so a job runs on
//! exactly `threads` threads and the caller never idles while its workers
//! compute. Two phases of an LTS step share the pool:
//!
//! * the coloured masked apply ([`crate::parallel::par_colored`]), which
//!   separates colours with the pool's own barrier;
//! * the LTS vector updates of the rank step loop, through
//!   [`for_each_listed`], which splits a sorted DOF list into
//!   [`crate::parallel::chunk_range`] chunks.
//!
//! Waiting — a worker for its next job, the caller for check-out, a
//! participant at the colour barrier — spins briefly, then yields, then
//! parks on a condition variable, so idle workers cost nothing when ranks
//! × threads outnumber the cores. Dispatch does not allocate: a job is a
//! borrowed closure published through a mutex-guarded slot (see
//! [`crate::disjoint::erase_job`] for why that borrow may cross to
//! `'static` threads). A job that panics on any participant poisons the
//! barrier, so no one waits for it, and re-panics on the caller once every
//! worker has checked out.

use crate::disjoint::{erase_job, DisjointOut, Job};
use crate::parallel::chunk_range;
use lts_core::Workspace;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A waiter first busy-polls for [`SPIN_ROUNDS`] `spin_loop` hints (a few
/// microseconds: the serial glue between two jobs of one sub-step), then
/// polls between [`YIELD_ROUNDS`] `yield_now` calls, then parks. Yielding
/// keeps the wake-up latency of spinning when cores are free, and hands the
/// core to the participant being waited for when ranks × threads exceed the
/// cores: with a pure 16k-round spin, the rank-local bitwise sweeps (up to
/// 3 ranks × 3 threads on 2 cores) took 9.5 s instead of 0.7 s, while
/// `trench-p4-threads` (1 × 2) steps at the same speed either way.
const SPIN_ROUNDS: u32 = 1 << 6;
const YIELD_ROUNDS: u32 = 1 << 10;

/// OS threads ever spawned by pools in this process (the runtime's
/// one-pool-per-rank contract is tested against it).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Lock `m`, ignoring poisoning: every critical section in this module
/// only moves plain data, and a panicking job never holds a pool lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poll `done` (spinning, then yielding); `true` once it holds.
fn spin_until(done: impl Fn() -> bool) -> bool {
    for _ in 0..SPIN_ROUNDS {
        if done() {
            return true;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELD_ROUNDS {
        if done() {
            return true;
        }
        std::thread::yield_now();
    }
    done()
}

/// A condition variable that skips the wake-up system call when nobody
/// sleeps on it. `sleepers` only changes with the guarding mutex held, so a
/// notifier holding that mutex reads it exactly.
struct Parking {
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl Parking {
    fn new() -> Parking {
        Parking {
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Wake every sleeper; call with the guarding mutex held, after making
    /// the sleepers' condition true.
    fn notify_all(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Sleep (with `guard` held on entry) until `done()` holds. The
    /// condition is only made true before its notifier takes the same
    /// mutex, so no wake-up is lost.
    fn park_until<'g, T>(
        &self,
        mut guard: MutexGuard<'g, T>,
        done: impl Fn(&T) -> bool,
    ) -> MutexGuard<'g, T> {
        while !done(&guard) {
            self.sleepers.fetch_add(1, Ordering::Relaxed);
            // lint: allow(lock-block) — every waker is an in-process pool
            // participant, and one that panics poisons the barrier and still
            // checks out, so the condition always comes true
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
        guard
    }
}

/// The colour barrier: a sense-counting barrier over the pool's
/// participants that spins, then parks, and can be poisoned.
struct Barrier {
    parties: usize,
    arrived: AtomicUsize,
    /// Bumped (under `lock`) by the last arrival of each phase.
    phase: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    parking: Parking,
}

impl Barrier {
    fn new(parties: usize) -> Barrier {
        Barrier {
            parties,
            arrived: AtomicUsize::new(0),
            phase: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            parking: Parking::new(),
        }
    }

    /// Wait for every participant of the current job. Returns `false` if a
    /// participant panicked: the caller must then abandon the job.
    // lint: hot-path
    #[must_use]
    fn wait(&self) -> bool {
        let phase = self.phase.load(Ordering::Acquire);
        // the AcqRel read-modify-write chain orders every arrival's writes
        // before the last arrival's `phase` release, which each waiter
        // acquires
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            let _g = lock(&self.lock);
            self.phase.store(phase.wrapping_add(1), Ordering::Release);
            self.parking.notify_all();
            return !self.poisoned.load(Ordering::Acquire);
        }
        let released =
            || self.phase.load(Ordering::Acquire) != phase || self.poisoned.load(Ordering::Acquire);
        if !spin_until(released) {
            drop(self.parking.park_until(lock(&self.lock), |_| released()));
        }
        !self.poisoned.load(Ordering::Acquire)
    }

    /// Release every waiter for good (until [`Self::reset`]).
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _g = lock(&self.lock);
        self.parking.notify_all();
    }

    /// Arm the barrier for a new job (no participant is inside it).
    fn reset(&self) {
        self.arrived.store(0, Ordering::Relaxed);
        self.poisoned.store(false, Ordering::Relaxed);
    }
}

/// The published job and its generation.
struct Slot {
    generation: u64,
    job: Option<Job<'static>>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Mirror of `slot.generation`, polled without the lock while spinning.
    generation: AtomicU64,
    /// Workers park here between jobs.
    wake: Parking,
    /// Workers still inside the current job.
    pending: AtomicUsize,
    /// The caller parks here until `pending` reaches 0.
    done: Parking,
    barrier: Barrier,
    /// First panic payload of the current job's workers.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A persistent pool of `threads − 1` parked workers plus the calling
/// thread. See the module docs.
pub struct WorkerPool {
    threads: usize,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises [`Self::broadcast`] callers: one job at a time.
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Spawn `threads − 1` workers (none for `threads ≤ 1`).
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            generation: AtomicU64::new(0),
            wake: Parking::new(),
            pending: AtomicUsize::new(0),
            done: Parking::new(),
            barrier: Barrier::new(threads),
            panic: Mutex::new(None),
        });
        let workers = (1..threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || worker(&shared, tid))
            })
            .collect();
        WorkerPool {
            threads,
            shared,
            workers,
            dispatch: Mutex::new(()),
        }
    }

    /// Participants of every job: the workers plus the calling thread.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads spawned by every pool of this process so far.
    #[doc(hidden)]
    pub fn spawned_total() -> usize {
        SPAWNED.load(Ordering::Relaxed)
    }

    /// The pool a rank shares between its operator and its step loop: kept in
    /// `ws`, created on first use with `threads` participants. `None` for
    /// `threads ≤ 1`, where no pool is ever created. The rank driver and
    /// `LtsNewmark` always ask with one count; a caller that reuses a
    /// workspace across counts (the thread sweeps of `proptest_parallel`)
    /// gets the old pool replaced by one of the new count, so each apply
    /// really runs on the threads it asked for.
    pub fn shared(ws: &mut Workspace, threads: usize) -> Option<Arc<WorkerPool>> {
        if threads <= 1 {
            return None;
        }
        let slot = ws.get_or_insert_with(|| PoolSlot(None));
        if slot.0.as_ref().is_none_or(|p| p.threads != threads) {
            slot.0 = Some(spawn_shared(threads));
        }
        slot.0.as_ref().map(Arc::clone)
    }

    /// Run `job(tid)` once for every participant `tid ∈ 0..threads`, the
    /// caller taking `tid = 0`, and return when all are done. Jobs may
    /// synchronise through [`Self::barrier_wait`]. A panic on any
    /// participant re-panics here, after every worker has checked out.
    // lint: hot-path
    pub(crate) fn broadcast(&self, job: &(dyn Fn(usize) + Sync)) {
        let _one_job = lock(&self.dispatch);
        let sh = &*self.shared;
        sh.barrier.reset();
        sh.pending.store(self.workers.len(), Ordering::Relaxed);
        {
            let mut slot = lock(&sh.slot);
            // SAFETY: this call does not return (nor unwind) before every
            // worker has checked out of the job — the wait below runs on
            // every path, as both our share and each worker's share run
            // under `catch_unwind` — and the slot is cleared before we
            // return, which is `erase_job`'s contract.
            slot.job = Some(unsafe { erase_job(job) });
            slot.generation += 1;
            sh.generation.store(slot.generation, Ordering::Release);
            sh.wake.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        if mine.is_err() {
            sh.barrier.poison();
        }
        if !spin_until(|| sh.pending.load(Ordering::Acquire) == 0) {
            drop(
                sh.done
                    .park_until(lock(&sh.slot), |_| sh.pending.load(Ordering::Acquire) == 0),
            );
        }
        lock(&sh.slot).job = None;
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = lock(&sh.panic).take() {
            resume_unwind(payload);
        }
    }

    /// The colour barrier across this job's participants; `false` means a
    /// participant panicked and the job must be abandoned. Only valid from
    /// inside a [`Self::broadcast`] job, called by every participant.
    // lint: hot-path
    #[must_use]
    pub(crate) fn barrier_wait(&self) -> bool {
        // lint: allow(lock-block) — the colour barrier over this pool's own
        // participants; a panicking one poisons it, so no one waits forever
        self.shared.barrier.wait()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            slot.generation += 1;
            self.shared
                .generation
                .store(slot.generation, Ordering::Release);
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            // workers catch job panics, so a join error is impossible
            let _ = w.join();
        }
    }
}

/// Worker `tid`'s life: wait for a new generation, run the job, check out.
fn worker(sh: &Shared, tid: usize) {
    let mut seen = 0u64;
    loop {
        spin_until(|| sh.generation.load(Ordering::Acquire) != seen);
        {
            let slot = sh.wake.park_until(lock(&sh.slot), |s| s.generation != seen);
            if slot.shutdown {
                return;
            }
            seen = slot.generation;
            let job = slot.job;
            drop(slot);
            if let Some(job) = job {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(tid))) {
                    sh.barrier.poison();
                    lock(&sh.panic).get_or_insert(payload);
                }
            }
            // every copy of the job ends here, before the check-out below
        }
        if sh.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock(&sh.slot);
            sh.done.notify_all();
        }
    }
}

/// Workspace slot holding a rank's pool (see [`WorkerPool::shared`]).
struct PoolSlot(Option<Arc<WorkerPool>>);

/// A fresh shared pool: once per run (see [`WorkerPool::shared`]).
#[cold]
fn spawn_shared(threads: usize) -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(threads))
}

/// Run `f(i, &mut out[i])` for every `i` of `list`, on the pool's
/// participants when there is a pool and serially otherwise.
///
/// With a pool, `list` is split into one [`chunk_range`] chunk per
/// participant and each participant writes only the window of `out` from
/// its chunk's first index up to the next chunk's, so `list` must be
/// strictly increasing — the per-level DOF lists of an exchange plan are.
/// An index outside its participant's window (an unsorted list) panics; it
/// never races. Every index is visited exactly once either way, so the
/// result is bitwise the serial loop's whenever `f` touches only its own
/// `i`.
// lint: hot-path
pub fn for_each_listed(
    pool: Option<&WorkerPool>,
    list: &[u32],
    out: &mut [f64],
    f: impl Fn(usize, &mut f64) + Sync,
) {
    let Some(pool) = pool else {
        for &i in list {
            let i = i as usize;
            f(i, &mut out[i]);
        }
        return;
    };
    let threads = pool.threads;
    let n = out.len();
    // where participant `t`'s window starts: the first index of its chunk,
    // made non-decreasing in `t` so the windows are disjoint for any list
    let start = |t: usize| {
        (0..=t)
            .map(|s| {
                let (pos, _) = chunk_range(0, list.len(), threads, s);
                list.get(pos).map_or(n, |&i| (i as usize).min(n))
            })
            .max()
            .unwrap_or(n)
    };
    let shared = DisjointOut::new(out);
    pool.broadcast(&|tid| {
        let (lo, hi) = (start(tid), start(tid + 1));
        let (s, e) = chunk_range(0, list.len(), threads, tid);
        // SAFETY: participant windows `start(t)..start(t + 1)` are
        // contiguous and non-overlapping because `start` is non-decreasing
        // in `t`; `claim_range` bounds-checks the window.
        let window = unsafe { shared.claim_range(lo, hi) };
        for &i in &list[s..e] {
            let i = i as usize;
            f(i, &mut window[i.wrapping_sub(lo)]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;

    fn worker_ids(pool: &WorkerPool) -> Vec<ThreadId> {
        let ids = Mutex::new(vec![None; pool.threads()]);
        pool.broadcast(&|tid| lock(&ids)[tid] = Some(std::thread::current().id()));
        ids.into_inner()
            .unwrap()
            .into_iter()
            .map(|id| id.expect("every participant ran"))
            .collect()
    }

    #[test]
    fn consecutive_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        let first = worker_ids(&pool);
        assert_eq!(first[0], std::thread::current().id(), "caller is tid 0");
        assert_eq!(first.iter().collect::<HashSet<_>>().len(), 3);
        let runs = AtomicUsize::new(0);
        for _ in 0..1000 {
            pool.broadcast(&|_| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(worker_ids(&pool), first, "a worker was respawned");
        }
        assert_eq!(runs.load(Ordering::Relaxed), 3000);
    }

    #[test]
    fn worker_panic_repanics_on_the_caller() {
        let pool = WorkerPool::new(3);
        for victim in [1usize, 2, 0] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(&|tid| {
                    // the survivors block at the barrier; the panic must
                    // release them instead of hanging the job
                    if tid == victim {
                        panic!("job failed on {tid}");
                    }
                    while pool.barrier_wait() {}
                })
            }))
            .expect_err("the job panicked");
            let msg = err.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some(format!("job failed on {victim}").as_str()));
        }
        // the pool stays usable after a failed job
        assert_eq!(worker_ids(&pool).len(), 3);
    }

    thread_local! {
        static TOKEN: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn drop_joins_every_worker() {
        let token = Arc::new(());
        let pool = WorkerPool::new(4);
        let ids = worker_ids(&pool);
        let caller = ids[0];
        pool.broadcast(&|_| {
            if std::thread::current().id() != caller {
                TOKEN.with(|t| *t.borrow_mut() = Some(Arc::clone(&token)));
            }
        });
        assert_eq!(Arc::strong_count(&token), 4, "three workers hold a token");
        drop(pool);
        // a worker's thread-locals drop when its thread exits, and `drop`
        // returns only after joining every worker
        assert_eq!(Arc::strong_count(&token), 1, "a worker outlived the pool");
    }

    #[test]
    fn barrier_survives_many_uneven_generations() {
        // colour spans of uneven, often empty, sizes: every participant
        // passes every barrier, and each colour's writes are all visible to
        // every participant after it
        let pool = WorkerPool::new(3);
        let spans: Vec<usize> = (0..2000).map(|c| (c * 7919) % 5).collect();
        let total: usize = spans.iter().sum();
        let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let bad = AtomicUsize::new(0);
        pool.broadcast(&|tid| {
            let mut lo = 0;
            for &len in &spans {
                let (s, e) = chunk_range(lo, lo + len, 3, tid);
                for c in &cells[s..e] {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                assert!(pool.barrier_wait());
                if cells[lo..lo + len]
                    .iter()
                    .any(|c| c.load(Ordering::Relaxed) != 1)
                {
                    bad.fetch_add(1, Ordering::Relaxed);
                }
                lo += len;
            }
        });
        assert_eq!(bad.load(Ordering::Relaxed), 0);
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn shared_pool_is_reused_and_absent_for_one_thread() {
        let mut ws = Workspace::new();
        assert!(WorkerPool::shared(&mut ws, 1).is_none());
        let a = WorkerPool::shared(&mut ws, 2).unwrap();
        let b = WorkerPool::shared(&mut ws, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = WorkerPool::shared(&mut ws, 3).unwrap();
        assert_eq!(c.threads(), 3);
    }

    #[test]
    fn for_each_listed_matches_serial_on_uneven_lists() {
        let n = 50;
        for threads in [2usize, 3, 7] {
            let pool = WorkerPool::new(threads);
            for list in [
                vec![],
                vec![4u32],
                vec![0, 1, 2],
                (0..50).step_by(3).collect(),
            ] {
                let mut serial = vec![1.0; n];
                let mut par = vec![1.0; n];
                let f = |i: usize, x: &mut f64| *x = *x * 0.5 + i as f64;
                for_each_listed(None, &list, &mut serial, f);
                for_each_listed(Some(&pool), &list, &mut par, f);
                assert_eq!(serial, par, "{threads} threads, {list:?}");
            }
        }
    }

    #[test]
    fn for_each_listed_rejects_unsorted_lists() {
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; 8];
        let unsorted = [6u32, 7, 0, 1];
        let r = catch_unwind(AssertUnwindSafe(|| {
            for_each_listed(Some(&pool), &unsorted, &mut out, |_, x| *x += 1.0)
        }));
        assert!(r.is_err(), "an index outside its window must panic");
    }
}
