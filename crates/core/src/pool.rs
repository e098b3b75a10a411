//! A persistent, process-global worker pool for the parallel layer.
//!
//! Before this module every fan-out in [`crate::par`] paid a fresh
//! `std::thread::scope` — one `clone()`/`spawn`/`join` cycle of OS
//! threads *per wave*, which the level-synchronous sweeps issued once
//! per lattice level. The pool inverts that cost model: worker threads
//! are spawned **once per process** (lazily, up to the hardware cap of
//! `par::max_workers`, which probes the machine once per process), park
//! on a condvar between jobs, and are woken with a notify when the next
//! fan-out arrives. `gpd::counters::par_threads_spawned` meters the
//! spawns; `tests/pool_stress.rs` pins the count to O(1) per process
//! across hundreds of detection runs.
//!
//! # Job model
//!
//! There is exactly **one job slot**. A job is a borrowed closure
//! `f: Fn(usize) + Sync` fanned out as `f(0)` on the submitting thread
//! and `f(1), …, f(helpers)` on pool workers. Submission publishes a
//! type-erased pointer to `f` plus a sequence number; the submitter then
//! runs its own share and blocks until every claimed worker index has
//! retired. Because the submitter participates, a pool with zero
//! spawnable workers still makes progress.
//!
//! If the slot is already occupied — a concurrent detection's wave is in
//! flight, or a predicate re-entered the parallel layer — the submitter
//! simply runs `f(0)` alone and returns. Every closure handed to the
//! pool is *self-scheduling* (workers pull chunks from shared stealable
//! deques, see [`crate::par`]), so one participant can always drain the
//! whole fan-out; the fallback degrades parallelism, never correctness,
//! and cannot deadlock.
//!
//! # Safety
//!
//! The job pointer borrows stack data of the submitting thread. This is
//! sound because the submitter cannot return from [`run`] until the
//! job is retired: a worker first *claims* an index (incrementing
//! `active`) and later *retires* it, and the submitter waits until the
//! job it published (matched by sequence number) has `slots == 0 &&
//! active == 0` and is cleared. Workers run the closure under
//! `catch_unwind` and report panics into the job's [`PanicSlot`], so an
//! unwinding predicate cannot skip retirement.
//!
//! Pool threads are intentionally never joined: they are detached,
//! idle parked on the condvar, and die with the process (the same
//! lifecycle as rayon's global pool). "Clean shutdown" for a detection
//! run means its *job* is fully retired before `run` returns — which
//! the sequence-number handshake guarantees even when predicates panic.

use crate::counters;
use crate::par::{lock_unpoisoned, max_workers, PanicSlot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// Type-erased pointer to one fan-out's borrowed closure and panic slot.
///
/// Lifetimes are erased (`run` re-establishes them by blocking until the
/// job retires); `Send` so the handle can cross into pool threads.
#[derive(Clone, Copy)]
struct JobHandle {
    f: *const (dyn Fn(usize) + Sync),
    panics: *const PanicSlot,
}

// SAFETY: the pointees are `Sync` (`f` by bound, `PanicSlot` by its
// internal `Mutex`), and the submitter keeps them alive until the job
// retires, so sharing the raw pointers across threads is sound.
unsafe impl Send for JobHandle {}

struct Job {
    handle: JobHandle,
    /// Distinguishes this job from any later occupant of the slot.
    seq: u64,
    /// Worker indexes not yet claimed (claimed top-down via `next_idx`).
    slots: usize,
    /// Next worker index to hand out (index 0 is the submitter's).
    next_idx: usize,
    /// Claimed worker indexes not yet retired.
    active: usize,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    next_seq: u64,
    /// Pool threads spawned so far (never shrinks).
    spawned: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here waiting for a job with unclaimed slots.
    work: Condvar,
    /// Submitters park here waiting for their job to retire.
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Runs `f(0)` on the calling thread and `f(1), …, f(helpers)` on pool
/// workers, returning once every participant has finished. Worker
/// panics are captured into `panics` (in claim order of arrival), never
/// propagated across threads; the caller rethrows after the fan-out.
///
/// `helpers` is a request, not a guarantee: if the pool is saturated or
/// busy with another job the closure may run on fewer workers — possibly
/// just the caller — so `f` must be written to drain all work from any
/// single participant (the work-stealing sources in [`crate::par`] are).
pub(crate) fn run(helpers: usize, panics: &PanicSlot, f: &(dyn Fn(usize) + Sync)) {
    counters::record_par_wave();
    if helpers == 0 {
        f(0);
        return;
    }
    let pool = pool();
    let want = helpers.min(max_workers());
    let seq;
    {
        let mut st = lock_unpoisoned(&pool.state);
        while st.spawned < want {
            let spawned = std::thread::Builder::new()
                .name(format!("gpd-pool-{}", st.spawned))
                .spawn(|| worker_loop(self::pool()));
            if spawned.is_err() {
                // Out of threads: run with however many exist.
                break;
            }
            st.spawned += 1;
            counters::record_par_thread_spawned();
        }
        let slots = helpers.min(st.spawned);
        if st.job.is_some() || slots == 0 {
            // Slot busy (concurrent or re-entrant fan-out) or no workers
            // available: the self-scheduling closure drains solo.
            drop(st);
            f(0);
            return;
        }
        seq = st.next_seq;
        st.next_seq += 1;
        st.job = Some(Job {
            handle: JobHandle {
                // SAFETY(lifetime erasure): see module docs — `run` does
                // not return until this job retires.
                f: unsafe {
                    std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
                },
                panics,
            },
            seq,
            slots,
            next_idx: 1,
            active: 0,
        });
        pool.work.notify_all();
    }
    // The submitter's own share. A panic here must still wait for the
    // helpers (they borrow `f`), so it is captured like theirs and
    // rethrown by the caller after the fan-out.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
        panics.capture(payload);
    }
    let mut st = lock_unpoisoned(&pool.state);
    while st.job.as_ref().is_some_and(|j| j.seq == seq) {
        st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn worker_loop(pool: &'static Pool) {
    let mut st = lock_unpoisoned(&pool.state);
    loop {
        let claimed = match st.job.as_mut() {
            Some(job) if job.slots > 0 => {
                job.slots -= 1;
                job.active += 1;
                let idx = job.next_idx;
                job.next_idx += 1;
                Some((job.handle, job.seq, idx))
            }
            _ => None,
        };
        let Some((handle, seq, idx)) = claimed else {
            st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(st);
        // SAFETY: the submitter blocks until this claim retires, so the
        // pointees are alive; see module docs.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*handle.f)(idx) }));
        if let Err(payload) = result {
            unsafe { (*handle.panics).capture(payload) };
        }
        st = lock_unpoisoned(&pool.state);
        if let Some(job) = st.job.as_mut().filter(|j| j.seq == seq) {
            job.active -= 1;
            if job.slots == 0 && job.active == 0 {
                st.job = None;
                pool.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_requested_indexes_run_exactly_once() {
        for helpers in [0usize, 1, 2, 3] {
            let hits: Vec<AtomicUsize> = (0..=helpers).map(|_| AtomicUsize::new(0)).collect();
            let panics = PanicSlot::default();
            run(helpers, &panics, &|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            panics.rethrow();
            // Index 0 (the submitter) always runs; helper indexes run
            // once each *if* the pool granted them — a saturated pool
            // may have declined, in which case none ran.
            assert_eq!(hits[0].load(Ordering::Relaxed), 1, "helpers = {helpers}");
            for (w, hit) in hits.iter().enumerate().skip(1) {
                assert!(
                    hit.load(Ordering::Relaxed) <= 1,
                    "w{w}, helpers = {helpers}"
                );
            }
        }
    }

    #[test]
    fn panicking_job_still_retires_and_pool_stays_usable() {
        for _ in 0..20 {
            let panics = PanicSlot::default();
            run(2, &panics, &|w| {
                if w == 0 {
                    panic!("submitter share panics");
                }
            });
            let caught = std::panic::catch_unwind(move || panics.rethrow());
            assert!(caught.is_err());
        }
        // The slot was retired every time: a fresh job still runs.
        let ran = AtomicUsize::new(0);
        let panics = PanicSlot::default();
        run(2, &panics, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        panics.rethrow();
        assert!(ran.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn reentrant_submission_falls_back_to_solo() {
        // A predicate that re-enters the parallel layer while its own
        // fan-out holds the job slot must degrade to solo, not deadlock.
        let inner_ran = AtomicUsize::new(0);
        let panics = PanicSlot::default();
        run(2, &panics, &|_w| {
            let inner_panics = PanicSlot::default();
            run(2, &inner_panics, &|_| {
                inner_ran.fetch_add(1, Ordering::Relaxed);
            });
            inner_panics.rethrow();
        });
        panics.rethrow();
        assert!(inner_ran.load(Ordering::Relaxed) >= 1);
    }
}
