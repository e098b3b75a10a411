//! A persistent, process-global worker pool for the parallel layer.
//!
//! Before this module every fan-out in [`crate::par`] paid a fresh
//! `std::thread::scope` — one `clone()`/`spawn`/`join` cycle of OS
//! threads *per wave*, which the level-synchronous sweeps issued once
//! per lattice level. The pool inverts that cost model: worker threads
//! are spawned **once per process** (lazily, up to the hardware cap of
//! `par::max_workers`, which probes the machine once per process) and
//! stay between jobs. `gpd::counters::par_threads_spawned` meters the
//! spawns; `tests/pool_stress.rs` pins the count to O(1) per process
//! across hundreds of detection runs.
//!
//! # Job model
//!
//! There is exactly **one job slot**. A job is a borrowed closure
//! `f: Fn(usize) + Sync` fanned out as `f(0)` on the submitting thread
//! and `f(1), …, f(helpers)` on pool workers. Every closure handed to
//! the pool is *self-scheduling* (workers pull chunks from shared
//! stealable deques, see [`crate::par`]), so one participant can drain
//! the whole fan-out. Hence a submitter that finds the slot busy — a
//! concurrent wave, or a predicate re-entering the parallel layer — runs
//! `f(0)` alone, and once its own `f(0)` returns it **revokes** every
//! slot no worker has claimed yet and waits only for the claimed ones.
//!
//! A sweep submits its waves microseconds apart, less than a condvar
//! wake-up costs. So an idle worker spins up to [`SPIN`] on the
//! published-job counter before it parks on the `work` condvar, and a
//! waiting submitter as long on the retired-job counter before it parks
//! on `done`. With one hardware thread a spinner would hold the CPU the
//! other side needs, so there both park at once.
//!
//! # Safety
//!
//! The job pointer borrows stack data of the submitting thread. [`run`]
//! returns only once no worker can still call it: a worker claims an
//! index only under the lock and only while `slots > 0` (incrementing
//! `active`), and later retires it. After `f(0)` the submitter sets
//! `slots = 0` under the lock, so no late worker can claim, and then
//! waits until its job (matched by sequence number) has `active == 0`:
//! under the lock, or through the retired-job counter, which the last
//! worker stores (`Release`) after its call returned and the submitter
//! loads (`Acquire`). Workers run the closure under `catch_unwind` and
//! report panics into the job's [`PanicSlot`], so an unwinding predicate
//! cannot skip retirement.
//!
//! Pool threads are intentionally never joined: they are detached,
//! park on the condvar when idle, and die with the process (the same
//! lifecycle as rayon's global pool). "Clean shutdown" for a detection
//! run means its *job* is fully retired before `run` returns — which
//! the sequence-number handshake guarantees even when predicates panic.

use crate::counters;
use crate::par::{hardware_threads, lock_unpoisoned, max_workers, PanicSlot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle worker waits for the next job, and a submitter for
/// its helpers, spinning before it parks on a condvar.
const SPIN: Duration = Duration::from_micros(100);

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
    /// `seq + 1` of the last job installed; idle workers spin on it.
    published: AtomicU64,
    /// `seq + 1` of the last job retired; submitters spin on it.
    retired: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        work: Condvar::new(),
        done: Condvar::new(),
        published: AtomicU64::new(0),
        retired: AtomicU64::new(0),
    })
}

/// Spins until `ready()` holds or [`SPIN`] has passed, reading the clock
/// every 64 rounds, and returns whether it held. With one hardware
/// thread it only checks once.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while hardware_threads() > 1 && start.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
    }
    ready()
}

/// Runs `f(0)` on the calling thread and `f(1), …, f(helpers)` on pool
/// workers, returning once every participant has finished. Panics,
/// the caller's own included, are captured into `panics` (first one
/// wins), never propagated; the caller rethrows after the fan-out.
///
/// `helpers` is a request, not a guarantee: if the pool is saturated or
/// busy with another job, or a helper has not claimed its index by the
/// time `f(0)` returns, the closure runs on fewer workers — possibly
/// just the caller — so `f` must be written to drain all work from any
/// single participant (the work-stealing sources in [`crate::par`] are).
pub(crate) fn run(helpers: usize, panics: &PanicSlot, f: &(dyn Fn(usize) + Sync)) {
    counters::record_par_wave();
    let seq = publish(helpers, panics, f);
    // The submitter's own share. A panic here must still wait for the
    // helpers (they borrow `f`), so it is captured like theirs and
    // rethrown by the caller after the fan-out.
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(0))) {
        panics.capture(payload);
    }
    if let Some(seq) = seq {
        retire(seq);
    }
}

/// Installs `f` as the job, with up to `helpers` slots, and returns its
/// sequence number. `None` when no helper is wanted or available, or the
/// slot is busy (a concurrent or re-entrant fan-out): the
/// self-scheduling closure then drains solo.
fn publish(helpers: usize, panics: &PanicSlot, f: &(dyn Fn(usize) + Sync)) -> Option<u64> {
    if helpers == 0 {
        return None;
    }
    let pool = pool();
    let mut st = lock_unpoisoned(&pool.state);
    while st.spawned < helpers.min(max_workers()) {
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
        return None;
    }
    let seq = st.next_seq;
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
    pool.published.store(seq + 1, Ordering::Relaxed);
    pool.work.notify_all();
    Some(seq)
}

/// Returns once job `seq` has retired. The submitter's share has drained
/// the work, so the slots no helper has claimed are revoked first, and
/// only the helpers already running are waited for.
fn retire(seq: u64) {
    let pool = pool();
    let mut st = lock_unpoisoned(&pool.state);
    let Some(job) = st.job.as_mut().filter(|j| j.seq == seq) else {
        return;
    };
    job.slots = 0;
    if job.active == 0 {
        st.job = None;
        return;
    }
    drop(st);
    if spin_until(|| pool.retired.load(Ordering::Acquire) > seq) {
        return;
    }
    let mut st = lock_unpoisoned(&pool.state);
    while st.job.as_ref().is_some_and(|j| j.seq == seq) {
        st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn worker_loop(pool: &'static Pool) {
    let mut st = lock_unpoisoned(&pool.state);
    // The published count this worker last spun on: it spins once per
    // newly published job, then parks.
    let mut seen = 0;
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
            let published = pool.published.load(Ordering::Relaxed);
            if published == seen {
                st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            } else {
                seen = published;
                drop(st);
                spin_until(|| pool.published.load(Ordering::Relaxed) != seen);
                st = lock_unpoisoned(&pool.state);
            }
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
                pool.retired.store(seq + 1, Ordering::Release);
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
    fn a_revoked_slot_never_runs_after_its_wave_returns() {
        use std::sync::atomic::AtomicU64;
        // `returned` is the count of waves whose `run` has returned. A
        // helper that claimed a revoked slot late would read its wave's
        // id after that wave returned, through a borrow of a dead frame.
        let returned = AtomicU64::new(0);
        let (late, submitter_runs, helper_runs) =
            (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        for wave in 0..5000u64 {
            let id = wave;
            let panics = PanicSlot::default();
            run(1, &panics, &|w| {
                if returned.load(Ordering::SeqCst) > id {
                    late.fetch_add(1, Ordering::SeqCst);
                }
                let runs = if w == 0 {
                    &submitter_runs
                } else {
                    &helper_runs
                };
                runs.fetch_add(1, Ordering::SeqCst);
            });
            returned.store(wave + 1, Ordering::SeqCst);
            panics.rethrow();
            assert_eq!(
                submitter_runs.load(Ordering::SeqCst),
                wave + 1,
                "wave {wave}"
            );
        }
        assert_eq!(
            late.load(Ordering::SeqCst),
            0,
            "a closure outlived its wave"
        );
        assert!(helper_runs.load(Ordering::SeqCst) <= 5000);
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
