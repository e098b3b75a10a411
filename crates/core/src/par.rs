//! Parallel execution layer for the combinatorially scheduled detectors.
//!
//! One work-stealing runtime, exposed through two primitives:
//!
//! * [`map_indexed`] — order-preserving parallel map. The §3.3 general
//!   algorithms ([`crate::singular::possibly_singular_subsets_budgeted`],
//!   [`crate::singular::possibly_singular_chains_budgeted`]) run each wave
//!   of their combination odometer on it, one odometer block per item
//!   (see `crate::scan`), and build their per-clause chain covers with it
//!   (DAG build + transitive closure + matching are independent per
//!   clause).
//! * `fanout_chunks` (crate-internal) — the raw work-stealing engine.
//!   `map_indexed` is built on it, and so is the level sweep in
//!   `enumerate.rs` (each worker expands its chunks of a level into a
//!   private sorted run), which cancels the fan-out when a budget
//!   trips.
//!
//! # Threading model
//!
//! `threads = 0` and `threads = 1` run on the caller's thread with no
//! pool, no atomics traffic and *identical iteration order* to the
//! historical sequential code — default behavior is unchanged. For
//! `threads ≥ 2`, the fan-out runs on the persistent process-global
//! worker pool (`crate::pool`): threads are spawned once per process,
//! and an idle one spins briefly for the next wave before it parks on a
//! condvar, so a level-synchronous sweep pays neither a spawn/join cycle
//! nor, while its waves come close together, a wake-up per lattice
//! level. A helper that has not started by the time the caller's own
//! share drained the work is not waited for. A fan-out uses at most
//! `threads`, its work items, and twice the hardware parallelism
//! (`max_workers`, probed once per process and shared with the pool).
//!
//! Within a fan-out, scheduling is **work-stealing over chunked
//! deques**: the chunk space `0..⌈total/chunk⌉` is split into contiguous
//! per-worker spans (one atomic `(lo, hi)` word each — the rooted
//! sub-lattice partitions of the Chauhan–Garg work-optimal design).
//! Each worker pops single chunks off the front of its own span; a
//! worker whose span runs dry steals the *back half* of a victim's span
//! (one CAS), installs it as its new span, and continues. A worker exits
//! after one full fruitless sweep over all victims. Stealing moves whole
//! spans of untouched chunks, never splits a chunk, and every chunk is
//! claimed exactly once — so the total work stays exactly the
//! sequential work (O(work-optimal)), while idle workers shrink the
//! span instead of waiting at a barrier.
//! `gpd::counters::{par_waves, par_steals, par_threads_spawned}` meter
//! the pooled waves, successful steals, and pool spawns.
//!
//! # Determinism contract
//!
//! Nothing in this layer races for a result. [`map_indexed`] returns its
//! items in index order, and the fan-outs built on `fanout_chunks` keep
//! the minimum hit, so a verdict **and its witness** are byte-identical
//! at every thread count: the §3.3 odometer keeps the lowest-index live
//! combination of a wave (an atomic `fetch_min`), the level sweeps the
//! lowest sorted cut of a level, however generated. Cancellation only
//! stops work that cannot change the answer — after a panic, which is
//! re-raised anyway, or a budget trip, whose partial wave or level the
//! caller discards. `tests/detect_matrix.rs` asserts the contract in
//! every cell and engine column.
//!
//! # Panic isolation
//!
//! A worker whose closure panics can never cascade into a process abort:
//! every closure call runs under `catch_unwind`, the first panic payload
//! is stashed (cancelling the remaining workers), and the payload is
//! re-raised **once, on the calling thread** after the fan-out retires.
//! No shared lock is ever acquired with `.expect` — all lock handling is
//! poison-recovering (`lock_unpoisoned`), so even a panic at an
//! unfortunate instant leaves the witness slot readable. Callers that
//! want a structured error instead of a propagated panic wrap the call in
//! `crate::budget::catch_detect` (every budgeted engine does).

use crate::pool;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Cooperative cancellation shared by one fan-out's workers.
#[derive(Debug, Default)]
pub(crate) struct Cancellation {
    flag: AtomicBool,
}

impl Cancellation {
    /// Signals every worker to stop at its next work-item boundary.
    fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The hardware parallelism, probed once per process: the probe reads
/// cgroup files and would otherwise cost every fan-out tens of
/// microseconds.
pub(crate) fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get().max(1)))
}

/// The most workers one fan-out may use: twice the hardware parallelism.
/// The pool shares this cap, so a pool at capacity can serve any fan-out.
pub(crate) fn max_workers() -> usize {
    hardware_threads() * 2
}

/// Caps the requested worker count to the actual work and the machine.
fn worker_count(threads: usize, work: usize) -> usize {
    threads.min(work).min(max_workers())
}

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Sound here because every shared slot in this module holds plain data
/// (an `Option` witness) whose every individual write is atomic from the
/// lock's perspective — a panicked worker cannot leave it half-updated.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_unpoisoned`] for consuming a mutex after the fan-out retired.
pub(crate) fn into_inner_unpoisoned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// First panic payload raised by any worker of one fan-out. Workers
/// store the payload instead of unwinding across the pool (which would
/// leave a poisoned witness slot behind); after the fan-out,
/// [`PanicSlot::rethrow`] re-raises it exactly once on the calling
/// thread.
#[derive(Default)]
pub(crate) struct PanicSlot {
    payload: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl PanicSlot {
    pub(crate) fn capture(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut slot = lock_unpoisoned(&self.payload);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the captured panic (if any) on the current thread.
    pub(crate) fn rethrow(self) {
        if let Some(payload) = into_inner_unpoisoned(self.payload) {
            resume_unwind(payload);
        }
    }
}

/// One worker's chunk span: a contiguous range `lo..hi` of chunk
/// indexes packed into a single atomic word, so both the owner's
/// pop-front and a thief's steal-back-half are one CAS. Chunk indexes
/// are capped at `u32::MAX` by [`fanout_chunks`]'s chunk-size scaling.
struct ChunkSpan(AtomicU64);

#[inline]
fn pack_span(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack_span(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl ChunkSpan {
    fn new(lo: u32, hi: u32) -> Self {
        ChunkSpan(AtomicU64::new(pack_span(lo, hi)))
    }

    /// The owner takes the front chunk. (Safe for non-owners too — the
    /// CAS arbitrates — the owner just always takes from this end.)
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_span(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack_span(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(seen) => cur = seen,
            }
        }
    }

    /// A thief takes the back half (rounded up, so a single remaining
    /// chunk is stealable). Chunk indexes are globally unique and never
    /// re-enter a span after being claimed, so the full-word CAS cannot
    /// suffer ABA.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack_span(cur);
            let rem = hi - lo;
            if rem == 0 {
                return None;
            }
            let take = rem.div_ceil(2);
            match self.0.compare_exchange_weak(
                cur,
                pack_span(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((hi - take, hi)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Replaces the span. Only the owner calls this, and only while its
    /// span is empty (thieves racing `steal_half` against the store see
    /// either the empty span or the full new one).
    fn refill(&self, lo: u32, hi: u32) {
        self.0.store(pack_span(lo, hi), Ordering::Release);
    }
}

/// The shared work source of one [`fanout_chunks`] fan-out: per-worker
/// chunk spans plus the cancellation flag. Workers drain it with
/// [`WorkSource::next`] until it returns `None`.
pub(crate) struct WorkSource<'a> {
    spans: &'a [ChunkSpan],
    chunk: usize,
    total: usize,
    cancel: &'a Cancellation,
}

impl WorkSource<'_> {
    /// The item range of chunk `c`.
    #[inline]
    fn chunk_range(&self, c: u32) -> std::ops::Range<usize> {
        let start = c as usize * self.chunk;
        start..(start + self.chunk).min(self.total)
    }

    /// The next item range for worker `w`: the front chunk of `w`'s own
    /// span, else the first chunk of a span half stolen from a victim
    /// (the rest becomes `w`'s new span). Returns `None` when the
    /// fan-out is cancelled or when one full sweep over all victims
    /// finds no remaining work — any still-running chunks finish with
    /// the workers that claimed them, so no work is lost or repeated.
    ///
    /// Each call first flushes this thread's kernel counters (row reads,
    /// dominance batches) into the process totals, so a long fan-out's
    /// counts reach them chunk by chunk; [`fanout_chunks`] flushes once
    /// more as each worker retires.
    pub(crate) fn next(&self, w: usize) -> Option<std::ops::Range<usize>> {
        gpd_computation::kernel_counters();
        if self.cancel.is_cancelled() {
            return None;
        }
        if let Some(c) = self.spans[w].pop_front() {
            return Some(self.chunk_range(c));
        }
        let n = self.spans.len();
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some((lo, hi)) = self.spans[victim].steal_half() {
                crate::counters::record_par_steal();
                if lo + 1 < hi {
                    self.spans[w].refill(lo + 1, hi);
                }
                return Some(self.chunk_range(lo));
            }
        }
        None
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    pub(crate) fn cancel(&self) {
        self.cancel.cancel();
    }
}

/// Runs `worker(w, source)` for every worker index of one fan-out over
/// the chunked space `0..total`, on the persistent pool with
/// work-stealing scheduling (see module docs). `worker` must drain the
/// source (`while let Some(range) = source.next(w) { … }`); it may stop
/// early only via cancellation. With one worker the chunks arrive in
/// exact sequential order on the caller's thread.
///
/// Worker panics cancel the fan-out and are re-raised once on the
/// calling thread after every worker has retired.
pub(crate) fn fanout_chunks(
    threads: usize,
    total: usize,
    chunk: usize,
    worker: &(dyn Fn(usize, &WorkSource) + Sync),
) {
    let mut chunk = chunk.max(1);
    // Chunk indexes must fit the packed u32 span halves; absurdly large
    // spaces get proportionally larger chunks.
    while total.div_ceil(chunk) > u32::MAX as usize {
        chunk *= 2;
    }
    let nchunks = total.div_ceil(chunk);
    let workers = worker_count(threads, nchunks).max(1);
    let cancel = Cancellation::default();
    // Balanced contiguous partition of the chunk space: worker w roots
    // the w-th span, the per-process sub-lattice decomposition.
    let spans: Vec<ChunkSpan> = (0..workers)
        .map(|w| {
            let lo = (nchunks * w / workers) as u32;
            let hi = (nchunks * (w + 1) / workers) as u32;
            ChunkSpan::new(lo, hi)
        })
        .collect();
    let source = WorkSource {
        spans: &spans,
        chunk,
        total,
        cancel: &cancel,
    };
    if workers <= 1 {
        // Sequential: in-order chunks on the caller, panics propagate
        // directly.
        worker(0, &source);
        return;
    }
    let panics = PanicSlot::default();
    pool::run(workers - 1, &panics, &|w| {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| worker(w, &source))) {
            cancel.cancel();
            panics.capture(payload);
        }
        // Work done after the worker's last `next` (a run's final sort,
        // say) reaches the process totals before the fan-out returns.
        gpd_computation::kernel_counters();
    });
    panics.rethrow();
}

/// Order-preserving parallel map over `0..count`: returns
/// `[g(0), …, g(count - 1)]` computed on up to `threads` workers.
///
/// Each worker owns a contiguous span and idle workers steal, so
/// unevenly expensive items (e.g. one wide clause among narrow ones)
/// balance across workers. With `threads ≤ 1` it is a plain sequential
/// map.
pub fn map_indexed<T, F>(threads: usize, count: usize, g: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = worker_count(threads, count);
    if workers <= 1 {
        return (0..count).map(g).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    fanout_chunks(threads, count, 1, &|w, source| {
        while let Some(range) = source.next(w) {
            for i in range {
                // A panic elsewhere cancels; stop filling slots.
                if source.is_cancelled() {
                    return;
                }
                *lock_unpoisoned(&slots[i]) = Some(g(i));
            }
        }
    });
    // fanout_chunks re-raised any panic already; on the success path
    // every index was claimed by exactly one worker.
    slots
        .into_iter()
        .map(|slot| {
            into_inner_unpoisoned(slot).expect("every index was assigned to exactly one worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{Budget, BudgetMeter};
    use gpd_computation::Cut;
    use std::sync::atomic::AtomicUsize;

    /// Every item range one fan-out hands out, in hand-out order per
    /// worker, flattened.
    fn drained(threads: usize, total: usize, chunk: usize) -> Vec<usize> {
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        fanout_chunks(threads, total, chunk, &|w, source| {
            while let Some(range) = source.next(w) {
                lock_unpoisoned(&seen).extend(range);
            }
        });
        into_inner_unpoisoned(seen)
    }

    /// The lowest `i < count` with `hit(i)`, searched like the budgeted
    /// level probe: chunks past the current best are skipped, hits race
    /// into a `fetch_min`.
    fn lowest_hit(
        threads: usize,
        count: usize,
        hit: &(dyn Fn(usize) -> bool + Sync),
    ) -> Option<usize> {
        let best = AtomicUsize::new(usize::MAX);
        fanout_chunks(threads, count, 16, &|w, source| {
            while let Some(range) = source.next(w) {
                if range.start > best.load(Ordering::Acquire) {
                    continue;
                }
                if let Some(i) = range.into_iter().find(|&i| hit(i)) {
                    best.fetch_min(i, Ordering::AcqRel);
                }
            }
        });
        Some(best.into_inner()).filter(|&i| i != usize::MAX)
    }

    /// A level of `count` distinct one-process cuts for the budgeted
    /// probe; the predicate reads the index back off the frontier.
    fn indexed_level(count: u32) -> Vec<Cut> {
        (0..count).map(|i| Cut::from_frontier(vec![i])).collect()
    }

    fn index_of(cut: &Cut) -> usize {
        cut.frontier()[0] as usize
    }

    #[test]
    fn sequential_search_matches_find_map() {
        for threads in [0, 1] {
            let visited = AtomicUsize::new(0);
            let hit = Mutex::new(None);
            fanout_chunks(threads, 10, 1, &|w, source| {
                while let Some(range) = source.next(w) {
                    for i in range {
                        visited.fetch_add(1, Ordering::Relaxed);
                        if i == 3 {
                            *lock_unpoisoned(&hit) = Some(i);
                            source.cancel();
                            return;
                        }
                    }
                }
            });
            assert_eq!(into_inner_unpoisoned(hit), Some(3));
            // One worker visits in order and stops exactly like find_map.
            assert_eq!(visited.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn parallel_search_finds_a_witness() {
        for threads in [2, 4, 8] {
            // Workers root different spans, so the later hit is often
            // reached first; the minimum-index aggregation still
            // reports the lowest one.
            let hit = lowest_hit(threads, 1000, &|i| i % 977 == 10);
            assert_eq!(hit, Some(10), "threads = {threads}");
            assert_eq!(lowest_hit(threads, 1000, &|_| false), None);
        }
    }

    #[test]
    fn cancellation_stops_remaining_workers() {
        // After one worker cancels, the others must stop at their next
        // chunk boundary, well short of the full space.
        let visited = AtomicUsize::new(0);
        fanout_chunks(4, 1_000_000, 64, &|w, source| {
            while let Some(range) = source.next(w) {
                for i in range {
                    visited.fetch_add(1, Ordering::Relaxed);
                    if i % 250_000 == 2 {
                        source.cancel();
                        return;
                    }
                }
            }
        });
        assert!(
            visited.load(Ordering::Relaxed) < 100_000,
            "cancellation should cut the sweep short, visited {}",
            visited.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn chunk_span_pop_and_steal_partition_the_range() {
        let span = ChunkSpan::new(0, 10);
        assert_eq!(span.pop_front(), Some(0));
        // 9 remain (1..10); the thief takes the back ⌈9/2⌉ = 5.
        assert_eq!(span.steal_half(), Some((5, 10)));
        assert_eq!(span.pop_front(), Some(1));
        assert_eq!(span.steal_half(), Some((3, 5)));
        assert_eq!(span.pop_front(), Some(2));
        assert_eq!(span.pop_front(), None);
        // A single remaining chunk is stealable.
        let one = ChunkSpan::new(7, 8);
        assert_eq!(one.steal_half(), Some((7, 8)));
        assert_eq!(one.steal_half(), None);
        assert_eq!(one.pop_front(), None);
    }

    #[test]
    fn chunked_search_sequential_is_one_full_range() {
        // One worker drains the chunks in order on the caller's thread:
        // together they are exactly the full range.
        for threads in [0, 1] {
            assert_eq!(drained(threads, 10, 3), (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunked_search_covers_the_space() {
        for threads in [2, 4] {
            let mut seen = drained(threads, 100, 7);
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn chunked_search_empty_space_rejects() {
        for threads in [0, 4] {
            assert!(drained(threads, 0, 5).is_empty());
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [0, 1, 2, 4] {
            let out = map_indexed(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn stealing_covers_wildly_unbalanced_work() {
        // One worker's span holds all the slow items; the others must
        // steal it dry rather than idle, and every index must still be
        // mapped exactly once.
        let out = map_indexed(4, 64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_propagate_once_and_leave_the_pool_reusable() {
        let level = indexed_level(1000);
        for threads in [0, 1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                let probe = |c: &Cut| -> bool {
                    if index_of(c) == 613 {
                        panic!("bad predicate");
                    }
                    false
                };
                crate::enumerate::probe_level_budgeted(
                    &probe,
                    threads,
                    &level,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                )
            });
            assert!(caught.is_err(), "budgeted probe, threads = {threads}");

            let caught = std::panic::catch_unwind(|| {
                map_indexed(threads, 50, |i| {
                    if i == 17 {
                        panic!("bad item");
                    }
                    i
                })
            });
            assert!(caught.is_err(), "map_indexed, threads = {threads}");
        }
        // Nothing global was poisoned: fresh fan-outs still work.
        let found = crate::enumerate::probe_level_budgeted(
            &|c: &Cut| index_of(c) == 3,
            4,
            &level,
            &Budget::unlimited(),
            &BudgetMeter::new(),
        );
        assert_eq!(found, Ok(Some(level[3].clone())));
        assert_eq!(map_indexed(4, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_beats_witness_when_both_happen() {
        // A worker that panics while another finds a witness must still
        // surface the panic (the caller cannot trust a partial sweep).
        // The witness-finder waits until the panic has fired, so both
        // genuinely happen in every interleaving — with rooted spans the
        // witness could otherwise win and prune the panicking chunk away.
        let level = indexed_level(1000);
        for threads in [2, 4] {
            let panicked = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                let probe = |c: &Cut| {
                    let i = index_of(c);
                    if i == 0 {
                        panicked.store(true, Ordering::Release);
                        panic!("early panic");
                    }
                    if i == 999 {
                        let start = std::time::Instant::now();
                        while !panicked.load(Ordering::Acquire)
                            && start.elapsed() < std::time::Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                        return true;
                    }
                    false
                };
                crate::enumerate::probe_level_budgeted(
                    &probe,
                    threads,
                    &level,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                )
            });
            assert!(caught.is_err(), "threads = {threads}");
        }
    }
}
