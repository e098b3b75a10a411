//! Process-global work counters for the flat causality kernel.
//!
//! Four counters make the flat layout's wins observable without a
//! profiler: how many clock-matrix rows the dominance kernels touched,
//! how many batched kernel passes they ran, how many times
//! `cut_successors` fell back to its allocating convenience path, and
//! how many owned [`VectorClock`]s were materialized on the heap (the
//! flat layout should build and query a computation with **zero** of
//! these). The `gpd` crate folds this snapshot into its `ScanCounters`
//! and the CLI prints it under `gpd detect --stats`.
//!
//! The two hot counters — row reads and dominance batches, bumped on
//! every enablement and consistency query — accumulate in thread-local
//! cells, so parallel sweeps never write a shared cache line from their
//! inner loops. A thread's cells are flushed into the process totals on
//! every [`kernel_counters`] call made on that thread and when the
//! thread exits; the `gpd` work-stealing fan-out reads the counters
//! once per chunk for exactly that purpose. The totals stay exact: a
//! reading sees every count flushed so far, including all of its own
//! thread's.
//!
//! Counters are cumulative per process; diff two [`kernel_counters`]
//! readings via [`KernelCounters::since`] to meter one region. Relaxed
//! ordering is deliberate: the numbers are telemetry, not
//! synchronization.
//!
//! [`VectorClock`]: crate::VectorClock

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static CLOCK_ROW_READS: AtomicU64 = AtomicU64::new(0);
static CUT_SUCCESSOR_ALLOCS: AtomicU64 = AtomicU64::new(0);
static VCLOCK_ALLOCS: AtomicU64 = AtomicU64::new(0);
static DOMINANCE_BATCHES: AtomicU64 = AtomicU64::new(0);

/// One thread's not-yet-flushed row reads and dominance batches.
struct LocalCounts {
    rows: Cell<u64>,
    batches: Cell<u64>,
}

impl LocalCounts {
    /// Moves the pending counts into the process totals.
    fn flush(&self) {
        let rows = self.rows.replace(0);
        if rows > 0 {
            CLOCK_ROW_READS.fetch_add(rows, Ordering::Relaxed);
        }
        let batches = self.batches.replace(0);
        if batches > 0 {
            DOMINANCE_BATCHES.fetch_add(batches, Ordering::Relaxed);
        }
    }
}

impl Drop for LocalCounts {
    /// A retiring thread hands its last counts to the process totals.
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: LocalCounts = const {
        LocalCounts {
            rows: Cell::new(0),
            batches: Cell::new(0),
        }
    };
}

/// Adds `rows` clock-matrix row reads and `batches` batched-dominance
/// kernel passes to this thread's cells — the dominance kernels call
/// this once per query, not once per row. During thread teardown, when
/// the cells are gone, the counts go straight to the process totals.
#[inline]
pub(crate) fn add_kernel_work(rows: u64, batches: u64) {
    let local = LOCAL.try_with(|l| {
        l.rows.set(l.rows.get() + rows);
        l.batches.set(l.batches.get() + batches);
    });
    if local.is_err() {
        CLOCK_ROW_READS.fetch_add(rows, Ordering::Relaxed);
        DOMINANCE_BATCHES.fetch_add(batches, Ordering::Relaxed);
    }
}

/// Records one call to the allocating `cut_successors` wrapper.
#[inline]
pub(crate) fn record_cut_successor_alloc() {
    CUT_SUCCESSOR_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Records one owned `VectorClock` materialized on the heap.
#[inline]
pub(crate) fn record_vclock_alloc() {
    VCLOCK_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time reading of the kernel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Clock-matrix rows scanned by the dominance/enablement kernels
    /// (including single-row [`Computation::clock`] borrows).
    ///
    /// [`Computation::clock`]: crate::Computation::clock
    pub clock_row_reads: u64,
    /// Calls to the allocating `cut_successors` convenience wrapper; the
    /// buffer-reusing enumerators keep this at zero.
    pub cut_successor_allocs: u64,
    /// Owned `VectorClock` heap allocations. Building and querying a
    /// computation through the flat layout performs none.
    pub vclock_allocs: u64,
    /// Column-major batched dominance/enablement kernel passes — each
    /// covers up to `kernel::BATCH` clock rows against one shared bound.
    pub dominance_batches: u64,
}

impl KernelCounters {
    /// Counter deltas since an `earlier` snapshot.
    ///
    /// The counters are cumulative and never reset, so `earlier` must
    /// genuinely be earlier; a later snapshot indicates a mixed-up pair
    /// (debug-asserted). Release builds subtract with wraparound — a
    /// bogus pair yields a conspicuously huge delta instead of a silent
    /// 0 that would hide the inconsistency.
    pub fn since(&self, earlier: &KernelCounters) -> KernelCounters {
        debug_assert!(
            self.clock_row_reads >= earlier.clock_row_reads
                && self.cut_successor_allocs >= earlier.cut_successor_allocs
                && self.vclock_allocs >= earlier.vclock_allocs
                && self.dominance_batches >= earlier.dominance_batches,
            "non-monotone counter snapshots: {self:?}.since({earlier:?})"
        );
        KernelCounters {
            clock_row_reads: self.clock_row_reads.wrapping_sub(earlier.clock_row_reads),
            cut_successor_allocs: self
                .cut_successor_allocs
                .wrapping_sub(earlier.cut_successor_allocs),
            vclock_allocs: self.vclock_allocs.wrapping_sub(earlier.vclock_allocs),
            dominance_batches: self
                .dominance_batches
                .wrapping_sub(earlier.dominance_batches),
        }
    }
}

/// Reads the cumulative kernel counters for this process, after
/// flushing the calling thread's pending row reads and dominance
/// batches into the totals (see the module docs).
pub fn kernel_counters() -> KernelCounters {
    // Absent only during thread teardown, whose drop flushes anyway.
    let _ = LOCAL.try_with(LocalCounts::flush);
    KernelCounters {
        clock_row_reads: CLOCK_ROW_READS.load(Ordering::Relaxed),
        cut_successor_allocs: CUT_SUCCESSOR_ALLOCS.load(Ordering::Relaxed),
        vclock_allocs: VCLOCK_ALLOCS.load(Ordering::Relaxed),
        dominance_batches: DOMINANCE_BATCHES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_ordered_snapshots() {
        let a = KernelCounters {
            clock_row_reads: 10,
            cut_successor_allocs: 3,
            vclock_allocs: 1,
            dominance_batches: 2,
        };
        let b = KernelCounters {
            clock_row_reads: 25,
            cut_successor_allocs: 3,
            vclock_allocs: 2,
            dominance_batches: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.clock_row_reads, 15);
        assert_eq!(d.cut_successor_allocs, 0);
        assert_eq!(d.vclock_allocs, 1);
        assert_eq!(d.dominance_batches, 3);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    #[cfg(debug_assertions)]
    fn mixed_up_snapshot_pair_is_detected() {
        let a = KernelCounters {
            clock_row_reads: 10,
            cut_successor_allocs: 3,
            vclock_allocs: 1,
            dominance_batches: 2,
        };
        let b = KernelCounters {
            clock_row_reads: 25,
            cut_successor_allocs: 3,
            vclock_allocs: 2,
            dominance_batches: 5,
        };
        // `since` with the arguments swapped is a bug, not a zero delta.
        let _ = a.since(&b);
    }

    #[test]
    fn recording_is_monotone() {
        let before = kernel_counters();
        add_kernel_work(4, 2);
        record_cut_successor_alloc();
        record_vclock_alloc();
        let after = kernel_counters();
        // Other tests run concurrently in this process, so assert lower
        // bounds rather than exact deltas.
        assert!(after.clock_row_reads >= before.clock_row_reads + 4);
        assert!(after.cut_successor_allocs > before.cut_successor_allocs);
        assert!(after.vclock_allocs > before.vclock_allocs);
        assert!(after.dominance_batches >= before.dominance_batches + 2);
    }

    #[test]
    fn other_threads_counts_reach_the_totals_when_they_exit() {
        let before = kernel_counters();
        // The spawned thread never reads the counters itself: its cells
        // are flushed by its thread-exit destructor before `join`
        // returns.
        std::thread::spawn(|| add_kernel_work(7, 3)).join().unwrap();
        let after = kernel_counters();
        assert!(after.clock_row_reads >= before.clock_row_reads + 7);
        assert!(after.dominance_batches >= before.dominance_batches + 3);
    }
}
