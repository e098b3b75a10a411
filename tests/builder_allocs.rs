//! `ComputationBuilder::build` allocates a constant number of times,
//! whatever the number of events: the CSR lists, the finish order and
//! the sweep's scratch are each one allocation, and nothing is allocated
//! per event. The clock matrix is not among them: the first clock read
//! fills it in one allocation, and later reads allocate nothing. A
//! counting global allocator makes this an exact, noise-free check, so
//! the binary holds this one test and nothing else allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use gpd_computation::{ComputationBuilder, EventId};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A token ring over 8 processes with `events` events: token passes,
/// with an internal event every third pass, appended interleaved across
/// processes so the build's sweep stalls on receives.
fn token_ring(events: usize) -> ComputationBuilder {
    let n = 8;
    let mut b = ComputationBuilder::new(n);
    let mut holder = 0;
    let mut hop = 0;
    while b.event_count() + 2 <= events {
        if hop % 3 == 0 && b.event_count() + 3 <= events {
            b.append((hop * 5) % n);
        }
        let next = (holder + 1 + hop % (n - 1)) % n;
        let s = b.append(holder);
        let r = b.append(next);
        b.message(s, r).unwrap();
        holder = next;
        hop += 1;
    }
    if b.event_count() < events {
        b.append(holder);
    }
    b
}

/// The allocator calls (alloc, alloc_zeroed, realloc) made by `f`.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// The allocator calls made by one build, then by the first and the
/// second clock read of what it built.
fn build_allocs(b: ComputationBuilder) -> (usize, usize) {
    let events = b.event_count();
    let (comp, count) = allocs(|| b.build().unwrap());
    assert_eq!(comp.event_count(), events);
    let last = EventId::from_index(events - 1);
    let (_, first_read) = allocs(|| comp.clock_component(last, 0));
    let (_, second_read) = allocs(|| comp.clock(last).get(1));
    assert_eq!((first_read, second_read), (1, 0), "clock reads allocated");
    (events, count)
}

#[test]
fn build_allocates_a_constant_number_of_times() {
    let (small_events, small) = build_allocs(token_ring(500));
    let (large_events, large) = build_allocs(token_ring(5000));
    assert_eq!(small_events, 500);
    assert_eq!(large_events, 5000);
    assert_eq!(
        small, large,
        "build made {small} allocations for {small_events} events, {large} for {large_events}"
    );
    // Three CSR families of two arrays each, the finish order (it took
    // the clock matrix's place), the pending counts, the cursors and the
    // worklist, plus one shrinking realloc for each of the four builder
    // columns handed over as boxed slices (none of them was reserved to
    // its exact length here).
    assert_eq!(small, 14, "build made {small} allocations");
}
