//! `read_trace` allocates a fixed number of times plus one per
//! (variable, process) track: nothing per message, per value or per
//! line. Tracks are reserved at their declared length and messages at a
//! bound taken from the text's size, so doubling the messages or every
//! track's length leaves the count unchanged. A counting global
//! allocator makes this an exact, noise-free check, so the binary holds
//! this one test and nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use gpd_computation::gen;
use gpd_computation::trace::{read_trace, write_trace};
use rand::SeedableRng;

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

/// The text of a random trace over `processes` processes with `events`
/// events each and `messages` messages, annotated with two boolean and
/// two integer variables.
fn trace_text(processes: usize, events: usize, messages: usize) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let comp = gen::random_computation(&mut rng, processes, events, messages);
    let (b1, b2) = (
        gen::random_bool_variable(&mut rng, &comp, 0.5),
        gen::random_bool_variable(&mut rng, &comp, 0.3),
    );
    let (x, y) = (
        gen::random_unit_int_variable(&mut rng, &comp),
        gen::random_int_variable(&mut rng, &comp, 1000),
    );
    write_trace(
        &comp,
        &[("ready", &b1), ("busy", &b2)],
        &[("x", &x), ("y", &y)],
    )
}

/// The allocator calls (alloc, alloc_zeroed, realloc) made by one parse.
fn parse_allocs(text: &str) -> usize {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let trace = read_trace(text);
    COUNTING.with(|c| c.set(false));
    let count = ALLOCS.load(Ordering::Relaxed);
    assert!(trace.is_ok(), "{:?}", trace.err());
    count
}

#[test]
fn parse_allocates_a_constant_plus_one_per_track() {
    let base = parse_allocs(&trace_text(6, 40, 60));
    let more_messages = parse_allocs(&trace_text(6, 40, 120));
    let longer_tracks = parse_allocs(&trace_text(6, 80, 60));
    assert_eq!(
        base, more_messages,
        "doubling the messages changed the allocation count"
    );
    assert_eq!(
        base, longer_tracks,
        "doubling every track's length changed the allocation count"
    );
    // Four variables: six more processes are 24 more tracks, each one
    // allocation, and nothing else grows.
    let wider = parse_allocs(&trace_text(12, 40, 60));
    assert_eq!(
        wider - base,
        4 * 6,
        "{base} allocations on 6 processes, {wider} on 12"
    );
    // Past the 24 tracks: the process table, the builder's five columns
    // and the 11 allocations of its build (17); a name map and a result
    // list for each kind of variable (4); a slot list and an owned name
    // per variable (8).
    assert_eq!(base - 4 * 6, 29, "{base} allocations for 24 tracks");
}
