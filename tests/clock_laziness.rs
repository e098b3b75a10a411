//! The vector-clock matrix is filled on the first clock read, not by the
//! build. A counting global allocator watches for blocks of exactly the
//! matrix's size (`event_count × process_count × 4` bytes) and records
//! the largest block, so the checks are exact and noise-free:
//!
//! - from trace text to verdict, the closure routes of `gpd::detect`
//!   (Possibly(Σ relop K), Possibly(count) and the ±1 Possibly(Σ = K))
//!   never allocate the matrix on ~5000-event protocol traces;
//! - a clock-reading route allocates it exactly once, also when two
//!   pool workers race to make the first read, and the rows then equal
//!   those of a copy filled on one thread beforehand.
//!
//! Pool workers allocate on their own threads, so the allocator counts
//! process-wide and the binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::{Relop, SymmetricPredicate};
use gpd_computation::trace::{read_trace, write_trace, Trace};
use gpd_computation::{gen, BoolVariable, Computation, EventId, IntVariable, ProcessId};
use gpd_sim::protocols::{BankBranch, RicartAgrawala, TokenRing};
use gpd_sim::{Process, SimConfig, Simulation};
use rand::SeedableRng;

struct Counting;

static WATCHING: AtomicBool = AtomicBool::new(false);
static MATRIX_BYTES: AtomicUsize = AtomicUsize::new(0);
static MATRIX_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size == MATRIX_BYTES.load(Ordering::Relaxed) {
            MATRIX_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` while the allocator watches for blocks of `comp`'s clock
/// matrix size; returns `f`'s value, the number of such blocks and the
/// largest block allocated.
fn watched<T>(events: usize, processes: usize, f: impl FnOnce() -> T) -> (T, usize, usize) {
    MATRIX_BYTES.store(events * processes * 4, Ordering::Relaxed);
    MATRIX_BLOCKS.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    WATCHING.store(true, Ordering::SeqCst);
    let out = f();
    WATCHING.store(false, Ordering::SeqCst);
    let blocks = MATRIX_BLOCKS.load(Ordering::Relaxed);
    (out, blocks, LARGEST.load(Ordering::Relaxed))
}

/// The text of a simulated run of `processes`, capped at `max_events`.
fn simulated<P: Process>(processes: Vec<P>, seed: u64, max_events: usize) -> String {
    let sim = Simulation::new(processes, SimConfig::new(seed).with_max_events(max_events)).run();
    let bools: Vec<_> = sim.bool_vars.iter().map(|(n, v)| (n.as_str(), v)).collect();
    let ints: Vec<_> = sim.int_vars.iter().map(|(n, v)| (n.as_str(), v)).collect();
    write_trace(&sim.computation, &bools, &ints)
}

/// Reads `text` and answers one Possibly question on it, the way
/// `gpd detect` does; returns the witness and the matrix-sized blocks.
fn possibly(text: &str, ask: impl Fn(&Trace) -> Predicate<'_>) -> (bool, usize, usize, usize) {
    let shape = read_trace(text).unwrap().computation;
    let (events, processes) = (shape.event_count(), shape.process_count());
    let (witness, blocks, largest) = watched(events, processes, || {
        let trace = read_trace(text).unwrap();
        let query = Query {
            comp: &trace.computation,
            predicate: ask(&trace),
            modality: Modality::Possibly,
        };
        let report = gpd::detect(&query, &Options::default()).unwrap();
        match report.verdict.value() {
            Some(Answer::Witness(w)) => w.is_some(),
            other => panic!("not a Possibly answer: {other:?}"),
        }
    });
    (witness, blocks, largest, events * processes * 4)
}

/// A question on a read trace, borrowing its variables.
type Ask = dyn Fn(&Trace) -> Predicate<'_>;

fn int<'t>(trace: &'t Trace, name: &str) -> &'t IntVariable {
    &trace.int_vars.iter().find(|(n, _)| n == name).unwrap().1
}

fn boolean<'t>(trace: &'t Trace, name: &str) -> &'t BoolVariable {
    &trace.bool_vars.iter().find(|(n, _)| n == name).unwrap().1
}

/// The rows of every event, read one by one.
fn rows(comp: &Computation) -> Vec<Vec<u32>> {
    comp.events()
        .map(|e| comp.clock(e).as_slice().to_vec())
        .collect()
}

#[test]
fn closure_routes_never_fill_the_clock_matrix_and_readers_fill_it_once() {
    let mutex = simulated(RicartAgrawala::group(8, 400), 1, 5_000);
    let ring = simulated(TokenRing::ring(40, 16), 2, 14_000);
    let bank = simulated(BankBranch::network(8, 100, 700, 50), 3, 5_000);
    // The questions borrow these for every trace the routes read.
    let two: &'static SymmetricPredicate = Box::leak(Box::new(SymmetricPredicate::exactly(2)));
    let pair: &'static [ProcessId] = Vec::leak(vec![ProcessId::new(0), ProcessId::new(1)]);
    let closure_routes: [(&str, &str, &Ask); 4] = [
        ("count in_cs exactly 2", &mutex, &|t| Predicate::Symmetric {
            var: boolean(t, "in_cs"),
            predicate: two,
        }),
        ("sum tokens == 10", &ring, &|t| Predicate::ExactSum {
            var: int(t, "tokens"),
            k: 10,
        }),
        ("sum tokens < 16", &ring, &|t| Predicate::Sum {
            var: int(t, "tokens"),
            relop: Relop::Lt,
            k: 16,
        }),
        ("sum balance <= 740", &bank, &|t| Predicate::Sum {
            var: int(t, "balance"),
            relop: Relop::Le,
            k: 740,
        }),
    ];
    for (question, text, ask) in closure_routes {
        let (_, blocks, largest, matrix) = possibly(text, ask);
        assert!(
            matrix >= 150_000,
            "{question}: a {matrix}-byte matrix is too small to tell"
        );
        assert_eq!(
            blocks, 0,
            "{question}: {blocks} blocks of the {matrix}-byte clock matrix (largest block {largest})"
        );
    }

    // A conjunction reads clocks: one fill, in its engine.
    let (found, blocks, largest, matrix) = possibly(&mutex, |t| Predicate::Conjunction {
        var: boolean(t, "requesting"),
        processes: pair,
    });
    assert!(found);
    assert_eq!(
        blocks, 1,
        "the conjunction filled the matrix {blocks} times"
    );
    assert!(largest >= matrix);

    // Two pool workers race to make the first read of fresh copies of
    // one computation; each copy is filled exactly once, and its rows
    // equal those of a copy filled on this thread beforehand.
    let comp = read_trace(&ring).unwrap().computation;
    let (events, processes) = (comp.event_count(), comp.process_count());
    let eager = comp.clone();
    let expected = rows(&eager);
    for round in 0..8 {
        let fresh = comp.clone();
        let (reads, blocks, _) = watched(events, processes, || {
            gpd::par::map_indexed(2, events, |e| {
                let e = EventId::from_index(e);
                fresh.clock_component(e, fresh.process_of(e).index())
            })
        });
        assert_eq!(
            blocks, 1,
            "round {round}: {blocks} fills under two racing workers"
        );
        assert_eq!(reads.len(), events);
        for (e, row) in rows(&fresh).iter().enumerate() {
            assert_eq!(row, &expected[e], "round {round}: row {e} differs");
        }
    }

    // A Definitely level sweep at two threads over the whole lattice (a
    // count of 5 on 4 processes never holds): its wide levels fan out to
    // the pool, and the whole sweep fills the matrix once.
    let rng = &mut rand::rngs::StdRng::seed_from_u64(11);
    let small = gen::random_computation(rng, 4, 7, 6);
    let flag = gen::random_bool_variable(rng, &small, 0.4);
    let five = SymmetricPredicate::exactly(5);
    let (events, processes) = (small.event_count(), small.process_count());
    let before = gpd::counters::snapshot();
    let (verdict, blocks, _) = watched(events, processes, || {
        let query = Query {
            comp: &small,
            predicate: Predicate::Symmetric {
                var: &flag,
                predicate: &five,
            },
            modality: Modality::Definitely,
        };
        let options = Options {
            threads: 2,
            ..Options::default()
        };
        gpd::detect(&query, &options).unwrap().verdict
    });
    assert_eq!(verdict.value(), Some(&Answer::Holds(false)));
    let waves = gpd::counters::snapshot().since(&before).par_waves;
    assert!(waves > 0, "no level fanned out to the pool");
    assert_eq!(
        blocks, 1,
        "the two-thread sweep filled the matrix {blocks} times"
    );
}
