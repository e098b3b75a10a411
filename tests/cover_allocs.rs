//! The §3.3 chain cover of a clause allocates in proportion to its
//! states times its literals, never to the comparable pairs among the
//! states: each state's successors are one range per literal. A counting
//! global allocator makes this an exact, noise-free check, so the binary
//! holds this one test and nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use gpd::singular::chain_cover_sizes;
use gpd::{CnfClause, SingularCnf};
use gpd_computation::BoolVariable;
use gpd_sim::protocols::RicartAgrawala;
use gpd_sim::{SimConfig, Simulation};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
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

#[test]
fn clause_cover_allocates_per_state_and_literal() {
    let sim = Simulation::new(
        RicartAgrawala::group(8, 400),
        SimConfig::new(1).with_max_events(5_000),
    )
    .run();
    let comp = &sim.computation;
    assert_eq!(comp.event_count(), 5_000);
    let track = |name: &str, p: usize| -> Vec<bool> {
        let (_, var) = sim
            .bool_vars
            .iter()
            .find(|(n, _)| n == name)
            .expect("Ricart–Agrawala records the variable");
        var.tracks()[p].clone()
    };
    // `in_cs@2 | requesting@3`, with the literal truths as one variable
    // the way `gpd detect` builds it.
    let mut tracks: Vec<Vec<bool>> = (0..comp.process_count())
        .map(|p| vec![false; comp.events_on(p) + 1])
        .collect();
    tracks[2] = track("in_cs", 2);
    tracks[3] = track("requesting", 3);
    let states = tracks[2].iter().chain(&tracks[3]).filter(|&&v| v).count();
    let x = BoolVariable::new(comp, tracks);
    let phi = SingularCnf::new(vec![CnfClause::new(vec![
        (2.into(), true),
        (3.into(), true),
    ])]);
    let literals = 2;
    // The clock matrix belongs to the computation and is filled by its
    // first clock read: fill it first, so only the cover's bytes count.
    comp.clock(comp.events_of(0)[0]);

    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let sizes = chain_cover_sizes(comp, &x, &phi);
    COUNTING.with(|c| c.set(false));
    let bytes = BYTES.load(Ordering::Relaxed);

    assert!(states > 500, "{states} states");
    assert_eq!(sizes, vec![2]);
    assert!(
        bytes <= 128 * states * literals,
        "{bytes} bytes for {states} states x {literals} literals"
    );
}
