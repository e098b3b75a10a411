//! Integration tests pinned to the flat causality kernel: CSR adjacency
//! edge cases (empty processes, zero events, zero processes), thread-count
//! invariance of the parallel enumerator over the shared kernels, the
//! Theorem 4 walk's witness cut, and the no-per-event-heap-allocation
//! guarantee of the row-major clock matrix.
//!
//! The allocation test asserts an **exact** zero delta on the process-wide
//! `vclock_allocs` counter, so every test in this binary must stay free of
//! `VectorClock` construction (`clock(e).to_owned()`, `VectorClock::from`,
//! clones) — tests run concurrently in one process.

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::{possibly_by_enumeration, possibly_by_enumeration_budgeted};
use gpd::{Budget, BudgetMeter};
use gpd_computation::{gen, Computation, ComputationBuilder, Cut, IntVariable};
use rand::SeedableRng;

/// `Possibly(Σ var = k)` through the planner: the Theorem 4 walk's
/// witness for ±1 steps.
fn possibly_exact_sum(comp: &Computation, var: &IntVariable, k: i64) -> Option<Cut> {
    let query = Query {
        comp,
        predicate: Predicate::ExactSum { var, k },
        modality: Modality::Possibly,
    };
    match gpd::detect(&query, &Options::default())
        .unwrap()
        .verdict
        .value()
    {
        Some(Answer::Witness(witness)) => witness.clone(),
        other => panic!("an unbudgeted Possibly question decides: {other:?}"),
    }
}

/// The budgeted level sweep at `threads` under an unlimited budget.
fn enumerate_at(
    comp: &Computation,
    predicate: impl Fn(&Cut) -> bool + Sync,
    threads: usize,
) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_by_enumeration_budgeted(comp, predicate, threads, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

#[test]
fn csr_handles_empty_middle_process() {
    // Processes with 2, 0, 3 events: the middle CSR row is empty.
    let mut b = ComputationBuilder::new(3);
    b.append(0);
    b.append(0);
    b.append(2);
    b.append(2);
    b.append(2);
    let comp = b.build().unwrap();
    assert_eq!(comp.events_on(0), 2);
    assert_eq!(comp.events_on(1), 0);
    assert_eq!(comp.events_on(2), 3);
    assert!(comp.events_of(1).is_empty());
    assert_eq!(comp.final_cut().frontier(), &[2, 0, 3]);
    // Without messages every frontier is consistent: 3 · 1 · 4 cuts.
    assert_eq!(comp.consistent_cuts().count(), 12);
    // Enabled moves from the initial cut skip the empty process.
    let succs = comp.cut_successors(&comp.initial_cut());
    let frontiers: Vec<&[u32]> = succs.iter().map(|c| c.frontier()).collect();
    assert_eq!(frontiers, vec![&[1, 0, 0][..], &[0, 0, 1][..]]);
}

#[test]
fn csr_handles_zero_events_and_zero_processes() {
    let comp = ComputationBuilder::new(2).build().unwrap();
    assert_eq!(comp.event_count(), 0);
    assert_eq!(comp.initial_cut(), comp.final_cut());
    assert_eq!(comp.consistent_cuts().count(), 1);
    assert!(comp.cut_successors(&comp.initial_cut()).is_empty());

    let empty = ComputationBuilder::new(0).build().unwrap();
    assert_eq!(empty.process_count(), 0);
    assert_eq!(empty.event_count(), 0);
    assert_eq!(empty.consistent_cuts().count(), 1);
    assert!(empty.is_consistent(&empty.initial_cut()));
}

#[test]
fn parallel_enumeration_verdicts_are_thread_count_invariant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    for round in 0..20 {
        let comp = gen::random_computation(&mut rng, 4, 5, 6);
        // A middling predicate: some frontier entries strictly ordered.
        let pred = |c: &gpd_computation::Cut| {
            let f = c.frontier();
            f[0] > f[1] && f[2] >= f[3] && f.iter().sum::<u32>() % 3 == 0
        };
        let seq = possibly_by_enumeration(&comp, pred);
        for threads in [1, 2, 4] {
            let par = enumerate_at(&comp, pred, threads);
            assert_eq!(
                seq.is_some(),
                par.is_some(),
                "round {round}, {threads} threads"
            );
            if let (Some(s), Some(p)) = (&seq, &par) {
                // Same lowest satisfying level, and a genuine witness.
                assert_eq!(
                    s.event_count(),
                    p.event_count(),
                    "round {round}, {threads} threads"
                );
                assert!(pred(p) && comp.is_consistent(p));
            }
        }
    }
}

#[test]
fn exact_sum_walk_witness_is_pinned() {
    // p0: a1, a2 (each +1) where a2 receives from p1's f1; p1: f1 (+0),
    // f2 (+1). The Theorem 4 walk from ⟨0,0⟩ must detour through f1
    // before a2 becomes enabled, so the k = 2 witness is exactly ⟨2,1⟩.
    let mut b = ComputationBuilder::new(2);
    let _a1 = b.append(0);
    let a2 = b.append(0);
    let f1 = b.append(1);
    b.append(1);
    b.message(f1, a2).unwrap();
    let comp = b.build().unwrap();
    let x = IntVariable::new(&comp, vec![vec![0, 1, 2], vec![0, 0, 1]]);
    let witness = possibly_exact_sum(&comp, &x, 2).unwrap();
    assert_eq!(witness.frontier(), &[2, 1]);
    assert_eq!(x.sum_at(&witness), 2);
}

#[test]
fn no_vector_clock_heap_allocation_in_build_or_queries() {
    let before = gpd_computation::kernel_counters();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2001);
    let comp = gen::random_computation(&mut rng, 5, 8, 12);
    // Exercise every hot path: clock views, pair orders, the lattice
    // sweep, and successor generation into a reused buffer.
    for e in comp.events() {
        let view = comp.clock(e);
        assert_eq!(view.len(), comp.process_count());
        for f in comp.events() {
            let _ = comp.leq(e, f);
        }
    }
    let mut succs = Vec::new();
    for cut in comp.consistent_cuts() {
        assert!(comp.is_consistent(&cut));
        comp.cut_successors_into(&cut, &mut succs);
    }
    let delta = gpd_computation::kernel_counters().since(&before);
    assert_eq!(
        delta.vclock_allocs, 0,
        "flat kernel must not allocate owned VectorClocks"
    );
    assert!(delta.clock_row_reads > 0, "row reads must be metered");
}
