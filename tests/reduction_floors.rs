//! Exact reduction floors of three work-saving techniques, each against
//! the plain method it replaces on a fixed `gpd_bench` workload:
//!
//! * the incremental §3.3 scan vs the restart-from-scratch reference
//!   (`forces` evaluations, process-global scan counters);
//! * the SliceReduce pre-pass vs plain lattice enumeration (budget-meter
//!   nodes, and the event graph shrink on the process-global slice
//!   counters) — *Techniques and Applications of Computation Slicing*;
//! * per-process relevance slicing vs shipping every local state to a
//!   central checker (messages sent).
//!
//! Each section asserts the floor the technique exists for and today's
//! exact counts, so a change that keeps the floor but moves the work
//! still shows up. This binary holds a single test so nothing else
//! running in the process can move the counters.

use gpd::abstraction::{Decision, LocalSlicer};
use gpd::counters;
use gpd::enumerate::possibly_by_enumeration_budgeted;
use gpd::online::ConjunctiveMonitor;
use gpd::singular::{possibly_singular_subsets_budgeted, possibly_singular_subsets_reference};
use gpd::slice::{cnf_envelope, possibly_by_enumeration_sliced_budgeted, Slice};
use gpd::{Budget, BudgetMeter};
use gpd_bench::{sliced_unsat_workload, wide_unsat_singular_workload};
use gpd_computation::{gen, VectorClock};
use rand::SeedableRng;

/// The incremental scan settles each clause prefix once; the reference
/// restarts every literal combination from scratch. On the wide
/// unsatisfiable workload both reject, and the incremental side does at
/// most half the `forces` work.
fn incremental_scan_halves_forces_evaluations() {
    let (comp, var, phi) = wide_unsat_singular_workload(10, 2, 4);

    let before = counters::snapshot();
    let reference = possibly_singular_subsets_reference(&comp, &var, &phi);
    let reference_forces = counters::snapshot().since(&before).forces_evals;

    let (unlimited, meter) = (Budget::unlimited(), BudgetMeter::new());
    let before = counters::snapshot();
    let incremental =
        possibly_singular_subsets_budgeted(&comp, &var, &phi, 0, &unlimited, &meter, None)
            .expect("no checkpoint, no panic");
    let incremental_forces = counters::snapshot().since(&before).forces_evals;
    let incremental = incremental
        .value()
        .expect("unlimited budgets decide")
        .clone();

    assert_eq!(reference, None, "the workload is unsatisfiable");
    assert_eq!(incremental, reference, "witness mismatch");
    assert!(
        incremental_forces * 2 <= reference_forces,
        "expected ≥2× fewer forces evaluations: reference {reference_forces} vs \
         incremental {incremental_forces}"
    );
    assert_eq!(
        (reference_forces, incremental_forces),
        (32, 2),
        "forces evaluations (reference, incremental)"
    );
}

/// The unit-clause envelope pins every padding process to its initial
/// state, so the sliced sweep walks the gadget's few cuts while the
/// unsliced sweep rejects through the whole padded lattice. Witnesses
/// are byte-identical on the unsatisfiable and the satisfiable variant.
fn slice_reduce_enumerates_a_quarter_of_the_nodes() {
    let (comp, var, unsat, sat) = sliced_unsat_workload(2, 4);
    // (name, predicate, unsliced nodes, sliced nodes)
    let rows = [("unsat", &unsat, 2727, 39), ("sat", &sat, 530, 39)];
    for (name, phi, plain_nodes, sliced_nodes) in rows {
        let env = cnf_envelope(&comp, &var, phi).expect("unit clauses present");
        let before = counters::snapshot();
        let slice = Slice::build(&comp, &env);
        let work = counters::snapshot().since(&before);
        let graph = (work.slice_nodes_before, work.slice_nodes_after);

        let plain_meter = BudgetMeter::new();
        let plain = possibly_by_enumeration_budgeted(
            &comp,
            |c| phi.eval(&var, c),
            0,
            &Budget::unlimited(),
            &plain_meter,
            None,
        )
        .expect("no resume checkpoint");
        let sliced_meter = BudgetMeter::new();
        let sliced = possibly_by_enumeration_sliced_budgeted(
            &comp,
            &slice,
            |c| phi.eval(&var, c),
            0,
            &Budget::unlimited(),
            &sliced_meter,
            None,
        )
        .expect("no resume checkpoint");
        let nodes = (plain_meter.nodes(), sliced_meter.nodes());

        assert!(
            graph.1 < graph.0,
            "{name}: the event graph must shrink, got {graph:?}"
        );
        if name == "unsat" {
            assert!(
                nodes.0 >= 4 * nodes.1,
                "{name}: expected ≥4× fewer enumerated nodes, got {nodes:?}"
            );
        }
        assert_eq!(graph, (12, 4), "{name}: event graph before → after");
        assert_eq!(
            nodes,
            (plain_nodes, sliced_nodes),
            "{name}: enumerated nodes (unsliced, sliced)"
        );
        let witness = plain.value().expect("unlimited budgets decide");
        assert_eq!(witness.is_some(), name == "sat", "{name}: verdict");
        assert_eq!(
            Some(witness),
            sliced.value(),
            "{name}: sliced witness must be byte-identical"
        );
    }
}

/// One `LocalSlicer` per process forwards only the states where the
/// local predicate holds, plus a causal summary every 64 skips. On a
/// sparse predicate over 64 processes that is ≥4× fewer messages than
/// local states, and a monitor fed only the forwarded states reaches the
/// centralized witness.
fn decentralized_abstraction_sends_a_quarter_of_the_states() {
    let (n, events_per_process, density) = (64, 12, 0.05);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a11);
    let events = n * events_per_process;
    let comp = gen::random_computation(&mut rng, n, events, events / 2);
    let x = gen::random_bool_variable(&mut rng, &comp, density);
    let streams = gpd_sim::local_streams(&comp, &x);

    // Feeds `states` (local index, process) to a fresh monitor in
    // canonical order and returns its witness.
    let witness_of = |mut states: Vec<(u32, usize)>| {
        states.sort_unstable();
        let mut monitor = ConjunctiveMonitor::with_initial(&streams.initial);
        for (k, p) in states {
            let e = comp.event_at(p, k).expect("state within the trace");
            monitor.observe(p, comp.clock(e).to_owned());
        }
        monitor.witness().map(|w| w.to_vec())
    };

    let mut trues = Vec::new();
    let mut forwards = Vec::new();
    let (mut states, mut messages) = (0u64, 0u64);
    for (p, stream) in streams.streams.iter().enumerate() {
        let mut slicer = LocalSlicer::new(p, 64);
        for (clock, is_true) in stream {
            if *is_true {
                trues.push((clock[p], p));
            }
            if slicer.admit(&VectorClock::from(clock.clone()), *is_true) == Decision::Forward {
                forwards.push((clock[p], p));
            }
        }
        let stats = slicer.stats();
        states += stats.observed;
        messages += stats.forwarded + stats.summarized;
    }

    assert!(
        4 * messages <= states,
        "expected ≥4× fewer messages than local states: {states} states vs {messages} messages"
    );
    assert_eq!(
        (states, messages),
        (49152, 2607),
        "(local states, messages)"
    );
    assert_eq!(
        witness_of(forwards),
        witness_of(trues),
        "the merged witness must equal the centralized one"
    );
}

#[test]
fn incremental_scan_slicing_and_abstraction_clear_their_reduction_floors() {
    incremental_scan_halves_forces_evaluations();
    slice_reduce_enumerates_a_quarter_of_the_nodes();
    decentralized_abstraction_sends_a_quarter_of_the_states();
}
