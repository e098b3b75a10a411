//! Graceful degradation end-to-end: budgeted engines interrupted by a
//! deadline or node cap return `Unknown` with a checkpoint, and resuming
//! from that checkpoint reproduces the uninterrupted verdict — and
//! witness — **byte-for-byte**, at every thread count. Partial bounds
//! carried by `Unknown` verdicts are sound.

use std::time::Duration;

use gpd::enumerate::{
    definitely_levelwise_budgeted, possibly_by_enumeration, possibly_by_enumeration_budgeted,
};
use gpd::singular::possibly_singular_subsets_budgeted;
use gpd::slice::{cnf_envelope, possibly_by_enumeration_sliced_budgeted, Slice};
use gpd::{Budget, BudgetMeter, Checkpoint, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{BoolVariable, Computation, ComputationBuilder, Cut, ProcessId};

/// The E5 "wide unsat" workload shape from the benchmark harness
/// (`gpd_bench::wide_unsat_singular_workload` with `groups = 0`),
/// rebuilt locally: a 4-process conflict gadget whose only candidate
/// true-states are mutually inconsistent through one message, padded
/// with `pad` internal events per process so the cut lattice is large
/// enough that a short deadline reliably interrupts the sweep.
fn wide_unsat(pad: usize) -> (Computation, BoolVariable, SingularCnf) {
    let mut b = ComputationBuilder::new(4);
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 0..4 {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..4).map(|p| vec![false; comp.events_on(p) + 1]).collect();
    tracks[0][2] = true; // after e02
    tracks[2][1] = true; // after u1
    let var = BoolVariable::new(&comp, tracks);
    let predicate = SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(0), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true)]),
    ]);
    (comp, var, predicate)
}

/// Drives a budgeted enumeration to completion by resuming from each
/// checkpoint with the same per-leg budget, counting the legs.
fn resume_to_completion<F: Fn(&Cut) -> bool + Sync>(
    comp: &Computation,
    predicate: &F,
    threads: usize,
    leg_budget: &Budget,
    first: Verdict<Option<Cut>>,
) -> (Verdict<Option<Cut>>, usize) {
    let mut verdict = first;
    let mut legs = 1;
    while let Some(cp) = verdict.checkpoint().cloned() {
        let meter = BudgetMeter::new();
        verdict = possibly_by_enumeration_budgeted(
            comp,
            predicate,
            threads,
            leg_budget,
            &meter,
            Some(&cp),
        )
        .expect("resume succeeds");
        legs += 1;
        assert!(legs < 10_000, "resume chain must terminate");
    }
    (verdict, legs)
}

#[test]
fn deadline_interrupt_then_unlimited_resume_is_byte_identical() {
    let (comp, var, phi) = wide_unsat(18);
    let predicate = |cut: &Cut| phi.eval(&var, cut);
    for threads in [1usize, 2, 4] {
        // Uninterrupted reference run.
        let meter = BudgetMeter::new();
        let reference = possibly_by_enumeration_budgeted(
            &comp,
            predicate,
            threads,
            &Budget::unlimited(),
            &meter,
            None,
        )
        .unwrap();
        assert!(reference.is_decided());
        assert_eq!(reference.value(), Some(&None), "the gadget is unsat");

        // Interrupted run: 10ms on a ~160k-cut lattice stops mid-sweep.
        let tight = Budget::unlimited().with_deadline(Duration::from_millis(10));
        let meter = BudgetMeter::new();
        let interrupted =
            possibly_by_enumeration_budgeted(&comp, predicate, threads, &tight, &meter, None)
                .unwrap();
        let Verdict::Unknown(partial) = &interrupted else {
            panic!("10ms deadline must interrupt the sweep (threads={threads})");
        };
        assert!(partial.progress.levels_swept.is_some());

        // Unlimited resume must land on the identical outcome.
        let meter = BudgetMeter::new();
        let resumed = possibly_by_enumeration_budgeted(
            &comp,
            predicate,
            threads,
            &Budget::unlimited(),
            &meter,
            Some(&partial.checkpoint),
        )
        .unwrap();
        assert_eq!(resumed.value(), reference.value(), "threads={threads}");
    }
}

#[test]
fn node_cap_resume_chain_reaches_the_uninterrupted_witness() {
    // Satisfiable: the padded gadget with the conflict edge removed.
    let mut b = ComputationBuilder::new(3);
    for p in 0..3 {
        for _ in 0..5 {
            b.append(p);
        }
    }
    let comp = b.build().unwrap();
    let predicate = |cut: &Cut| cut.frontier().iter().all(|&f| f >= 3);

    for threads in [1usize, 2, 4] {
        let meter = BudgetMeter::new();
        let reference = possibly_by_enumeration_budgeted(
            &comp,
            predicate,
            threads,
            &Budget::unlimited(),
            &meter,
            None,
        )
        .unwrap();
        let expected = reference.value().unwrap().clone().expect("satisfiable");

        let leg = Budget::unlimited().with_max_nodes(40);
        let meter = BudgetMeter::new();
        let first = possibly_by_enumeration_budgeted(&comp, predicate, threads, &leg, &meter, None)
            .unwrap();
        let (final_verdict, legs) = resume_to_completion(&comp, &predicate, threads, &leg, first);
        assert!(legs > 1, "a 40-node leg cannot finish in one go");
        let witness = final_verdict.value().unwrap().clone().expect("satisfiable");
        // Byte-identical witness: same frontier on every process.
        assert_eq!(witness, expected, "threads={threads}");
    }
}

#[test]
fn unknown_bounds_are_sound() {
    // levels_swept from an interrupted run can never reach the level of
    // the minimal witness — those levels were probed witness-free.
    let mut b = ComputationBuilder::new(3);
    for p in 0..3 {
        for _ in 0..6 {
            b.append(p);
        }
    }
    let comp = b.build().unwrap();
    let predicate = |cut: &Cut| cut.frontier().iter().all(|&f| f >= 4);
    let meter = BudgetMeter::new();
    let full =
        possibly_by_enumeration_budgeted(&comp, predicate, 2, &Budget::unlimited(), &meter, None)
            .unwrap();
    let min_level = full.value().unwrap().as_ref().unwrap().event_count() as u32;

    for cap in [1u64, 10, 50, 120] {
        let budget = Budget::unlimited().with_max_nodes(cap);
        let meter = BudgetMeter::new();
        let verdict =
            possibly_by_enumeration_budgeted(&comp, predicate, 2, &budget, &meter, None).unwrap();
        if let Verdict::Unknown(partial) = verdict {
            let swept = partial.progress.levels_swept.expect("levelwise bound");
            assert!(
                swept <= min_level,
                "cap {cap}: swept {swept} past the minimal witness level {min_level}"
            );
            assert!(partial.progress.nodes_explored > 0 || cap == 1);
        }
    }
}

#[test]
fn odometer_engine_resumes_to_the_unbudgeted_verdict() {
    let (comp, var, phi) = wide_unsat(2);
    let (unlimited, meter) = (Budget::unlimited(), BudgetMeter::new());
    let unbudgeted =
        possibly_singular_subsets_budgeted(&comp, &var, &phi, 0, &unlimited, &meter, None).unwrap();
    assert_eq!(unbudgeted.value(), Some(&None));

    for threads in [1usize, 2, 4] {
        let leg = Budget::unlimited().with_max_nodes(3);
        let meter = BudgetMeter::new();
        let mut verdict =
            possibly_singular_subsets_budgeted(&comp, &var, &phi, threads, &leg, &meter, None)
                .unwrap();
        let mut legs = 1;
        let mut last_eliminated = 0u64;
        while let Some(cp) = verdict.checkpoint().cloned() {
            // Progress is monotone: each leg eliminates combinations.
            let eliminated = verdict
                .progress()
                .combinations_eliminated
                .expect("odometer bound");
            assert!(eliminated >= last_eliminated, "threads={threads}");
            last_eliminated = eliminated;
            let meter = BudgetMeter::new();
            verdict = possibly_singular_subsets_budgeted(
                &comp,
                &var,
                &phi,
                threads,
                &leg,
                &meter,
                Some(&cp),
            )
            .unwrap();
            legs += 1;
            assert!(legs < 10_000, "resume chain must terminate");
        }
        assert_eq!(verdict.value(), Some(&None), "threads={threads}");
        assert_eq!(
            verdict.progress().combinations_eliminated,
            verdict.progress().combinations_total,
            "a finished sweep eliminated the whole space"
        );
    }
}

#[test]
fn panicking_predicate_is_contained_at_every_thread_count() {
    let mut b = ComputationBuilder::new(2);
    for p in 0..2 {
        for _ in 0..4 {
            b.append(p);
        }
    }
    let comp = b.build().unwrap();
    let bomb = |cut: &Cut| {
        if cut.event_count() == 3 {
            panic!("predicate bomb");
        }
        false
    };
    for threads in [1usize, 2, 4] {
        let meter = BudgetMeter::new();
        let err = possibly_by_enumeration_budgeted(
            &comp,
            bomb,
            threads,
            &Budget::unlimited(),
            &meter,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(&err, DetectError::PredicatePanicked(m) if m.contains("predicate bomb")),
            "threads={threads}: {err:?}"
        );
        // The process — and the engine — are still healthy afterwards.
        let after = possibly_by_enumeration(&comp, |cut: &Cut| cut.event_count() == 8);
        assert!(after.is_some(), "threads={threads}");
    }
}

#[test]
fn checkpoints_roundtrip_and_reject_tampering() {
    let (comp, var, phi) = wide_unsat(4);
    let predicate = |cut: &Cut| phi.eval(&var, cut);
    let budget = Budget::unlimited().with_max_nodes(5);
    let meter = BudgetMeter::new();
    let verdict =
        possibly_by_enumeration_budgeted(&comp, predicate, 2, &budget, &meter, None).unwrap();
    let cp = verdict.checkpoint().expect("5 nodes cannot finish").clone();

    // Text roundtrip is the identity.
    let text = cp.to_text();
    let back = Checkpoint::from_text(&text).expect("own output parses");
    assert_eq!(back, cp);
    assert_eq!(back.digest(), cp.digest());

    // Tampering with the payload breaks the digest.
    let tampered = text.replace("level ", "level 9");
    assert_ne!(tampered, text);
    assert!(Checkpoint::from_text(&tampered).is_err());

    // A checkpoint from one computation is rejected by another.
    let (other, other_var, other_phi) = wide_unsat(5);
    let other_pred = |cut: &Cut| other_phi.eval(&other_var, cut);
    let meter = BudgetMeter::new();
    let err = possibly_by_enumeration_budgeted(
        &other,
        other_pred,
        2,
        &Budget::unlimited(),
        &meter,
        Some(&cp),
    )
    .unwrap_err();
    assert!(matches!(err, DetectError::CheckpointMismatch(_)), "{err:?}");

    // A level checkpoint handed to the odometer engine is rejected too.
    let meter = BudgetMeter::new();
    let err = possibly_singular_subsets_budgeted(
        &comp,
        &var,
        &phi,
        2,
        &Budget::unlimited(),
        &meter,
        Some(&cp),
    )
    .unwrap_err();
    assert!(matches!(err, DetectError::CheckpointMismatch(_)), "{err:?}");
}

/// The deterministic part of a width-capped sweep's `Unknown` verdict:
/// reason, levels swept and checkpoint text.
fn width_outcome<T: std::fmt::Debug>(
    verdict: Verdict<T>,
) -> (gpd::ExhaustReason, Option<u32>, String) {
    let Verdict::Unknown(partial) = verdict else {
        panic!("a 4-cut width cap cannot cover a 4-process lattice, got {verdict:?}");
    };
    (
        partial.reason,
        partial.progress.levels_swept,
        partial.checkpoint.to_text(),
    )
}

#[test]
fn width_cap_reports_width_exhaustion() {
    let (comp, var, phi) = wide_unsat(8);
    let predicate = |cut: &Cut| phi.eval(&var, cut);
    // Φ implies its first unit clause, whose slice window is not empty.
    let first = SingularCnf::new(vec![CnfClause::new(vec![(ProcessId::new(0), true)])]);
    let envelope = cnf_envelope(&comp, &var, &first).expect("a unit clause");
    let slice = Slice::build(&comp, &envelope);
    assert!(!slice.is_empty());
    let budget = Budget::unlimited().with_max_width(4);
    // The verdict of each sweep must not depend on the thread count.
    let check = |name: &str, run: &dyn Fn(usize) -> (gpd::ExhaustReason, Option<u32>, String)| {
        let reference = run(0);
        assert_eq!(reference.0, gpd::ExhaustReason::Width, "{name}");
        for threads in [1, 2, 4] {
            assert_eq!(run(threads), reference, "{name}, threads {threads}");
        }
    };
    check("possibly", &|threads| {
        let meter = BudgetMeter::new();
        width_outcome(
            possibly_by_enumeration_budgeted(&comp, predicate, threads, &budget, &meter, None)
                .unwrap(),
        )
    });
    check("sliced possibly", &|threads| {
        let meter = BudgetMeter::new();
        width_outcome(
            possibly_by_enumeration_sliced_budgeted(
                &comp, &slice, predicate, threads, &budget, &meter, None,
            )
            .unwrap(),
        )
    });
    check("definitely", &|threads| {
        let meter = BudgetMeter::new();
        width_outcome(
            definitely_levelwise_budgeted(&comp, predicate, threads, &budget, &meter, None)
                .unwrap(),
        )
    });
}
