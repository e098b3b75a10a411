//! Graceful degradation end-to-end: budgeted engines interrupted by a
//! deadline or node cap return `Unknown` with a checkpoint, and resuming
//! from that checkpoint reproduces the uninterrupted verdict — and
//! witness — **byte-for-byte**, at every thread count. Partial bounds
//! carried by `Unknown` verdicts are sound.

mod support;

use std::time::Duration;

use gpd::detect::{Modality, Options, Predicate, Query};
use gpd::enumerate::{
    definitely_levelwise_budgeted, possibly_by_enumeration, possibly_by_enumeration_budgeted,
    POSSIBLY_ENUMERATE,
};
use gpd::relational::{possibly_exact_sum_budgeted, POSSIBLY_EXACT_SUM};
use gpd::singular::possibly_singular_subsets_budgeted;
use gpd::slice::{cnf_envelope, possibly_by_enumeration_sliced_budgeted, Slice};
use gpd::{Budget, BudgetMeter, Checkpoint, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{Computation, ComputationBuilder, Cut, IntVariable, ProcessId};
use gpd_sim::protocols::BankBranch;
use gpd_sim::{SimConfig, Simulation};

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
    let (comp, var, phi) = support::wide_unsat(18, 0, 0, 1);
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
    let (comp, var, phi) = support::wide_unsat(2, 0, 0, 1);
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
    let (comp, var, phi) = support::wide_unsat(4, 0, 0, 1);
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
    let (other, other_var, other_phi) = support::wide_unsat(5, 0, 0, 1);
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
    let (comp, var, phi) = support::wide_unsat(8, 0, 0, 1);
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

/// A seeded bank of `branches` branches: balances move by up to 50 per
/// event, so exact sums take the pruned sweep of
/// `possibly_exact_sum_budgeted`.
fn bank(branches: usize) -> (Computation, IntVariable) {
    let network = BankBranch::network(branches, 100, 3, 50);
    let trace = Simulation::new(network, SimConfig::new(19)).run();
    let balance = trace.int_var("balance").expect("bank balance").clone();
    (trace.computation, balance)
}

/// The least sum between the extremes that no cut attains (the sweep
/// must then visit everything it keeps), and a median attained sum.
fn unattained_and_attained(comp: &Computation, var: &IntVariable) -> (i64, i64) {
    let sums: std::collections::BTreeSet<i64> =
        comp.consistent_cuts().map(|c| var.sum_at(&c)).collect();
    let (lo, hi) = (*sums.first().unwrap(), *sums.last().unwrap());
    let unattained = (lo..=hi).find(|v| !sums.contains(v)).expect("steps of 50");
    (unattained, *sums.iter().nth(sums.len() / 2).unwrap())
}

/// The exact sum's pruned sweep under `budget`, from `resume`.
fn exact_sum(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    threads: usize,
    budget: &Budget,
    resume: Option<&Checkpoint>,
) -> Verdict<Option<Cut>> {
    let meter = BudgetMeter::new();
    possibly_exact_sum_budgeted(comp, var, k, threads, budget, &meter, resume)
        .expect("own checkpoints resume")
}

#[test]
fn exact_sum_node_cap_resume_chain_reaches_the_uninterrupted_outcome() {
    // Lattice levels up to 767 wide, past the sequential cutoff.
    let (comp, balance) = bank(6);
    let (unattained, attained) = unattained_and_attained(&comp, &balance);
    for k in [unattained, attained] {
        for threads in [0usize, 1, 2] {
            let at = format!("k={k}, threads={threads}");
            let meter = BudgetMeter::new();
            let reference = possibly_exact_sum_budgeted(
                &comp,
                &balance,
                k,
                threads,
                &Budget::unlimited(),
                &meter,
                None,
            )
            .unwrap();
            assert!(reference.is_decided(), "{at}");
            assert_eq!(reference.value().unwrap().is_some(), k == attained, "{at}");
            // Legs of a quarter of the work; `one_node_resume_chains_…`
            // below takes the cap down to one node.
            let leg = Budget::unlimited().with_max_nodes(meter.nodes() / 4);
            let mut verdict = exact_sum(&comp, &balance, k, threads, &leg, None);
            let mut legs = 1;
            while let Some(cp) = verdict.checkpoint().cloned() {
                assert_eq!(cp.detector(), POSSIBLY_EXACT_SUM, "{at}");
                let cp = Checkpoint::from_text(&cp.to_text()).expect("own output parses");
                verdict = exact_sum(&comp, &balance, k, threads, &leg, Some(&cp));
                legs += 1;
                assert!(legs < 10_000, "{at}: resume chain must terminate");
            }
            assert!(
                legs > 1,
                "{at}: a quarter of the work cannot finish in one go"
            );
            // Byte-identical verdict and witness.
            assert_eq!(verdict.value(), reference.value(), "{at}");
        }
    }
}

#[test]
fn exact_sum_checkpoints_are_refused_by_the_unpruned_sweep() {
    let (comp, balance) = bank(4);
    let (k, _) = unattained_and_attained(&comp, &balance);
    let sums_to_k = |c: &Cut| balance.sum_at(c) == k;
    let capped = Budget::unlimited().with_max_nodes(40);
    let pruned = exact_sum(&comp, &balance, k, 0, &capped, None);
    let cp = pruned.checkpoint().expect("40 nodes cannot finish");
    assert_eq!(cp.detector(), POSSIBLY_EXACT_SUM);
    // A pruned level is not a whole lattice level.
    let meter = BudgetMeter::new();
    let err = possibly_by_enumeration_budgeted(
        &comp,
        sums_to_k,
        0,
        &Budget::unlimited(),
        &meter,
        Some(cp),
    )
    .unwrap_err();
    assert!(matches!(err, DetectError::CheckpointMismatch(_)), "{err:?}");

    // The other way round is sound: a whole level of the unpruned sweep,
    // as the exact sum wrote it before the pruning, holds the pruned
    // level, and resumes to the uninterrupted outcome at every thread
    // count, its next checkpoint under the pruned sweep's name.
    let meter = BudgetMeter::new();
    let whole = possibly_by_enumeration_budgeted(&comp, sums_to_k, 0, &capped, &meter, None)
        .unwrap()
        .checkpoint()
        .expect("40 nodes cannot finish")
        .clone();
    assert_eq!(whole.detector(), POSSIBLY_ENUMERATE);
    let whole = Checkpoint::from_text(&whole.to_text()).expect("own output parses");
    for threads in [0usize, 1, 2] {
        let reference = exact_sum(&comp, &balance, k, threads, &Budget::unlimited(), None);
        let resumed = exact_sum(
            &comp,
            &balance,
            k,
            threads,
            &Budget::unlimited(),
            Some(&whole),
        );
        assert_eq!(resumed.value(), reference.value(), "threads={threads}");
        let next = exact_sum(&comp, &balance, k, threads, &capped, Some(&whole));
        let next = next.checkpoint().expect("one more capped leg stops again");
        assert_eq!(next.detector(), POSSIBLY_EXACT_SUM, "threads={threads}");
    }
}

#[test]
fn exact_sum_pruning_explores_fewer_nodes_at_every_thread_count() {
    // 17850 cuts in levels up to 767 wide.
    let (comp, balance) = bank(6);
    let (k, _) = unattained_and_attained(&comp, &balance);
    let unlimited = Budget::unlimited();
    let meter = BudgetMeter::new();
    let unpruned = possibly_by_enumeration_budgeted(
        &comp,
        |c| balance.sum_at(c) == k,
        0,
        &unlimited,
        &meter,
        None,
    )
    .unwrap();
    assert_eq!(unpruned.value(), Some(&None));
    let unpruned = meter.nodes();
    let mut pruned = None;
    for threads in [0usize, 1, 2, 4] {
        let meter = BudgetMeter::new();
        let verdict =
            possibly_exact_sum_budgeted(&comp, &balance, k, threads, &unlimited, &meter, None)
                .unwrap();
        assert_eq!(verdict.value(), Some(&None), "threads={threads}");
        let nodes = meter.nodes();
        assert_eq!(*pruned.get_or_insert(nodes), nodes, "threads={threads}");
    }
    let pruned = pruned.unwrap();
    assert!(
        pruned < unpruned,
        "pruned {pruned} vs unpruned {unpruned} nodes"
    );
}

/// Runs `run` under a one-node cap, then resumes it from each checkpoint
/// until it decides. A leg arms its node cap only after its first level,
/// so every resumed leg sweeps at least one level: the chain ends within
/// one leg per lattice level plus the first, on the uninterrupted
/// verdict and witness.
fn one_node_chain<T: PartialEq + std::fmt::Debug>(
    run: impl Fn(&Budget, Option<&Checkpoint>) -> Verdict<T>,
    levels: usize,
    at: &str,
) {
    let reference = run(&Budget::unlimited(), None);
    assert!(reference.is_decided(), "{at}");
    let one = Budget::unlimited().with_max_nodes(1);
    let mut verdict = run(&one, None);
    let mut legs = 1;
    while let Some(cp) = verdict.checkpoint().cloned() {
        assert!(legs <= levels, "{at}: leg {legs} did not decide");
        let cp = Checkpoint::from_text(&cp.to_text()).expect("own output parses");
        verdict = run(&one, Some(&cp));
        legs += 1;
    }
    assert!(legs > 2, "{at}: a one-node cap decided in {legs} legs");
    assert_eq!(verdict.value(), reference.value(), "{at}");
}

#[test]
fn one_node_resume_chains_reach_the_uninterrupted_outcome() {
    // A 6⁴-cut grid: levels up to 146 wide, past two chunks.
    let mut b = ComputationBuilder::new(4);
    for p in 0..4 {
        for _ in 0..5 {
            b.append(p);
        }
    }
    let grid = b.build().unwrap();
    let all_three = |cut: &Cut| cut.frontier().iter().all(|&f| f >= 3);
    let (comp, balance) = bank(4);
    let (unattained, attained) = unattained_and_attained(&comp, &balance);
    let levels = |comp: &Computation| comp.final_cut().event_count() + 1;
    for threads in [0usize, 1, 2] {
        let at = format!("threads={threads}");
        one_node_chain(
            |budget, resume| {
                let meter = BudgetMeter::new();
                possibly_by_enumeration_budgeted(&grid, all_three, threads, budget, &meter, resume)
                    .unwrap()
            },
            levels(&grid),
            &format!("plain Possibly, {at}"),
        );
        one_node_chain(
            |budget, resume| {
                let meter = BudgetMeter::new();
                definitely_levelwise_budgeted(&grid, all_three, threads, budget, &meter, resume)
                    .unwrap()
            },
            levels(&grid),
            &format!("plain Definitely, {at}"),
        );
        for k in [unattained, attained] {
            one_node_chain(
                |budget, resume| exact_sum(&comp, &balance, k, threads, budget, resume),
                levels(&comp),
                &format!("pruned exact sum {k}, {at}"),
            );
            one_node_chain(
                |budget, resume| {
                    let query = Query {
                        comp: &comp,
                        predicate: Predicate::ExactSum { var: &balance, k },
                        modality: Modality::Definitely,
                    };
                    let options = Options {
                        threads,
                        budget: Some(*budget),
                        resume: resume.cloned(),
                        ..Options::default()
                    };
                    gpd::detect(&query, &options).unwrap().verdict
                },
                levels(&comp),
                &format!("Definitely(Σ = {k}), {at}"),
            );
        }
    }
}
