//! The parallel execution layer's determinism contract (see
//! `gpd::par`): for every detector, the verdict **and the witness** are
//! byte-identical at every thread count, and every witness satisfies the
//! predicate — plus regression coverage for predicates whose clauses
//! have no true states (empty slots / empty chain covers), which must
//! reject cleanly rather than panic.

use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
    possibly_by_enumeration_budgeted, DEFINITELY_LEVELWISE, POSSIBLY_ENUMERATE,
};
use gpd::singular::{
    possibly_singular, possibly_singular_budgeted, possibly_singular_chains,
    possibly_singular_chains_budgeted, possibly_singular_ordered, possibly_singular_subsets,
    possibly_singular_subsets_budgeted,
};
use gpd::{
    problem_fingerprint, Budget, BudgetMeter, Checkpoint, CnfClause, DetectError, ExhaustReason,
    SingularCnf, Verdict,
};
use gpd_computation::{gen, BoolVariable, Computation, ComputationBuilder, Cut, ProcessId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Runs a budgeted engine under an unlimited budget, which always
/// decides, and returns its witness.
fn decided(
    run: impl FnOnce(&Budget, &BudgetMeter) -> Result<Verdict<Option<Cut>>, DetectError>,
) -> Option<Cut> {
    let verdict = run(&Budget::unlimited(), &BudgetMeter::new()).expect("no checkpoint, no panic");
    verdict
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// A random singular CNF carving the processes into clauses of size 1–3.
fn random_singular<R: Rng>(rng: &mut R, n: usize, max_clauses: usize) -> SingularCnf {
    let mut procs: Vec<usize> = (0..n).collect();
    for i in (1..procs.len()).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut clauses = Vec::new();
    let mut rest = procs.as_slice();
    while !rest.is_empty() && clauses.len() < max_clauses {
        let k = rng.gen_range(1..=rest.len().min(3));
        let (now, later) = rest.split_at(k);
        clauses.push(CnfClause::new(
            now.iter()
                .map(|&p| (ProcessId::new(p), rng.gen_bool(0.5)))
                .collect(),
        ));
        rest = later;
    }
    SingularCnf::new(clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn singular_verdicts_are_thread_count_invariant(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_singular(&mut rng, n, 3);

        // The plain engines are the budgeted ones at 0 threads: the
        // reference every thread count must reproduce byte for byte.
        let seq_subsets = possibly_singular_subsets(&comp, &x, &phi);
        let seq_chains = possibly_singular_chains(&comp, &x, &phi);
        let seq_auto = possibly_singular(&comp, &x, &phi);
        for cut in [&seq_subsets, &seq_chains, &seq_auto].into_iter().flatten() {
            prop_assert!(comp.is_consistent(cut));
            prop_assert!(phi.eval(&x, cut));
        }
        for threads in [1usize, 2, 4] {
            let subsets = decided(|b, m| {
                possibly_singular_subsets_budgeted(&comp, &x, &phi, threads, b, m, None)
            });
            let chains = decided(|b, m| {
                possibly_singular_chains_budgeted(&comp, &x, &phi, threads, b, m, None)
            });
            let auto =
                decided(|b, m| possibly_singular_budgeted(&comp, &x, &phi, threads, b, m, None));
            prop_assert_eq!(&subsets, &seq_subsets, "subsets, threads {}", threads);
            prop_assert_eq!(&chains, &seq_chains, "chains, threads {}", threads);
            prop_assert_eq!(&auto, &seq_auto, "dispatcher, threads {}", threads);
        }
    }

    #[test]
    fn parallel_enumeration_witness_is_byte_identical_across_threads(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..5,
        msgs in 0usize..4,
        density in 0.2f64..0.6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A single process cannot exchange messages.
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_singular(&mut rng, n, 2);
        let pred = |c: &gpd_computation::Cut| phi.eval(&x, c);

        let seq = possibly_by_enumeration(&comp, pred);
        // One worker runs the sweeps in exact sequential order; that is
        // the deterministic reference every thread count must reproduce.
        let reference =
            decided(|b, m| possibly_by_enumeration_budgeted(&comp, pred, 1, b, m, None));
        prop_assert_eq!(reference.is_some(), seq.is_some());
        if let (Some(p), Some(s)) = (&reference, &seq) {
            // The witness sits on the minimum satisfying level.
            prop_assert_eq!(p.event_count(), s.event_count());
            prop_assert!(pred(p));
        }
        for threads in [2usize, 4] {
            let par =
                decided(|b, m| possibly_by_enumeration_budgeted(&comp, pred, threads, b, m, None));
            // Work-stealing sweeps canonicalize on the lowest sorted
            // cut of the lowest level: byte-identical witnesses.
            prop_assert_eq!(&par, &reference);
        }
    }
}

/// A computation with a clause that has **no** true states anywhere: the
/// subset algorithm gets an empty slot, the chain algorithm an empty
/// cover. Both must return `None` without panicking, at every thread
/// count — as must the §3.2 ordered scan (the no-message computation is
/// trivially receive-ordered).
#[test]
fn empty_cover_rejects_cleanly_at_every_thread_count() {
    let mut b = ComputationBuilder::new(2);
    b.append(0);
    b.append(1);
    let comp = b.build().unwrap();
    // p1 is false in every state, so the clause (x₁) is never satisfied.
    let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, false]]);
    let phi = SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(0), true)]),
        CnfClause::new(vec![(ProcessId::new(1), true)]),
    ]);

    assert_eq!(
        possibly_singular_ordered(&comp, &x, &phi),
        Ok(None),
        "no-message computations are trivially ordered"
    );
    for threads in [0usize, 4] {
        assert_eq!(
            decided(|b, m| possibly_singular_subsets_budgeted(
                &comp, &x, &phi, threads, b, m, None
            )),
            None
        );
        assert_eq!(
            decided(|b, m| possibly_singular_chains_budgeted(&comp, &x, &phi, threads, b, m, None)),
            None
        );
        assert_eq!(
            decided(|b, m| possibly_singular_budgeted(&comp, &x, &phi, threads, b, m, None)),
            None
        );
    }
}

/// Same regression with *every* literal empty — the degenerate
/// all-slots-empty case.
#[test]
fn all_literals_empty_rejects_cleanly() {
    let mut b = ComputationBuilder::new(2);
    b.append(0);
    let comp = b.build().unwrap();
    let x = BoolVariable::new(&comp, vec![vec![false, false], vec![false]]);
    let phi = SingularCnf::new(vec![CnfClause::new(vec![
        (ProcessId::new(0), true),
        (ProcessId::new(1), true),
    ])]);
    for threads in [0usize, 4] {
        assert_eq!(
            decided(|b, m| possibly_singular_subsets_budgeted(
                &comp, &x, &phi, threads, b, m, None
            )),
            None
        );
        assert_eq!(
            decided(|b, m| possibly_singular_chains_budgeted(&comp, &x, &phi, threads, b, m, None)),
            None
        );
        assert_eq!(
            decided(|b, m| possibly_singular_budgeted(&comp, &x, &phi, threads, b, m, None)),
            None
        );
    }
}

/// `chain` processes of `links` events each, totally ordered by one
/// message chain through them, plus `free` independent processes of 7
/// events. Every frontier entry takes 3 bits once a process has 4 or
/// more events, so wide shapes pack into records of several words, while
/// the levels stay as wide as the free processes' state space.
fn chain_plus_free(chain: usize, links: usize, free: usize) -> Computation {
    let mut b = ComputationBuilder::new(chain + free);
    let mut last = None;
    for p in 0..chain {
        for i in 0..links {
            let e = b.append(p);
            if let (0, Some(s)) = (i, last) {
                b.message(s, e).expect("distinct processes");
            }
            last = Some(e);
        }
    }
    for p in chain..chain + free {
        for _ in 0..7 {
            b.append(p);
        }
    }
    b.build().expect("a forward chain")
}

/// The wide shapes: a 70-process message chain (removable masks of two
/// words), and 33 processes whose frontier alone needs 99 bits, with
/// middle levels of 512 cuts.
fn wide_shapes() -> Vec<Computation> {
    vec![chain_plus_free(68, 2, 2), chain_plus_free(30, 2, 3)]
}

#[test]
fn wide_record_sweeps_agree_at_every_thread_count() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7070);
    for (i, comp) in wide_shapes().iter().enumerate() {
        let n = comp.process_count();
        for round in 0..6 {
            let at = format!("shape {i}, round {round}");
            let x = gen::random_bool_variable(&mut rng, comp, 0.5);
            // Clauses over the free processes and two distinct chain
            // processes: witnesses land inside the wide levels.
            let a = rng.gen_range(0..n - 3);
            let b = (a + rng.gen_range(1..n - 3)) % (n - 3);
            let phi = SingularCnf::new(vec![
                CnfClause::new(vec![(ProcessId::new(n - 1), true)]),
                CnfClause::new(vec![
                    (ProcessId::new(n - 2), rng.gen_bool(0.5)),
                    (ProcessId::new(a), true),
                ]),
                CnfClause::new(vec![(ProcessId::new(b), true)]),
            ]);
            let pred = |c: &Cut| phi.eval(&x, c);
            let oracle = possibly_by_enumeration(comp, pred);
            let reference =
                decided(|b, m| possibly_by_enumeration_budgeted(comp, pred, 0, b, m, None));
            assert_eq!(reference.is_some(), oracle.is_some(), "{at}");
            if let (Some(w), Some(o)) = (&reference, &oracle) {
                assert_eq!(w.event_count(), o.event_count(), "{at}: witness level");
                assert!(pred(w) && comp.is_consistent(w), "{at}");
            }
            let definitely = definitely_by_enumeration(comp, pred);
            for threads in [0usize, 1, 2, 4] {
                let witness = decided(|b, m| {
                    possibly_by_enumeration_budgeted(comp, pred, threads, b, m, None)
                });
                assert_eq!(witness, reference, "{at}, threads {threads}");
                let verdict = definitely_levelwise_budgeted(
                    comp,
                    pred,
                    threads,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                    None,
                )
                .expect("no checkpoint, no panic");
                assert_eq!(
                    verdict.value(),
                    Some(&definitely),
                    "{at}, threads {threads}"
                );
            }
        }
    }
}

/// The sorted frontiers of lattice level `k` of `comp`.
fn lattice_level(comp: &Computation, k: usize) -> Vec<Vec<u32>> {
    let mut level: Vec<Vec<u32>> = comp
        .consistent_cuts()
        .filter(|c| c.event_count() == k)
        .map(|c| c.frontier().to_vec())
        .collect();
    level.sort_unstable();
    level
}

/// Resumes `interrupted` after a round trip through the checkpoint text.
fn resumed<T: Clone>(
    interrupted: Verdict<T>,
    run: impl Fn(&Checkpoint) -> Verdict<T>,
) -> Option<T> {
    let Verdict::Unknown(partial) = interrupted else {
        panic!("the budget must interrupt the sweep");
    };
    let text = partial.checkpoint.to_text();
    let back = Checkpoint::from_text(&text).expect("own checkpoint text parses");
    assert_eq!(back, partial.checkpoint);
    run(&back).value().cloned()
}

#[test]
fn mid_sweep_checkpoints_keep_their_format_and_resume_to_the_uninterrupted_outcome() {
    let comp = chain_plus_free(30, 2, 3);
    let problem = problem_fingerprint(&comp);
    // Φ first holds deep inside the wide levels; ¬Φ paths survive to
    // the end, so Definitely(Φ) is false after a full sweep.
    let pred = |c: &Cut| c.event_count() == 40 && c.frontier()[32] == 3;
    let full = decided(|b, m| possibly_by_enumeration_budgeted(&comp, pred, 0, b, m, None))
        .expect("satisfiable");
    assert_eq!(full.event_count(), 40);
    let narrow = Budget::unlimited().with_max_width(300);
    for threads in [0usize, 1, 2, 4] {
        let unlimited = Budget::unlimited();
        let run = |budget: &Budget, resume: Option<&Checkpoint>| {
            possibly_by_enumeration_budgeted(
                &comp,
                pred,
                threads,
                budget,
                &BudgetMeter::new(),
                resume,
            )
            .expect("own checkpoint")
        };
        // The width cap stops the sweep at the first level wider than
        // 300 cuts; the checkpoint holds the whole level below it, in
        // the canonical order of the checkpoint format.
        let interrupted = run(&narrow, None);
        let Verdict::Unknown(partial) = &interrupted else {
            panic!("threads {threads}: the width cap must interrupt");
        };
        assert_eq!(partial.reason, ExhaustReason::Width);
        let k = partial.progress.levels_swept.expect("level sweep") - 1;
        let expected = Checkpoint::level(
            POSSIBLY_ENUMERATE,
            problem,
            k,
            lattice_level(&comp, k as usize),
        );
        assert_eq!(partial.checkpoint, expected, "threads {threads}");
        let witness = resumed(interrupted, |cp| run(&unlimited, Some(cp)));
        assert_eq!(witness, Some(Some(full.clone())), "threads {threads}");

        // A node cap stops it mid-way wherever the meter crosses it.
        let capped = Budget::unlimited().with_max_nodes(20_000);
        let witness = resumed(run(&capped, None), |cp| run(&unlimited, Some(cp)));
        assert_eq!(witness, Some(Some(full.clone())), "threads {threads}");

        // The Definitely sweep's checkpoint is its ¬Φ level.
        let def = |budget: &Budget, resume: Option<&Checkpoint>| {
            definitely_levelwise_budgeted(&comp, pred, threads, budget, &BudgetMeter::new(), resume)
                .expect("own checkpoint")
        };
        let interrupted = def(&narrow, None);
        let Verdict::Unknown(partial) = &interrupted else {
            panic!("threads {threads}: the width cap must interrupt");
        };
        let k = partial.progress.levels_swept.expect("level sweep");
        let expected = Checkpoint::level(
            DEFINITELY_LEVELWISE,
            problem,
            k,
            lattice_level(&comp, k as usize),
        );
        assert_eq!(partial.checkpoint, expected, "threads {threads}");
        assert_eq!(
            resumed(interrupted, |cp| def(&unlimited, Some(cp))),
            Some(false),
            "threads {threads}"
        );
    }
}
