//! The parallel execution layer's determinism contract (see
//! `gpd::par`): for every detector, the verdict **and the witness** are
//! byte-identical at every thread count, and every witness satisfies the
//! predicate — plus regression coverage for predicates whose clauses
//! have no true states (empty slots / empty chain covers), which must
//! reject cleanly rather than panic.

use gpd::enumerate::{possibly_by_enumeration, possibly_by_enumeration_budgeted};
use gpd::singular::{
    possibly_singular, possibly_singular_budgeted, possibly_singular_chains,
    possibly_singular_chains_budgeted, possibly_singular_ordered, possibly_singular_subsets,
    possibly_singular_subsets_budgeted,
};
use gpd::{Budget, BudgetMeter, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{gen, BoolVariable, ComputationBuilder, Cut, ProcessId};
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
