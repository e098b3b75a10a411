//! Cross-algorithm agreement: all three singular-CNF algorithms versus
//! the exhaustive baseline, on random computations and random singular
//! predicates.

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::possibly_by_enumeration;
use gpd::singular::{
    possibly_singular_chains_budgeted, possibly_singular_ordered,
    possibly_singular_subsets_budgeted,
};
use gpd::{Budget, BudgetMeter, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{gen, Cut, ProcessId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// An engine's budgeted form at 0 threads under an unlimited budget,
/// which always decides: its witness.
fn sequential(verdict: Result<Verdict<Option<Cut>>, DetectError>) -> Option<Cut> {
    let verdict = verdict.expect("no checkpoint, no panic");
    verdict.value().expect("unlimited budgets decide").clone()
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_algorithms_agree_with_enumeration(
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

        let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
        let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
        let subsets =
            sequential(possibly_singular_subsets_budgeted(&comp, &x, &phi, 0, &budget, &meter, None));
        let chains =
            sequential(possibly_singular_chains_budgeted(&comp, &x, &phi, 0, &budget, &meter, None));
        // The planner: the §3.2 scan when it applies, else chains, inside
        // the slice of Φ's unit clauses.
        let query = Query {
            comp: &comp,
            predicate: Predicate::SingularCnf { var: &x, cnf: &phi },
            modality: Modality::Possibly,
        };
        let Some(Answer::Witness(auto)) =
            gpd::detect(&query, &Options::default()).unwrap().verdict.value().cloned()
        else {
            panic!("an unbudgeted Possibly question decides")
        };

        prop_assert_eq!(subsets.is_some(), slow.is_some());
        prop_assert_eq!(chains.is_some(), slow.is_some());
        prop_assert_eq!(auto.is_some(), slow.is_some());
        for cut in [subsets, chains, auto].into_iter().flatten() {
            prop_assert!(comp.is_consistent(&cut));
            prop_assert!(phi.eval(&x, &cut));
        }
    }

    #[test]
    fn ordered_special_case_agrees_with_enumeration(
        seed in any::<u64>(),
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.6,
    ) {
        // Receives restricted to one process per group ⇒ receive-ordered.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation_with_receivers(&mut rng, 6, m, msgs, Some(&[0, 3]));
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = SingularCnf::new(vec![
            CnfClause::new(vec![
                (ProcessId::new(0), rng.gen_bool(0.5)),
                (ProcessId::new(1), rng.gen_bool(0.5)),
                (ProcessId::new(2), rng.gen_bool(0.5)),
            ]),
            CnfClause::new(vec![
                (ProcessId::new(3), rng.gen_bool(0.5)),
                (ProcessId::new(4), rng.gen_bool(0.5)),
                (ProcessId::new(5), rng.gen_bool(0.5)),
            ]),
        ]);

        let fast = possibly_singular_ordered(&comp, &x, &phi)
            .expect("receive-ordered by construction");
        let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
        prop_assert_eq!(fast.is_some(), slow.is_some());
        if let Some(cut) = fast {
            prop_assert!(phi.eval(&x, &cut));
        }
    }

    #[test]
    fn property_p_holds_on_receive_ordered_computations(
        seed in any::<u64>(),
        m in 1usize..5,
        msgs in 0usize..10,
    ) {
        // The §3.2 scan is sound because of Property P: if succ(e) ≤ f
        // for events e, f on different meta-processes, then succ(e) ≤ g
        // for every event g of f's meta-process that is σ-later than f.
        use gpd_computation::OrderingKind;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation_with_receivers(&mut rng, 6, m, msgs, Some(&[0, 3]));
        let grouping = gpd_computation::Grouping::new(vec![
            vec![0.into(), 1.into(), 2.into()],
            vec![3.into(), 4.into(), 5.into()],
        ]);
        prop_assert!(grouping.is_ordered(&comp, OrderingKind::ReceiveOrdered));
        let lin = grouping.linearize(&comp, OrderingKind::ReceiveOrdered).unwrap();

        for e in comp.events() {
            let Some(se) = comp.successor_on_process(e) else { continue };
            let ge = grouping.group_of(comp.process_of(e));
            for gi in 0..grouping.group_count() {
                if Some(gi) == ge {
                    continue;
                }
                let events = grouping.events_of_group(&comp, gi);
                for &f in &events {
                    if !comp.leq(se, f) {
                        continue;
                    }
                    for &g in &events {
                        if lin.position(g) > lin.position(f) {
                            prop_assert!(
                                comp.leq(se, g),
                                "Property P violated: succ({e:?}) ≤ {f:?} but not ≤ {g:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_combinations_never_exceed_subset_combinations(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..5,
        msgs in 0usize..8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, 0.5);
        let phi = random_singular(&mut rng, n, 3);
        let cover = gpd::singular::chain_cover_sizes(&comp, &x, &phi);
        for (c, clause) in cover.iter().zip(phi.clauses()) {
            // A clause's states split into ≤ one chain per process, but
            // only when each process actually has true states; an empty
            // cover (unsatisfiable clause) is also fine.
            prop_assert!(*c <= clause.literals().len());
        }
    }
}
