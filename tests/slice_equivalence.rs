//! Equivalence contract of the computation-slicing engine (`gpd::slice`):
//! the exact regular-predicate detectors must agree with the exhaustive
//! oracles, and the *SliceReduce* pre-pass must leave verdicts and
//! witnesses **byte-identical** to the unsliced canonical engines at
//! every thread count — the slice may only shrink the work, never bend
//! the answer (docs/ALGORITHMS.md §12).

use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
    possibly_by_enumeration_budgeted,
};
use gpd::singular::possibly_singular_budgeted;
use gpd::slice::{
    cnf_envelope, definitely_levelwise_sliced_budgeted, definitely_slice,
    possibly_by_enumeration_sliced_budgeted, possibly_singular_sliced_budgeted, possibly_slice,
    ChannelOp, RegularPredicate, Slice,
};
use gpd::{Budget, BudgetMeter, CnfClause, SingularCnf};
use gpd_computation::{gen, Computation, ProcessId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random regular predicate: per-process allowed-state sets on ~70% of
/// the processes, plus a bound on a real channel half the time.
fn random_regular<R: Rng>(rng: &mut R, comp: &Computation, density: f64) -> RegularPredicate {
    let mut pred = RegularPredicate::unconstrained(comp);
    for p in 0..comp.process_count() {
        if rng.gen_bool(0.7) {
            let allowed: Vec<bool> = (0..=comp.events_on(p))
                .map(|_| rng.gen_bool(density))
                .collect();
            pred = pred.require_states(p, allowed);
        }
    }
    if rng.gen_bool(0.5) {
        if let Some(&(s, r)) = comp.messages().first() {
            let op = if rng.gen_bool(0.5) {
                ChannelOp::AtMost
            } else {
                ChannelOp::AtLeast
            };
            pred = pred.require_channel(
                comp.process_of(s),
                comp.process_of(r),
                op,
                rng.gen_range(0..3),
            );
        }
    }
    pred
}

/// A random singular CNF whose first clause is a **unit** clause, so the
/// pre-pass always has a regular envelope to slice on.
fn random_cnf_with_units<R: Rng>(rng: &mut R, n: usize) -> SingularCnf {
    let mut procs: Vec<usize> = (0..n).collect();
    for i in (1..procs.len()).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut clauses = vec![CnfClause::new(vec![(
        ProcessId::new(procs[0]),
        rng.gen_bool(0.5),
    )])];
    let mut rest = &procs[1..];
    while !rest.is_empty() && clauses.len() < 3 {
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

    /// The polynomial fixpoint detectors agree with the exhaustive
    /// oracles on every random regular predicate — and `possibly_slice`
    /// returns the byte-identical least witness.
    #[test]
    fn exact_regular_detection_matches_the_oracles(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..6,
        density in 0.3f64..0.8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let pred = random_regular(&mut rng, &comp, density);

        prop_assert_eq!(
            possibly_slice(&comp, &pred),
            possibly_by_enumeration(&comp, |cut| pred.holds(cut))
        );
        let oracle = definitely_by_enumeration(&comp, |cut| pred.holds(cut));
        prop_assert_eq!(definitely_slice(&comp, &pred), oracle);
        for threads in [0, 1, 2] {
            let sweep = definitely_levelwise_budgeted(
                &comp,
                |cut| pred.holds(cut),
                threads,
                &Budget::unlimited(),
                &BudgetMeter::new(),
                None,
            )
            .unwrap();
            prop_assert_eq!(sweep.value(), Some(&oracle), "threads {}", threads);
        }
    }

    /// Slice-then-enumerate is byte-identical to plain enumeration — the
    /// full `Verdict`, witness included — at 1, 2 and 4 threads, for a
    /// CNF Φ sliced on its unit-clause envelope.
    #[test]
    fn sliced_enumeration_is_byte_identical(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..4,
        msgs in 0usize..6,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_cnf_with_units(&mut rng, n);
        let env = cnf_envelope(&comp, &x, &phi).expect("first clause is a unit clause");
        let slice = Slice::build(&comp, &env);

        let plain = possibly_by_enumeration_budgeted(
            &comp, |c| phi.eval(&x, c), 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        let plain_def = definitely_levelwise_budgeted(
            &comp, |c| phi.eval(&x, c), 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        for threads in [1usize, 2, 4] {
            let sliced = possibly_by_enumeration_sliced_budgeted(
                &comp, &slice, |c| phi.eval(&x, c), threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain.value().unwrap(), sliced.value().unwrap(),
                "possibly witness, threads {}", threads
            );
            let sliced_def = definitely_levelwise_sliced_budgeted(
                &comp, &slice, |c| phi.eval(&x, c), threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain_def.value().unwrap(), sliced_def.value().unwrap(),
                "definitely verdict, threads {}", threads
            );
        }
    }

    /// The window-pruned singular odometer engines return the
    /// byte-identical witness of the unsliced dispatcher at every thread
    /// count (the prune keeps the combination shape, so the walk order
    /// is untouched).
    #[test]
    fn sliced_singular_dispatch_is_byte_identical(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..4,
        msgs in 0usize..6,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_cnf_with_units(&mut rng, n);
        let env = cnf_envelope(&comp, &x, &phi).expect("first clause is a unit clause");
        let slice = Slice::build(&comp, &env);

        let plain = possibly_singular_budgeted(
            &comp, &x, &phi, 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        for threads in [1usize, 2, 4] {
            let sliced = possibly_singular_sliced_budgeted(
                &comp, &x, &phi, &slice, threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain.value().unwrap(), sliced.value().unwrap(),
                "threads {}", threads
            );
        }
    }
}
