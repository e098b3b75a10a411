//! Cross-algorithm agreement: conjunctive detection (CPDHB) versus the
//! exhaustive lattice baseline, driven by proptest.

use gpd::conjunctive::possibly_conjunctive;
use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::possibly_by_enumeration;
use gpd_computation::{gen, BoolVariable, ProcessId};
use proptest::prelude::*;
use rand::SeedableRng;

/// Parameters compact enough that the lattice stays enumerable.
fn params() -> impl Strategy<Value = (u64, usize, usize, usize, f64)> {
    (any::<u64>(), 2usize..5, 1usize..6, 0usize..8, 0.2f64..0.7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cpdhb_agrees_with_enumeration((seed, n, m, msgs, density) in params()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();

        let fast = possibly_conjunctive(&comp, &x, &processes);
        let slow = possibly_by_enumeration(&comp, |cut| {
            (0..n).all(|p| x.value_at(cut, p))
        });
        prop_assert_eq!(fast.is_some(), slow.is_some());
        if let Some(cut) = fast {
            prop_assert!(comp.is_consistent(&cut));
            prop_assert!((0..n).all(|p| x.value_at(&cut, p)));
        }
    }

    #[test]
    fn literal_form_agrees_with_enumeration((seed, n, m, msgs, density) in params()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        // Alternate polarities across processes.
        let literals: Vec<(ProcessId, bool)> =
            (0..n).map(|p| (ProcessId::new(p), p % 2 == 0)).collect();

        // The planner takes polarities folded into the variable, as the
        // CLI builds them: `lit_p` holds where literal `p` does.
        let values = literals
            .iter()
            .map(|&(p, pos)| {
                (0..=comp.events_on(p) as u32)
                    .map(|k| x.value_in_state(p, k) == pos)
                    .collect()
            })
            .collect();
        let lit = BoolVariable::new(&comp, values);
        let processes: Vec<ProcessId> = literals.iter().map(|&(p, _)| p).collect();
        let query = Query {
            comp: &comp,
            predicate: Predicate::Conjunction { var: &lit, processes: &processes },
            modality: Modality::Possibly,
        };
        let report = gpd::detect(&query, &Options::default()).unwrap();
        let Some(Answer::Witness(fast)) = report.verdict.value().cloned() else {
            panic!("a conjunction decides")
        };
        let slow = possibly_by_enumeration(&comp, |cut| {
            literals.iter().all(|&(p, pos)| x.value_at(cut, p) == pos)
        });
        prop_assert_eq!(fast.is_some(), slow.is_some());
        if let Some(cut) = fast {
            prop_assert!(literals.iter().all(|&(p, pos)| x.value_at(&cut, p) == pos));
        }
    }

    #[test]
    fn witness_is_the_least_one((seed, n, m, msgs, density) in params()) {
        // CPDHB's witness passes through the *earliest* viable true
        // states; in particular no witness cut can be strictly below it.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();

        if let Some(cut) = possibly_conjunctive(&comp, &x, &processes) {
            let smaller = possibly_by_enumeration(&comp, |c| {
                (0..n).all(|p| x.value_at(c, p)) && c.leq(&cut) && *c != cut
            });
            prop_assert!(smaller.is_none(), "found a smaller witness than CPDHB's");
        }
    }
}
