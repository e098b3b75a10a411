//! End-to-end validation of the NP-hardness reductions (Theorems 1 & 2):
//! formula/instance oracles must agree with predicate detection on the
//! gadget computations, through the full transformation pipeline.

use gpd::enumerate::possibly_by_enumeration;
use gpd::hardness::{brute_force_subset_sum, reduce_sat, reduce_subset_sum};
use gpd::singular::{possibly_singular_chains_budgeted, possibly_singular_subsets_budgeted};
use gpd::{Budget, BudgetMeter, DetectError, Verdict};
use gpd_computation::Cut;
use gpd_sat::{brute_force, random_cnf, solve, to_non_monotone, to_three_cnf};
use proptest::prelude::*;
use rand::SeedableRng;

/// Runs a budgeted engine at 0 threads under an unlimited budget, which
/// always decides, and returns its witness.
fn sequential(
    run: impl FnOnce(&Budget, &BudgetMeter) -> Result<Verdict<Option<Cut>>, DetectError>,
) -> Option<Cut> {
    let verdict = run(&Budget::unlimited(), &BudgetMeter::new()).expect("no checkpoint, no panic");
    verdict.value().expect("unlimited budgets decide").clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sat_reduction_equivalence_through_full_pipeline(
        seed in any::<u64>(),
        n in 2u32..6,
        clauses in 1usize..4,
        width in 2usize..5,
    ) {
        // Arbitrary k-CNF → 3-CNF → non-monotone 3-CNF → gadget.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let width = width.min(n as usize);
        let raw = random_cnf(&mut rng, n, clauses, width);
        let three = to_three_cnf(&raw);
        let nm = to_non_monotone(&three);
        prop_assert!(nm.is_non_monotone());
        prop_assert!(nm.max_clause_len() <= 3);

        let gadget = reduce_sat(&nm).expect("pipeline output is valid input");
        let sat = solve(&raw).is_some();
        // Both general detection algorithms must agree with SAT.
        let (comp, var, phi) = (&gadget.computation, &gadget.variable, &gadget.predicate);
        let detected = sequential(|b, m| {
            possibly_singular_chains_budgeted(comp, var, phi, 0, b, m, None)
        });
        prop_assert_eq!(detected.is_some(), sat);
        let via_subsets = sequential(|b, m| {
            possibly_singular_subsets_budgeted(comp, var, phi, 0, b, m, None)
        });
        prop_assert_eq!(via_subsets.is_some(), sat);

        // A witness converts back into a model of the *transformed*
        // formula (whose restriction satisfies the original).
        if let Some(cut) = detected {
            let assignment = gadget.assignment_from_cut(&cut);
            prop_assert!(nm.eval(&assignment));
            prop_assert!(raw.eval(&assignment[..n as usize]));
        }
    }

    #[test]
    fn sat_gadget_lattice_agrees_with_dpll(
        seed in any::<u64>(),
        n in 2u32..5,
        clauses in 1usize..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let raw = random_cnf(&mut rng, n, clauses, 2);
        let nm = to_non_monotone(&raw);
        let gadget = reduce_sat(&nm).expect("non-monotone");
        let slow = possibly_by_enumeration(&gadget.computation, |cut| {
            gadget.predicate.eval(&gadget.variable, cut)
        });
        prop_assert_eq!(slow.is_some(), brute_force(&nm).is_some());
    }

    #[test]
    fn subset_sum_reduction_equivalence(
        sizes in proptest::collection::vec(1i64..15, 1..9),
        target in 1i64..40,
    ) {
        let gadget = reduce_subset_sum(&sizes, target);
        let oracle = brute_force_subset_sum(&sizes, target);
        let detected = possibly_by_enumeration(&gadget.computation, |c| {
            gadget.variable.sum_at(c) == gadget.target
        });
        prop_assert_eq!(oracle.is_some(), detected.is_some());
        if let Some(cut) = detected {
            let subset = gadget.subset_from_cut(&cut);
            let sum: i64 = subset.iter().map(|&i| sizes[i]).sum();
            prop_assert_eq!(sum, target);
        }
    }

    #[test]
    fn inequalities_stay_polynomial_on_subset_sum_gadgets(
        sizes in proptest::collection::vec(1i64..15, 1..9),
        target in 1i64..40,
    ) {
        // Theorem 2 bites equality only: the ≥/≤ questions are answered
        // by the flow algorithm and must match the trivial extremes.
        use gpd::relational::{max_sum_cut, min_sum_cut};
        let gadget = reduce_subset_sum(&sizes, target);
        let total: i64 = sizes.iter().sum();
        prop_assert_eq!(max_sum_cut(&gadget.computation, &gadget.variable).0, total);
        prop_assert_eq!(min_sum_cut(&gadget.computation, &gadget.variable).0, 0);
    }
}
