//! Cross-algorithm agreement: relational and exact-sum detection versus
//! the exhaustive baseline.

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::{definitely_by_enumeration, possibly_by_enumeration};
use gpd::relational::{max_sum_cut, min_sum_cut, possibly_sum, sum_extremes};
use gpd::symmetric::{indicator_variable, possibly_symmetric, SymmetricPredicate};
use gpd::Relop;
use gpd_computation::{gen, Computation, Cut, IntVariable};
use proptest::prelude::*;
use rand::SeedableRng;

/// Asks `predicate` through the planner, unbudgeted, at `threads`.
fn detect_at(
    comp: &Computation,
    predicate: Predicate<'_>,
    modality: Modality,
    threads: usize,
) -> Answer {
    let query = Query {
        comp,
        predicate,
        modality,
    };
    let options = Options {
        threads,
        ..Options::default()
    };
    let report = gpd::detect(&query, &options).expect("small computations pass the guard");
    report
        .verdict
        .value()
        .expect("unbudgeted questions decide")
        .clone()
}

/// `Possibly(Σ var = k)` through the planner at `threads`.
fn possibly_exact_sum(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    threads: usize,
) -> Option<Cut> {
    match detect_at(
        comp,
        Predicate::ExactSum { var, k },
        Modality::Possibly,
        threads,
    ) {
        Answer::Witness(witness) => witness,
        answer => panic!("a Possibly question answers with a witness: {answer:?}"),
    }
}

/// `Definitely(predicate)` through the planner at `threads`.
fn definitely(comp: &Computation, predicate: Predicate<'_>, threads: usize) -> bool {
    match detect_at(comp, predicate, Modality::Definitely, threads) {
        Answer::Holds(holds) => holds,
        answer => panic!("a Definitely question answers true or false: {answer:?}"),
    }
}

/// The meet (pointwise least frontier) of every consistent cut whose sum
/// is `target`: the least cut attaining it.
fn meet_of_cuts_summing_to(comp: &Computation, x: &IntVariable, target: i64) -> Cut {
    let mut meet: Option<Vec<u32>> = None;
    for cut in comp.consistent_cuts().filter(|c| x.sum_at(c) == target) {
        let frontier = cut.frontier();
        meet = Some(match meet {
            None => frontier.to_vec(),
            Some(m) => m.iter().zip(frontier).map(|(&a, &b)| a.min(b)).collect(),
        });
    }
    Cut::from_frontier(meet.expect("an extreme is attained by some cut"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The witness contract of the extreme sums, independent of the
    /// max-flow engine: the cuts attaining an extreme are closed under
    /// meet, and the witness is their meet, the least of them.
    #[test]
    fn extreme_witnesses_are_the_meet_of_attaining_cuts(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..6,
        amplitude in 1i64..6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { (n * m) / 3 } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_int_variable(&mut rng, &comp, amplitude);
        let (max, cmax) = max_sum_cut(&comp, &x);
        let (min, cmin) = min_sum_cut(&comp, &x);
        prop_assert_eq!(&cmax, &meet_of_cuts_summing_to(&comp, &x, max));
        prop_assert_eq!(&cmin, &meet_of_cuts_summing_to(&comp, &x, min));
        prop_assert_eq!(sum_extremes(&comp, &x), ((min, cmin), (max, cmax)));
    }

    #[test]
    fn flow_extremes_match_enumeration(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..6,
        amplitude in 1i64..6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { (n * m) / 3 } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_int_variable(&mut rng, &comp, amplitude);
        let (bmin, bmax) = comp
            .consistent_cuts()
            .map(|c| x.sum_at(&c))
            .fold((i64::MAX, i64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)));
        let (max, cmax) = max_sum_cut(&comp, &x);
        let (min, cmin) = min_sum_cut(&comp, &x);
        prop_assert_eq!(max, bmax);
        prop_assert_eq!(min, bmin);
        prop_assert_eq!(x.sum_at(&cmax), max);
        prop_assert_eq!(x.sum_at(&cmin), min);
    }

    #[test]
    fn possibly_sum_agrees_for_all_relops(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        k in -6i64..6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { n } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_int_variable(&mut rng, &comp, 4);
        for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
            let fast = possibly_sum(&comp, &x, relop, k);
            let slow = possibly_by_enumeration(&comp, |c| relop.eval(x.sum_at(c), k));
            prop_assert_eq!(fast.is_some(), slow.is_some());
            if let Some(cut) = fast {
                prop_assert!(relop.eval(x.sum_at(&cut), k));
            }
        }
    }

    #[test]
    fn exact_sum_possibly_and_definitely_agree(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..5,
        k in -3i64..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { n } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_unit_int_variable(&mut rng, &comp);

        let slow = possibly_by_enumeration(&comp, |c| x.sum_at(c) == k);
        let dslow = definitely_by_enumeration(&comp, |c| x.sum_at(c) == k);
        for threads in [0, 2] {
            let fast = possibly_exact_sum(&comp, &x, k, threads);
            prop_assert_eq!(fast.is_some(), slow.is_some());
            if let Some(cut) = fast {
                prop_assert_eq!(x.sum_at(&cut), k);
            }
            let dfast = definitely(&comp, Predicate::ExactSum { var: &x, k }, threads);
            prop_assert_eq!(dfast, dslow, "threads {}", threads);
        }
    }

    #[test]
    fn definitely_sum_agrees_with_enumeration(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..4,
        k in -4i64..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { n / 2 } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_int_variable(&mut rng, &comp, 3);
        for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
            let slow = definitely_by_enumeration(&comp, |c| relop.eval(x.sum_at(c), k));
            for threads in [0, 2] {
                let fast = definitely(&comp, Predicate::Sum { var: &x, relop, k }, threads);
                prop_assert_eq!(fast, slow, "{} {}, threads {}", relop, k, threads);
            }
        }
    }

    #[test]
    fn symmetric_detection_agrees_with_enumeration(
        seed in any::<u64>(),
        n in 2usize..5,
        m in 1usize..4,
        density in 0.2f64..0.8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, n / 2);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let predicates = [
            SymmetricPredicate::exclusive_or(n as u32),
            SymmetricPredicate::not_all_equal(n as u32),
            SymmetricPredicate::all_equal(n as u32),
            SymmetricPredicate::absence_of_simple_majority(n as u32),
            SymmetricPredicate::absence_of_two_thirds_majority(n as u32),
        ];
        for phi in &predicates {
            let fast = possibly_symmetric(&comp, &x, phi);
            let slow = possibly_by_enumeration(&comp, |c| phi.eval(&comp, &x, c));
            prop_assert_eq!(fast.is_some(), slow.is_some());
            if let Some(cut) = fast {
                prop_assert!(phi.eval(&comp, &x, &cut));
            }
        }
        // `count … exactly j` walks toward the same extreme cut as the
        // exact-sum query on the indicator, so the witnesses coincide.
        let indicator = indicator_variable(&comp, &x);
        for j in 0..=n as u32 {
            prop_assert_eq!(
                possibly_symmetric(&comp, &x, &SymmetricPredicate::exactly(j)),
                possibly_exact_sum(&comp, &indicator, i64::from(j), 0)
            );
        }
    }
}
