//! The differential matrix through the one entry point: `gpd::detect`
//! answers every predicate class under both modalities, at 0, 1 and 2
//! threads, with slicing off and auto. Each cell's verdict must equal the
//! enumeration oracle's, each Possibly witness must be a consistent Φ-cut
//! above the least Φ-cut (equal to it for conjunctions, whose Φ-cuts form
//! a lattice) and the same in every cell, and the reported engine must be
//! the one the paper's Figure 1 taxonomy prescribes.

use gpd::detect::{Answer, Modality, Options, Predicate, Query, Slicing, EXACT_SUM_ENUMERATION};
use gpd::enumerate::{definitely_by_enumeration, possibly_by_enumeration};
use gpd::{CnfClause, Relop, SingularCnf, SymmetricPredicate, Verdict};
use gpd_computation::{gen, Computation, Cut, OrderingKind, ProcessId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};

/// A singular CNF over every process: a random partition into clauses of
/// one to three literals with random polarities.
fn random_cnf<R: Rng>(rng: &mut R, n: usize) -> SingularCnf {
    let mut procs: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut clauses = Vec::new();
    let mut rest = procs.as_slice();
    while !rest.is_empty() {
        let (clause, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(3)));
        let literals = clause
            .iter()
            .map(|&p| (ProcessId::new(p), rng.gen_bool(0.5)))
            .collect();
        clauses.push(CnfClause::new(literals));
        rest = tail;
    }
    SingularCnf::new(clauses)
}

/// The pointwise meet of every Φ-cut: the least Φ-cut when Φ-cuts are
/// closed under meet, and a lower bound on every Φ-cut in any case.
fn meet_of_phi_cuts(comp: &Computation, holds: &dyn Fn(&Cut) -> bool) -> Option<Vec<u32>> {
    comp.consistent_cuts()
        .filter(|c| holds(c))
        .fold(None, |meet, cut| {
            let frontier = cut.frontier();
            Some(match meet {
                None => frontier.to_vec(),
                Some(m) => m.iter().zip(frontier).map(|(&a, &b)| a.min(b)).collect(),
            })
        })
}

/// The Figure 1 engine of a class whose engine depends on the modality
/// alone.
fn by_modality(
    possibly: &'static str,
    definitely: &'static str,
) -> impl Fn(Modality, Slicing) -> &'static str {
    move |modality, _| match modality {
        Modality::Possibly => possibly,
        Modality::Definitely => definitely,
    }
}

/// Runs `predicate` in every cell and checks it against the oracles;
/// `engine` names the engine each cell must report.
fn check_cells(
    comp: &Computation,
    predicate: Predicate<'_>,
    holds: &dyn Fn(&Cut) -> bool,
    engine: impl Fn(Modality, Slicing) -> &'static str,
    lattice: bool,
) -> Result<(), TestCaseError> {
    let possibly = possibly_by_enumeration(comp, holds);
    let definitely = definitely_by_enumeration(comp, holds);
    let meet = meet_of_phi_cuts(comp, holds);
    for modality in [Modality::Possibly, Modality::Definitely] {
        let mut first: Option<Answer> = None;
        for threads in [0, 1, 2] {
            for slicing in [Slicing::Off, Slicing::Auto] {
                let options = Options {
                    threads,
                    slicing,
                    enumerate: true,
                    ..Options::default()
                };
                let cell = format!("{modality:?} threads {threads} {slicing:?}");
                let query = Query {
                    comp,
                    predicate,
                    modality,
                };
                let report = gpd::detect(&query, &options)
                    .map_err(|e| TestCaseError::fail(format!("{cell}: {e}")))?;
                prop_assert_eq!(report.engine, engine(modality, slicing), "{}", cell);
                let Verdict::Decided(answer, _) = report.verdict else {
                    return Err(TestCaseError::fail(format!("{cell}: undecided")));
                };
                match &answer {
                    Answer::Holds(h) => prop_assert_eq!(*h, definitely, "{}", cell),
                    Answer::Witness(w) => {
                        prop_assert_eq!(w.is_some(), possibly.is_some(), "{}", cell);
                        if let (Some(w), Some(meet)) = (w, &meet) {
                            prop_assert!(comp.is_consistent(w), "{}", cell);
                            prop_assert!(holds(w), "{}: witness {:?}", cell, w.frontier());
                            if lattice {
                                prop_assert_eq!(w.frontier(), meet.as_slice(), "{}", cell);
                            } else {
                                let above = w.frontier().iter().zip(meet).all(|(&a, &b)| a >= b);
                                prop_assert!(above, "{}: {:?} below the meet", cell, w.frontier());
                            }
                        }
                    }
                }
                match &first {
                    None => first = Some(answer),
                    Some(a) => prop_assert_eq!(a, &answer, "{}", cell),
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_class_agrees_with_enumeration_in_every_cell(
        seed in any::<u64>(),
        n in 2usize..5,
        m in 1usize..6,
        msgs in 0usize..6,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, 0.5);

        let procs: Vec<ProcessId> = (0..n).filter(|_| rng.gen_bool(0.7)).map(ProcessId::new).collect();
        let conj = |c: &Cut| procs.iter().all(|&p| x.value_at(c, p.index()));
        check_cells(
            &comp,
            Predicate::Conjunction { var: &x, processes: &procs },
            &conj,
            by_modality("possibly-conjunctive", "definitely-conjunctive"),
            true,
        )?;

        let cnf = random_cnf(&mut rng, n);
        let grouping = cnf.grouping();
        let ordered = grouping.is_ordered(&comp, OrderingKind::ReceiveOrdered)
            || grouping.is_ordered(&comp, OrderingKind::SendOrdered);
        let has_unit = cnf.clauses().iter().any(|c| c.literals().len() == 1);
        check_cells(
            &comp,
            Predicate::SingularCnf { var: &x, cnf: &cnf },
            &|c: &Cut| cnf.eval(&x, c),
            |modality, slicing| match modality {
                Modality::Possibly if ordered => "singular-ordered",
                Modality::Possibly => "singular-chains",
                // SliceReduce needs a unit clause to slice on.
                Modality::Definitely if has_unit && slicing == Slicing::Auto => {
                    "definitely-levelwise-sliced"
                }
                Modality::Definitely => "definitely-levelwise",
            },
            false,
        )?;

        let y = if rng.gen_bool(0.5) {
            gen::random_unit_int_variable(&mut rng, &comp)
        } else {
            gen::random_int_variable(&mut rng, &comp, 2)
        };
        let k = rng.gen_range(-3..=3);
        let relop = [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge][rng.gen_range(0..4)];
        check_cells(
            &comp,
            Predicate::Sum { var: &y, relop, k },
            &|c: &Cut| relop.eval(y.sum_at(c), k),
            by_modality("possibly-sum", "definitely-sum"),
            false,
        )?;
        // Theorem 7 needs ±1 steps; larger ones fall back to enumeration.
        let exact = if y.is_unit_step() {
            by_modality("possibly-exact-sum", "definitely-exact-sum")
        } else {
            by_modality(EXACT_SUM_ENUMERATION, EXACT_SUM_ENUMERATION)
        };
        check_cells(
            &comp,
            Predicate::ExactSum { var: &y, k },
            &|c: &Cut| y.sum_at(c) == k,
            exact,
            false,
        )?;

        let counts: Vec<u32> = (0..=n as u32).filter(|_| rng.gen_bool(0.4)).collect();
        let symmetric = SymmetricPredicate::new(counts);
        check_cells(
            &comp,
            Predicate::Symmetric { var: &x, predicate: &symmetric },
            &|c: &Cut| symmetric.eval(&comp, &x, c),
            by_modality("possibly-symmetric", "definitely-levelwise"),
            false,
        )?;
    }
}
