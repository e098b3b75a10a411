//! The differential matrix: every detection question through the one
//! entry point, `gpd::detect`, against the enumeration oracles. A case
//! is a computation and a predicate of one class, drawn by the `support`
//! generators, and it runs in every cell: both modalities × threads
//! {0, 1, 2, 4} × slicing {Off, Auto, Force} × run {uninterrupted,
//! interrupted at a one-node cap, interrupted at a random node cap}.
//!
//! - An uninterrupted cell reports the engine the paper's Figure 1
//!   taxonomy prescribes and answers what the oracles answer. A Possibly
//!   witness is a consistent Φ-cut above the meet of all Φ-cuts, and
//!   equal to it for conjunctions, whose Φ-cuts form a lattice.
//! - Every cell of a modality answers the same, witness included.
//! - An interrupted run resumes from its checkpoint's text, each leg at
//!   the next thread count. No checkpoint may repeat, so the chain ends,
//!   and it must end on the uninterrupted answer.
//! - Force answers conjunctions by the slicing engines and CNFs inside
//!   the slice of their unit clauses. It refuses a CNF without a unit
//!   clause (`NoEnvelope`) and the sum and count classes (`NotRegular`).
//!
//! Public engines that the planner never starts fresh are engine
//! columns of a CNF case, checked at every thread count against the same
//! oracles: the subset and chain odometers, the generic level sweeps and
//! the subset scan's restart-loop reference.
//!
//! The tests keep the names of the suites they replace: the proptest
//! shim seeds each case from its test's name, so every case stays.

mod support;

use std::collections::HashSet;

use gpd::detect::{Answer, Modality, Options, Predicate, Query, Slicing, EXACT_SUM_ENUMERATION};
use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
    possibly_by_enumeration_budgeted, DEFINITELY_LEVELWISE, POSSIBLY_ENUMERATE,
};
use gpd::singular::{
    possibly_singular_chains_budgeted, possibly_singular_subsets_budgeted,
    possibly_singular_subsets_reference,
};
use gpd::symmetric::indicator_variable;
use gpd::{
    counters, problem_fingerprint, Budget, BudgetMeter, Checkpoint, CnfClause, DetectError,
    ExhaustReason, Relop, SingularCnf, SymmetricPredicate, Verdict,
};
use gpd_computation::{gen, BoolVariable, Computation, Cut, IntVariable, OrderingKind, ProcessId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: [usize; 4] = [0, 1, 2, 4];
const SLICINGS: [Slicing; 3] = [Slicing::Off, Slicing::Auto, Slicing::Force];

/// The engine an uninterrupted cell must report, or the refusal it must
/// meet.
type Engines<'e> = &'e dyn Fn(Modality, Slicing) -> Result<&'static str, DetectError>;

/// One case of the matrix.
struct Case<'a> {
    comp: &'a Computation,
    predicate: Predicate<'a>,
    holds: &'a (dyn Fn(&Cut) -> bool + Sync),
    engines: Engines<'a>,
    /// The Φ-cuts form a lattice: every witness is the least Φ-cut.
    lattice: bool,
    /// Seeds the random node caps.
    seed: u64,
    grid: Grid,
}

/// The cells a case runs.
#[derive(Clone, Copy, PartialEq)]
enum Grid {
    Every,
    /// The wide shapes, whose level sweeps take a second or more each in
    /// a debug build: every uninterrupted cell under Off, as their engine
    /// columns ran, plus this one sliced cell, and no interrupted runs.
    Wide(Slicing, usize),
}

impl Grid {
    fn runs(self, slicing: Slicing, threads: usize) -> bool {
        match self {
            Grid::Every => true,
            Grid::Wide(s, t) => slicing == Slicing::Off || (slicing, threads) == (s, t),
        }
    }
}

/// What a case's Possibly cells found: the breadth-first oracle's
/// witness, on the lowest satisfying level, and the planner's.
struct Outcome {
    oracle: Option<Cut>,
    witness: Option<Cut>,
}

fn fail(at: &str, what: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(format!("{at}: {what}"))
}

/// Engines chosen by modality alone, and what Force does instead:
/// other engines, or a refusal.
fn routed(
    possibly: &'static str,
    definitely: &'static str,
    forced: Result<[&'static str; 2], DetectError>,
) -> impl Fn(Modality, Slicing) -> Result<&'static str, DetectError> {
    move |modality, slicing| {
        let [p, d] = match slicing {
            Slicing::Force => forced.clone()?,
            Slicing::Off | Slicing::Auto => [possibly, definitely],
        };
        Ok(match modality {
            Modality::Possibly => p,
            Modality::Definitely => d,
        })
    }
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

/// Asks `case` in one cell.
fn ask(
    case: &Case<'_>,
    modality: Modality,
    slicing: Slicing,
    threads: usize,
    budget: Option<Budget>,
    resume: Option<Checkpoint>,
) -> Result<gpd::detect::Report, DetectError> {
    let query = Query {
        comp: case.comp,
        predicate: case.predicate,
        modality,
    };
    let options = Options {
        threads,
        budget,
        slicing,
        resume,
        enumerate: true,
    };
    gpd::detect(&query, &options)
}

/// Interrupts `case` at a `cap`-node budget and resumes it from each
/// checkpoint's text until it decides, leg `i` at thread count
/// `THREADS[start + i]` (cyclically). Returns the final answer.
fn chain(
    case: &Case<'_>,
    modality: Modality,
    slicing: Slicing,
    cap: u64,
    start: usize,
) -> Result<Answer, TestCaseError> {
    let budget = Budget::unlimited().with_max_nodes(cap);
    let mut seen = HashSet::new();
    let mut resume = None;
    for leg in 0.. {
        let threads = THREADS[(start + leg) % THREADS.len()];
        let at = format!("{modality:?}, {slicing:?}, cap {cap}, leg {leg} at threads {threads}");
        let report = ask(case, modality, slicing, threads, Some(budget), resume)
            .map_err(|e| fail(&at, e))?;
        let partial = match report.verdict {
            Verdict::Decided(answer, _) => return Ok(answer),
            Verdict::Unknown(partial) => partial,
        };
        let text = partial.checkpoint.to_text();
        let back = Checkpoint::from_text(&text).map_err(|e| fail(&at, e))?;
        prop_assert_eq!(&back, &partial.checkpoint, "{}", at);
        prop_assert!(
            seen.insert(text),
            "{}: a repeated checkpoint never ends",
            at
        );
        resume = Some(back);
    }
    unreachable!("the legs are unbounded")
}

/// Runs `case` in every cell against the oracles.
fn cells(case: &Case<'_>) -> Result<Outcome, TestCaseError> {
    let comp = case.comp;
    let oracle = possibly_by_enumeration(comp, case.holds);
    let definitely = definitely_by_enumeration(comp, case.holds);
    // Any consistent Φ-cut lies above the meet of all Φ-cuts, so only a
    // lattice's meet says more than the checks below.
    let meet = case
        .lattice
        .then(|| meet_of_phi_cuts(comp, case.holds))
        .flatten();
    let mut caps = StdRng::seed_from_u64(case.seed);
    let mut witness = None;
    for modality in [Modality::Possibly, Modality::Definitely] {
        let mut first: Option<Answer> = None;
        for (s, slicing) in SLICINGS.into_iter().enumerate() {
            let engine = match (case.engines)(modality, slicing) {
                Ok(engine) => engine,
                Err(refusal) => {
                    for threads in THREADS.into_iter().filter(|&t| case.grid.runs(slicing, t)) {
                        let err = ask(case, modality, slicing, threads, None, None).err();
                        prop_assert_eq!(err.as_ref(), Some(&refusal), "{:?}", modality);
                    }
                    continue;
                }
            };
            let mut nodes = 0;
            for threads in THREADS.into_iter().filter(|&t| case.grid.runs(slicing, t)) {
                let cell = format!("{modality:?}, {slicing:?}, threads {threads}");
                let report = ask(case, modality, slicing, threads, None, None)
                    .map_err(|e| fail(&cell, e))?;
                prop_assert_eq!(report.engine, engine, "{}", cell);
                let Verdict::Decided(answer, progress) = report.verdict else {
                    return Err(fail(&cell, "undecided"));
                };
                nodes = nodes.max(progress.nodes_explored);
                match &answer {
                    Answer::Holds(h) => prop_assert_eq!(*h, definitely, "{}", cell),
                    Answer::Witness(w) => {
                        prop_assert_eq!(w.is_some(), oracle.is_some(), "{}", cell);
                        if let Some(w) = w {
                            prop_assert!(comp.is_consistent(w), "{}", cell);
                            prop_assert!((case.holds)(w), "{}: witness {:?}", cell, w.frontier());
                        }
                        if let (Some(w), Some(meet)) = (w, &meet) {
                            prop_assert_eq!(w.frontier(), meet.as_slice(), "{}", cell);
                        }
                    }
                }
                match &first {
                    None => first = Some(answer),
                    Some(a) => prop_assert_eq!(a, &answer, "{}", cell),
                }
            }
            if case.grid != Grid::Every {
                continue;
            }
            // A random cap falls anywhere in the engine's work or in the
            // slice build's, which a budgeted run charges first.
            let range = nodes + comp.event_count() as u64 + 2;
            for (cap, start) in [(1, s), (1 + caps.gen_range(0..range), s + 2)] {
                let answer = chain(case, modality, slicing, cap, start)?;
                prop_assert_eq!(
                    first.as_ref(),
                    Some(&answer),
                    "{:?}, {:?}, cap {}",
                    modality,
                    slicing,
                    cap
                );
            }
        }
        if let Some(Answer::Witness(w)) = first {
            witness = w;
        }
    }
    Ok(Outcome { oracle, witness })
}

fn conjunction_cells(
    comp: &Computation,
    var: &BoolVariable,
    processes: &[ProcessId],
    seed: u64,
) -> Result<Outcome, TestCaseError> {
    let holds = |c: &Cut| processes.iter().all(|&p| var.value_at(c, p.index()));
    let engines = routed(
        "possibly-conjunctive",
        "definitely-conjunctive",
        Ok(["possibly-slice", "definitely-slice"]),
    );
    cells(&Case {
        comp,
        predicate: Predicate::Conjunction { var, processes },
        holds: &holds,
        engines: &engines,
        lattice: true,
        seed,
        grid: Grid::Every,
    })
}

/// A random conjunction over every process, literal `p` positive where
/// `positive(p)`, its polarities folded into the variable as the CLI
/// folds them.
fn random_conjunction_cells(
    (seed, n, m, msgs, density): (u64, usize, usize, usize, f64),
    positive: fn(usize) -> bool,
) -> Result<Outcome, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let comp = support::computation(&mut rng, n, m, msgs);
    let x = gen::random_bool_variable(&mut rng, &comp, density);
    let literals: Vec<_> = (0..n).map(|p| (ProcessId::new(p), positive(p))).collect();
    let lit = support::polarity_folded(&comp, &x, &literals);
    let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
    conjunction_cells(&comp, &lit, &processes, seed)
}

/// A CNF case's cells, then its engine columns: the subset odometer
/// (byte-identical to the scan layer's restart-loop reference), the chain
/// odometer, and the generic Possibly sweep, whose witness sits on the
/// oracle's level.
fn cnf_cells(
    comp: &Computation,
    var: &BoolVariable,
    cnf: &SingularCnf,
    seed: u64,
    grid: Grid,
) -> Result<Outcome, TestCaseError> {
    let grouping = cnf.grouping();
    let ordered = grouping.is_ordered(comp, OrderingKind::ReceiveOrdered)
        || grouping.is_ordered(comp, OrderingKind::SendOrdered);
    let unit = cnf.clauses().iter().any(|c| c.literals().len() == 1);
    let engines = |modality, slicing| match (modality, slicing) {
        (_, Slicing::Force) if !unit => Err(DetectError::NoEnvelope),
        (Modality::Possibly, _) if ordered => Ok("singular-ordered"),
        (Modality::Possibly, _) => Ok("singular-chains"),
        (Modality::Definitely, Slicing::Auto | Slicing::Force) if unit => {
            Ok("definitely-levelwise-sliced")
        }
        (Modality::Definitely, _) => Ok(DEFINITELY_LEVELWISE),
    };
    let holds = |c: &Cut| cnf.eval(var, c);
    let outcome = cells(&Case {
        comp,
        predicate: Predicate::SingularCnf { var, cnf },
        holds: &holds,
        engines: &engines,
        lattice: false,
        seed,
        grid,
    })?;
    let unlimited = Budget::unlimited();
    let column = |name: &str, run: &dyn Fn(usize) -> Result<Verdict<Option<Cut>>, DetectError>| {
        let mut first = None;
        for threads in THREADS {
            let at = format!("{name}, threads {threads}");
            let verdict = run(threads).map_err(|e| fail(&at, e))?;
            let witness = verdict
                .value()
                .cloned()
                .ok_or_else(|| fail(&at, "undecided"))?;
            prop_assert_eq!(witness.is_some(), outcome.oracle.is_some(), "{}", at);
            if let Some(w) = &witness {
                prop_assert!(comp.is_consistent(w) && holds(w), "{}", at);
            }
            match &first {
                None => first = Some(witness),
                Some(f) => prop_assert_eq!(f, &witness, "{}", at),
            }
        }
        Ok(first.flatten())
    };
    let subsets = column("subsets", &|t| {
        possibly_singular_subsets_budgeted(comp, var, cnf, t, &unlimited, &BudgetMeter::new(), None)
    })?;
    let reference = possibly_singular_subsets_reference(comp, var, cnf);
    prop_assert_eq!(subsets, reference, "subsets vs the reference");
    column("chains", &|t| {
        possibly_singular_chains_budgeted(comp, var, cnf, t, &unlimited, &BudgetMeter::new(), None)
    })?;
    let sweep = column("sweep", &|t| {
        possibly_by_enumeration_budgeted(comp, holds, t, &unlimited, &BudgetMeter::new(), None)
    })?;
    let level = |w: &Option<Cut>| w.as_ref().map(Cut::event_count);
    prop_assert_eq!(level(&sweep), level(&outcome.oracle), "sweep witness level");
    Ok(outcome)
}

/// A random computation, variable and CNF of at most `max_clauses`
/// clauses.
fn random_cnf_cells(
    seed: u64,
    n: usize,
    m: usize,
    msgs: usize,
    density: f64,
    max_clauses: usize,
) -> Result<Outcome, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let comp = support::computation(&mut rng, n, m, msgs);
    let x = gen::random_bool_variable(&mut rng, &comp, density);
    let phi = support::singular_cnf(&mut rng, n, max_clauses, false);
    cnf_cells(&comp, &x, &phi, seed, Grid::Every)
}

fn sum_cells(
    comp: &Computation,
    var: &IntVariable,
    relop: Relop,
    k: i64,
    seed: u64,
) -> Result<Outcome, TestCaseError> {
    let engines = routed(
        "possibly-sum",
        "definitely-sum",
        Err(DetectError::NotRegular("sum")),
    );
    cells(&Case {
        comp,
        predicate: Predicate::Sum { var, relop, k },
        holds: &|c: &Cut| relop.eval(var.sum_at(c), k),
        engines: &engines,
        lattice: false,
        seed,
        grid: Grid::Every,
    })
}

fn exact_sum_cells(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    seed: u64,
) -> Result<Outcome, TestCaseError> {
    // Theorem 7 needs ±1 steps; larger ones fall back to enumeration.
    let [possibly, definitely] = match var.is_unit_step() {
        true => ["possibly-exact-sum", "definitely-exact-sum"],
        false => [EXACT_SUM_ENUMERATION; 2],
    };
    let engines = routed(possibly, definitely, Err(DetectError::NotRegular("sum")));
    cells(&Case {
        comp,
        predicate: Predicate::ExactSum { var, k },
        holds: &|c: &Cut| var.sum_at(c) == k,
        engines: &engines,
        lattice: false,
        seed,
        grid: Grid::Every,
    })
}

fn symmetric_cells(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SymmetricPredicate,
    seed: u64,
) -> Result<Outcome, TestCaseError> {
    let engines = routed(
        "possibly-symmetric",
        DEFINITELY_LEVELWISE,
        Err(DetectError::NotRegular("count")),
    );
    cells(&Case {
        comp,
        predicate: Predicate::Symmetric { var, predicate },
        holds: &|c: &Cut| predicate.eval(comp, var, c),
        engines: &engines,
        lattice: false,
        seed,
        grid: Grid::Every,
    })
}

/// Parameters compact enough that the lattice stays enumerable.
fn params() -> impl Strategy<Value = (u64, usize, usize, usize, f64)> {
    (any::<u64>(), 2usize..5, 1usize..6, 0usize..8, 0.2f64..0.7)
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
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, 0.5);
        let procs: Vec<ProcessId> = (0..n).filter(|_| rng.gen_bool(0.7)).map(ProcessId::new).collect();
        conjunction_cells(&comp, &x, &procs, seed)?;
        let cnf = support::singular_cnf(&mut rng, n, usize::MAX, false);
        cnf_cells(&comp, &x, &cnf, seed, Grid::Every)?;
        let y = if rng.gen_bool(0.5) {
            gen::random_unit_int_variable(&mut rng, &comp)
        } else {
            gen::random_int_variable(&mut rng, &comp, 2)
        };
        let k = rng.gen_range(-3..=3);
        let relop = [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge][rng.gen_range(0..4)];
        sum_cells(&comp, &y, relop, k, seed)?;
        exact_sum_cells(&comp, &y, k, seed)?;
        let counts: Vec<u32> = (0..=n as u32).filter(|_| rng.gen_bool(0.4)).collect();
        symmetric_cells(&comp, &x, &SymmetricPredicate::new(counts), seed)?;
        // A walk of step 2 or 3 takes the exact sum's enumeration
        // fallback, and its suffix-bound pruned sweep under a budget.
        let step = rng.gen_range(2..=3);
        let walk = support::step_walk(&mut rng, &comp, step);
        exact_sum_cells(&comp, &walk, rng.gen_range(-2 * step..=2 * step), seed)?;
    }

    #[test]
    fn cpdhb_agrees_with_enumeration(case in params()) {
        random_conjunction_cells(case, |_| true)?;
    }

    #[test]
    fn literal_form_agrees_with_enumeration(case in params()) {
        random_conjunction_cells(case, |p| p % 2 == 0)?;
    }

    #[test]
    fn witness_is_the_least_one(case in params()) {
        random_conjunction_cells(case, |_| true)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conjunctive_witness_is_the_minimum_level_witness(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.7,
    ) {
        let outcome = random_conjunction_cells((seed, n, m, msgs, density), |_| true)?;
        // The least Φ-cut lies on the breadth-first oracle's level.
        let level = |w: &Option<Cut>| w.as_ref().map(Cut::event_count);
        prop_assert_eq!(level(&outcome.witness), level(&outcome.oracle));
    }

    #[test]
    fn possibly_sum_agrees_for_all_relops(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        k in -6i64..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = support::computation(&mut rng, n, m, n);
        let x = gen::random_int_variable(&mut rng, &comp, 4);
        for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
            sum_cells(&comp, &x, relop, k, seed)?;
        }
    }

    #[test]
    fn exact_sum_possibly_and_definitely_agree(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..5,
        k in -3i64..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = support::computation(&mut rng, n, m, n);
        let x = gen::random_unit_int_variable(&mut rng, &comp);
        exact_sum_cells(&comp, &x, k, seed)?;
    }

    #[test]
    fn definitely_sum_agrees_with_enumeration(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..4,
        k in -4i64..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = support::computation(&mut rng, n, m, n / 2);
        let x = gen::random_int_variable(&mut rng, &comp, 3);
        for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
            sum_cells(&comp, &x, relop, k, seed)?;
        }
    }

    #[test]
    fn symmetric_detection_agrees_with_enumeration(
        seed in any::<u64>(),
        n in 2usize..5,
        m in 1usize..4,
        density in 0.2f64..0.8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, n / 2);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let n = n as u32;
        for phi in [
            SymmetricPredicate::exclusive_or(n),
            SymmetricPredicate::not_all_equal(n),
            SymmetricPredicate::all_equal(n),
            SymmetricPredicate::absence_of_simple_majority(n),
            SymmetricPredicate::absence_of_two_thirds_majority(n),
        ] {
            symmetric_cells(&comp, &x, &phi, seed)?;
        }
        // `count … exactly j` walks toward the same extreme cut as the
        // exact-sum query on the indicator, so the witnesses coincide.
        let indicator = indicator_variable(&comp, &x);
        for j in 0..=n {
            let count = symmetric_cells(&comp, &x, &SymmetricPredicate::exactly(j), seed)?;
            let sum = exact_sum_cells(&comp, &indicator, i64::from(j), seed)?;
            prop_assert_eq!(count.witness, sum.witness, "exactly {}", j);
        }
    }

    #[test]
    fn general_algorithms_agree_with_enumeration(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.6,
    ) {
        random_cnf_cells(seed, n, m, msgs, density, 3)?;
    }

    #[test]
    fn ordered_special_case_agrees_with_enumeration(
        seed in any::<u64>(),
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = support::receive_ordered(&mut rng, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = support::two_group_cnf(&mut rng);
        // Receive-ordered by construction, so Possibly takes §3.2's scan.
        prop_assert!(phi.grouping().is_ordered(&comp, OrderingKind::ReceiveOrdered));
        cnf_cells(&comp, &x, &phi, seed, Grid::Every)?;
    }

    #[test]
    fn incremental_subsets_match_the_reference_byte_for_byte(
        seed in any::<u64>(),
        n in 2usize..7,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.7,
    ) {
        random_cnf_cells(seed, n, m, msgs, density, 3)?;
    }

    #[test]
    fn snapshot_resume_agrees_at_every_thread_count(
        seed in any::<u64>(),
        n in 2usize..7,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.7,
    ) {
        random_cnf_cells(seed, n, m, msgs, density, 3)?;
    }
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
        random_cnf_cells(seed, n, m, msgs, density, 3)?;
    }

    #[test]
    fn parallel_enumeration_witness_is_byte_identical_across_threads(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..5,
        msgs in 0usize..4,
        density in 0.2f64..0.6,
    ) {
        random_cnf_cells(seed, n, m, msgs, density, 2)?;
    }
}

/// A clause with no true state anywhere: the subset engine gets an empty
/// slot, the chain engine an empty cover, and every engine must reject
/// cleanly. The no-message computation is trivially ordered.
#[test]
fn empty_cover_rejects_cleanly_at_every_thread_count() {
    let (comp, x, phi) = support::empty_cover();
    let outcome = cnf_cells(&comp, &x, &phi, 0, Grid::Every).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.witness, None);
}

/// The same with every literal empty.
#[test]
fn all_literals_empty_rejects_cleanly() {
    let (comp, x, phi) = support::all_literals_empty();
    let outcome = cnf_cells(&comp, &x, &phi, 0, Grid::Every).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcome.witness, None);
}

/// Runs the six rounds of wide shape `shape` (drawn for both shapes in
/// one sequence from seed 7070): the 70-process message chain, whose
/// removable masks take two words, or 33 processes whose frontier alone
/// needs 99 bits, with middle levels of 512 cuts. Clauses over the free
/// processes and two distinct chain processes land witnesses inside the
/// wide levels. Round `r` of the twelve adds the sliced cell
/// (Auto or Force, by parity) at thread count `THREADS[r / 2 % 4]`, so
/// every sliced cell runs on some round.
fn wide_record_rounds(shape: usize) {
    let mut rng = StdRng::seed_from_u64(7070);
    let shapes = [
        support::chain_plus_free(68, 2, 2),
        support::chain_plus_free(30, 2, 3),
    ];
    for (i, comp) in shapes.iter().enumerate() {
        let n = comp.process_count();
        for round in 0..6 {
            let x = gen::random_bool_variable(&mut rng, comp, 0.5);
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
            if i != shape {
                continue;
            }
            let r = 6 * i + round;
            let slicing = [Slicing::Auto, Slicing::Force][r % 2];
            let grid = Grid::Wide(slicing, THREADS[r / 2 % 4]);
            cnf_cells(comp, &x, &phi, 7070, grid)
                .unwrap_or_else(|e| panic!("shape {i}, round {round}: {e}"));
        }
    }
}

#[test]
fn wide_record_sweeps_agree_at_every_thread_count() {
    wide_record_rounds(0);
}

#[test]
fn wide_record_sweeps_agree_over_99_bit_frontiers() {
    wide_record_rounds(1);
}

/// The witness of a budgeted engine run under an unlimited budget, which
/// always decides.
fn decided(
    run: impl FnOnce(&Budget, &BudgetMeter) -> Result<Verdict<Option<Cut>>, DetectError>,
) -> Option<Cut> {
    let verdict = run(&Budget::unlimited(), &BudgetMeter::new()).expect("no checkpoint, no panic");
    verdict
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// On the E5 wide-clause unsat workload every literal combination must
/// be scanned: the subset odometer rejects like the restart-loop
/// reference at every thread count, and sequentially with strictly fewer
/// `forces` evaluations. Its lattice is far too large for the oracles,
/// so it is an engine-column test rather than a case of the matrix.
#[test]
fn wide_unsat_workload_rejects_identically_and_cheaper() {
    let (comp, var, phi) = support::wide_unsat(4, 2, 4, 2);
    let subsets = |threads| {
        decided(|b, m| possibly_singular_subsets_budgeted(&comp, &var, &phi, threads, b, m, None))
    };

    let before = counters::snapshot();
    let reference = possibly_singular_subsets_reference(&comp, &var, &phi);
    let reference_work = counters::snapshot().since(&before);
    assert!(reference.is_none());

    let before = counters::snapshot();
    let incremental = subsets(0);
    let incremental_work = counters::snapshot().since(&before);
    assert!(incremental.is_none());

    // Concurrent tests in this process can inflate either side's
    // delta, so this inequality is not exact. The exact gate is
    // `tests/reduction_floors.rs`: alone in its process, it pins both
    // sides (32 vs 2) on `gpd_bench::wide_unsat_singular_workload(10, 2, 4)`.
    assert!(
        incremental_work.forces_evals < reference_work.forces_evals,
        "incremental {} vs reference {} forces evaluations",
        incremental_work.forces_evals,
        reference_work.forces_evals
    );

    for threads in [1usize, 2, 4] {
        assert!(subsets(threads).is_none());
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

/// The generic level sweeps' checkpoint format, on a predicate no class
/// expresses: a width-capped sweep checkpoints the whole level below the
/// cap in canonical order, and every interrupted sweep resumes to the
/// uninterrupted outcome.
#[test]
fn mid_sweep_checkpoints_keep_their_format_and_resume_to_the_uninterrupted_outcome() {
    let comp = support::chain_plus_free(30, 2, 3);
    let problem = problem_fingerprint(&comp);
    // Φ first holds deep inside the wide levels; ¬Φ paths survive to
    // the end, so Definitely(Φ) is false after a full sweep.
    let pred = |c: &Cut| c.event_count() == 40 && c.frontier()[32] == 3;
    let full = decided(|b, m| possibly_by_enumeration_budgeted(&comp, pred, 0, b, m, None))
        .expect("satisfiable");
    assert_eq!(full.event_count(), 40);
    let narrow = Budget::unlimited().with_max_width(300);
    for threads in THREADS {
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
