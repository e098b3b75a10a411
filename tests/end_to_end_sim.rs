//! End-to-end: simulate a protocol, record its computation, run the
//! paper's detection algorithms on the trace — the full workflow a user
//! of this library would follow when debugging a distributed system.

use gpd::conjunctive::possibly_conjunctive;
use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::possibly_by_enumeration;
use gpd::relational::possibly_sum;
use gpd::symmetric::{indicator_variable, possibly_symmetric, SymmetricPredicate};
use gpd::Relop;
use gpd_computation::{Computation, Cut, IntVariable, ProcessId};
use gpd_sim::protocols::{BankBranch, ChangRoberts, RicartAgrawala, TokenRing, Voter};
use gpd_sim::{SimConfig, Simulation};

/// `Possibly(Σ var = k)` through the planner: the Theorem 4 walk's
/// witness for ±1 steps.
fn possibly_exact_sum(comp: &Computation, var: &IntVariable, k: i64) -> Option<Cut> {
    let query = Query {
        comp,
        predicate: Predicate::ExactSum { var, k },
        modality: Modality::Possibly,
    };
    match gpd::detect(&query, &Options::default())
        .unwrap()
        .verdict
        .value()
    {
        Some(Answer::Witness(witness)) => witness.clone(),
        other => panic!("an unbudgeted Possibly question decides: {other:?}"),
    }
}

#[test]
fn correct_mutex_has_no_possible_violation() {
    for seed in 0..5 {
        let trace = Simulation::new(RicartAgrawala::group(3, 2), SimConfig::new(seed)).run();
        let in_cs = trace.bool_var("in_cs").unwrap();
        // Check every pair of processes with the polynomial algorithm.
        for i in 0..3 {
            for j in (i + 1)..3 {
                let witness = possibly_conjunctive(
                    &trace.computation,
                    in_cs,
                    &[ProcessId::new(i), ProcessId::new(j)],
                );
                assert!(
                    witness.is_none(),
                    "seed {seed}: pair ({i},{j}) could violate mutual exclusion"
                );
            }
        }
    }
}

#[test]
fn buggy_mutex_violation_is_detected_and_witnessed() {
    let mut found = false;
    for seed in 0..10 {
        let trace = Simulation::new(
            RicartAgrawala::group_with_bug(3, 1, true),
            SimConfig::new(seed),
        )
        .run();
        let in_cs = trace.bool_var("in_cs").unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                if let Some(cut) = possibly_conjunctive(
                    &trace.computation,
                    in_cs,
                    &[ProcessId::new(i), ProcessId::new(j)],
                ) {
                    // The witness is a real consistent global state with
                    // both processes inside the critical section.
                    assert!(trace.computation.is_consistent(&cut));
                    assert!(in_cs.value_at(&cut, i) && in_cs.value_at(&cut, j));
                    found = true;
                }
            }
        }
    }
    assert!(
        found,
        "the injected bug never produced a detectable violation"
    );
}

#[test]
fn token_conservation_and_loss_detection() {
    let trace = Simulation::new(TokenRing::ring(5, 2), SimConfig::new(7)).run();
    let tokens = trace.int_var("tokens").unwrap();
    assert!(tokens.is_unit_step());

    // "Exactly 2 tokens held" is possible (e.g. the initial cut).
    let w = possibly_exact_sum(&trace.computation, tokens, 2);
    assert!(w.is_some());
    // More tokens than exist is impossible.
    assert!(possibly_exact_sum(&trace.computation, tokens, 3).is_none());
    // With tokens in flight, some cut holds fewer than 2.
    let dip = possibly_sum(&trace.computation, tokens, Relop::Lt, 2);
    let slow = possibly_by_enumeration(&trace.computation, |c| tokens.sum_at(c) < 2);
    assert_eq!(dip.is_some(), slow.is_some());
}

#[test]
fn duplication_bug_shows_up_as_excess_tokens() {
    let trace = Simulation::new(TokenRing::ring_with_bug(5, 2, 2), SimConfig::new(7)).run();
    let tokens = trace.int_var("tokens").unwrap();
    // Conservation violated: some cut holds more than 2 tokens.
    assert!(
        possibly_sum(&trace.computation, tokens, Relop::Gt, 2).is_some(),
        "duplicated tokens must be observable at some cut"
    );
}

#[test]
fn election_yields_exactly_one_leader() {
    let trace = Simulation::new(ChangRoberts::ring(&[4, 9, 2, 7, 5]), SimConfig::new(3)).run();
    let leader = trace.bool_var("is_leader").unwrap();
    // "Exactly one leader" eventually holds.
    let one = possibly_symmetric(&trace.computation, leader, &SymmetricPredicate::exactly(1));
    assert!(one.is_some());
    // "Two or more leaders" never: counts 2..=5 are all impossible.
    let many = SymmetricPredicate::new(2..=5);
    assert!(possibly_symmetric(&trace.computation, leader, &many).is_none());
}

#[test]
fn voting_majority_analysis_matches_ballots() {
    let n = 4;
    let (trace, voters) =
        Simulation::new(Voter::electorate(n, 0.5), SimConfig::new(11)).run_with_processes();
    let voted_yes = trace.bool_var("voted_yes").unwrap();
    let yes_total = voters.iter().filter(|v| v.ballot() == Some(true)).count() as i64;

    // The final tally is reachable as an exact sum.
    let indicator = indicator_variable(&trace.computation, voted_yes);
    assert!(possibly_exact_sum(&trace.computation, &indicator, yes_total).is_some());

    // Absence of simple majority (= exactly 2 of 4 yes) possible iff the
    // exhaustive baseline says so.
    let phi = SymmetricPredicate::absence_of_simple_majority(n as u32);
    let fast = possibly_symmetric(&trace.computation, voted_yes, &phi);
    let slow = possibly_by_enumeration(&trace.computation, |c| {
        phi.eval(&trace.computation, voted_yes, c)
    });
    assert_eq!(fast.is_some(), slow.is_some());
}

#[test]
fn bank_solvency_questions_are_polynomial() {
    let trace = Simulation::new(BankBranch::network(4, 100, 3, 50), SimConfig::new(19)).run();
    let balance = trace.int_var("balance").unwrap();
    let total = 400;

    // Visible money never exceeds the grand total (transfers only hide
    // money in flight).
    assert!(possibly_sum(&trace.computation, balance, Relop::Gt, total).is_none());
    // It can dip below when transfers are in flight (if any happened).
    if !trace.computation.messages().is_empty() {
        assert!(possibly_sum(&trace.computation, balance, Relop::Lt, total).is_some());
    }
    // The minimum visible amount matches the exhaustive baseline.
    let (min, cut) = gpd::relational::min_sum_cut(&trace.computation, balance);
    let brute = trace
        .computation
        .consistent_cuts()
        .map(|c| balance.sum_at(&c))
        .min()
        .unwrap();
    assert_eq!(min, brute);
    assert_eq!(balance.sum_at(&cut), min);
}
