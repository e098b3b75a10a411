//! Quickstart: build a small computation by hand and ask the detection
//! questions from the paper's introduction.
//!
//! Run with: `cargo run --example quickstart`

use gpd::conjunctive::possibly_conjunctive;
use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::{CnfClause, SingularCnf};
use gpd_computation::{to_dot, BoolVariable, Computation, ComputationBuilder, IntVariable};

/// Asks one question through `gpd::detect`, which picks the engine for
/// the predicate class and modality.
fn ask(comp: &Computation, predicate: Predicate<'_>, modality: Modality) -> Answer {
    let query = Query {
        comp,
        predicate,
        modality,
    };
    let report = gpd::detect(&query, &Options::default()).expect("a small computation");
    report
        .verdict
        .value()
        .expect("unbudgeted questions decide")
        .clone()
}

fn main() {
    // A 3-process computation: p0 sends to p1, p1 sends to p2.
    //
    //   p0: a1 ──a2
    //         ╲
    //   p1:    b1 ──b2
    //                ╲
    //   p2:           c1
    let mut b = ComputationBuilder::new(3);
    let a1 = b.append(0);
    let _a2 = b.append(0);
    let b1 = b.append(1);
    let b2 = b.append(1);
    let c1 = b.append(2);
    b.message(a1, b1).unwrap();
    b.message(b2, c1).unwrap();
    let comp = b.build().unwrap();

    println!(
        "computation: {} processes, {} events, {} messages",
        comp.process_count(),
        comp.event_count(),
        comp.messages().len()
    );
    println!("consistent cuts: {}", comp.consistent_cuts().count());

    // Per-process booleans: "phase flag" that flips at various events.
    let flag = BoolVariable::new(
        &comp,
        vec![
            vec![false, true, false], // p0: true only after a1
            vec![false, false, true], // p1: true only after b2
            vec![false, true],        // p2: true after c1
        ],
    );

    // Possibly(flag0 ∧ flag1 ∧ flag2)? CPDHB answers in polynomial time.
    match possibly_conjunctive(&comp, &flag, &[0.into(), 1.into(), 2.into()]) {
        Some(cut) => println!("conjunction possible at cut {cut:?}"),
        None => println!("conjunction impossible: flag0 dies before flag2 can rise"),
    }

    // A singular 2-CNF: (flag0 ∨ ¬flag1) ∧ (flag2).
    let phi = SingularCnf::new(vec![
        CnfClause::new(vec![(0.into(), true), (1.into(), false)]),
        CnfClause::new(vec![(2.into(), true)]),
    ]);
    let cnf = Predicate::SingularCnf {
        var: &flag,
        cnf: &phi,
    };
    match ask(&comp, cnf, Modality::Possibly) {
        Answer::Witness(Some(cut)) => println!("singular 2-CNF possible at cut {cut:?}"),
        _ => println!("singular 2-CNF impossible"),
    }

    // An exact-sum question: tokens held per process, ±1 per event.
    let tokens = IntVariable::new(&comp, vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 1]]);
    for k in 0..=2 {
        let sum = Predicate::ExactSum { var: &tokens, k };
        let answer = match ask(&comp, sum, Modality::Possibly) {
            Answer::Witness(Some(c)) => format!("yes, e.g. {c:?}"),
            _ => "no".to_string(),
        };
        println!("Possibly(Σ tokens = {k}): {answer}");
    }

    // Definitely: must every run pass through a state with exactly one
    // token? (Theorem 7(2): one inequality, decided exactly.)
    let one = Predicate::ExactSum { var: &tokens, k: 1 };
    let definitely_one = ask(&comp, one, Modality::Definitely) == Answer::Holds(true);
    println!("Definitely(Σ tokens = 1): {definitely_one}");

    // Export the space-time diagram.
    println!(
        "\nGraphviz (pipe into `dot -Tsvg`):\n{}",
        to_dot(&comp, Some(&flag))
    );
}
