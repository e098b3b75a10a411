//! The Theorem 1 gadget, materialized: a SAT formula becomes a
//! computation plus a singular 2-CNF predicate, and detection becomes a
//! SAT solver.
//!
//! Run with: `cargo run --example sat_reduction`

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::hardness::reduce_sat;
use gpd_computation::to_dot;
use gpd_sat::{solve, to_non_monotone, Cnf, Lit};

fn main() {
    // The paper's Figure 3 formula family: (x ∨ y) ∧ (¬x ∨ ¬y) —
    // "exactly one of x, y", satisfiable two ways.
    let formula = Cnf::new(
        2,
        vec![
            vec![Lit::pos(0), Lit::pos(1)].into(),
            vec![Lit::neg(0), Lit::neg(1)].into(),
        ],
    );
    demonstrate("figure 3", &formula);

    // An unsatisfiable formula: x ∧ ¬x.
    let unsat = Cnf::new(1, vec![vec![Lit::pos(0)].into(), vec![Lit::neg(0)].into()]);
    demonstrate("x ∧ ¬x", &unsat);

    // A monotone 3-clause needs the paper's non-monotonization first.
    let monotone = Cnf::new(
        3,
        vec![
            vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)].into(),
            vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)].into(),
        ],
    );
    let nm = to_non_monotone(&monotone);
    println!(
        "non-monotonization: {} clauses / {} vars → {} clauses / {} vars\n",
        monotone.clauses().len(),
        monotone.num_vars(),
        nm.clauses().len(),
        nm.num_vars()
    );
    demonstrate("monotone (transformed)", &nm);
}

fn demonstrate(label: &str, formula: &Cnf) {
    println!("=== {label}: {formula:?}");
    let gadget = reduce_sat(formula).expect("non-monotone 3-CNF");
    println!(
        "gadget: {} processes, {} events, {} conflict arrows",
        gadget.computation.process_count(),
        gadget.computation.event_count(),
        gadget.computation.messages().len()
    );

    let dpll = solve(formula);
    let query = Query {
        comp: &gadget.computation,
        predicate: Predicate::SingularCnf {
            var: &gadget.variable,
            cnf: &gadget.predicate,
        },
        modality: Modality::Possibly,
    };
    let report = gpd::detect(&query, &Options::default()).expect("no budget, no resume");
    let Some(Answer::Witness(detected)) = report.verdict.value().cloned() else {
        unreachable!("an unbudgeted Possibly question decides")
    };
    println!(
        "DPLL: {} | detection: {}",
        if dpll.is_some() { "SAT" } else { "UNSAT" },
        if detected.is_some() {
            "Possibly"
        } else {
            "impossible"
        },
    );
    assert_eq!(dpll.is_some(), detected.is_some(), "Theorem 1 equivalence");

    if let Some(cut) = detected {
        let assignment = gadget.assignment_from_cut(&cut);
        println!(
            "witness cut {:?} decodes to assignment {assignment:?}",
            cut.frontier()
        );
        assert!(formula.eval(&assignment));
    }
    if gadget.computation.event_count() <= 12 {
        println!(
            "space-time diagram:\n{}",
            to_dot(&gadget.computation, Some(&gadget.variable))
        );
    }
    println!();
}
