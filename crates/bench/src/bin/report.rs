//! Regenerates `EXPERIMENTS.md`: one compact, deterministic run of
//! every experiment E1–E8, printed as markdown. Each table cross-checks
//! the algorithms it times against each other (or an oracle) and panics
//! on a disagreement.
//!
//! Run with: `cargo run --release -p gpd-bench --bin report > EXPERIMENTS.md`

use std::time::{Duration, Instant};

use gpd::conjunctive::possibly_conjunctive;
use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::possibly_by_enumeration;
use gpd::hardness::{brute_force_subset_sum, reduce_sat, reduce_subset_sum};
use gpd::relational::{possibly_sum, sum_extremes};
use gpd::singular::{
    chain_cover_sizes, possibly_singular_chains_budgeted, possibly_singular_ordered,
    possibly_singular_subsets_budgeted,
};
use gpd::symmetric::{possibly_symmetric, SymmetricPredicate};
use gpd::{Budget, BudgetMeter, Relop, SingularCnf};
use gpd_bench::{
    boolean_workload, hard_formula, ordered_singular_workload, sat_gadget, singular_workload,
    standard_computation, subset_sum_instance, unit_sum_workload,
};
use gpd_computation::{BoolVariable, Computation, Cut, IntVariable, ProcessId};
use gpd_sat::solve;

/// The subset engine fanned out over `threads` under an unlimited budget.
fn subsets_at(
    comp: &Computation,
    var: &BoolVariable,
    phi: &SingularCnf,
    threads: usize,
) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_singular_subsets_budgeted(comp, var, phi, threads, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// The chain-cover engine, sequential, under an unlimited budget.
fn chains(comp: &Computation, var: &BoolVariable, phi: &SingularCnf) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_singular_chains_budgeted(comp, var, phi, 0, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// `Σ var = k` asked through the planner (Theorem 7 for ±1 steps).
fn exact_sum(comp: &Computation, var: &IntVariable, k: i64, modality: Modality) -> Answer {
    let query = Query {
        comp,
        predicate: Predicate::ExactSum { var, k },
        modality,
    };
    let report = gpd::detect(&query, &Options::default()).expect("±1 steps need no guard");
    report
        .verdict
        .value()
        .expect("unbudgeted questions decide")
        .clone()
}

/// The witness of a Possibly answer.
fn witness(answer: Answer) -> Option<Cut> {
    match answer {
        Answer::Witness(witness) => witness,
        Answer::Holds(_) => unreachable!("a Possibly question answers with a witness"),
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn us(d: Duration) -> String {
    if d.as_micros() < 10_000 {
        format!("{:.1} µs", d.as_nanos() as f64 / 1e3)
    } else if d.as_millis() < 10_000 {
        format!("{:.2} ms", d.as_nanos() as f64 / 1e6)
    } else {
        format!("{:.2} s", d.as_nanos() as f64 / 1e9)
    }
}

fn main() {
    println!(
        "# Experiment report (regenerate with `cargo run --release -p gpd-bench --bin report > EXPERIMENTS.md`)\n"
    );
    e1();
    e2();
    e3();
    e4();
    e5();
    e6();
    e7();
    e8();
}

fn e1() {
    println!("## E1 — taxonomy (Figure 1)\n");
    println!("| class / algorithm | n=4 | n=8 | n=16 |");
    println!("|---|---|---|---|");
    let mut rows: Vec<(String, Vec<String>)> = vec![
        ("Possibly(conjunctive) — CPDHB".into(), vec![]),
        ("Definitely(conjunctive) — GW strong".into(), vec![]),
        ("singular 2-CNF (chains)".into(), vec![]),
        ("relational Σ≥K (flow)".into(), vec![]),
        ("exact sum Σ=K (Thm 7)".into(), vec![]),
        ("symmetric XOR".into(), vec![]),
    ];
    for &n in &[4usize, 8, 16] {
        let m = 50;
        let (comp, bvar) = boolean_workload(100 + n as u64, n, m);
        let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
        let (_, t) = time(|| possibly_conjunctive(&comp, &bvar, &processes));
        rows[0].1.push(us(t));
        let (_, t) = time(|| gpd::conjunctive::definitely_conjunctive(&comp, &bvar, &processes));
        rows[1].1.push(us(t));
        let (scomp, svar, spred) = singular_workload(200 + n as u64, n / 2, 2, m, 0.4);
        let (_, t) = time(|| chains(&scomp, &svar, &spred));
        rows[2].1.push(us(t));
        let (icomp, ivar) = unit_sum_workload(300 + n as u64, n, m);
        let (_, t) = time(|| possibly_sum(&icomp, &ivar, Relop::Ge, 2));
        rows[3].1.push(us(t));
        let (_, t) = time(|| exact_sum(&icomp, &ivar, 1, Modality::Possibly));
        rows[4].1.push(us(t));
        let xor = SymmetricPredicate::exclusive_or(n as u32);
        let (_, t) = time(|| possibly_symmetric(&comp, &bvar, &xor));
        rows[5].1.push(us(t));
    }
    for (name, cells) in rows {
        println!("| {name} | {} |", cells.join(" | "));
    }
    let (comp, bvar) = boolean_workload(999, 4, 6);
    let (_, t) =
        time(|| possibly_by_enumeration(&comp, |cut| (0..4).all(|p| bvar.value_at(cut, p))));
    println!("\nBaseline lattice enumeration already needs {} at n=4, m=6 — the polynomial classes above handle 50–200 events per process in the same ballpark.\n", us(t));
}

fn e2() {
    println!("## E2 — lattice growth (§2 model, Figure 2)\n");
    println!("| processes (6 events each) | consistent cuts | enumeration time |");
    println!("|---|---|---|");
    for &n in &[2usize, 3, 4, 5] {
        let comp = standard_computation(20 + n as u64, n, 6);
        let (count, t) = time(|| comp.consistent_cuts().count());
        println!("| {n} | {count} | {} |", us(t));
    }
    println!();
}

fn e3() {
    println!("## E3 — Theorem 1 (SAT reduction)\n");
    println!("Construction cost (hard-density formulas, `clauses ≈ 4.27·vars`):\n");
    println!("| vars | clauses (after non-monotonization) | reduce time | gadget events |");
    println!("|---|---|---|---|");
    for &vars in &[10u32, 20, 40, 80] {
        let formula = hard_formula(7, vars);
        let (gadget, t_red) = time(|| reduce_sat(&formula).unwrap());
        println!(
            "| {vars} | {} | {} | {} |",
            formula.clauses().len(),
            us(t_red),
            gadget.computation.event_count()
        );
    }
    println!("\nDecision cost — the detection instance inherits SAT's exponential");
    println!("worst case, growing with the clause count (the scan-combination");
    println!("exponent), while DPLL sees the original formula:\n");
    println!("| clauses (vars = clauses) | DPLL | detection (chains) | verdicts agree |");
    println!("|---|---|---|---|");
    for &clauses in &[4usize, 8, 12] {
        let formula = gpd_bench::small_formula(7, clauses as u32, clauses);
        let gadget = reduce_sat(&formula).unwrap();
        let (sat, t_sat) = time(|| solve(&formula).is_some());
        let (det, t_det) =
            time(|| chains(&gadget.computation, &gadget.variable, &gadget.predicate).is_some());
        println!(
            "| {} | {} ({sat}) | {} ({det}) | {} |",
            formula.clauses().len(),
            us(t_sat),
            us(t_det),
            sat == det
        );
        assert_eq!(sat, det);
    }
    let g = sat_gadget(7, 20);
    println!(
        "\nGadget sizes stay linear in the formula: 20 hard-density variables → {} processes, {} events, {} conflict arrows.\n",
        g.computation.process_count(),
        g.computation.event_count(),
        g.computation.messages().len()
    );
}

fn e4() {
    println!("## E4 — §3.2 special case (receive-ordered)\n");
    println!("| events/process (2 clauses × 3) | ordered scan | chain-cover | enumeration |");
    println!("|---|---|---|---|");
    for &events in &[4usize, 16, 64, 256] {
        let (comp, var, phi) = ordered_singular_workload(11, 2, 3, events, 0.3);
        let (a, t_ord) = time(|| possibly_singular_ordered(&comp, &var, &phi).unwrap());
        let (b, t_ch) = time(|| chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        let enum_cell = if events <= 4 {
            let (c, t_enum) = time(|| possibly_by_enumeration(&comp, |cut| phi.eval(&var, cut)));
            assert_eq!(a.is_some(), c.is_some());
            us(t_enum)
        } else {
            "(skipped: exponential)".into()
        };
        println!("| {events} | {} | {} | {enum_cell} |", us(t_ord), us(t_ch));
    }
    println!();
}

fn e5() {
    println!("## E5 — §3.3 general case: exponential reduction\n");
    println!("| clauses ×3 literals (20 ev/proc) | subsets (∏kᵢ scans) | chains (∏cᵢ scans) | ∏kᵢ | ∏cᵢ |");
    println!("|---|---|---|---|---|");
    for &groups in &[2usize, 4, 6, 8] {
        let (comp, var, phi) = singular_workload(5, groups, 3, 20, 0.3);
        let (a, t_sub) = time(|| subsets_at(&comp, &var, &phi, 0));
        let (b, t_ch) = time(|| chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let cs: usize = chain_cover_sizes(&comp, &var, &phi).iter().product();
        println!("| {groups} | {} | {} | {ks} | {cs} |", us(t_sub), us(t_ch));
    }
    println!("\nWhen each group's true states align on one causal chain (a relay");
    println!("pattern), covers collapse to 1 and the chain algorithm schedules a");
    println!("single scan where the subset algorithm schedules ∏kᵢ:\n");
    println!("| clauses ×3 (relay workload) | ∏kᵢ | ∏cᵢ | subsets | chains |");
    println!("|---|---|---|---|---|");
    for &groups in &[2usize, 4, 6, 8] {
        let (comp, var, phi) = gpd_bench::relay_singular_workload(9, groups, 3, 6, 0.3);
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let cs: usize = chain_cover_sizes(&comp, &var, &phi).iter().product();
        let (a, t_sub) = time(|| subsets_at(&comp, &var, &phi, 0));
        let (b, t_ch) = time(|| chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        println!("| {groups} | {ks} | {cs} | {} | {} |", us(t_sub), us(t_ch));
    }

    println!("\nAgainst the existing technique (lattice enumeration), on an");
    println!("**unsatisfiable** instance so both methods must do their full work (a");
    println!("satisfiable BFS can get lucky and stop at an early witness). The");
    println!("lattice grows like pad⁴ while the scans only read the event lists:\n");
    println!("| padding events/process | subsets | chains | enumeration | lattice size |");
    println!("|---|---|---|---|---|");
    for &pad in &[5usize, 10, 20, 40] {
        let (comp, var, phi) = gpd_bench::unsat_singular_workload(pad);
        let (a, t_sub) = time(|| subsets_at(&comp, &var, &phi, 0));
        let (b2, t_ch) = time(|| chains(&comp, &var, &phi));
        let (c, t_enum) = time(|| possibly_by_enumeration(&comp, |cut| phi.eval(&var, cut)));
        assert!(a.is_none() && b2.is_none() && c.is_none());
        let cuts = comp.consistent_cuts().count();
        println!(
            "| {pad} | {} | {} | {} | {cuts} |",
            us(t_sub),
            us(t_ch),
            us(t_enum)
        );
    }

    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("\nParallel fan-out of the subset scans (`--threads`), on a **wide**");
    println!("unsatisfiable workload: every one of the ∏kᵢ scans must run before");
    println!("rejecting, so the speedup is guaranteed work division rather than a");
    println!("lucky early witness. Verdicts are identical at every thread count.");
    println!("Hardware parallelism on this host: {hw} (the speedup column is");
    println!("bounded by it — a single-core host can only show ≈1×):\n");
    println!(
        "| ∏kᵢ scans (wide unsat workload) | sequential | 2 threads | 4 threads | speedup ×4 |"
    );
    println!("|---|---|---|---|---|");
    for &(groups, width) in &[(3usize, 4usize), (4, 4)] {
        let (comp, var, phi) = gpd_bench::wide_unsat_singular_workload(30, groups, width);
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let (a, t_seq) = time(|| subsets_at(&comp, &var, &phi, 0));
        let (b2, t_p2) = time(|| subsets_at(&comp, &var, &phi, 2));
        let (c, t_p4) = time(|| subsets_at(&comp, &var, &phi, 4));
        assert!(a.is_none() && b2.is_none() && c.is_none());
        let speedup = t_seq.as_secs_f64() / t_p4.as_secs_f64().max(1e-9);
        println!(
            "| {ks} | {} | {} | {} | {speedup:.2}× |",
            us(t_seq),
            us(t_p2),
            us(t_p4)
        );
    }
    println!();
}

fn e6() {
    println!("## E6 — Theorem 2 (subset sum)\n");
    println!("| elements | exact (2ⁿ oracle) | inequality via flow | agree with gadget |");
    println!("|---|---|---|---|");
    for &n in &[10usize, 14, 18, 22] {
        let (sizes, target) = subset_sum_instance(21, n);
        let gadget = reduce_subset_sum(&sizes, target);
        let (exact, t_exact) = time(|| brute_force_subset_sum(&sizes, target).is_some());
        let (bounds, t_flow) = time(|| {
            // One shared flow network for both extremes (PR 3).
            let ((min, _), (max, _)) = sum_extremes(&gadget.computation, &gadget.variable);
            (min, max)
        });
        // Exact detection on the gadget (only at small n — it *is* 2^n).
        let agree = if n <= 14 {
            let det = possibly_by_enumeration(&gadget.computation, |c| {
                gadget.variable.sum_at(c) == gadget.target
            })
            .is_some();
            assert_eq!(
                det, exact,
                "n = {n}: the gadget disagrees with the 2ⁿ oracle"
            );
            "true"
        } else {
            "(lattice too large)"
        };
        println!(
            "| {n} | {} ({exact}) | {} (range {}..={}) | {agree} |",
            us(t_exact),
            us(t_flow),
            bounds.0,
            bounds.1
        );
    }
    println!();
}

fn e7() {
    println!("## E7 — Theorems 4–7 (exact sums, ±1 steps)\n");
    println!("| n × events | Possibly(Σ=2) | total events |");
    println!("|---|---|---|");
    for &(n, m) in &[(4usize, 50usize), (8, 100), (16, 200), (32, 400), (64, 800)] {
        let (comp, var) = unit_sum_workload(40 + n as u64, n, m);
        let (w, t) = time(|| witness(exact_sum(&comp, &var, 2, Modality::Possibly)));
        if let Some(cut) = &w {
            assert_eq!(var.sum_at(cut), 2);
        }
        println!("| {n} × {m} | {} ({}) | {} |", us(t), w.is_some(), n * m);
    }
    println!("\n| toy size (4 × m) | Thm 7 | enumeration | Definitely(Σ=1) |");
    println!("|---|---|---|---|");
    for &m in &[3usize, 5, 7] {
        let (comp, var) = unit_sum_workload(50, 4, m);
        let (a, t_fast) = time(|| witness(exact_sum(&comp, &var, 1, Modality::Possibly)));
        let (b, t_enum) = time(|| possibly_by_enumeration(&comp, |c| var.sum_at(c) == 1));
        assert_eq!(a.is_some(), b.is_some());
        let (d, t_def) = time(|| exact_sum(&comp, &var, 1, Modality::Definitely));
        let Answer::Holds(d) = d else {
            unreachable!("a Definitely question answers true or false")
        };
        println!(
            "| m={m} | {} | {} | {} ({d}) |",
            us(t_fast),
            us(t_enum),
            us(t_def)
        );
    }
    println!();
}

fn e8() {
    println!("## E8 — §4.3 symmetric predicates\n");
    println!("| predicate | n=8 | n=32 | n=64 |");
    println!("|---|---|---|---|");
    type Ctor = fn(u32) -> SymmetricPredicate;
    let names: [(&str, Ctor); 5] = [
        ("exclusive-or", SymmetricPredicate::exclusive_or),
        ("not all equal", SymmetricPredicate::not_all_equal),
        (
            "no simple majority",
            SymmetricPredicate::absence_of_simple_majority,
        ),
        (
            "no ⅔ majority",
            SymmetricPredicate::absence_of_two_thirds_majority,
        ),
        ("exactly n/2", |n| SymmetricPredicate::exactly(n / 2)),
    ];
    for (name, make) in names {
        let mut cells = Vec::new();
        for &n in &[8usize, 32, 64] {
            let (comp, var) = boolean_workload(70 + n as u64, n, 50);
            let phi = make(n as u32);
            let (w, t) = time(|| possibly_symmetric(&comp, &var, &phi));
            cells.push(format!("{} ({})", us(t), w.is_some()));
        }
        println!("| {name} | {} |", cells.join(" | "));
    }
    println!();
}
