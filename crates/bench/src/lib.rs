//! Shared workload builders for the experiment harness (E1–E8).
//!
//! The `report` binary prints the paper-shaped E1–E8 tables of
//! `EXPERIMENTS.md`; the reduction-floor tests and `perfbench` build
//! their inputs here too. Every generator is seeded, so each workload is
//! identical and reproducible across them.

use gpd::hardness::{reduce_sat, SatReduction};
use gpd::{CnfClause, SingularCnf};
use gpd_computation::{gen, BoolVariable, Computation, IntVariable, ProcessId};
use gpd_sat::{random_cnf, to_non_monotone, Cnf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reproducible RNG for a named experiment.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A random computation with `n` processes × `m` events and roughly one
/// message per four events.
pub fn standard_computation(seed: u64, n: usize, m: usize) -> Computation {
    let msgs = (n * m) / 4;
    gen::random_computation(&mut rng(seed), n, m, msgs)
}

/// A computation + boolean variable + singular predicate with `groups`
/// clauses of `width` literals each, over `groups * width` processes.
pub fn singular_workload(
    seed: u64,
    groups: usize,
    width: usize,
    events: usize,
    density: f64,
) -> (Computation, BoolVariable, SingularCnf) {
    let n = groups * width;
    let mut r = rng(seed);
    let comp = gen::random_computation(&mut r, n, events, (n * events) / 4);
    let var = gen::random_bool_variable(&mut r, &comp, density);
    let predicate = SingularCnf::new(
        (0..groups)
            .map(|g| {
                CnfClause::new(
                    (0..width)
                        .map(|i| (ProcessId::new(g * width + i), r.gen_bool(0.5)))
                        .collect(),
                )
            })
            .collect(),
    );
    (comp, var, predicate)
}

/// Like [`singular_workload`] but **receive-ordered**: each group's
/// messages land on its first process only, enabling the §3.2 polynomial
/// algorithm.
pub fn ordered_singular_workload(
    seed: u64,
    groups: usize,
    width: usize,
    events: usize,
    density: f64,
) -> (Computation, BoolVariable, SingularCnf) {
    let n = groups * width;
    let receivers: Vec<usize> = (0..groups).map(|g| g * width).collect();
    let mut r = rng(seed);
    let comp = gen::random_computation_with_receivers(
        &mut r,
        n,
        events,
        (n * events) / 4,
        Some(&receivers),
    );
    let var = gen::random_bool_variable(&mut r, &comp, density);
    let predicate = SingularCnf::new(
        (0..groups)
            .map(|g| {
                CnfClause::new(
                    (0..width)
                        .map(|i| (ProcessId::new(g * width + i), r.gen_bool(0.5)))
                        .collect(),
                )
            })
            .collect(),
    );
    (comp, var, predicate)
}

/// A workload where each clause's true states form **one causal chain**:
/// the group's processes take turns executing, every event receiving from
/// the previous one, so all events of a group are totally ordered and the
/// minimum chain cover of any clause is 1 (initial states are kept false).
/// This is the regime where the §3.3 chain-cover algorithm does `∏cᵢ = 1`
/// scan instead of the subset algorithm's `∏kᵢ`.
pub fn relay_singular_workload(
    seed: u64,
    groups: usize,
    width: usize,
    rounds: usize,
    density: f64,
) -> (Computation, BoolVariable, SingularCnf) {
    assert!(width >= 2, "a relay needs at least two processes per group");
    let n = groups * width;
    let mut r = rng(seed);
    let mut b = gpd_computation::ComputationBuilder::new(n);
    for g in 0..groups {
        let mut prev: Option<gpd_computation::EventId> = None;
        for j in 0..rounds * width {
            let p = g * width + j % width;
            let e = b.append(p);
            if let Some(pe) = prev {
                b.message(pe, e)
                    .expect("consecutive relay events alternate processes");
            }
            prev = Some(e);
        }
    }
    let comp = b.build().expect("relay messages follow creation order");
    let var = BoolVariable::new(
        &comp,
        (0..n)
            .map(|p| {
                // Initial state false so each group's true states stay on
                // the single relay chain.
                std::iter::once(false)
                    .chain((0..comp.events_on(p)).map(|_| r.gen_bool(density)))
                    .collect()
            })
            .collect(),
    );
    let predicate = SingularCnf::new(
        (0..groups)
            .map(|g| {
                CnfClause::new(
                    (0..width)
                        .map(|i| (ProcessId::new(g * width + i), true))
                        .collect(),
                )
            })
            .collect(),
    );
    (comp, var, predicate)
}

/// An **unsatisfiable** singular 2-CNF workload with a tunable lattice
/// size: two clause groups whose only literal-true states are mutually
/// inconsistent through one message, padded with `pad` trailing internal
/// events per process. The general algorithms reject it after scanning
/// two one-element queues; exhaustive enumeration must sweep the whole
/// `O(pad⁴)` lattice to conclude the same.
pub fn unsat_singular_workload(pad: usize) -> (Computation, BoolVariable, SingularCnf) {
    let mut b = gpd_computation::ComputationBuilder::new(4);
    // Group 1 = {p2, p3}: p2's first event is its only true state…
    let u1 = b.append(2);
    let u2 = b.append(2);
    // Group 0 = {p0, p1}: p0's second event is its only true state and
    // receives from u2 = succ(u1), making the two truths inconsistent.
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    let _ = u1;
    for p in 0..4 {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..4).map(|p| vec![false; comp.events_on(p) + 1]).collect();
    tracks[0][2] = true; // after e02
    tracks[2][1] = true; // after u1
    let var = BoolVariable::new(&comp, tracks);
    let predicate = SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(0), true), (ProcessId::new(1), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true), (ProcessId::new(3), true)]),
    ]);
    (comp, var, predicate)
}

/// [`unsat_singular_workload`] widened for the parallel-speedup
/// experiment: the same 4-process conflict gadget (keeping the predicate
/// unsatisfiable) plus `groups` extra clauses of `width` literals over
/// disjoint always-true processes with `pad` events each. The subset
/// algorithm must run **all** `2² · widthᵍ` scans before rejecting — no
/// early witness, so the fan-out's speedup is guaranteed rather than
/// race-dependent, which is what the E5 parallel table measures.
pub fn wide_unsat_singular_workload(
    pad: usize,
    groups: usize,
    width: usize,
) -> (Computation, BoolVariable, SingularCnf) {
    let n = 4 + groups * width;
    let mut b = gpd_computation::ComputationBuilder::new(n);
    // The conflict gadget of `unsat_singular_workload`: p0's and p2's
    // only true states are mutually inconsistent through one message.
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 0..n {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..n)
        .map(|p| vec![p >= 4; comp.events_on(p) + 1])
        .collect();
    tracks[0][2] = true; // after e02
    tracks[2][1] = true; // after u1
    let var = BoolVariable::new(&comp, tracks);
    let mut clauses = vec![
        CnfClause::new(vec![(ProcessId::new(0), true), (ProcessId::new(1), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true), (ProcessId::new(3), true)]),
    ];
    for g in 0..groups {
        clauses.push(CnfClause::new(
            (0..width)
                .map(|i| (ProcessId::new(4 + g * width + i), true))
                .collect(),
        ));
    }
    let predicate = SingularCnf::new(clauses);
    (comp, var, predicate)
}

/// The E-row workload for the slicing pre-pass: the 4-process conflict
/// gadget of [`unsat_singular_workload`] (no padding events on the
/// gadget processes) plus `pads` padding processes with `pad` internal
/// events each, whose variable is true **only in the initial state**.
/// The predicate conjoins the two gadget clauses with one *unit clause*
/// per padding process.
///
/// The unit clauses are a regular envelope whose slice collapses every
/// padding dimension to state 0: unsliced enumeration sweeps the full
/// `O((pad+1)^pads)` lattice to reject, the sliced sweep only the
/// gadget's ~10 cuts. Dropping `sat_variant` of the clauses keeps the
/// question satisfiable for the witness-identity check.
pub fn sliced_unsat_workload(
    pad: usize,
    pads: usize,
) -> (Computation, BoolVariable, SingularCnf, SingularCnf) {
    let n = 4 + pads;
    let mut b = gpd_computation::ComputationBuilder::new(n);
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 4..n {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..n).map(|p| vec![false; comp.events_on(p) + 1]).collect();
    tracks[0][2] = true; // after e02
    tracks[2][1] = true; // after u1
    for track in tracks.iter_mut().skip(4) {
        track[0] = true; // padding processes: true only initially
    }
    let var = BoolVariable::new(&comp, tracks);
    let gadget = vec![
        CnfClause::new(vec![(ProcessId::new(0), true), (ProcessId::new(1), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true), (ProcessId::new(3), true)]),
    ];
    let units: Vec<CnfClause> = (4..n)
        .map(|p| CnfClause::new(vec![(ProcessId::new(p), true)]))
        .collect();
    let mut unsat = gadget.clone();
    unsat.extend(units.iter().cloned());
    // Without the second gadget clause the predicate is satisfiable at
    // the least cut containing e02 with all padding still initial.
    let mut sat = vec![gadget[0].clone()];
    sat.extend(units);
    (comp, var, SingularCnf::new(unsat), SingularCnf::new(sat))
}

/// A random non-monotone 3-CNF formula near the hard density
/// (`clauses ≈ 4.27 · vars` before non-monotonization).
pub fn hard_formula(seed: u64, vars: u32) -> Cnf {
    let clauses = (vars as f64 * 4.27).round() as usize;
    let raw = random_cnf(&mut rng(seed), vars, clauses, 3.min(vars as usize));
    to_non_monotone(&raw)
}

/// The Theorem 1 gadget for [`hard_formula`].
pub fn sat_gadget(seed: u64, vars: u32) -> SatReduction {
    reduce_sat(&hard_formula(seed, vars)).expect("hard_formula is non-monotone")
}

/// A *small* non-monotone 3-CNF formula with `clauses` clauses — sized so
/// the general detection algorithms (exponential in the clause count)
/// remain measurable. Used by the E3 detection-side comparison; the
/// hard-density [`hard_formula`] is for the construction-cost side.
pub fn small_formula(seed: u64, vars: u32, clauses: usize) -> Cnf {
    let raw = random_cnf(&mut rng(seed), vars, clauses, 3.min(vars as usize));
    to_non_monotone(&raw)
}

/// A computation with ±1-step integer variables (token-style walks).
pub fn unit_sum_workload(seed: u64, n: usize, m: usize) -> (Computation, IntVariable) {
    let mut r = rng(seed);
    let comp = gen::random_computation(&mut r, n, m, (n * m) / 4);
    let var = gen::random_unit_int_variable(&mut r, &comp);
    (comp, var)
}

/// A computation with per-process booleans for symmetric predicates.
pub fn boolean_workload(seed: u64, n: usize, m: usize) -> (Computation, BoolVariable) {
    let mut r = rng(seed);
    let comp = gen::random_computation(&mut r, n, m, (n * m) / 4);
    let var = gen::random_bool_variable(&mut r, &comp, 0.5);
    (comp, var)
}

/// Random subset-sum instance (for E6).
pub fn subset_sum_instance(seed: u64, n: usize) -> (Vec<i64>, i64) {
    let mut r = rng(seed);
    let sizes: Vec<i64> = (0..n).map(|_| r.gen_range(1..1000)).collect();
    // Target a random subset's sum about half the time, a random value
    // otherwise — keeps both outcomes represented.
    let target = if r.gen_bool(0.5) {
        sizes.iter().filter(|_| r.gen_bool(0.5)).sum::<i64>().max(1)
    } else {
        r.gen_range(1..sizes.iter().sum::<i64>())
    };
    (sizes, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = standard_computation(1, 3, 5);
        let b = standard_computation(1, 3, 5);
        assert_eq!(a.messages(), b.messages());
        let (s1, t1) = subset_sum_instance(2, 6);
        let (s2, t2) = subset_sum_instance(2, 6);
        assert_eq!((s1, t1), (s2, t2));
    }

    #[test]
    fn ordered_workload_is_receive_ordered() {
        let (comp, _, phi) = ordered_singular_workload(3, 3, 2, 5, 0.5);
        assert!(phi
            .grouping()
            .is_ordered(&comp, gpd_computation::OrderingKind::ReceiveOrdered));
    }

    #[test]
    fn hard_formula_is_valid_reduction_input() {
        let f = hard_formula(4, 5);
        assert!(f.is_non_monotone());
        assert!(f.max_clause_len() <= 3);
        let g = sat_gadget(4, 5);
        assert_eq!(g.computation.process_count(), 2 * f.clauses().len());
    }

    #[test]
    fn unit_workload_is_unit_step() {
        let (_, var) = unit_sum_workload(5, 4, 10);
        assert!(var.is_unit_step());
    }

    #[test]
    fn relay_workload_has_unit_chain_covers() {
        let (comp, var, phi) = relay_singular_workload(1, 3, 3, 4, 0.4);
        let covers = gpd::singular::chain_cover_sizes(&comp, &var, &phi);
        assert!(covers.iter().all(|&c| c <= 1), "{covers:?}");
    }

    #[test]
    fn unsat_workload_is_truly_unsatisfiable() {
        let (comp, var, phi) = unsat_singular_workload(3);
        let (budget, meter) = (gpd::Budget::unlimited(), gpd::BudgetMeter::new());
        let verdict = gpd::singular::possibly_singular_subsets_budgeted(
            &comp, &var, &phi, 0, &budget, &meter, None,
        );
        assert_eq!(verdict.unwrap().value(), Some(&None));
        assert!(gpd::enumerate::possibly_by_enumeration(&comp, |c| phi.eval(&var, c)).is_none());
    }

    #[test]
    fn sliced_workload_has_an_envelope_and_the_right_verdicts() {
        let (comp, var, unsat, sat) = sliced_unsat_workload(2, 3);
        assert!(gpd::slice::cnf_envelope(&comp, &var, &unsat).is_some());
        assert!(gpd::slice::cnf_envelope(&comp, &var, &sat).is_some());
        assert!(gpd::enumerate::possibly_by_enumeration(&comp, |c| unsat.eval(&var, c)).is_none());
        let witness = gpd::enumerate::possibly_by_enumeration(&comp, |c| sat.eval(&var, c))
            .expect("one gadget clause alone is satisfiable");
        assert!(sat.eval(&var, &witness));
    }

    #[test]
    fn wide_unsat_workload_rejects_at_every_thread_count() {
        let (comp, var, phi) = wide_unsat_singular_workload(3, 2, 3);
        let (budget, meter) = (gpd::Budget::unlimited(), gpd::BudgetMeter::new());
        for threads in [0, 1, 2, 4] {
            let subsets = gpd::singular::possibly_singular_subsets_budgeted(
                &comp, &var, &phi, threads, &budget, &meter, None,
            );
            assert_eq!(subsets.unwrap().value(), Some(&None), "threads {threads}");
            let chains = gpd::singular::possibly_singular_chains_budgeted(
                &comp, &var, &phi, threads, &budget, &meter, None,
            );
            assert_eq!(chains.unwrap().value(), Some(&None), "threads {threads}");
        }
    }

    /// The benched engines and their budgeted twins must agree on the
    /// benchmark inputs, so timing the budgeted paths measures overhead
    /// rather than a different search. An unlimited budget decides in
    /// one leg; a node-capped chain of resumed legs must converge to
    /// the same rejection with every combination eliminated. With three
    /// wide clauses no single wave's dead-prefix skips reach the end of
    /// the space, so a one-node cap interrupts between waves.
    #[test]
    fn budgeted_engines_match_the_benched_engines_on_e5() {
        use gpd::{Budget, BudgetMeter, Verdict};
        let (comp, var, phi) = wide_unsat_singular_workload(3, 3, 3);
        let unlimited = gpd::singular::possibly_singular_subsets_budgeted(
            &comp,
            &var,
            &phi,
            2,
            &Budget::unlimited(),
            &BudgetMeter::new(),
            None,
        )
        .expect("benchmark predicate never panics");
        match unlimited {
            Verdict::Decided(witness, progress) => {
                assert!(witness.is_none());
                assert_eq!(
                    progress.combinations_eliminated,
                    progress.combinations_total
                );
            }
            Verdict::Unknown(_) => panic!("an unlimited budget cannot run out"),
        }

        let capped = Budget::unlimited().with_max_nodes(1);
        let mut resume = None;
        let mut legs = 0usize;
        loop {
            legs += 1;
            assert!(legs <= 10_000, "resume chain failed to terminate");
            let verdict = gpd::singular::possibly_singular_subsets_budgeted(
                &comp,
                &var,
                &phi,
                2,
                &capped,
                &BudgetMeter::new(),
                resume.as_ref(),
            )
            .expect("benchmark predicate never panics");
            match verdict {
                Verdict::Decided(witness, _) => {
                    assert!(witness.is_none());
                    break;
                }
                Verdict::Unknown(partial) => {
                    resume = Some(partial.checkpoint.clone());
                }
            }
        }
        assert!(legs > 1, "the cap should interrupt at least once");
    }
}
