//! Conjunctive predicate detection (Garg–Waldecker's CPDHB).
//!
//! A conjunctive predicate `x_{p₁} ∧ … ∧ x_{pₘ}` is the polynomially
//! detectable base of the paper's taxonomy: singular 1-CNF. The scan keeps
//! the earliest still-viable *true state* per process and eliminates one
//! provably useless state per step, so it runs in O(m²·M) for M events —
//! no lattice enumeration.

use gpd_computation::{BoolVariable, Computation, Cut, ProcessId};

use crate::scan::{cut_through, scan, Candidate};

pub use crate::conjunctive_definitely::definitely_conjunctive;

/// Decides `Possibly(⋀_{p ∈ processes} x_p)` and returns the least
/// witness cut.
///
/// # Panics
///
/// Panics if a process index is out of range or listed twice.
///
/// # Example
///
/// ```
/// use gpd::conjunctive::possibly_conjunctive;
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
/// let cut = possibly_conjunctive(&comp, &x, &[0.into(), 1.into()]).unwrap();
/// assert_eq!(cut.frontier(), &[1, 1]);
/// ```
pub fn possibly_conjunctive(
    comp: &Computation,
    var: &BoolVariable,
    processes: &[ProcessId],
) -> Option<Cut> {
    let literals: Vec<(ProcessId, bool)> = processes.iter().map(|&p| (p, true)).collect();
    possibly_conjunctive_literals(comp, var, &literals)
}

/// Decides `Possibly(⋀ᵢ lᵢ)` for literals with polarities: `(p, true)`
/// requires `x_p`, `(p, false)` requires `¬x_p`. (Negations stay easy for
/// conjunctions — contrast with Theorem 1, where disjunctions of mixed
/// literals turn the problem NP-complete.)
///
/// # Panics
///
/// Panics if a process index is out of range or listed twice.
pub(crate) fn possibly_conjunctive_literals(
    comp: &Computation,
    var: &BoolVariable,
    literals: &[(ProcessId, bool)],
) -> Option<Cut> {
    let mut seen = std::collections::HashSet::new();
    for &(p, _) in literals {
        assert!(p.index() < comp.process_count(), "process {p} out of range");
        assert!(seen.insert(p), "process {p} listed twice");
    }
    let slots: Vec<Vec<Candidate>> = literals
        .iter()
        .map(|&(p, positive)| {
            (0..=comp.events_on(p) as u32)
                .filter(|&k| var.value_in_state(p, k) == positive)
                .map(|state| Candidate { process: p, state })
                .collect()
        })
        .collect();
    scan(comp, &slots).map(|found| cut_through(comp, &found))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::possibly_by_enumeration;
    use gpd_computation::ComputationBuilder;

    #[test]
    fn finds_witness_blocked_by_messages() {
        // p0 true only in state 1, p1 true only in state 1, but p1's
        // event receives from p0's second event: state (·,1)+(·,1) is
        // inconsistent, so detection must fail.
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false, true, false], vec![false, true]]);
        assert_eq!(possibly_conjunctive(&comp, &x, &[0.into(), 1.into()]), None);
    }

    #[test]
    fn initial_states_count() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        let comp = b.build().unwrap();
        // x₀ true only initially; x₁ true always.
        let x = BoolVariable::new(&comp, vec![vec![true, false], vec![true]]);
        let cut = possibly_conjunctive(&comp, &x, &[0.into(), 1.into()]).unwrap();
        assert_eq!(cut, comp.initial_cut());
    }

    #[test]
    fn subset_of_processes() {
        let mut b = ComputationBuilder::new(3);
        b.append(0);
        b.append(2);
        let comp = b.build().unwrap();
        let x = BoolVariable::new(
            &comp,
            vec![vec![false, true], vec![false], vec![false, true]],
        );
        // Only ask about p0 and p2; p1 (never true) is not part of Φ.
        let cut = possibly_conjunctive(&comp, &x, &[0.into(), 2.into()]).unwrap();
        assert_eq!(cut.frontier(), &[1, 0, 1]);
        assert!(possibly_conjunctive(&comp, &x, &[0.into(), 1.into()]).is_none());
    }

    #[test]
    fn literals_respect_polarity() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
        // x₀ ∧ ¬x₁ requires p0 after its event, p1 before its event.
        let cut = possibly_conjunctive_literals(&comp, &x, &[(0.into(), true), (1.into(), false)])
            .unwrap();
        assert_eq!(cut.frontier(), &[1, 0]);
    }

    #[test]
    fn empty_predicate_holds_at_initial_cut() {
        let comp = ComputationBuilder::new(1).build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false]]);
        assert_eq!(
            possibly_conjunctive(&comp, &x, &[]),
            Some(comp.initial_cut())
        );
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_process_panics() {
        let comp = ComputationBuilder::new(1).build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![true]]);
        possibly_conjunctive(&comp, &x, &[0.into(), 0.into()]);
    }

    #[test]
    fn agrees_with_enumeration_on_random_computations() {
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for round in 0..60 {
            let n = rng.gen_range(2..5);
            let m = rng.gen_range(1..6);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let processes: Vec<_> = (0..n).map(ProcessId::new).collect();
            let fast = possibly_conjunctive(&comp, &x, &processes);
            let slow =
                possibly_by_enumeration(&comp, |cut: &Cut| (0..n).all(|p| x.value_at(cut, p)));
            assert_eq!(fast.is_some(), slow.is_some(), "round {round}");
            if let Some(cut) = fast {
                assert!((0..n).all(|p| x.value_at(&cut, p)), "round {round}");
            }
        }
    }
}
