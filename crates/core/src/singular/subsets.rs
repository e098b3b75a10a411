//! The §3.3 process-subset algorithm: one CPDHB scan per choice of one
//! literal per clause — with consecutive choices sharing scan prefixes.

use gpd_computation::{BoolVariable, Computation, Cut};

use crate::budget::{sequential, Budget, BudgetMeter, Checkpoint, DetectError, Verdict};
use crate::predicate::SingularCnf;
use crate::scan::{cut_through, run_odometer, scan_restart, Candidate};
use crate::singular::literal_states;

/// Engine name embedded in [`possibly_singular_subsets_budgeted`]'s
/// checkpoints.
pub const SINGULAR_SUBSETS: &str = "singular-subsets";

/// Builds each clause's alternatives once: `choices[j][i]` is the state
/// sequence of clause `j`'s `i`-th literal. The seed rebuilt these per
/// combination; hoisting them is part of the prefix-sharing win.
pub(super) fn literal_choices(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Vec<Vec<Vec<Candidate>>> {
    predicate
        .clauses()
        .iter()
        .map(|clause| {
            clause
                .literals()
                .iter()
                .map(|&(p, positive)| literal_states(comp, var, p, positive))
                .collect()
        })
        .collect()
}

/// Decides `Possibly(Φ)` for a singular CNF predicate by enumerating, for
/// every clause, which of its literals will witness it, and running one
/// conjunctive scan per combination — `∏ᵢ kᵢ` scans for clause sizes
/// `kᵢ`. Exponential in the number of wide clauses, but each scan is
/// polynomial: for computations whose lattice is large this is already an
/// exponential improvement over enumeration (the E5 experiment measures
/// the gap).
///
/// Combinations are walked in odometer order through a snapshot stack
/// ([`crate::scan`]'s `PrefixScan`): a combination sharing its first `j`
/// clause choices with its predecessor resumes from the `j`-th scan
/// checkpoint instead of rescanning, and a clause prefix whose scan runs
/// dry prunes its whole subtree. By confluence of the scan's
/// eliminations this returns the **same witness cut** as the seed's
/// from-scratch walk (which [`possibly_singular_subsets_reference`]
/// retains), just with ≥2× fewer `forces` evaluations on wide-clause
/// workloads — `gpd detect --stats` and `BENCH_PR2.json` make the
/// reduction visible.
///
/// Returns the witness of the lowest-index live combination in odometer
/// order.
///
/// # Example
///
/// ```
/// use gpd::singular::possibly_singular_subsets;
/// use gpd::{CnfClause, SingularCnf};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
/// let phi = SingularCnf::new(vec![
///     CnfClause::new(vec![(0.into(), true), (1.into(), false)]),
/// ]);
/// assert!(possibly_singular_subsets(&comp, &x, &phi).is_some());
/// ```
pub fn possibly_singular_subsets(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Option<Cut> {
    sequential(|t, b, m| possibly_singular_subsets_budgeted(comp, var, predicate, t, b, m, None))
}

/// [`possibly_singular_subsets`] under a [`Budget`], with its `∏ᵢ kᵢ`
/// scans fanned out over `threads` workers (`0`/`1` → sequential): the
/// same odometer walk, wave-synchronous and resumable (see
/// [`crate::scan::scan_combinations_budgeted`] for the determinism
/// contract). An exhausted budget returns [`Verdict::Unknown`] with the
/// count of combinations soundly eliminated and a checkpoint at the
/// interrupted wave's start; panicking predicates surface as
/// [`DetectError::PredicatePanicked`].
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] if `resume` belongs to another
/// engine, computation, or clause shape.
pub fn possibly_singular_subsets_budgeted(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    let choices = literal_choices(comp, var, predicate);
    run_odometer(
        SINGULAR_SUBSETS,
        comp,
        threads,
        &choices,
        budget,
        meter,
        resume,
    )
}

/// The seed implementation of [`possibly_singular_subsets`], retained as
/// the differential-testing oracle and bench baseline: every combination
/// rebuilds its slots from scratch and runs the restart-loop scan. Same
/// verdict and witness cut as the incremental walk, with none of the
/// prefix sharing — the counter gap between the two is the speedup
/// recorded in `BENCH_PR2.json`.
pub fn possibly_singular_subsets_reference(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Option<Cut> {
    let sizes: Vec<usize> = predicate
        .clauses()
        .iter()
        .map(|c| c.literals().len())
        .collect();
    first_combination(&sizes, |choice| {
        let slots: Vec<_> = predicate
            .clauses()
            .iter()
            .zip(choice)
            .map(|(clause, &i)| {
                let (p, positive) = clause.literals()[i];
                literal_states(comp, var, p, positive)
            })
            .collect();
        scan_restart(comp, &slots).map(|found| cut_through(comp, &found))
    })
}

/// Calls `f` on every combination `{0..sizes[0]} × … × {0..sizes[g-1]}`
/// in odometer order (last digit fastest) until one returns `Some`. A
/// zero-sized dimension is an empty space; no dimensions at all visit
/// the single empty combination once.
pub(super) fn first_combination<T>(
    sizes: &[usize],
    mut f: impl FnMut(&[usize]) -> Option<T>,
) -> Option<T> {
    if sizes.contains(&0) {
        return None;
    }
    let mut digits = vec![0usize; sizes.len()];
    loop {
        if let Some(hit) = f(&digits) {
            return Some(hit);
        }
        // Bump the last digit with room left and reset those after it.
        let j = digits.iter().zip(sizes).rposition(|(&d, &s)| d + 1 < s)?;
        digits[j] += 1;
        digits[j + 1..].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::possibly_by_enumeration;
    use crate::predicate::CnfClause;
    use gpd_computation::gen;
    use gpd_computation::ProcessId;
    use rand::{Rng, SeedableRng};

    /// Random singular CNF over disjoint clause process sets.
    fn random_predicate<R: Rng>(rng: &mut R, n: usize) -> SingularCnf {
        let mut procs: Vec<usize> = (0..n).collect();
        // Shuffle then carve into clauses of size 1–3.
        for i in (1..procs.len()).rev() {
            procs.swap(i, rng.gen_range(0..=i));
        }
        let mut clauses = Vec::new();
        let mut rest = procs.as_slice();
        while !rest.is_empty() && clauses.len() < 3 {
            let k = rng.gen_range(1..=rest.len().min(3));
            let (now, later) = rest.split_at(k);
            clauses.push(CnfClause::new(
                now.iter()
                    .map(|&p| (ProcessId::new(p), rng.gen_bool(0.5)))
                    .collect(),
            ));
            rest = later;
        }
        SingularCnf::new(clauses)
    }

    #[test]
    fn agrees_with_enumeration_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        for round in 0..80 {
            let n = rng.gen_range(2..6);
            let m = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.35);
            let phi = random_predicate(&mut rng, n);
            let fast = possibly_singular_subsets(&comp, &x, &phi);
            let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
            assert_eq!(fast.is_some(), slow.is_some(), "round {round}: {phi:?}");
            if let Some(cut) = fast {
                assert!(phi.eval(&x, &cut), "round {round}");
            }
        }
    }

    #[test]
    fn matches_the_reference_witness_byte_for_byte() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        for round in 0..120 {
            let n = rng.gen_range(2..7);
            let m = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.35);
            let phi = random_predicate(&mut rng, n);
            assert_eq!(
                possibly_singular_subsets(&comp, &x, &phi),
                possibly_singular_subsets_reference(&comp, &x, &phi),
                "round {round}: {phi:?}"
            );
        }
    }

    #[test]
    fn unsatisfiable_when_no_literal_state_exists() {
        let mut b = gpd_computation::ComputationBuilder::new(2);
        b.append(0);
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false, false], vec![false]]);
        let phi = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        assert_eq!(possibly_singular_subsets(&comp, &x, &phi), None);
        assert_eq!(possibly_singular_subsets_reference(&comp, &x, &phi), None);
    }

    #[test]
    fn empty_predicate_is_trivially_possible() {
        let comp = gpd_computation::ComputationBuilder::new(1).build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false]]);
        let phi = SingularCnf::new(vec![]);
        assert!(possibly_singular_subsets(&comp, &x, &phi).is_some());
        assert!(possibly_singular_subsets_reference(&comp, &x, &phi).is_some());
    }
}
