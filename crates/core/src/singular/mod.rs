//! Singular k-CNF predicate detection (the paper's §3).
//!
//! Detecting `Possibly(Φ)` for a singular k-CNF predicate Φ is NP-complete
//! once k ≥ 2 (Theorem 1; see [`crate::hardness::reduce_sat`] for the
//! executable reduction). This module provides the paper's three
//! algorithms for the decidable side:
//!
//! * [`possibly_singular_ordered`] — **polynomial** when the computation
//!   is receive-ordered or send-ordered with respect to the clause
//!   meta-processes (§3.2).
//! * [`possibly_singular_subsets_budgeted`] — general case: one CPDHB
//!   scan per choice of one literal per clause, `∏ᵢ kᵢ` scans total
//!   (§3.3).
//! * [`possibly_singular_chains_budgeted`] — general case: cover each
//!   clause's true states with a minimum number of chains and scan once
//!   per chain combination, `∏ᵢ cᵢ` scans with `cᵢ ≤ kᵢ` — never more
//!   scans than the subset algorithm, and exponentially fewer than
//!   lattice enumeration (§3.3).
//! * [`possibly_singular_budgeted`] — dispatcher: the polynomial special
//!   case when it applies, otherwise the chain-cover algorithm; the
//!   dispatch [`crate::detect()`] runs for Possibly(CNF).
//!
//! Both §3.3 algorithms walk their combination space with one engine,
//! the budgeted, resumable odometer of `crate::scan`: each takes a
//! thread count, a [`Budget`] and a resume checkpoint, and on 0 threads
//! under [`Budget::unlimited`] it is the plain sequential algorithm. The
//! walk returns the lowest-index witness in odometer order, so verdicts
//! **and witness cuts** are byte-identical at every thread count.
//!
//! All return the witness cut. Everything is validated against
//! [`crate::enumerate`] in the test suite.

mod chains;
mod ordered;
mod subsets;

use chains::chain_covers;
pub use chains::{chain_cover_sizes, possibly_singular_chains_budgeted, SINGULAR_CHAINS};
pub use ordered::{possibly_singular_ordered, NotOrderedError, SINGULAR_ORDERED};
use subsets::literal_choices;
pub use subsets::{
    possibly_singular_subsets_budgeted, possibly_singular_subsets_reference, SINGULAR_SUBSETS,
};

use gpd_computation::{BoolVariable, Computation, Cut, ProcessId};

use crate::budget::{Budget, BudgetMeter, Checkpoint, DetectError, Progress, Verdict};
use crate::predicate::SingularCnf;
use crate::scan::{run_odometer, Candidate};
use crate::slice::Slice;

/// Detects `Possibly(Φ)` with the best applicable algorithm: the §3.2
/// polynomial scan when the computation is receive- or send-ordered for
/// Φ's clause grouping (it runs a single scan and cannot meaningfully
/// exhaust a budget), the §3.3 chain-cover algorithm
/// ([`possibly_singular_chains_budgeted`]) otherwise, fanned out over
/// `threads` workers (`0`/`1` → sequential). A `resume` checkpoint
/// routes by its recorded engine name, so a run interrupted inside the
/// subsets engine resumes there even through this dispatcher.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if a scan panics.
///
/// # Example
///
/// ```
/// use gpd::singular::possibly_singular_budgeted;
/// use gpd::{Budget, BudgetMeter, CnfClause, SingularCnf};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false]]);
/// // (x₀ ∨ x₁) — one clause spanning both processes.
/// let phi = SingularCnf::new(vec![CnfClause::new(vec![
///     (0.into(), true),
///     (1.into(), true),
/// ])]);
/// let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
/// let verdict = possibly_singular_budgeted(&comp, &x, &phi, 0, &budget, &meter, None).unwrap();
/// assert!(matches!(verdict.value(), Some(Some(_))));
/// ```
pub fn possibly_singular_budgeted(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    dispatch(comp, var, predicate, None, threads, budget, meter, resume).map(|(_, v)| v)
}

/// The dispatcher body behind [`possibly_singular_budgeted`] and
/// [`crate::slice::possibly_singular_sliced_budgeted`]. A `slice` drops
/// odometer candidate states outside its window `[mₚ, Mₚ]`; an empty
/// slice decides `None` outright.
///
/// The prune is sound because any witness cut satisfies `Φ`, hence the
/// envelope, hence lies inside the window — and the cut passes *through*
/// its chosen candidate states, so those are window-bounded too. List
/// shapes (and with them the odometer fingerprint and combination order)
/// are preserved, so checkpoints from sliced and unsliced runs stay
/// interchangeable and witnesses stay byte-identical; only the
/// per-combination scan work shrinks. Returns the name of the engine
/// that decided alongside its verdict.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    slice: Option<&Slice>,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<(&'static str, Verdict<Option<Cut>>), DetectError> {
    let decided = |result| Verdict::Decided(result, Progress::with_nodes(meter));
    let engine = match resume {
        Some(cp) if cp.detector() == SINGULAR_SUBSETS => SINGULAR_SUBSETS,
        Some(_) => SINGULAR_CHAINS,
        None => match possibly_singular_ordered(comp, var, predicate) {
            Ok(result) => return Ok((SINGULAR_ORDERED, decided(result))),
            Err(NotOrderedError) => SINGULAR_CHAINS,
        },
    };
    let window = match slice.map(Slice::window) {
        None => None,
        Some(None) => return Ok((engine, decided(None))),
        Some(Some(window)) => Some(window),
    };
    let mut lists = if engine == SINGULAR_SUBSETS {
        literal_choices(comp, var, predicate)
    } else {
        chain_covers(comp, var, predicate, threads)
    };
    if let Some((lo, hi)) = window {
        for list in lists.iter_mut().flatten() {
            list.retain(|c| {
                let p = c.process.index();
                lo[p] <= c.state && c.state <= hi[p]
            });
        }
    }
    run_odometer(engine, comp, threads, &lists, budget, meter, resume).map(|v| (engine, v))
}

/// The local states of `p` in which the literal `(p, positive)` holds —
/// including the initial state.
pub(crate) fn literal_states(
    comp: &Computation,
    var: &BoolVariable,
    p: ProcessId,
    positive: bool,
) -> Vec<Candidate> {
    (0..=comp.events_on(p) as u32)
        .filter(|&k| var.value_in_state(p, k) == positive)
        .map(|state| Candidate { process: p, state })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::subsets::first_combination;
    use std::cell::RefCell;

    // The reference oracle's sequential combination walk: it must visit
    // the space in the odometer order the prefix-sharing engine uses.

    #[test]
    fn sequential_combinations_visit_all_in_odometer_order() {
        let seen = RefCell::new(Vec::new());
        let result: Option<()> = first_combination(&[2, 3], |idx| {
            seen.borrow_mut().push(idx.to_vec());
            None
        });
        assert_eq!(result, None);
        assert_eq!(
            seen.into_inner(),
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn sequential_combinations_short_circuit() {
        let mut count = 0;
        let result = first_combination(&[5, 5], |idx| {
            count += 1;
            (idx == [0, 2]).then_some("hit")
        });
        assert_eq!(result, Some("hit"));
        assert_eq!(count, 3);
    }

    #[test]
    fn empty_dimension_yields_nothing() {
        let result: Option<()> = first_combination(&[2, 0], |_| panic!("must not visit"));
        assert_eq!(result, None);
    }

    #[test]
    fn zero_dimensions_visits_once() {
        let result = first_combination(&[], |idx| {
            assert!(idx.is_empty());
            Some(42)
        });
        assert_eq!(result, Some(42));
    }
}
