//! Exact `Definitely(Σ relop K)` by lattice path-avoidance.
//!
//! `Definitely(Φ)` fails iff some run dodges Φ from the initial to the
//! final cut, i.e. iff the `¬Φ` cuts contain a bottom-to-top lattice
//! path. This module answers that exactly with the `¬Φ` level sweep of
//! [`crate::enumerate`] — worst-case exponential, like the prior-work
//! algorithms the paper builds Theorem 7 on are not; we document the
//! cost honestly and use the short-circuits that make common cases
//! cheap.

use gpd_computation::{Computation, IntVariable};

use crate::budget::sequential;
use crate::enumerate::definitely_levelwise_budgeted;
use crate::predicate::Relop;
use crate::relational::optimize::{max_sum_cut, min_sum_cut};

/// The polynomial short-circuits of `Definitely(Σxᵢ relop K)`: `true` if
/// the initial or the final cut satisfies it (both lie on every run),
/// `false` if the relevant extreme of `Σxᵢ` shows no consistent cut
/// does. The extreme's max-flow runs only when the endpoints do not
/// decide. `None` leaves the question to the exact lattice sweep.
pub(crate) fn definitely_sum_short_circuit(
    comp: &Computation,
    var: &IntVariable,
    relop: Relop,
    k: i64,
) -> Option<bool> {
    let initial = var.sum_at(&comp.initial_cut());
    let final_sum = var.sum_at(&comp.final_cut());
    if relop.eval(initial, k) || relop.eval(final_sum, k) {
        return Some(true);
    }
    let extreme = match relop {
        Relop::Lt | Relop::Le => min_sum_cut(comp, var).0,
        Relop::Gt | Relop::Ge => max_sum_cut(comp, var).0,
    };
    (!relop.eval(extreme, k)).then_some(false)
}

/// Decides `Definitely(Σxᵢ relop K)` exactly.
///
/// Cheap short-circuits first: if the initial or the final cut satisfies
/// the predicate, every run does (both cuts lie on every run); if *no*
/// consistent cut satisfies it (checked with one max-flow), no run can.
/// Otherwise falls back to the exact lattice search,
/// [`definitely_levelwise_budgeted`] on 0 threads under
/// [`Budget::unlimited`](crate::budget::Budget::unlimited).
/// [`gpd::detect`](crate::detect()) runs the same two steps with its
/// enumeration guard and budget between them.
///
/// # Example
///
/// ```
/// use gpd::relational::definitely_sum;
/// use gpd::Relop;
/// use gpd_computation::{ComputationBuilder, IntVariable};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = IntVariable::new(&comp, vec![vec![0, 1], vec![0, 1]]);
/// // Every run starts at sum 0: Σ ≤ 0 definitely holds.
/// assert!(definitely_sum(&comp, &x, Relop::Le, 0));
/// // Σ ≥ 1 also definitely holds: both events must eventually run.
/// assert!(definitely_sum(&comp, &x, Relop::Ge, 1));
/// ```
pub fn definitely_sum(comp: &Computation, var: &IntVariable, relop: Relop, k: i64) -> bool {
    definitely_sum_short_circuit(comp, var, relop, k).unwrap_or_else(|| {
        sequential(|t, b, m| {
            definitely_levelwise_budgeted(comp, |cut| relop.eval(var.sum_at(cut), k), t, b, m, None)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::definitely_by_enumeration;
    use gpd_computation::{gen, ComputationBuilder};
    use rand::{Rng, SeedableRng};

    #[test]
    fn endpoint_shortcuts() {
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 3]]);
        assert!(definitely_sum(&comp, &x, Relop::Le, 0)); // initial
        assert!(definitely_sum(&comp, &x, Relop::Ge, 3)); // final
        assert!(!definitely_sum(&comp, &x, Relop::Ge, 4)); // unattainable
    }

    #[test]
    fn avoidable_middle_value() {
        // Two independent events +1/−1: sum 1 only on the path that runs
        // p0 first; the other run avoids Σ ≥ 1 entirely.
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 1], vec![0, -1]]);
        assert!(!definitely_sum(&comp, &x, Relop::Ge, 1));
        assert!(definitely_sum(&comp, &x, Relop::Le, 0));
    }

    #[test]
    fn unavoidable_middle_value_via_message() {
        // p1's −1 event can only run after receiving from p0's +1 event:
        // every run passes sum 1.
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 1], vec![0, -1]]);
        assert!(definitely_sum(&comp, &x, Relop::Ge, 1));
    }

    #[test]
    fn agrees_with_plain_enumeration_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for round in 0..50 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_int_variable(&mut rng, &comp, 3);
            for k in -4..=4 {
                for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
                    let fast = definitely_sum(&comp, &x, relop, k);
                    let slow = definitely_by_enumeration(&comp, |c| relop.eval(x.sum_at(c), k));
                    assert_eq!(fast, slow, "round {round}, {relop} {k}");
                }
            }
        }
    }
}
