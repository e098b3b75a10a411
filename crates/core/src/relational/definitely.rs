//! The polynomial short-circuits of exact `Definitely(Σ relop K)`.
//!
//! `Definitely(Φ)` fails iff some run dodges Φ from the initial to the
//! final cut, i.e. iff the `¬Φ` cuts contain a bottom-to-top lattice
//! path. [`crate::detect()`] answers that exactly with the `¬Φ` level
//! sweep of [`crate::enumerate`] — worst-case exponential, like the
//! prior-work algorithms the paper builds Theorem 7 on are not — after
//! the short-circuits here, which make common cases cheap.

use gpd_computation::{Computation, IntVariable};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect, Answer, Modality, Options, Predicate, Query};
    use crate::enumerate::definitely_by_enumeration;
    use gpd_computation::{gen, ComputationBuilder};
    use rand::{Rng, SeedableRng};

    /// `Definitely(Σ var relop k)` through the planner: the
    /// short-circuits, then the level sweep.
    fn definitely_sum(comp: &Computation, var: &IntVariable, relop: Relop, k: i64) -> bool {
        let query = Query {
            comp,
            predicate: Predicate::Sum { var, relop, k },
            modality: Modality::Definitely,
        };
        match detect(&query, &Options::default()).unwrap().verdict.value() {
            Some(&Answer::Holds(holds)) => holds,
            other => panic!("unbudgeted Definitely decides: {other:?}"),
        }
    }

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
