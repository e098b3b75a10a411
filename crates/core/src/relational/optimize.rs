//! Extremal sums over consistent cuts via maximum-weight closure.
//!
//! A consistent cut is a down-closed event set, i.e. a closure of the
//! reversed event DAG; each event carries the increment it applies to
//! `Σxᵢ`. Maximizing the sum over cuts is therefore one
//! maximum-weight-closure computation — a single s-t min cut — and
//! minimizing is the same with negated weights. Polynomial for arbitrary
//! increments; this is the engine behind every `Σ relop K` answer.

use gpd_computation::{Computation, Cut, IntVariable};
use gpd_flow::{max_weight_closure, weight_closure_extremes};

use crate::predicate::Relop;

/// The weight (sum increment) of each event, and the closure edges
/// `event → its causal predecessors`: every process-chain edge first,
/// then the message edges, the order `gpd_flow`'s warm start routes
/// fastest with (it changes no answer).
fn weights_and_edges(comp: &Computation, var: &IntVariable) -> (Vec<i64>, Vec<(usize, usize)>) {
    let mut weights = vec![0i64; comp.event_count()];
    for p in 0..comp.process_count() {
        for (i, delta) in var.increments(p).into_iter().enumerate() {
            weights[comp.events_of(p)[i].index()] = delta;
        }
    }
    let mut edges = Vec::new();
    for p in 0..comp.process_count() {
        for w in comp.events_of(p).windows(2) {
            edges.push((w[1].index(), w[0].index()));
        }
    }
    for &(s, r) in comp.messages() {
        edges.push((r.index(), s.index()));
    }
    (weights, edges)
}

fn cut_of_members(comp: &Computation, members: &[usize]) -> Cut {
    let mut frontier = vec![0u32; comp.process_count()];
    for &e in members {
        frontier[comp
            .process_of(gpd_computation::EventId::from_index(e))
            .index()] += 1;
    }
    let cut = Cut::from_frontier(frontier);
    debug_assert!(
        super::closed_under_messages(comp, cut.frontier()),
        "closures are consistent cuts"
    );
    cut
}

/// The maximum of `Σxᵢ` over all consistent cuts, with a cut attaining
/// it. Runs in one max-flow; increments may be arbitrary.
///
/// # Example
///
/// ```
/// use gpd::relational::max_sum_cut;
/// use gpd_computation::{ComputationBuilder, IntVariable};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = IntVariable::new(&comp, vec![vec![0, 5], vec![0, -3]]);
/// let (max, cut) = max_sum_cut(&comp, &x);
/// assert_eq!(max, 5);
/// assert_eq!(cut.frontier(), &[1, 0]);
/// ```
pub fn max_sum_cut(comp: &Computation, var: &IntVariable) -> (i64, Cut) {
    let base: i64 = (0..comp.process_count())
        .map(|p| var.value_in_state(p, 0))
        .sum();
    let (weights, edges) = weights_and_edges(comp, var);
    let closure = max_weight_closure(&weights, &edges);
    (
        base + closure.weight,
        cut_of_members(comp, &closure.members),
    )
}

/// The minimum of `Σxᵢ` over all consistent cuts, with a cut attaining
/// it.
pub fn min_sum_cut(comp: &Computation, var: &IntVariable) -> (i64, Cut) {
    let base: i64 = (0..comp.process_count())
        .map(|p| var.value_in_state(p, 0))
        .sum();
    let (weights, edges) = weights_and_edges(comp, var);
    let negated: Vec<i64> = weights.iter().map(|&w| -w).collect();
    let closure = max_weight_closure(&negated, &edges);
    (
        base - closure.weight,
        cut_of_members(comp, &closure.members),
    )
}

/// Both extremes of `Σxᵢ` over all consistent cuts — `((min, cut_min),
/// (max, cut_max))` — from **one** weights-and-edges construction and
/// one shared flow network solved twice (see
/// [`weight_closure_extremes`]). Callers that need both bounds (exact
/// `Definitely(Σ = K)`, min/max bench sweeps) should use this instead
/// of pairing [`min_sum_cut`] with [`max_sum_cut`], which would rebuild
/// the event-DAG network from scratch for each side.
///
/// # Example
///
/// ```
/// use gpd::relational::sum_extremes;
/// use gpd_computation::{ComputationBuilder, IntVariable};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = IntVariable::new(&comp, vec![vec![0, 5], vec![0, -3]]);
/// let ((min, _), (max, cut_max)) = sum_extremes(&comp, &x);
/// assert_eq!(min, -3);
/// assert_eq!(max, 5);
/// assert_eq!(cut_max.frontier(), &[1, 0]);
/// ```
pub fn sum_extremes(comp: &Computation, var: &IntVariable) -> ((i64, Cut), (i64, Cut)) {
    let base: i64 = (0..comp.process_count())
        .map(|p| var.value_in_state(p, 0))
        .sum();
    let (weights, edges) = weights_and_edges(comp, var);
    let (max_closure, neg_closure) = weight_closure_extremes(&weights, &edges);
    (
        (
            base - neg_closure.weight,
            cut_of_members(comp, &neg_closure.members),
        ),
        (
            base + max_closure.weight,
            cut_of_members(comp, &max_closure.members),
        ),
    )
}

/// Decides `Possibly(Σxᵢ relop K)` in polynomial time and returns a
/// witness cut — for **arbitrary** increments (contrast Theorem 2, which
/// only bites equality).
///
/// # Example
///
/// ```
/// use gpd::relational::possibly_sum;
/// use gpd::Relop;
/// use gpd_computation::{ComputationBuilder, IntVariable};
///
/// let mut b = ComputationBuilder::new(1);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let x = IntVariable::new(&comp, vec![vec![0, 7]]);
/// assert!(possibly_sum(&comp, &x, Relop::Ge, 7).is_some());
/// assert!(possibly_sum(&comp, &x, Relop::Gt, 7).is_none());
/// ```
pub fn possibly_sum(comp: &Computation, var: &IntVariable, relop: Relop, k: i64) -> Option<Cut> {
    let (extreme, cut) = match relop {
        Relop::Lt | Relop::Le => min_sum_cut(comp, var),
        Relop::Gt | Relop::Ge => max_sum_cut(comp, var),
    };
    relop.eval(extreme, k).then_some(cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::{gen, ComputationBuilder};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn extremes_of_single_walk() {
        // One process: x goes 0, 3, -2, 5.
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        b.append(0);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 3, -2, 5]]);
        let (max, cmax) = max_sum_cut(&comp, &x);
        let (min, cmin) = min_sum_cut(&comp, &x);
        assert_eq!(max, 5);
        assert_eq!(cmax.frontier(), &[3]);
        assert_eq!(min, -2);
        assert_eq!(cmin.frontier(), &[2]);
    }

    #[test]
    fn messages_constrain_the_optimum() {
        // p0's big value only reachable after p1's loss: p0: x=0→10 at
        // event r which receives from p1's event s, where p1 drops 0→-4.
        let mut b = ComputationBuilder::new(2);
        let r = b.append(0);
        let s = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 10], vec![0, -4]]);
        let (max, cut) = max_sum_cut(&comp, &x);
        assert_eq!(max, 6, "taking the +10 forces the -4");
        assert_eq!(cut.frontier(), &[1, 1]);
    }

    #[test]
    fn possibly_sum_all_relops() {
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![2, -1]]);
        // Sums over cuts: {2, -1}.
        assert!(possibly_sum(&comp, &x, Relop::Lt, 0).is_some());
        assert!(possibly_sum(&comp, &x, Relop::Le, -1).is_some());
        assert!(possibly_sum(&comp, &x, Relop::Le, -2).is_none());
        assert!(possibly_sum(&comp, &x, Relop::Gt, 1).is_some());
        assert!(possibly_sum(&comp, &x, Relop::Ge, 3).is_none());
        let w = possibly_sum(&comp, &x, Relop::Lt, 0).unwrap();
        assert_eq!(x.sum_at(&w), -1);
    }

    #[test]
    fn agrees_with_enumeration_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8888);
        for round in 0..60 {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(1..6);
            let msgs = if n > 1 { rng.gen_range(0..2 * n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_int_variable(&mut rng, &comp, 5);
            let (brute_min, brute_max) = comp
                .consistent_cuts()
                .map(|c| x.sum_at(&c))
                .fold((i64::MAX, i64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)));
            let (max, cmax) = max_sum_cut(&comp, &x);
            let (min, cmin) = min_sum_cut(&comp, &x);
            assert_eq!(max, brute_max, "round {round}");
            assert_eq!(min, brute_min, "round {round}");
            assert_eq!(x.sum_at(&cmax), max, "round {round}");
            assert_eq!(x.sum_at(&cmin), min, "round {round}");
        }
    }

    /// The meet (pointwise least frontier) of every consistent cut whose
    /// sum is `target`: the least cut attaining it.
    fn meet_of_cuts_summing_to(comp: &Computation, x: &IntVariable, target: i64) -> Cut {
        let mut meet: Option<Vec<u32>> = None;
        for cut in comp.consistent_cuts().filter(|c| x.sum_at(c) == target) {
            let frontier = cut.frontier();
            meet = Some(match meet {
                None => frontier.to_vec(),
                Some(m) => m.iter().zip(frontier).map(|(&a, &b)| a.min(b)).collect(),
            });
        }
        Cut::from_frontier(meet.expect("an extreme is attained by some cut"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The witness contract of the extreme sums, independent of the
        /// max-flow engine: the cuts attaining an extreme are closed under
        /// meet, and the witness is their meet, the least of them.
        #[test]
        fn extreme_witnesses_are_the_meet_of_attaining_cuts(
            seed in any::<u64>(),
            n in 1usize..5,
            m in 1usize..6,
            amplitude in 1i64..6,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let msgs = if n > 1 { (n * m) / 3 } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_int_variable(&mut rng, &comp, amplitude);
            let (max, cmax) = max_sum_cut(&comp, &x);
            let (min, cmin) = min_sum_cut(&comp, &x);
            prop_assert_eq!(&cmax, &meet_of_cuts_summing_to(&comp, &x, max));
            prop_assert_eq!(&cmin, &meet_of_cuts_summing_to(&comp, &x, min));
            prop_assert_eq!(sum_extremes(&comp, &x), ((min, cmin), (max, cmax)));
        }

        #[test]
        fn flow_extremes_match_enumeration(
            seed in any::<u64>(),
            n in 1usize..5,
            m in 1usize..6,
            amplitude in 1i64..6,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let msgs = if n > 1 { (n * m) / 3 } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_int_variable(&mut rng, &comp, amplitude);
            let (bmin, bmax) = comp
                .consistent_cuts()
                .map(|c| x.sum_at(&c))
                .fold((i64::MAX, i64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)));
            let (max, cmax) = max_sum_cut(&comp, &x);
            let (min, cmin) = min_sum_cut(&comp, &x);
            prop_assert_eq!(max, bmax);
            prop_assert_eq!(min, bmin);
            prop_assert_eq!(x.sum_at(&cmax), max);
            prop_assert_eq!(x.sum_at(&cmin), min);
        }
    }

    #[test]
    fn empty_computation_uses_initial_values() {
        let comp = ComputationBuilder::new(2).build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![3], vec![4]]);
        assert_eq!(max_sum_cut(&comp, &x).0, 7);
        assert_eq!(min_sum_cut(&comp, &x).0, 7);
        let ((min, _), (max, _)) = sum_extremes(&comp, &x);
        assert_eq!((min, max), (7, 7));
    }

    #[test]
    fn sum_extremes_agrees_with_single_sided_solves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5150);
        for round in 0..60 {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(1..6);
            let msgs = if n > 1 { rng.gen_range(0..2 * n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_int_variable(&mut rng, &comp, 5);
            let ((min, cmin), (max, cmax)) = sum_extremes(&comp, &x);
            assert_eq!(min, min_sum_cut(&comp, &x).0, "round {round}");
            assert_eq!(max, max_sum_cut(&comp, &x).0, "round {round}");
            // The shared-network cuts must attain their extremes.
            assert_eq!(x.sum_at(&cmin), min, "round {round}");
            assert_eq!(x.sum_at(&cmax), max, "round {round}");
        }
    }
}
