//! Symmetric predicate detection (the paper's §4.3).
//!
//! A predicate over boolean variables is **symmetric** when it is
//! invariant under permuting its variables — equivalently, when its truth
//! depends only on *how many* variables are true. Every symmetric
//! predicate is therefore a disjunction of exact-count predicates
//! `Σxᵢ = j`, and since `Possibly` distributes over disjunction and a
//! boolean changes by at most one per event, Theorem 7 detects each
//! disjunct in polynomial time.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use gpd_computation::{BoolVariable, Computation, Cut, IntVariable};

use crate::relational::{exact_sum_witness, max_sum_cut, min_sum_cut};

/// A symmetric predicate over the per-process booleans, specified by the
/// set of true-variable counts at which it holds.
///
/// # Example
///
/// ```
/// use gpd::SymmetricPredicate;
///
/// // XOR of 4 variables: odd counts.
/// let xor = SymmetricPredicate::exclusive_or(4);
/// assert_eq!(xor.counts().iter().copied().collect::<Vec<_>>(), vec![1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricPredicate {
    counts: BTreeSet<u32>,
}

impl SymmetricPredicate {
    /// A predicate holding exactly when the number of true variables is
    /// in `counts`.
    pub fn new(counts: impl IntoIterator<Item = u32>) -> Self {
        SymmetricPredicate {
            counts: counts.into_iter().collect(),
        }
    }

    /// "Exactly `k` of the variables are true" — e.g. *exactly k tokens*.
    pub fn exactly(k: u32) -> Self {
        SymmetricPredicate::new([k])
    }

    /// Exclusive-or of `n` local predicates: an odd number are true.
    pub fn exclusive_or(n: u32) -> Self {
        SymmetricPredicate::new((0..=n).filter(|j| j % 2 == 1))
    }

    /// *Absence of a simple majority* among `n` yes/no values: neither
    /// the trues nor the falses exceed `n/2`. Possible only for even `n`
    /// (count exactly `n/2`); for odd `n` the predicate is unsatisfiable,
    /// mirroring the paper's "Σ = n/2, n even".
    pub fn absence_of_simple_majority(n: u32) -> Self {
        if n.is_multiple_of(2) {
            SymmetricPredicate::new([n / 2])
        } else {
            SymmetricPredicate::new([])
        }
    }

    /// *Absence of a two-thirds majority*: neither side reaches ⌈2n/3⌉.
    pub fn absence_of_two_thirds_majority(n: u32) -> Self {
        let threshold = 2 * n / 3 + u32::from(!(2 * n).is_multiple_of(3)); // ⌈2n/3⌉
        SymmetricPredicate::new((0..=n).filter(|&j| j < threshold && n - j < threshold))
    }

    /// *Not all equal*: at least one true and at least one false.
    pub fn not_all_equal(n: u32) -> Self {
        SymmetricPredicate::new(1..n.max(1))
    }

    /// *All equal*: all true or all false.
    pub fn all_equal(n: u32) -> Self {
        SymmetricPredicate::new([0, n])
    }

    /// The accepted true-variable counts.
    pub fn counts(&self) -> &BTreeSet<u32> {
        &self.counts
    }

    /// Evaluates the predicate at a cut.
    pub fn eval(&self, comp: &Computation, var: &BoolVariable, cut: &Cut) -> bool {
        let trues = (0..comp.process_count())
            .filter(|&p| var.value_at(cut, p))
            .count() as u32;
        self.counts.contains(&trues)
    }
}

/// Reinterprets per-process booleans as 0/1 integers — automatically
/// ±1-step, so the Theorem 7 machinery applies.
pub fn indicator_variable(comp: &Computation, var: &BoolVariable) -> IntVariable {
    IntVariable::new(
        comp,
        var.tracks()
            .iter()
            .map(|t| t.iter().map(|&v| i64::from(v)).collect())
            .collect(),
    )
}

/// Decides `Possibly(Φ)` for a symmetric predicate in polynomial time.
/// By Theorem 7, `Possibly(Σ = j)` holds iff `j` lies between the
/// initial count `s₀` and the extreme count on `j`'s side of it, so each
/// accepted count, in increasing order, needs at most one closure solve:
/// none for `j = s₀`, [`max_sum_cut`] above it and [`min_sum_cut`] below,
/// each solved once, when first needed. The first count in range is
/// materialized as a witness cut by the Theorem 4 walk toward that
/// extreme cut.
///
/// # Example
///
/// ```
/// use gpd::symmetric::possibly_symmetric;
/// use gpd::SymmetricPredicate;
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![true]]);
/// // "not all equal" is reachable: x₀ false, x₁ true initially.
/// let phi = SymmetricPredicate::not_all_equal(2);
/// assert!(possibly_symmetric(&comp, &x, &phi).is_some());
/// ```
pub fn possibly_symmetric(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SymmetricPredicate,
) -> Option<Cut> {
    let indicator = indicator_variable(comp, var);
    let s0 = indicator.sum_at(&comp.initial_cut());
    let (mut min, mut max) = (None, None);
    predicate.counts.iter().find_map(|&j| {
        let j = i64::from(j);
        let extreme = match j.cmp(&s0) {
            Ordering::Equal => return Some(comp.initial_cut()),
            Ordering::Greater => max.get_or_insert_with(|| max_sum_cut(comp, &indicator)),
            Ordering::Less => min.get_or_insert_with(|| min_sum_cut(comp, &indicator)),
        };
        exact_sum_witness(comp, &indicator, j, extreme)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{detect, Answer, Modality, Options, Predicate, Query};
    use crate::enumerate::{definitely_by_enumeration, possibly_by_enumeration};
    use crate::relational::sum_extremes;
    use gpd_computation::{gen, ComputationBuilder};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The two-sided decision the one-sided solves replaced, kept as
    /// their oracle: one [`sum_extremes`] call bounds the attainable
    /// counts, and the first accepted count in range walks toward the
    /// extreme cut on its side of the initial count.
    fn possibly_symmetric_two_sided(
        comp: &Computation,
        var: &BoolVariable,
        predicate: &SymmetricPredicate,
    ) -> Option<Cut> {
        let indicator = indicator_variable(comp, var);
        let (min, max) = sum_extremes(comp, &indicator);
        let j = *predicate
            .counts
            .iter()
            .find(|&&j| min.0 <= j as i64 && j as i64 <= max.0)? as i64;
        let toward = if indicator.sum_at(&comp.initial_cut()) < j {
            &max
        } else {
            &min
        };
        exact_sum_witness(comp, &indicator, j, toward)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Counts below, at and above the initial count, alone and in
        /// named and random sets: the one-sided solves return the
        /// two-sided reference's verdict and witness.
        #[test]
        fn one_sided_solves_match_the_two_sided_reference(
            seed in any::<u64>(),
            n in 1usize..7,
            events in 0usize..8,
            messages in 0usize..10,
            density in 0.0f64..1.0,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let messages = if n > 1 && events > 0 { messages } else { 0 };
            let comp = gen::random_computation(&mut rng, n, events, messages);
            let x = gen::random_bool_variable(&mut rng, &comp, density);
            let (n, initial) = (n as u32, comp.initial_cut());
            let s0 = (0..comp.process_count())
                .filter(|&p| x.value_at(&initial, p))
                .count() as u32;
            let preds = [
                SymmetricPredicate::exactly(s0.saturating_sub(1)),
                SymmetricPredicate::exactly(s0),
                SymmetricPredicate::exactly(s0 + 1),
                SymmetricPredicate::exactly(rng.gen_range(0..=n)),
                SymmetricPredicate::exclusive_or(n),
                SymmetricPredicate::not_all_equal(n),
                SymmetricPredicate::absence_of_simple_majority(n),
                SymmetricPredicate::new((0..=n + 1).filter(|_| rng.gen_bool(0.4))),
                SymmetricPredicate::new((0..=n).filter(|&j| j != s0 && rng.gen_bool(0.5))),
            ];
            for phi in &preds {
                prop_assert_eq!(
                    possibly_symmetric(&comp, &x, phi),
                    possibly_symmetric_two_sided(&comp, &x, phi),
                    "{:?}",
                    phi
                );
            }
        }
    }

    /// `Definitely(phi)` as `gpd::detect` plans it: the level sweep.
    fn definitely_by_planner(
        comp: &Computation,
        x: &BoolVariable,
        phi: &SymmetricPredicate,
    ) -> bool {
        let query = Query {
            comp,
            predicate: Predicate::Symmetric {
                var: x,
                predicate: phi,
            },
            modality: Modality::Definitely,
        };
        let report = detect(&query, &Options::default()).unwrap();
        assert_eq!(report.engine, "definitely-levelwise");
        report.verdict.value() == Some(&Answer::Holds(true))
    }

    #[test]
    fn named_constructors() {
        assert_eq!(
            SymmetricPredicate::absence_of_simple_majority(4)
                .counts()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![2]
        );
        assert!(SymmetricPredicate::absence_of_simple_majority(5)
            .counts()
            .is_empty());
        assert_eq!(
            SymmetricPredicate::exclusive_or(5)
                .counts()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(
            SymmetricPredicate::not_all_equal(3)
                .counts()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(
            SymmetricPredicate::all_equal(3)
                .counts()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
        // n = 6: two-thirds threshold ⌈4⌉ = 4 → counts 3 only? j < 4 and
        // 6 − j < 4 → j ∈ {3}.
        assert_eq!(
            SymmetricPredicate::absence_of_two_thirds_majority(6)
                .counts()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn exactly_k_detection() {
        let mut b = ComputationBuilder::new(3);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        // x₀, x₁ become true; x₂ always true. Counts range 1..=3.
        let x = BoolVariable::new(
            &comp,
            vec![vec![false, true], vec![false, true], vec![true]],
        );
        for k in 0..=4u32 {
            let expected = (1..=3).contains(&k);
            let found = possibly_symmetric(&comp, &x, &SymmetricPredicate::exactly(k));
            assert_eq!(found.is_some(), expected, "k={k}");
            if let Some(cut) = found {
                assert!(SymmetricPredicate::exactly(k).eval(&comp, &x, &cut));
            }
        }
    }

    #[test]
    fn unsatisfiable_majority_absence_on_odd_n() {
        let comp = ComputationBuilder::new(3).build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![true], vec![false], vec![false]]);
        assert!(possibly_symmetric(
            &comp,
            &x,
            &SymmetricPredicate::absence_of_simple_majority(3)
        )
        .is_none());
    }

    #[test]
    fn agrees_with_enumeration_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4040);
        for round in 0..50 {
            let n = rng.gen_range(2..5);
            let events = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..n);
            let comp = gen::random_computation(&mut rng, n, events, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.5);
            let preds = [
                SymmetricPredicate::exclusive_or(n as u32),
                SymmetricPredicate::not_all_equal(n as u32),
                SymmetricPredicate::absence_of_simple_majority(n as u32),
                SymmetricPredicate::exactly(rng.gen_range(0..=n as u32)),
            ];
            for phi in &preds {
                let fast = possibly_symmetric(&comp, &x, phi);
                let slow = possibly_by_enumeration(&comp, |c| phi.eval(&comp, &x, c));
                assert_eq!(fast.is_some(), slow.is_some(), "round {round}: {phi:?}");
                if let Some(cut) = fast {
                    assert!(phi.eval(&comp, &x, &cut), "round {round}: {phi:?}");
                }
                assert_eq!(
                    definitely_by_planner(&comp, &x, phi),
                    definitely_by_enumeration(&comp, |c| phi.eval(&comp, &x, c)),
                    "round {round}: {phi:?}"
                );
            }
        }
    }

    #[test]
    fn definitely_symmetric_levels() {
        // Token-style: one variable goes true, another goes false — at
        // some point exactly one is true on every run? x₀: T→F, x₁: F→T:
        // counts along any run: 1 → (0 or 2) → 1. "Exactly one" holds at
        // both endpoints → definitely.
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![true, false], vec![false, true]]);
        assert!(definitely_by_planner(
            &comp,
            &x,
            &SymmetricPredicate::exactly(1)
        ));
        // "Exactly zero" is avoidable (run p1 first).
        assert!(!definitely_by_planner(
            &comp,
            &x,
            &SymmetricPredicate::exactly(0)
        ));
    }
}
