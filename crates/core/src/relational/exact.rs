//! Exact-sum detection under the ±1-step restriction (§4.2, Theorems
//! 4–7).

use std::cmp::Ordering;

use gpd_computation::{Computation, Cut, IntVariable};

use crate::budget::{Budget, BudgetMeter, Checkpoint, DetectError, Progress, Verdict};
use crate::enumerate::{definitely_levelwise_budgeted, possibly_by_enumeration_budgeted};
use crate::relational::optimize::{max_sum_cut, min_sum_cut, sum_extremes};

/// Error: some event changes its variable by more than one, so the
/// polynomial exact-sum algorithms do not apply (Theorem 2 makes the
/// unrestricted problem NP-complete). [`crate::detect()`] quotes it when
/// it refuses to enumerate such a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NotUnitStepError {
    /// The largest observed per-event change.
    pub max_step: i64,
}

impl std::fmt::Display for NotUnitStepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "variables change by up to {} per event; the exact-sum algorithm needs steps of at most 1",
            self.max_step
        )
    }
}

fn require_unit_step(var: &IntVariable) -> Result<(), NotUnitStepError> {
    let max_step = var.max_step();
    if max_step <= 1 {
        Ok(())
    } else {
        Err(NotUnitStepError { max_step })
    }
}

/// Walks from `start` toward `goal` (which must be reachable, i.e.
/// `start ⊆ goal`) one event at a time, returning the first cut whose sum
/// is `k`. Theorem 4 guarantees one exists whenever `k` lies between the
/// two endpoint sums, because each step changes the sum by at most one.
fn walk_until(
    comp: &Computation,
    var: &IntVariable,
    start: &Cut,
    goal: &Cut,
    k: i64,
) -> Option<Cut> {
    debug_assert!(start.leq(goal), "goal must be reachable from start");
    let mut frontier = start.frontier().to_vec();
    let mut sum = var.sum_at(start);
    if sum == k {
        return Some(start.clone());
    }
    let increments: Vec<Vec<i64>> = (0..comp.process_count())
        .map(|p| var.increments(p))
        .collect();
    loop {
        // Execute any enabled event that the goal still owes us.
        let mut progressed = false;
        for p in 0..comp.process_count() {
            if frontier[p] >= goal.state_of(p) {
                continue;
            }
            let e = comp
                .event_at(p, frontier[p] + 1)
                .expect("goal frontier within range");
            // On a consistent frontier, e's program-order predecessor is
            // already inside (it sits at frontier[p]), so enablement
            // reduces to e's direct message predecessors — O(in-degree)
            // instead of the O(p) full clock-row scan.
            let enabled = comp
                .message_predecessors(e)
                .iter()
                .all(|&s| comp.local_index(s) <= frontier[comp.process_of(s).index()]);
            debug_assert_eq!(
                enabled,
                (0..comp.process_count())
                    .all(|q| q == p || comp.clock_component(e, q) <= frontier[q]),
                "in-degree enablement must agree with the clock-row check"
            );
            if !enabled {
                continue;
            }
            sum += increments[p][frontier[p] as usize];
            frontier[p] += 1;
            progressed = true;
            if sum == k {
                return Some(Cut::from_frontier(frontier));
            }
            break;
        }
        if !progressed {
            // start == goal already handled; a consistent goal always
            // admits progress otherwise.
            return None;
        }
    }
}

/// Decides `Possibly(Σxᵢ = K)` for variables that change by at most one
/// per event, in polynomial time (Theorem 7(1)): a cut with sum `K`
/// exists iff `min Σ ≤ K ≤ max Σ`, and the Theorem 4 walk from the
/// initial cut to an extreme cut materializes the witness.
///
/// # Errors
///
/// Returns [`NotUnitStepError`] when some step exceeds 1.
fn possibly_exact_sum(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
) -> Result<Option<Cut>, NotUnitStepError> {
    require_unit_step(var)?;
    let s0 = var.sum_at(&comp.initial_cut());
    let extreme = match s0.cmp(&k) {
        Ordering::Equal => return Ok(Some(comp.initial_cut())),
        Ordering::Less => max_sum_cut(comp, var),
        Ordering::Greater => min_sum_cut(comp, var),
    };
    Ok(exact_sum_witness(comp, var, k, &extreme))
}

/// The Theorem 7(1) decision and Theorem 4 witness for `Σxᵢ = k` on a
/// ±1-step variable, given `extreme`: the `(value, cut)` extreme of `Σ`
/// on `k`'s side of the initial sum (the maximum when `k` lies above it,
/// the minimum when below; either when they are equal). The witness is
/// the initial cut when it already sums to `k`, and otherwise the first
/// cut summing to `k` on the walk from the initial cut to the extreme
/// cut.
pub(crate) fn exact_sum_witness(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    (extreme, cut): &(i64, Cut),
) -> Option<Cut> {
    debug_assert!(var.max_step() <= 1, "Theorem 4 needs ±1 steps");
    let initial = comp.initial_cut();
    let s0 = var.sum_at(&initial);
    if s0 == k {
        return Some(initial);
    }
    if (s0 < k && *extreme < k) || (s0 > k && *extreme > k) {
        return None;
    }
    let witness = walk_until(comp, var, &initial, cut, k)
        .expect("Theorem 4: a ±1 walk crossing K passes through K");
    Some(witness)
}

/// `Possibly(Σxᵢ = K)` under a [`Budget`], for **arbitrary** step sizes.
///
/// The ±1-step case is decided outright by the polynomial Theorem 7
/// reduction — no budget needed. With larger steps (where the problem is
/// NP-complete, Theorem 2) the closure network still prunes for free: any
/// cut's sum lies in `[min Σ, max Σ]`, so `K` outside that interval is
/// `Decided(None)` immediately, the interval reported as
/// [`Progress::sum_interval`]. Only `K` strictly inside the interval
/// falls through to the budgeted lattice enumeration, whose `Unknown`
/// verdicts also carry the interval as the best-known bound.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`.
pub fn possibly_exact_sum_budgeted(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    match possibly_exact_sum(comp, var, k) {
        Ok(result) => Ok(Verdict::Decided(result, Progress::with_nodes(meter))),
        Err(NotUnitStepError { .. }) => {
            let ((min, _), (max, _)) = sum_extremes(comp, var);
            if k < min || k > max {
                return Ok(decided_in(None, meter, (min, max)));
            }
            let verdict = possibly_by_enumeration_budgeted(
                comp,
                |c| var.sum_at(c) == k,
                threads,
                budget,
                meter,
                resume,
            )?;
            Ok(with_interval(verdict, (min, max)))
        }
    }
}

/// `value` decided after `meter`'s nodes, reporting the attainable
/// interval of Σ: `K` lies outside it.
fn decided_in<T>(value: T, meter: &BudgetMeter, interval: (i64, i64)) -> Verdict<T> {
    let progress = Progress {
        nodes_explored: meter.nodes(),
        sum_interval: Some(interval),
        ..Progress::default()
    };
    Verdict::Decided(value, progress)
}

/// An interrupted sweep's verdict with the attainable interval as its
/// best-known bound; a decided verdict passes through.
fn with_interval<T>(verdict: Verdict<T>, interval: (i64, i64)) -> Verdict<T> {
    match verdict {
        Verdict::Unknown(mut partial) => {
            partial.progress.sum_interval = Some(interval);
            Verdict::Unknown(partial)
        }
        decided => decided,
    }
}

/// `Definitely(Σxᵢ = K)` under a [`Budget`], for arbitrary step sizes.
///
/// For ±1 steps Theorem 7(2) decides it by one inequality: a run moves
/// by at most one per event, so from below `K` it meets `K` exactly when
/// it reaches `Σ ≥ K`, and from above when it reaches `Σ ≤ K`. Larger
/// steps can jump over `K`, so they keep `Σ = K` itself. The endpoint
/// and attainability short-circuits (initial/final cuts, one shared
/// closure network for both extremes of Σ) always complete. Past them
/// `guard`, the caller's enumeration guard, must pass before one budgeted
/// path-avoidance sweep ([`definitely_levelwise_budgeted`]) of that
/// predicate decides, so there is one checkpoint to resume. On ±1 steps
/// both predicates leave the same cuts to sweep; Theorem 7 only adds the
/// final-cut short-circuit (a final sum past `K` decides `true`).
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`, or
/// `guard`'s refusal.
#[allow(clippy::too_many_arguments)]
pub(crate) fn definitely_exact_sum_budgeted(
    comp: &Computation,
    var: &IntVariable,
    k: i64,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
    guard: impl FnOnce() -> Result<(), DetectError>,
) -> Result<Verdict<bool>, DetectError> {
    let initial = var.sum_at(&comp.initial_cut());
    // The sums a run must reach to meet K.
    let target = match (var.max_step() <= 1, initial.cmp(&k)) {
        (true, Ordering::Less) => k..=i64::MAX,
        (true, Ordering::Greater) => i64::MIN..=k,
        _ => k..=k,
    };
    let holds = |sum: i64| target.contains(&sum);
    if holds(initial) || holds(var.sum_at(&comp.final_cut())) {
        return Ok(Verdict::Decided(true, Progress::with_nodes(meter)));
    }
    let ((min, _), (max, _)) = sum_extremes(comp, var);
    if k < min || k > max {
        // No cut attains K at all, so no run passes through it.
        return Ok(decided_in(false, meter, (min, max)));
    }
    guard()?;
    let verdict = definitely_levelwise_budgeted(
        comp,
        |c| holds(var.sum_at(c)),
        threads,
        budget,
        meter,
        resume,
    )?;
    Ok(with_interval(verdict, (min, max)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::sequential;
    use crate::enumerate::{definitely_by_enumeration, possibly_by_enumeration};
    use gpd_computation::{gen, ComputationBuilder};
    use rand::{Rng, SeedableRng};

    #[test]
    fn initial_sum_is_immediate_witness() {
        let comp = ComputationBuilder::new(2).build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![1], vec![2]]);
        let cut = possibly_exact_sum(&comp, &x, 3).unwrap().unwrap();
        assert_eq!(cut, comp.initial_cut());
    }

    #[test]
    fn walk_finds_intermediate_value() {
        // p0: 0→1→2, p1: 0→1. Max sum 3; ask for 2.
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 1, 2], vec![0, 1]]);
        let cut = possibly_exact_sum(&comp, &x, 2).unwrap().unwrap();
        assert_eq!(x.sum_at(&cut), 2);
    }

    #[test]
    fn unreachable_values_return_none() {
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, -1]]);
        assert!(possibly_exact_sum(&comp, &x, 1).unwrap().is_none());
        assert!(possibly_exact_sum(&comp, &x, -2).unwrap().is_none());
        assert!(possibly_exact_sum(&comp, &x, -1).unwrap().is_some());
    }

    #[test]
    fn non_unit_step_is_rejected() {
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 5]]);
        let err = possibly_exact_sum(&comp, &x, 5).unwrap_err();
        assert_eq!(err.max_step, 5);
        assert!(err.to_string().contains("at most 1"));
    }

    #[test]
    fn possibly_agrees_with_enumeration_on_random_walks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(606);
        for round in 0..60 {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(1..6);
            let msgs = if n > 1 { rng.gen_range(0..2 * n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_unit_int_variable(&mut rng, &comp);
            for k in -3..=3 {
                let fast = possibly_exact_sum(&comp, &x, k).unwrap();
                let slow = possibly_by_enumeration(&comp, |c| x.sum_at(c) == k);
                assert_eq!(fast.is_some(), slow.is_some(), "round {round}, k={k}");
                if let Some(cut) = fast {
                    assert_eq!(x.sum_at(&cut), k, "round {round}, k={k}");
                    assert!(comp.is_consistent(&cut));
                }
            }
        }
    }

    #[test]
    fn definitely_budgeted_uses_theorem_7_for_unit_steps() {
        // One process counting 0, 1, 2: every run crosses Σ = 1, and the
        // final sum 2 says so before any sweep.
        let mut b = ComputationBuilder::new(1);
        b.append(0);
        b.append(0);
        let comp = b.build().unwrap();
        let x = IntVariable::new(&comp, vec![vec![0, 1, 2]]);
        let none = Budget::unlimited().with_max_nodes(0);
        let meter = BudgetMeter::new();
        let verdict =
            definitely_exact_sum_budgeted(&comp, &x, 1, 0, &none, &meter, None, || Ok(())).unwrap();
        assert_eq!(verdict.value(), Some(&true));
        assert_eq!(meter.nodes(), 0);
        // A step of 2 can jump over Σ = 1: the same short-circuit must not
        // apply, and the sweep answers instead.
        let y = IntVariable::new(&comp, vec![vec![0, 2, 2]]);
        let verdict = definitely_exact_sum_budgeted(
            &comp,
            &y,
            1,
            0,
            &Budget::unlimited(),
            &meter,
            None,
            || Ok(()),
        )
        .unwrap();
        assert_eq!(verdict.value(), Some(&false));
    }

    #[test]
    fn definitely_budgeted_agrees_with_enumeration_on_random_walks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(608);
        for round in 0..40 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = match round % 2 {
                0 => gen::random_unit_int_variable(&mut rng, &comp),
                _ => gen::random_int_variable(&mut rng, &comp, 2),
            };
            for k in -3..=3 {
                let fast = sequential(|t, b, m| {
                    definitely_exact_sum_budgeted(&comp, &x, k, t, b, m, None, || Ok(()))
                });
                let slow = definitely_by_enumeration(&comp, |c| x.sum_at(c) == k);
                assert_eq!(fast, slow, "round {round}, k={k}");
            }
        }
    }

    #[test]
    fn definitely_agrees_with_enumeration_on_random_walks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(607);
        for round in 0..40 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_unit_int_variable(&mut rng, &comp);
            for k in -2..=2 {
                let fast = sequential(|t, b, m| {
                    definitely_exact_sum_budgeted(&comp, &x, k, t, b, m, None, || Ok(()))
                });
                let slow = definitely_by_enumeration(&comp, |c| x.sum_at(c) == k);
                assert_eq!(fast, slow, "round {round}, k={k}");
            }
        }
    }
}
