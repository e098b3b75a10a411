//! Exact-sum detection (§4.2): Theorems 4–7 under the ±1-step
//! restriction, and for larger steps a lattice sweep pruned by
//! per-process suffix bounds.

use std::cmp::Ordering;
use std::ops::RangeInclusive;

use gpd_computation::{Computation, Cut, IntVariable};

use crate::budget::{Budget, BudgetMeter, Checkpoint, DetectError, Progress, Verdict};
use crate::enumerate::{definitely_levelwise_budgeted, possibly_sweep, POSSIBLY_ENUMERATE};
use crate::relational::definitely::definitely_sum_sweep;
use crate::relational::optimize::{max_sum_cut, min_sum_cut, sum_extremes};

/// Engine name embedded in the checkpoints of
/// [`possibly_exact_sum_budgeted`]'s pruned sweep. Its levels hold only
/// the cuts whose suffix bounds admit `K`, so the unpruned sweep of
/// [`crate::enumerate::possibly_by_enumeration_budgeted`] refuses them.
pub const POSSIBLY_EXACT_SUM: &str = "possibly-exact-sum";

/// Per-process suffix bounds of an integer variable: `suffix[p][j]` is
/// the least and the greatest value of `x_p` over `p`'s states `≥ j`.
/// Every cut `H ≥ G` then sums to within [`SumBounds::interval`] of `G`.
/// An interval only shrinks going up the lattice, and a cut's own sum
/// lies in its own interval.
pub(crate) struct SumBounds {
    suffix: Vec<Vec<(i64, i64)>>,
}

impl SumBounds {
    pub(crate) fn new(var: &IntVariable) -> Self {
        let suffix = var
            .tracks()
            .iter()
            .map(|track| {
                let mut bound = (i64::MAX, i64::MIN);
                let mut suffix: Vec<_> = (track.iter().rev())
                    .map(|&x| {
                        bound = (bound.0.min(x), bound.1.max(x));
                        bound
                    })
                    .collect();
                suffix.reverse();
                suffix
            })
            .collect();
        SumBounds { suffix }
    }

    /// `[Σ_p min_{j ≥ G[p]} x_p(j), Σ_p max_{j ≥ G[p]} x_p(j)]` for the cut
    /// `G` with `frontier`: it holds the sum of every cut `≥ G`.
    pub(crate) fn interval(&self, frontier: &[u32]) -> (i64, i64) {
        (self.suffix.iter().zip(frontier)).fold((0, 0), |(lo, hi), (suffix, &f)| {
            let (min, max) = suffix[f as usize];
            (lo + min, hi + max)
        })
    }

    /// Whether the interval of `frontier` meets `target`: otherwise no cut
    /// at or above it sums into `target`.
    pub(crate) fn admits(&self, frontier: &[u32], target: &RangeInclusive<i64>) -> bool {
        let (lo, hi) = self.interval(frontier);
        lo <= *target.end() && *target.start() <= hi
    }
}

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
            // instead of the O(p) full clock-row scan, and reads no clock.
            let enabled = comp
                .message_predecessors(e)
                .iter()
                .all(|&s| comp.local_index(s) <= frontier[comp.process_of(s).index()]);
            if !enabled {
                continue;
            }
            sum += increments[p][frontier[p] as usize];
            frontier[p] += 1;
            debug_assert!(
                super::closed_under_messages(comp, &frontier),
                "in-degree enablement must keep the cut consistent"
            );
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
/// [`Progress::sum_interval`]. Only `K` inside the interval falls through
/// to the budgeted lattice sweep, whose `Unknown` verdicts also carry the
/// interval as the best-known bound.
///
/// The sweep keeps a cut `G` only while `K` lies in its suffix-bound
/// interval `[Σ_p min_{j ≥ G[p]} x_p(j), Σ_p max_{j ≥ G[p]} x_p(j)]`:
/// otherwise no cut above `G` sums to `K`, and every cut the sweep would
/// reach from `G` lies above it. The kept cuts form a down-set holding
/// every cut that sums to `K`, so the verdict and the least sorted
/// witness are the unpruned sweep's at every thread count; only the work
/// falls. Its checkpoints carry the engine name [`POSSIBLY_EXACT_SUM`].
/// It also resumes a [`POSSIBLY_ENUMERATE`] checkpoint, a whole lattice
/// level: that holds the pruned level, and a cut outside the pruned level
/// has no kept child, so the next level is the pruned one.
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
            // A whole-level checkpoint of the unpruned sweep resumes here.
            let whole_level = resume.filter(|cp| cp.detector() == POSSIBLY_ENUMERATE);
            let relabeled = whole_level.cloned().map(|mut cp| {
                if let Checkpoint::Level { detector, .. } = &mut cp {
                    *detector = POSSIBLY_EXACT_SUM.to_string();
                }
                cp
            });
            let bounds = SumBounds::new(var);
            let keep = |f: &[u32]| bounds.admits(f, &(k..=k));
            let verdict = possibly_sweep(
                POSSIBLY_EXACT_SUM,
                comp,
                Some((keep, comp.final_cut().event_count() as u32)),
                |c| var.sum_at(c) == k,
                threads,
                budget,
                meter,
                relabeled.as_ref().or(resume),
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
/// final-cut short-circuit (a final sum past `K` decides `true`). With
/// larger steps the sweep also decides `false` as soon as a completed
/// level holds a reachable cut whose [`SumBounds`] interval misses `K`
/// ([`definitely_sum_sweep`]). The ±1 sweep keeps the plain sweep.
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
    let verdict = if var.max_step() <= 1 {
        let holds = |c: &Cut| holds(var.sum_at(c));
        definitely_levelwise_budgeted(comp, holds, threads, budget, meter, resume)?
    } else {
        definitely_sum_sweep(comp, var, target, threads, budget, meter, resume)?
    };
    Ok(with_interval(verdict, (min, max)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::sequential;
    use crate::enumerate::{
        definitely_by_enumeration, possibly_by_enumeration, possibly_by_enumeration_budgeted,
    };
    use crate::predicate::Relop;
    use crate::relational::{definitely_sum_short_circuit, sums_satisfying};
    use gpd_computation::{gen, ComputationBuilder};
    use proptest::prelude::*;
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

    /// A random walk per process whose steps lie in `-step..=step`, with
    /// at least one step of exactly `step`, so the variable is not ±1.
    fn random_walk(rng: &mut impl Rng, comp: &Computation, step: i64) -> IntVariable {
        let mut tracks: Vec<Vec<i64>> = (0..comp.process_count())
            .map(|p| {
                let mut x = rng.gen_range(-step..=step);
                let mut track = vec![x];
                for _ in 0..comp.events_on(p) {
                    x += rng.gen_range(-step..=step);
                    track.push(x);
                }
                track
            })
            .collect();
        let p = (0..tracks.len())
            .find(|&p| tracks[p].len() > 1)
            .expect("an event");
        let lift = step - (tracks[p][1] - tracks[p][0]);
        tracks[p][1..].iter_mut().for_each(|x| *x += lift);
        IntVariable::new(comp, tracks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The suffix bounds hold every cut's own sum and shrink along
        /// every lattice edge, so pruning by them is a down-set that keeps
        /// every Φ-cut: the pruned Possibly sweep answers exactly what the
        /// unpruned one does, witness included, in no more nodes, and the
        /// Definitely sweeps' early exit answers what the oracle does, at
        /// every thread count.
        #[test]
        fn suffix_bounds_prune_no_witness(
            seed in any::<u64>(),
            n in 1usize..5,
            m in 1usize..5,
            msgs in 0usize..6,
            step in 2i64..=3,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let msgs = if n > 1 { msgs } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = random_walk(&mut rng, &comp, step);
            prop_assert_eq!(x.max_step(), step);
            let bounds = SumBounds::new(&x);
            let mut succs = Vec::new();
            for cut in comp.consistent_cuts() {
                let (lo, hi) = bounds.interval(cut.frontier());
                prop_assert!((lo..=hi).contains(&x.sum_at(&cut)), "{:?}", cut);
                comp.cut_successors_into(&cut, &mut succs);
                for next in succs.drain(..) {
                    let (next_lo, next_hi) = bounds.interval(next.frontier());
                    prop_assert!(lo <= next_lo && next_hi <= hi, "{:?}", next);
                }
            }
            let (min, max) = bounds.interval(comp.initial_cut().frontier());
            let unlimited = Budget::unlimited();
            for k in min - 1..=max + 1 {
                let whole = BudgetMeter::new();
                let expected = possibly_by_enumeration_budgeted(
                    &comp, |c| x.sum_at(c) == k, 0, &unlimited, &whole, None,
                ).unwrap();
                let definitely = definitely_by_enumeration(&comp, |c| x.sum_at(c) == k);
                for threads in [0, 1, 2] {
                    let at = format!("k={k}, threads={threads}");
                    let pruned = BudgetMeter::new();
                    let verdict = possibly_exact_sum_budgeted(
                        &comp, &x, k, threads, &unlimited, &pruned, None,
                    ).unwrap();
                    prop_assert_eq!(verdict.value(), expected.value(), "{}", at);
                    prop_assert!(pruned.nodes() <= whole.nodes(), "{}", at);
                    let verdict = definitely_exact_sum_budgeted(
                        &comp, &x, k, threads, &unlimited, &BudgetMeter::new(), None, || Ok(()),
                    ).unwrap();
                    prop_assert_eq!(verdict.value(), Some(&definitely), "{}", at);
                    for relop in [Relop::Lt, Relop::Le, Relop::Gt, Relop::Ge] {
                        let holds = |c: &Cut| relop.eval(x.sum_at(c), k);
                        if definitely_sum_short_circuit(&comp, &x, relop, k).is_some() {
                            continue;
                        }
                        let verdict = definitely_sum_sweep(
                            &comp, &x, sums_satisfying(relop, k), threads, &unlimited,
                            &BudgetMeter::new(), None,
                        ).unwrap();
                        let expected = definitely_by_enumeration(&comp, holds);
                        prop_assert_eq!(verdict.value(), Some(&expected), "{} {}", at, relop);
                    }
                }
            }
        }
    }
}
