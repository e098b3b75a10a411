//! Exhaustive detection by walking the lattice of consistent cuts.
//!
//! This is the Cooper–Marzullo-style baseline: exact for *any* global
//! predicate, but it visits every consistent cut — exponentially many in
//! general, which is precisely the state explosion the paper's algorithms
//! avoid. The test suite uses it as the ground-truth oracle, and the E5
//! experiment measures the exponential gap against it.
//!
//! Two oracles stay sequential and unbudgeted:
//! [`possibly_by_enumeration`] (the breadth-first `CutIter`) and
//! [`definitely_by_enumeration`] (a breadth-first `¬Φ` reachability
//! search). Every other exhaustive question runs one budgeted,
//! thread-parameterized **level sweep**: a Possibly body that probes each
//! canonically sorted level for its lowest-index witness, and a
//! Definitely body that keeps only the current level's reachable `¬Φ`
//! cuts. Both take an optional slice window, which the
//! [`crate::slice`] entries pass; `Definitely` for sums and symmetric
//! predicates runs the Definitely body on 0 threads under
//! [`Budget::unlimited`].

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use gpd_computation::{Computation, Cut, FrontierPacker, PackedFrontier};

use crate::budget::{
    catch_detect, problem_fingerprint, Budget, BudgetMeter, Checkpoint, DetectError, ExhaustReason,
    Partial, Progress, Verdict,
};
use crate::slice::Slice;

/// Decides `Possibly(Φ)` by enumerating consistent cuts breadth-first;
/// returns the first (smallest) witness cut.
///
/// # Example
///
/// ```
/// use gpd::enumerate::possibly_by_enumeration;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(1);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let witness = possibly_by_enumeration(&comp, |cut| cut.event_count() == 1);
/// assert_eq!(witness.unwrap().frontier(), &[1]);
/// ```
pub fn possibly_by_enumeration<F>(comp: &Computation, mut predicate: F) -> Option<Cut>
where
    F: FnMut(&Cut) -> bool,
{
    comp.consistent_cuts().find(|cut| predicate(cut))
}

/// Decides `Definitely(Φ)` exactly: Φ definitely holds iff **no** run
/// avoids Φ-cuts from start to finish, i.e. iff the final cut is
/// unreachable from the initial cut through `¬Φ` cuts only.
///
/// # Example
///
/// ```
/// use gpd::enumerate::definitely_by_enumeration;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// // "exactly one event executed" is unavoidable: every run serializes.
/// assert!(definitely_by_enumeration(&comp, |cut| cut.event_count() == 1));
/// // "p0 moved before p1" is avoidable.
/// assert!(!definitely_by_enumeration(
///     &comp,
///     |cut| cut.frontier() == [1, 0]
/// ));
/// ```
pub fn definitely_by_enumeration<F>(comp: &Computation, mut predicate: F) -> bool
where
    F: FnMut(&Cut) -> bool,
{
    let start = comp.initial_cut();
    if predicate(&start) {
        return true;
    }
    let goal = comp.final_cut();
    let packer = FrontierPacker::new(comp);
    let mut seen: HashSet<PackedFrontier> = HashSet::new();
    seen.insert(packer.pack_cut(&start));
    let mut queue = VecDeque::from([start]);
    // One successor buffer for the whole walk: expansion allocates only
    // for cuts that actually enter the queue.
    let mut succs: Vec<Cut> = Vec::new();
    while let Some(cut) = queue.pop_front() {
        if cut == goal {
            return false; // a run avoided Φ entirely
        }
        comp.cut_successors_into(&cut, &mut succs);
        for next in succs.drain(..) {
            if !predicate(&next) && seen.insert(packer.pack_cut(&next)) {
                queue.push_back(next);
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// The level sweep: deadline/node/width governed, resumable, panic-isolated
// ---------------------------------------------------------------------------

/// Engine name embedded in [`possibly_by_enumeration_budgeted`]'s
/// checkpoints.
pub const POSSIBLY_ENUMERATE: &str = "possibly-enumerate";
/// Engine name embedded in [`definitely_levelwise_budgeted`]'s
/// checkpoints.
pub const DEFINITELY_LEVELWISE: &str = "definitely-levelwise";

/// Work-item granularity of the budgeted level sweeps: one work-stealing
/// chunk — budget gates and witness aggregation happen on chunk
/// boundaries.
const LEVEL_BLOCK: usize = 256;

/// Records `reason` as the sweep's halt cause (first writer wins) and
/// cancels the fan-out so the other workers drain out.
fn halt_fanout(
    halt: &Mutex<Option<ExhaustReason>>,
    reason: ExhaustReason,
    src: &crate::par::WorkSource,
) {
    let mut guard = crate::par::lock_unpoisoned(halt);
    guard.get_or_insert(reason);
    src.cancel();
}

/// Probes a (canonically sorted) level for its **lowest-index** witness.
///
/// Workers drain [`LEVEL_BLOCK`]-sized chunks from rooted work-stealing
/// spans (no level-wide barrier; see [`crate::par`]) and race the lowest
/// hit index into an atomic `fetch_min`. A chunk is *pruned* — skipped
/// without probing or budget-gating — when it starts past the current
/// best hit: it cannot lower the minimum, and gating it could discard an
/// already-found witness on a budget trip. The winning index is the
/// global minimum at every thread count, which is what makes budgeted
/// witnesses byte-identical across 1/2/4 threads.
pub(crate) fn probe_level_budgeted<F>(
    predicate: &F,
    threads: usize,
    level: &[Cut],
    budget: &Budget,
    meter: &BudgetMeter,
) -> Result<Option<Cut>, ExhaustReason>
where
    F: Fn(&Cut) -> bool + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let best = AtomicUsize::new(usize::MAX);
    let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
    crate::par::fanout_chunks(threads, level.len(), LEVEL_BLOCK, &|w, src| {
        while let Some(r) = src.next(w) {
            // Prune before gating: once a hit at a lower index exists,
            // later chunks are no-ops and must not trip the budget.
            if r.start > best.load(Ordering::Acquire) {
                continue;
            }
            if budget.deadline_exceeded() {
                halt_fanout(&halt, ExhaustReason::Deadline, src);
                return;
            }
            if budget.nodes_exceeded(meter.nodes()) {
                halt_fanout(&halt, ExhaustReason::Nodes, src);
                return;
            }
            let mut probed = 0u64;
            for i in r {
                probed += 1;
                if predicate(&level[i]) {
                    best.fetch_min(i, Ordering::AcqRel);
                    break;
                }
            }
            meter.charge(probed);
        }
    });
    // A found witness outranks a concurrent budget trip: sequentially
    // the hit is reached before any later gate, so the parallel runs
    // must agree.
    match best.load(Ordering::Acquire) {
        usize::MAX => match crate::par::into_inner_unpoisoned(halt) {
            Some(reason) => Err(reason),
            None => Ok(None),
        },
        i => Ok(Some(level[i].clone())),
    }
}

/// One budget-governed expansion of `level` into the next lattice level,
/// keeping successors that pass `keep`, deduplicated and **canonically
/// sorted** (frontier-lexicographic).
///
/// Workers drain [`LEVEL_BLOCK`]-sized chunks from rooted work-stealing
/// spans. Each worker walks successors the way `CutIter` does: it bumps
/// one scratch frontier in place, packs it, and allocates a [`Cut`] —
/// and evaluates `keep` — only for a cut its own visited set has not
/// seen. The level is merged by the canonical sort plus a `dedup` (the
/// lattice is graded, so duplicates only arise within one level). Every
/// lattice edge is counted exactly once regardless of thread count —
/// `meter` observes the same total at 1 and at N threads.
///
/// Budget gates sit on chunk boundaries. The width gate there sees the
/// worker's own kept count, a subset of the final level, so it never
/// trips where the exact count checked on the merged level would not:
/// the `Width` verdict is the same at every thread count. An `Err` means
/// the partially built next level was discarded whole, so the caller's
/// current level stays the valid checkpoint boundary.
pub(crate) fn expand_level_budgeted<K>(
    comp: &Computation,
    packer: &FrontierPacker,
    threads: usize,
    level: &[Cut],
    keep: &K,
    budget: &Budget,
    meter: &BudgetMeter,
) -> Result<Vec<Cut>, ExhaustReason>
where
    K: Fn(&Cut) -> bool + Sync,
{
    let merged: Mutex<Vec<Cut>> = Mutex::new(Vec::new());
    let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
    crate::par::fanout_chunks(threads, level.len(), LEVEL_BLOCK, &|w, src| {
        let mut seen: HashSet<PackedFrontier> = HashSet::new();
        let mut kept: Vec<Cut> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        while let Some(r) = src.next(w) {
            if budget.deadline_exceeded() {
                halt_fanout(&halt, ExhaustReason::Deadline, src);
                return;
            }
            if budget.nodes_exceeded(meter.nodes()) {
                halt_fanout(&halt, ExhaustReason::Nodes, src);
                return;
            }
            // The width cap bounds the materialized sets: the level
            // being expanded and the one being built.
            if budget.width_exceeded(kept.len().max(level.len())) {
                halt_fanout(&halt, ExhaustReason::Width, src);
                return;
            }
            let mut explored = 0u64;
            for cut in &level[r] {
                scratch.clear();
                scratch.extend_from_slice(cut.frontier());
                comp.for_each_enabled(cut, |p| {
                    explored += 1;
                    scratch[p] += 1;
                    if seen.insert(packer.pack(&scratch)) {
                        let succ = Cut::from_frontier(scratch.clone());
                        if keep(&succ) {
                            kept.push(succ);
                        }
                    }
                    scratch[p] -= 1;
                });
            }
            meter.charge(explored);
        }
        crate::par::lock_unpoisoned(&merged).append(&mut kept);
    });
    if let Some(reason) = crate::par::into_inner_unpoisoned(halt) {
        return Err(reason);
    }
    let mut next = crate::par::into_inner_unpoisoned(merged);
    next.sort_unstable();
    next.dedup();
    if budget.width_exceeded(next.len()) {
        return Err(ExhaustReason::Width);
    }
    Ok(next)
}

/// Builds the `Unknown` verdict for a level sweep stopped at `level`
/// (index `level_index`, not yet fully processed). `swept` is the sound
/// bound: levels `0..swept` were fully probed witness-free.
pub(crate) fn unknown_at_level<T>(
    detector: &str,
    problem: u64,
    reason: ExhaustReason,
    meter: &BudgetMeter,
    level_index: u32,
    swept: u32,
    level: &[Cut],
) -> Verdict<T> {
    let frontiers = level.iter().map(|c| c.frontier().to_vec()).collect();
    Verdict::Unknown(Partial {
        reason,
        progress: Progress {
            nodes_explored: meter.nodes(),
            levels_swept: Some(swept),
            ..Progress::default()
        },
        checkpoint: Checkpoint::level(detector, problem, level_index, frontiers),
    })
}

/// The lattice level of a frontier: its event count.
fn level_of(frontier: &[u32]) -> u32 {
    frontier.iter().map(|&f| f as u64).sum::<u64>() as u32
}

/// [`possibly_by_enumeration`] under a [`Budget`]: level-synchronous,
/// deterministic, resumable.
///
/// Differences from the unbudgeted walks, by design:
///
/// * Every level is kept canonically sorted and probed for its
///   lowest-index witness, so for a fixed input the verdict **and the
///   witness** are byte-identical at every thread count — and an
///   interrupted run resumed from its checkpoint reproduces exactly the
///   uninterrupted outcome (`tests/budget_resume.rs` asserts both).
/// * An exhausted budget returns [`Verdict::Unknown`] carrying the
///   levels swept so far and a [`Checkpoint`] of the current level.
///   Checkpoints sit on level boundaries: work inside an interrupted
///   level is discarded, never resumed mid-way.
/// * A panicking `predicate` surfaces as
///   [`DetectError::PredicatePanicked`] instead of unwinding.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] if `resume` belongs to another
/// engine or computation; [`DetectError::PredicatePanicked`] if the
/// predicate panics.
pub fn possibly_by_enumeration_budgeted<F>(
    comp: &Computation,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    possibly_sweep(
        POSSIBLY_ENUMERATE,
        comp,
        None,
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// The Possibly level sweep behind [`possibly_by_enumeration_budgeted`]
/// and its sliced entry, checkpointing under `engine`. A `slice` window
/// keeps only cuts `≤ M` — the downward closure of the slice, which
/// keeps the level BFS connected — and ends the sweep at level `|M|`; an
/// empty slice decides `None` without touching the lattice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn possibly_sweep<F>(
    engine: &str,
    comp: &Computation,
    slice: Option<&Slice>,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    let problem = problem_fingerprint(comp);
    let (k0, level0) = match resume {
        None => (0u32, vec![comp.initial_cut()]),
        Some(cp) => cp.restore_level(engine, problem, comp)?,
    };
    let hi = match slice.map(Slice::window) {
        None => None,
        // Unsatisfiable envelope: no Φ-cut exists anywhere.
        Some(None) => return Ok(Verdict::Decided(None, Progress::with_nodes(meter))),
        Some(Some((_, hi))) => Some(hi),
    };
    catch_detect(move || {
        // Beyond level |M| every cut violates the envelope.
        let cap = hi.map_or(comp.final_cut().event_count() as u32, level_of);
        let keep = |c: &Cut| hi.is_none_or(|hi| c.frontier().iter().zip(hi).all(|(f, h)| f <= h));
        let packer = FrontierPacker::new(comp);
        let mut k = k0;
        let mut level = level0;
        loop {
            match probe_level_budgeted(&predicate, threads, &level, budget, meter) {
                Ok(Some(witness)) => {
                    return Verdict::Decided(Some(witness), Progress::with_nodes(meter))
                }
                Ok(None) => {}
                Err(reason) => {
                    return unknown_at_level(engine, problem, reason, meter, k, k, &level)
                }
            }
            if k >= cap {
                return Verdict::Decided(None, Progress::with_nodes(meter));
            }
            match expand_level_budgeted(comp, &packer, threads, &level, &keep, budget, meter) {
                Ok(next) if next.is_empty() => {
                    debug_assert!(hi.is_some(), "non-final levels always have successors");
                    return Verdict::Decided(None, Progress::with_nodes(meter));
                }
                Ok(next) => {
                    k += 1;
                    level = next;
                }
                // Level k is fully probed (hence swept = k + 1) but the
                // next level was discarded: resume re-probes level k —
                // harmlessly, it is witness-free — then re-expands.
                Err(reason) => {
                    return unknown_at_level(engine, problem, reason, meter, k, k + 1, &level)
                }
            }
        }
    })
}

/// Decides `Definitely(Φ)` with the Cooper–Marzullo **level sweep**,
/// under a [`Budget`]: instead of remembering every visited cut, keep
/// only the current lattice level's reachable `¬Φ` cuts — cuts with
/// exactly `k` events — and advance `k`. Same exponential worst case as
/// [`definitely_by_enumeration`], but memory drops from the whole
/// reachable region to one level (its widest antichain).
///
/// The stored checkpoint level is the set of reachable `¬Φ` cuts with
/// `level` events; `levels_swept` counts levels fully processed.
/// Semantics of budgets, determinism and panic containment match
/// [`possibly_by_enumeration_budgeted`]. On 0 threads under
/// [`Budget::unlimited`] this is the plain sequential sweep.
///
/// # Example
///
/// ```
/// use gpd::enumerate::definitely_levelwise_budgeted;
/// use gpd::{Budget, BudgetMeter};
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
/// let verdict =
///     definitely_levelwise_budgeted(&comp, |cut| cut.event_count() == 1, 0, &budget, &meter, None);
/// assert_eq!(verdict.unwrap().value(), Some(&true));
/// ```
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if the predicate panics.
pub fn definitely_levelwise_budgeted<F>(
    comp: &Computation,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<bool>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    definitely_sweep(
        DEFINITELY_LEVELWISE,
        comp,
        None,
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// The Definitely level sweep behind [`definitely_levelwise_budgeted`]
/// and its sliced entry, checkpointing under `engine`. A `slice` window
/// `[m, M]` keeps successors below level `|m|` without evaluating `Φ`
/// (no cut there can satisfy the envelope), and a sweep still alive past
/// level `|M|` decides `false` at once (its `¬Φ` path can run to the
/// final cut untouched); an empty slice decides `false` at once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn definitely_sweep<F>(
    engine: &str,
    comp: &Computation,
    slice: Option<&Slice>,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<bool>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
{
    let problem = problem_fingerprint(comp);
    let resumed = match resume {
        None => None,
        Some(cp) => Some(cp.restore_level(engine, problem, comp)?),
    };
    let total = comp.final_cut().event_count() as u32;
    let (skip_below, cap) = match slice.map(Slice::window) {
        None => (0, total),
        // No cut satisfies the envelope, so none satisfies Φ; the
        // (possibly empty) run to the final cut avoids Φ throughout.
        Some(None) => return Ok(Verdict::Decided(false, Progress::with_nodes(meter))),
        Some(Some((lo, hi))) => (level_of(lo), level_of(hi)),
    };
    catch_detect(move || {
        let packer = FrontierPacker::new(comp);
        let (mut k, mut level) = match resumed {
            Some(state) => state,
            None => {
                let start = comp.initial_cut();
                meter.charge(1);
                if predicate(&start) {
                    return Verdict::Decided(true, Progress::with_nodes(meter));
                }
                (0u32, vec![start])
            }
        };
        // Invariant: `level` holds the ¬Φ cuts with k events reachable
        // from the initial cut through ¬Φ cuts only (equal to *all*
        // reachable cuts while k < |m|, where Φ cannot hold).
        while k < total {
            let skip_eval = k + 1 < skip_below;
            let keep = |c: &Cut| skip_eval || !predicate(c);
            match expand_level_budgeted(comp, &packer, threads, &level, &keep, budget, meter) {
                Ok(next) if next.is_empty() => {
                    // Every surviving run hit Φ.
                    return Verdict::Decided(true, Progress::with_nodes(meter));
                }
                Ok(next) => {
                    k += 1;
                    level = next;
                    if k > cap {
                        // A ¬Φ path escaped past |M|: everything above is
                        // ¬Φ too, so some run avoids Φ entirely.
                        return Verdict::Decided(false, Progress::with_nodes(meter));
                    }
                }
                Err(reason) => {
                    return unknown_at_level(engine, problem, reason, meter, k, k, &level)
                }
            }
        }
        // Some run reached the final level avoiding Φ throughout.
        Verdict::Decided(false, Progress::with_nodes(meter))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::ComputationBuilder;

    fn two_by_two() -> Computation {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(0);
        b.append(1);
        b.append(1);
        b.build().unwrap()
    }

    /// The budgeted Definitely sweep under an unlimited budget.
    fn levelwise(comp: &Computation, phi: impl Fn(&Cut) -> bool + Sync, threads: usize) -> bool {
        let meter = BudgetMeter::new();
        *definitely_levelwise_budgeted(comp, phi, threads, &Budget::unlimited(), &meter, None)
            .expect("no checkpoint, no panic")
            .value()
            .expect("unlimited budgets always decide")
    }

    /// The budgeted level sweep under an unlimited budget.
    fn unlimited(
        comp: &Computation,
        phi: impl Fn(&Cut) -> bool + Sync,
        threads: usize,
    ) -> Option<Cut> {
        let meter = BudgetMeter::new();
        possibly_by_enumeration_budgeted(comp, phi, threads, &Budget::unlimited(), &meter, None)
            .expect("no checkpoint, no panic")
            .value()
            .expect("unlimited budgets always decide")
            .clone()
    }

    #[test]
    fn possibly_finds_smallest_witness() {
        let comp = two_by_two();
        let w = possibly_by_enumeration(&comp, |c| c.event_count() >= 2).unwrap();
        assert_eq!(w.event_count(), 2);
    }

    #[test]
    fn possibly_none_when_unsatisfiable() {
        let comp = two_by_two();
        assert!(possibly_by_enumeration(&comp, |c| c.event_count() > 4).is_none());
    }

    #[test]
    fn definitely_holds_at_initial_cut() {
        let comp = two_by_two();
        assert!(definitely_by_enumeration(&comp, |c| c.event_count() == 0));
    }

    #[test]
    fn definitely_holds_at_levels() {
        // Every run passes through each event-count level.
        let comp = two_by_two();
        for level in 0..=4 {
            assert!(definitely_by_enumeration(&comp, |c| c.event_count() == level));
        }
    }

    #[test]
    fn definitely_fails_for_avoidable_state() {
        let comp = two_by_two();
        // The diagonal cut [1,1] can be stepped around via [2,0] or [0,2].
        assert!(!definitely_by_enumeration(&comp, |c| c.frontier() == [1, 1]));
    }

    #[test]
    fn messages_can_make_states_unavoidable() {
        // p0: s, p1: r with s → r: the cut [1,0] is on every run.
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        assert!(definitely_by_enumeration(&comp, |c| c.frontier() == [1, 0]));
    }

    #[test]
    fn empty_computation_definitely_is_initial_truth() {
        let comp = ComputationBuilder::new(1).build().unwrap();
        assert!(definitely_by_enumeration(&comp, |_| true));
        assert!(!definitely_by_enumeration(&comp, |_| false));
        for threads in [0, 1, 2] {
            assert!(levelwise(&comp, |_| true, threads), "threads {threads}");
            assert!(!levelwise(&comp, |_| false, threads), "threads {threads}");
        }
    }

    #[test]
    fn levelwise_agrees_with_bfs_on_random_predicates() {
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(515);
        for round in 0..80 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let conj = |c: &Cut| (0..n).all(|p| x.value_at(c, p));
            // Also an asymmetric predicate (not conjunctive).
            let threshold = rng.gen_range(0..=(n * m));
            let above = |c: &Cut| c.event_count() >= threshold;
            let a = definitely_by_enumeration(&comp, conj);
            let b = definitely_by_enumeration(&comp, above);
            for threads in [0, 1, 2] {
                assert_eq!(
                    a,
                    levelwise(&comp, conj, threads),
                    "round {round}, threads {threads}"
                );
                assert_eq!(
                    b,
                    levelwise(&comp, above, threads),
                    "round {round}, threads {threads} (threshold)"
                );
            }
        }
    }

    #[test]
    fn parallel_enumeration_matches_sequential_verdict_and_level() {
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        for round in 0..40 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let phi = |c: &Cut| (0..n).all(|p| x.value_at(c, p));
            let seq = possibly_by_enumeration(&comp, phi);
            // Thread count 1 is the deterministic reference: the sweeps
            // run in exact sequential order there.
            let reference = unlimited(&comp, phi, 1);
            assert_eq!(reference.is_some(), seq.is_some(), "round {round}");
            if let (Some(p), Some(s)) = (&reference, &seq) {
                // The deterministic walk finds a lowest-level witness.
                assert_eq!(p.event_count(), s.event_count(), "round {round}");
                assert!(phi(p), "round {round}: witness must satisfy Φ");
            }
            for threads in [0, 2, 4] {
                let par = unlimited(&comp, phi, threads);
                // Byte-identical witness at every thread count — the
                // lowest sorted cut on the lowest satisfying level.
                assert_eq!(par, reference, "round {round}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_enumeration_initial_cut_and_unsatisfiable() {
        let comp = two_by_two();
        for threads in [0, 4] {
            let w = unlimited(&comp, |_| true, threads).unwrap();
            assert_eq!(w.event_count(), 0);
            assert!(unlimited(&comp, |_| false, threads).is_none());
        }
    }

    #[test]
    fn levelwise_handles_unavoidable_message_state() {
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        for threads in [0, 1, 2] {
            assert!(levelwise(&comp, |c| c.frontier() == [1, 0], threads));
            assert!(!levelwise(&comp, |_| false, threads));
        }
    }

    #[test]
    fn expanded_levels_equal_the_lattice_levels() {
        // Wide enough for several LEVEL_BLOCK chunks per level, so the
        // parallel expansions really merge worker-local levels.
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4141);
        for round in 0..12 {
            let n = rng.gen_range(2..7);
            let m = rng.gen_range(2..6);
            let msgs = rng.gen_range(0..n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let total = comp.final_cut().event_count();
            let mut lattice: Vec<Vec<Cut>> = vec![Vec::new(); total + 1];
            for cut in comp.consistent_cuts() {
                lattice[cut.event_count()].push(cut);
            }
            for level in &mut lattice {
                level.sort_unstable();
            }
            let packer = FrontierPacker::new(&comp);
            let mut nodes = None;
            for threads in [0, 1, 2, 4] {
                let meter = BudgetMeter::new();
                let mut level = vec![comp.initial_cut()];
                for (k, expected) in lattice.iter().enumerate() {
                    assert_eq!(
                        &level, expected,
                        "round {round}, threads {threads}, level {k}"
                    );
                    level = expand_level_budgeted(
                        &comp,
                        &packer,
                        threads,
                        &level,
                        &|_| true,
                        &Budget::unlimited(),
                        &meter,
                    )
                    .expect("unlimited budgets never exhaust");
                }
                assert!(
                    level.is_empty(),
                    "round {round}: nothing above the final cut"
                );
                // Every lattice edge is counted once at every thread count.
                assert_eq!(
                    *nodes.get_or_insert(meter.nodes()),
                    meter.nodes(),
                    "round {round}"
                );
            }
        }
    }
}
