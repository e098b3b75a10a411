//! Exhaustive detection by walking the lattice of consistent cuts.
//!
//! This is the Cooper–Marzullo-style baseline: exact for *any* global
//! predicate, but it visits every consistent cut — exponentially many in
//! general, which is precisely the state explosion the paper's algorithms
//! avoid. The test suite uses it as the ground-truth oracle, and the E5
//! experiment measures the exponential gap against it.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use gpd_computation::{Computation, Cut, FrontierPacker, PackedFrontier};

use crate::striped::StripedCutSet;

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

/// Decides `Definitely(Φ)` with the Cooper–Marzullo **level sweep**:
/// instead of remembering every visited cut, keep only the current
/// lattice level's reachable `¬Φ` cuts — cuts with exactly `k` events —
/// and advance `k`. Same exponential worst case as
/// [`definitely_by_enumeration`], but memory drops from the whole
/// reachable region to one level (its widest antichain), which is what
/// makes larger instances feasible in practice.
///
/// # Example
///
/// ```
/// use gpd::enumerate::definitely_levelwise;
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// assert!(definitely_levelwise(&comp, |cut| cut.event_count() == 1));
/// ```
pub fn definitely_levelwise<F>(comp: &Computation, mut predicate: F) -> bool
where
    F: FnMut(&Cut) -> bool,
{
    let start = comp.initial_cut();
    if predicate(&start) {
        return true;
    }
    let total: usize = comp.final_cut().event_count();
    let packer = FrontierPacker::new(comp);
    // Invariant: `level` holds the ¬Φ cuts with k events reachable from
    // the initial cut through ¬Φ cuts only.
    let mut level: Vec<Cut> = vec![start];
    let mut succs: Vec<Cut> = Vec::new();
    for _k in 0..total {
        let mut dedup: HashSet<PackedFrontier> = HashSet::new();
        let mut next: Vec<Cut> = Vec::new();
        for cut in &level {
            comp.cut_successors_into(cut, &mut succs);
            for succ in succs.drain(..) {
                if !predicate(&succ) && dedup.insert(packer.pack_cut(&succ)) {
                    next.push(succ);
                }
            }
        }
        if next.is_empty() {
            return true; // every surviving run hit Φ
        }
        level = next;
    }
    // Some run reached the final level (k = total) avoiding Φ throughout.
    false
}

// ---------------------------------------------------------------------------
// Budgeted variants: deadline/node/width governed, resumable, panic-isolated
// ---------------------------------------------------------------------------

use crate::budget::{
    catch_detect, problem_fingerprint, Budget, BudgetMeter, Checkpoint, DetectError, ExhaustReason,
    Partial, Progress, Verdict,
};

/// Engine name embedded in [`possibly_by_enumeration_budgeted`]'s
/// checkpoints.
pub const POSSIBLY_ENUMERATE: &str = "possibly-enumerate";
/// Engine name embedded in [`definitely_levelwise_budgeted`]'s
/// checkpoints.
pub const DEFINITELY_LEVELWISE: &str = "definitely-levelwise";

/// Work-item granularity of the budgeted level sweeps: one work-stealing
/// chunk — budget gates, witness aggregation and visited-set flushes all
/// happen on chunk boundaries.
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

/// Number of stripes in the expanders' shared visited set. Fixed (not
/// scaled by `threads`) so the dedup structure is identical at every
/// thread count.
const EXPAND_STRIPES: usize = 64;

/// One budget-governed expansion of `level` into the next lattice level,
/// keeping successors that pass `keep`, deduplicated through the striped
/// CAS-locked visited set ([`StripedCutSet`]) and **canonically sorted**
/// (frontier-lexicographic).
///
/// Workers drain [`LEVEL_BLOCK`]-sized chunks from rooted work-stealing
/// spans; each chunk's successors are bucketed worker-locally by stripe
/// and flushed with one lock acquisition per non-empty stripe, so every
/// successor is expanded exactly once regardless of thread count —
/// `meter` observes the same total at 1 and at N threads. Budget gates
/// sit on chunk boundaries; an `Err` means the partially built next
/// level was discarded whole, so the caller's current level stays the
/// valid checkpoint boundary.
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
    let set = StripedCutSet::new(EXPAND_STRIPES);
    let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
    crate::par::fanout_chunks(threads, level.len(), LEVEL_BLOCK, &|w, src| {
        let mut succs: Vec<Cut> = Vec::new();
        let mut groups: Vec<Vec<(PackedFrontier, Cut)>> =
            (0..set.stripe_count()).map(|_| Vec::new()).collect();
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
            if budget.width_exceeded(set.kept().max(level.len())) {
                halt_fanout(&halt, ExhaustReason::Width, src);
                return;
            }
            let mut explored = 0u64;
            for cut in &level[r] {
                comp.cut_successors_into(cut, &mut succs);
                for succ in succs.drain(..) {
                    explored += 1;
                    if !keep(&succ) {
                        continue;
                    }
                    let packed = packer.pack_cut(&succ);
                    groups[set.stripe_of(packed.hash_value())].push((packed, succ));
                }
            }
            for (s, group) in groups.iter_mut().enumerate() {
                set.insert_group(s, group);
            }
            meter.charge(explored);
        }
    });
    if let Some(reason) = crate::par::into_inner_unpoisoned(halt) {
        return Err(reason);
    }
    if budget.width_exceeded(set.kept()) {
        return Err(ExhaustReason::Width);
    }
    let mut next = set.into_cuts();
    next.sort_unstable();
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
    let problem = problem_fingerprint(comp);
    let (k0, level0) = match resume {
        None => (0u32, vec![comp.initial_cut()]),
        Some(cp) => cp.restore_level(POSSIBLY_ENUMERATE, problem, comp)?,
    };
    catch_detect(move || {
        let total = comp.final_cut().event_count() as u32;
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
                    return unknown_at_level(
                        POSSIBLY_ENUMERATE,
                        problem,
                        reason,
                        meter,
                        k,
                        k,
                        &level,
                    )
                }
            }
            if k >= total {
                return Verdict::Decided(None, Progress::with_nodes(meter));
            }
            match expand_level_budgeted(comp, &packer, threads, &level, &|_| true, budget, meter) {
                Ok(next) => {
                    debug_assert!(!next.is_empty(), "non-final levels always have successors");
                    k += 1;
                    level = next;
                }
                // Level k is fully probed (hence swept = k + 1) but the
                // next level was discarded: resume re-probes level k —
                // harmlessly, it is witness-free — then re-expands.
                Err(reason) => {
                    return unknown_at_level(
                        POSSIBLY_ENUMERATE,
                        problem,
                        reason,
                        meter,
                        k,
                        k + 1,
                        &level,
                    )
                }
            }
        }
    })
}

/// [`definitely_levelwise`] under a [`Budget`]: the same one-level-wide
/// `¬Φ` reachability sweep, budget-governed and resumable. The stored
/// checkpoint level is the set of reachable `¬Φ` cuts with `level`
/// events; `levels_swept` counts levels fully processed. Semantics of
/// budgets, determinism and panic containment match
/// [`possibly_by_enumeration_budgeted`].
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
    let problem = problem_fingerprint(comp);
    let resumed = match resume {
        None => None,
        Some(cp) => Some(cp.restore_level(DEFINITELY_LEVELWISE, problem, comp)?),
    };
    catch_detect(move || {
        let total = comp.final_cut().event_count() as u32;
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
        // from the initial cut through ¬Φ cuts only.
        while k < total {
            match expand_level_budgeted(
                comp,
                &packer,
                threads,
                &level,
                &|c| !predicate(c),
                budget,
                meter,
            ) {
                Ok(next) if next.is_empty() => {
                    // Every surviving run hit Φ.
                    return Verdict::Decided(true, Progress::with_nodes(meter));
                }
                Ok(next) => {
                    k += 1;
                    level = next;
                }
                Err(reason) => {
                    return unknown_at_level(
                        DEFINITELY_LEVELWISE,
                        problem,
                        reason,
                        meter,
                        k,
                        k,
                        &level,
                    )
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
        assert!(definitely_levelwise(&comp, |_| true));
        assert!(!definitely_levelwise(&comp, |_| false));
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
            let a = definitely_by_enumeration(&comp, |c| (0..n).all(|p| x.value_at(c, p)));
            let b = definitely_levelwise(&comp, |c| (0..n).all(|p| x.value_at(c, p)));
            assert_eq!(a, b, "round {round}");
            // Also an asymmetric predicate (not conjunctive).
            let threshold = rng.gen_range(0..=(n * m));
            let a = definitely_by_enumeration(&comp, |c| c.event_count() >= threshold);
            let b = definitely_levelwise(&comp, |c| c.event_count() >= threshold);
            assert_eq!(a, b, "round {round} (threshold)");
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
        assert!(definitely_levelwise(&comp, |c| c.frontier() == [1, 0]));
        assert!(!definitely_levelwise(&comp, |_| false));
    }
}
