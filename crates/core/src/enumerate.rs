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
//! thread-parameterized **level sweep** over flat runs of word records
//! (`Layout`), evaluating Φ on one scratch [`Cut`] per worker. Its
//! Possibly body generates each cut of the next level exactly once, from
//! its canonical parent, so the workers' runs are just concatenated, and
//! probes it on the way for the level's lowest sorted witness. Its
//! Definitely body keeps only the level's reachable `¬Φ` cuts, sorted
//! per worker and merged without duplicates. Both bodies take a window:
//! the Possibly body expands only a down-set of the lattice, and the
//! Definitely body decides `false` once a reachable `¬Φ` cut has no Φ-cut
//! above it. The [`crate::slice`] entries and the exact and relational
//! sums of [`crate::relational`] pass one.

use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

use gpd_computation::{Computation, Cut, FrontierPacker, PackedFrontier};

use crate::budget::{
    catch_detect, problem_fingerprint, Budget, BudgetMeter, Checkpoint, DetectError, ExhaustReason,
    Partial, Progress, Verdict,
};

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
/// chunk — budget gates and counter flushes happen on chunk boundaries.
const LEVEL_BLOCK: usize = 64;

/// Levels with fewer cuts than this, less than two full chunks, are
/// expanded on the caller's thread whatever the thread count. Every
/// wider level fans out: the pool's helper spins between a sweep's
/// waves, so handing it a chunk costs no wake-up.
const SEQUENTIAL_CUTOFF: usize = 2 * LEVEL_BLOCK;

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
/// witnesses byte-identical across 1/2/4 threads. The sweeps probe
/// their first level with it (the initial cut, or a resumed level);
/// every later level is probed while it is generated.
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

// ---------------------------------------------------------------------------
// Flat levels: one run of fixed-width, order-preserving records
// ---------------------------------------------------------------------------

/// Writes the low `width` (1..=64) bits of `v` at bit `pos` of `words`,
/// read as one big-endian bit string (bit 0 is the top bit of word 0).
#[inline]
fn put_bits(words: &mut [u64], pos: usize, width: usize, v: u64) {
    let (w, end) = (pos / 64, pos % 64 + width);
    if end <= 64 {
        words[w] |= v << (64 - end);
    } else {
        let spill = end - 64;
        words[w] |= v >> spill;
        words[w + 1] |= v << (64 - spill);
    }
}

/// Reads the `width` (1..=64) bits at bit `pos`, as [`put_bits`] wrote
/// them.
#[inline]
fn get_bits(words: &[u64], pos: usize, width: usize) -> u64 {
    let (w, end) = (pos / 64, pos % 64 + width);
    let low = u64::MAX >> (64 - width);
    if end <= 64 {
        (words[w] >> (64 - end)) & low
    } else {
        let spill = end - 64;
        ((words[w] << spill) | (words[w + 1] >> (64 - spill))) & low
    }
}

/// The record layout of a flat level. A cut is `stride` words: its
/// frontier entries at a uniform bit width, process 0 first from the top
/// bit, then (for the Possibly sweep) its removable-process mask. Word
/// order therefore equals frontier-lexicographic order — the canonical
/// [`Cut`] order — so a level sorts, merges and dedups as plain word
/// slices, and a level of `m` cuts is one `m × stride` allocation
/// instead of `m` heap [`Cut`]s.
struct Layout {
    procs: usize,
    bits: usize,
    masked: bool,
    stride: usize,
}

impl Layout {
    fn new(comp: &Computation, masked: bool) -> Self {
        let procs = comp.process_count();
        let max = (0..procs).map(|p| comp.events_on(p)).max().unwrap_or(0) as u32;
        let bits = (32 - max.leading_zeros()).max(1) as usize;
        let total = procs * bits + if masked { procs } else { 0 };
        Layout {
            procs,
            bits,
            masked,
            stride: total.div_ceil(64).max(1),
        }
    }

    /// Words in one removable-process mask.
    fn mask_words(&self) -> usize {
        self.procs.div_ceil(64)
    }

    /// Appends the record of `frontier` (with `mask`, when masked).
    fn push(&self, frontier: &[u32], mask: &[u64], out: &mut Vec<u64>) {
        let at = out.len();
        out.resize(at + self.stride, 0);
        let rec = &mut out[at..];
        for (i, &f) in frontier.iter().enumerate() {
            put_bits(rec, i * self.bits, self.bits, f as u64);
        }
        if self.masked {
            let base = self.procs * self.bits;
            for (c, &m) in mask.iter().enumerate() {
                put_bits(rec, base + 64 * c, (self.procs - 64 * c).min(64), m);
            }
        }
    }

    fn frontier(&self, rec: &[u64], out: &mut [u32]) {
        for (i, f) in out.iter_mut().enumerate() {
            *f = get_bits(rec, i * self.bits, self.bits) as u32;
        }
    }

    fn mask(&self, rec: &[u64], out: &mut [u64]) {
        let base = self.procs * self.bits;
        for (c, m) in out.iter_mut().enumerate() {
            *m = get_bits(rec, base + 64 * c, (self.procs - 64 * c).min(64));
        }
    }

    fn frontier_vec(&self, rec: &[u64]) -> Vec<u32> {
        let mut frontier = vec![0; self.procs];
        self.frontier(rec, &mut frontier);
        frontier
    }

    fn len(&self, level: &[u64]) -> usize {
        level.len() / self.stride
    }

    /// The level as frontier vectors, for a checkpoint.
    fn frontiers(&self, level: &[u64]) -> Vec<Vec<u32>> {
        level
            .chunks_exact(self.stride)
            .map(|rec| self.frontier_vec(rec))
            .collect()
    }

    /// Sorts a run's records. The sort is stable, which makes it
    /// adaptive: a concatenation of sorted runs is merged in linear time
    /// per run boundary, so [`Layout::merge`] is one call to it.
    fn sort(&self, run: &mut Vec<u64>) {
        let stride = self.stride;
        if stride == 1 {
            run.sort();
            return;
        }
        let rec = |i: u32| &run[i as usize * stride..][..stride];
        let mut order: Vec<u32> = (0..(run.len() / stride) as u32).collect();
        order.sort_by(|&a, &b| rec(a).cmp(rec(b)));
        let sorted: Vec<u64> = order.iter().flat_map(|&i| rec(i)).copied().collect();
        *run = sorted;
    }

    /// Keeps the records for which `keep(previous_kept, record)` holds,
    /// in order, compacting the run in place.
    fn retain(&self, run: &mut Vec<u64>, mut keep: impl FnMut(Option<&[u64]>, &[u64]) -> bool) {
        let stride = self.stride;
        let mut kept = 0usize;
        for i in 0..self.len(run) {
            let last = kept.checked_sub(1).map(|k| &run[k * stride..][..stride]);
            if keep(last, &run[i * stride..][..stride]) {
                run.copy_within(i * stride..(i + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        run.truncate(kept * stride);
    }

    /// Drops repeated records from a sorted run.
    fn dedup(&self, run: &mut Vec<u64>) {
        self.retain(run, |last, rec| last != Some(rec));
    }

    /// Merges sorted, deduplicated runs into one sorted level; a record
    /// present in several runs is kept once.
    fn merge(&self, mut runs: Vec<Vec<u64>>) -> Vec<u64> {
        let merged = if runs.len() == 1 {
            runs.pop().expect("one run")
        } else {
            let mut merged = runs.concat();
            self.sort(&mut merged);
            self.dedup(&mut merged);
            merged
        };
        debug_assert!(
            self.strictly_increasing(&merged),
            "a merged Definitely level must be strictly increasing"
        );
        merged
    }

    /// Whether a run's records strictly increase: sorted, none repeated.
    fn strictly_increasing(&self, run: &[u64]) -> bool {
        let recs = run.chunks_exact(self.stride);
        recs.clone().zip(recs.skip(1)).all(|(a, b)| a < b)
    }
}

/// The removable-process mask of `cut`, from scratch: bit `q` is set
/// when dropping `q`'s last event (in place, then restored) leaves a
/// consistent cut. Only resumed levels need it; the sweep carries masks
/// from cut to child otherwise.
fn removable_mask(comp: &Computation, cut: &mut Cut, mask: &mut [u64]) {
    mask.fill(0);
    for q in 0..cut.frontier().len() {
        if cut.frontier()[q] > 0 {
            cut.frontier_mut()[q] -= 1;
            if comp.is_consistent(cut) {
                mask[q / 64] |= 1 << (q % 64);
            }
            cut.frontier_mut()[q] += 1;
        }
    }
}

/// The canonical-parent test for the child `G + e_p` of a cut `G` with
/// frontier `g` and removable mask `mask`, where `row` is `vc(e_p)`.
///
/// A removable `q` of `G` stays removable in the child iff `e_p` does
/// not depend on `q`'s last event, `vc(e_p)[q] < G[q]`; `p` itself is
/// always removable in the child. The child is generated here only when
/// `p` is its highest removable process. On success `child` holds the
/// child's mask `{p} ∪ {q ∈ R(G) : vc(e_p)[q] < G[q]}`.
#[inline]
fn canonical_child(mask: &[u64], p: usize, row: &[u32], g: &[u32], child: &mut [u64]) -> bool {
    for (c, (&word, out)) in mask.iter().zip(child.iter_mut()).enumerate() {
        let mut stays = 0u64;
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let q = 64 * c + b;
            if row[q] < g[q] {
                if q > p {
                    return false;
                }
                stays |= 1 << b;
            }
        }
        *out = stays;
    }
    child[p / 64] |= 1 << (p % 64);
    true
}

/// Runs `expand(state, record_index)` over every record of a level of
/// `count` cuts in [`LEVEL_BLOCK`] chunks and returns each worker's
/// final state after `finish`. `expand` returns the nodes to charge.
/// Budget gates sit on chunk boundaries; the width gate sees the level
/// being expanded and `kept(state)`, the worker's share of the next
/// level so far, which must be a subset of it — so the gate never trips
/// where the exact count of the merged level would not. Levels below
/// [`SEQUENTIAL_CUTOFF`] stay on the caller's thread. An `Err` means the
/// fan-out was cancelled and every partial state discarded.
#[allow(clippy::too_many_arguments)]
fn expand_chunks<S: Send>(
    threads: usize,
    count: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    init: &(dyn Fn() -> S + Sync),
    expand: &(dyn Fn(&mut S, usize) -> u64 + Sync),
    kept: &(dyn Fn(&S) -> usize + Sync),
    finish: &(dyn Fn(&mut S) + Sync),
) -> Result<Vec<S>, ExhaustReason> {
    let threads = if count < SEQUENTIAL_CUTOFF {
        0
    } else {
        threads
    };
    let done: Mutex<Vec<S>> = Mutex::new(Vec::new());
    let halt: Mutex<Option<ExhaustReason>> = Mutex::new(None);
    crate::par::fanout_chunks(threads, count, LEVEL_BLOCK, &|w, src| {
        let mut state = init();
        while let Some(r) = src.next(w) {
            if budget.deadline_exceeded() {
                halt_fanout(&halt, ExhaustReason::Deadline, src);
                return;
            }
            if budget.nodes_exceeded(meter.nodes()) {
                halt_fanout(&halt, ExhaustReason::Nodes, src);
                return;
            }
            if budget.width_exceeded(kept(&state).max(count)) {
                halt_fanout(&halt, ExhaustReason::Width, src);
                return;
            }
            let work: u64 = r.map(|i| expand(&mut state, i)).sum();
            meter.charge(work);
        }
        finish(&mut state);
        crate::par::lock_unpoisoned(&done).push(state);
    });
    match crate::par::into_inner_unpoisoned(halt) {
        Some(reason) => Err(reason),
        None => Ok(crate::par::into_inner_unpoisoned(done)),
    }
}

/// One step of the Possibly sweep: generates level `k + 1` from the flat
/// `level` (records with masks, in any order) and probes it on the way.
/// Returns the next level, unsorted, and its least Φ-cut.
///
/// Each cut of the next level is generated **exactly once**, from its
/// canonical parent (see [`canonical_child`]) — no visited set, no
/// dedup, no sort — and `keep` (a down-set, so it holds every canonical
/// parent of a kept cut) and Φ are evaluated as it is generated. One
/// node is charged per enabled edge examined and one per cut probed, so
/// `meter` observes the same total at every thread count. The least hit is the lowest sorted Φ-cut of the level at every
/// thread count. The width cap is checked on the whole level, before any
/// hit is reported, so a `Width` verdict is thread-count invariant too.
#[allow(clippy::too_many_arguments)]
fn possibly_step<F, K>(
    comp: &Computation,
    layout: &Layout,
    threads: usize,
    level: &[u64],
    keep: &K,
    predicate: &F,
    budget: &Budget,
    meter: &BudgetMeter,
) -> Result<(Vec<u64>, Option<Cut>), ExhaustReason>
where
    F: Fn(&Cut) -> bool + Sync,
    K: Fn(&[u32]) -> bool + Sync,
{
    let (n, mw, stride) = (layout.procs, layout.mask_words(), layout.stride);
    // A worker's state: its run of the next level, in generation order,
    // the least record of its Φ-cuts, the parent frontier, the child cut,
    // and the parent and child masks.
    let runs = expand_chunks(
        threads,
        layout.len(level),
        budget,
        meter,
        &|| {
            let child = Cut::from_frontier(vec![0; n]);
            (
                Vec::new(),
                None,
                vec![0; n],
                child,
                vec![0; mw],
                vec![0; mw],
            )
        },
        &|(run, hit, g, child, gmask, cmask), i| {
            let rec = &level[i * stride..][..stride];
            layout.frontier(rec, g);
            layout.mask(rec, gmask);
            child.frontier_mut().copy_from_slice(g);
            let mut work = 0u64;
            comp.for_each_enabled(g, |p, row| {
                work += 1;
                if !canonical_child(gmask, p, row, g, cmask) {
                    return;
                }
                child.frontier_mut()[p] += 1;
                if keep(child.frontier()) {
                    work += 1;
                    let at = run.len();
                    layout.push(child.frontier(), cmask, run);
                    let new = &run[at..];
                    if hit.as_deref().is_none_or(|best| new < best) && predicate(child) {
                        *hit = Some(new.to_vec());
                    }
                }
                child.frontier_mut()[p] -= 1;
            });
            work
        },
        &|(run, ..)| layout.len(run),
        &|_| {},
    )?;
    let hit = runs.iter().filter_map(|(_, hit, ..)| hit.as_ref()).min();
    let hit = hit.map(|rec| Cut::from_frontier(layout.frontier_vec(rec)));
    let mut runs = runs.into_iter().map(|(run, ..)| run);
    let mut next = runs.next().unwrap_or_default();
    runs.for_each(|run| next.extend_from_slice(&run));
    debug_assert!(
        {
            let mut sorted = next.clone();
            layout.sort(&mut sorted);
            layout.strictly_increasing(&sorted)
        },
        "a Possibly level must generate each cut once"
    );
    if budget.width_exceeded(layout.len(&next)) {
        return Err(ExhaustReason::Width);
    }
    Ok((next, hit))
}

/// One step of the Definitely sweep: the successors of the flat `level`
/// (records without masks) that pass `keep`, sorted and deduplicated,
/// and whether `escapes` holds for one of them.
///
/// The canonical-parent rule does not apply here: the `¬Φ`-filtered
/// level need not contain a cut's canonical parent, so a cut may be
/// reached only through another of its parents. Each worker therefore
/// records every successor, sorts and dedups its own run, and evaluates
/// `keep` (then `escapes`, on a kept cut) once per distinct cut of the
/// run, on one scratch [`Cut`]; the merge drops cuts that several
/// workers reached. One node is charged per enabled edge, at every
/// thread count; the width cap is checked on the merged level, before
/// the escape is reported.
#[allow(clippy::too_many_arguments)]
fn definitely_step<K, E>(
    comp: &Computation,
    layout: &Layout,
    threads: usize,
    level: &[u64],
    keep: &K,
    escapes: &E,
    budget: &Budget,
    meter: &BudgetMeter,
) -> Result<(Vec<u64>, bool), ExhaustReason>
where
    K: Fn(&Cut) -> bool + Sync,
    E: Fn(&[u32]) -> bool + Sync,
{
    let (n, stride) = (layout.procs, layout.stride);
    let runs = expand_chunks(
        threads,
        layout.len(level),
        budget,
        meter,
        // Worker state: its run, the parent frontier, a scratch cut, and
        // whether a kept cut of its run escapes.
        &|| {
            (
                Vec::new(),
                vec![0; n],
                Cut::from_frontier(vec![0; n]),
                false,
            )
        },
        &|(run, g, child, _), i| {
            layout.frontier(&level[i * stride..][..stride], g);
            child.frontier_mut().copy_from_slice(g);
            let mut explored = 0u64;
            comp.for_each_enabled(g, |p, _| {
                explored += 1;
                child.frontier_mut()[p] += 1;
                layout.push(child.frontier(), &[], run);
                child.frontier_mut()[p] -= 1;
            });
            explored
        },
        // The raw run repeats cuts and holds Φ-cuts, so it is no subset
        // of the next level: only the merged level's width is exact.
        &|_| 0,
        &|(run, _, cut, escaped)| {
            layout.sort(run);
            layout.dedup(run);
            layout.retain(run, |_, rec| {
                layout.frontier(rec, cut.frontier_mut());
                let kept = keep(cut);
                *escaped |= kept && escapes(cut.frontier());
                kept
            });
        },
    )?;
    let escaped = runs.iter().any(|&(.., escaped)| escaped);
    let next = layout.merge(runs.into_iter().map(|(run, ..)| run).collect());
    if budget.width_exceeded(layout.len(&next)) {
        return Err(ExhaustReason::Width);
    }
    Ok((next, escaped))
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
    mut frontiers: Vec<Vec<u32>>,
) -> Verdict<T> {
    frontiers.sort_unstable(); // Possibly levels come in generation order.
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
pub(crate) fn level_of(frontier: &[u32]) -> u32 {
    frontier.iter().map(|&f| f as u64).sum::<u64>() as u32
}

/// [`possibly_by_enumeration`] under a [`Budget`]: level-synchronous,
/// deterministic, resumable.
///
/// Differences from the unbudgeted walks, by design:
///
/// * Every level is probed for its lowest sorted witness, in whatever
///   order it was generated, so for a fixed input the verdict **and the
///   witness** are byte-identical at every thread count — and an
///   interrupted run resumed from its checkpoint reproduces exactly the
///   uninterrupted outcome (`tests/budget_resume.rs` asserts both).
/// * An exhausted budget returns [`Verdict::Unknown`] carrying the
///   levels swept so far and a [`Checkpoint`] of the current level,
///   sorted. Checkpoints sit on level boundaries: work inside an
///   interrupted level is discarded, never resumed mid-way.
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
    let top = comp.final_cut().event_count() as u32;
    possibly_sweep(
        POSSIBLY_ENUMERATE,
        comp,
        Some((|_: &[u32]| true, top)),
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// The Possibly level sweep behind [`possibly_by_enumeration_budgeted`],
/// its sliced entry and the large-step exact sum, checkpointing under
/// `engine`.
///
/// `window` is `(keep, top)`: the sweep expands only the cuts `keep`
/// holds and stops at level `top`, past which `keep` holds none. `keep`
/// must be a down-set of the lattice, so it holds the canonical parent of
/// every cut it holds and the kept cuts stay connected level to level,
/// and it must hold every Φ-cut; then the verdict and the witness are the
/// unwindowed sweep's. The slice keeps the cuts `≤ M` up to level `|M|`;
/// the exact sum keeps the cuts some cut above which can sum to `K`. A
/// `None` window holds no cut: it decides `None` without touching the
/// lattice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn possibly_sweep<F, K>(
    engine: &str,
    comp: &Computation,
    window: Option<(K, u32)>,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
    K: Fn(&[u32]) -> bool + Sync,
{
    let problem = problem_fingerprint(comp);
    let (k0, mut level0) = match resume {
        None => (0u32, vec![comp.initial_cut()]),
        Some(cp) => cp.restore_level(engine, problem, comp)?,
    };
    let Some((keep, top)) = window else {
        return Ok(Verdict::Decided(None, Progress::with_nodes(meter)));
    };
    let first = budget.first_level(resume.is_some());
    catch_detect(move || {
        let frontiers = |level: &[Cut]| level.iter().map(|c| c.frontier().to_vec()).collect();
        let mut k = k0;
        match probe_level_budgeted(&predicate, threads, &level0, &first, meter) {
            Ok(Some(witness)) => {
                return Verdict::Decided(Some(witness), Progress::with_nodes(meter))
            }
            Ok(None) => {}
            Err(reason) => {
                return unknown_at_level(engine, problem, reason, meter, k, k, frontiers(&level0))
            }
        }
        let layout = Layout::new(comp, true);
        let mut level = Vec::with_capacity(level0.len() * layout.stride);
        let mut mask = vec![0; layout.mask_words()];
        for cut in &mut level0 {
            removable_mask(comp, cut, &mut mask);
            layout.push(cut.frontier(), &mask, &mut level);
        }
        // Invariant: `level` holds every kept cut with k events, with its
        // removable mask, and none of them satisfies Φ.
        while k < top {
            let gate = if k == k0 { &first } else { budget };
            match possibly_step(
                comp, &layout, threads, &level, &keep, &predicate, gate, meter,
            ) {
                Ok((_, Some(witness))) => {
                    return Verdict::Decided(Some(witness), Progress::with_nodes(meter))
                }
                Ok((next, None)) if next.is_empty() => {
                    // A kept final cut would keep the whole lattice.
                    debug_assert!(
                        !keep(comp.final_cut().frontier()),
                        "only a window without the final cut runs dry early"
                    );
                    break;
                }
                Ok((next, None)) => {
                    k += 1;
                    level = next;
                }
                // Level k is fully probed (hence swept = k + 1) but the
                // next level was discarded: resume re-probes level k —
                // harmlessly, it is witness-free — then re-expands.
                Err(reason) => {
                    let frontiers = layout.frontiers(&level);
                    return unknown_at_level(engine, problem, reason, meter, k, k + 1, frontiers);
                }
            }
        }
        Verdict::Decided(None, Progress::with_nodes(meter))
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
        Some((0, |_: &[u32]| false)),
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// The Definitely level sweep behind [`definitely_levelwise_budgeted`],
/// its sliced entry and the sums, checkpointing under `engine`.
///
/// `window` is `(skip_below, escapes)`. Below level `skip_below` no cut
/// satisfies Φ, so successors there are kept without evaluating it.
/// `escapes(G)` may hold only when no cut `≥ G` satisfies Φ: a completed
/// level holding such a reachable `¬Φ` cut decides `false` at once, since
/// its `¬Φ` path can run on to the final cut. The check runs on the
/// merged level, after its budget gates, so an interrupted level never
/// decides and the answer is the same at every thread count; the levels
/// themselves are the plain sweep's, so checkpoints stay interchangeable
/// with it. The slice skips below level `|m|` and escapes past `|M|`;
/// the sums escape where the cut's suffix bounds miss the target. A
/// `None` window holds no Φ-cut: it decides `false` at once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn definitely_sweep<F, E>(
    engine: &str,
    comp: &Computation,
    window: Option<(u32, E)>,
    predicate: F,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<bool>, DetectError>
where
    F: Fn(&Cut) -> bool + Sync,
    E: Fn(&[u32]) -> bool + Sync,
{
    let problem = problem_fingerprint(comp);
    let resumed = resume
        .map(|cp| cp.restore_level(engine, problem, comp))
        .transpose()?;
    let total = comp.final_cut().event_count() as u32;
    // No Φ-cut at all: the (possibly empty) run to the final cut avoids Φ
    // throughout.
    let Some((skip_below, escapes)) = window else {
        return Ok(Verdict::Decided(false, Progress::with_nodes(meter)));
    };
    let first = budget.first_level(resumed.is_some());
    catch_detect(move || {
        let (mut k, start) = match resumed {
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
        let layout = Layout::new(comp, false);
        let mut level = Vec::with_capacity(start.len() * layout.stride);
        for cut in &start {
            layout.push(cut.frontier(), &[], &mut level);
        }
        // Invariant: `level` holds the ¬Φ cuts with k events reachable
        // from the initial cut through ¬Φ cuts only (equal to *all*
        // reachable cuts while k < |m|, where Φ cannot hold).
        let k0 = k;
        while k < total {
            let skip_eval = k + 1 < skip_below;
            let keep = |c: &Cut| skip_eval || !predicate(c);
            let gate = if k == k0 { &first } else { budget };
            let step =
                definitely_step(comp, &layout, threads, &level, &keep, &escapes, gate, meter);
            match step {
                Ok((next, _)) if next.is_empty() => {
                    // Every surviving run hit Φ.
                    return Verdict::Decided(true, Progress::with_nodes(meter));
                }
                // A ¬Φ path escaped: everything above it is ¬Φ too, so
                // some run avoids Φ entirely.
                Ok((_, true)) => return Verdict::Decided(false, Progress::with_nodes(meter)),
                Ok((next, false)) => {
                    k += 1;
                    level = next;
                }
                Err(reason) => {
                    let frontiers = layout.frontiers(&level);
                    return unknown_at_level(engine, problem, reason, meter, k, k, frontiers);
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
        // Wide enough for several LEVEL_BLOCK chunks and past the
        // sequential cutoff, so the parallel steps really join
        // worker-local runs.
        use gpd_computation::gen;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4141);
        for round in 0..12 {
            let n = rng.gen_range(2..7);
            let m = rng.gen_range(2..6);
            let msgs = rng.gen_range(0..n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let total = comp.final_cut().event_count();
            let mut lattice: Vec<Vec<Vec<u32>>> = vec![Vec::new(); total + 1];
            for cut in comp.consistent_cuts() {
                lattice[cut.event_count()].push(cut.frontier().to_vec());
            }
            for level in &mut lattice {
                level.sort_unstable();
            }
            let budget = Budget::unlimited();
            let mut nodes = None;
            for threads in [0, 1, 2, 4] {
                let (possibly, definitely) = (BudgetMeter::new(), BudgetMeter::new());
                let masked = Layout::new(&comp, true);
                let plain = Layout::new(&comp, false);
                let mut a = Vec::new();
                masked.push(&vec![0; n], &vec![0; masked.mask_words()], &mut a);
                let mut b = Vec::new();
                plain.push(&vec![0; n], &[], &mut b);
                for (k, expected) in lattice.iter().enumerate() {
                    let at = format!("round {round}, threads {threads}, level {k}");
                    // A Possibly level comes in generation order: sorted,
                    // it is the lattice level, and no record repeats.
                    let mut sorted = a.clone();
                    masked.sort(&mut sorted);
                    assert!(masked.strictly_increasing(&sorted), "{at}: a repeated cut");
                    assert_eq!(&masked.frontiers(&sorted), expected, "{at}");
                    // A Definitely level is the lattice level, sorted.
                    assert!(plain.strictly_increasing(&b), "{at}: unsorted");
                    assert_eq!(&plain.frontiers(&b), expected, "{at}");
                    // Every carried mask equals the mask from scratch.
                    let mut carried = vec![0; masked.mask_words()];
                    let mut fresh = carried.clone();
                    for rec in a.chunks_exact(masked.stride) {
                        masked.mask(rec, &mut carried);
                        let mut cut = Cut::from_frontier(masked.frontier_vec(rec));
                        removable_mask(&comp, &mut cut, &mut fresh);
                        assert_eq!(carried, fresh, "{at}, {cut:?}");
                    }
                    let (next, hit) = possibly_step(
                        &comp,
                        &masked,
                        threads,
                        &a,
                        &|_: &[u32]| true,
                        &|_: &Cut| false,
                        &budget,
                        &possibly,
                    )
                    .expect("unlimited budgets never exhaust");
                    assert!(hit.is_none());
                    a = next;
                    let escaped;
                    (b, escaped) = definitely_step(
                        &comp,
                        &plain,
                        threads,
                        &b,
                        &|_| true,
                        &|_: &[u32]| false,
                        &budget,
                        &definitely,
                    )
                    .expect("unlimited budgets never exhaust");
                    assert!(!escaped);
                }
                assert!(
                    a.is_empty() && b.is_empty(),
                    "round {round}: nothing above the final cut"
                );
                // Every lattice edge (and, on the Possibly side, every
                // cut) is counted once at every thread count.
                let counts = (possibly.nodes(), definitely.nodes());
                assert_eq!(*nodes.get_or_insert(counts), counts, "round {round}");
            }
        }
    }

    #[test]
    fn records_round_trip_across_word_boundaries() {
        // 70 processes of up to 5 events: 3-bit entries plus a 70-bit
        // mask, so entries and mask words straddle word boundaries.
        let mut b = ComputationBuilder::new(70);
        for p in 0..70 {
            for _ in 0..(p % 6) {
                b.append(p);
            }
        }
        let comp = b.build().unwrap();
        let layout = Layout::new(&comp, true);
        assert_eq!(layout.stride, (70 * 3 + 70usize).div_ceil(64));
        let frontiers: Vec<Vec<u32>> = (0..6)
            .map(|s| (0..70).map(|p| ((p + s) % (p % 6 + 1)) as u32).collect())
            .collect();
        let masks: Vec<Vec<u64>> = (0..6u64)
            .map(|s| vec![0x9e37_79b9_7f4a_7c15u64.rotate_left(s as u32), 0x2f >> s])
            .collect();
        let mut run = Vec::new();
        for (f, m) in frontiers.iter().zip(&masks) {
            layout.push(f, m, &mut run);
        }
        let mut frontier = vec![0; 70];
        let mut mask = vec![0; 2];
        for (i, rec) in run.chunks_exact(layout.stride).enumerate() {
            layout.frontier(rec, &mut frontier);
            layout.mask(rec, &mut mask);
            assert_eq!(frontier, frontiers[i]);
            assert_eq!(mask, masks[i]);
        }
        // Record order is frontier order.
        layout.sort(&mut run);
        let mut sorted = frontiers.clone();
        sorted.sort_unstable();
        assert_eq!(layout.frontiers(&run), sorted);
    }
}
