//! Computation slicing: exact detection for regular predicates and a
//! lattice-shrinking pre-pass for the NP-hard engines.
//!
//! A predicate `B` is **regular** when its satisfying consistent cuts are
//! closed under intersection and union — they form a sublattice of the
//! lattice of consistent cuts. Conjunctions of local state predicates are
//! regular, and so are channel bounds (`at most k` / `at least k`
//! messages in flight on a directed channel) and any conjunction of
//! regular predicates. [`RegularPredicate`] represents exactly that
//! closure: per-process allowed-state sets plus channel constraints.
//!
//! Regularity buys two things:
//!
//! 1. **Exact polynomial detection.** The `B`-cuts form a lattice, so a
//!    least `B`-cut exists whenever any does and is computable by a
//!    repair fixpoint ([`possibly_slice`]); `Definitely(B)` reduces to a
//!    conjunctive-interval question for purely local `B` and to a sweep
//!    over a provably narrow level window otherwise
//!    ([`definitely_slice`]).
//!
//! 2. **The slice.** For every event `e`, `J(e)` is the least `B`-cut
//!    containing `e` (if any). Events with equal `J` merge into one
//!    equivalence class, and the classes under `≤` form a *reduced event
//!    graph* whose ideal lattice — the join-closure of the `J(e)` — is
//!    the **slice**: the smallest sublattice of the cut lattice
//!    containing every `B`-cut ([`Slice`]). Its least element `m` and
//!    greatest element `M` bound every `B`-cut: `m ≤ C ≤ M`.
//!
//! The *SliceReduce* pre-pass exploits (2) for an arbitrary predicate
//! `Φ` that *implies* a regular envelope `B` (e.g. the unit clauses of a
//! CNF): every `Φ`-cut is a `B`-cut, hence lies inside the slice window.
//! The `*_sliced_budgeted` entries run the same engines as their
//! unsliced counterparts with that window passed in, not a second copy
//! of them: [`possibly_by_enumeration_sliced_budgeted`] walks only cuts
//! `≤ M` (the downward closure of the slice, which keeps the level-BFS
//! connected), [`definitely_levelwise_sliced_budgeted`] skips predicate
//! evaluation below level `|m|` and stops as soon as a `¬Φ` path escapes
//! past level `|M|`, and [`possibly_singular_sliced_budgeted`] drops
//! odometer candidate states outside `[mₚ, Mₚ]`. All of them return
//! verdicts and witnesses **byte-identical** to their unsliced
//! counterparts at every thread count (`tests/slice_equivalence.rs`
//! asserts this); only the work shrinks. The shrinkage is metered through
//! [`crate::counters::ScanCounters::slice_nodes_before`] /
//! [`slice_nodes_after`](crate::counters::ScanCounters::slice_nodes_after)
//! and surfaces in `gpd detect --stats` and `tests/reduction_floors.rs`.
//!
//! Slicing time itself is budgeted: [`Slice::build_budgeted`] charges
//! the shared [`BudgetMeter`] per event and aborts on an exhausted
//! [`Budget`], letting callers fall back to the unsliced engine with
//! whatever budget remains.

use std::collections::{HashMap, HashSet};

use gpd_computation::{BoolVariable, ChannelIndex, Computation, Cut, EventId, ProcessId};

use crate::budget::{
    sequential, Budget, BudgetMeter, Checkpoint, DetectError, ExhaustReason, Verdict,
};
use crate::conjunctive::definitely_conjunctive;
use crate::counters;
use crate::enumerate::{definitely_sweep, possibly_sweep};
use crate::predicate::SingularCnf;
use crate::singular::dispatch;

/// Engine name embedded in [`possibly_by_enumeration_sliced_budgeted`]'s
/// checkpoints.
pub const POSSIBLY_ENUMERATE_SLICED: &str = "possibly-enumerate-sliced";
/// Engine name embedded in [`definitely_levelwise_sliced_budgeted`]'s
/// checkpoints.
pub const DEFINITELY_LEVELWISE_SLICED: &str = "definitely-levelwise-sliced";

/// Direction of a channel bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelOp {
    /// At most `bound` messages in flight.
    AtMost,
    /// At least `bound` messages in flight.
    AtLeast,
}

/// A bound on the messages in flight on one directed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConstraint {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Bound direction.
    pub op: ChannelOp,
    /// The bound `k`.
    pub bound: u32,
}

/// A regular predicate: a conjunction of per-process allowed-state sets
/// and channel bounds. Closed under conjunction by construction; its
/// satisfying cuts are closed under intersection and union (the module
/// tests verify this on random computations), which is what the slicing
/// fixpoints rely on.
///
/// # Example
///
/// ```
/// use gpd::slice::{possibly_slice, RegularPredicate};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![true, false]]);
/// // x₀ ∧ ¬x₁ — a conjunction of local predicates is regular. x₀ turns
/// // true after p0's event and x₁ turns false after p1's, so the least
/// // satisfying cut has executed both.
/// let pred = RegularPredicate::conjunction(&comp, &x, &[(0.into(), true), (1.into(), false)]);
/// let least = possibly_slice(&comp, &pred).unwrap();
/// assert_eq!(least.frontier(), &[1, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct RegularPredicate {
    /// Events per process — the frontier shape this predicate is for.
    shape: Vec<usize>,
    /// `local[p]` constrains process `p` to states `k` with
    /// `local[p][k]`; `None` leaves the process unconstrained. Length is
    /// always `shape[p] + 1` when present.
    local: Vec<Option<Vec<bool>>>,
    channels: Vec<ChannelConstraint>,
    /// Channel positions of the computation this predicate was built for.
    index: ChannelIndex,
}

impl RegularPredicate {
    /// The always-true predicate over `comp`'s cuts; constrain it with
    /// [`require_states`](Self::require_states) /
    /// [`require_literal`](Self::require_literal) /
    /// [`require_channel`](Self::require_channel).
    pub fn unconstrained(comp: &Computation) -> Self {
        let n = comp.process_count();
        RegularPredicate {
            shape: (0..n).map(|p| comp.events_on(p)).collect(),
            local: vec![None; n],
            channels: Vec::new(),
            index: ChannelIndex::new(comp),
        }
    }

    /// Restricts `process` to the states flagged in `allowed`
    /// (`allowed[k]` ⇔ state `k` permitted, including the initial state
    /// `0`). Conjoins with any existing constraint on the process.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` does not have one entry per state
    /// (`events_on(process) + 1`) or the process is out of range.
    pub fn require_states(mut self, process: impl Into<ProcessId>, allowed: Vec<bool>) -> Self {
        let p = process.into().index();
        assert_eq!(
            allowed.len(),
            self.shape[p] + 1,
            "allowed-state vector must cover states 0..=events_on(p{p})"
        );
        match &mut self.local[p] {
            Some(existing) => {
                for (slot, ok) in existing.iter_mut().zip(&allowed) {
                    *slot &= ok;
                }
            }
            slot @ None => *slot = Some(allowed),
        }
        self
    }

    /// Restricts `process` to the states where the literal
    /// `(process, positive)` over `var` holds.
    pub fn require_literal(
        self,
        var: &BoolVariable,
        process: impl Into<ProcessId>,
        positive: bool,
    ) -> Self {
        let p = process.into();
        let allowed = (0..=self.shape[p.index()] as u32)
            .map(|k| var.value_in_state(p, k) == positive)
            .collect();
        self.require_states(p, allowed)
    }

    /// Adds a bound on the messages in flight from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or are out of range.
    pub fn require_channel(
        mut self,
        from: impl Into<ProcessId>,
        to: impl Into<ProcessId>,
        op: ChannelOp,
        bound: u32,
    ) -> Self {
        let (from, to) = (from.into(), to.into());
        assert!(from != to, "a channel connects two distinct processes");
        assert!(
            from.index() < self.shape.len() && to.index() < self.shape.len(),
            "channel endpoint out of range"
        );
        self.channels.push(ChannelConstraint {
            from,
            to,
            op,
            bound,
        });
        self
    }

    /// The conjunction of literals over `var` — the regular form of a
    /// conjunctive predicate.
    pub fn conjunction(
        comp: &Computation,
        var: &BoolVariable,
        literals: &[(ProcessId, bool)],
    ) -> Self {
        literals
            .iter()
            .fold(Self::unconstrained(comp), |pred, &(p, positive)| {
                pred.require_literal(var, p, positive)
            })
    }

    /// Whether the predicate has no channel constraints (a conjunction
    /// of local predicates only).
    pub fn is_local(&self) -> bool {
        self.channels.is_empty()
    }

    /// Evaluates the predicate at `cut`.
    ///
    /// # Panics
    ///
    /// Panics if the cut's shape does not match the predicate's.
    pub fn holds(&self, cut: &Cut) -> bool {
        let frontier = cut.frontier();
        assert_eq!(frontier.len(), self.shape.len(), "cut shape mismatch");
        let local_ok = self
            .local
            .iter()
            .zip(frontier)
            .all(|(allowed, &f)| match allowed {
                Some(states) => states[f as usize],
                None => true,
            });
        local_ok
            && self.channels.iter().all(|c| {
                let in_flight = self.index.in_flight(c.from, c.to, frontier);
                match c.op {
                    ChannelOp::AtMost => in_flight <= i64::from(c.bound),
                    ChannelOp::AtLeast => in_flight >= i64::from(c.bound),
                }
            })
    }
}

/// The least `B`-cut whose frontier dominates `start`, or `None` if no
/// `B`-cut lies above `start`. A repair fixpoint: each pass advances
/// frontier entries that *every* `B`-cut above the current frontier is
/// forced to advance — consistency closure (a frontier event pulls in
/// its causal past), local membership (skip to the next allowed state),
/// and channel bounds (an overfull channel forces the next receive, an
/// underfull one the next send). Every step is forced and strictly
/// increases one entry, so the fixpoint is the least `B`-cut above
/// `start` and terminates within `event_count` advances.
fn lub(comp: &Computation, pred: &RegularPredicate, start: &[u32]) -> Option<Vec<u32>> {
    let n = comp.process_count();
    debug_assert_eq!(start.len(), n);
    let mut f = start.to_vec();
    loop {
        let mut changed = false;
        // Local membership: advance each process to its next allowed
        // state (possibly the current one).
        for p in 0..n {
            if let Some(allowed) = &pred.local[p] {
                match allowed[f[p] as usize..].iter().position(|&ok| ok) {
                    Some(0) => {}
                    Some(off) => {
                        f[p] += off as u32;
                        changed = true;
                    }
                    None => return None,
                }
            }
        }
        // Consistency closure: each frontier event's clock row is a
        // lower bound on any consistent cut containing it.
        for p in 0..n {
            if f[p] == 0 {
                continue;
            }
            let e = comp.event_at(p, f[p]).expect("frontier within range");
            for (q, fq) in f.iter_mut().enumerate() {
                let need = comp.clock_component(e, q);
                if *fq < need {
                    *fq = need;
                    changed = true;
                }
            }
        }
        for c in &pred.channels {
            let sent = i64::from(pred.index.sent_until(c.from, c.to, f[c.from.index()]));
            let received = i64::from(pred.index.received_until(c.from, c.to, f[c.to.index()]));
            let bound = i64::from(c.bound);
            match c.op {
                ChannelOp::AtMost if sent - received > bound => {
                    // Any B-cut above f keeps at least `sent` sends, so it
                    // must have executed the (sent − bound)-th receive.
                    let r = (sent - bound) as usize;
                    let pos = pred.index.receive_positions(c.from, c.to)[r - 1];
                    debug_assert!(pos > f[c.to.index()]);
                    f[c.to.index()] = pos;
                    changed = true;
                }
                ChannelOp::AtLeast if sent - received < bound => {
                    // At least `received + bound` sends are forced.
                    let s = (received + bound) as usize;
                    let sends = pred.index.send_positions(c.from, c.to);
                    if s > sends.len() {
                        return None;
                    }
                    let pos = sends[s - 1];
                    debug_assert!(pos > f[c.from.index()]);
                    f[c.from.index()] = pos;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(f);
        }
    }
}

/// The greatest `B`-cut whose frontier is dominated by `start`, or
/// `None` if no `B`-cut lies below `start`. The order dual of [`lub`]:
/// every retreat is forced on every `B`-cut below the current frontier,
/// so the fixpoint is the greatest such cut.
fn glb(comp: &Computation, pred: &RegularPredicate, start: &[u32]) -> Option<Vec<u32>> {
    let n = comp.process_count();
    debug_assert_eq!(start.len(), n);
    let mut f = start.to_vec();
    loop {
        let mut changed = false;
        // Local membership: retreat to the greatest allowed state.
        for p in 0..n {
            if let Some(allowed) = &pred.local[p] {
                match allowed[..=f[p] as usize].iter().rposition(|&ok| ok) {
                    Some(k) if k as u32 == f[p] => {}
                    Some(k) => {
                        f[p] = k as u32;
                        changed = true;
                    }
                    None => return None,
                }
            }
        }
        // Consistency: a frontier event whose past exceeds the frontier
        // cannot be in any consistent cut below it.
        for p in 0..n {
            while f[p] > 0 {
                let e = comp.event_at(p, f[p]).expect("frontier within range");
                if (0..n).any(|q| comp.clock_component(e, q) > f[q]) {
                    f[p] -= 1;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        for c in &pred.channels {
            let sent = i64::from(pred.index.sent_until(c.from, c.to, f[c.from.index()]));
            let received = i64::from(pred.index.received_until(c.from, c.to, f[c.to.index()]));
            let bound = i64::from(c.bound);
            match c.op {
                ChannelOp::AtMost if sent - received > bound => {
                    // Any B-cut below f has at most `received` receives,
                    // hence at most `received + bound` sends: stop just
                    // before the one after that.
                    let s_max = (received + bound) as usize;
                    let sends = pred.index.send_positions(c.from, c.to);
                    debug_assert!(sends.len() > s_max);
                    f[c.from.index()] = sends[s_max] - 1;
                    changed = true;
                }
                ChannelOp::AtLeast if sent - received < bound => {
                    // A B-cut below f has at most `sent` sends, so it
                    // needs `received ≤ sent − bound`.
                    if sent < bound {
                        return None;
                    }
                    let r_max = (sent - bound) as usize;
                    let recvs = pred.index.receive_positions(c.from, c.to);
                    debug_assert!(recvs.len() > r_max);
                    f[c.to.index()] = recvs[r_max] - 1;
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return Some(f);
        }
    }
}

/// Decides `Possibly(B)` for a regular predicate exactly, in polynomial
/// time: the returned cut is the **least** `B`-cut (the meet of all of
/// them, which regularity guarantees is itself a `B`-cut). Being the
/// unique witness on the lowest satisfying level, it is byte-identical
/// to the first witness of sequential enumeration *and* to the budgeted
/// canonical sweep's witness at any thread count.
pub fn possibly_slice(comp: &Computation, pred: &RegularPredicate) -> Option<Cut> {
    lub(comp, pred, &vec![0; comp.process_count()]).map(Cut::from_frontier)
}

/// Decides `Definitely(B)` for a regular predicate exactly.
///
/// Strategy, cheapest first: `B`-cuts absent → `false`; `B` holds at
/// the initial or final cut → `true` (every run starts/ends there);
/// purely local `B` → reduce to the polynomial conjunctive-interval
/// algorithm over a derived membership variable; otherwise a levelwise
/// `¬B` reachability sweep confined to the slice window — below level
/// `|m|` no cut satisfies `B` (evaluation skipped), and any `¬B` path
/// surviving past level `|M|` can run to completion `B`-free, deciding
/// `false` without sweeping the upper lattice.
pub fn definitely_slice(comp: &Computation, pred: &RegularPredicate) -> bool {
    let n = comp.process_count();
    let Some(least) = lub(comp, pred, &vec![0; n]) else {
        return false;
    };
    if least.iter().all(|&f| f == 0) {
        return true; // B(⊥): every run starts in B.
    }
    let top = comp.final_cut();
    let greatest = glb(comp, pred, top.frontier()).expect("a B-cut exists, so a greatest one does");
    if greatest == top.frontier() {
        return true; // B(⊤): every run ends in B.
    }
    if pred.is_local() {
        // Exactly the conjunctive Definitely question over "process p is
        // in an allowed state".
        let values: Vec<Vec<bool>> = pred
            .local
            .iter()
            .zip(&pred.shape)
            .map(|(allowed, &len)| match allowed {
                Some(states) => states.clone(),
                None => vec![true; len + 1],
            })
            .collect();
        let membership = BoolVariable::new(comp, values);
        let constrained: Vec<ProcessId> = (0..n)
            .filter(|&p| pred.local[p].is_some())
            .map(ProcessId::new)
            .collect();
        return definitely_conjunctive(comp, &membership, &constrained);
    }
    // Channel-constrained: windowed ¬B sweep via the sliced levelwise
    // engine with an unlimited budget.
    let slice = Slice::build(comp, pred);
    sequential(|t, b, m| {
        definitely_levelwise_sliced_budgeted(comp, &slice, |cut| pred.holds(cut), t, b, m, None)
    })
}

/// One equivalence class of the reduced event graph: the events sharing
/// a least satisfying cut, with that cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceClass {
    /// The class's `J` value — the least `B`-cut containing its events.
    pub cut: Cut,
    /// The events collapsed into this class, in id order.
    pub events: Vec<EventId>,
}

/// The slice of a computation with respect to a regular predicate `B`:
/// per-event least satisfying cuts `J(e)`, merged into equivalence
/// classes, plus the window `[m, M]` spanned by the least and greatest
/// `B`-cuts. See the [module docs](self) for how the engines use it.
#[derive(Debug, Clone)]
pub struct Slice {
    least: Option<Cut>,
    greatest: Option<Cut>,
    /// Row-major `J` matrix: event `e`'s least-cut frontier occupies
    /// `jmat[e·n .. e·n + n]`, valid iff `has_j[e]`.
    jmat: Vec<u32>,
    has_j: Vec<bool>,
    classes: usize,
    n: usize,
}

impl Slice {
    /// Builds the slice with an unlimited budget.
    pub fn build(comp: &Computation, pred: &RegularPredicate) -> Slice {
        Self::build_budgeted(comp, pred, &Budget::unlimited(), &BudgetMeter::new())
            .expect("unlimited budgets never exhaust")
    }

    /// Builds the slice under a [`Budget`], charging one meter node per
    /// event so slicing competes for the same budget as the engine it
    /// feeds. On exhaustion the partial slice is discarded and the
    /// caller should fall back to the unsliced engine with the remaining
    /// budget. Records the
    /// [`slice_nodes_before`](crate::counters::ScanCounters::slice_nodes_before)/
    /// [`slice_nodes_after`](crate::counters::ScanCounters::slice_nodes_after)
    /// counters on success.
    ///
    /// # Errors
    ///
    /// The [`ExhaustReason`] that stopped construction.
    pub fn build_budgeted(
        comp: &Computation,
        pred: &RegularPredicate,
        budget: &Budget,
        meter: &BudgetMeter,
    ) -> Result<Slice, ExhaustReason> {
        let n = comp.process_count();
        let events = comp.event_count();
        let check = || -> Result<(), ExhaustReason> {
            if budget.deadline_exceeded() {
                return Err(ExhaustReason::Deadline);
            }
            if budget.nodes_exceeded(meter.nodes()) {
                return Err(ExhaustReason::Nodes);
            }
            Ok(())
        };
        check()?;
        meter.charge(1);
        let Some(least) = lub(comp, pred, &vec![0; n]) else {
            counters::record_slice(events as u64, 0);
            return Ok(Slice {
                least: None,
                greatest: None,
                jmat: Vec::new(),
                has_j: vec![false; events],
                classes: 0,
                n,
            });
        };
        check()?;
        meter.charge(1);
        let greatest = glb(comp, pred, comp.final_cut().frontier())
            .expect("a B-cut exists, so a greatest one does");
        let mut jmat = vec![0u32; events * n];
        let mut has_j = vec![false; events];
        for e in comp.events() {
            check()?;
            meter.charge(1);
            let seed = comp.least_cut_containing(e);
            if let Some(j) = lub(comp, pred, seed.frontier()) {
                jmat[e.index() * n..(e.index() + 1) * n].copy_from_slice(&j);
                has_j[e.index()] = true;
            }
        }
        let classes = {
            let mut distinct: HashSet<&[u32]> = HashSet::new();
            for e in 0..events {
                if has_j[e] {
                    distinct.insert(&jmat[e * n..(e + 1) * n]);
                }
            }
            distinct.len()
        };
        counters::record_slice(events as u64, classes as u64);
        Ok(Slice {
            least: Some(Cut::from_frontier(least)),
            greatest: Some(Cut::from_frontier(greatest)),
            jmat,
            has_j,
            classes,
            n,
        })
    }

    /// The least `B`-cut, or `None` when the predicate is unsatisfiable
    /// (the slice is empty).
    pub fn least(&self) -> Option<&Cut> {
        self.least.as_ref()
    }

    /// The greatest `B`-cut, or `None` when the slice is empty.
    pub fn greatest(&self) -> Option<&Cut> {
        self.greatest.as_ref()
    }

    /// Whether no cut satisfies the predicate.
    pub fn is_empty(&self) -> bool {
        self.least.is_none()
    }

    /// The window `[m, M]` as frontier slices, or `None` when empty.
    pub fn window(&self) -> Option<(&[u32], &[u32])> {
        match (&self.least, &self.greatest) {
            (Some(m), Some(top)) => Some((m.frontier(), top.frontier())),
            _ => None,
        }
    }

    /// Event-graph nodes fed into the construction.
    pub fn nodes_before(&self) -> usize {
        self.has_j.len()
    }

    /// Surviving equivalence classes (distinct `J` values). The ratio to
    /// [`nodes_before`](Self::nodes_before) is the compression the
    /// pre-pass achieves on the event graph.
    pub fn nodes_after(&self) -> usize {
        self.classes
    }

    /// `J(e)` — the frontier of the least `B`-cut containing `e`, or
    /// `None` if no `B`-cut contains `e`.
    pub fn j(&self, e: EventId) -> Option<&[u32]> {
        self.has_j[e.index()].then(|| &self.jmat[e.index() * self.n..(e.index() + 1) * self.n])
    }

    /// The reduced event graph: equivalence classes of events under
    /// equal `J`, in a linear extension of their order (ascending by
    /// `J`'s level, then frontier-lexicographic). Class `u` precedes
    /// class `v` in the reduced graph iff `u.cut ≤ v.cut`.
    pub fn classes(&self) -> Vec<SliceClass> {
        let mut groups: HashMap<&[u32], Vec<EventId>> = HashMap::new();
        for e in 0..self.has_j.len() {
            if self.has_j[e] {
                groups
                    .entry(&self.jmat[e * self.n..(e + 1) * self.n])
                    .or_default()
                    .push(EventId::from_index(e));
            }
        }
        let mut classes: Vec<SliceClass> = groups
            .into_iter()
            .map(|(frontier, events)| SliceClass {
                cut: Cut::from_frontier(frontier.to_vec()),
                events,
            })
            .collect();
        classes.sort_unstable_by_key(|c| (c.cut.event_count(), c.cut.clone()));
        classes
    }

    /// Whether `cut` belongs to the slice sublattice — it is consistent
    /// and equals the join of the `J(e)` of its events (equivalently:
    /// every frontier event's `J` is contained in it). Every `B`-cut
    /// does; the initial cut does too (the empty join).
    pub fn contains(&self, comp: &Computation, cut: &Cut) -> bool {
        if self.is_empty() || !comp.is_consistent(cut) {
            return false;
        }
        cut.frontier().iter().enumerate().all(|(p, &f)| {
            if f == 0 {
                return true;
            }
            let e = comp.event_at(p, f).expect("frontier within range");
            match self.j(e) {
                Some(j) => j.iter().zip(cut.frontier()).all(|(&ji, &ci)| ji <= ci),
                None => false,
            }
        })
    }

    /// Enumerates the whole slice sublattice — every join of `J`
    /// classes, starting from the initial cut — sorted by level then
    /// frontier. Exponential in the class count in the worst case; a
    /// diagnostic and testing aid, not an engine building block.
    pub fn cuts(&self, comp: &Computation) -> Vec<Cut> {
        if self.is_empty() {
            return Vec::new();
        }
        let generators: Vec<Vec<u32>> = self
            .classes()
            .into_iter()
            .map(|c| c.cut.frontier().to_vec())
            .collect();
        let bottom = vec![0u32; self.n];
        let mut seen: HashSet<Vec<u32>> = HashSet::from([bottom.clone()]);
        let mut queue = vec![bottom];
        while let Some(f) = queue.pop() {
            for g in &generators {
                if g.iter().zip(&f).all(|(&gi, &fi)| gi <= fi) {
                    continue; // J already inside: join is f itself.
                }
                let join: Vec<u32> = f.iter().zip(g).map(|(&fi, &gi)| fi.max(gi)).collect();
                if seen.insert(join.clone()) {
                    queue.push(join);
                }
            }
        }
        let mut cuts: Vec<Cut> = seen.into_iter().map(Cut::from_frontier).collect();
        cuts.sort_unstable_by_key(|c| (c.event_count(), c.clone()));
        debug_assert!(cuts.iter().all(|c| comp.is_consistent(c)));
        cuts
    }
}

/// The regular envelope of a singular CNF: the conjunction of its unit
/// clauses (every `Φ`-cut satisfies each of them, so `Φ ⇒ envelope`).
/// `None` when no clause is a unit clause — the envelope would be
/// trivial and slicing could not shrink anything.
pub fn cnf_envelope(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Option<RegularPredicate> {
    let mut pred = RegularPredicate::unconstrained(comp);
    let mut any = false;
    for clause in predicate.clauses() {
        if let [(p, positive)] = clause.literals() {
            pred = pred.require_literal(var, *p, *positive);
            any = true;
        }
    }
    any.then_some(pred)
}

/// [`crate::enumerate::possibly_by_enumeration_budgeted`] restricted to
/// the slice: the identical canonical level sweep, but expansion keeps
/// only cuts `≤ M` — the downward closure of the slice, which preserves
/// the level-BFS's connectivity — and the sweep ends at level `|M|`.
/// An empty slice decides `None` without touching the lattice.
///
/// **Precondition**: every `predicate`-cut must satisfy the regular
/// envelope the slice was built for (`Φ ⇒ B`). Then no witness is ever
/// filtered out, every surviving level is canonically sorted, and the
/// verdict **and witness** are byte-identical to the unsliced engine at
/// every thread count. On resume, pass a slice built for the same
/// envelope.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if the predicate panics.
pub fn possibly_by_enumeration_sliced_budgeted<F>(
    comp: &Computation,
    slice: &Slice,
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
        POSSIBLY_ENUMERATE_SLICED,
        comp,
        Some(slice),
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// [`crate::enumerate::definitely_levelwise_budgeted`] with the `¬Φ`
/// sweep confined to the slice window: below level `|m|` successors are
/// kept without evaluating `Φ` (no cut there can satisfy the envelope),
/// and a sweep still alive past level `|M|` decides `false` immediately
/// (its `¬Φ` path can run to the final cut untouched). An empty slice
/// decides `false` at once. Verdicts are identical to the unsliced
/// engine under the same `Φ ⇒ envelope` precondition as
/// [`possibly_by_enumeration_sliced_budgeted`].
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if the predicate panics.
pub fn definitely_levelwise_sliced_budgeted<F>(
    comp: &Computation,
    slice: &Slice,
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
        DEFINITELY_LEVELWISE_SLICED,
        comp,
        Some(slice),
        predicate,
        threads,
        budget,
        meter,
        resume,
    )
}

/// [`crate::singular::possibly_singular_budgeted`] with the SliceReduce
/// pre-pass: the §3.2 polynomial special case still short-circuits
/// (slicing cannot improve on one scan), and the combinatorial fallback
/// runs with candidate states outside the slice window `[mₚ, Mₚ]`
/// dropped. An empty slice decides `None` outright. The window prune
/// preserves the odometer's list shapes, so checkpoints keep the
/// unsliced engine names and stay interchangeable with the unsliced
/// dispatcher, and witnesses stay byte-identical.
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] on a foreign `resume`;
/// [`DetectError::PredicatePanicked`] if a scan panics.
#[allow(clippy::too_many_arguments)]
pub fn possibly_singular_sliced_budgeted(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    slice: &Slice,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    dispatch(
        comp,
        var,
        predicate,
        Some(slice),
        threads,
        budget,
        meter,
        resume,
    )
    .map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{
        definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
        possibly_by_enumeration_budgeted,
    };
    use gpd_computation::{gen, ComputationBuilder};
    use rand::{Rng, SeedableRng};

    /// p0: a1 a2, p1: b1 b2, message b2 → a2 — so a2 requires both b's.
    fn gadget() -> Computation {
        let mut b = ComputationBuilder::new(2);
        let _a1 = b.append(0);
        let a2 = b.append(0);
        let b1 = b.append(1);
        let b2 = b.append(1);
        let _ = b1;
        b.message(b2, a2).unwrap();
        b.build().unwrap()
    }

    fn random_regular<R: Rng>(rng: &mut R, comp: &Computation, density: f64) -> RegularPredicate {
        let n = comp.process_count();
        let mut pred = RegularPredicate::unconstrained(comp);
        for p in 0..n {
            if rng.gen_bool(0.7) {
                let allowed: Vec<bool> = (0..=comp.events_on(p))
                    .map(|_| rng.gen_bool(density))
                    .collect();
                pred = pred.require_states(p, allowed);
            }
        }
        // Occasionally bound a channel that actually carries messages.
        if rng.gen_bool(0.5) {
            if let Some(&(s, r)) = comp.messages().first() {
                let (from, to) = (comp.process_of(s), comp.process_of(r));
                let op = if rng.gen_bool(0.5) {
                    ChannelOp::AtMost
                } else {
                    ChannelOp::AtLeast
                };
                pred = pred.require_channel(from, to, op, rng.gen_range(0..3));
            }
        }
        pred
    }

    #[test]
    fn least_cut_respects_messages() {
        let comp = gadget();
        // Require p0 in state 2: the message forces both p1 events first.
        let pred =
            RegularPredicate::unconstrained(&comp).require_states(0, vec![false, false, true]);
        let least = possibly_slice(&comp, &pred).unwrap();
        assert_eq!(least.frontier(), &[2, 2]);
        assert!(pred.holds(&least));
    }

    #[test]
    fn unsatisfiable_conjunction_has_no_least_cut() {
        let comp = gadget();
        // p0 at 2 forces p1 to 2, but p1 is pinned to state 1.
        let pred = RegularPredicate::unconstrained(&comp)
            .require_states(0, vec![false, false, true])
            .require_states(1, vec![false, true, false]);
        assert_eq!(possibly_slice(&comp, &pred), None);
        assert!(Slice::build(&comp, &pred).is_empty());
        assert!(!definitely_slice(&comp, &pred));
    }

    #[test]
    fn channel_bounds_move_both_fixpoints() {
        let comp = gadget();
        let empty =
            RegularPredicate::unconstrained(&comp).require_channel(1, 0, ChannelOp::AtMost, 0);
        // ⊥ has nothing in flight; the least cut is ⊥ itself.
        assert_eq!(possibly_slice(&comp, &empty).unwrap().frontier(), &[0, 0]);
        // Greatest cut with an empty channel is ⊤ (message delivered).
        let slice = Slice::build(&comp, &empty);
        assert_eq!(slice.greatest().unwrap().frontier(), &[2, 2]);

        let full =
            RegularPredicate::unconstrained(&comp).require_channel(1, 0, ChannelOp::AtLeast, 1);
        // The send (b2) must have happened, the receive (a2) must not.
        let least = possibly_slice(&comp, &full).unwrap();
        assert_eq!(least.frontier(), &[0, 2]);
        let slice = Slice::build(&comp, &full);
        assert_eq!(slice.greatest().unwrap().frontier(), &[1, 2]);
    }

    #[test]
    fn possibly_slice_matches_enumeration_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60601);
        for round in 0..120 {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..2 * n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let pred = random_regular(&mut rng, &comp, 0.5);
            let fast = possibly_slice(&comp, &pred);
            let slow = possibly_by_enumeration(&comp, |cut| pred.holds(cut));
            assert_eq!(fast, slow, "round {round}: least B-cut must match");
        }
    }

    #[test]
    fn definitely_slice_matches_levelwise_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60602);
        for round in 0..120 {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..2 * n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let pred = random_regular(&mut rng, &comp, 0.6);
            let fast = definitely_slice(&comp, &pred);
            let oracle = definitely_by_enumeration(&comp, |cut| pred.holds(cut));
            assert_eq!(fast, oracle, "round {round}");
            for threads in [0, 1, 2] {
                let sweep = definitely_levelwise_budgeted(
                    &comp,
                    |cut| pred.holds(cut),
                    threads,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                    None,
                )
                .unwrap();
                assert_eq!(
                    sweep.value(),
                    Some(&oracle),
                    "round {round}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn satisfying_cuts_are_closed_under_meet_and_join() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60603);
        for round in 0..60 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..4);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let pred = random_regular(&mut rng, &comp, 0.6);
            let b_cuts: Vec<Cut> = comp.consistent_cuts().filter(|c| pred.holds(c)).collect();
            for a in &b_cuts {
                for b in &b_cuts {
                    let meet: Vec<u32> = a
                        .frontier()
                        .iter()
                        .zip(b.frontier())
                        .map(|(&x, &y)| x.min(y))
                        .collect();
                    let join: Vec<u32> = a
                        .frontier()
                        .iter()
                        .zip(b.frontier())
                        .map(|(&x, &y)| x.max(y))
                        .collect();
                    assert!(
                        b_cuts.iter().any(|c| c.frontier() == meet),
                        "round {round}: meet of B-cuts must be a B-cut"
                    );
                    assert!(
                        b_cuts.iter().any(|c| c.frontier() == join),
                        "round {round}: join of B-cuts must be a B-cut"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_contains_exactly_the_join_closure_of_b_cuts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60604);
        for round in 0..60 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..4);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let pred = random_regular(&mut rng, &comp, 0.5);
            let slice = Slice::build(&comp, &pred);
            let slice_cuts = slice.cuts(&comp);
            // Every B-cut is a slice cut; every slice cut passes
            // `contains`; the window brackets them all.
            for cut in comp.consistent_cuts() {
                if pred.holds(&cut) {
                    assert!(
                        slice.contains(&comp, &cut),
                        "round {round}: B-cut {:?} missing from slice",
                        cut.frontier()
                    );
                    assert!(slice_cuts.contains(&cut), "round {round}");
                }
                assert_eq!(
                    slice.contains(&comp, &cut),
                    slice_cuts.contains(&cut),
                    "round {round}: membership test vs enumeration at {:?}",
                    cut.frontier()
                );
            }
            // Slice cuts are closed under join.
            for a in &slice_cuts {
                for b in &slice_cuts {
                    let join: Vec<u32> = a
                        .frontier()
                        .iter()
                        .zip(b.frontier())
                        .map(|(&x, &y)| x.max(y))
                        .collect();
                    assert!(
                        slice_cuts.iter().any(|c| c.frontier() == join),
                        "round {round}: slice not join-closed"
                    );
                }
            }
            if let Some((lo, hi)) = slice.window() {
                for cut in &slice_cuts {
                    if pred.holds(cut) {
                        let f = cut.frontier();
                        assert!(f.iter().zip(lo).all(|(&x, &l)| l <= x), "round {round}");
                        assert!(f.iter().zip(hi).all(|(&x, &h)| x <= h), "round {round}");
                    }
                }
            }
        }
    }

    #[test]
    fn j_is_monotone_along_the_causal_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60605);
        for _ in 0..40 {
            let comp = gen::random_computation(&mut rng, 3, 3, 3);
            let pred = random_regular(&mut rng, &comp, 0.6);
            let slice = Slice::build(&comp, &pred);
            for e in comp.events() {
                for f in comp.events() {
                    if comp.leq(e, f) {
                        match (slice.j(e), slice.j(f)) {
                            (Some(je), Some(jf)) => {
                                assert!(je.iter().zip(jf).all(|(&a, &b)| a <= b))
                            }
                            // f in a B-cut forces its past (incl. e) in.
                            (None, Some(_)) => panic!("J must exist downward"),
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sliced_enumeration_is_byte_identical_to_unsliced() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60606);
        for round in 0..60 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let pred = random_regular(&mut rng, &comp, 0.5);
            let slice = Slice::build(&comp, &pred);
            let phi = |c: &Cut| pred.holds(c);
            let plain = possibly_by_enumeration_budgeted(
                &comp,
                phi,
                0,
                &Budget::unlimited(),
                &BudgetMeter::new(),
                None,
            )
            .unwrap();
            for threads in [0, 2, 4] {
                let sliced = possibly_by_enumeration_sliced_budgeted(
                    &comp,
                    &slice,
                    phi,
                    threads,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                    None,
                )
                .unwrap();
                assert_eq!(
                    plain.value().unwrap(),
                    sliced.value().unwrap(),
                    "round {round}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn sliced_build_respects_the_node_budget() {
        let comp = gadget();
        let pred =
            RegularPredicate::unconstrained(&comp).require_states(0, vec![false, false, true]);
        let meter = BudgetMeter::new();
        let err =
            Slice::build_budgeted(&comp, &pred, &Budget::unlimited().with_max_nodes(2), &meter);
        assert_eq!(err.unwrap_err(), ExhaustReason::Nodes);
        assert!(meter.nodes() <= 2, "construction stops at the cap");
    }

    #[test]
    fn empty_slice_short_circuits_every_engine() {
        let comp = gadget();
        let pred = RegularPredicate::unconstrained(&comp)
            .require_states(0, vec![false, false, true])
            .require_states(1, vec![false, true, false]);
        let slice = Slice::build(&comp, &pred);
        assert!(slice.is_empty());
        assert_eq!(slice.nodes_after(), 0);
        assert_eq!(slice.cuts(&comp), Vec::<Cut>::new());
        let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
        let possibly = possibly_by_enumeration_sliced_budgeted(
            &comp,
            &slice,
            |_| true,
            0,
            &budget,
            &meter,
            None,
        );
        assert_eq!(possibly.unwrap().value(), Some(&None));
        let definitely =
            definitely_levelwise_sliced_budgeted(&comp, &slice, |_| true, 0, &budget, &meter, None);
        assert_eq!(definitely.unwrap().value(), Some(&false));
    }

    #[test]
    fn classes_merge_events_with_equal_least_cuts() {
        let comp = gadget();
        // Pin p0 to state 2: every event's least B-cut is [2, 2].
        let pred =
            RegularPredicate::unconstrained(&comp).require_states(0, vec![false, false, true]);
        let slice = Slice::build(&comp, &pred);
        assert_eq!(slice.nodes_before(), 4);
        assert_eq!(slice.nodes_after(), 1);
        let classes = slice.classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].cut.frontier(), &[2, 2]);
        assert_eq!(classes[0].events.len(), 4);
    }
}
