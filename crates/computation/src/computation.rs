//! The computation type: an event poset with order queries.
//!
//! Storage is a *flat causality kernel*: all per-event data lives in
//! contiguous boxed slices instead of nested `Vec`s —
//!
//! * a row-major clock matrix (`event_count × process_count` `u32`s,
//!   row `e` = `vc(e)`), so order queries stream one cache-resident row
//!   instead of chasing a `Vec<VectorClock>` pointer per event;
//! * CSR (offset + flat array) adjacency for the per-process event
//!   sequences and the message predecessor/successor lists;
//! * branch-free word-parallel row kernels (see `kernel`) for the hot
//!   predicates: frontier dominance, enablement, and `Cut::leq`.
//!
//! The public API is unchanged from the nested layout except that
//! [`Computation::clock`] returns a borrowing [`ClockRef`] view rather
//! than `&VectorClock` — no owned clock exists to reference.

use crate::counters;
use crate::cut::Cut;
use crate::event::{EventId, EventKind, ProcessId};
use crate::kernel;
use crate::lattice::CutIter;
use crate::vclock::ClockRef;

/// A distributed computation: a finite set of events, totally ordered
/// within each process and partially ordered across processes by message
/// edges (Lamport's happened-before).
///
/// Constructed with [`ComputationBuilder`](crate::ComputationBuilder);
/// immutable afterwards. All order queries are answered from precomputed
/// Fidge–Mattern vector clocks in O(1) or O(n), read straight out of a
/// flat row-major clock matrix.
///
/// # Example
///
/// ```
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// let e = b.append(0);
/// let f = b.append(1);
/// let comp = b.build().unwrap();
/// assert!(comp.concurrent(e, f));
/// assert!(comp.consistent(e, f));
/// ```
#[derive(Debug, Clone)]
pub struct Computation {
    process_count: usize,
    /// Process `p`'s events in program order.
    procs: Csr,
    event_proc: Box<[ProcessId]>,
    event_local: Box<[u32]>,
    kinds: Box<[EventKind]>,
    messages: Box<[(EventId, EventId)]>,
    /// Event `e`'s message predecessors (senders), in message order.
    preds: Csr,
    /// Event `e`'s message successors (receivers), in message order.
    succs: Csr,
    /// Row-major clock matrix: `vc(e)[q] = clock_matrix[e·n + q]`.
    clock_matrix: Box<[u32]>,
}

/// A compressed-sparse-row family of event lists: list `k` is
/// `flat[off[k] .. off[k + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    off: Box<[u32]>,
    flat: Box<[EventId]>,
}

impl Csr {
    /// Groups `(key, item)` pairs into `keys` lists by one counting
    /// sort; each list keeps its items in `pairs` order. Two
    /// allocations, whatever the number of pairs.
    pub(crate) fn group<I>(keys: usize, pairs: I) -> Csr
    where
        I: DoubleEndedIterator<Item = (usize, EventId)> + Clone,
    {
        let mut off = vec![0u32; keys + 1];
        for (k, _) in pairs.clone() {
            off[k] += 1;
        }
        // Inclusive prefix sums: `off[k]` is one past list `k`'s end.
        let mut total = 0u32;
        for o in &mut off[..keys] {
            total = total.checked_add(*o).expect("list total fits in u32");
            *o = total;
        }
        off[keys] = total;
        // Filling back to front walks each `off[k]` down to its list's
        // start and leaves the items in `pairs` order.
        let mut flat = vec![EventId::new(0); total as usize];
        for (k, item) in pairs.rev() {
            off[k] -= 1;
            flat[off[k] as usize] = item;
        }
        Csr {
            off: off.into_boxed_slice(),
            flat: flat.into_boxed_slice(),
        }
    }

    /// List `k`.
    #[inline]
    pub(crate) fn list(&self, k: usize) -> &[EventId] {
        &self.flat[self.off[k] as usize..self.off[k + 1] as usize]
    }

    /// The length of list `k`.
    #[inline]
    pub(crate) fn len_of(&self, k: usize) -> u32 {
        self.off[k + 1] - self.off[k]
    }
}

impl Computation {
    /// Assembles a computation from the builder's finished columns. The
    /// three CSR families are taken as built (by [`Csr::group`]), so
    /// nothing here allocates or walks the events again.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        procs: Csr,
        event_proc: Vec<ProcessId>,
        event_local: Vec<u32>,
        kinds: Vec<EventKind>,
        messages: Vec<(EventId, EventId)>,
        preds: Csr,
        succs: Csr,
        clock_matrix: Vec<u32>,
    ) -> Self {
        let process_count = procs.off.len() - 1;
        let event_count = event_proc.len();
        debug_assert_eq!(clock_matrix.len(), event_count * process_count);
        debug_assert_eq!(procs.flat.len(), event_count);
        debug_assert_eq!(preds.off.len(), event_count + 1);
        debug_assert_eq!(succs.off.len(), event_count + 1);
        Computation {
            process_count,
            procs,
            event_proc: event_proc.into_boxed_slice(),
            event_local: event_local.into_boxed_slice(),
            kinds: kinds.into_boxed_slice(),
            messages: messages.into_boxed_slice(),
            preds,
            succs,
            clock_matrix: clock_matrix.into_boxed_slice(),
        }
    }

    /// The number of processes.
    pub fn process_count(&self) -> usize {
        self.process_count
    }

    /// The total number of (non-initial) events.
    pub fn event_count(&self) -> usize {
        self.event_proc.len()
    }

    /// The number of events on `process`.
    ///
    /// # Panics
    ///
    /// Panics if the process is out of range.
    pub fn events_on(&self, process: impl Into<ProcessId>) -> usize {
        self.procs.len_of(process.into().index()) as usize
    }

    /// The events of `process` in program order (a slice of the CSR
    /// event array).
    pub fn events_of(&self, process: impl Into<ProcessId>) -> &[EventId] {
        self.procs.list(process.into().index())
    }

    /// Iterates over all events in id order.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.event_count()).map(EventId::new)
    }

    /// The process an event occurs on.
    pub fn process_of(&self, e: EventId) -> ProcessId {
        self.event_proc[e.index()]
    }

    /// The 1-based position of `e` within its process (position 0 is the
    /// implicit initial event).
    pub fn local_index(&self, e: EventId) -> u32 {
        self.event_local[e.index()]
    }

    /// The event at 1-based position `local` on `process`, if it exists.
    pub fn event_at(&self, process: impl Into<ProcessId>, local: u32) -> Option<EventId> {
        if local == 0 {
            return None;
        }
        self.events_of(process).get(local as usize - 1).copied()
    }

    /// The send/receive/internal kind of an event.
    pub fn kind(&self, e: EventId) -> EventKind {
        self.kinds[e.index()]
    }

    /// All message edges `(send, receive)` in insertion order.
    pub fn messages(&self) -> &[(EventId, EventId)] {
        &self.messages
    }

    /// The send events whose messages `e` receives.
    pub fn message_predecessors(&self, e: EventId) -> &[EventId] {
        self.preds.list(e.index())
    }

    /// The receive events of the messages `e` sends.
    pub fn message_successors(&self, e: EventId) -> &[EventId] {
        self.succs.list(e.index())
    }

    /// The raw clock-matrix row of `e` (uncounted; internal fast path).
    #[inline]
    pub(crate) fn clock_row(&self, e: EventId) -> &[u32] {
        let start = e.index() * self.process_count;
        &self.clock_matrix[start..start + self.process_count]
    }

    /// The Fidge–Mattern vector clock of an event, as a zero-allocation
    /// view borrowing the event's clock-matrix row.
    pub fn clock(&self, e: EventId) -> ClockRef<'_> {
        counters::add_kernel_work(1, 0);
        ClockRef::new(self.clock_row(e))
    }

    /// One clock component — `vc(e)[q]` — without materializing a row
    /// view. O(1): a single matrix load.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn clock_component(&self, e: EventId, q: usize) -> u32 {
        assert!(q < self.process_count, "process {q} out of range");
        self.clock_matrix[e.index() * self.process_count + q]
    }

    /// The event preceding `e` on its process, if any.
    pub fn predecessor_on_process(&self, e: EventId) -> Option<EventId> {
        let local = self.local_index(e);
        self.event_at(self.process_of(e), local - 1)
    }

    /// The event following `e` on its process, if any.
    pub fn successor_on_process(&self, e: EventId) -> Option<EventId> {
        self.event_at(self.process_of(e), self.local_index(e) + 1)
    }

    /// Whether `e ≤ f` in the causal (happened-before-or-equal) order.
    pub fn leq(&self, e: EventId, f: EventId) -> bool {
        // vc(e) ≤ vc(f) componentwise characterizes e ≤ f, but the single
        // component at e's own process suffices and is O(1).
        self.clock_component(f, self.process_of(e).index()) >= self.local_index(e)
    }

    /// Whether `e` happened strictly before `f` (Lamport's `e → f`).
    pub fn happened_before(&self, e: EventId, f: EventId) -> bool {
        e != f && self.leq(e, f)
    }

    /// Whether `e` and `f` are *independent* (incomparable).
    pub fn concurrent(&self, e: EventId, f: EventId) -> bool {
        e != f && !self.leq(e, f) && !self.leq(f, e)
    }

    /// Whether `e` and `f` are *consistent*: some consistent cut passes
    /// through both. Per the paper (§2.2), `e` and `f` are inconsistent
    /// iff `succ(e) ≤ f` or `succ(f) ≤ e`.
    ///
    /// A last event on its process has no successor and therefore can
    /// never block its partner:
    ///
    /// ```
    /// use gpd_computation::ComputationBuilder;
    ///
    /// let mut b = ComputationBuilder::new(2);
    /// let e = b.append(0);
    /// let f = b.append(1);
    /// b.message(e, f).unwrap();
    /// let comp = b.build().unwrap();
    /// // e ≤ f via the message, yet both are final on their processes:
    /// // the final cut passes through both, so they are consistent.
    /// assert!(comp.consistent(e, f));
    /// assert!(comp.consistent(e, e));
    /// ```
    pub fn consistent(&self, e: EventId, f: EventId) -> bool {
        // One successor lookup per argument, short-circuiting: the second
        // direction is only examined when the first does not already rule
        // the pair out.
        let blocks = |x, y| match self.successor_on_process(x) {
            Some(s) => self.leq(s, y),
            None => false,
        };
        !blocks(e, f) && !blocks(f, e)
    }

    /// The least consistent cut containing `e`: exactly `e`'s causal
    /// past, whose frontier is `e`'s clock row. One metered matrix-row
    /// copy — the slicing engine calls this once per event to seed its
    /// least-satisfying-cut fixpoints.
    pub fn least_cut_containing(&self, e: EventId) -> Cut {
        counters::add_kernel_work(1, 0);
        Cut::from_frontier(self.clock_row(e).to_vec())
    }

    /// The initial consistent cut (only the implicit initial events).
    pub fn initial_cut(&self) -> Cut {
        Cut::from_frontier(vec![0; self.process_count])
    }

    /// The final consistent cut (all events).
    pub fn final_cut(&self) -> Cut {
        Cut::from_frontier(
            (0..self.process_count)
                .map(|p| self.procs.len_of(p))
                .collect(),
        )
    }

    /// Whether `cut` (which must have one frontier entry per process, each
    /// within range) is consistent: it contains every causal predecessor
    /// of every contained event.
    ///
    /// The cut is consistent iff each frontier event's clock row is
    /// dominated by the frontier itself. The nonempty frontier entries
    /// are checked in batches of up to [`kernel::BATCH`] rows per
    /// column-major kernel pass; a failing batch stops the scan (batch
    /// granularity replaces the old per-row short-circuit).
    ///
    /// # Panics
    ///
    /// Panics if the cut's shape does not match the computation.
    pub fn is_consistent(&self, cut: &Cut) -> bool {
        self.check_shape(cut.frontier());
        let frontier = cut.frontier();
        let mut rows = 0u64;
        let mut batches = 0u64;
        let mut ok = true;
        let mut p = 0;
        while ok && p < self.process_count {
            let mut group: [&[u32]; kernel::BATCH] = [&[]; kernel::BATCH];
            let mut filled = 0;
            while p < self.process_count && filled < kernel::BATCH {
                let f = frontier[p];
                if f != 0 {
                    let e = self.procs.flat[self.procs.off[p] as usize + f as usize - 1];
                    group[filled] = self.clock_row(e);
                    filled += 1;
                }
                p += 1;
            }
            if filled == 0 {
                break;
            }
            rows += filled as u64;
            batches += 1;
            let mut dom = [false; kernel::BATCH];
            kernel::dominated_batch(&group[..filled], frontier, &mut dom[..filled]);
            ok = dom[..filled].iter().all(|&d| d);
        }
        counters::add_kernel_work(rows, batches);
        ok
    }

    pub(crate) fn check_shape(&self, frontier: &[u32]) {
        assert_eq!(
            frontier.len(),
            self.process_count,
            "cut has {} entries for {} processes",
            frontier.len(),
            self.process_count
        );
        for (p, &f) in frontier.iter().enumerate() {
            let on_p = self.procs.len_of(p);
            assert!(f <= on_p, "cut frontier {f} exceeds {on_p} events on p{p}");
        }
    }

    /// Breadth-first iterator over all consistent cuts, starting at the
    /// initial cut. Exponentially many in general — this is the baseline
    /// the paper's algorithms improve on.
    pub fn consistent_cuts(&self) -> CutIter<'_> {
        CutIter::new(self)
    }

    /// The time-reversed computation: every process's event sequence is
    /// reversed and every message edge is flipped (the receive becomes the
    /// send). Happened-before in the result is the inverse of this
    /// computation's, and consistent cuts correspond by complementation:
    /// frontier `g` there ↔ frontier `mₚ − g[p]` here.
    ///
    /// Used to reduce the *send-ordered* special case of §3.2 to the
    /// receive-ordered one. The event at local position `k` on process `p`
    /// in the result is the event at position `mₚ + 1 − k` here.
    pub fn reversed(&self) -> Computation {
        let mut b = crate::builder::ComputationBuilder::new(self.process_count);
        // Mapping from original event id to reversed event id.
        let mut map = vec![EventId::new(0); self.event_count()];
        for p in 0..self.process_count {
            for &e in self.events_of(p).iter().rev() {
                map[e.index()] = b.append(p);
            }
        }
        for &(s, r) in self.messages.iter() {
            b.message(map[r.index()], map[s.index()])
                .expect("flipped message endpoints stay on distinct processes");
        }
        b.build()
            .expect("the reverse of a partial order is a partial order")
    }

    /// Calls `visit(p, row)` for every process `p` whose next event `e`
    /// beyond the cut with this `frontier` is *enabled* (executing it
    /// keeps the cut consistent), in increasing process order; `row` is
    /// `e`'s clock-matrix row, already read by the kernel, so callers
    /// that need `vc(e)` pay no second read. This is the allocation-free
    /// core of successor generation: the pending-event clock rows are
    /// fed through the batched enablement kernel, up to
    /// [`kernel::BATCH`] rows per column-major pass over the frontier.
    ///
    /// # Panics
    ///
    /// Panics if the frontier's shape does not match the computation.
    pub fn for_each_enabled(&self, frontier: &[u32], mut visit: impl FnMut(usize, &[u32])) {
        self.check_shape(frontier);
        let mut rows = 0u64;
        let mut batches = 0u64;
        let mut p = 0;
        while p < self.process_count {
            let mut group: [&[u32]; kernel::BATCH] = [&[]; kernel::BATCH];
            let mut procs = [0usize; kernel::BATCH];
            let mut filled = 0;
            while p < self.process_count && filled < kernel::BATCH {
                let next = self.procs.off[p] as usize + frontier[p] as usize;
                if next < self.procs.off[p + 1] as usize {
                    group[filled] = self.clock_row(self.procs.flat[next]);
                    procs[filled] = p;
                    filled += 1;
                }
                p += 1;
            }
            if filled == 0 {
                break;
            }
            rows += filled as u64;
            batches += 1;
            let mut viol = [0u32; kernel::BATCH];
            kernel::violations_batch(&group[..filled], frontier, &mut viol[..filled]);
            for k in 0..filled {
                // vc(e)[p] = frontier[p] + 1 always exceeds the frontier,
                // so e is enabled iff its own component is the sole
                // violation.
                if viol[k] == 1 {
                    visit(procs[k], group[k]);
                }
            }
        }
        counters::add_kernel_work(rows, batches);
    }

    /// Writes the consistent cuts reachable from `cut` by executing
    /// exactly one event into `out` (cleared first). Reusing one buffer
    /// across calls keeps BFS expansion allocation-free apart from the
    /// frontier vectors of genuinely new cuts.
    ///
    /// # Panics
    ///
    /// Panics if the cut's shape does not match the computation.
    pub fn cut_successors_into(&self, cut: &Cut, out: &mut Vec<Cut>) {
        out.clear();
        self.for_each_enabled(cut.frontier(), |p, _| {
            let mut next = cut.frontier().to_vec();
            next[p] += 1;
            out.push(Cut::from_frontier(next));
        });
    }

    /// The consistent cuts that can be reached from `cut` by executing
    /// exactly one event. Convenience wrapper around
    /// [`cut_successors_into`](Self::cut_successors_into) that allocates
    /// a fresh `Vec` per call (metered by the kernel counters; hot loops
    /// should reuse a buffer instead).
    ///
    /// # Panics
    ///
    /// Panics if the cut's shape does not match the computation.
    pub fn cut_successors(&self, cut: &Cut) -> Vec<Cut> {
        counters::record_cut_successor_alloc();
        let mut out = Vec::new();
        self.cut_successors_into(cut, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;

    /// p0: a1 a2, p1: b1 b2, message a1 → b2.
    fn sample() -> (Computation, [EventId; 4]) {
        let mut b = ComputationBuilder::new(2);
        let a1 = b.append(0);
        let a2 = b.append(0);
        let b1 = b.append(1);
        let b2 = b.append(1);
        b.message(a1, b2).unwrap();
        (b.build().unwrap(), [a1, a2, b1, b2])
    }

    #[test]
    fn program_order_is_causal() {
        let (c, [a1, a2, ..]) = sample();
        assert!(c.happened_before(a1, a2));
        assert!(!c.happened_before(a2, a1));
        assert!(c.leq(a1, a1));
        assert!(!c.happened_before(a1, a1));
    }

    #[test]
    fn message_order_is_causal() {
        let (c, [a1, a2, b1, b2]) = sample();
        assert!(c.happened_before(a1, b2));
        assert!(c.concurrent(a1, b1));
        assert!(c.concurrent(a2, b1));
        assert!(c.concurrent(a2, b2));
    }

    #[test]
    fn consistency_of_event_pairs() {
        let (c, [a1, a2, b1, b2]) = sample();
        // a1 and b1: a cut can pass through both.
        assert!(c.consistent(a1, b1));
        // a1 and b2: succ(a1) = a2 is not ≤ b2, succ(b2) = none. Wait —
        // b2 receives from a1, so a cut through a1 and b2 must contain a1;
        // it does. Consistent.
        assert!(c.consistent(a1, b2));
        // a1 < b2 via message, but is a1 consistent with b2's successor?
        // No successor exists; check the pair (a1, b1) vs (a2, b2) etc.
        assert!(c.consistent(a2, b2));
        assert!(c.consistent(a2, b1));
        // Same-process distinct events are never consistent.
        assert!(!c.consistent(a1, a2));
        // Every event is consistent with itself.
        assert!(c.consistent(b2, b2));
    }

    #[test]
    fn inconsistent_when_successor_precedes() {
        // p0: s, p1: r x. Message s → r. Then s's successor doesn't
        // exist; but consider cut through (s, x): fine. Build a case where
        // succ(e) ≤ f: p0: e e2, p1: f, message e2 → f.
        let mut b = ComputationBuilder::new(2);
        let e = b.append(0);
        let e2 = b.append(0);
        let f = b.append(1);
        b.message(e2, f).unwrap();
        let c = b.build().unwrap();
        assert!(c.happened_before(e, f));
        assert!(
            !c.consistent(e, f),
            "succ(e) = e2 ≤ f forces e2 into any cut through f"
        );
        assert!(c.consistent(e2, f));
    }

    #[test]
    fn initial_and_final_cuts_are_consistent() {
        let (c, _) = sample();
        assert!(c.is_consistent(&c.initial_cut()));
        assert!(c.is_consistent(&c.final_cut()));
        assert_eq!(c.initial_cut().event_count(), 0);
        assert_eq!(c.final_cut().event_count(), 4);
    }

    #[test]
    fn inconsistent_cut_detected() {
        let (c, _) = sample();
        // Cut containing b2 (which receives from a1) but not a1.
        let cut = Cut::from_frontier(vec![0, 2]);
        assert!(!c.is_consistent(&cut));
        let ok = Cut::from_frontier(vec![1, 2]);
        assert!(c.is_consistent(&ok));
    }

    #[test]
    fn cut_successors_respect_messages() {
        let (c, _) = sample();
        let initial = c.initial_cut();
        let succs = c.cut_successors(&initial);
        // From ⊥ we can execute a1 or b1, not b2.
        assert_eq!(succs.len(), 2);
        assert!(succs.contains(&Cut::from_frontier(vec![1, 0])));
        assert!(succs.contains(&Cut::from_frontier(vec![0, 1])));
        // From [0,1], b2 is blocked until a1 executes.
        let succs = c.cut_successors(&Cut::from_frontier(vec![0, 1]));
        assert_eq!(succs, vec![Cut::from_frontier(vec![1, 1])]);
    }

    #[test]
    fn cut_successors_into_reuses_buffer() {
        let (c, _) = sample();
        let mut buf = vec![Cut::from_frontier(vec![9, 9])]; // stale content
        c.cut_successors_into(&c.initial_cut(), &mut buf);
        assert_eq!(buf.len(), 2, "buffer must be cleared before refill");
        c.cut_successors_into(&c.final_cut(), &mut buf);
        assert!(buf.is_empty(), "final cut has no successors");
    }

    #[test]
    fn event_navigation() {
        let (c, [a1, a2, b1, b2]) = sample();
        assert_eq!(c.successor_on_process(a1), Some(a2));
        assert_eq!(c.successor_on_process(a2), None);
        assert_eq!(c.predecessor_on_process(b2), Some(b1));
        assert_eq!(c.predecessor_on_process(b1), None);
        assert_eq!(c.event_at(0, 1), Some(a1));
        assert_eq!(c.event_at(0, 0), None);
        assert_eq!(c.event_at(0, 3), None);
        assert_eq!(c.local_index(b2), 2);
        assert_eq!(c.process_of(b1).index(), 1);
        assert_eq!(c.events().count(), 4);
        assert_eq!(c.events_on(0), 2);
    }

    #[test]
    fn message_adjacency() {
        let (c, [a1, _, _, b2]) = sample();
        assert_eq!(c.message_predecessors(b2), &[a1]);
        assert_eq!(c.message_successors(a1), &[b2]);
        assert_eq!(c.messages(), &[(a1, b2)]);
    }

    #[test]
    fn least_cut_containing_is_the_causal_past() {
        let (c, [a1, a2, b1, b2]) = sample();
        assert_eq!(c.least_cut_containing(a1).frontier(), &[1, 0]);
        assert_eq!(c.least_cut_containing(a2).frontier(), &[2, 0]);
        assert_eq!(c.least_cut_containing(b1).frontier(), &[0, 1]);
        // b2 receives from a1, so its least cut pulls a1 in.
        assert_eq!(c.least_cut_containing(b2).frontier(), &[1, 2]);
        for e in [a1, a2, b1, b2] {
            assert!(c.is_consistent(&c.least_cut_containing(e)));
        }
    }

    #[test]
    fn clock_component_matches_row_view() {
        let (c, [a1, _, _, b2]) = sample();
        for e in [a1, b2] {
            for q in 0..c.process_count() {
                assert_eq!(c.clock_component(e, q), c.clock(e).get(q));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_cut_panics() {
        let (c, _) = sample();
        c.is_consistent(&Cut::from_frontier(vec![3, 0]));
    }
}
