//! Meta-processes: the §3.2 machinery for the special-case algorithm.
//!
//! A singular k-CNF predicate partitions (some of) the processes into
//! *groups*, one per clause. Each group is viewed as a **meta-process**
//! whose events are only partially ordered. When all receive events (or
//! all send events) on every meta-process are totally ordered, the paper
//! extends the causal order so every meta-process's events become totally
//! ordered in a linearization satisfying *Property P*, which is what makes
//! the left-to-right scan of the special-case algorithm sound.

use crate::computation::{Computation, Csr};
use crate::event::{EventId, ProcessId};

/// Whether the §3.2 special case requires receives or sends to be totally
/// ordered per meta-process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingKind {
    /// All receive events on every meta-process are totally ordered.
    ReceiveOrdered,
    /// All send events on every meta-process are totally ordered.
    SendOrdered,
}

/// A collection of disjoint process groups (meta-processes).
///
/// # Example
///
/// ```
/// use gpd_computation::{ComputationBuilder, Grouping};
///
/// let mut b = ComputationBuilder::new(4);
/// b.append(0);
/// b.append(2);
/// let comp = b.build().unwrap();
///
/// let g = Grouping::new(vec![vec![0.into(), 1.into()], vec![2.into(), 3.into()]]);
/// assert_eq!(g.group_of(0.into()), Some(0));
/// assert_eq!(g.events_of_group(&comp, 1).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Grouping {
    groups: Vec<Vec<ProcessId>>,
}

impl Grouping {
    /// Creates a grouping.
    ///
    /// # Panics
    ///
    /// Panics if a process appears in two groups or a group is empty.
    pub fn new(groups: Vec<Vec<ProcessId>>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for group in &groups {
            assert!(!group.is_empty(), "empty group");
            for &p in group {
                assert!(seen.insert(p), "process {p} appears in two groups");
            }
        }
        Grouping { groups }
    }

    /// The number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The processes of group `g`.
    pub fn group(&self, g: usize) -> &[ProcessId] {
        &self.groups[g]
    }

    /// The groups.
    pub fn groups(&self) -> &[Vec<ProcessId>] {
        &self.groups
    }

    /// The group containing `p`, if any.
    pub fn group_of(&self, p: ProcessId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&p))
    }

    /// All events of group `g`'s processes, in event-id order.
    pub fn events_of_group(&self, comp: &Computation, g: usize) -> Vec<EventId> {
        let mut events: Vec<EventId> = self.groups[g]
            .iter()
            .flat_map(|&p| comp.events_of(p).iter().copied())
            .collect();
        events.sort_unstable();
        events
    }

    /// Whether the computation is receive-ordered (or send-ordered) with
    /// respect to this grouping: within every group, the events of the
    /// given kind are pairwise comparable under happened-before.
    /// O(k log k + k·n) for k events of the kind on n processes.
    pub fn is_ordered(&self, comp: &Computation, kind: OrderingKind) -> bool {
        (0..self.groups.len()).all(|g| self.ordered_chain(comp, g, kind).is_some())
    }

    /// Group `g`'s events of `kind` (its receives, or its sends) in causal
    /// order, or `None` if two of them are concurrent. Happened-before
    /// strictly raises the clock-row sum, so sorting by that sum lists a
    /// chain in causal order, and the events form a chain exactly when
    /// every consecutive pair is ordered.
    fn ordered_chain(
        &self,
        comp: &Computation,
        g: usize,
        kind: OrderingKind,
    ) -> Option<Vec<EventId>> {
        let mut special: Vec<EventId> = self
            .events_of_group(comp, g)
            .into_iter()
            .filter(|&e| kind.matches(comp, e))
            .collect();
        special.sort_by_cached_key(|&e| {
            (0..comp.process_count())
                .map(|q| u64::from(comp.clock_component(e, q)))
                .sum::<u64>()
        });
        special
            .windows(2)
            .all(|w| comp.leq(w[0], w[1]))
            .then_some(special)
    }

    /// The §3.2 order extension followed by linearization.
    ///
    /// For [`OrderingKind::ReceiveOrdered`]: for every pair of independent
    /// events `e`, `f` on the same meta-process where `f` is a receive, an
    /// arrow `e → f` is added (receives are pushed late). For
    /// [`OrderingKind::SendOrdered`], dually, `f → e` is added when `f` is
    /// a send (sends come early). The paper proves the added arrows create
    /// no cycles when the computation is ordered for `kind`; the extended
    /// order is then linearized into a total order satisfying Property P.
    ///
    /// Since the group's receives form a chain, a non-receive `e` needs
    /// only its arrow to the first receive not before it: every later
    /// receive follows that one causally. Dually, a non-send needs only
    /// the arrow from the last send not after it. The arrows left out are
    /// implied by the ones kept, and the last predecessor the FIFO
    /// topological sort removes before an event is never one of them, so
    /// the order equals the one from all the paper's arrows. Each event
    /// costs one binary search over its group's chain.
    ///
    /// # Errors
    ///
    /// Returns an error if the computation is not ordered for `kind`
    /// ([`Grouping::is_ordered`] is false), even where the extension would
    /// happen to be acyclic.
    pub fn linearize(
        &self,
        comp: &Computation,
        kind: OrderingKind,
    ) -> Result<LinearizedOrder, NotOrderedError> {
        let chains = (0..self.groups.len())
            .map(|g| self.ordered_chain(comp, g, kind))
            .collect::<Option<Vec<_>>>()
            .ok_or(NotOrderedError { kind })?;
        let mut edges: Vec<(EventId, EventId)> = (0..comp.process_count())
            .flat_map(|p| comp.events_of(p).windows(2).map(|w| (w[0], w[1])))
            .chain(comp.messages().iter().copied())
            .collect();
        for (g, chain) in chains.iter().enumerate() {
            for e in self.events_of_group(comp, g) {
                if kind.matches(comp, e) {
                    continue;
                }
                match kind {
                    OrderingKind::ReceiveOrdered => {
                        // Push receives late: e → the first receive not
                        // before e.
                        let i = chain.partition_point(|&r| comp.leq(r, e));
                        if let Some(&r) = chain.get(i).filter(|&&r| comp.concurrent(e, r)) {
                            edges.push((e, r));
                        }
                    }
                    OrderingKind::SendOrdered => {
                        // Pull sends early: the last send not after e → e.
                        let i = chain.partition_point(|&s| !comp.leq(e, s));
                        if let Some(&s) = chain[..i].last().filter(|&&s| comp.concurrent(e, s)) {
                            edges.push((s, e));
                        }
                    }
                }
            }
        }
        // FIFO Kahn sort: sources in id order, each event's successors in
        // edge-list order (the counting sort keeps it), `order` its own
        // queue. A cycle leaves events unplaced.
        let successors = Csr::group(
            comp.event_count(),
            edges.iter().map(|&(u, v)| (u.index(), v)),
        );
        let mut indegree = vec![0u32; comp.event_count()];
        for &(_, v) in &edges {
            indegree[v.index()] += 1;
        }
        let mut order: Vec<EventId> = comp.events().filter(|e| indegree[e.index()] == 0).collect();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in successors.list(u.index()) {
                indegree[v.index()] -= 1;
                if indegree[v.index()] == 0 {
                    order.push(v);
                }
            }
        }
        if order.len() < comp.event_count() {
            return Err(NotOrderedError { kind });
        }
        let mut pos = vec![0u32; comp.event_count()];
        for (i, &e) in order.iter().enumerate() {
            pos[e.index()] = i as u32;
        }
        Ok(LinearizedOrder { order, pos })
    }
}

impl OrderingKind {
    /// Whether `e` is of the kind that must be totally ordered: a receive
    /// for [`OrderingKind::ReceiveOrdered`], a send for
    /// [`OrderingKind::SendOrdered`].
    fn matches(self, comp: &Computation, e: EventId) -> bool {
        match self {
            OrderingKind::ReceiveOrdered => comp.kind(e).is_receive(),
            OrderingKind::SendOrdered => comp.kind(e).is_send(),
        }
    }
}

/// Error from [`Grouping::linearize`]: the computation is not ordered as
/// required for the special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOrderedError {
    kind: OrderingKind,
}

impl std::fmt::Display for NotOrderedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the computation is not {:?} for this grouping",
            self.kind
        )
    }
}

impl std::error::Error for NotOrderedError {}

/// A total order on all events extending the causal order and, per group,
/// the §3.2 extension — the order the special-case scan walks.
#[derive(Debug, Clone)]
pub struct LinearizedOrder {
    order: Vec<EventId>,
    pos: Vec<u32>,
}

impl LinearizedOrder {
    /// The events in linear order.
    pub fn order(&self) -> &[EventId] {
        &self.order
    }

    /// The position of `e` in the linear order.
    pub fn position(&self, e: EventId) -> usize {
        self.pos[e.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;
    use gpd_order::Dag;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The reference verdict: every pair of the group's events of `kind`
    /// compared directly.
    fn quadratic_is_ordered(g: &Grouping, comp: &Computation, kind: OrderingKind) -> bool {
        (0..g.group_count()).all(|gi| {
            let special: Vec<EventId> = g
                .events_of_group(comp, gi)
                .into_iter()
                .filter(|&e| kind.matches(comp, e))
                .collect();
            special.iter().enumerate().all(|(i, &e)| {
                special[i + 1..]
                    .iter()
                    .all(|&f| comp.leq(e, f) || comp.leq(f, e))
            })
        })
    }

    /// The reference linearization: the paper's arrow for every
    /// independent (non-special, special) pair of a group.
    fn quadratic_linearize(
        g: &Grouping,
        comp: &Computation,
        kind: OrderingKind,
    ) -> Option<Vec<EventId>> {
        let mut dag = Dag::new(comp.event_count());
        for p in 0..comp.process_count() {
            for w in comp.events_of(p).windows(2) {
                dag.add_edge(w[0].index(), w[1].index());
            }
        }
        for &(s, r) in comp.messages() {
            dag.add_edge(s.index(), r.index());
        }
        for gi in 0..g.group_count() {
            let events = g.events_of_group(comp, gi);
            for (i, &e) in events.iter().enumerate() {
                for &f in &events[i + 1..] {
                    if !comp.concurrent(e, f) || kind.matches(comp, e) == kind.matches(comp, f) {
                        continue;
                    }
                    // Receives go late, sends go early.
                    let (special, other) = if kind.matches(comp, f) {
                        (f, e)
                    } else {
                        (e, f)
                    };
                    match kind {
                        OrderingKind::ReceiveOrdered => {
                            dag.add_edge(other.index(), special.index())
                        }
                        OrderingKind::SendOrdered => dag.add_edge(special.index(), other.index()),
                    }
                }
            }
        }
        dag.topo_sort()
            .ok()
            .map(|order| order.into_iter().map(EventId::new).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `is_ordered` and `linearize` agree with the all-pairs versions
        /// on random, receive-ordered and send-ordered computations.
        #[test]
        fn ordered_scan_and_linearization_equal_the_quadratic_ones(
            seed in any::<u64>(),
            n in 2usize..8,
            m in 1usize..6,
            msgs in 0usize..14,
            mode in 0u8..3,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut procs: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                procs.swap(i, rng.gen_range(0..=i));
            }
            // The last process stays outside every group.
            let mut groups = Vec::new();
            let mut rest = &procs[..n - 1];
            while !rest.is_empty() {
                let (now, later) = rest.split_at(rng.gen_range(1..=rest.len().min(3)));
                groups.push(now.to_vec());
                rest = later;
            }
            // One receiver per group makes the computation receive-ordered;
            // its time reversal is then send-ordered. The ungrouped process
            // receives too, so some message can always be placed.
            let heads: Vec<usize> = groups.iter().map(|g| g[0]).chain([procs[n - 1]]).collect();
            let comp = match mode {
                0 => crate::gen::random_computation(&mut rng, n, m, msgs),
                1 => crate::gen::random_computation_with_receivers(&mut rng, n, m, msgs, Some(&heads)),
                _ => crate::gen::random_computation_with_receivers(&mut rng, n, m, msgs, Some(&heads))
                    .reversed(),
            };
            let grouping = Grouping::new(
                groups
                    .iter()
                    .map(|g| g.iter().map(|&p| ProcessId::new(p)).collect())
                    .collect(),
            );
            for kind in [OrderingKind::ReceiveOrdered, OrderingKind::SendOrdered] {
                let ordered = quadratic_is_ordered(&grouping, &comp, kind);
                prop_assert_eq!(grouping.is_ordered(&comp, kind), ordered);
                let lin = grouping.linearize(&comp, kind);
                if ordered {
                    let want = quadratic_linearize(&grouping, &comp, kind);
                    prop_assert_eq!(Some(lin.expect("ordered").order().to_vec()), want);
                } else {
                    prop_assert!(lin.is_err());
                }
            }
            if mode == 1 {
                prop_assert!(grouping.is_ordered(&comp, OrderingKind::ReceiveOrdered));
            }
            if mode == 2 {
                prop_assert!(grouping.is_ordered(&comp, OrderingKind::SendOrdered));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The §3.2 scan is sound because of Property P: if succ(e) ≤ f
        /// for events e, f on different meta-processes, then succ(e) ≤ g
        /// for every event g of f's meta-process that is σ-later than f.
        #[test]
        fn property_p_holds_on_receive_ordered_computations(
            seed in any::<u64>(),
            m in 1usize..5,
            msgs in 0usize..10,
        ) {
            // Receives restricted to one process per group ⇒ receive-ordered.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let comp =
                crate::gen::random_computation_with_receivers(&mut rng, 6, m, msgs, Some(&[0, 3]));
            let grouping = Grouping::new(vec![
                vec![0.into(), 1.into(), 2.into()],
                vec![3.into(), 4.into(), 5.into()],
            ]);
            prop_assert!(grouping.is_ordered(&comp, OrderingKind::ReceiveOrdered));
            let lin = grouping.linearize(&comp, OrderingKind::ReceiveOrdered).unwrap();

            for e in comp.events() {
                let Some(se) = comp.successor_on_process(e) else { continue };
                let ge = grouping.group_of(comp.process_of(e));
                for gi in (0..grouping.group_count()).filter(|&gi| Some(gi) != ge) {
                    let events = grouping.events_of_group(&comp, gi);
                    for &f in events.iter().filter(|&&f| comp.leq(se, f)) {
                        for &g in &events {
                            if lin.position(g) > lin.position(f) {
                                prop_assert!(
                                    comp.leq(se, g),
                                    "Property P violated: succ({e:?}) ≤ {f:?} but not ≤ {g:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Two groups of two processes; receives in each group land on a
    /// single process, so the computation is receive-ordered.
    fn receive_ordered_sample() -> Computation {
        let mut b = ComputationBuilder::new(4);
        // Group 0 = {p0, p1}; p1 receives everything.
        let s0 = b.append(0);
        let r0 = b.append(1);
        let r1 = b.append(1);
        // Group 1 = {p2, p3}; p3 receives.
        let s1 = b.append(2);
        let r2 = b.append(3);
        b.message(s0, r0).unwrap();
        b.message(s1, r1).unwrap();
        b.message(s0, r2).unwrap();
        b.build().unwrap()
    }

    fn grouping() -> Grouping {
        Grouping::new(vec![vec![0.into(), 1.into()], vec![2.into(), 3.into()]])
    }

    #[test]
    fn group_accessors() {
        let g = grouping();
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.group(1), &[ProcessId::new(2), ProcessId::new(3)]);
        assert_eq!(g.group_of(1.into()), Some(0));
        assert_eq!(g.group_of(3.into()), Some(1));
        let g2 = Grouping::new(vec![vec![0.into()]]);
        assert_eq!(g2.group_of(1.into()), None);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_panic() {
        Grouping::new(vec![vec![0.into()], vec![0.into()]]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_panics() {
        Grouping::new(vec![vec![]]);
    }

    #[test]
    fn receive_ordered_detected() {
        let comp = receive_ordered_sample();
        let g = grouping();
        assert!(g.is_ordered(&comp, OrderingKind::ReceiveOrdered));
    }

    #[test]
    fn not_receive_ordered_when_concurrent_receives() {
        // Group {p0, p1} where both receive concurrently from outside.
        let mut b = ComputationBuilder::new(3);
        let r0 = b.append(0);
        let r1 = b.append(1);
        let s0 = b.append(2);
        let s1 = b.append(2);
        b.message(s0, r0).unwrap();
        b.message(s1, r1).unwrap();
        let comp = b.build().unwrap();
        let g = Grouping::new(vec![vec![0.into(), 1.into()]]);
        assert!(!g.is_ordered(&comp, OrderingKind::ReceiveOrdered));
        // But it is send-ordered: the group has no send events at all.
        assert!(g.is_ordered(&comp, OrderingKind::SendOrdered));
    }

    #[test]
    fn linearization_extends_causal_order() {
        let comp = receive_ordered_sample();
        let g = grouping();
        let lin = g.linearize(&comp, OrderingKind::ReceiveOrdered).unwrap();
        assert_eq!(lin.order().len(), comp.event_count());
        for e in comp.events() {
            for f in comp.events() {
                if comp.happened_before(e, f) {
                    assert!(lin.position(e) < lin.position(f));
                }
            }
        }
    }

    #[test]
    fn linearization_orders_events_within_meta_process() {
        // In the receive-ordered extension, each meta-process's events
        // must be totally ordered by (causal ∪ added) edges. Verify via
        // Property P's consequence: positions within a group are coherent
        // with the extension — every independent (non-receive, receive)
        // pair in a group is ordered non-receive first.
        let comp = receive_ordered_sample();
        let g = grouping();
        let lin = g.linearize(&comp, OrderingKind::ReceiveOrdered).unwrap();
        for gi in 0..g.group_count() {
            let events = g.events_of_group(&comp, gi);
            for (i, &e) in events.iter().enumerate() {
                for &f in &events[i + 1..] {
                    if comp.concurrent(e, f)
                        && comp.kind(f).is_receive()
                        && !comp.kind(e).is_receive()
                    {
                        assert!(lin.position(e) < lin.position(f));
                    }
                }
            }
        }
    }

    #[test]
    fn events_of_group_collects_all() {
        let comp = receive_ordered_sample();
        let g = grouping();
        assert_eq!(g.events_of_group(&comp, 0).len(), 3);
        assert_eq!(g.events_of_group(&comp, 1).len(), 2);
    }
}
