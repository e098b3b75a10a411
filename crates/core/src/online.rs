//! Online (streaming) conjunctive detection.
//!
//! The Garg–Waldecker algorithm was conceived as a *monitor*: a checker
//! process receives, from each application process, the vector timestamps
//! of the local states in which its variable is true, and raises an alarm
//! the moment a consistent global true-state is known to exist. This
//! module packages the same scan incrementally: feed true states in any
//! order that is FIFO per process, poll for a verdict after each
//! observation, and the answer always equals what the offline
//! [`possibly_conjunctive`](crate::conjunctive::possibly_conjunctive)
//! would say on the events observed so far.
//!
//! The monitor eliminates as states arrive, not only once every process
//! has reported: it keeps the queues **settled** — every two non-empty
//! queue heads are consistent. A head killed by another head pairs with
//! no current or future state of the killer's process, whatever the
//! other queues hold (the domination argument of the generic scan), so
//! the kill is sound at once. Each state is compared as a head at most
//! once against the other heads, so an accepted event costs O(n)
//! amortized, and the queues hold only states that may still join a
//! witness: memory is O(live), not O(events taken).

use std::collections::VecDeque;

use gpd_computation::VectorClock;

/// How [`ConjunctiveMonitor::observe`] classified one delivery. The
/// monitor's verdict is unaffected by `Duplicate` and `Stale`
/// deliveries — an at-least-once, reordering channel between the
/// application and the checker degrades into redundant traffic, never
/// into corrupted queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A new true state, enqueued and scanned.
    Accepted,
    /// A redelivery of the newest state already observed from this
    /// process (same local component); dropped.
    Duplicate,
    /// An observation older than one already accepted from this process
    /// (a reordered or replayed delivery); dropped.
    Stale,
}

/// The explicit overflow error from [`ConjunctiveMonitor::try_observe`]
/// when a per-process queue configured with
/// [`with_queue_cap`](ConjunctiveMonitor::with_queue_cap) is full: the
/// observation was **not** enqueued and the caller should apply
/// backpressure (retry later) instead of dropping the event silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueOverflow {
    /// The process whose queue is full.
    pub process: usize,
    /// The configured cap.
    pub cap: usize,
}

impl std::fmt::Display for QueueOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "monitor queue for process {} is full (cap {})",
            self.process, self.cap
        )
    }
}

impl std::error::Error for QueueOverflow {}

/// A point-in-time image of a [`ConjunctiveMonitor`]'s **live state** —
/// everything a durability layer must persist to rebuild the monitor
/// without replaying its event history. Its size is O(live state):
/// the settled queues plus one high-water mark per process, independent
/// of how many events the monitor has ever screened or eliminated.
///
/// The queues need not be settled: an image taken by a monitor that
/// eliminated only while every queue was non-empty may hold two
/// inconsistent heads next to an empty queue.
/// [`restore`](ConjunctiveMonitor::restore) settles it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Per process: the local component of the newest accepted
    /// observation (`None` before the first).
    pub latest: Vec<Option<u32>>,
    /// Per process: the pending true-state clocks, oldest first.
    pub queues: Vec<Vec<VectorClock>>,
    /// The witness, if detection already succeeded.
    pub witness: Option<Vec<VectorClock>>,
}

impl MonitorSnapshot {
    /// Number of monitored processes.
    pub fn process_count(&self) -> usize {
        self.latest.len()
    }

    /// Total clocks held — the snapshot's O(live state) footprint.
    pub fn live_states(&self) -> usize {
        self.queues.iter().map(Vec::len).sum::<usize>() + self.witness.as_ref().map_or(0, Vec::len)
    }
}

/// Streaming detector for `Possibly(x₀ ∧ … ∧ x_{n−1})`.
///
/// # Example
///
/// ```
/// use gpd::online::ConjunctiveMonitor;
/// use gpd_computation::VectorClock;
///
/// let mut monitor = ConjunctiveMonitor::new(2);
/// // p0's variable is true after its first event.
/// monitor.observe(0, VectorClock::from(vec![1, 0]));
/// assert!(monitor.witness().is_none()); // nothing from p1 yet
/// monitor.observe(1, VectorClock::from(vec![0, 1]));
/// assert!(monitor.witness().is_some()); // concurrent true states
/// ```
#[derive(Debug, Clone)]
pub struct ConjunctiveMonitor {
    /// Per process: pending true-state clocks, oldest first. Settled
    /// between calls: every two non-empty heads are consistent.
    queues: Vec<VecDeque<VectorClock>>,
    /// Total length of `queues`, kept so `queue_depth` is O(1).
    depth: usize,
    /// Bitset of the processes whose queue is non-empty, so a sweep
    /// visits only the heads that exist.
    nonempty: Vec<u64>,
    /// Number of non-empty queues; all `n` means a witness.
    head_count: usize,
    /// Processes whose new head must still be compared against the
    /// other heads; empty between calls (a reused worklist).
    changed: Vec<usize>,
    /// Per process: the local component of the newest observation ever
    /// accepted — the high-water mark duplicates and stale redeliveries
    /// are screened against. Survives queue pops (an eliminated head
    /// must not reopen the door for its own redelivery).
    latest: Vec<Option<u32>>,
    /// Found witness (sticky once set).
    witness: Option<Vec<VectorClock>>,
    /// Optional cap on each per-process queue (None = unbounded).
    queue_cap: Option<usize>,
}

impl ConjunctiveMonitor {
    /// A monitor over `n` processes whose variables all start false.
    pub fn new(n: usize) -> Self {
        ConjunctiveMonitor {
            queues: vec![VecDeque::new(); n],
            depth: 0,
            nonempty: vec![0; n.div_ceil(64)],
            head_count: 0,
            changed: Vec::new(),
            latest: vec![None; n],
            witness: None,
            queue_cap: None,
        }
    }

    /// Caps each per-process queue at `cap` pending true states.
    /// [`try_observe`](Self::try_observe) then reports a full queue as a
    /// [`QueueOverflow`] error instead of growing without bound — the
    /// backpressure hook a long-lived monitoring service needs when one
    /// process streams much faster than its peers eliminate.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (a monitor that can hold nothing can
    /// never detect anything).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue cap must be positive");
        self.queue_cap = cap.into();
        self
    }

    /// A monitor over `n` processes with the given initial variable
    /// values: an initially-true variable contributes its initial state
    /// (the zero clock) as a candidate.
    pub fn with_initial(initial: &[bool]) -> Self {
        let mut monitor = ConjunctiveMonitor::new(initial.len());
        for (p, &true_initially) in initial.iter().enumerate() {
            if true_initially {
                monitor.push(p, VectorClock::zero(initial.len()));
                monitor.latest[p] = Some(0);
            }
        }
        monitor.settle();
        monitor
    }

    /// The number of monitored processes.
    pub fn process_count(&self) -> usize {
        self.queues.len()
    }

    /// How [`observe`](Self::observe) *would* classify this delivery,
    /// without mutating the monitor. A durable server uses this to
    /// decide whether an incoming event needs to be logged before it is
    /// applied: `Duplicate`/`Stale` redeliveries are acked without
    /// touching the write-ahead log.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the clock has the wrong length.
    pub fn classify(&self, p: usize, clock: &VectorClock) -> Observation {
        assert!(p < self.queues.len(), "process {p} out of range");
        assert_eq!(clock.len(), self.queues.len(), "clock length mismatch");
        let local = clock.get(p);
        match self.latest[p] {
            Some(high_water) if local == high_water => Observation::Duplicate,
            Some(high_water) if local < high_water => Observation::Stale,
            _ => Observation::Accepted,
        }
    }

    /// Reports that process `p` entered a local state in which its
    /// variable is **true**, stamped with the state's vector clock
    /// (the clock of the event that produced the state). Interleaving
    /// across processes is arbitrary, and the channel from each process
    /// need not be reliable: a redelivery of the newest accepted state
    /// is reported as [`Observation::Duplicate`], anything older than
    /// the high-water mark as [`Observation::Stale`] — both are dropped
    /// without touching the queues, so duplication and reordering can
    /// never corrupt the verdict (states are identified by their local
    /// clock component, which increases strictly along a process).
    ///
    /// False states need not be reported.
    ///
    /// # Errors
    ///
    /// Returns [`QueueOverflow`] — and enqueues nothing, leaving the
    /// high-water mark untouched so a later retry is still `Accepted` —
    /// if a [`with_queue_cap`](Self::with_queue_cap) bound is configured
    /// and `p`'s queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the clock has the wrong length
    /// (malformed input, not a fault-tolerance concern).
    pub fn try_observe(
        &mut self,
        p: usize,
        clock: VectorClock,
    ) -> Result<Observation, QueueOverflow> {
        let classified = self.classify(p, &clock);
        match classified {
            Observation::Duplicate => crate::counters::record_monitor_duplicate(),
            Observation::Stale => crate::counters::record_monitor_stale(),
            Observation::Accepted => {
                if self.witness.is_none() {
                    if let Some(cap) = self.queue_cap {
                        if self.queues[p].len() >= cap {
                            return Err(QueueOverflow { process: p, cap });
                        }
                    }
                }
                crate::counters::record_monitor_observed();
                self.latest[p] = Some(clock.get(p));
                if self.witness.is_none() {
                    self.push(p, clock);
                    crate::counters::record_monitor_queue_depth(self.depth as u64);
                    self.settle();
                }
            }
        }
        Ok(classified)
    }

    /// Infallible [`try_observe`](Self::try_observe) for unbounded
    /// monitors (the default).
    ///
    /// # Panics
    ///
    /// Panics on [`QueueOverflow`] — only possible after
    /// [`with_queue_cap`](Self::with_queue_cap); bounded callers should
    /// use `try_observe` and apply backpressure instead.
    pub fn observe(&mut self, p: usize, clock: VectorClock) -> Observation {
        self.try_observe(p, clock)
            .expect("unbounded monitor cannot overflow")
    }

    /// The high-water mark of process `p`: the local clock component of
    /// the newest observation ever accepted from it (`None` before the
    /// first). Redeliveries at or below this mark are screened; a
    /// resuming client can skip everything up to and including it.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn high_water(&self, p: usize) -> Option<u32> {
        self.latest[p]
    }

    /// Total number of pending true states across all per-process
    /// queues — the monitor-pressure gauge a serving layer reports.
    /// O(1): the monitor keeps a running total.
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Pending true states queued for process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn queue_depth_of(&self, p: usize) -> usize {
        self.queues[p].len()
    }

    /// The witness — one true-state clock per process, pairwise
    /// consistent — once detection has succeeded. Sticky.
    pub fn witness(&self) -> Option<&[VectorClock]> {
        self.witness.as_deref()
    }

    /// Exports the monitor's live state as a [`MonitorSnapshot`]. The
    /// snapshot captures everything future verdicts depend on — settled
    /// queues, per-process high-water marks, and the witness — so
    /// `restore(monitor.snapshot())` behaves identically to `monitor`
    /// on every subsequent observation. O(live state): the queues hold
    /// only states that may still join a witness. The queue cap is a
    /// host policy, not monitor state, and is not part of the snapshot.
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            latest: self.latest.clone(),
            queues: self
                .queues
                .iter()
                .map(|q| q.iter().cloned().collect())
                .collect(),
            witness: self.witness.clone(),
        }
    }

    /// Rebuilds a monitor from a [`MonitorSnapshot`] in O(live state),
    /// settling its queues once. A snapshot whose queues are already
    /// settled loses nothing; one written under the older rule (heads
    /// eliminated only while every queue was non-empty) has its dead
    /// heads popped here, so the verdict and queue depths equal a fresh
    /// replay of the same events. A snapshot with a witness keeps its
    /// queues untouched. Chain [`with_queue_cap`](Self::with_queue_cap)
    /// afterwards to reapply a bound.
    pub fn restore(snapshot: MonitorSnapshot) -> Self {
        let mut monitor = ConjunctiveMonitor::new(snapshot.process_count());
        for (p, queue) in snapshot.queues.into_iter().enumerate() {
            for clock in queue {
                monitor.push(p, clock);
            }
        }
        monitor.latest = snapshot.latest;
        monitor.witness = snapshot.witness;
        if monitor.witness.is_some() {
            monitor.changed.clear();
        } else {
            monitor.settle();
        }
        monitor
    }

    /// Appends a state to `p`'s queue; a state landing in an empty
    /// queue is a new head, to be compared by [`settle`](Self::settle).
    fn push(&mut self, p: usize, clock: VectorClock) {
        self.queues[p].push_back(clock);
        self.depth += 1;
        if self.queues[p].len() == 1 {
            self.nonempty[p / 64] |= 1 << (p % 64);
            self.head_count += 1;
            self.changed.push(p);
        }
    }

    /// Pops `p`'s dead head. The head behind it, if any, is new.
    fn pop(&mut self, p: usize) {
        self.queues[p].pop_front();
        self.depth -= 1;
        if self.queues[p].is_empty() {
            self.nonempty[p / 64] &= !(1 << (p % 64));
            self.head_count -= 1;
        } else {
            self.changed.push(p);
        }
    }

    /// Restores the settled invariant after the heads in `changed`
    /// moved, then records a witness if every queue has a head. Each new
    /// head is compared once against every other non-empty head — two
    /// clock components per pair. A head it kills is popped and its
    /// process rejoins `changed`; a kill of the new head itself moves on
    /// to the head behind it. A head pair can be unchecked only while
    /// one of its processes is in `changed`, so an empty worklist means
    /// every two non-empty heads are consistent. Each state becomes a
    /// head at most once, so the work per accepted state is O(n)
    /// amortized.
    fn settle(&mut self) {
        while let Some(p) = self.changed.pop() {
            'sweep: for w in 0..self.nonempty.len() {
                // A copy of the word: bits cleared by pops below are
                // caught by the empty-queue check.
                let mut bits = self.nonempty[w];
                while bits != 0 {
                    let q = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if q == p {
                        continue;
                    }
                    let (Some(cp), Some(cq)) = (self.queues[p].front(), self.queues[q].front())
                    else {
                        continue;
                    };
                    // A head forcing more of the other's process than
                    // that head has seen: the other pairs with neither
                    // this head nor any later state of its process.
                    let kills_q = cp.get(q) > cq.get(q);
                    let kills_p = cq.get(p) > cp.get(p);
                    if kills_q {
                        self.pop(q);
                    }
                    if kills_p {
                        // `pop` queued p's next head for its own sweep.
                        self.pop(p);
                        break 'sweep;
                    }
                }
            }
        }
        debug_assert!(
            self.is_settled(),
            "two non-empty queue heads are inconsistent"
        );
        debug_assert_eq!(
            self.depth,
            self.queues.iter().map(VecDeque::len).sum::<usize>()
        );
        if self.witness.is_none() && self.head_count == self.queues.len() {
            self.witness = Some(self.queues.iter().map(|q| q[0].clone()).collect());
        }
    }

    /// Whether every two non-empty heads are consistent (brute force).
    fn is_settled(&self) -> bool {
        let heads: Vec<(usize, &VectorClock)> = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(p, q)| q.front().map(|c| (p, c)))
            .collect();
        heads
            .iter()
            .all(|&(_, cp)| heads.iter().all(|&(q, cq)| cp.get(q) <= cq.get(q)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conjunctive::possibly_conjunctive;
    use gpd_computation::{gen, ProcessId};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_monitor_is_immediately_satisfied() {
        let monitor = ConjunctiveMonitor::with_initial(&[]);
        assert!(monitor.witness().is_some());
    }

    #[test]
    fn initial_truths_form_a_witness() {
        let monitor = ConjunctiveMonitor::with_initial(&[true, true]);
        let w = monitor.witness().unwrap();
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|c| c.as_slice() == [0, 0]));
    }

    #[test]
    fn causally_ordered_truths_are_rejected() {
        // p1's true state already saw p0's second event, p0 is only true
        // in its first state: inconsistent forever.
        let mut m = ConjunctiveMonitor::new(2);
        m.observe(0, VectorClock::from(vec![1, 0]));
        m.observe(1, VectorClock::from(vec![2, 1]));
        assert!(m.witness().is_none());
        // A later true state of p0 resolves it.
        m.observe(0, VectorClock::from(vec![3, 0]));
        assert!(m.witness().is_some());
    }

    #[test]
    fn witness_is_sticky() {
        let mut m = ConjunctiveMonitor::new(1);
        m.observe(0, VectorClock::from(vec![1]));
        let w1 = m.witness().unwrap().to_vec();
        m.observe(0, VectorClock::from(vec![5]));
        assert_eq!(m.witness().unwrap(), w1.as_slice());
    }

    #[test]
    fn duplicate_and_stale_deliveries_are_screened() {
        let mut m = ConjunctiveMonitor::new(2);
        assert_eq!(
            m.observe(0, VectorClock::from(vec![2, 0])),
            Observation::Accepted
        );
        // Redelivery of the newest state: dropped.
        assert_eq!(
            m.observe(0, VectorClock::from(vec![2, 0])),
            Observation::Duplicate
        );
        // A reordered older state: dropped, queues untouched.
        assert_eq!(
            m.observe(0, VectorClock::from(vec![1, 0])),
            Observation::Stale
        );
        assert!(m.witness().is_none());
        assert_eq!(
            m.observe(1, VectorClock::from(vec![0, 1])),
            Observation::Accepted
        );
        assert!(m.witness().is_some());
    }

    #[test]
    fn eliminated_states_stay_stale_after_pops() {
        // p1's state saw two events of p0, eliminating p0's first state
        // from the queue. Its redelivery must still be screened even
        // though the queue no longer holds it.
        let mut m = ConjunctiveMonitor::new(2);
        m.observe(0, VectorClock::from(vec![1, 0]));
        m.observe(1, VectorClock::from(vec![2, 1]));
        assert!(m.witness().is_none());
        assert_eq!(
            m.observe(0, VectorClock::from(vec![1, 0])),
            Observation::Duplicate
        );
        assert!(m.witness().is_none());
        m.observe(0, VectorClock::from(vec![3, 0]));
        assert!(m.witness().is_some());
    }

    #[test]
    fn initial_truths_screen_their_own_redelivery() {
        let mut m = ConjunctiveMonitor::with_initial(&[true, false]);
        assert_eq!(m.observe(0, VectorClock::zero(2)), Observation::Duplicate);
    }

    #[test]
    fn classify_is_pure_and_agrees_with_observe() {
        let mut m = ConjunctiveMonitor::new(2);
        let c = VectorClock::from(vec![2, 0]);
        assert_eq!(m.classify(0, &c), Observation::Accepted);
        // Classifying repeatedly changes nothing.
        assert_eq!(m.classify(0, &c), Observation::Accepted);
        assert_eq!(m.observe(0, c.clone()), Observation::Accepted);
        assert_eq!(m.classify(0, &c), Observation::Duplicate);
        assert_eq!(
            m.classify(0, &VectorClock::from(vec![1, 0])),
            Observation::Stale
        );
        assert_eq!(
            m.classify(0, &VectorClock::from(vec![3, 0])),
            Observation::Accepted
        );
    }

    #[test]
    fn bounded_queue_overflows_explicitly_and_recovers() {
        let mut m = ConjunctiveMonitor::new(2).with_queue_cap(2);
        // p1's states all saw p0's 9th event, so nothing eliminates and
        // p1's queue fills up.
        for k in 1..=2 {
            assert_eq!(
                m.try_observe(1, VectorClock::from(vec![9, k])),
                Ok(Observation::Accepted)
            );
        }
        let err = m.try_observe(1, VectorClock::from(vec![9, 3])).unwrap_err();
        assert_eq!(err, QueueOverflow { process: 1, cap: 2 });
        assert_eq!(
            err.to_string(),
            "monitor queue for process 1 is full (cap 2)"
        );
        // The rejected state left no trace: the high-water mark still
        // points at the last *accepted* state, so a later retry of the
        // same delivery is not screened as a duplicate.
        assert_eq!(m.high_water(1), Some(2));
        assert_eq!(m.queue_depth_of(1), 2);
        assert_eq!(m.queue_depth(), 2);
        // p0 catches up to the 9 events p1's states force: the heads
        // [9,0] / [9,1] are consistent, a witness forms, queues freeze.
        assert_eq!(
            m.try_observe(0, VectorClock::from(vec![9, 0])),
            Ok(Observation::Accepted)
        );
        assert!(m.witness().is_some());
        // Post-witness, the cap no longer rejects (nothing queues).
        assert_eq!(
            m.try_observe(1, VectorClock::from(vec![9, 3])),
            Ok(Observation::Accepted)
        );
    }

    #[test]
    fn heads_past_the_first_bitset_word_are_compared() {
        let n = 70;
        let clock = |entries: &[(usize, u32)]| {
            let mut c = vec![0; n];
            for &(q, v) in entries {
                c[q] = v;
            }
            VectorClock::from(c)
        };
        let mut m = ConjunctiveMonitor::new(n);
        m.observe(66, clock(&[(66, 1)]));
        m.observe(2, clock(&[(2, 1)]));
        assert_eq!(m.queue_depth(), 2);
        // p67 saw p66's second event and p2's second: both heads die.
        m.observe(67, clock(&[(2, 2), (66, 2), (67, 1)]));
        assert_eq!(
            (m.queue_depth_of(2), m.queue_depth_of(66), m.queue_depth()),
            (0, 0, 1)
        );
    }

    #[test]
    fn high_water_marks_track_accepted_components() {
        let mut m = ConjunctiveMonitor::new(2);
        assert_eq!(m.high_water(0), None);
        m.observe(0, VectorClock::from(vec![3, 0]));
        assert_eq!(m.high_water(0), Some(3));
        assert_eq!(m.high_water(1), None);
        m.observe(0, VectorClock::from(vec![1, 0])); // stale
        assert_eq!(m.high_water(0), Some(3));
    }

    #[test]
    fn snapshot_roundtrip_preserves_monitor_behaviour() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(27182);
        for round in 0..60 {
            let n = rng.gen_range(2..5);
            let m = rng.gen_range(1..6);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);

            let initial: Vec<bool> = (0..n).map(|p| x.true_initially(p)).collect();
            let mut live = ConjunctiveMonitor::with_initial(&initial);
            let per_proc: Vec<Vec<VectorClock>> = (0..n)
                .map(|p| {
                    x.true_states(p)
                        .into_iter()
                        .filter(|&k| k > 0)
                        .map(|k| comp.clock(comp.event_at(p, k).unwrap()).to_owned())
                        .collect()
                })
                .collect();
            let mut order: Vec<usize> = (0..n)
                .flat_map(|p| std::iter::repeat_n(p, per_proc[p].len()))
                .collect();
            order.shuffle(&mut rng);
            let cut = rng.gen_range(0..=order.len());
            let mut idx = vec![0usize; n];
            for &p in &order[..cut] {
                let clock = per_proc[p][idx[p]].clone();
                idx[p] += 1;
                live.observe(p, clock);
            }

            // Snapshot mid-stream, restore, and feed the rest to both.
            let snap = live.snapshot();
            assert_eq!(snap.process_count(), n);
            assert_eq!(
                snap.live_states(),
                live.queue_depth() + live.witness().map_or(0, <[_]>::len),
                "round {round}"
            );
            let mut restored = ConjunctiveMonitor::restore(snap.clone());
            assert_eq!(
                ConjunctiveMonitor::restore(snap).snapshot(),
                live.snapshot()
            );
            for &p in &order[cut..] {
                let clock = per_proc[p][idx[p]].clone();
                idx[p] += 1;
                assert_eq!(
                    live.observe(p, clock.clone()),
                    restored.observe(p, clock),
                    "round {round}"
                );
            }
            assert_eq!(live.witness(), restored.witness(), "round {round}");
            for p in 0..n {
                assert_eq!(live.high_water(p), restored.high_water(p), "round {round}");
                assert_eq!(
                    live.queue_depth_of(p),
                    restored.queue_depth_of(p),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn restore_composes_with_queue_cap() {
        let mut m = ConjunctiveMonitor::new(2).with_queue_cap(2);
        m.observe(1, VectorClock::from(vec![9, 1]));
        m.observe(1, VectorClock::from(vec![9, 2]));
        let mut r = ConjunctiveMonitor::restore(m.snapshot()).with_queue_cap(2);
        assert_eq!(
            r.try_observe(1, VectorClock::from(vec![9, 3])).unwrap_err(),
            QueueOverflow { process: 1, cap: 2 }
        );
    }

    #[test]
    fn agrees_with_offline_detection_on_random_streams() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31415);
        for round in 0..100 {
            let n = rng.gen_range(2..5);
            let m = rng.gen_range(1..6);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);

            // Stream the true states to the monitor in a random
            // interleaving that preserves per-process order.
            let initial: Vec<bool> = (0..n).map(|p| x.true_initially(p)).collect();
            let mut monitor = ConjunctiveMonitor::with_initial(&initial);
            let streams: Vec<Vec<VectorClock>> = (0..n)
                .map(|p| {
                    x.true_states(p)
                        .into_iter()
                        .filter(|&k| k > 0)
                        .map(|k| comp.clock(comp.event_at(p, k).unwrap()).to_owned())
                        .collect()
                })
                .collect();
            let mut order: Vec<usize> = (0..n)
                .flat_map(|p| std::iter::repeat_n(p, streams[p].len()))
                .collect();
            order.shuffle(&mut rng);
            let mut idx = vec![0usize; n];
            for p in order {
                let clock = streams[p][idx[p]].clone();
                idx[p] += 1;
                monitor.observe(p, clock.clone());
                // An unreliable channel: sometimes redeliver the newest
                // state, sometimes replay an older one. Neither may
                // change the verdict.
                if rng.gen_bool(0.3) {
                    assert_eq!(monitor.observe(p, clock), Observation::Duplicate);
                }
                if idx[p] > 1 && rng.gen_bool(0.3) {
                    let old = streams[p][rng.gen_range(0..idx[p] - 1)].clone();
                    assert_eq!(monitor.observe(p, old), Observation::Stale);
                }
            }

            let offline =
                possibly_conjunctive(&comp, &x, &(0..n).map(ProcessId::new).collect::<Vec<_>>());
            assert_eq!(
                monitor.witness().is_some(),
                offline.is_some(),
                "round {round}"
            );
            if let Some(w) = monitor.witness() {
                // Pairwise consistency of the reported clocks.
                for i in 0..n {
                    for j in 0..n {
                        assert!(w[i].get(j) <= w[j].get(j), "round {round}");
                    }
                }
            }
            let _ = streams;
        }
    }
}
