//! Structural statistics of a computation.
//!
//! The detection algorithms' costs are governed by a few structural
//! parameters of the event poset: its **width** (largest set of mutually
//! concurrent events — the minimum number of chains covering it, by
//! Dilworth), its **height** (longest causal chain — the minimum run
//! length in logical steps), and the resulting **lattice profile**. This
//! module computes them, mostly as instrumentation for the experiments.

use gpd_order::min_chain_cover_of_chains;

use crate::computation::{Computation, Csr};
use crate::event::EventId;

/// Summary of a computation's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Number of processes.
    pub processes: usize,
    /// Number of (non-initial) events.
    pub events: usize,
    /// Number of message edges.
    pub messages: usize,
    /// Width: size of the largest antichain of events (≤ processes ×
    /// anything only when messages impose order; equals `processes` for
    /// message-free computations with events on each).
    pub width: usize,
    /// Height: number of events on the longest causal chain.
    pub height: usize,
}

/// The number of events on the longest causal chain. An event's clock
/// row sums to the size of its causal past, itself included, so each
/// event sorts after its predecessors when grouped by that sum (one
/// counting sort); one pass in that order then extends the longest
/// chain through each event's program-order and message predecessors.
fn height(comp: &Computation) -> usize {
    let sums: Vec<usize> = comp
        .events()
        .map(|e| comp.clock_row(e).iter().map(|&c| c as usize).sum())
        .collect();
    let by_sum = Csr::group(
        comp.event_count() + 1,
        (0..comp.event_count()).map(|e| (sums[e], EventId::new(e))),
    );
    let mut chain = vec![0usize; comp.event_count()];
    for sum in 1..=comp.event_count() {
        for &e in by_sum.list(sum) {
            let below = comp.predecessor_on_process(e).into_iter();
            let below = below.chain(comp.message_predecessors(e).iter().copied());
            chain[e.index()] = 1 + below.map(|f| chain[f.index()]).max().unwrap_or(0);
        }
    }
    chain.into_iter().max().unwrap_or(0)
}

/// Computes the [`Stats`] of a computation. Width is the size of a
/// Dilworth chain cover: each process's events are one chain, so
/// [`min_chain_cover_of_chains`] finds it without a transitive closure.
/// Height is one longest-path pass over the events in causal order.
///
/// # Example
///
/// ```
/// use gpd_computation::{stats, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// let s = b.append(0);
/// let r = b.append(1);
/// b.message(s, r).unwrap();
/// let st = stats(&b.build().unwrap());
/// assert_eq!(st.width, 1); // the message chains the two events
/// assert_eq!(st.height, 2);
/// ```
pub fn stats(comp: &Computation) -> Stats {
    let height = height(comp);
    let lens: Vec<usize> = (0..comp.process_count())
        .map(|p| comp.events_on(p))
        .collect();
    let events: Vec<_> = (0..comp.process_count())
        .flat_map(|p| comp.events_of(p).iter().copied())
        .collect();
    let width =
        min_chain_cover_of_chains(&lens, |u, v| comp.happened_before(events[u], events[v])).width();
    Stats {
        processes: comp.process_count(),
        events: comp.event_count(),
        messages: comp.messages().len(),
        width,
        height,
    }
}

/// The number of consistent cuts per lattice level (cuts with `k` events
/// for `k = 0..=events`). Exponential work — instrumentation for small
/// computations.
pub fn lattice_profile(comp: &Computation) -> Vec<usize> {
    let mut profile = vec![0usize; comp.event_count() + 1];
    for cut in comp.consistent_cuts() {
        profile[cut.event_count()] += 1;
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;
    use gpd_order::Dag;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The event DAG (program order + messages) of the computation.
    fn event_dag(comp: &Computation) -> Dag {
        let mut dag = Dag::new(comp.event_count());
        for p in 0..comp.process_count() {
            for w in comp.events_of(p).windows(2) {
                dag.add_edge(w[0].index(), w[1].index());
            }
        }
        for &(s, r) in comp.messages() {
            dag.add_edge(s.index(), r.index());
        }
        dag
    }

    /// The longest chain of `happened_before`, by relaxing every ordered
    /// pair of events until nothing changes.
    fn brute_force_height(comp: &Computation) -> usize {
        let events: Vec<EventId> = comp.events().collect();
        let mut longest = vec![1usize; events.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for &e in &events {
                for &f in &events {
                    if comp.happened_before(e, f) && longest[f.index()] <= longest[e.index()] {
                        longest[f.index()] = longest[e.index()] + 1;
                        changed = true;
                    }
                }
            }
        }
        longest.into_iter().max().unwrap_or(0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The width from per-process chains equals the width of the
        /// closure-based reference cover over all events.
        #[test]
        fn width_equals_the_closure_oracle(
            seed in any::<u64>(),
            n in 2usize..7,
            m in 1usize..8,
            msgs in 0usize..16,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let comp = crate::gen::random_computation(&mut rng, n, m, msgs);
            let closure = event_dag(&comp).transitive_closure().expect("acyclic");
            let elements: Vec<usize> = (0..comp.event_count()).collect();
            let want = gpd_order::min_chain_cover(&closure, &elements).width();
            prop_assert_eq!(stats(&comp).width, want);
        }

        /// The height from one pass in clock-row-sum order equals the
        /// longest `happened_before` chain.
        #[test]
        fn height_equals_the_longest_causal_chain(
            seed in any::<u64>(),
            n in 1usize..6,
            m in 0usize..6,
            msgs in 0usize..12,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let msgs = if n > 1 && m > 0 { msgs } else { 0 };
            let comp = crate::gen::random_computation(&mut rng, n, m, msgs);
            prop_assert_eq!(stats(&comp).height, brute_force_height(&comp));
        }
    }

    #[test]
    fn independent_processes_have_full_width() {
        let mut b = ComputationBuilder::new(3);
        for p in 0..3 {
            b.append(p);
            b.append(p);
        }
        let st = stats(&b.build().unwrap());
        assert_eq!(st.width, 3);
        assert_eq!(st.height, 2);
        assert_eq!(st.events, 6);
    }

    #[test]
    fn fully_chained_computation_has_width_one() {
        // p0 → p1 → p0 → p1 alternating messages chain everything.
        let mut b = ComputationBuilder::new(2);
        let a = b.append(0);
        let c = b.append(1);
        let d = b.append(0);
        b.message(a, c).unwrap();
        b.message(c, d).unwrap();
        let st = stats(&b.build().unwrap());
        assert_eq!(st.width, 1);
        assert_eq!(st.height, 3);
    }

    #[test]
    fn empty_computation() {
        let st = stats(&ComputationBuilder::new(2).build().unwrap());
        assert_eq!(st.width, 0);
        assert_eq!(st.height, 0);
        assert_eq!(st.events, 0);
    }

    #[test]
    fn lattice_profile_sums_to_cut_count() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let profile = lattice_profile(&comp);
        assert_eq!(
            profile.iter().sum::<usize>(),
            comp.consistent_cuts().count()
        );
        assert_eq!(profile[0], 1, "one empty cut");
        assert_eq!(profile[3], 1, "one full cut");
        // Level 1: either first event of p0 or p1's event.
        assert_eq!(profile[1], 2);
    }

    #[test]
    fn width_bounds_lattice_level_sizes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let comp = crate::gen::random_computation(&mut rng, 3, 3, 3);
        let st = stats(&comp);
        // The largest level of the cut lattice is at most
        // C(width + levels...) — loosely, every level's antichain of
        // frontier moves is bounded by width+1 choices per process; just
        // assert the trivial sanity bounds here.
        assert!(st.width <= st.events);
        assert!(st.height <= st.events);
        assert!(st.width * st.height >= st.events, "Dilworth/Mirsky bound");
    }
}
