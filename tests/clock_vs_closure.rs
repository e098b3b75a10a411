//! Cross-crate validation: the vector-clock order implemented in
//! `gpd-computation` must coincide exactly with the transitive closure of
//! the event DAG computed independently by `gpd-order` — the two crates
//! implement the same mathematical object through different algorithms.

use gpd_computation::{gen, BuildError, Computation, ComputationBuilder, EventId};
use gpd_order::{Dag, TransitiveClosure};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};

fn closure_of(comp: &Computation) -> TransitiveClosure {
    let mut dag = Dag::new(comp.event_count());
    for p in 0..comp.process_count() {
        for w in comp.events_of(p).windows(2) {
            dag.add_edge(w[0].index(), w[1].index());
        }
    }
    for &(s, r) in comp.messages() {
        dag.add_edge(s.index(), r.index());
    }
    dag.transitive_closure().expect("computations are acyclic")
}

/// Builds `b`, whose events on process `p` are `lines[p]` in program
/// order and whose messages are `messages` in insertion order, and checks
/// it against `gpd_order` on the same edges: `Cycle` exactly when the
/// topological sort fails, and otherwise happened-before equal to
/// reachability and both message adjacency lists in insertion order.
fn check_build_against_dag(
    b: ComputationBuilder,
    lines: &[Vec<EventId>],
    messages: &[(EventId, EventId)],
) -> Result<(), TestCaseError> {
    let mut dag = Dag::new(b.event_count());
    for line in lines {
        for w in line.windows(2) {
            dag.add_edge(w[0].index(), w[1].index());
        }
    }
    for &(s, r) in messages {
        dag.add_edge(s.index(), r.index());
    }
    let comp = match b.build() {
        Err(e) => {
            prop_assert_eq!(e, BuildError::Cycle);
            prop_assert!(dag.topo_sort().is_err(), "Cycle on an acyclic edge set");
            return Ok(());
        }
        Ok(comp) => comp,
    };
    prop_assert!(
        dag.topo_sort().is_ok(),
        "build succeeded on a cyclic edge set"
    );
    let closure = dag.transitive_closure().expect("acyclic");
    for (p, line) in lines.iter().enumerate() {
        prop_assert_eq!(comp.events_of(p), &line[..]);
    }
    for e in comp.events() {
        for f in comp.events() {
            prop_assert_eq!(
                comp.happened_before(e, f),
                closure.precedes(e.index(), f.index()),
                "{:?} vs {:?}",
                e,
                f
            );
        }
        let senders: Vec<EventId> = messages
            .iter()
            .filter(|&&(_, r)| r == e)
            .map(|&(s, _)| s)
            .collect();
        let receivers: Vec<EventId> = messages
            .iter()
            .filter(|&&(s, _)| s == e)
            .map(|&(_, r)| r)
            .collect();
        prop_assert_eq!(comp.message_predecessors(e), &senders[..]);
        prop_assert_eq!(comp.message_successors(e), &receivers[..]);
    }
    prop_assert_eq!(comp.messages(), messages);
    Ok(())
}

/// Records `msgs` messages between uniformly drawn endpoints — so in
/// either direction and possibly cyclic — skipping same-process pairs.
fn random_messages(
    rng: &mut impl Rng,
    b: &mut ComputationBuilder,
    ids: &[EventId],
    msgs: usize,
) -> Vec<(EventId, EventId)> {
    let mut messages = Vec::new();
    if ids.is_empty() {
        return messages;
    }
    for _ in 0..msgs {
        let s = ids[rng.gen_range(0..ids.len())];
        let r = ids[rng.gen_range(0..ids.len())];
        if b.message(s, r).is_ok() {
            messages.push((s, r));
        }
    }
    messages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn happened_before_equals_reachability(
        seed in any::<u64>(),
        n in 1usize..6,
        m in 1usize..8,
        msgs in 0usize..12,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let closure = closure_of(&comp);
        for e in comp.events() {
            for f in comp.events() {
                prop_assert_eq!(
                    comp.happened_before(e, f),
                    closure.precedes(e.index(), f.index()),
                    "{:?} vs {:?}", e, f
                );
                prop_assert_eq!(
                    comp.concurrent(e, f),
                    closure.concurrent(e.index(), f.index())
                );
            }
        }
    }

    #[test]
    fn leq_equals_reflexive_reachability(
        seed in any::<u64>(),
        n in 1usize..6,
        m in 1usize..8,
        msgs in 0usize..12,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let closure = closure_of(&comp);
        for e in comp.events() {
            for f in comp.events() {
                prop_assert_eq!(
                    comp.leq(e, f),
                    e == f || closure.precedes(e.index(), f.index()),
                    "{:?} ≤ {:?}", e, f
                );
            }
        }
    }

    #[test]
    fn is_consistent_equals_down_closedness_on_arbitrary_frontiers(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..8,
    ) {
        use gpd_computation::Cut;
        use rand::Rng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let closure = closure_of(&comp);
        // Sample arbitrary frontiers — consistent or not — and check the
        // flat dominance kernel against independent down-closedness.
        for _ in 0..40 {
            let frontier: Vec<u32> = (0..comp.process_count())
                .map(|p| rng.gen_range(0..=comp.events_on(p) as u32))
                .collect();
            let cut = Cut::from_frontier(frontier);
            let members: Vec<EventId> = comp
                .events()
                .filter(|&e| cut.contains(&comp, e))
                .collect();
            let down_closed = members.iter().all(|&e| {
                comp.events()
                    .filter(|&g| closure.precedes(g.index(), e.index()))
                    .all(|g| cut.contains(&comp, g))
            });
            prop_assert_eq!(
                comp.is_consistent(&cut),
                down_closed,
                "frontier {:?}", cut.frontier()
            );
        }
    }

    #[test]
    fn cut_consistency_equals_down_closedness(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let closure = closure_of(&comp);
        // Every consistent cut's event set is downward closed under the
        // independently computed closure, and vice versa for a sample of
        // frontiers.
        for cut in comp.consistent_cuts() {
            let members: Vec<EventId> = comp
                .events()
                .filter(|&e| cut.contains(&comp, e))
                .collect();
            for &e in &members {
                for g in comp.events() {
                    if closure.precedes(g.index(), e.index()) {
                        prop_assert!(cut.contains(&comp, g));
                    }
                }
            }
        }
    }

    #[test]
    fn stats_width_matches_brute_force_antichain(
        seed in any::<u64>(),
        n in 1usize..4,
        m in 1usize..4,
        msgs in 0usize..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let st = gpd_computation::stats(&comp);
        // Brute-force the maximum antichain over all event subsets.
        let events: Vec<EventId> = comp.events().collect();
        let mut best = 0;
        for mask in 0u32..(1 << events.len()) {
            let chosen: Vec<EventId> = events
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &e)| e)
                .collect();
            let antichain = chosen
                .iter()
                .enumerate()
                .all(|(i, &e)| chosen[i + 1..].iter().all(|&f| comp.concurrent(e, f)));
            if antichain {
                best = best.max(chosen.len());
            }
        }
        prop_assert_eq!(st.width, best);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary message sets over up to 8 processes of up to 12 events.
    #[test]
    fn build_agrees_with_topological_sort_on_arbitrary_messages(
        seed in any::<u64>(),
        counts in proptest::collection::vec(0usize..13, 1..9),
        msgs in 0usize..16,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = ComputationBuilder::new(counts.len());
        let lines: Vec<Vec<EventId>> = counts
            .iter()
            .enumerate()
            .map(|(p, &c)| (0..c).map(|_| b.append(p)).collect())
            .collect();
        let ids: Vec<EventId> = lines.iter().flatten().copied().collect();
        let messages = random_messages(&mut rng, &mut b, &ids, msgs);
        check_build_against_dag(b, &lines, &messages)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Token-ring-like chains over up to 40 processes and a few hundred
    /// events, appended in interleaved order: a token hops to a random
    /// other process at every step, so the cursor sweep keeps stalling on
    /// receives and resuming processes it already visited. A few extra
    /// messages, drawn freely, sometimes close a cycle.
    #[test]
    fn build_agrees_with_topological_sort_on_long_token_chains(
        seed in any::<u64>(),
        n in 2usize..41,
        hops in 50usize..200,
        extra in 0usize..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = ComputationBuilder::new(n);
        let mut lines: Vec<Vec<EventId>> = vec![Vec::new(); n];
        let mut messages = Vec::new();
        let mut append = |b: &mut ComputationBuilder, p: usize| {
            let e = b.append(p);
            lines[p].push(e);
            e
        };
        let mut holder = rng.gen_range(0..n);
        for _ in 0..hops {
            if rng.gen_bool(0.3) {
                let p = rng.gen_range(0..n);
                append(&mut b, p);
            }
            let next = (holder + rng.gen_range(1..n)) % n;
            let s = append(&mut b, holder);
            let r = append(&mut b, next);
            b.message(s, r).unwrap();
            messages.push((s, r));
            holder = next;
        }
        let ids: Vec<EventId> = lines.iter().flatten().copied().collect();
        messages.extend(random_messages(&mut rng, &mut b, &ids, extra));
        check_build_against_dag(b, &lines, &messages)?;
    }
}
