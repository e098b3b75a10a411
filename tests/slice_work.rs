//! Clock-row reads of `Slice::build` (see `gpd::slice`), counted on the
//! process-global kernel counters through the metered
//! `Computation::clock`. This binary holds a single test so nothing
//! else running in the process can inflate the counters.
//!
//! The worklist sweep reads a clock row only for a received message's
//! sender, to seed `J(e)`, and for a frontier entry that moved for a
//! local or channel reason. Each such move raises the fixpoint's level
//! by at least one (lowers it, for `M`), and a process's `J` values only
//! rise along its events. So the reads are bounded by the message count
//! plus the level each fixpoint travels, and a predicate that holds
//! everywhere reads exactly one row per message.

use gpd::slice::{ChannelOp, RegularPredicate, Slice};
use gpd_computation::{gen, kernel_counters, Computation};
use gpd_sim::protocols::ChangRoberts;
use gpd_sim::{SimConfig, Simulation};
use rand::{Rng, SeedableRng};

/// Clock rows `Slice::build` reads on `pred`.
fn rows_read(comp: &Computation, pred: &RegularPredicate) -> (Slice, u64) {
    let before = kernel_counters();
    let slice = Slice::build(comp, pred);
    (slice, kernel_counters().since(&before).clock_row_reads)
}

/// A cut's level: the events it holds.
fn level(f: &[u32]) -> u64 {
    f.iter().map(|&x| u64::from(x)).sum()
}

/// The bound the sweep must stay within: one row per message, plus the
/// rise of `m` from the initial cut, twice the fall of `M` from the final
/// cut (a retreat's row check and the check that then passes), and the
/// rise of each process's `J` chain from `m` — to the final cut when the
/// chain ends in an event no `B`-cut contains.
fn row_bound(comp: &Computation, slice: &Slice) -> u64 {
    let messages = comp.messages().len() as u64;
    let top = level(comp.final_cut().frontier());
    let Some((least, greatest)) = slice.window() else {
        return messages + top;
    };
    let chains: u64 = (0..comp.process_count())
        .map(|p| {
            let js: Option<Vec<&[u32]>> = comp.events_of(p).iter().map(|&e| slice.j(e)).collect();
            let reached = match js {
                None => top,
                Some(js) => js.last().map_or(level(least), |j| level(j)),
            };
            reached - level(least)
        })
        .sum();
    messages + level(least) + 2 * (top - level(greatest)) + chains
}

#[test]
fn slice_builds_read_one_row_per_message_and_advance() {
    // A predicate that holds everywhere moves no entry: exactly the
    // senders' rows are read.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let comp = gen::random_computation(&mut rng, 8, 12, 30);
    let (slice, rows) = rows_read(&comp, &RegularPredicate::unconstrained(&comp));
    assert_eq!(slice.nodes_after(), comp.event_count());
    assert_eq!(rows, comp.messages().len() as u64);

    // A leader election: "processes 0 and 1 know the leader".
    let trace = Simulation::new(
        ChangRoberts::ring(&[17, 4, 23, 9, 30, 12, 5, 28, 1, 19, 8, 26]),
        SimConfig::new(7),
    )
    .run();
    let comp = &trace.computation;
    let knows = trace.bool_var("knows_leader").unwrap();
    let pred = RegularPredicate::conjunction(comp, knows, &[(0.into(), true), (1.into(), true)]);
    let (slice, rows) = rows_read(comp, &pred);
    assert!(!slice.is_empty());
    let bound = row_bound(comp, &slice);
    assert!(rows <= bound, "election: {rows} rows read, bound {bound}");

    // Random regular predicates with channel bounds.
    for round in 0..60 {
        let comp = gen::random_computation(&mut rng, 6, 10, 24);
        let mut pred = RegularPredicate::unconstrained(&comp);
        for p in 0..comp.process_count() {
            if rng.gen_bool(0.6) {
                let allowed = (0..=comp.events_on(p)).map(|_| rng.gen_bool(0.7)).collect();
                pred = pred.require_states(p, allowed);
            }
        }
        for &(s, r) in comp.messages().iter().take(rng.gen_range(0..3)) {
            let op = [ChannelOp::AtMost, ChannelOp::AtLeast][rng.gen_range(0..2)];
            let (from, to) = (comp.process_of(s), comp.process_of(r));
            pred = pred.require_channel(&comp, from, to, op, rng.gen_range(0..3));
        }
        let (slice, rows) = rows_read(&comp, &pred);
        let bound = row_bound(&comp, &slice);
        assert!(
            rows <= bound,
            "round {round}: {rows} rows read, bound {bound}"
        );
    }
}
