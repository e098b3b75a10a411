//! Stress coverage for the persistent worker pool behind `gpd::par`.
//!
//! The pool spawns its threads once per process and parks them between
//! fan-outs, so `par_threads_spawned` must stay O(1) no matter how many
//! detection runs execute — that is the whole point of replacing the
//! per-wave `std::thread::scope` spawns. These tests hammer the pool
//! with hundreds of tiny lattices, concurrent detections (exercising
//! the busy-slot solo fallback) and repeatedly panicking predicates,
//! and assert the spawn counter, verdicts and pool health afterwards.

use gpd::counters;
use gpd::enumerate::{definitely_levelwise_budgeted, possibly_by_enumeration_budgeted};
use gpd::{Budget, BudgetMeter, DetectError, Verdict};
use gpd_computation::{gen, Computation, Cut};
use rand::{Rng, SeedableRng};

/// The budgeted level sweep at `threads` under an unlimited budget.
fn enumerate_at(
    comp: &Computation,
    predicate: impl Fn(&Cut) -> bool + Sync,
    threads: usize,
) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_by_enumeration_budgeted(comp, predicate, threads, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// The pool's hard thread cap: twice the hardware parallelism.
fn spawn_cap() -> u64 {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1) as u64;
    hw * 2
}

fn random_comps(seed: u64, rounds: usize) -> Vec<Computation> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            gen::random_computation(&mut rng, n, m, msgs)
        })
        .collect()
}

#[test]
fn hundreds_of_runs_spawn_o1_threads() {
    let before = counters::snapshot();
    // 300 tiny lattices, alternating thread counts, both engines. Under
    // the old per-wave scopes this spawned thousands of threads.
    for (i, comp) in random_comps(4242, 300).iter().enumerate() {
        let threads = [1, 2, 4, 8][i % 4];
        let events = comp.final_cut().event_count();
        let hit = enumerate_at(comp, |c: &Cut| c.event_count() >= events, threads);
        assert!(hit.is_some(), "the final cut always satisfies the bound");
        let meter = BudgetMeter::new();
        let verdict = definitely_levelwise_budgeted(
            comp,
            |c: &Cut| c.event_count() == 1,
            threads,
            &Budget::unlimited(),
            &meter,
            None,
        )
        .unwrap();
        assert!(matches!(verdict, Verdict::Decided(..)));
    }
    let spawned = counters::snapshot().since(&before).par_threads_spawned;
    assert!(
        spawned <= spawn_cap(),
        "persistent pool must spawn O(1) threads per process, \
         got {spawned} across 300 runs (cap {})",
        spawn_cap()
    );
}

#[test]
fn concurrent_detections_share_the_pool_and_agree() {
    // Eight OS threads each run full detections in a loop while the
    // single job slot forces most fan-outs into the solo fallback.
    // Verdicts must match the sequential reference regardless of which
    // submitter wins the slot.
    let comps = random_comps(99, 24);
    let expected: Vec<Option<Cut>> = comps
        .iter()
        .map(|c| {
            let n = c.process_count();
            enumerate_at(
                c,
                |cut: &Cut| cut.frontier().iter().sum::<u32>() as usize >= n,
                1,
            )
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for (comp, want) in comps.iter().zip(&expected) {
                    let n = comp.process_count();
                    let got = enumerate_at(
                        comp,
                        |cut: &Cut| cut.frontier().iter().sum::<u32>() as usize >= n,
                        4,
                    );
                    assert_eq!(&got, want, "concurrent run must be byte-identical");
                }
            });
        }
    });
}

#[test]
fn panicking_predicates_leave_the_pool_healthy() {
    let comps = random_comps(7, 40);
    for comp in &comps {
        let meter = BudgetMeter::new();
        let result = definitely_levelwise_budgeted(
            comp,
            |_: &Cut| panic!("predicate blew up"),
            4,
            &Budget::unlimited(),
            &meter,
            None,
        );
        assert!(
            matches!(result, Err(DetectError::PredicatePanicked(_))),
            "panic must surface as a detect error, not unwind"
        );
    }
    // After 40 panicking fan-outs the pool still answers correctly.
    for comp in &comps {
        let hit = enumerate_at(comp, |_: &Cut| true, 4);
        assert_eq!(
            hit.map(|c| c.event_count()),
            Some(0),
            "initial cut satisfies the trivial predicate"
        );
    }
}
