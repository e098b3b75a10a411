//! Exact work of the §3.3 odometer walk (see `gpd::scan`), measured on
//! the process-global scan-run counter. This binary holds a single test
//! so nothing else running in the process can inflate the counter.
//!
//! On the wide unsatisfiable workload every clause prefix of the conflict
//! gadget dies, and a dead prefix skips its whole subtree. Sequentially
//! the walk therefore pushes one scan per gadget prefix and nothing else.
//! In parallel a wave's blocks may each re-settle a shared prefix on a
//! private snapshot stack, but every wave starts past the furthest skip,
//! so the extra work stays bounded by a small multiple of the wave
//! width.

mod support;

use gpd::singular::{possibly_singular_chains_budgeted, possibly_singular_subsets_budgeted};
use gpd::{counters, Budget, BudgetMeter, DetectError, SingularCnf, Verdict};
use gpd_computation::{BoolVariable, Computation, Cut};

type Engine = fn(
    &Computation,
    &BoolVariable,
    &SingularCnf,
    usize,
    &Budget,
    &BudgetMeter,
    Option<&gpd::Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError>;

/// Scan runs one unlimited-budget rejection costs.
fn scan_runs(
    engine: Engine,
    workload: &(Computation, BoolVariable, SingularCnf),
    threads: usize,
) -> u64 {
    let (comp, var, phi) = workload;
    let before = counters::snapshot();
    let verdict = engine(
        comp,
        var,
        phi,
        threads,
        &Budget::unlimited(),
        &BudgetMeter::new(),
        None,
    )
    .expect("no checkpoint, no panic");
    assert_eq!(
        verdict.value(),
        Some(&None),
        "the workload is unsatisfiable"
    );
    counters::snapshot().since(&before).scan_runs
}

#[test]
fn odometer_walk_does_the_sequential_work_plus_a_bounded_parallel_overhead() {
    let workload = support::wide_unsat(40, 6, 4, 2);
    // Subsets: c0 alive, (c0, c1) dead twice, c0's second literal dead.
    // Chains: c0 alive, (c0, c1) dead — the gadget covers are one chain
    // each.
    let engines: [(&str, Engine, u64); 2] = [
        ("subsets", possibly_singular_subsets_budgeted, 4),
        ("chains", possibly_singular_chains_budgeted, 2),
    ];
    for (name, engine, sequential) in engines {
        for threads in [0, 1] {
            assert_eq!(
                scan_runs(engine, &workload, threads),
                sequential,
                "{name}, threads {threads}"
            );
        }
        for threads in [2, 4, 8] {
            let runs = scan_runs(engine, &workload, threads);
            assert!(runs <= 128, "{name}, threads {threads}: {runs} scan runs");
        }
    }
}
