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

use gpd::singular::{possibly_singular_chains_budgeted, possibly_singular_subsets_budgeted};
use gpd::{counters, Budget, BudgetMeter, CnfClause, DetectError, SingularCnf, Verdict};
use gpd_computation::{BoolVariable, Computation, ComputationBuilder, Cut, ProcessId};

/// A local copy of the bench crate's E5 conflict gadget (the bench crate
/// is not a dependency of these tests): `groups` wide clauses over
/// always-true processes plus a two-clause gadget whose only true states
/// are mutually inconsistent, so no literal combination survives.
fn wide_unsat(pad: usize, groups: usize, width: usize) -> (Computation, BoolVariable, SingularCnf) {
    let n = 4 + groups * width;
    let mut b = ComputationBuilder::new(n);
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 0..n {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..n)
        .map(|p| vec![p >= 4; comp.events_on(p) + 1])
        .collect();
    tracks[0][2] = true;
    tracks[2][1] = true;
    let var = BoolVariable::new(&comp, tracks);
    let mut clauses = vec![
        CnfClause::new(vec![(ProcessId::new(0), true), (ProcessId::new(1), true)]),
        CnfClause::new(vec![(ProcessId::new(2), true), (ProcessId::new(3), true)]),
    ];
    for g in 0..groups {
        clauses.push(CnfClause::new(
            (0..width)
                .map(|i| (ProcessId::new(4 + g * width + i), true))
                .collect(),
        ));
    }
    (comp, var, SingularCnf::new(clauses))
}

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
    let workload = wide_unsat(40, 6, 4);
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
