//! Equivalence contract of the incremental scan pipeline (see
//! `gpd::scan`): the queue-driven fixpoint, the prefix-sharing
//! combination walk, and its parallel wave-splitting must all return
//! exactly what the seed's restart-from-scratch loop returned. The
//! confluence argument (docs/ALGORITHMS.md §1a) makes this a
//! byte-identity claim at every thread count, not just verdict
//! agreement, and these tests hold the implementations to it.

use gpd::singular::{
    possibly_singular_subsets, possibly_singular_subsets_budgeted,
    possibly_singular_subsets_reference,
};
use gpd::{counters, Budget, BudgetMeter, CnfClause, SingularCnf};
use gpd_computation::{gen, BoolVariable, Computation, ComputationBuilder, Cut, ProcessId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The subset engine at `threads` under an unlimited budget.
fn subsets_at(
    comp: &Computation,
    var: &BoolVariable,
    phi: &SingularCnf,
    threads: usize,
) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_singular_subsets_budgeted(comp, var, phi, threads, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

/// A random singular CNF carving the processes into clauses of size 1–3.
fn random_singular<R: Rng>(rng: &mut R, n: usize, max_clauses: usize) -> SingularCnf {
    let mut procs: Vec<usize> = (0..n).collect();
    for i in (1..procs.len()).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut clauses = Vec::new();
    let mut rest = procs.as_slice();
    while !rest.is_empty() && clauses.len() < max_clauses {
        let k = rng.gen_range(1..=rest.len().min(3));
        let (now, later) = rest.split_at(k);
        clauses.push(CnfClause::new(
            now.iter()
                .map(|&p| (ProcessId::new(p), rng.gen_bool(0.5)))
                .collect(),
        ));
        rest = later;
    }
    SingularCnf::new(clauses)
}

/// A local copy of the bench crate's E5 conflict gadget (the bench crate
/// is not a dependency of these tests): `groups` wide clauses over
/// always-true processes plus a two-clause gadget whose only true states
/// are mutually inconsistent, so every `2² · widthᵍ` literal combination
/// must be scanned before rejecting.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sequential prefix-shared detection returns the *byte-identical*
    /// `Option<Cut>` of the retained restart-loop reference.
    #[test]
    fn incremental_subsets_match_the_reference_byte_for_byte(
        seed in any::<u64>(),
        n in 2usize..7,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_singular(&mut rng, n, 3);

        let reference = possibly_singular_subsets_reference(&comp, &x, &phi);
        prop_assert_eq!(&possibly_singular_subsets(&comp, &x, &phi), &reference);
        prop_assert_eq!(&subsets_at(&comp, &x, &phi, 0), &reference);
    }

    /// The snapshot-resuming parallel walk returns the reference witness
    /// at every thread count, and its witnesses satisfy Φ.
    #[test]
    fn snapshot_resume_agrees_at_every_thread_count(
        seed in any::<u64>(),
        n in 2usize..7,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = random_singular(&mut rng, n, 3);

        let reference = possibly_singular_subsets_reference(&comp, &x, &phi);
        for threads in [1usize, 2, 4] {
            let par = subsets_at(&comp, &x, &phi, threads);
            prop_assert_eq!(&par, &reference, "threads {}", threads);
            if let Some(cut) = par {
                prop_assert!(comp.is_consistent(&cut));
                prop_assert!(phi.eval(&x, &cut));
            }
        }
    }
}

/// On the E5-style wide-clause unsat workload — where every literal
/// combination must be scanned — the incremental walk rejects like the
/// reference at every thread count, and sequentially it does so with
/// strictly fewer `forces` evaluations.
#[test]
fn wide_unsat_workload_rejects_identically_and_cheaper() {
    let (comp, var, phi) = wide_unsat(4, 2, 4);

    let before = counters::snapshot();
    let reference = possibly_singular_subsets_reference(&comp, &var, &phi);
    let reference_work = counters::snapshot().since(&before);
    assert!(reference.is_none());

    let before = counters::snapshot();
    let incremental = possibly_singular_subsets(&comp, &var, &phi);
    let incremental_work = counters::snapshot().since(&before);
    assert!(incremental.is_none());

    // Concurrent tests in this process can only inflate the incremental
    // side's delta, so this inequality is conservative.
    assert!(
        incremental_work.forces_evals < reference_work.forces_evals,
        "incremental {} vs reference {} forces evaluations",
        incremental_work.forces_evals,
        reference_work.forces_evals
    );

    for threads in [1usize, 2, 4] {
        assert!(subsets_at(&comp, &var, &phi, threads).is_none());
    }
}
