//! E5 — the §3.3 general-case claim: "an exponential reduction in time
//! over existing techniques". The subset algorithm does ∏kᵢ polynomial
//! scans, the chain-cover algorithm ∏cᵢ ≤ ∏kᵢ, while the existing
//! technique — lattice enumeration — is exponential in the *events*.
//! Sweep the number of clauses (the exponent of the scan count) and
//! measure the crossover against enumeration at small sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpd::enumerate::possibly_by_enumeration;
use gpd::singular::{
    chain_cover_sizes, possibly_singular_chains, possibly_singular_chains_budgeted,
    possibly_singular_subsets, possibly_singular_subsets_budgeted,
};
use gpd::{Budget, BudgetMeter};
use gpd_bench::singular_workload;
use std::hint::black_box;

fn scan_count_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_clause_exponent");
    group.sample_size(10);
    for &groups in &[2usize, 4, 6, 8] {
        let (comp, var, phi) = singular_workload(5, groups, 3, 20, 0.3);
        group.bench_with_input(BenchmarkId::new("subsets", groups), &groups, |b, _| {
            b.iter(|| black_box(possibly_singular_subsets(&comp, &var, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("chains", groups), &groups, |b, _| {
            b.iter(|| black_box(possibly_singular_chains(&comp, &var, &phi)))
        });
        let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
        group.bench_with_input(BenchmarkId::new("subsets_par4", groups), &groups, |b, _| {
            b.iter(|| {
                black_box(possibly_singular_subsets_budgeted(
                    &comp, &var, &phi, 4, &budget, &meter, None,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("chains_par4", groups), &groups, |b, _| {
            b.iter(|| {
                black_box(possibly_singular_chains_budgeted(
                    &comp, &var, &phi, 4, &budget, &meter, None,
                ))
            })
        });
    }
    group.finish();
}

fn parallel_speedup(c: &mut Criterion) {
    // Wide unsatisfiable workload: all ∏kᵢ combinations must be rejected,
    // so the thread-count sweep measures pure work division — no
    // early-witness luck. Verdicts are identical across the sweep.
    let mut group = c.benchmark_group("e5_parallel_unsat");
    group.sample_size(10);
    let (comp, var, phi) = gpd_bench::wide_unsat_singular_workload(12, 3, 4);
    let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
    for &threads in &[0usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("subsets", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(possibly_singular_subsets_budgeted(
                        &comp, &var, &phi, threads, &budget, &meter, None,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn against_enumeration(c: &mut Criterion) {
    // Unsatisfiable instances with growing padding: the general
    // algorithms reject after scanning two short queues, enumeration
    // must sweep the O(pad⁴) lattice.
    let mut group = c.benchmark_group("e5_vs_enumeration_unsat");
    group.sample_size(10);
    for &pad in &[5usize, 10, 20] {
        let (comp, var, phi) = gpd_bench::unsat_singular_workload(pad);
        group.bench_with_input(BenchmarkId::new("subsets", pad), &pad, |b, _| {
            b.iter(|| black_box(possibly_singular_subsets(&comp, &var, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("enumeration", pad), &pad, |b, _| {
            b.iter(|| black_box(possibly_by_enumeration(&comp, |cut| phi.eval(&var, cut))))
        });
    }
    group.finish();
}

fn chain_cover_advantage(c: &mut Criterion) {
    // Relay pattern: every clause's true states on one causal chain, so
    // the chain algorithm schedules a single scan vs ∏kᵢ.
    let mut group = c.benchmark_group("e5_cover_sizes");
    let (comp, var, phi) = gpd_bench::relay_singular_workload(8, 6, 3, 6, 0.3);
    let sizes = chain_cover_sizes(&comp, &var, &phi);
    let subsets: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
    let chains: usize = sizes.iter().product();
    assert!(chains <= subsets);
    group.bench_function(format!("chains_{chains}_vs_subsets_{subsets}"), |b| {
        b.iter(|| black_box(possibly_singular_chains(&comp, &var, &phi)))
    });
    group.bench_function("subsets_same_workload", |b| {
        b.iter(|| black_box(possibly_singular_subsets(&comp, &var, &phi)))
    });
    group.finish();
}

criterion_group!(
    benches,
    scan_count_growth,
    against_enumeration,
    chain_cover_advantage,
    parallel_speedup
);
criterion_main!(benches);
