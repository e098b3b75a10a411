//! Exact work of the level sweeps (see `gpd::enumerate`), measured on
//! the budget meter and the process-global kernel and pool counters.
//! This binary holds a single test so nothing else running in the
//! process can inflate the counters.
//!
//! On witness-free sweeps the Possibly sweep generates every consistent
//! cut exactly once (from its canonical parent) and probes it once, so
//! its meter reads one node per enabled lattice edge plus one per cut,
//! and the Definitely sweep's reads one per edge plus the initial probe
//! — at every thread count. Both expand every non-final cut once, so
//! the kernel's row reads and dominance batches are thread-count
//! invariant too, and equal to one full `CutIter` walk's. The planner's
//! Definitely sweeps take the caller's thread count, so they fan out too.

use std::sync::Mutex;

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::enumerate::{definitely_levelwise_budgeted, possibly_by_enumeration_budgeted};
use gpd::{counters, Budget, BudgetMeter};
use gpd_computation::{
    gen, kernel_counters, Computation, ComputationBuilder, Cut, IntVariable, KernelCounters,
};
use rand::SeedableRng;

/// Row reads and dominance batches since `before`.
fn kernel_since(before: &KernelCounters) -> (u64, u64) {
    let d = kernel_counters().since(before);
    (d.clock_row_reads, d.dominance_batches)
}

/// The lattice's cut count per level, and its enabled-edge count.
fn lattice_shape(comp: &Computation) -> (Vec<usize>, u64) {
    let mut widths = vec![0; comp.final_cut().event_count() + 1];
    let mut edges = 0u64;
    for cut in comp.consistent_cuts() {
        widths[cut.event_count()] += 1;
        edges += comp.cut_successors(&cut).len() as u64;
    }
    (widths, edges)
}

/// One witness-free Possibly sweep: the cuts its predicate saw, its
/// meter reading, and its kernel counter deltas.
fn possibly_work(comp: &Computation, threads: usize) -> (Vec<Cut>, u64, (u64, u64)) {
    let probed = Mutex::new(Vec::new());
    let meter = BudgetMeter::new();
    let before = kernel_counters();
    let verdict = possibly_by_enumeration_budgeted(
        comp,
        |cut: &Cut| {
            probed.lock().unwrap().push(cut.clone());
            false
        },
        threads,
        &Budget::unlimited(),
        &meter,
        None,
    )
    .expect("no checkpoint, no panic");
    let kernel = kernel_since(&before);
    assert_eq!(verdict.value(), Some(&None), "Φ never holds");
    (probed.into_inner().unwrap(), meter.nodes(), kernel)
}

/// One witness-free Definitely sweep: its meter reading and kernel
/// counter deltas.
fn definitely_work(comp: &Computation, threads: usize) -> (u64, (u64, u64)) {
    let meter = BudgetMeter::new();
    let before = kernel_counters();
    let verdict =
        definitely_levelwise_budgeted(comp, |_| false, threads, &Budget::unlimited(), &meter, None)
            .expect("no checkpoint, no panic");
    let kernel = kernel_since(&before);
    assert_eq!(verdict.value(), Some(&false), "Φ never holds");
    (meter.nodes(), kernel)
}

/// Pool waves one 2-thread Possibly sweep hands out.
fn waves_at_two_threads(comp: &Computation) -> u64 {
    let before = counters::snapshot();
    let verdict = possibly_by_enumeration_budgeted(
        comp,
        |_| false,
        2,
        &Budget::unlimited(),
        &BudgetMeter::new(),
        None,
    )
    .expect("no checkpoint, no panic");
    assert_eq!(verdict.value(), Some(&None));
    counters::snapshot().since(&before).par_waves
}

#[test]
fn level_sweeps_do_the_same_exact_work_at_every_thread_count() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1517);
    // Random computations wide enough that the middle levels pass the
    // sequential cutoff, so 2, 4 and 8 threads really fan out.
    let mut comps: Vec<Computation> = (0..4)
        .map(|i| gen::random_computation(&mut rng, 6, 5, 2 + i))
        .collect();
    // A 70-process message chain: masks and records wider than one word.
    let mut b = ComputationBuilder::new(70);
    let mut prev = None;
    for p in 0..70 {
        let e = b.append(p);
        if let Some(s) = prev {
            b.message(s, e).expect("distinct processes");
        }
        prev = Some(b.append(p));
    }
    comps.push(b.build().expect("a forward chain"));

    for (i, comp) in comps.iter().enumerate() {
        let (widths, edges) = lattice_shape(comp);
        let cuts: usize = widths.iter().sum();
        let before = kernel_counters();
        assert_eq!(comp.consistent_cuts().count(), cuts);
        let walk = kernel_since(&before);

        let mut reference = None;
        for threads in [0, 1, 2, 4, 8] {
            let at = format!("computation {i}, threads {threads}");
            let (probed, nodes, kernel) = possibly_work(comp, threads);
            // Every consistent cut is generated, and probed, once.
            let mut seen = vec![0; widths.len()];
            for cut in &probed {
                seen[cut.event_count()] += 1;
                assert!(comp.is_consistent(cut), "{at}: {cut:?}");
            }
            assert_eq!(seen, widths, "{at}: level sizes");
            let mut distinct = probed.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), cuts, "{at}: a cut was generated twice");
            // One node per enabled edge examined plus one per cut probed.
            assert_eq!(nodes, edges + cuts as u64, "{at}: Possibly nodes");
            assert_eq!(kernel, walk, "{at}: Possibly kernel work");

            let (d_nodes, d_kernel) = definitely_work(comp, threads);
            // The initial probe plus one node per enabled edge.
            assert_eq!(d_nodes, edges + 1, "{at}: Definitely nodes");
            assert_eq!(d_kernel, walk, "{at}: Definitely kernel work");
            let reading = (nodes, kernel, d_nodes, d_kernel);
            assert_eq!(*reference.get_or_insert(reading), reading, "{at}");
        }
    }

    // Levels past the cutoff fan out at 2 threads; a lattice whose
    // levels all sit below it never touches the pool.
    assert!(waves_at_two_threads(&comps[0]) > 0, "wide levels fan out");
    let mut b = ComputationBuilder::new(3);
    for p in 0..3 {
        for _ in 0..5 {
            b.append(p);
        }
    }
    let narrow = b.build().unwrap();
    assert!(lattice_shape(&narrow).0.iter().all(|&w| w < 64));
    assert_eq!(waves_at_two_threads(&narrow), 0, "narrow levels stay put");

    // An unbudgeted ±1 Definitely(Σ = K) through the planner. Six
    // processes each raise x once and lower it again: both endpoints sum
    // to 0 and the closure bound reaches 6, so no short-circuit decides
    // Σ = 6 and the sweep runs, over levels wide enough to fan out. A run
    // that lowers each x before the next rises avoids 6.
    let mut b = ComputationBuilder::new(6);
    for p in 0..6 {
        for _ in 0..3 {
            b.append(p);
        }
    }
    let fan = b.build().unwrap();
    let x = IntVariable::new(&fan, vec![vec![0, 1, 0, 0]; 6]);
    let definitely_six = |threads| {
        let query = Query {
            comp: &fan,
            predicate: Predicate::ExactSum { var: &x, k: 6 },
            modality: Modality::Definitely,
        };
        let options = Options {
            threads,
            ..Options::default()
        };
        let before = counters::snapshot();
        let report = gpd::detect(&query, &options).expect("±1 steps pass the guard");
        let waves = counters::snapshot().since(&before).par_waves;
        (report.verdict.value().cloned(), waves)
    };
    let (sequential, _) = definitely_six(0);
    assert_eq!(sequential, Some(Answer::Holds(false)));
    let (parallel, waves) = definitely_six(2);
    assert_eq!(
        parallel, sequential,
        "the verdict is thread-count invariant"
    );
    assert!(waves > 0, "the planner's Definitely(Σ = K) sweep fans out");
}
