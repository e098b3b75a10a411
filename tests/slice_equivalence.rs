//! Equivalence contract of the computation-slicing engine (`gpd::slice`):
//! the exact regular-predicate detectors must agree with the exhaustive
//! oracles, and the *SliceReduce* pre-pass must leave verdicts and
//! witnesses **byte-identical** to the unsliced canonical engines at
//! every thread count — the slice may only shrink the work, never bend
//! the answer (docs/ALGORITHMS.md §12).

mod support;

use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
    possibly_by_enumeration_budgeted,
};
use gpd::singular::possibly_singular_budgeted;
use gpd::slice::{
    cnf_envelope, definitely_levelwise_sliced_budgeted, definitely_slice,
    possibly_by_enumeration_sliced_budgeted, possibly_singular_sliced_budgeted, possibly_slice,
    ChannelOp, RegularPredicate, Slice,
};
use gpd::{Budget, BudgetMeter, Checkpoint, CnfClause, SingularCnf, Verdict};
use gpd_computation::{gen, BoolVariable, Computation, Cut, ProcessId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A random regular predicate: per-process allowed-state sets on ~70% of
/// the processes, plus a bound on a real channel half the time.
fn random_regular<R: Rng>(rng: &mut R, comp: &Computation, density: f64) -> RegularPredicate {
    let mut pred = RegularPredicate::unconstrained(comp);
    for p in 0..comp.process_count() {
        if rng.gen_bool(0.7) {
            let allowed: Vec<bool> = (0..=comp.events_on(p))
                .map(|_| rng.gen_bool(density))
                .collect();
            pred = pred.require_states(p, allowed);
        }
    }
    if rng.gen_bool(0.5) {
        if let Some(&(s, r)) = comp.messages().first() {
            let op = if rng.gen_bool(0.5) {
                ChannelOp::AtMost
            } else {
                ChannelOp::AtLeast
            };
            pred = pred.require_channel(
                comp,
                comp.process_of(s),
                comp.process_of(r),
                op,
                rng.gen_range(0..3),
            );
        }
    }
    pred
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The polynomial fixpoint detectors agree with the exhaustive
    /// oracles on every random regular predicate — and `possibly_slice`
    /// returns the byte-identical least witness.
    #[test]
    fn exact_regular_detection_matches_the_oracles(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..6,
        density in 0.3f64..0.8,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let pred = random_regular(&mut rng, &comp, density);

        prop_assert_eq!(
            possibly_slice(&comp, &pred),
            possibly_by_enumeration(&comp, |cut| pred.holds(cut))
        );
        let oracle = definitely_by_enumeration(&comp, |cut| pred.holds(cut));
        prop_assert_eq!(definitely_slice(&comp, &pred), oracle);
        for threads in [0, 1, 2] {
            let sweep = definitely_levelwise_budgeted(
                &comp,
                |cut| pred.holds(cut),
                threads,
                &Budget::unlimited(),
                &BudgetMeter::new(),
                None,
            )
            .unwrap();
            prop_assert_eq!(sweep.value(), Some(&oracle), "threads {}", threads);
        }
    }

    /// `Slice::build`'s worklist sweep equals the slice read off the
    /// enumerated lattice: `J(e)` is the meet of the `B`-cuts containing
    /// `e` (absent when none does), `m` and `M` are the meet and join of
    /// all `B`-cuts, and the classes are the distinct `J` values.
    #[test]
    fn slice_matches_the_enumerated_b_cuts(
        seed in any::<u64>(),
        n in 1usize..5,
        m in 1usize..5,
        msgs in 0usize..8,
        density in 0.3f64..0.95,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let msgs = if n > 1 { msgs } else { 0 };
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let pred = random_regular(&mut rng, &comp, density);
        let b_cuts: Vec<Vec<u32>> = comp
            .consistent_cuts()
            .filter(|c| pred.holds(c))
            .map(|c| c.frontier().to_vec())
            .collect();
        let fold = |cuts: &mut dyn Iterator<Item = &Vec<u32>>, pick: fn(u32, u32) -> u32| {
            cuts.fold(None, |acc: Option<Vec<u32>>, f| match acc {
                None => Some(f.clone()),
                Some(a) => Some(a.iter().zip(f).map(|(&x, &y)| pick(x, y)).collect()),
            })
        };
        let slice = Slice::build(&comp, &pred);
        prop_assert_eq!(
            slice.least().map(|c| c.frontier().to_vec()),
            fold(&mut b_cuts.iter(), u32::min)
        );
        prop_assert_eq!(
            slice.greatest().map(|c| c.frontier().to_vec()),
            fold(&mut b_cuts.iter(), u32::max)
        );
        let mut classes = std::collections::HashSet::new();
        for e in comp.events() {
            let (p, k) = (comp.process_of(e).index(), comp.local_index(e));
            let j = fold(&mut b_cuts.iter().filter(|f| f[p] >= k), u32::min);
            prop_assert_eq!(slice.j(e), j.as_deref(), "J({:?})", e);
            classes.extend(j);
        }
        prop_assert_eq!(slice.nodes_before(), comp.event_count());
        prop_assert_eq!(slice.nodes_after(), classes.len());
    }

    /// Slice-then-enumerate is byte-identical to plain enumeration — the
    /// full `Verdict`, witness included — at 1, 2 and 4 threads, for a
    /// CNF Φ sliced on its unit-clause envelope.
    #[test]
    fn sliced_enumeration_is_byte_identical(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..4,
        msgs in 0usize..6,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = support::singular_cnf(&mut rng, n, 3, true);
        let env = cnf_envelope(&comp, &x, &phi).expect("first clause is a unit clause");
        let slice = Slice::build(&comp, &env);

        let plain = possibly_by_enumeration_budgeted(
            &comp, |c| phi.eval(&x, c), 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        let plain_def = definitely_levelwise_budgeted(
            &comp, |c| phi.eval(&x, c), 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        for threads in [1usize, 2, 4] {
            let sliced = possibly_by_enumeration_sliced_budgeted(
                &comp, &slice, |c| phi.eval(&x, c), threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain.value().unwrap(), sliced.value().unwrap(),
                "possibly witness, threads {}", threads
            );
            let sliced_def = definitely_levelwise_sliced_budgeted(
                &comp, &slice, |c| phi.eval(&x, c), threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain_def.value().unwrap(), sliced_def.value().unwrap(),
                "definitely verdict, threads {}", threads
            );
        }
    }

    /// The window-pruned singular odometer engines return the
    /// byte-identical witness of the unsliced dispatcher at every thread
    /// count (the prune keeps the combination shape, so the walk order
    /// is untouched).
    #[test]
    fn sliced_singular_dispatch_is_byte_identical(
        seed in any::<u64>(),
        n in 2usize..6,
        m in 1usize..4,
        msgs in 0usize..6,
        density in 0.2f64..0.7,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let comp = gen::random_computation(&mut rng, n, m, msgs);
        let x = gen::random_bool_variable(&mut rng, &comp, density);
        let phi = support::singular_cnf(&mut rng, n, 3, true);
        let env = cnf_envelope(&comp, &x, &phi).expect("first clause is a unit clause");
        let slice = Slice::build(&comp, &env);

        let plain = possibly_singular_budgeted(
            &comp, &x, &phi, 0, &Budget::unlimited(), &BudgetMeter::new(), None,
        ).unwrap();
        for threads in [1usize, 2, 4] {
            let sliced = possibly_singular_sliced_budgeted(
                &comp, &x, &phi, &slice, threads,
                &Budget::unlimited(), &BudgetMeter::new(), None,
            ).unwrap();
            prop_assert_eq!(
                plain.value().unwrap(), sliced.value().unwrap(),
                "threads {}", threads
            );
        }
    }
}

/// A CNF whose unit clause on the last (free) process gives the
/// pre-pass an envelope, with a second clause reaching into the chain.
fn wide_cnf<R: Rng>(rng: &mut R, n: usize) -> SingularCnf {
    SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(n - 1), true)]),
        CnfClause::new(vec![
            (ProcessId::new(n - 2), rng.gen_bool(0.5)),
            (ProcessId::new(rng.gen_range(0..n - 3)), true),
        ]),
    ])
}

/// The sliced sweeps on a 70-process message chain (two-word removable
/// masks) and on 33 processes whose frontier needs 99 bits: verdicts
/// and witnesses byte-identical to the unsliced sweep at 0/1/2/4
/// threads.
#[test]
fn sliced_sweeps_over_wide_records_are_byte_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3303);
    for (i, comp) in [
        support::chain_plus_free(68, 2, 2),
        support::chain_plus_free(30, 2, 3),
    ]
    .iter()
    .enumerate()
    {
        let n = comp.process_count();
        for round in 0..4 {
            let at = format!("shape {i}, round {round}");
            let x = gen::random_bool_variable(&mut rng, comp, 0.5);
            let phi = wide_cnf(&mut rng, n);
            let env = cnf_envelope(comp, &x, &phi).expect("a unit clause");
            let slice = Slice::build(comp, &env);
            let pred = |c: &Cut| phi.eval(&x, c);
            let unlimited = Budget::unlimited();
            let plain = possibly_by_enumeration_budgeted(
                comp,
                pred,
                0,
                &unlimited,
                &BudgetMeter::new(),
                None,
            )
            .unwrap();
            let plain_def =
                definitely_levelwise_budgeted(comp, pred, 0, &unlimited, &BudgetMeter::new(), None)
                    .unwrap();
            for threads in [0usize, 1, 2, 4] {
                let sliced = possibly_by_enumeration_sliced_budgeted(
                    comp,
                    &slice,
                    pred,
                    threads,
                    &unlimited,
                    &BudgetMeter::new(),
                    None,
                )
                .unwrap();
                assert_eq!(sliced.value(), plain.value(), "{at}, threads {threads}");
                let sliced_def = definitely_levelwise_sliced_budgeted(
                    comp,
                    &slice,
                    pred,
                    threads,
                    &unlimited,
                    &BudgetMeter::new(),
                    None,
                )
                .unwrap();
                assert_eq!(
                    sliced_def.value(),
                    plain_def.value(),
                    "{at}, threads {threads}"
                );
            }
        }
    }
}

/// A sliced sweep stopped half-way by a node cap leaves a checkpoint
/// whose text round-trips, and resuming it reaches the uninterrupted
/// verdict and witness at every thread count.
#[test]
fn sliced_sweeps_resume_mid_sweep_checkpoints() {
    let comp = support::chain_plus_free(30, 2, 3);
    // Φ = x@32 ∧ (x@31 ∨ x@4), true only at states 3 and 5 of the free
    // processes 32 and 31: Possibly finds it on level 8, and Definitely
    // must sweep ¬Φ almost to the top of the window before deciding.
    let mut tracks: Vec<Vec<bool>> = (0..33)
        .map(|p| vec![false; comp.events_on(p) + 1])
        .collect();
    tracks[32][3] = true;
    tracks[31][5] = true;
    let x = BoolVariable::new(&comp, tracks);
    let phi = SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(32), true)]),
        CnfClause::new(vec![(ProcessId::new(31), true), (ProcessId::new(4), true)]),
    ]);
    let slice = Slice::build(
        &comp,
        &cnf_envelope(&comp, &x, &phi).expect("a unit clause"),
    );
    let pred = |c: &Cut| phi.eval(&x, c);
    /// One budgeted sweep: budget, meter, resume point.
    type Sweep<'a, T> = dyn Fn(&Budget, &BudgetMeter, Option<&Checkpoint>) -> Verdict<T> + 'a;
    /// Interrupts at half the uninterrupted node count, then resumes
    /// from the re-parsed checkpoint without a budget.
    fn halted_then_resumed<T: Clone + PartialEq + std::fmt::Debug>(run: &Sweep<T>, what: &str) {
        let meter = BudgetMeter::new();
        let full = run(&Budget::unlimited(), &meter, None);
        let cap = Budget::unlimited().with_max_nodes(meter.nodes() / 2);
        let Verdict::Unknown(partial) = run(&cap, &BudgetMeter::new(), None) else {
            panic!("{what}: half the nodes cannot finish");
        };
        let back = Checkpoint::from_text(&partial.checkpoint.to_text()).expect("parses");
        assert_eq!(back, partial.checkpoint, "{what}");
        let resumed = run(&Budget::unlimited(), &BudgetMeter::new(), Some(&back));
        assert_eq!(resumed.value(), full.value(), "{what}");
    }
    for threads in [0usize, 1, 2, 4] {
        halted_then_resumed(
            &|b, m, r| {
                possibly_by_enumeration_sliced_budgeted(&comp, &slice, pred, threads, b, m, r)
                    .unwrap()
            },
            &format!("sliced Possibly, threads {threads}"),
        );
        halted_then_resumed(
            &|b, m, r| {
                definitely_levelwise_sliced_budgeted(&comp, &slice, pred, threads, b, m, r).unwrap()
            },
            &format!("sliced Definitely, threads {threads}"),
        );
    }
}
