//! The §3.3 chain-cover algorithm: cover each clause's true states with a
//! minimum number of chains and scan once per chain combination.

use gpd_computation::{BoolVariable, Computation, Cut};
use gpd_order::min_chain_cover_of_chains;

use crate::budget::{Budget, BudgetMeter, Checkpoint, DetectError, Verdict};
use crate::par::map_indexed;
use crate::predicate::SingularCnf;
use crate::scan::{run_odometer, Candidate};
use crate::singular::literal_states;

/// Engine name embedded in [`possibly_singular_chains_budgeted`]'s
/// checkpoints.
pub const SINGULAR_CHAINS: &str = "singular-chains";

/// Builds, for one clause, the minimum chain cover of its literal-true
/// states under the causal order on states (state `(p, k)` precedes
/// `(q, l)` when every cut through `(q, l)` contains `(p, k)`'s past).
///
/// Each literal's true states are one chain (a process's states in
/// order), so the clause's states are a union of chains and
/// [`min_chain_cover_of_chains`] covers them from one binary search per
/// state and literal.
fn clause_chains(
    comp: &Computation,
    var: &BoolVariable,
    clause: &crate::predicate::CnfClause,
) -> Vec<Vec<Candidate>> {
    let blocks: Vec<Vec<Candidate>> = clause
        .literals()
        .iter()
        .map(|&(p, positive)| literal_states(comp, var, p, positive))
        .collect();
    let lens: Vec<usize> = blocks.iter().map(Vec::len).collect();
    let states = blocks.concat();
    min_chain_cover_of_chains(&lens, |a, b| state_precedes(comp, states[a], states[b]))
        .into_chains()
        .into_iter()
        .map(|chain| chain.into_iter().map(|i| states[i]).collect())
        .collect()
}

/// Whether state `a` strictly precedes state `b`: `a`'s state clock is
/// pointwise ≤ `b`'s and differs from it. On one process that is program
/// order. Every initial state `(·, 0)` has the zero clock, so it precedes
/// every non-initial state and no initial one. Otherwise both states
/// follow an event, and Fidge–Mattern reduces the clock comparison to
/// one component: `b`'s event has seen at least `a`'s `k` events of
/// `a`'s process.
fn state_precedes(comp: &Computation, a: Candidate, b: Candidate) -> bool {
    if a.process == b.process {
        return a.state < b.state;
    }
    match (a.state, b.state) {
        (_, 0) => false,
        (0, _) => true,
        (k, l) => {
            let e = comp.event_at(b.process, l).expect("valid state");
            comp.clock_component(e, a.process.index()) >= k
        }
    }
}

/// The minimum chain-cover size of each clause's literal-true states —
/// the `cᵢ` whose product counts this algorithm's scans. Used by the E5
/// experiment to compare `∏ cᵢ` against the subset algorithm's `∏ kᵢ`.
pub fn chain_cover_sizes(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Vec<usize> {
    predicate
        .clauses()
        .iter()
        .map(|c| clause_chains(comp, var, c).len())
        .collect()
}

/// Decides `Possibly(Φ)` by covering each clause's literal-true states
/// with a minimum number of chains (Dilworth via bipartite matching) and
/// running one scan per combination of chains, one chain per clause:
/// `∏ᵢ cᵢ` scans where `cᵢ` is the clause's cover width. Since `cᵢ` never
/// exceeds the clause size (each process's states form one chain), this
/// performs at most as many scans as
/// [`possibly_singular_subsets_budgeted`](crate::singular::possibly_singular_subsets_budgeted)
/// and often exponentially fewer when true states are causally aligned.
///
/// Both phases fan out over `threads` workers (`0`/`1` → sequential):
/// the per-clause covers are built eagerly (polynomial, uncharged, and
/// independent per clause), then the `∏ᵢ cᵢ` combination walk runs
/// wave-synchronously, resumable from a checkpoint, and returns the
/// witness of the lowest-index live combination in odometer order at
/// every thread count. Panicking predicates surface as
/// [`DetectError::PredicatePanicked`].
///
/// # Errors
///
/// [`DetectError::CheckpointMismatch`] if `resume` belongs to another
/// engine, computation, or cover shape.
///
/// # Example
///
/// ```
/// use gpd::singular::possibly_singular_chains_budgeted;
/// use gpd::{Budget, BudgetMeter, CnfClause, SingularCnf};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
/// let phi = SingularCnf::new(vec![
///     CnfClause::new(vec![(0.into(), true), (1.into(), true)]),
/// ]);
/// let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
/// let verdict =
///     possibly_singular_chains_budgeted(&comp, &x, &phi, 0, &budget, &meter, None).unwrap();
/// assert!(matches!(verdict.value(), Some(Some(_))));
/// ```
pub fn possibly_singular_chains_budgeted(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
    budget: &Budget,
    meter: &BudgetMeter,
    resume: Option<&Checkpoint>,
) -> Result<Verdict<Option<Cut>>, DetectError> {
    let covers = chain_covers(comp, var, predicate, threads);
    run_odometer(
        SINGULAR_CHAINS,
        comp,
        threads,
        &covers,
        budget,
        meter,
        resume,
    )
}

/// Every clause's chain cover, built in parallel over `threads` workers
/// (the covers are independent per clause).
pub(super) fn chain_covers(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    threads: usize,
) -> Vec<Vec<Vec<Candidate>>> {
    let clauses = predicate.clauses();
    map_indexed(threads, clauses.len(), |i| {
        clause_chains(comp, var, &clauses[i])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::sequential;
    use crate::enumerate::possibly_by_enumeration;
    use crate::predicate::CnfClause;
    use crate::singular::possibly_singular_subsets_budgeted;
    use gpd_computation::{gen, ComputationBuilder, ProcessId};
    use gpd_order::{min_chain_cover, Dag};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The chain engine at 0 threads under an unlimited budget.
    fn possibly_singular_chains(
        comp: &Computation,
        var: &BoolVariable,
        phi: &SingularCnf,
    ) -> Option<Cut> {
        sequential(|t, b, m| possibly_singular_chains_budgeted(comp, var, phi, t, b, m, None))
    }

    /// The subset engine at 0 threads under an unlimited budget.
    fn possibly_singular_subsets(
        comp: &Computation,
        var: &BoolVariable,
        phi: &SingularCnf,
    ) -> Option<Cut> {
        sequential(|t, b, m| possibly_singular_subsets_budgeted(comp, var, phi, t, b, m, None))
    }

    /// The reference cover: compare every pair of states by their full
    /// state clocks, take the transitive closure of that relation, and
    /// cover it with [`min_chain_cover`].
    fn oracle_chains(
        comp: &Computation,
        var: &BoolVariable,
        clause: &CnfClause,
    ) -> Vec<Vec<Candidate>> {
        let states: Vec<Candidate> = clause
            .literals()
            .iter()
            .flat_map(|&(p, positive)| literal_states(comp, var, p, positive))
            .collect();
        let clock = |c: &Candidate| -> Vec<u32> {
            match comp.event_at(c.process, c.state) {
                None => vec![0; comp.process_count()],
                Some(e) => (0..comp.process_count())
                    .map(|q| comp.clock_component(e, q))
                    .collect(),
            }
        };
        let precedes = |a: &Candidate, b: &Candidate| {
            if a.process == b.process {
                return a.state < b.state;
            }
            let (ca, cb) = (clock(a), clock(b));
            ca != cb && ca.iter().zip(&cb).all(|(x, y)| x <= y)
        };
        let mut dag = Dag::new(states.len());
        for i in 0..states.len() {
            for j in 0..states.len() {
                if i != j && precedes(&states[i], &states[j]) {
                    dag.add_edge(i, j);
                }
            }
        }
        let closure = dag.transitive_closure().expect("a partial order");
        let elements: Vec<usize> = (0..states.len()).collect();
        min_chain_cover(&closure, &elements)
            .into_chains()
            .into_iter()
            .map(|chain| chain.into_iter().map(|i| states[i]).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The suffix-range cover equals the closure-based reference
        /// chain for chain, on clauses of 1–4 literals of either sign,
        /// with states true initially and clauses with no true state.
        #[test]
        fn cover_equals_the_closure_oracle(
            seed in any::<u64>(),
            n in 1usize..7,
            m in 0usize..7,
            msgs in 0usize..14,
            density in 0.05f64..0.95,
            empty in any::<bool>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let msgs = if n < 2 || m == 0 { 0 } else { msgs };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            // With `empty`, nothing holds and every literal is positive:
            // the clause has no true state.
            let x = gen::random_bool_variable(&mut rng, &comp, if empty { 0.0 } else { density });
            let mut procs: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                procs.swap(i, rng.gen_range(0..=i));
            }
            let k = rng.gen_range(1..=n.min(4));
            let clause = CnfClause::new(
                procs[..k]
                    .iter()
                    .map(|&p| (ProcessId::new(p), empty || rng.gen_bool(0.5)))
                    .collect(),
            );
            let want = oracle_chains(&comp, &x, &clause);
            prop_assert_eq!(clause_chains(&comp, &x, &clause), want.clone());
            if empty {
                prop_assert!(want.is_empty());
            }
        }
    }

    #[test]
    fn chain_cover_is_one_when_states_are_ordered() {
        // p0 sends to p1 between their true states: the two literal-true
        // states are causally ordered → one chain suffices.
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
        let phi = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        assert_eq!(chain_cover_sizes(&comp, &x, &phi), vec![1]);
        assert!(possibly_singular_chains(&comp, &x, &phi).is_some());
    }

    #[test]
    fn chain_cover_equals_clause_width_when_concurrent() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
        let phi = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        assert_eq!(chain_cover_sizes(&comp, &x, &phi), vec![2]);
    }

    #[test]
    fn agrees_with_enumeration_and_subsets_on_random_inputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(777);
        for round in 0..80 {
            let n = rng.gen_range(2..6);
            let m = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..2 * n);
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.35);
            // One or two clauses over a prefix of the processes.
            let phi = if n >= 4 && rng.gen_bool(0.5) {
                SingularCnf::new(vec![
                    CnfClause::new(vec![
                        (ProcessId::new(0), rng.gen_bool(0.5)),
                        (ProcessId::new(1), rng.gen_bool(0.5)),
                    ]),
                    CnfClause::new(vec![
                        (ProcessId::new(2), rng.gen_bool(0.5)),
                        (ProcessId::new(3), rng.gen_bool(0.5)),
                    ]),
                ])
            } else {
                SingularCnf::new(vec![CnfClause::new(
                    (0..n.min(3))
                        .map(|p| (ProcessId::new(p), rng.gen_bool(0.5)))
                        .collect(),
                )])
            };
            let via_chains = possibly_singular_chains(&comp, &x, &phi);
            let via_subsets = possibly_singular_subsets(&comp, &x, &phi);
            let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
            assert_eq!(via_chains.is_some(), slow.is_some(), "round {round}");
            assert_eq!(via_subsets.is_some(), slow.is_some(), "round {round}");
            if let Some(cut) = via_chains {
                assert!(phi.eval(&x, &cut), "round {round}");
            }
        }
    }

    #[test]
    fn cover_sizes_never_exceed_clause_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let comp = gen::random_computation(&mut rng, 4, 4, 5);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.5);
            let phi = SingularCnf::new(vec![CnfClause::new(vec![
                (0.into(), true),
                (1.into(), true),
                (2.into(), true),
            ])]);
            let sizes = chain_cover_sizes(&comp, &x, &phi);
            assert!(sizes[0] <= 3);
        }
    }
}
