//! Global predicate detection in distributed computations.
//!
//! This crate implements the results of **Mittal & Garg, "On Detecting
//! Global Predicates in Distributed Computations" (ICDCS 2001)** on top of
//! the event-poset model in [`gpd_computation`]. Given a recorded
//! computation and per-process variables, it answers `Possibly(Φ)` — does
//! some consistent cut satisfy Φ? — and `Definitely(Φ)` — must every run
//! pass through such a cut? — for the predicate classes the paper studies:
//!
//! | Predicate class | Algorithms | Paper |
//! |---|---|---|
//! | Conjunctive `x₁ ∧ … ∧ xₙ` | [`conjunctive::possibly_conjunctive`] (Garg–Waldecker scan) and [`conjunctive::definitely_conjunctive`] (interval overlap) — both polynomial; [`online::ConjunctiveMonitor`] streams the former | §3 background |
//! | Singular k-CNF | [`singular::possibly_singular_ordered`] (polynomial when receive-/send-ordered), [`singular::possibly_singular_subsets_budgeted`] and [`singular::possibly_singular_chains_budgeted`] (exponential, but exponentially better than enumeration), NP-complete in general via [`hardness::reduce_sat`] | §3 |
//! | Relational `Σxᵢ relop K` | [`relational::possibly_sum`] (one max-flow, polynomial) | §4 background |
//! | Exact sum `Σxᵢ = K`, ±1 steps | [`detect()`] with [`detect::Predicate::ExactSum`]: Theorem 7, polynomial for Possibly ([`relational::possibly_exact_sum_budgeted`]) and one inequality sweep for Definitely | §4.2 |
//! | Exact sum, arbitrary steps | NP-complete via [`hardness::reduce_subset_sum`] | §4.1 |
//! | Symmetric boolean predicates | [`symmetric::possibly_symmetric`] (polynomial) | §4.3 |
//! | Anything | [`enumerate::possibly_by_enumeration`] / [`enumerate::definitely_by_enumeration`] (exact, exponential baseline) | baseline |
//! | Regular predicates (conjunctions of local states and channel bounds) | [`slice::possibly_slice`] / [`slice::definitely_slice`] (computation slicing, polynomial); [`slice::Slice`] also drives the *SliceReduce* pre-pass that windows the NP-hard engines | §5 outlook / Mittal–Garg slicing |
//! | Any of the classes above | [`detect()`]: one entry point that picks the engine by class and modality (the Fig. 1 taxonomy), applies SliceReduce, and runs under a thread count, budget and resume checkpoint | Fig. 1 taxonomy |
//!
//! # Quickstart
//!
//! ```
//! use gpd::detect::{Answer, Modality, Options, Predicate, Query};
//! use gpd::{CnfClause, SingularCnf};
//! use gpd_computation::{BoolVariable, ComputationBuilder};
//!
//! // Two processes, one event each, no messages.
//! let mut b = ComputationBuilder::new(2);
//! b.append(0);
//! b.append(1);
//! let comp = b.build().unwrap();
//!
//! // x₀ becomes true, x₁ becomes false.
//! let x = BoolVariable::new(&comp, vec![vec![false, true], vec![true, false]]);
//!
//! // (x₀) ∧ (¬x₁): a singular 1-CNF.
//! let phi = SingularCnf::new(vec![
//!     CnfClause::new(vec![(0.into(), true)]),
//!     CnfClause::new(vec![(1.into(), false)]),
//! ]);
//! let query = Query {
//!     comp: &comp,
//!     predicate: Predicate::SingularCnf { var: &x, cnf: &phi },
//!     modality: Modality::Possibly,
//! };
//! let report = gpd::detect(&query, &Options::default()).unwrap();
//! // One process per clause: the polynomial §3.2 scan applies.
//! assert_eq!(report.engine, "singular-ordered");
//! let Some(Answer::Witness(Some(witness))) = report.verdict.value() else {
//!     panic!("a cut exists")
//! };
//! assert!(phi.eval(&x, witness));
//! ```

// The README's Quickstart, compiled and run as a doctest.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeQuickstart;

pub mod abstraction;
pub mod budget;
pub mod conjunctive;
mod conjunctive_definitely;
pub mod counters;
pub mod detect;
pub mod enumerate;
pub mod hardness;
pub mod online;
pub mod par;
mod pool;
mod predicate;
pub mod relational;
mod scan;
pub mod singular;
pub mod slice;
pub mod symmetric;

pub use budget::{
    problem_fingerprint, Budget, BudgetMeter, Checkpoint, CheckpointError, DetectError,
    ExhaustReason, Partial, Progress, Verdict,
};
pub use detect::detect;
pub use predicate::{CnfClause, Relop, SingularCnf};
pub use symmetric::SymmetricPredicate;
