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
//! | Singular k-CNF | [`singular::possibly_singular_ordered`] (polynomial when receive-/send-ordered), [`singular::possibly_singular_subsets`] and [`singular::possibly_singular_chains`] (exponential, but exponentially better than enumeration), NP-complete in general via [`hardness::reduce_sat`] | §3 |
//! | Relational `Σxᵢ relop K` | [`relational::possibly_sum`] (one max-flow, polynomial) | §4 background |
//! | Exact sum `Σxᵢ = K`, ±1 steps | [`relational::possibly_exact_sum`] / [`relational::definitely_exact_sum`] (Theorem 7, polynomial) | §4.2 |
//! | Exact sum, arbitrary steps | NP-complete via [`hardness::reduce_subset_sum`] | §4.1 |
//! | Symmetric boolean predicates | [`symmetric::possibly_symmetric`] (polynomial) | §4.3 |
//! | Linear predicates | [`linear::possibly_linear`] (forbidden-process walk, polynomial) | Fig. 1 taxonomy |
//! | Stable predicates | [`stable::possibly_stable`] (one evaluation) | Fig. 1 taxonomy |
//! | Anything | [`enumerate::possibly_by_enumeration`] / [`enumerate::definitely_by_enumeration`] (exact, exponential baseline) | baseline |
//! | Regular predicates (conjunctions of local states and channel bounds) | [`slice::possibly_slice`] / [`slice::definitely_slice`] (computation slicing, polynomial); [`slice::Slice`] also drives the *SliceReduce* pre-pass that windows the NP-hard engines | §5 outlook / Mittal–Garg slicing |
//!
//! # Quickstart
//!
//! ```
//! use gpd::singular::possibly_singular;
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
//! // (x₀) ∧ (¬x₁): singular 1-CNF — here simply conjunctive.
//! let phi = SingularCnf::new(vec![
//!     CnfClause::new(vec![(0.into(), true)]),
//!     CnfClause::new(vec![(1.into(), false)]),
//! ]);
//! let witness = possibly_singular(&comp, &x, &phi).expect("cut exists");
//! assert!(phi.eval(&x, &witness));
//! ```

pub mod abstraction;
pub mod budget;
pub mod conjunctive;
mod conjunctive_definitely;
pub mod counters;
pub mod enumerate;
pub mod hardness;
pub mod linear;
pub mod online;
pub mod par;
mod pool;
mod predicate;
pub mod relational;
mod scan;
pub mod singular;
pub mod slice;
pub mod stable;
pub mod symmetric;

pub use budget::{
    problem_fingerprint, Budget, BudgetMeter, Checkpoint, CheckpointError, DetectError,
    ExhaustReason, Partial, Progress, Verdict,
};
pub use predicate::{CnfClause, Relop, SingularCnf};
pub use relational::NotUnitStepError;
pub use symmetric::SymmetricPredicate;
