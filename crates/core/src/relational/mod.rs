//! Relational and exact-sum predicate detection (the paper's §4).
//!
//! For one integer variable `xᵢ` per process:
//!
//! * [`possibly_sum`] — `Possibly(Σxᵢ relop K)` for `relop ∈ {<, ≤, >, ≥}`
//!   in polynomial time via one maximum-weight-closure (max-flow)
//!   computation, for **arbitrary** per-event increments.
//! * [`min_sum_cut`] / [`max_sum_cut`] — the extreme sums over all
//!   consistent cuts, with witnessing cuts; [`sum_extremes`] answers
//!   both at once from one shared flow network.
//! * [`possibly_exact_sum_budgeted`] — `Possibly(Σxᵢ = K)`: under the
//!   ±1-step restriction the paper's Theorem 7(1) reduction, with the
//!   Theorem 4 path walk producing the witness cut; for larger steps a
//!   budgeted lattice enumeration inside the closure bounds.
//! * `Definitely(Σxᵢ = K)` (Theorem 7(2) for ±1 steps) and exact
//!   `Definitely(Σ relop K)` run polynomial short-circuits, then a lattice
//!   path-avoidance sweep (worst-case exponential; the paper defers these
//!   primitives to prior work, and Theorem 7 only needs their *answers*).
//!   Ask them through [`crate::detect()`].
//!
//! Dropping the ±1 restriction makes exact sums NP-complete (Theorem 2);
//! [`crate::hardness::reduce_subset_sum`] is that reduction, executable.

mod definitely;
mod exact;
mod optimize;

pub(crate) use definitely::definitely_sum_short_circuit;
pub use exact::possibly_exact_sum_budgeted;
pub(crate) use exact::{definitely_exact_sum_budgeted, exact_sum_witness, NotUnitStepError};
pub use optimize::{max_sum_cut, min_sum_cut, possibly_sum, sum_extremes};
