//! Maximum-weight closures for relational predicate detection.
//!
//! The polynomial algorithms for `Possibly(x₁ + … + xₙ relop K)` reduce the
//! question "what is the minimum (or maximum) value of a separable sum over
//! all consistent cuts?" to a **maximum-weight closure** problem on the
//! event DAG: a consistent cut is a closed set of events, and each event
//! carries the increment it applies to the sum. Maximum-weight closure is
//! classically solved with one s-t minimum cut, which this crate computes
//! with phase 1 of highest-label push-relabel (gap and global-relabel
//! heuristics, flat CSR arrays) on the reversed network.
//!
//! A solve whose weights reach beyond ±1 is warm-started: a greedy pass
//! over the constraint edges in topological order routes what it can
//! before push-relabel runs, so discharging only moves the excess the
//! pass left over. On an event DAG whose process-chain edges are listed
//! before its message edges, it routes each send's weight straight to
//! its receive; on bank traces it leaves nothing to discharge on the
//! maximizing side. A 0/±1 indicator network starts cold: there the pass
//! strands units down process chains and discharging them back costs
//! more than it saves (a mutex trace's maximizing `in_cs` solve takes
//! 0.17 ms cold and 1.0 ms warm). The pass changes how much work a solve
//! does, never which closure it returns.
//!
//! * [`max_weight_closure`] — the minimal maximum-weight closed subset of
//!   a DAG.
//! * [`weight_closure_extremes`] — both extremes (the weights and their
//!   negation) from one shared network, solved twice.
//!
//! # Example
//!
//! ```
//! use gpd_flow::max_weight_closure;
//!
//! // Vertex 0 (worth 4) needs 1 (costs 1); vertex 2 (worth 1) needs 3
//! // (costs 3). Only the first pair pays.
//! let c = max_weight_closure(&[4, -1, 1, -3], &[(0, 1), (2, 3)]);
//! assert_eq!(c.weight, 3);
//! assert_eq!(c.members, vec![0, 1]);
//! ```

mod closure;
#[cfg(test)]
mod dinic;
mod push_relabel;

pub use closure::{max_weight_closure, weight_closure_extremes, Closure};
