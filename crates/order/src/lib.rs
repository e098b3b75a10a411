//! Partial-order toolkit underpinning global predicate detection.
//!
//! Distributed computations are partially ordered sets of events. Every
//! algorithm in the `gpd` crate ultimately manipulates that order: deciding
//! whether one event precedes another (transitive closure), covering the
//! "true" events of a process group with as few chains as possible
//! (Dilworth's theorem via bipartite matching).
//!
//! This crate provides those primitives in a dependency-free form:
//!
//! * [`BitSet`] and [`BitMatrix`] — dense bit storage used by everything
//!   else.
//! * [`Dag`] — a directed graph with cycle detection, topological sorting
//!   and transitive closure.
//! * [`TransitiveClosure`] — a reachability oracle (`precedes`, `concurrent`).
//! * [`min_chain_cover_of_chains`] — Dilworth decomposition of a poset
//!   given as a union of chains, from one binary search per element and
//!   chain; [`min_chain_cover`] is its closure-based reference.
//!
//! # Example
//!
//! ```
//! use gpd_order::Dag;
//!
//! // A diamond: 0 < 1, 0 < 2, 1 < 3, 2 < 3.
//! let mut dag = Dag::new(4);
//! dag.add_edge(0, 1);
//! dag.add_edge(0, 2);
//! dag.add_edge(1, 3);
//! dag.add_edge(2, 3);
//!
//! let closure = dag.transitive_closure().expect("acyclic");
//! assert!(closure.precedes(0, 3));
//! assert!(closure.concurrent(1, 2));
//! ```

mod bitset;
mod chains;
mod dag;
mod matching;

pub use bitset::{BitMatrix, BitSet};
pub use chains::{min_chain_cover, min_chain_cover_of_chains, ChainCover};
pub use dag::{CycleError, Dag, TransitiveClosure};
