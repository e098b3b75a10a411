//! Directed acyclic graphs, topological sorting and transitive closure.

use crate::bitset::{BitMatrix, BitSet};

/// Error returned when an operation requires acyclicity but the graph has a
/// directed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleError;

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a directed cycle")
    }
}

impl std::error::Error for CycleError {}

/// A directed graph on vertices `0..n`, intended to carry a partial order.
///
/// Edges mean "precedes". The graph may temporarily contain cycles (e.g.
/// while the §3.2 order extension is being validated); operations that
/// require acyclicity return [`CycleError`] instead of panicking.
///
/// # Example
///
/// ```
/// use gpd_order::Dag;
///
/// let mut dag = Dag::new(3);
/// dag.add_edge(0, 1);
/// dag.add_edge(1, 2);
/// assert_eq!(dag.topo_sort().unwrap(), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dag {
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
}

impl Dag {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Dag {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut dag = Dag::new(n);
        for (u, v) in edges {
            dag.add_edge(u, v);
        }
        dag
    }

    /// The number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.succ.len()
    }

    /// The number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Adds the edge `u → v`. Parallel edges are kept; self-loops are
    /// rejected by the acyclicity check later.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        let n = self.vertex_count();
        assert!(u < n && v < n, "edge ({u}, {v}) out of range {n}");
        self.succ[u].push(v as u32);
        self.pred[v].push(u as u32);
    }

    /// The direct successors of `u`.
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.succ[u]
    }

    /// The direct predecessors of `u`.
    pub fn predecessors(&self, u: usize) -> &[u32] {
        &self.pred[u]
    }

    /// Returns a topological order, or [`CycleError`] if the graph has a
    /// cycle. Kahn's algorithm; ties are broken by vertex index so the
    /// result is deterministic.
    pub fn topo_sort(&self) -> Result<Vec<usize>, CycleError> {
        let n = self.vertex_count();
        let mut indeg: Vec<usize> = (0..n).map(|v| self.pred[v].len()).collect();
        // A binary heap would give lexicographically-least order; a simple
        // FIFO keeps this O(V + E), and determinism is all we need.
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.succ[u] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push_back(v as usize);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(CycleError)
        }
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_sort().is_ok()
    }

    /// Computes the reflexive-free transitive closure.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError`] if the graph has a cycle.
    pub fn transitive_closure(&self) -> Result<TransitiveClosure, CycleError> {
        let order = self.topo_sort()?;
        let n = self.vertex_count();
        let mut reach = BitMatrix::new(n);
        // Process in reverse topological order: when u is handled, every
        // successor's row is already complete.
        for &u in order.iter().rev() {
            for &v in &self.succ[u] {
                let v = v as usize;
                reach.set(u, v);
                reach.union_row_into(u, v);
            }
        }
        Ok(TransitiveClosure { reach })
    }
}

/// A reachability oracle for a partial order: answers `precedes`,
/// `concurrent` and down-set queries in O(1)/O(n / 64).
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    reach: BitMatrix,
}

impl TransitiveClosure {
    /// The number of elements in the order.
    pub fn len(&self) -> usize {
        self.reach.dim()
    }

    /// Whether the order is over an empty universe.
    pub fn is_empty(&self) -> bool {
        self.reach.dim() == 0
    }

    /// Whether `u` strictly precedes `v` (`u < v`).
    pub fn precedes(&self, u: usize, v: usize) -> bool {
        self.reach.get(u, v)
    }

    /// Whether `u ≤ v` in the reflexive order.
    pub fn precedes_eq(&self, u: usize, v: usize) -> bool {
        u == v || self.reach.get(u, v)
    }

    /// Whether `u` and `v` are incomparable (the paper's *independent*).
    pub fn concurrent(&self, u: usize, v: usize) -> bool {
        u != v && !self.precedes(u, v) && !self.precedes(v, u)
    }

    /// The strict up-set of `u` as a bitset (everything `u` precedes).
    pub fn up_set(&self, u: usize) -> &BitSet {
        self.reach.row(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn topo_sort_respects_edges() {
        let dag = diamond();
        let order = dag.topo_sort().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn cycle_is_detected() {
        let dag = Dag::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!dag.is_acyclic());
        assert_eq!(dag.topo_sort(), Err(CycleError));
        assert!(dag.transitive_closure().is_err());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let dag = Dag::from_edges(2, [(0, 0)]);
        assert!(!dag.is_acyclic());
    }

    #[test]
    fn closure_of_diamond() {
        let c = diamond().transitive_closure().unwrap();
        assert!(c.precedes(0, 3));
        assert!(c.precedes(0, 1) && c.precedes(0, 2));
        assert!(!c.precedes(3, 0));
        assert!(c.concurrent(1, 2));
        assert!(!c.concurrent(1, 1));
        assert!(c.precedes_eq(1, 1));
    }

    #[test]
    fn closure_of_chain_is_total() {
        let dag = Dag::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let c = dag.transitive_closure().unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.precedes(i, j), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let dag = Dag::new(0);
        assert!(dag.is_acyclic());
        let c = dag.transitive_closure().unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn up_set_matches_precedes() {
        let c = diamond().transitive_closure().unwrap();
        let up0: Vec<usize> = c.up_set(0).iter().collect();
        assert_eq!(up0, vec![1, 2, 3]);
    }
}
