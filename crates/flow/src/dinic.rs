//! Dinic's maximum-flow algorithm with minimum-cut extraction: the
//! test-only differential oracle for the push-relabel engine.

use crate::push_relabel::INF_CAP;

#[derive(Debug, Clone)]
struct Edge {
    to: u32,
    cap: i64,
    // Index of the reverse edge in `edges`.
    rev: u32,
}

/// A directed flow network on vertices `0..n` with integer capacities.
///
/// Supports repeated edge insertion, then [`max_flow`](Self::max_flow)
/// (which consumes residual capacity in place) and
/// [`min_cut`](Self::min_cut) on the resulting residual graph.
#[derive(Debug, Clone)]
pub(crate) struct FlowNetwork {
    adj: Vec<Vec<u32>>,
    edges: Vec<Edge>,
}

impl FlowNetwork {
    /// Creates a network with `n` vertices and no edges.
    pub(crate) fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// The number of vertices.
    fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u → v` with capacity `cap` (and its zero-
    /// capacity residual reverse edge).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, cap: i64) {
        let n = self.vertex_count();
        assert!(u < n && v < n, "edge ({u}, {v}) out of range {n}");
        assert!(cap >= 0, "negative capacity {cap}");
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            to: v as u32,
            cap,
            rev: e + 1,
        });
        self.edges.push(Edge {
            to: u as u32,
            cap: 0,
            rev: e,
        });
        self.adj[u].push(e);
        self.adj[v].push(e + 1);
    }

    /// Adds an effectively-unbounded edge `u → v`.
    pub(crate) fn add_infinite_edge(&mut self, u: usize, v: usize) {
        self.add_edge(u, v, INF_CAP);
    }

    /// Computes the maximum flow from `s` to `t`, mutating residual
    /// capacities in place. Dinic's algorithm: O(V²E), and O(E √V) on the
    /// unit-capacity graphs produced by matchings.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let n = self.vertex_count();
        assert!(s < n && t < n && s != t, "invalid terminals ({s}, {t})");
        let mut total = 0i64;
        loop {
            let level = self.bfs_levels(s);
            if level[t] == u32::MAX {
                return total;
            }
            let mut iter = vec![0usize; n];
            loop {
                let pushed = self.dfs_push(s, t, INF_CAP, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
    }

    fn bfs_levels(&self, s: usize) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.vertex_count()];
        level[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &ei in &self.adj[u] {
                let e = &self.edges[ei as usize];
                if e.cap > 0 && level[e.to as usize] == u32::MAX {
                    level[e.to as usize] = level[u] + 1;
                    queue.push_back(e.to as usize);
                }
            }
        }
        level
    }

    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        limit: i64,
        level: &[u32],
        iter: &mut [usize],
    ) -> i64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.adj[u].len() {
            let ei = self.adj[u][iter[u]] as usize;
            let (to, cap) = (self.edges[ei].to as usize, self.edges[ei].cap);
            if cap > 0 && level[to] == level[u] + 1 {
                let pushed = self.dfs_push(to, t, limit.min(cap), level, iter);
                if pushed > 0 {
                    self.edges[ei].cap -= pushed;
                    let rev = self.edges[ei].rev as usize;
                    self.edges[rev].cap += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// After [`max_flow`](Self::max_flow), returns the source side of a
    /// minimum cut: every vertex still reachable from `s` in the residual
    /// graph, in increasing order.
    pub(crate) fn min_cut(&self, s: usize) -> Vec<usize> {
        let level = self.bfs_levels(s);
        (0..self.vertex_count())
            .filter(|&v| level[v] != u32::MAX)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn bottleneck_on_path() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 10);
        net.add_edge(1, 2, 3);
        net.add_edge(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 3);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure: max flow 23.
        let mut net = FlowNetwork::new(6);
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        for (u, v, c) in edges {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_terminals_have_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 0);
        assert_eq!(net.min_cut(0), vec![0, 1]);
    }

    #[test]
    fn min_cut_capacity_equals_max_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        net.add_edge(1, 2, 100);
        let flow = net.max_flow(0, 3);
        assert_eq!(flow, 5);
        let cut = net.min_cut(0);
        assert!(cut.contains(&0));
        assert!(!cut.contains(&3));
    }

    #[test]
    fn infinite_edges_are_never_cut() {
        let mut net = FlowNetwork::new(3);
        net.add_infinite_edge(0, 1);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
    }

    #[test]
    #[should_panic(expected = "invalid terminals")]
    fn same_source_and_sink_panics() {
        FlowNetwork::new(2).max_flow(1, 1);
    }

    #[test]
    #[should_panic(expected = "negative capacity")]
    fn negative_capacity_panics() {
        FlowNetwork::new(2).add_edge(0, 1, -1);
    }

    #[test]
    fn matches_brute_force_on_random_small_networks() {
        use rand::{Rng, SeedableRng};

        // Brute force: enumerate all s-t cuts and take the minimum
        // capacity (max-flow = min-cut).
        fn brute_min_cut(n: usize, edges: &[(usize, usize, i64)]) -> i64 {
            let mut best = i64::MAX;
            for mask in 0u32..(1 << n) {
                if mask & 1 == 0 || mask >> (n - 1) & 1 == 1 {
                    continue; // s must be inside, t outside
                }
                let cap: i64 = edges
                    .iter()
                    .filter(|&&(u, v, _)| mask >> u & 1 == 1 && mask >> v & 1 == 0)
                    .map(|&(_, _, c)| c)
                    .sum();
                best = best.min(cap);
            }
            best
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let n = rng.gen_range(2..7);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.4) {
                        edges.push((u, v, rng.gen_range(0..8i64)));
                    }
                }
            }
            let mut net = FlowNetwork::new(n);
            for &(u, v, c) in &edges {
                net.add_edge(u, v, c);
            }
            assert_eq!(net.max_flow(0, n - 1), brute_min_cut(n, &edges));
        }
    }
}
