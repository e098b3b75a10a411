//! Maximum bipartite matching via Hopcroft–Karp.

/// A maximum matching in a bipartite graph.
///
/// Produced by [`match_runs`]. `pair_left[u]` is the right vertex
/// matched to left vertex `u`, if any; `pair_right` is the inverse map.
#[derive(Debug, Clone)]
pub(crate) struct Matching {
    /// For each left vertex, its matched right vertex.
    pub(crate) pair_left: Vec<Option<u32>>,
    /// For each right vertex, its matched left vertex.
    pub(crate) pair_right: Vec<Option<u32>>,
}

impl Matching {
    /// The number of matched pairs.
    pub(crate) fn size(&self) -> usize {
        self.pair_left.iter().filter(|p| p.is_some()).count()
    }
}

const INF: u32 = u32::MAX;

/// A bipartite graph's left-side adjacency stored as runs of consecutive
/// right vertices: left vertex `u`'s neighbours, in the order the
/// matching visits them, are the runs `runs[off[u]..off[u + 1]]`, each
/// walked upward. A poset given as a union of chains has one run per
/// chain per element (its successors in a chain are a suffix), so this
/// holds the comparability graph in O(n · chains) space instead of O(n²).
#[derive(Debug, Clone)]
pub(crate) struct RunAdjacency {
    off: Vec<u32>,
    runs: Vec<(u32, u32)>,
    right: usize,
}

impl RunAdjacency {
    /// An adjacency with no left vertices over `right` right vertices.
    pub(crate) fn new(right: usize) -> Self {
        RunAdjacency {
            off: vec![0],
            runs: Vec::new(),
            right,
        }
    }

    /// Appends the right vertices `start..end` to the open left vertex's
    /// neighbours (nothing if the run is empty).
    pub(crate) fn push_run(&mut self, start: u32, end: u32) {
        debug_assert!(end as usize <= self.right, "run past the right side");
        if start < end {
            self.runs.push((start, end));
        }
    }

    /// Closes the open left vertex; the next run starts the next one.
    pub(crate) fn finish_vertex(&mut self) {
        self.off.push(self.runs.len() as u32);
    }

    /// The neighbours of left vertex `u`, in visiting order.
    fn neighbours(&self, u: usize) -> impl Iterator<Item = u32> + '_ {
        self.runs[self.off[u] as usize..self.off[u + 1] as usize]
            .iter()
            .flat_map(|&(start, end)| start..end)
    }
}

/// Computes a maximum matching by Hopcroft–Karp in O(E √V): BFS layers
/// from the free left vertices, then one layered depth-first
/// augmentation per free left vertex, in vertex order, each trying
/// neighbours in run order. The search keeps an explicit stack, so a
/// long augmenting path cannot overflow the thread's stack.
pub(crate) fn match_runs(adj: &RunAdjacency) -> Matching {
    let left = adj.off.len() - 1;
    let mut pair_left: Vec<Option<u32>> = vec![None; left];
    let mut pair_right: Vec<Option<u32>> = vec![None; adj.right];
    let mut dist: Vec<u32> = vec![0; left];
    let mut queue = std::collections::VecDeque::new();
    let mut stack = Vec::new();

    loop {
        // BFS layering from free left vertices; stop when no augmenting
        // path exists.
        for u in 0..left {
            if pair_left[u].is_none() {
                dist[u] = 0;
                queue.push_back(u);
            } else {
                dist[u] = INF;
            }
        }
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            for v in adj.neighbours(u) {
                match pair_right[v as usize] {
                    None => found = true,
                    Some(w) => {
                        let w = w as usize;
                        if dist[w] == INF {
                            dist[w] = dist[u] + 1;
                            queue.push_back(w);
                        }
                    }
                }
            }
        }
        if !found {
            break;
        }

        // DFS along the BFS layers, augmenting greedily. Each frame is a
        // left vertex, the neighbour it is trying and its untried rest.
        // A frame whose neighbours run out is a dead end (`dist = INF`)
        // and its parent resumes; a free right vertex flips every frame.
        for root in 0..left {
            if pair_left[root].is_some() {
                continue;
            }
            stack.push((root, 0, adj.neighbours(root)));
            while let Some((u, v, rest)) = stack.last_mut() {
                let u = *u;
                let Some(next) = rest.next() else {
                    dist[u] = INF;
                    stack.pop();
                    continue;
                };
                *v = next;
                match pair_right[next as usize] {
                    None => {
                        for (u, v, _) in stack.drain(..) {
                            pair_left[u] = Some(v);
                            pair_right[v as usize] = Some(u as u32);
                        }
                    }
                    Some(w) if dist[w as usize] == dist[u] + 1 => {
                        stack.push((w as usize, 0, adj.neighbours(w as usize)));
                    }
                    Some(_) => {}
                }
            }
        }
    }

    Matching {
        pair_left,
        pair_right,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matching of list adjacency (`adj[u]` lists `u`'s right
    /// neighbours), one run per neighbour.
    fn hopcroft_karp(left: usize, right: usize, adj: &[Vec<u32>]) -> Matching {
        assert_eq!(adj.len(), left);
        let mut runs = RunAdjacency::new(right);
        for nbrs in adj {
            for &v in nbrs {
                runs.push_run(v, v + 1);
            }
            runs.finish_vertex();
        }
        match_runs(&runs)
    }

    #[test]
    fn empty_graph_has_empty_matching() {
        let m = hopcroft_karp(0, 0, &[]);
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn no_edges_no_matching() {
        let m = hopcroft_karp(3, 3, &[vec![], vec![], vec![]]);
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn perfect_matching_on_identity() {
        let adj: Vec<Vec<u32>> = (0..5).map(|i| vec![i as u32]).collect();
        let m = hopcroft_karp(5, 5, &adj);
        assert_eq!(m.size(), 5);
        for (u, p) in m.pair_left.iter().enumerate() {
            assert_eq!(*p, Some(u as u32));
        }
    }

    #[test]
    fn augmenting_path_is_found() {
        // Greedy could match L0-R0 and strand L1; Hopcroft-Karp must
        // re-route to achieve size 2.
        let adj = vec![vec![0, 1], vec![0]];
        let m = hopcroft_karp(2, 2, &adj);
        assert_eq!(m.size(), 2);
        assert_eq!(m.pair_left[1], Some(0));
        assert_eq!(m.pair_left[0], Some(1));
    }

    #[test]
    fn pair_maps_are_inverses() {
        let adj = vec![vec![1, 2], vec![0, 2], vec![0]];
        let m = hopcroft_karp(3, 3, &adj);
        for (u, p) in m.pair_left.iter().enumerate() {
            if let Some(v) = p {
                assert_eq!(m.pair_right[*v as usize], Some(u as u32));
            }
        }
        assert_eq!(m.size(), 3);
    }

    #[test]
    fn unbalanced_sides() {
        let adj = vec![vec![0], vec![0], vec![0]];
        let m = hopcroft_karp(3, 1, &adj);
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        // Exhaustive check against brute force for all bipartite graphs on
        // 3+3 vertices (2^9 graphs).
        fn brute(adj: &[Vec<u32>], right: usize) -> usize {
            fn go(u: usize, adj: &[Vec<u32>], used: &mut [bool]) -> usize {
                if u == adj.len() {
                    return 0;
                }
                let mut best = go(u + 1, adj, used);
                for &v in &adj[u] {
                    let v = v as usize;
                    if !used[v] {
                        used[v] = true;
                        best = best.max(1 + go(u + 1, adj, used));
                        used[v] = false;
                    }
                }
                best
            }
            go(0, adj, &mut vec![false; right])
        }
        for mask in 0u32..512 {
            let adj: Vec<Vec<u32>> = (0..3)
                .map(|u| {
                    (0..3)
                        .filter(|v| mask >> (u * 3 + v) & 1 == 1)
                        .map(|v| v as u32)
                        .collect()
                })
                .collect();
            assert_eq!(
                hopcroft_karp(3, 3, &adj).size(),
                brute(&adj, 3),
                "mask {mask}"
            );
        }
    }
}
