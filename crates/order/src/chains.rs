//! Dilworth decompositions: minimum chain covers.
//!
//! The §3.3 chain-cover detection algorithm covers the true events of each
//! process group with a minimum number of chains; the number of CPDHB
//! invocations is the product of the cover sizes, so minimizing each cover
//! is what buys the exponential reduction the paper claims.

use crate::dag::TransitiveClosure;
use crate::matching::{match_runs, RunAdjacency};

/// A partition of a set of poset elements into chains (totally ordered
/// subsets), each listed in increasing order.
#[derive(Debug, Clone)]
pub struct ChainCover {
    chains: Vec<Vec<usize>>,
}

impl ChainCover {
    /// The number of chains — by Dilworth's theorem this equals the size of
    /// the maximum antichain among the covered elements.
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// The chains, each sorted in order (earlier elements precede later).
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Consumes the cover and returns the chains.
    pub fn into_chains(self) -> Vec<Vec<usize>> {
        self.chains
    }
}

/// Computes a minimum chain cover of a poset given as a union of chains,
/// via Hopcroft–Karp on its comparability graph (Dilworth's theorem:
/// minimum cover size = element count − maximum matching).
///
/// The elements are numbered chain by chain: chain `b` holds the next
/// `chain_lens[b]` indices, in increasing order. `precedes(u, v)` is the
/// strict order between element indices, and each listed chain must be
/// increasing under it. By transitivity, the elements of a chain that
/// `u` precedes are then a suffix of that chain. So one binary search
/// per element and chain finds `u`'s successors as one range, and the
/// comparability graph is never materialized: O(n · L log n) calls to
/// `precedes` and O(n · L) memory for n elements in L chains, plus the
/// matching's walk over the comparable pairs.
///
/// The matching visits `u`'s successors in element order, so the cover
/// equals the one [`min_chain_cover`] builds from the transitive closure
/// of the same order over the same element numbering.
///
/// # Example
///
/// ```
/// use gpd_order::min_chain_cover_of_chains;
///
/// // Chains 0 < 1 and 2 < 3 with the cross edge 0 < 3.
/// let precedes = |u: usize, v: usize| matches!((u, v), (0, 1) | (2, 3) | (0, 3));
/// let cover = min_chain_cover_of_chains(&[2, 2], precedes);
/// assert_eq!(cover.width(), 2);
/// assert_eq!(cover.chains(), &[vec![0, 1], vec![2, 3]]);
/// ```
pub fn min_chain_cover_of_chains(
    chain_lens: &[usize],
    precedes: impl Fn(usize, usize) -> bool,
) -> ChainCover {
    let n: usize = chain_lens.iter().sum();
    let starts: Vec<usize> = chain_lens
        .iter()
        .scan(0, |start, &len| {
            *start += len;
            Some(*start - len)
        })
        .collect();
    debug_assert!(
        starts
            .iter()
            .zip(chain_lens)
            .all(|(&s, &len)| (s + 1..s + len).all(|v| precedes(v - 1, v))),
        "a listed chain is not increasing"
    );

    // Bipartite graph: left copy u — right copy v whenever u < v, one
    // run per chain.
    let mut adj = RunAdjacency::new(n);
    for u in 0..n {
        for (&start, &len) in starts.iter().zip(chain_lens) {
            let first = first_true(start, start + len, |v| precedes(u, v));
            adj.push_run(first as u32, (start + len) as u32);
        }
        adj.finish_vertex();
    }
    let matching = match_runs(&adj);

    // Each matched pair (u, v) links u to its chain successor v. Chains
    // start at elements that are nobody's successor.
    let mut chains = Vec::new();
    for start in 0..n {
        if matching.pair_right[start].is_some() {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            chain.push(i);
            cur = matching.pair_left[i].map(|j| j as usize);
        }
        chains.push(chain);
    }
    debug_assert_eq!(chains.len(), n - matching.size(), "cover size");
    debug_assert!(
        chains
            .iter()
            .all(|c| c.windows(2).all(|w| precedes(w[0], w[1]))),
        "a cover chain is not increasing"
    );
    debug_assert!(
        {
            let mut seen = vec![0u8; n];
            chains.iter().flatten().for_each(|&i| seen[i] += 1);
            seen.iter().all(|&k| k == 1)
        },
        "an element is not in exactly one chain"
    );
    ChainCover { chains }
}

/// The first `v` in `lo..hi` with `pred(v)` (or `hi`), for a `pred` that
/// is false up to some point and true from there on.
fn first_true(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Computes a minimum chain cover of `elements` within the partial order
/// described by `closure`. This is the reference that
/// [`min_chain_cover_of_chains`] is tested against: it asks the closure
/// for every pair, O(k²) for k elements.
///
/// Elements may be any subset of the order's universe; the cover only uses
/// comparabilities among them.
///
/// # Panics
///
/// Panics if an element index is out of the closure's range or repeated.
///
/// # Example
///
/// ```
/// use gpd_order::{Dag, min_chain_cover};
///
/// // Two incomparable chains: 0 < 1 and 2 < 3.
/// let dag = Dag::from_edges(4, [(0, 1), (2, 3)]);
/// let closure = dag.transitive_closure().unwrap();
/// let cover = min_chain_cover(&closure, &[0, 1, 2, 3]);
/// assert_eq!(cover.width(), 2);
/// ```
pub fn min_chain_cover(closure: &TransitiveClosure, elements: &[usize]) -> ChainCover {
    let mut seen = vec![false; closure.len()];
    for &e in elements {
        assert!(
            e < closure.len(),
            "element {e} out of range {}",
            closure.len()
        );
        assert!(!seen[e], "element {e} repeated");
        seen[e] = true;
    }

    // Every element is a chain of its own: the runs are then the single
    // successors, visited in element order.
    let cover = min_chain_cover_of_chains(&vec![1; elements.len()], |u, v| {
        closure.precedes(elements[u], elements[v])
    });
    ChainCover {
        chains: cover
            .into_chains()
            .into_iter()
            .map(|chain| chain.into_iter().map(|i| elements[i]).collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;

    fn closure_of(n: usize, edges: &[(usize, usize)]) -> TransitiveClosure {
        Dag::from_edges(n, edges.iter().copied())
            .transitive_closure()
            .unwrap()
    }

    fn assert_valid_cover(c: &ChainCover, closure: &TransitiveClosure, elements: &[usize]) {
        let covered: usize = c.chains().iter().map(Vec::len).sum();
        assert_eq!(covered, elements.len(), "cover must partition elements");
        let mut all: Vec<usize> = c.chains().iter().flatten().copied().collect();
        all.sort_unstable();
        let mut want = elements.to_vec();
        want.sort_unstable();
        assert_eq!(all, want);
        for chain in c.chains() {
            for w in chain.windows(2) {
                assert!(closure.precedes(w[0], w[1]), "chain not ordered: {chain:?}");
            }
        }
    }

    #[test]
    fn total_order_needs_one_chain() {
        let closure = closure_of(4, &[(0, 1), (1, 2), (2, 3)]);
        let cover = min_chain_cover(&closure, &[0, 1, 2, 3]);
        assert_eq!(cover.width(), 1);
        assert_valid_cover(&cover, &closure, &[0, 1, 2, 3]);
    }

    #[test]
    fn antichain_needs_n_chains() {
        let closure = closure_of(4, &[]);
        let cover = min_chain_cover(&closure, &[0, 1, 2, 3]);
        assert_eq!(cover.width(), 4);
        assert_eq!(largest_antichain(&closure, &[0, 1, 2, 3]), 4);
    }

    #[test]
    fn diamond_has_width_two() {
        let closure = closure_of(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let elements = [0, 1, 2, 3];
        let cover = min_chain_cover(&closure, &elements);
        assert_eq!(cover.width(), 2);
        assert_valid_cover(&cover, &closure, &elements);
        assert_eq!(largest_antichain(&closure, &elements), 2);
    }

    #[test]
    fn cover_restricted_to_subset() {
        // Order: 0<1<2 and 3 incomparable; cover only {0, 2, 3}.
        let closure = closure_of(4, &[(0, 1), (1, 2)]);
        let cover = min_chain_cover(&closure, &[0, 2, 3]);
        assert_eq!(cover.width(), 2);
        assert_valid_cover(&cover, &closure, &[0, 2, 3]);
    }

    #[test]
    fn empty_element_set() {
        let closure = closure_of(3, &[(0, 1)]);
        let cover = min_chain_cover(&closure, &[]);
        assert_eq!(cover.width(), 0);
        assert_eq!(min_chain_cover_of_chains(&[], |_, _| false).width(), 0);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_element_panics() {
        let closure = closure_of(2, &[]);
        min_chain_cover(&closure, &[0, 0]);
    }

    #[test]
    fn dilworth_duality_on_random_posets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(1..10);
            // Random DAG via random edges respecting index order.
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.3) {
                        edges.push((i, j));
                    }
                }
            }
            let closure = closure_of(n, &edges);
            let elements: Vec<usize> = (0..n).collect();
            let cover = min_chain_cover(&closure, &elements);
            // Dilworth: min cover size == max antichain size.
            assert_eq!(cover.width(), largest_antichain(&closure, &elements));
            assert_valid_cover(&cover, &closure, &elements);
        }
    }

    #[test]
    fn chain_union_cover_equals_closure_cover() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(0..14);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.2) {
                        edges.push((i, j));
                    }
                }
            }
            let closure = closure_of(n, &edges);
            // A random partition into increasing chains: each element, in
            // index order, extends a random chain whose last element
            // precedes it, or opens a new one.
            let mut chains: Vec<Vec<usize>> = Vec::new();
            for v in 0..n {
                let open: Vec<usize> = (0..chains.len())
                    .filter(|&c| closure.precedes(*chains[c].last().unwrap(), v))
                    .collect();
                if open.is_empty() || rng.gen_bool(0.3) {
                    chains.push(vec![v]);
                } else {
                    chains[open[rng.gen_range(0..open.len())]].push(v);
                }
            }
            let elements: Vec<usize> = chains.concat();
            let lens: Vec<usize> = chains.iter().map(Vec::len).collect();
            let fast =
                min_chain_cover_of_chains(&lens, |u, v| closure.precedes(elements[u], elements[v]));
            let fast: Vec<Vec<usize>> = fast
                .chains()
                .iter()
                .map(|c| c.iter().map(|&i| elements[i]).collect())
                .collect();
            let oracle = min_chain_cover(&closure, &elements);
            assert_eq!(fast, oracle.chains(), "chains {chains:?}");
        }
    }

    /// The largest pairwise-incomparable subset of `elements`, by trying
    /// every subset.
    fn largest_antichain(closure: &TransitiveClosure, elements: &[usize]) -> usize {
        (0u32..1 << elements.len())
            .filter(|mask| {
                let set: Vec<usize> = (0..elements.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| elements[i])
                    .collect();
                set.iter()
                    .enumerate()
                    .all(|(i, &u)| set[i + 1..].iter().all(|&v| closure.concurrent(u, v)))
            })
            .map(u32::count_ones)
            .max()
            .unwrap_or(0) as usize
    }
}
