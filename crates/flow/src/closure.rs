//! Maximum-weight closure (project selection).
//!
//! A *closure* of a directed graph is a vertex set `S` that is closed under
//! successors: `u ∈ S` and `u → v` imply `v ∈ S`. Consistent cuts of a
//! computation are exactly the closures of the reversed event DAG, which is
//! how `Possibly(Σxᵢ relop K)` detection lands here: choosing the cut that
//! maximizes (or minimizes) the sum is choosing a maximum-weight closure.

use crate::push_relabel::{Network, INF_CAP};

/// The result of [`max_weight_closure`]: the optimal closure and its total
/// weight.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Closure {
    /// Total weight of the selected vertices (0 when the empty closure is
    /// optimal).
    pub weight: i64,
    /// The selected vertices, in increasing order.
    pub members: Vec<usize>,
}

/// Computes a maximum-weight closure of the graph on `weights.len()`
/// vertices whose closure constraints are given by `edges`: for each
/// `(u, v)`, membership of `u` forces membership of `v`.
///
/// Solved with one s-t min cut (the classic "project selection" reduction):
/// positive-weight vertices hang off the source, negative-weight vertices
/// feed the sink, constraint edges get infinite capacity, and the source
/// side of a minimum cut is an optimal closure. Of all optimal closures
/// this returns the unique minimal one (the intersection of them all).
///
/// The empty set is always a closure, so the returned weight is ≥ 0.
///
/// **Edge order affects speed only.** When some |weight| exceeds 1, the
/// solve is warm-started by a greedy pass (see the crate docs) that
/// takes, for each vertex `v`, the first listed edge `(u, v)` as `v`'s
/// chain edge: it tries the other edges into `v` first, then that one,
/// and forwards whatever it could not route along it. Listing an event
/// DAG's process-chain edges (`successor → predecessor`) before its
/// message edges (`receive → send`), as `gpd::relational` does, makes
/// that the process chain, so a send's weight goes to its receive
/// first. Any order gives the same closure, since any preflow is a
/// valid start.
///
/// # Panics
///
/// Panics if an edge endpoint is out of range.
///
/// # Example
///
/// ```
/// use gpd_flow::max_weight_closure;
///
/// // Taking vertex 0 (worth 5) forces vertex 1 (costing 2): net +3.
/// let c = max_weight_closure(&[5, -2], &[(0, 1)]);
/// assert_eq!(c.weight, 3);
/// assert_eq!(c.members, vec![0, 1]);
/// ```
pub fn max_weight_closure(weights: &[i64], edges: &[(usize, usize)]) -> Closure {
    let n = weights.len();
    let mut net = reversed_network(weights, edges);
    if n == 0 {
        return Closure::default();
    }
    solve(&mut net, n + 1, n, weights, 1)
}

/// Computes a maximum-weight closure for `weights` **and** for the
/// negated weights — i.e. both extremes of the weighted-closure problem
/// — from one flow network solved twice.
///
/// The vertex set and the infinite constraint arcs are identical in both
/// orientations. Negating the weights only swaps which side of the cut
/// each weighted vertex's terminal arc feeds, so between the two solves
/// the network rewinds its residual capacities and reverses the arcs at
/// the two terminals, which also trade places as source and sink.
///
/// Both solves are warm-started like [`max_weight_closure`]'s, and the
/// same edge order speeds both.
///
/// Returns `(max_closure, negated_max_closure)`; the second member is
/// the maximum-weight closure of `-weights` (whose `weight` is the
/// negated minimum achievable by any closure of `weights`). Each is the
/// unique minimal optimal closure, as from [`max_weight_closure`].
///
/// # Panics
///
/// Panics if an edge endpoint is out of range.
///
/// # Example
///
/// ```
/// use gpd_flow::weight_closure_extremes;
///
/// let (max, neg) = weight_closure_extremes(&[5, -2], &[(0, 1)]);
/// assert_eq!(max.weight, 3); // take both vertices
/// assert_eq!(neg.weight, 2); // closure {1} minimizes at −2
/// assert_eq!(neg.members, vec![1]);
/// ```
pub fn weight_closure_extremes(weights: &[i64], edges: &[(usize, usize)]) -> (Closure, Closure) {
    let n = weights.len();
    let mut net = reversed_network(weights, edges);
    if n == 0 {
        return (Closure::default(), Closure::default());
    }
    let saved = net.capacities();
    let max = solve(&mut net, n + 1, n, weights, 1);
    net.restore(&saved);
    net.reverse_arcs_at(n);
    net.reverse_arcs_at(n + 1);
    let neg = solve(&mut net, n, n + 1, weights, -1);
    (max, neg)
}

/// The project-selection network of `weights` and `edges` with every arc
/// reversed, on vertices `0..n` plus terminals `n` and `n + 1`. Solved
/// from `n + 1` to `n`, it maximizes `weights`: vertex `v` of weight
/// `w > 0` gets the arc `v → n` of capacity `w`, one of weight `w < 0`
/// the arc `n + 1 → v` of capacity `−w`, and each constraint `(u, v)`
/// the unbounded arc `v → u`.
///
/// In the reversed network the vertices that can reach the sink `n` in
/// the residual graph are exactly those reachable from the source in the
/// original one: the minimal optimal closure. Phase 1 of push-relabel
/// already fixes that set, so no phase 2 is run.
fn reversed_network(weights: &[i64], edges: &[(usize, usize)]) -> Network {
    let n = weights.len();
    let mut arcs = Vec::with_capacity(n + edges.len());
    for (v, &w) in weights.iter().enumerate() {
        if w > 0 {
            arcs.push((v, n, w));
        } else if w < 0 {
            arcs.push((n + 1, v, -w));
        }
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge ({u}, {v}) out of range {n}");
        arcs.push((v, u, INF_CAP));
    }
    Network::new(n + 2, &arcs)
}

/// Solves the reversed network from `source` to `sink` for the weights
/// `sign · weights`, and reads the closure off the sink side of the cut.
fn solve(net: &mut Network, source: usize, sink: usize, weights: &[i64], sign: i64) -> Closure {
    let n = weights.len();
    let positive_total: i64 = weights.iter().map(|&w| (sign * w).max(0)).sum();
    let preflow = net.max_preflow(source, sink, warm_start(weights));
    let members: Vec<usize> = preflow.sink_side.into_iter().filter(|&v| v < n).collect();
    let weight = positive_total - preflow.flow;
    debug_assert_eq!(
        members.iter().map(|&v| sign * weights[v]).sum::<i64>(),
        weight,
        "closure weight differs from the flow's"
    );
    Closure { weight, members }
}

/// Whether a solve of `weights`, of either sign, seeds the greedy
/// preflow: only when some |weight| exceeds 1 (see the crate docs).
fn warm_start(weights: &[i64]) -> bool {
    weights.iter().any(|w| w.unsigned_abs() > 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::FlowNetwork;
    use crate::push_relabel::Work;
    use proptest::prelude::*;

    fn is_closed(members: &[usize], edges: &[(usize, usize)]) -> bool {
        let set: std::collections::HashSet<usize> = members.iter().copied().collect();
        edges
            .iter()
            .all(|&(u, v)| !set.contains(&u) || set.contains(&v))
    }

    #[test]
    fn empty_graph() {
        let c = max_weight_closure(&[], &[]);
        assert_eq!(c.weight, 0);
        assert!(c.members.is_empty());
    }

    #[test]
    fn all_negative_yields_empty_closure() {
        let c = max_weight_closure(&[-1, -5], &[]);
        assert_eq!(c.weight, 0);
        assert!(c.members.is_empty());
    }

    #[test]
    fn all_positive_yields_full_closure() {
        let c = max_weight_closure(&[2, 3, 4], &[(0, 1), (1, 2)]);
        assert_eq!(c.weight, 9);
        assert_eq!(c.members, vec![0, 1, 2]);
    }

    #[test]
    fn profitable_dependency_is_taken() {
        let c = max_weight_closure(&[5, -2], &[(0, 1)]);
        assert_eq!(c.weight, 3);
        assert_eq!(c.members, vec![0, 1]);
    }

    #[test]
    fn unprofitable_dependency_is_skipped() {
        let c = max_weight_closure(&[5, -7], &[(0, 1)]);
        assert_eq!(c.weight, 0);
        assert!(c.members.is_empty());
    }

    #[test]
    fn independent_vertices_selected_individually() {
        let c = max_weight_closure(&[4, -1, 3], &[]);
        assert_eq!(c.weight, 7);
        assert_eq!(c.members, vec![0, 2]);
    }

    #[test]
    fn chain_of_dependencies() {
        // 0 needs 1 needs 2: 6 - 1 - 2 = 3 > 0, take all.
        let c = max_weight_closure(&[6, -1, -2], &[(0, 1), (1, 2)]);
        assert_eq!(c.weight, 3);
        assert_eq!(c.members, vec![0, 1, 2]);
        // Middle element alone can also be taken with its own suffix.
        let c2 = max_weight_closure(&[-6, 5, -2], &[(0, 1), (1, 2)]);
        assert_eq!(c2.weight, 3);
        assert_eq!(c2.members, vec![1, 2]);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..60 {
            let n = rng.gen_range(1..9);
            let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(-6..=6)).collect();
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.25) {
                        edges.push((u, v));
                    }
                }
            }
            // Brute force over all subsets.
            let mut best = 0i64;
            for mask in 0u32..(1 << n) {
                let members: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
                if is_closed(&members, &edges) {
                    best = best.max(members.iter().map(|&v| weights[v]).sum());
                }
            }
            let c = max_weight_closure(&weights, &edges);
            assert_eq!(c.weight, best, "weights {weights:?} edges {edges:?}");
            assert!(is_closed(&c.members, &edges));
        }
    }

    #[test]
    fn extremes_empty_graph() {
        let (max, neg) = weight_closure_extremes(&[], &[]);
        assert_eq!(max.weight, 0);
        assert_eq!(neg.weight, 0);
        assert!(max.members.is_empty() && neg.members.is_empty());
    }

    #[test]
    fn extremes_match_two_single_sided_solves() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(424242);
        for _ in 0..80 {
            let n = rng.gen_range(0..10);
            let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(-7..=7)).collect();
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.3) {
                        edges.push((u, v));
                    }
                }
            }
            let (max, neg) = weight_closure_extremes(&weights, &edges);
            let negated: Vec<i64> = weights.iter().map(|&w| -w).collect();
            // Both solves return the unique minimal optimal closure, so
            // the shared network must reproduce weight and members, and
            // both must match the Dinic oracle.
            assert_eq!(
                max,
                max_weight_closure(&weights, &edges),
                "weights {weights:?}"
            );
            assert_eq!(
                neg,
                max_weight_closure(&negated, &edges),
                "weights {weights:?}"
            );
            assert_eq!(max, dinic_closure(&weights, &edges), "weights {weights:?}");
            assert_eq!(neg, dinic_closure(&negated, &edges), "weights {weights:?}");
            assert!(is_closed(&max.members, &edges));
            assert!(is_closed(&neg.members, &edges));
        }
    }

    /// The project-selection network solved by the Dinic oracle: source
    /// side of the minimum cut closest to the source.
    fn dinic_closure(weights: &[i64], edges: &[(usize, usize)]) -> Closure {
        let n = weights.len();
        let (s, t) = (n, n + 1);
        let mut net = FlowNetwork::new(n + 2);
        let mut positive_total = 0;
        for (v, &w) in weights.iter().enumerate() {
            if w > 0 {
                net.add_edge(s, v, w);
                positive_total += w;
            } else if w < 0 {
                net.add_edge(v, t, -w);
            }
        }
        for &(u, v) in edges {
            net.add_infinite_edge(u, v);
        }
        let flow = net.max_flow(s, t);
        Closure {
            weight: positive_total - flow,
            members: net.min_cut(s).into_iter().filter(|&v| v < n).collect(),
        }
    }

    /// Event-DAG-shaped closure instances: `chains` process chains (each
    /// event forces its predecessor) plus random cross arcs, with
    /// mixed-sign weights of up to `amplitude`.
    fn chains_with_cross_arcs(
        seed: u64,
        chains: usize,
        length: usize,
        cross: usize,
        amplitude: i64,
    ) -> (Vec<i64>, Vec<(usize, usize)>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = chains * length;
        let weights = (0..n)
            .map(|_| rng.gen_range(-amplitude..=amplitude))
            .collect();
        let mut edges = Vec::new();
        for c in 0..chains {
            for i in 1..length {
                edges.push((c * length + i, c * length + i - 1));
            }
        }
        for _ in 0..cross {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v {
                edges.push((u, v));
            }
        }
        (weights, edges)
    }

    /// Bank-shaped closure instances: `chains` branches, each opening
    /// with a balance of 100, take `events` steps between them. A step
    /// deposits the oldest transfer sent to its branch (+a) nine times in
    /// ten when one is waiting, and otherwise withdraws a transfer of up
    /// to 50, never more than the balance, for another branch (−a); a
    /// branch with nothing to send or receive steps with weight 0.
    /// Transfers still waiting at the end stay in transit. Process-chain
    /// edges come first, then one edge from each deposit to its
    /// withdrawal, as `relational::optimize` lists them.
    fn bank_transfers(seed: u64, chains: usize, events: usize) -> (Vec<i64>, Vec<(usize, usize)>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut balance = vec![100i64; chains];
        let mut last: Vec<Option<usize>> = vec![None; chains];
        let mut waiting: Vec<std::collections::VecDeque<(usize, i64)>> =
            vec![Default::default(); chains];
        let (mut weights, mut edges, mut messages) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..events {
            let p = rng.gen_range(0..chains);
            let deposit = !waiting[p].is_empty() && (balance[p] == 0 || rng.gen_bool(0.9));
            let weight = match waiting[p].pop_front().filter(|_| deposit) {
                Some((send, amount)) => {
                    messages.push((v, send));
                    amount
                }
                None if chains > 1 && balance[p] > 0 => {
                    let amount = rng.gen_range(1..=balance[p].min(50));
                    let q = (p + rng.gen_range(1..chains)) % chains;
                    waiting[q].push_back((v, amount));
                    -amount
                }
                None => 0,
            };
            balance[p] += weight;
            weights.push(weight);
            if let Some(u) = last[p].replace(v) {
                edges.push((v, u));
            }
        }
        edges.extend(messages);
        (weights, edges)
    }

    /// Bank traffic as the simulated `BankBranch` network makes it:
    /// every branch opens with 100 and, every 1–5 ticks, withdraws up to
    /// 50 (never more than its balance) for a random other branch, which
    /// deposits it 1–10 ticks later. Deposits lag the withdrawals that
    /// fund them, as on the `detect_mix` bank traces. Events are taken
    /// in time order; edges are listed as [`bank_transfers`] lists them.
    fn bank_traffic(seed: u64, chains: usize, events: usize) -> (Vec<i64>, Vec<(usize, usize)>) {
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut balance = vec![100i64; chains];
        let mut last: Vec<Option<usize>> = vec![None; chains];
        // (tick, branch, the transfer a deposit carries; none for a timer)
        let mut queue = std::collections::BinaryHeap::new();
        for p in 0..chains {
            queue.push(Reverse((rng.gen_range(1..6u64), p, None)));
        }
        let (mut weights, mut edges, mut messages) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..events {
            let Some(Reverse((tick, p, transfer))) = queue.pop() else {
                break;
            };
            let weight = match transfer {
                Some((send, amount)) => {
                    messages.push((v, send));
                    amount
                }
                None => {
                    queue.push(Reverse((tick + rng.gen_range(1..6), p, None)));
                    let amount = balance[p].min(50);
                    if chains > 1 && amount > 0 {
                        let amount = rng.gen_range(1..=amount);
                        let q = (p + rng.gen_range(1..chains)) % chains;
                        queue.push(Reverse((
                            tick + rng.gen_range(1..=10),
                            q,
                            Some((v, amount)),
                        )));
                        -amount
                    } else {
                        0
                    }
                }
            };
            balance[p] += weight;
            weights.push(weight);
            if let Some(u) = last[p].replace(v) {
                edges.push((v, u));
            }
        }
        edges.extend(messages);
        (weights, edges)
    }

    /// Indicator-shaped closure instances: the 0/±1 increments of an
    /// `in_cs` flag under a token-passing mutex on `chains` processes,
    /// over `events` steps. The holder receives the token at one step,
    /// enters at its next (+1), and exits at a later one (−1), sending
    /// the token to another process. Every other step has weight 0 and
    /// receives a pending request, or one time in four sends one to
    /// another process. Edges are listed as [`bank_transfers`] lists
    /// them.
    fn mutex_indicator(seed: u64, chains: usize, events: usize) -> (Vec<i64>, Vec<(usize, usize)>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut last: Vec<Option<usize>> = vec![None; chains];
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); chains];
        let (mut holder, mut inside, mut token) = (0, false, None);
        let (mut weights, mut edges, mut messages) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..events {
            let p = rng.gen_range(0..chains);
            let received = if p == holder { token.take() } else { None };
            let weight = if let Some(send) = received {
                messages.push((v, send));
                0
            } else if p != holder {
                0
            } else if !inside {
                inside = true;
                1
            } else if rng.gen_bool(0.5) {
                holder = (p + rng.gen_range(1..chains.max(2))) % chains;
                (inside, token) = (false, Some(v));
                -1
            } else {
                0
            };
            if weight == 0 && received.is_none() {
                if let Some(send) = requests[p].pop() {
                    messages.push((v, send));
                } else if chains > 1 && rng.gen_bool(0.25) {
                    requests[(p + rng.gen_range(1..chains)) % chains].push(v);
                }
            }
            weights.push(weight);
            if let Some(u) = last[p].replace(v) {
                edges.push((v, u));
            }
        }
        edges.extend(messages);
        (weights, edges)
    }

    /// `run` applied to both solves of [`weight_closure_extremes`]: the
    /// maximizing side, then the minimizing side on the rewound,
    /// reversed network.
    fn extremes<T>(
        weights: &[i64],
        edges: &[(usize, usize)],
        run: impl Fn(&mut Network, usize, usize) -> T,
    ) -> (T, T) {
        let n = weights.len();
        let mut net = reversed_network(weights, edges);
        let saved = net.capacities();
        let max = run(&mut net, n + 1, n);
        net.restore(&saved);
        net.reverse_arcs_at(n);
        net.reverse_arcs_at(n + 1);
        (max, run(&mut net, n, n + 1))
    }

    /// Work counts of both solves of [`weight_closure_extremes`], warm
    /// or cold.
    fn extremes_work(weights: &[i64], edges: &[(usize, usize)], warm: bool) -> (Work, Work) {
        extremes(weights, edges, |net, source, sink| {
            net.max_preflow(source, sink, warm).work
        })
    }

    /// The cold solve of the project-selection network: push-relabel
    /// without the seeding pass.
    fn cold_closure(weights: &[i64], edges: &[(usize, usize)]) -> Closure {
        let n = weights.len();
        let positive_total: i64 = weights.iter().map(|&w| w.max(0)).sum();
        let preflow = reversed_network(weights, edges).max_preflow(n + 1, n, false);
        Closure {
            weight: positive_total - preflow.flow,
            members: preflow.sink_side.into_iter().filter(|&v| v < n).collect(),
        }
    }

    /// Every solve of `weights` and of their negation — single-sided,
    /// shared-network and cold — against the Dinic oracle, weight and
    /// members.
    fn check_against_dinic(
        weights: &[i64],
        edges: &[(usize, usize)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let negated: Vec<i64> = weights.iter().map(|&w| -w).collect();
        let max_ref = dinic_closure(weights, edges);
        let neg_ref = dinic_closure(&negated, edges);
        prop_assert_eq!(&max_weight_closure(weights, edges), &max_ref);
        prop_assert_eq!(&max_weight_closure(&negated, edges), &neg_ref);
        let (max, neg) = weight_closure_extremes(weights, edges);
        prop_assert_eq!(&max, &max_ref);
        prop_assert_eq!(&neg, &neg_ref);
        prop_assert_eq!(&cold_closure(weights, edges), &max_ref);
        prop_assert_eq!(&cold_closure(&negated, edges), &neg_ref);
        Ok(())
    }

    #[test]
    fn warm_start_work_is_pinned() {
        let (weights, edges) = bank_transfers(1, 8, 5000);
        // The greedy pass alone reaches a maximum preflow on both sides:
        // every withdrawal drains into its deposit (max) and every
        // deposit into the withdrawals after it (min). On the max side
        // the opening balances (8 · 100) stay stranded.
        assert_eq!(extremes_work(&weights, &edges, true), Default::default());
        assert_eq!(
            extremes(&weights, &edges, Network::seeded_leftover),
            (800, 0)
        );
        for seed in 1..=8 {
            let (weights, edges) = bank_transfers(seed, 8, 5000);
            let (max, min) = extremes_work(&weights, &edges, true);
            let (cold_max, cold_min) = extremes_work(&weights, &edges, false);
            assert_eq!((max.pushes, max.relabels, max.discharges), (0, 0, 0));
            assert!(min.discharges < cold_min.discharges, "seed {seed}");
            assert!(min.pushes + min.relabels < cold_min.pushes + cold_min.relabels);
            assert!(cold_max.discharges > 0);
            assert_eq!(extremes_work(&weights, &edges, true), (max, min));
            assert_eq!(extremes_work(&weights, &edges, false), (cold_max, cold_min));
        }
    }

    /// The solves of bank traffic whose deposits lag their withdrawals:
    /// the seeded minimizing side strands excess that discharging must
    /// route, unlike [`bank_transfers`]' zero-work instances.
    #[test]
    fn lagging_bank_work_is_pinned() {
        let (weights, edges) = bank_traffic(1, 8, 5000);
        let work = |pushes, relabels, discharges| Work {
            pushes,
            relabels,
            discharges,
        };
        // The greedy pass still finishes the maximizing side, but the
        // minimizing side strands deposits whose withdrawals come later
        // on other chains, and discharging has to route them back.
        assert_eq!(
            extremes_work(&weights, &edges, true),
            (work(0, 0, 0), work(10396, 4583, 10209))
        );
        let (_, stranded) = extremes(&weights, &edges, Network::seeded_leftover);
        assert_eq!(
            stranded, 413,
            "the seeded minimizing side's stranded excess"
        );
    }

    /// The seeding rule on unit weights: every shipped solve of an
    /// indicator network does exactly the cold start's work, on both
    /// sides.
    #[test]
    fn unit_weight_solves_start_cold() {
        for seed in 1..=8 {
            let (weights, edges) = mutex_indicator(seed, 8, 5000);
            assert!(weights.iter().all(|w| w.abs() <= 1));
            let shipped = extremes(&weights, &edges, |net, source, sink| {
                net.max_preflow(source, sink, warm_start(&weights)).work
            });
            assert_eq!(
                shipped,
                extremes_work(&weights, &edges, false),
                "seed {seed}"
            );
            // Seeded, the maximizing side forwards each exit's unit down
            // its own chain, away from the next holder's entry, and
            // discharges it back at many times the cold start's work.
            let (warm_max, _) = extremes_work(&weights, &edges, true);
            assert!(
                warm_max.discharges > 10 * shipped.0.discharges,
                "seed {seed}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn push_relabel_matches_dinic(
            seed in any::<u64>(),
            chains in 1usize..9,
            length in 1usize..48,
            cross_per_vertex in 0usize..3,
            amplitude in 1i64..40,
        ) {
            let n = chains * length;
            let (weights, edges) =
                chains_with_cross_arcs(seed, chains, length, cross_per_vertex * n, amplitude);
            check_against_dinic(&weights, &edges)?;
        }

        #[test]
        fn bank_transfers_match_dinic(
            seed in any::<u64>(),
            chains in 1usize..9,
            events in 0usize..400,
        ) {
            let (weights, edges) = bank_transfers(seed, chains, events);
            check_against_dinic(&weights, &edges)?;
        }
    }
}
