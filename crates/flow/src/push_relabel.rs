//! Highest-label push-relabel, phase 1 only, on flat CSR arrays.
//!
//! Phase 1 ends with a *maximum preflow*: every vertex that still holds
//! excess can no longer reach the sink. Its value (the sink's excess) is
//! the maximum flow value, and the vertices that can reach the sink in its
//! residual graph are the sink side of the minimum cut closest to the
//! sink — the same set every maximum flow leaves, because no flow crosses
//! a minimum cut backwards. Callers that only need the cut therefore skip
//! phase 2 (returning stranded excess to the source) altogether.
//!
//! Selection is highest label first, with the gap heuristic and periodic
//! global relabeling by a backward breadth-first search from the sink.
//! There are no phases and no recursion: each discharge scans one
//! vertex's arc range.
//!
//! **Warm start.** Push-relabel may start from any preflow with valid
//! labels, and one global relabel makes any preflow's labels valid. So
//! a seeded run first saturates the source arcs and then routes what it
//! can greedily, in one pass over the unbounded arcs in Kahn order: a
//! vertex holding excess drains it into its own arc to the sink, then
//! into the sink arcs of the vertices its unbounded arcs reach (every
//! arc but the first, then the first), and forwards the rest along its
//! first unbounded arc. On a closure network built from a computation,
//! the first unbounded arc of an event is its process-chain arc and the
//! others are its message arcs, so a withdrawal's excess goes straight
//! to its deposit. Discharging then only moves the excess the pass left
//! over. The seeding changes the work, never the answer: the maximum
//! flow value and the vertices that can reach the sink are properties
//! of the network, the same for every maximum preflow.
//!
//! The caller decides whether a run seeds. Closure solves seed only when
//! some |weight| exceeds 1: on a 0/±1 indicator network the pass
//! forwards single units down chains that cannot drain them, and
//! discharging them back costs more than a cold start (the maximizing
//! `in_cs` solve of a mutex trace takes 0.17 ms cold and 1.0 ms warm).

/// Sentinel capacity treated as unbounded.
pub(crate) const INF_CAP: i64 = i64::MAX / 4;

/// End of a bucket list.
const NONE: u32 = u32::MAX;

/// Global-relabel pacing, after Cherkassky and Goldberg's `hi_pr`: a
/// relabel costs `RELABEL_WORK` plus the arcs it scans, and a global
/// relabel runs once the work since the last one exceeds
/// `2 · (GLOBAL_ALPHA · vertices + arcs)`.
const RELABEL_WORK: u64 = 12;
const GLOBAL_ALPHA: u64 = 6;

/// The work one phase-1 run did, counted per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    pub(crate) pushes: u64,
    pub(crate) relabels: u64,
    pub(crate) discharges: u64,
}

/// The outcome of [`Network::max_preflow`].
#[derive(Debug, Clone)]
pub(crate) struct Preflow {
    /// The maximum flow value.
    pub(crate) flow: i64,
    /// Every vertex that can reach the sink in the final residual graph,
    /// in increasing order: the sink side of the minimum cut closest to
    /// the sink.
    pub(crate) sink_side: Vec<usize>,
    /// Counted in every build, so the tests pin the shipped solver's
    /// work; only they read it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) work: Work,
}

/// A directed flow network in compressed-sparse-row form: the arcs leaving
/// vertex `v` are `start[v]..start[v + 1]`, arc `e` ends at `head[e]` with
/// residual capacity `cap[e]`, and `rev[e]` is its paired reverse arc.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    start: Vec<u32>,
    head: Vec<u32>,
    rev: Vec<u32>,
    cap: Vec<i64>,
}

impl Network {
    /// Builds the network on `vertices` vertices from `(u, v, capacity)`
    /// arcs; each also gets its zero-capacity reverse arc.
    ///
    /// # Panics
    ///
    /// Panics if the vertex or arc count does not fit the `u32` indices.
    pub(crate) fn new(vertices: usize, arcs: &[(usize, usize, i64)]) -> Self {
        assert!(
            vertices < NONE as usize && arcs.len() < NONE as usize / 2,
            "network of {vertices} vertices and {} arcs exceeds u32 indices",
            arcs.len()
        );
        let mut start = vec![0u32; vertices + 1];
        for &(u, v, cap) in arcs {
            debug_assert!(u < vertices && v < vertices && cap >= 0);
            start[u + 1] += 1;
            start[v + 1] += 1;
        }
        for i in 0..vertices {
            start[i + 1] += start[i];
        }
        let total = start[vertices] as usize;
        let (mut head, mut rev, mut cap) =
            (vec![0u32; total], vec![0u32; total], vec![0i64; total]);
        let mut fill = start.clone();
        for &(u, v, c) in arcs {
            let (e, r) = (fill[u], fill[v]);
            fill[u] += 1;
            fill[v] += 1;
            (head[e as usize], rev[e as usize], cap[e as usize]) = (v as u32, r, c);
            (head[r as usize], rev[r as usize], cap[r as usize]) = (u as u32, e, 0);
        }
        Network {
            start,
            head,
            rev,
            cap,
        }
    }

    fn vertex_count(&self) -> usize {
        self.start.len() - 1
    }

    fn arcs(&self, v: usize) -> std::ops::Range<usize> {
        self.start[v] as usize..self.start[v + 1] as usize
    }

    /// Every arc's residual capacity, for [`restore`](Self::restore).
    pub(crate) fn capacities(&self) -> Vec<i64> {
        self.cap.clone()
    }

    /// Rewinds the residual capacities to a [`capacities`](Self::capacities)
    /// snapshot.
    pub(crate) fn restore(&mut self, saved: &[i64]) {
        self.cap.copy_from_slice(saved);
    }

    /// Reverses every arc pair at `v`: each arc's capacity moves to its
    /// reverse arc and back.
    pub(crate) fn reverse_arcs_at(&mut self, v: usize) {
        for e in self.arcs(v) {
            let r = self.rev[e] as usize;
            self.cap.swap(e, r);
        }
    }

    /// Runs phase 1 from `source` to `sink`, warm-started by the greedy
    /// seeding pass (see the module docs) when `seed` is set and cold
    /// otherwise, consuming residual capacity in place.
    ///
    /// # Panics
    ///
    /// Panics if `source == sink` or either is out of range.
    pub(crate) fn max_preflow(&mut self, source: usize, sink: usize, seed: bool) -> Preflow {
        let mut run = PushRelabel::new(self, source, sink);
        if seed {
            run.seed();
        }
        run.finish()
    }

    /// The excess the seeding pass leaves on vertices other than the
    /// terminals: what discharging is left to route or strand. Consumes
    /// residual capacity like a solve.
    #[cfg(test)]
    pub(crate) fn seeded_leftover(&mut self, source: usize, sink: usize) -> i64 {
        let mut run = PushRelabel::new(self, source, sink);
        run.seed();
        (0..run.n as usize)
            .filter(|&v| v != source && v != sink)
            .map(|v| run.excess[v])
            .sum()
    }
}

/// The state of one phase-1 run. Every vertex with label below `n` sits
/// in exactly one list of its label's bucket: the active stack when it
/// holds excess, the doubly-linked inactive list otherwise. The sink
/// (label 0) stays inactive; the source and every vertex that can no
/// longer reach the sink carry label `n` and sit in no list.
struct PushRelabel<'a> {
    net: &'a mut Network,
    n: u32,
    source: usize,
    sink: usize,
    label: Vec<u32>,
    excess: Vec<i64>,
    current: Vec<u32>,
    first_active: Vec<u32>,
    next_active: Vec<u32>,
    first_inactive: Vec<u32>,
    next_inactive: Vec<u32>,
    prev_inactive: Vec<u32>,
    /// No active vertex has a label above this.
    max_active: u32,
    /// No vertex below label `n` has a label above this.
    max_label: u32,
    work: u64,
    work_limit: u64,
    queue: Vec<u32>,
    counts: Work,
    #[cfg(debug_assertions)]
    initial: Vec<i64>,
}

impl<'a> PushRelabel<'a> {
    /// Sets up a run from `source` to `sink` and saturates every source
    /// arc.
    fn new(net: &'a mut Network, source: usize, sink: usize) -> Self {
        let n = net.vertex_count();
        assert!(
            source < n && sink < n && source != sink,
            "invalid terminals ({source}, {sink})"
        );
        let arcs = net.head.len() as u64;
        let mut run = PushRelabel {
            n: n as u32,
            source,
            sink,
            label: vec![n as u32; n],
            excess: vec![0; n],
            current: net.start[..n].to_vec(),
            first_active: vec![NONE; n],
            next_active: vec![NONE; n],
            first_inactive: vec![NONE; n],
            next_inactive: vec![NONE; n],
            prev_inactive: vec![NONE; n],
            max_active: 0,
            max_label: 0,
            work: 0,
            work_limit: 2 * (GLOBAL_ALPHA * n as u64 + arcs),
            queue: Vec::with_capacity(n),
            counts: Work::default(),
            #[cfg(debug_assertions)]
            initial: net.cap.clone(),
            net,
        };
        run.saturate_source();
        run
    }

    /// Discharges whatever excess is left, then reads the flow value and
    /// the sink side off the maximum preflow.
    fn finish(mut self) -> Preflow {
        self.global_relabel();
        self.discharge_all();
        self.check_maximum_preflow();
        // One last backward search labels exactly the vertices that reach
        // the sink.
        self.global_relabel();
        let n = self.n;
        Preflow {
            flow: self.excess[self.sink],
            sink_side: (0..n as usize).filter(|&v| self.label[v] < n).collect(),
            work: self.counts,
        }
    }

    fn saturate_source(&mut self) {
        for e in self.net.arcs(self.source) {
            let c = self.net.cap[e];
            if c > 0 {
                let w = self.net.head[e] as usize;
                self.net.cap[e] = 0;
                self.net.cap[self.net.rev[e] as usize] += c;
                self.excess[w] += c;
                self.excess[self.source] -= c;
            }
        }
    }

    /// Moves `delta` units of `v`'s excess along its arc `e`.
    fn seed_push(&mut self, v: usize, e: usize, delta: i64) {
        let w = self.net.head[e] as usize;
        self.net.cap[e] -= delta;
        self.net.cap[self.net.rev[e] as usize] += delta;
        self.excess[v] -= delta;
        self.excess[w] += delta;
    }

    /// The greedy seeding pass of the module docs: visits the vertices
    /// in Kahn order over the unbounded arcs and routes each one's excess
    /// into sink arcs it reaches in at most one unbounded hop, forwarding
    /// the rest along its first unbounded arc. Vertices on a cycle of
    /// unbounded arcs are never visited and keep their excess. Source
    /// arcs are finite, so no push moves `INF_CAP` units: an arc carries
    /// exactly `INF_CAP` only while it is an untouched unbounded arc.
    fn seed(&mut self) {
        let n = self.n as usize;
        // Each vertex's arc into the sink, if it has one with capacity.
        let mut to_sink = vec![NONE; n];
        for e in self.net.arcs(self.sink) {
            let r = self.net.rev[e];
            if self.net.cap[r as usize] > 0 {
                to_sink[self.net.head[e] as usize] = r;
            }
        }
        let mut waiting = vec![0u32; n];
        for (e, &c) in self.net.cap.iter().enumerate() {
            if c == INF_CAP {
                waiting[self.net.head[e] as usize] += 1;
            }
        }
        let mut order = std::mem::take(&mut self.queue);
        order.clear();
        order.extend((0..n as u32).filter(|&v| waiting[v as usize] == 0));
        let mut i = 0;
        while i < order.len() {
            let v = order[i] as usize;
            i += 1;
            // A vertex's unbounded arcs are untouched until it is
            // visited, so they still carry exactly `INF_CAP` here.
            for e in self.net.arcs(v) {
                if self.net.cap[e] == INF_CAP {
                    let w = self.net.head[e] as usize;
                    waiting[w] -= 1;
                    if waiting[w] == 0 {
                        order.push(w as u32);
                    }
                }
            }
            if v != self.source && v != self.sink && self.excess[v] > 0 {
                self.seed_vertex(v, &to_sink);
            }
        }
        self.queue = order;
    }

    /// Routes `v`'s excess for [`seed`](Self::seed).
    fn seed_vertex(&mut self, v: usize, to_sink: &[u32]) {
        let own = to_sink[v];
        if own != NONE {
            let delta = self.excess[v].min(self.net.cap[own as usize]);
            if delta > 0 {
                self.seed_push(v, own as usize, delta);
            }
        }
        let mut first = None;
        for e in self.net.arcs(v) {
            if self.net.cap[e] == INF_CAP {
                match first {
                    None => first = Some(e),
                    Some(_) => self.seed_through(v, e, to_sink),
                }
            }
        }
        if let Some(e) = first {
            self.seed_through(v, e, to_sink);
            let rest = self.excess[v];
            if rest > 0 {
                self.seed_push(v, e, rest);
            }
        }
    }

    /// Pushes as much of `v`'s excess as the sink arc of `e`'s head has
    /// room for, along the unbounded arc `e` and on into the sink.
    fn seed_through(&mut self, v: usize, e: usize, to_sink: &[u32]) {
        let w = self.net.head[e] as usize;
        let t = to_sink[w];
        if t == NONE {
            return;
        }
        let delta = self.excess[v].min(self.net.cap[t as usize]);
        if delta > 0 {
            self.seed_push(v, e, delta);
            self.seed_push(w, t as usize, delta);
        }
    }

    fn push_active(&mut self, v: usize) {
        let l = self.label[v] as usize;
        self.next_active[v] = self.first_active[l];
        self.first_active[l] = v as u32;
        self.max_active = self.max_active.max(l as u32);
    }

    fn insert_inactive(&mut self, v: usize) {
        let l = self.label[v] as usize;
        let first = self.first_inactive[l];
        self.next_inactive[v] = first;
        self.prev_inactive[v] = NONE;
        if first != NONE {
            self.prev_inactive[first as usize] = v as u32;
        }
        self.first_inactive[l] = v as u32;
    }

    fn remove_inactive(&mut self, v: usize) {
        let (prev, next) = (self.prev_inactive[v], self.next_inactive[v]);
        if prev == NONE {
            self.first_inactive[self.label[v] as usize] = next;
        } else {
            self.next_inactive[prev as usize] = next;
        }
        if next != NONE {
            self.prev_inactive[next as usize] = prev;
        }
    }

    /// Exact distances to the sink by a backward breadth-first search over
    /// residual arcs; unreached vertices get label `n`. Rebuilds the
    /// bucket lists and resets every current arc.
    fn global_relabel(&mut self) {
        self.work = 0;
        let n = self.n;
        self.label.fill(n);
        self.first_active.fill(NONE);
        self.first_inactive.fill(NONE);
        self.queue.clear();
        self.label[self.sink] = 0;
        self.queue.push(self.sink as u32);
        let mut i = 0;
        while i < self.queue.len() {
            let x = self.queue[i] as usize;
            i += 1;
            let d = self.label[x] + 1;
            for e in self.net.arcs(x) {
                let y = self.net.head[e] as usize;
                if self.label[y] == n
                    && y != self.source
                    && self.net.cap[self.net.rev[e] as usize] > 0
                {
                    self.label[y] = d;
                    self.queue.push(y as u32);
                }
            }
        }
        self.max_active = 0;
        self.max_label = 0;
        for i in 0..self.queue.len() {
            let y = self.queue[i] as usize;
            self.current[y] = self.net.start[y];
            self.max_label = self.max_label.max(self.label[y]);
            if y != self.sink && self.excess[y] > 0 {
                self.push_active(y);
            } else {
                self.insert_inactive(y);
            }
        }
    }

    fn discharge_all(&mut self) {
        loop {
            let l = self.max_active as usize;
            let v = self.first_active[l];
            if v == NONE {
                if l == 0 {
                    return;
                }
                self.max_active -= 1;
                continue;
            }
            self.first_active[l] = self.next_active[v as usize];
            self.counts.discharges += 1;
            self.discharge(v as usize);
            if self.work > self.work_limit {
                self.global_relabel();
            }
        }
    }

    /// Pushes `v`'s excess along admissible arcs, relabeling as needed,
    /// until the excess is gone or `v` can no longer reach the sink. `v`
    /// is in no bucket list on entry.
    fn discharge(&mut self, v: usize) {
        loop {
            let d = self.label[v];
            let end = self.net.start[v + 1] as usize;
            let mut e = self.current[v] as usize;
            while e < end {
                let c = self.net.cap[e];
                let w = self.net.head[e] as usize;
                if c > 0 && self.label[w] + 1 == d {
                    let delta = c.min(self.excess[v]);
                    self.counts.pushes += 1;
                    self.net.cap[e] -= delta;
                    self.net.cap[self.net.rev[e] as usize] += delta;
                    if w != self.sink && self.excess[w] == 0 {
                        self.remove_inactive(w);
                        self.push_active(w);
                    }
                    self.excess[w] += delta;
                    self.excess[v] -= delta;
                    if self.excess[v] == 0 {
                        break;
                    }
                }
                e += 1;
            }
            self.current[v] = e as u32;
            if self.excess[v] == 0 {
                self.insert_inactive(v);
                return;
            }
            let l = d as usize;
            if self.first_active[l] == NONE && self.first_inactive[l] == NONE {
                // `v` was alone at label d: nothing above the gap can
                // reach the sink any more.
                self.gap(d);
                self.label[v] = self.n;
                return;
            }
            self.relabel(v);
            if self.label[v] == self.n {
                return;
            }
        }
    }

    /// Lifts `v` to one above its lowest residual neighbour (or to `n`),
    /// pointing its current arc at that neighbour.
    fn relabel(&mut self, v: usize) {
        let mut best = self.n;
        let mut best_arc = 0;
        let arcs = self.net.arcs(v);
        self.work += RELABEL_WORK + arcs.len() as u64;
        self.counts.relabels += 1;
        for e in arcs {
            if self.net.cap[e] > 0 {
                let d = self.label[self.net.head[e] as usize] + 1;
                if d < best {
                    best = d;
                    best_arc = e;
                }
            }
        }
        self.label[v] = best;
        if best < self.n {
            self.current[v] = best_arc as u32;
            self.max_label = self.max_label.max(best);
        }
    }

    /// Label `d` has emptied: every vertex labeled `d` or above is cut off
    /// from the sink and leaves the buckets with label `n`.
    fn gap(&mut self, d: u32) {
        for l in d..=self.max_label {
            let l = l as usize;
            let mut v = std::mem::replace(&mut self.first_active[l], NONE);
            while v != NONE {
                self.label[v as usize] = self.n;
                v = self.next_active[v as usize];
            }
            let mut v = std::mem::replace(&mut self.first_inactive[l], NONE);
            while v != NONE {
                self.label[v as usize] = self.n;
                v = self.next_inactive[v as usize];
            }
        }
        self.max_label = d.saturating_sub(1);
        self.max_active = self.max_active.min(self.max_label);
    }

    /// Phase 1's postconditions, checked in builds with debug assertions:
    /// capacities are non-negative, excess is conserved at every vertex,
    /// labels are valid, and no vertex that can reach the sink holds
    /// excess.
    fn check_maximum_preflow(&self) {
        #[cfg(debug_assertions)]
        {
            let net = &*self.net;
            let mut total = 0i64;
            for v in 0..self.n as usize {
                let mut outflow = 0i64;
                for e in net.arcs(v) {
                    assert!(net.cap[e] >= 0, "negative residual capacity");
                    outflow += self.initial[e] - net.cap[e];
                    let w = net.head[e] as usize;
                    if net.cap[e] > 0 && self.label[v] < self.n {
                        assert!(
                            self.label[v] <= self.label[w] + 1,
                            "invalid label on residual arc {v} -> {w}"
                        );
                    }
                }
                assert_eq!(self.excess[v], -outflow, "excess not conserved at {v}");
                if v != self.source {
                    assert!(self.excess[v] >= 0, "negative excess at {v}");
                }
                if v != self.sink && v != self.source && self.excess[v] > 0 {
                    assert_eq!(self.label[v], self.n, "active vertex {v} left over");
                }
                total += self.excess[v];
            }
            assert_eq!(total, 0, "excess not conserved");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::FlowNetwork;

    #[test]
    fn classic_textbook_network() {
        // CLRS figure: max flow 23. The minimum cut closest to the sink
        // is {1→3, 4→3, 4→5} (12 + 7 + 4), so only 3 and 5 reach it.
        let arcs = [
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
        let run = Network::new(6, &arcs).max_preflow(0, 5, true);
        assert_eq!(run.flow, 23);
        assert_eq!(run.sink_side, vec![3, 5]);
    }

    #[test]
    #[should_panic(expected = "invalid terminals")]
    fn same_source_and_sink_panics() {
        Network::new(2, &[(0, 1, 1)]).max_preflow(1, 1, false);
    }

    #[test]
    fn matches_dinic_on_random_general_networks() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for _ in 0..400 {
            let n = rng.gen_range(2..12);
            let (s, t) = (0, n - 1);
            // Some unbounded arcs between inner vertices, cycles among
            // them included, give the seeding pass routes to take.
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.3) {
                        let inner = ![u, v].iter().any(|&x| x == s || x == t);
                        let cap = match inner && rng.gen_bool(0.2) {
                            true => INF_CAP,
                            false => rng.gen_range(0..9i64),
                        };
                        arcs.push((u, v, cap));
                    }
                }
            }
            let mut dinic = FlowNetwork::new(n);
            for &(u, v, c) in &arcs {
                dinic.add_edge(u, v, c);
            }
            let expected = dinic.max_flow(s, t);
            let Preflow {
                flow, sink_side, ..
            } = Network::new(n, &arcs).max_preflow(s, t, true);
            assert_eq!(flow, expected, "arcs {arcs:?}");
            assert_eq!(
                Network::new(n, &arcs).max_preflow(s, t, false).sink_side,
                sink_side,
                "arcs {arcs:?}"
            );
            // The sink side closes a cut of exactly the flow's capacity.
            let crossing: i64 = arcs
                .iter()
                .filter(|(u, v, _)| !sink_side.contains(u) && sink_side.contains(v))
                .map(|&(_, _, c)| c)
                .sum();
            assert_eq!(crossing, flow, "arcs {arcs:?}");
            assert!(sink_side.contains(&t) && !sink_side.contains(&s));
        }
    }
}
