//! Replicas of superseded implementations, kept as measured baselines.
//!
//! Two generations live here:
//!
//! * **PR 2 storage layout** ([`LegacyComputation`]): one heap-allocated
//!   vector clock per event (`Vec<VectorClock>`), per-process event
//!   lists as `Vec<Vec<EventId>>`, and a fresh `Vec<Cut>` per lattice
//!   expansion — the baseline for the flat-kernel comparison in
//!   `report`. The BFS replica yields cuts in the same order as
//!   [`gpd_computation::CutIter`], which is what makes first-witness
//!   comparisons byte-identical.
//! * **PR 6 parallel scheduling** ([`possibly_level_sync`]): the
//!   level-synchronous parallel enumeration that spawned a fresh
//!   `std::thread::scope` per wave, distributed work through one shared
//!   atomic cursor and merged successors through `Mutex`-locked shards —
//!   the baseline for the PR 7 persistent-pool/work-stealing comparison.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use gpd_computation::{Computation, Cut, FrontierPacker, PackedFrontier};

/// The PR 2 storage layout: nested heap vectors instead of CSR rows and a
/// flat clock matrix.
pub struct LegacyComputation {
    process_count: usize,
    /// `proc_events[p][i]` — index of the `i`-th event on process `p`.
    proc_events: Vec<Vec<usize>>,
    /// One independently heap-allocated clock row per event, as the old
    /// `Vec<VectorClock>` held them.
    clocks: Vec<Vec<u32>>,
    packer: FrontierPacker,
}

impl LegacyComputation {
    /// Copies `comp` into the old layout.
    pub fn replicate(comp: &Computation) -> Self {
        let clocks = comp
            .events()
            .map(|e| comp.clock(e).as_slice().to_vec())
            .collect();
        let proc_events = (0..comp.process_count())
            .map(|p| comp.events_of(p).iter().map(|e| e.index()).collect())
            .collect();
        LegacyComputation {
            process_count: comp.process_count(),
            proc_events,
            clocks,
            packer: FrontierPacker::new(comp),
        }
    }

    /// The empty cut.
    pub fn initial_cut(&self) -> Cut {
        Cut::from_frontier(vec![0; self.process_count])
    }

    /// Verbatim PR 2 successor generation: per-process short-circuiting
    /// clock scan through the nested vectors, one fresh `Vec<Cut>` per
    /// call.
    pub fn cut_successors(&self, cut: &Cut) -> Vec<Cut> {
        let mut out = Vec::new();
        for p in 0..self.process_count {
            let f = cut.frontier()[p];
            if (f as usize) < self.proc_events[p].len() {
                let e = self.proc_events[p][f as usize];
                let vc = &self.clocks[e];
                let enabled = (0..self.process_count).all(|q| q == p || vc[q] <= cut.frontier()[q]);
                if enabled {
                    let mut next = cut.frontier().to_vec();
                    next[p] += 1;
                    out.push(Cut::from_frontier(next));
                }
            }
        }
        out
    }

    /// Verbatim PR 2 lattice BFS: packed visited keys, but every
    /// successor allocated before the visited-set probe.
    pub fn consistent_cuts(&self) -> LegacyCutIter<'_> {
        let initial = self.initial_cut();
        let mut seen = HashSet::new();
        seen.insert(self.packer.pack_cut(&initial));
        LegacyCutIter {
            comp: self,
            queue: VecDeque::from([initial]),
            seen,
        }
    }

    /// PR 2's sequential enumeration detector: first cut of the BFS sweep
    /// satisfying `predicate`.
    pub fn possibly_by_enumeration(&self, mut predicate: impl FnMut(&Cut) -> bool) -> Option<Cut> {
        self.consistent_cuts().find(|cut| predicate(cut))
    }
}

/// Breadth-first lattice sweep over the legacy layout.
pub struct LegacyCutIter<'a> {
    comp: &'a LegacyComputation,
    queue: VecDeque<Cut>,
    seen: HashSet<PackedFrontier>,
}

impl Iterator for LegacyCutIter<'_> {
    type Item = Cut;

    fn next(&mut self) -> Option<Cut> {
        let cut = self.queue.pop_front()?;
        for next in self.comp.cut_successors(&cut) {
            if self.seen.insert(self.comp.packer.pack_cut(&next)) {
                self.queue.push_back(next);
            }
        }
        Some(cut)
    }
}

/// The PR 6-era fan-out: a fresh `std::thread::scope` per call (one
/// spawn/join cycle per lattice level), work handed out index-by-index
/// from one shared atomic cursor — maximal contention, no chunking, no
/// stealing, no thread reuse. The submitting thread participates.
fn scoped_for_each(threads: usize, count: usize, f: &(dyn Fn(usize) + Sync)) {
    let workers = threads.max(1).min(count.max(1));
    let drain = |cursor: &AtomicUsize| loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        f(i);
    };
    if workers <= 1 {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers - 1 {
            scope.spawn(|| drain(&cursor));
        }
        drain(&cursor);
    });
}

/// The PR 6 parallel enumeration detector, replicated verbatim: walks
/// the lattice breadth-first one event-count level at a time, expanding
/// through `Mutex`-locked shards and probing each level with a racy
/// first-hit search, all on [`scoped_for_each`]'s per-wave thread
/// scopes. Returns a lowest-*level* witness; which same-level cut wins
/// is a race (the reason `gpd::enumerate::possibly_by_enumeration_budgeted`
/// replaced it with the deterministic work-stealing sweeps). `report`
/// measures this path against the replacement on identical workloads.
pub fn possibly_level_sync(
    comp: &Computation,
    predicate: &(dyn Fn(&Cut) -> bool + Sync),
    threads: usize,
) -> Option<Cut> {
    let start = comp.initial_cut();
    if predicate(&start) {
        return Some(start);
    }
    let total = comp.final_cut().event_count();
    let packer = FrontierPacker::new(comp);
    let mut level: Vec<Cut> = vec![start];
    let shards = (threads.max(1) * 4).next_power_of_two();
    for _k in 0..total {
        type Shard = (HashSet<PackedFrontier>, Vec<Cut>);
        let sharded: Vec<Mutex<Shard>> = (0..shards)
            .map(|_| Mutex::new((HashSet::new(), Vec::new())))
            .collect();
        scoped_for_each(threads, level.len(), &|i| {
            for succ in comp.cut_successors(&level[i]) {
                let packed = packer.pack_cut(&succ);
                let shard = (packed.hash_value() as usize) & (shards - 1);
                let mut guard = sharded[shard].lock().unwrap();
                if guard.0.insert(packed) {
                    guard.1.push(succ);
                }
            }
        });
        let next: Vec<Cut> = sharded
            .into_iter()
            .flat_map(|s| s.into_inner().unwrap().1)
            .collect();
        if next.is_empty() {
            return None;
        }
        let found = AtomicBool::new(false);
        let hit: Mutex<Option<Cut>> = Mutex::new(None);
        scoped_for_each(threads, next.len(), &|i| {
            if !found.load(Ordering::Relaxed) && predicate(&next[i]) {
                found.store(true, Ordering::Relaxed);
                hit.lock().unwrap().get_or_insert_with(|| next[i].clone());
            }
        });
        if let Some(witness) = hit.into_inner().unwrap() {
            return Some(witness);
        }
        level = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::gen;
    use rand::SeedableRng;

    #[test]
    fn legacy_sweep_matches_flat_sweep_cut_for_cut() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..15 {
            let comp = gen::random_computation(&mut rng, 4, 4, 5);
            let legacy = LegacyComputation::replicate(&comp);
            let old: Vec<Cut> = legacy.consistent_cuts().collect();
            let new: Vec<Cut> = comp.consistent_cuts().collect();
            assert_eq!(old, new, "BFS order must be identical across layouts");
        }
    }

    #[test]
    fn level_sync_agrees_with_deterministic_parallel_engine() {
        use gpd::enumerate::possibly_by_enumeration_budgeted;
        use gpd::{Budget, BudgetMeter};
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        for round in 0..20 {
            let n = rng.gen_range(1..4);
            let m = rng.gen_range(1..5);
            let msgs = if n > 1 { rng.gen_range(0..n) } else { 0 };
            let comp = gen::random_computation(&mut rng, n, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let phi = move |c: &Cut| (0..n).all(|p| x.value_at(c, p));
            for threads in [1, 4] {
                let old = possibly_level_sync(&comp, &phi, threads);
                let new = possibly_by_enumeration_budgeted(
                    &comp,
                    &phi,
                    threads,
                    &Budget::unlimited(),
                    &BudgetMeter::new(),
                    None,
                )
                .unwrap()
                .value()
                .cloned()
                .expect("unlimited budgets always decide");
                assert_eq!(old.is_some(), new.is_some(), "round {round}");
                if let (Some(o), Some(w)) = (&old, &new) {
                    // Same lowest satisfying level; the legacy cut within
                    // that level is whichever won the race.
                    assert_eq!(o.event_count(), w.event_count(), "round {round}");
                }
            }
        }
    }

    #[test]
    fn legacy_successors_match_flat_successors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let comp = gen::random_computation(&mut rng, 5, 5, 8);
        let legacy = LegacyComputation::replicate(&comp);
        for cut in comp.consistent_cuts() {
            assert_eq!(legacy.cut_successors(&cut), comp.cut_successors(&cut));
        }
    }
}
