//! Breadth-first enumeration of the lattice of consistent cuts.

use std::collections::{HashSet, VecDeque};

use crate::computation::Computation;
use crate::cut::Cut;
use crate::packed::{FrontierPacker, PackedFrontier};

/// Iterator over every consistent cut of a computation, in breadth-first
/// order from the initial cut (so cuts are yielded in nondecreasing event
/// count — one lattice *level* after another).
///
/// The lattice is exponential in general: this iterator is the
/// Cooper–Marzullo-style baseline that the paper's polynomial algorithms
/// are measured against, and the exact oracle the test suite validates
/// them with.
///
/// # Example
///
/// ```
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// // Each process independently contributes states {0, 1}: 2 × 2 cuts.
/// assert_eq!(comp.consistent_cuts().count(), 4);
/// ```
pub struct CutIter<'a> {
    comp: &'a Computation,
    // Cuts of the current lattice level still to be yielded, in
    // generation order, and the next level being accumulated. The walk
    // is level-synchronous so the visited set below can stay small.
    level: VecDeque<Cut>,
    next_level: Vec<Cut>,
    // Visited cuts are remembered packed (a few pre-hashed u64 words per
    // frontier) instead of as Vec<u32> keys: the visited set is probed
    // once per lattice edge, the hottest path of the sweep. The lattice
    // is graded — every successor of a k-event cut has k+1 events — so
    // duplicates only arise within the level being built and the set is
    // cleared at each level boundary, keeping it one level wide (and
    // cache-resident) instead of history-wide.
    packer: FrontierPacker,
    seen: HashSet<PackedFrontier>,
    // Scratch frontier for candidate successors: each expansion bumps
    // one entry in place, packs, probes the visited set, and only
    // allocates a `Cut` for genuinely new cuts. Duplicate lattice edges
    // (the common case — every cut has up to n predecessors) cost no
    // allocation at all.
    scratch: Vec<u32>,
}

impl<'a> CutIter<'a> {
    pub(crate) fn new(comp: &'a Computation) -> Self {
        CutIter {
            comp,
            level: VecDeque::from([comp.initial_cut()]),
            next_level: Vec::new(),
            packer: FrontierPacker::new(comp),
            seen: HashSet::new(),
            scratch: vec![0; comp.process_count()],
        }
    }
}

impl Iterator for CutIter<'_> {
    type Item = Cut;

    fn next(&mut self) -> Option<Cut> {
        if self.level.is_empty() {
            if self.next_level.is_empty() {
                return None;
            }
            self.level.extend(self.next_level.drain(..));
            self.seen.clear();
        }
        let cut = self.level.pop_front()?;
        let comp = self.comp;
        let CutIter {
            packer,
            seen,
            next_level,
            scratch,
            ..
        } = self;
        scratch.clear();
        scratch.extend_from_slice(cut.frontier());
        comp.for_each_enabled(cut.frontier(), |p, _| {
            scratch[p] += 1;
            if seen.insert(packer.pack(scratch)) {
                next_level.push(Cut::from_frontier(scratch.clone()));
            }
            scratch[p] -= 1;
        });
        Some(cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;

    fn chain_processes(lens: &[usize]) -> Computation {
        let mut b = ComputationBuilder::new(lens.len());
        for (p, &len) in lens.iter().enumerate() {
            for _ in 0..len {
                b.append(p);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn independent_processes_multiply() {
        // (2+1)(3+1) = 12 cuts.
        assert_eq!(chain_processes(&[2, 3]).consistent_cuts().count(), 12);
    }

    #[test]
    fn single_process_chain() {
        assert_eq!(chain_processes(&[5]).consistent_cuts().count(), 6);
    }

    #[test]
    fn empty_computation_has_one_cut() {
        assert_eq!(chain_processes(&[]).consistent_cuts().count(), 1);
        assert_eq!(chain_processes(&[0, 0]).consistent_cuts().count(), 1);
    }

    #[test]
    fn message_constrains_lattice() {
        // p0: s, p1: r, message s → r: cuts are {[],[s],[s r]} by
        // frontier: [0,0],[1,0],[1,1] — [0,1] is inconsistent.
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let cuts: Vec<Cut> = comp.consistent_cuts().collect();
        assert_eq!(cuts.len(), 3);
        assert!(!cuts.contains(&Cut::from_frontier(vec![0, 1])));
    }

    #[test]
    fn all_yielded_cuts_are_consistent_and_unique() {
        let mut b = ComputationBuilder::new(3);
        let e: Vec<_> = (0..9).map(|i| b.append(i % 3)).collect();
        b.message(e[0], e[4]).unwrap();
        b.message(e[4], e[8]).unwrap();
        b.message(e[2], e[6]).unwrap();
        let comp = b.build().unwrap();
        let cuts: Vec<Cut> = comp.consistent_cuts().collect();
        let set: HashSet<_> = cuts.iter().cloned().collect();
        assert_eq!(set.len(), cuts.len());
        for cut in &cuts {
            assert!(comp.is_consistent(cut));
        }
        // Exhaustive cross-check: every consistent frontier is yielded.
        let mut brute = 0;
        for a in 0..=3u32 {
            for b2 in 0..=3u32 {
                for c in 0..=3u32 {
                    if comp.is_consistent(&Cut::from_frontier(vec![a, b2, c])) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(cuts.len(), brute);
    }

    #[test]
    fn bfs_yields_levels_in_order() {
        let comp = chain_processes(&[2, 2]);
        let counts: Vec<usize> = comp.consistent_cuts().map(|c| c.event_count()).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(counts, sorted, "BFS must yield nondecreasing levels");
    }
}
