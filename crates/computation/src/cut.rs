//! Cuts: global states as frontier vectors.

use crate::computation::Computation;
use crate::event::{EventId, ProcessId};

/// A cut of a computation, stored as a *frontier vector*: entry `p` is the
/// number of (non-initial) events of process `p` contained in the cut.
///
/// Every cut implicitly contains each process's initial event, matching
/// the paper's model where the fictitious initial events belong to every
/// cut. A cut is *consistent* when it is causally downward closed, which
/// [`Computation::is_consistent`] checks.
///
/// # Example
///
/// ```
/// use gpd_computation::{Cut, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(2);
/// let e = b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
///
/// let cut = Cut::from_frontier(vec![1, 0]);
/// assert!(cut.contains(&comp, e));
/// assert!(cut.passes_through(&comp, e));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cut {
    frontier: Vec<u32>,
}

impl Cut {
    /// Creates a cut from a frontier vector (one entry per process).
    pub fn from_frontier(frontier: Vec<u32>) -> Self {
        Cut { frontier }
    }

    /// The frontier vector.
    pub fn frontier(&self) -> &[u32] {
        &self.frontier
    }

    /// The frontier vector, to overwrite in place (one scratch cut per sweep).
    pub fn frontier_mut(&mut self) -> &mut [u32] {
        &mut self.frontier
    }

    /// The number of non-initial events in the cut.
    pub fn event_count(&self) -> usize {
        self.frontier.iter().map(|&f| f as usize).sum()
    }

    /// Whether the cut contains event `e` of `comp`.
    ///
    /// # Panics
    ///
    /// Panics if `e`'s process is outside the cut's shape.
    pub fn contains(&self, comp: &Computation, e: EventId) -> bool {
        comp.local_index(e) <= self.frontier[comp.process_of(e).index()]
    }

    /// Whether the cut *passes through* `e`: `e` is the last event of its
    /// process inside the cut (the paper's definition).
    pub fn passes_through(&self, comp: &Computation, e: EventId) -> bool {
        comp.local_index(e) == self.frontier[comp.process_of(e).index()]
    }

    /// The number of events of `process` in the cut (the local state
    /// index the process is in at this cut).
    pub fn state_of(&self, process: impl Into<ProcessId>) -> u32 {
        self.frontier[process.into().index()]
    }

    /// Whether `other` is reachable from `self` by executing zero or more
    /// events (i.e. `self ⊆ other`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn leq(&self, other: &Cut) -> bool {
        assert_eq!(
            self.frontier.len(),
            other.frontier.len(),
            "cut shape mismatch"
        );
        crate::kernel::dominated(&self.frontier, &other.frontier)
    }
}

impl std::fmt::Debug for Cut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cut{:?}", self.frontier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;

    #[test]
    fn contains_and_passes_through() {
        let mut b = ComputationBuilder::new(1);
        let e1 = b.append(0);
        let e2 = b.append(0);
        let comp = b.build().unwrap();
        let cut = Cut::from_frontier(vec![1]);
        assert!(cut.contains(&comp, e1));
        assert!(!cut.contains(&comp, e2));
        assert!(cut.passes_through(&comp, e1));
        assert!(!cut.passes_through(&comp, e2));
        assert!(Cut::from_frontier(vec![2]).contains(&comp, e2));
    }

    #[test]
    fn event_count_sums_frontier() {
        assert_eq!(Cut::from_frontier(vec![2, 0, 3]).event_count(), 5);
        assert_eq!(Cut::from_frontier(vec![]).event_count(), 0);
    }

    #[test]
    fn leq_is_pointwise() {
        let a = Cut::from_frontier(vec![1, 2]);
        let b = Cut::from_frontier(vec![2, 2]);
        let c = Cut::from_frontier(vec![0, 3]);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        assert!(!a.leq(&c) && !c.leq(&a));
        assert!(a.leq(&a));
    }

    #[test]
    fn state_of_reads_frontier() {
        let cut = Cut::from_frontier(vec![4, 7]);
        assert_eq!(cut.state_of(0), 4);
        assert_eq!(cut.state_of(1), 7);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Cut::from_frontier(vec![1, 0])), "Cut[1, 0]");
    }
}
