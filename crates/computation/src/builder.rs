//! Incremental construction of computations.

use crate::computation::{Computation, Csr};
use crate::event::{EventId, EventKind, ProcessId};

/// Error produced while building a computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A message was added whose endpoints live on the same process.
    SameProcessMessage {
        /// The sending event.
        send: EventId,
        /// The receiving event.
        receive: EventId,
    },
    /// The program order plus message edges contain a cycle, so the edge
    /// relation is not a partial order.
    Cycle,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::SameProcessMessage { send, receive } => write!(
                f,
                "message {send:?} → {receive:?} stays on one process; use program order instead"
            ),
            BuildError::Cycle => write!(f, "events and messages form a causal cycle"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Computation`] by appending events to processes and
/// connecting them with messages.
///
/// The fictitious *initial events* of the paper's model are implicit: the
/// builder only records real events, and every consistent cut contains all
/// initial events by construction.
///
/// # Example
///
/// ```
/// use gpd_computation::ComputationBuilder;
///
/// let mut b = ComputationBuilder::new(3);
/// let s = b.append(0);
/// let r = b.append(2);
/// b.message(s, r).unwrap();
/// b.append(1); // an internal event on p1
/// let comp = b.build().unwrap();
/// assert_eq!(comp.event_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ComputationBuilder {
    /// The number of events appended so far on each process.
    proc_len: Vec<u32>,
    event_proc: Vec<ProcessId>,
    event_local: Vec<u32>,
    kinds: Vec<EventKind>,
    messages: Vec<(EventId, EventId)>,
}

impl ComputationBuilder {
    /// Creates a builder for a computation over `processes` processes.
    pub fn new(processes: usize) -> Self {
        ComputationBuilder {
            proc_len: vec![0; processes],
            event_proc: Vec::new(),
            event_local: Vec::new(),
            kinds: Vec::new(),
            messages: Vec::new(),
        }
    }

    /// Reserves room for at least `events` more events, so that
    /// appending a known number of events allocates once.
    pub fn reserve(&mut self, events: usize) {
        self.event_proc.reserve(events);
        self.event_local.reserve(events);
        self.kinds.reserve(events);
    }

    /// Reserves room for at least `messages` more messages.
    pub(crate) fn reserve_messages(&mut self, messages: usize) {
        self.messages.reserve(messages);
    }

    /// The number of processes.
    pub fn process_count(&self) -> usize {
        self.proc_len.len()
    }

    /// The number of events appended so far.
    pub fn event_count(&self) -> usize {
        self.event_proc.len()
    }

    /// Appends a new event at the end of `process`'s local computation and
    /// returns its id. The event starts as [`EventKind::Internal`];
    /// attaching messages upgrades its kind.
    ///
    /// # Panics
    ///
    /// Panics if the process index is out of range.
    pub fn append(&mut self, process: impl Into<ProcessId>) -> EventId {
        let p = process.into();
        assert!(
            p.index() < self.proc_len.len(),
            "process {p} out of range {}",
            self.proc_len.len()
        );
        let id = EventId::new(self.event_proc.len());
        self.append_run(p.index(), 1);
        id
    }

    /// Appends `count` events at the end of `process`'s local
    /// computation in one step, as `count` [`append`](Self::append)
    /// calls would.
    pub(crate) fn append_run(&mut self, process: usize, count: usize) {
        let local = self.proc_len[process];
        self.proc_len[process] = local + u32::try_from(count).expect("event count fits in u32");
        self.event_local.extend(local + 1..=self.proc_len[process]);
        self.event_proc
            .extend(std::iter::repeat_n(ProcessId::new(process), count));
        self.kinds
            .extend(std::iter::repeat_n(EventKind::Internal, count));
    }

    /// Records a message sent at `send` and received at `receive`. An
    /// event may send or receive any number of messages (the model allows
    /// multicast and merged receives). Channels are not FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::SameProcessMessage`] if both endpoints are on
    /// the same process. Cycles are only detected at [`build`](Self::build)
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if either event id was not produced by this builder.
    pub fn message(&mut self, send: EventId, receive: EventId) -> Result<(), BuildError> {
        let count = self.event_proc.len();
        assert!(
            send.index() < count && receive.index() < count,
            "unknown event id"
        );
        if self.event_proc[send.index()] == self.event_proc[receive.index()] {
            return Err(BuildError::SameProcessMessage { send, receive });
        }
        self.kinds[send.index()] = self.kinds[send.index()].with_send();
        self.kinds[receive.index()] = self.kinds[receive.index()].with_receive();
        self.messages.push((send, receive));
        Ok(())
    }

    /// Finalizes the computation: checks acyclicity and records an
    /// order in which every event follows its causal predecessors. The
    /// [`Computation`] fills its Fidge–Mattern clock matrix on the first
    /// clock read by replaying that order, never here.
    ///
    /// One linear pass, O(|E| + |M|), with a constant number of
    /// allocations whatever the size: the per-process event lists and
    /// the message predecessor/successor lists are each one counting
    /// sort into CSR form (messages in insertion order), handed to the
    /// [`Computation`] as built. Events are finished by a cursor sweep:
    /// each process keeps a cursor on its next event, each event a count
    /// of senders not yet finished, and a worklist holds the processes
    /// whose next event has none left. Finishing an event appends it to
    /// the order and queues the process of any receiver that becomes
    /// ready at the head of its process.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Cycle`] if program order plus messages is not
    /// a partial order — exactly when some event is never finished.
    pub fn build(self) -> Result<Computation, BuildError> {
        let n = self.proc_len.len();
        let event_count = self.event_proc.len();
        let procs = Csr::group(
            n,
            self.event_proc
                .iter()
                .enumerate()
                .map(|(e, p)| (p.index(), EventId::new(e))),
        );
        let preds = Csr::group(
            event_count,
            self.messages.iter().map(|&(s, r)| (r.index(), s)),
        );
        let succs = Csr::group(
            event_count,
            self.messages.iter().map(|&(s, r)| (s.index(), r)),
        );

        // pending[e]: senders of e's messages not yet finished.
        let mut pending: Vec<u32> = (0..event_count).map(|e| preds.len_of(e)).collect();
        let mut cursor = vec![0u32; n];
        // A process is queued only while its head event is ready and
        // the stack is drained before the next start, so it never holds
        // more than `n` entries.
        let mut ready: Vec<usize> = Vec::with_capacity(n);
        let mut order: Vec<EventId> = Vec::with_capacity(event_count);
        for start in 0..n {
            ready.push(start);
            while let Some(p) = ready.pop() {
                let line = procs.list(p);
                let mut k = cursor[p] as usize;
                while let Some(&e) = line.get(k) {
                    if pending[e.index()] != 0 {
                        break;
                    }
                    order.push(e);
                    k += 1;
                    for r in succs.list(e.index()) {
                        let r = r.index();
                        pending[r] -= 1;
                        let q = self.event_proc[r].index();
                        if pending[r] == 0 && cursor[q] + 1 == self.event_local[r] {
                            ready.push(q);
                        }
                    }
                }
                cursor[p] = k as u32;
            }
        }
        if order.len() < event_count {
            return Err(BuildError::Cycle);
        }
        debug_assert!(pending.iter().all(|&c| c == 0), "a sender left unfinished");

        Ok(Computation::from_parts(
            procs,
            self.event_proc,
            self.event_local,
            self.kinds,
            self.messages,
            preds,
            succs,
            order,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_computation_builds() {
        let comp = ComputationBuilder::new(3).build().unwrap();
        assert_eq!(comp.process_count(), 3);
        assert_eq!(comp.event_count(), 0);
    }

    #[test]
    fn kinds_follow_messages() {
        let mut b = ComputationBuilder::new(2);
        let a = b.append(0);
        let c = b.append(1);
        let d = b.append(1);
        b.message(a, c).unwrap();
        b.message(d, a).unwrap(); // a both sends and receives
        let comp = b.build();
        // d → a and a → c is acyclic (d is after c on p1? No: c before d,
        // so a → c → d → a is a cycle). Expect the cycle to be caught.
        assert_eq!(comp.unwrap_err(), BuildError::Cycle);

        let mut b = ComputationBuilder::new(2);
        let a = b.append(0);
        let c = b.append(1);
        b.message(a, c).unwrap();
        let comp = b.build().unwrap();
        assert!(comp.kind(a).is_send());
        assert!(!comp.kind(a).is_receive());
        assert!(comp.kind(c).is_receive());
    }

    #[test]
    fn same_process_message_rejected() {
        let mut b = ComputationBuilder::new(1);
        let e1 = b.append(0);
        let e2 = b.append(0);
        assert!(matches!(
            b.message(e1, e2),
            Err(BuildError::SameProcessMessage { .. })
        ));
    }

    #[test]
    fn message_cycle_detected_at_build() {
        let mut b = ComputationBuilder::new(2);
        let a1 = b.append(0);
        let a2 = b.append(0);
        let b1 = b.append(1);
        let b2 = b.append(1);
        b.message(a2, b1).unwrap();
        b.message(b2, a1).unwrap();
        assert_eq!(b.build().unwrap_err(), BuildError::Cycle);
    }

    #[test]
    fn vector_clocks_of_message_exchange() {
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        let after = b.append(1);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        assert_eq!(comp.clock(s).as_slice(), &[1, 0]);
        assert_eq!(comp.clock(r).as_slice(), &[1, 1]);
        assert_eq!(comp.clock(after).as_slice(), &[1, 2]);
    }

    #[test]
    fn multiple_receives_merge_clocks() {
        let mut b = ComputationBuilder::new(3);
        let s0 = b.append(0);
        let s1 = b.append(1);
        let r = b.append(2);
        b.message(s0, r).unwrap();
        b.message(s1, r).unwrap();
        let comp = b.build().unwrap();
        assert_eq!(comp.clock(r).as_slice(), &[1, 1, 1]);
        assert_eq!(comp.kind(r), crate::EventKind::Receive);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn append_to_unknown_process_panics() {
        ComputationBuilder::new(1).append(1);
    }

    #[test]
    fn build_error_display() {
        assert!(BuildError::Cycle.to_string().contains("cycle"));
    }
}
