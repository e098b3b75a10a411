//! The decentralized slicer agent: one per process, wrapping that
//! process's trace replay behind a [`LocalSlicer`] and the retrying
//! client machinery.
//!
//! The agent replays its process's local states in order, asks the
//! slicer which ones are abstraction-relevant, and forwards only those
//! to the server — **stop-and-wait**: event `k+1` leaves only after
//! `k` was acked. That strictness is what makes loss recoverable
//! without gaps: at most one event is ever unacked, so after a
//! reconnect the server's high-water mark decides exactly whether it
//! was applied (skip) or lost (resend). Pipelining would let a dropped
//! middle frame be silently skipped at resume — verdict corruption.
//!
//! Robustness:
//!
//! - **Heartbeats** ride the same socket (fire-and-forget) whenever
//!   the interval elapses or the slicer's summary cadence fires,
//!   carrying the latest causal-progress clock.
//! - **Crash/restart resync**: every (re)connect handshakes a
//!   `SlicerHello` and adopts the server's epoch; the high-water mark
//!   in the ack fast-forwards the replay, so an at-least-once restart
//!   never double-counts. The agent also adopts any later
//!   `SlicerHelloAck` seen mid-stream (a duplicated hello frame under
//!   chaos re-registers and bumps the epoch — the agent must follow).
//! - **Kill after k acks**: tests crash the agent right after its k-th
//!   acked event; the server notices via the heartbeat timeout and
//!   degrades the tenant to `Unknown` until a restarted agent resumes.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use gpd::abstraction::{Decision, LocalRelevance, LocalSlicer, SlicerStats};

use crate::client::{open_session, ClientConfig, ClientError};
use crate::protocol::{read_message, write_message, Message};

/// What a finished (or killed) slicer run observed.
#[derive(Debug, Clone, Default)]
pub struct SlicerReport {
    /// The slicer's message-complexity counters.
    pub stats: SlicerStats,
    /// Heartbeat frames sent.
    pub heartbeats: u64,
    /// Reconnects performed (0 on a fault-free run).
    pub reconnects: u64,
    /// In-flight events retransmitted after a reconnect.
    pub retransmits: u64,
    /// The last epoch the server adopted for this agent.
    pub epoch: u64,
    /// True when the run was killed mid-stream (the stream was NOT
    /// fully delivered; restart to resume).
    pub killed: bool,
}

/// A per-process slicer agent.
pub struct SlicerAgent {
    config: ClientConfig,
    process: u32,
    relevance: LocalRelevance,
    /// Emit a causal summary after this many consecutive skips.
    summary_every: usize,
    /// Send a heartbeat when this much time passed since the last
    /// frame (event, summary, or heartbeat) left.
    heartbeat_interval: Duration,
    /// Crash after this many acked events.
    kill_after: Option<usize>,
}

impl SlicerAgent {
    /// An agent for `process`, judging relevance with `relevance`.
    /// Defaults: summaries every 64 skips, heartbeats every 100 ms.
    pub fn new(config: ClientConfig, process: u32, relevance: LocalRelevance) -> Self {
        SlicerAgent {
            config,
            process,
            relevance,
            summary_every: 64,
            heartbeat_interval: Duration::from_millis(100),
            kill_after: None,
        }
    }

    /// Overrides the summary cadence (0 = never summarize).
    pub fn with_summary_every(mut self, every: usize) -> Self {
        self.summary_every = every;
        self
    }

    /// Overrides the heartbeat interval.
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Stops the agent abruptly right after its `acked`-th acked event
    /// (no `SlicerDone`, no goodbye), modeling a crash mid-stream.
    pub fn with_kill_after(mut self, acked: usize) -> Self {
        self.kill_after = Some(acked);
        self
    }

    fn killed(&self, acked: usize) -> bool {
        self.kill_after.is_some_and(|k| acked >= k)
    }

    /// Replays this process's local states — `(clock, local_true)`
    /// pairs in local order, **excluding** the initial state (that
    /// travels in `initial`) — forwarding the abstraction-relevant
    /// ones. Returns after the `SlicerDone` handshake, or early (with
    /// `killed = true`) once the [`with_kill_after`](Self::with_kill_after)
    /// count of acked events is reached.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] when faults outlast the retry
    /// budget, or a server/protocol error.
    pub fn run(
        &self,
        initial: &[bool],
        states: &[(Vec<u32>, bool)],
    ) -> Result<SlicerReport, ClientError> {
        let mut report = SlicerReport::default();
        let mut slicer = LocalSlicer::new(self.process as usize, self.summary_every);
        let mut failures = 0u32;
        let mut attempts = 0u32;
        let mut first_connect = true;
        // Next state to admit, and the admitted-but-unacked forward.
        let mut pos = 0usize;
        let mut pending: Option<Vec<u32>> = None;
        let mut acked = 0usize;

        'session: loop {
            if self.killed(acked) {
                report.killed = true;
                report.stats = slicer.stats();
                return Ok(report);
            }
            let hello = Message::SlicerHello {
                tenant: self.config.tenant.clone(),
                process: self.process,
                epoch: report.epoch,
                initial: initial.to_vec(),
            };
            let (mut stream, (epoch, high_water)) = open_session(
                &self.config,
                &hello,
                &mut failures,
                &mut attempts,
                |reply| match reply {
                    Message::SlicerHelloAck { epoch, high_water } => Ok((epoch, high_water)),
                    other => Err(other),
                },
            )?;
            report.epoch = epoch;
            if !first_connect {
                report.reconnects += 1;
            }
            first_connect = false;
            // Resync: states at or below the mark were applied in a
            // previous epoch. This settles the in-flight question too.
            slicer.resync(high_water);
            if let Some(clock) = pending.take() {
                let covered = high_water.is_some_and(|hw| clock[self.process as usize] <= hw);
                if !covered {
                    // Lost in flight: retransmit on the new session.
                    if self.send_event(&mut stream, &clock).is_err() {
                        failures += 1;
                        pending = Some(clock);
                        continue 'session;
                    }
                    report.retransmits += 1;
                    pending = Some(clock);
                }
            }
            let mut last_sent = Instant::now();

            loop {
                if self.killed(acked) {
                    report.killed = true;
                    report.stats = slicer.stats();
                    return Ok(report);
                }
                // Wait for the ack of the in-flight event.
                if let Some(clock) = &pending {
                    let seq = clock[self.process as usize];
                    match read_message(&mut stream) {
                        Ok(Message::Ack {
                            process,
                            seq: acked_seq,
                            ..
                        }) => {
                            if process == self.process && acked_seq == seq {
                                pending = None;
                                acked += 1;
                            }
                            // Stray acks of duplicated frames: ignore.
                        }
                        // A duplicated SlicerHello frame (chaos)
                        // re-registers and bumps the epoch; follow it
                        // so our heartbeats are not fenced as stale.
                        Ok(Message::SlicerHelloAck { epoch, .. }) => {
                            report.epoch = epoch;
                        }
                        Ok(Message::Error { message }) => return Err(ClientError::Server(message)),
                        Ok(other) => {
                            return Err(ClientError::Protocol(format!(
                                "expected Ack, got {other:?}"
                            )))
                        }
                        Err(_) => {
                            failures += 1;
                            continue 'session;
                        }
                    }
                    continue;
                }

                // Heartbeat when the interval elapsed with no traffic.
                if last_sent.elapsed() >= self.heartbeat_interval {
                    if self.send_beat(&mut stream, report.epoch, &slicer).is_err() {
                        failures += 1;
                        continue 'session;
                    }
                    report.heartbeats += 1;
                    last_sent = Instant::now();
                }

                // Admit states until one must be forwarded.
                let Some((clock, local_true)) = states.get(pos) else {
                    break; // stream fully replayed and acked
                };
                let relevant = self
                    .relevance
                    .relevant(clock[self.process as usize], *local_true);
                let vc = gpd_computation::VectorClock::from(clock.clone());
                match slicer.admit(&vc, relevant) {
                    Decision::Forward => {
                        if self.send_event(&mut stream, clock).is_err() {
                            failures += 1;
                            pending = Some(clock.clone());
                            pos += 1;
                            continue 'session;
                        }
                        pending = Some(clock.clone());
                        last_sent = Instant::now();
                    }
                    Decision::Summarize => {
                        if self.send_beat(&mut stream, report.epoch, &slicer).is_err() {
                            failures += 1;
                            pos += 1;
                            continue 'session;
                        }
                        report.heartbeats += 1;
                        last_sent = Instant::now();
                    }
                    Decision::Skip => {}
                }
                pos += 1;
            }

            // Graceful completion handshake.
            let progress = slicer
                .progress()
                .map(|c| c.as_slice().to_vec())
                .unwrap_or_default();
            let mut done_epoch = report.epoch;
            if write_message(
                &mut stream,
                &Message::SlicerDone {
                    process: self.process,
                    epoch: done_epoch,
                    progress: progress.clone(),
                },
            )
            .is_err()
            {
                failures += 1;
                continue 'session;
            }
            loop {
                match read_message(&mut stream) {
                    Ok(Message::SlicerDoneAck) => {
                        report.stats = slicer.stats();
                        return Ok(report);
                    }
                    // Stray acks of duplicated frames may still be
                    // queued ahead of the done-ack; drain them.
                    Ok(Message::Ack { .. }) => {}
                    Ok(Message::SlicerHelloAck { epoch, .. }) => {
                        report.epoch = epoch;
                        // A duplicated hello re-registered us under a
                        // newer epoch *after* our done left — that done
                        // was fenced as stale. Re-send it under the
                        // epoch the server actually holds, or the
                        // registry would count us dead forever.
                        if epoch > done_epoch {
                            done_epoch = epoch;
                            if write_message(
                                &mut stream,
                                &Message::SlicerDone {
                                    process: self.process,
                                    epoch: done_epoch,
                                    progress: progress.clone(),
                                },
                            )
                            .is_err()
                            {
                                failures += 1;
                                continue 'session;
                            }
                        }
                    }
                    Ok(Message::Error { message }) => return Err(ClientError::Server(message)),
                    Ok(other) => {
                        return Err(ClientError::Protocol(format!(
                            "expected SlicerDoneAck, got {other:?}"
                        )))
                    }
                    Err(_) => {
                        failures += 1;
                        continue 'session;
                    }
                }
            }
        }
    }

    fn send_event(&self, stream: &mut TcpStream, clock: &[u32]) -> std::io::Result<()> {
        write_message(
            stream,
            &Message::Event {
                process: self.process,
                clock: clock.to_vec(),
            },
        )
    }

    fn send_beat(
        &self,
        stream: &mut TcpStream,
        epoch: u64,
        slicer: &LocalSlicer,
    ) -> std::io::Result<()> {
        write_message(
            stream,
            &Message::Heartbeat {
                process: self.process,
                epoch,
                progress: slicer
                    .progress()
                    .map(|c| c.as_slice().to_vec())
                    .unwrap_or_default(),
            },
        )
    }
}
