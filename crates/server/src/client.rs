//! The feeding client: streams a computation's true states to a
//! [`server`](crate::server) with timeouts, bounded retries,
//! exponential backoff with deterministic jitter, and
//! reconnect-with-resume.
//!
//! ## At-least-once, no gaps
//!
//! The monitor requires per-process FIFO delivery, so the client keeps
//! **at most one event per process in flight**: process `p`'s event
//! `k+1` is only sent after `k` was acked. Different processes pipeline
//! freely up to `max_inflight`. If an ack never arrives (loss, reset,
//! server crash), the read times out and the client reconnects; the
//! `HelloAck` high-water marks say exactly where each process resumes,
//! so lost events are retransmitted and already-applied ones are
//! skipped (or screened server-side as duplicates — either way the
//! monitor sees each state exactly once, in order).

use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{
    read_message, write_message, AckStatus, Message, ServerStats, SlicerVerdict, TenantStatsRow,
    DEFAULT_TENANT,
};

/// Deterministic backoff with jitter: `min(cap, base·2^failures)` plus
/// a jitter drawn from a generator seeded with `seed + failures`, so
/// replayed runs back off identically while distinct seeds (e.g. one
/// per slicer process) desynchronize retry storms.
fn backoff_delay(base: Duration, cap: Duration, seed: u64, failures: u32) -> Duration {
    let base_ms = base.as_millis() as u64;
    let cap_ms = cap.as_millis() as u64;
    let exp = base_ms.saturating_mul(1u64 << failures.min(16)).min(cap_ms);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(failures as u64));
    let jitter = if base_ms > 0 {
        rng.gen_range(0..=base_ms)
    } else {
        0
    };
    Duration::from_millis(exp + jitter)
}

/// Connects to `config.addr` with the configured I/O timeouts and
/// Nagle's algorithm off.
fn connect(config: &ClientConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(&config.addr)?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The handshake loop of both session kinds: connects with backoff,
/// sends `hello` (a `Hello` or a `SlicerHello`) and passes the reply to
/// `ack`, which takes the expected acknowledgement apart and hands any
/// other message back. A connection or I/O failure counts in
/// `failures` (consecutive, for the backoff schedule; reset on
/// success) and is retried while `attempts` (every attempt of the run)
/// is within the budget.
pub(crate) fn open_session<T>(
    config: &ClientConfig,
    hello: &Message,
    failures: &mut u32,
    attempts: &mut u32,
    ack: impl Fn(Message) -> Result<T, Message>,
) -> Result<(TcpStream, T), ClientError> {
    let (kind, expected) = match hello {
        Message::SlicerHello { .. } => ("slicer-hello", "SlicerHelloAck"),
        _ => ("hello", "HelloAck"),
    };
    loop {
        if *attempts >= config.max_retries {
            return Err(ClientError::RetriesExhausted {
                attempts: *attempts,
                last: format!("connect/{kind} budget exhausted"),
            });
        }
        *attempts += 1;
        if *failures > 0 {
            std::thread::sleep(backoff_delay(
                config.backoff_base,
                config.backoff_cap,
                config.jitter_seed,
                *failures - 1,
            ));
        }
        let result = connect(config).and_then(|mut stream| {
            write_message(&mut stream, hello)?;
            let reply = read_message(&mut stream)?;
            Ok((stream, reply))
        });
        let Ok((stream, reply)) = result else {
            *failures += 1;
            continue;
        };
        return match ack(reply) {
            Ok(value) => {
                *failures = 0;
                Ok((stream, value))
            }
            Err(Message::Error { message }) => Err(ClientError::Server(message)),
            Err(other) => Err(ClientError::Protocol(format!(
                "expected {expected}, got {other:?}"
            ))),
        };
    }
}

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `"127.0.0.1:7878"`.
    pub addr: String,
    /// The tenant this client's session belongs to.
    pub tenant: String,
    /// Read/write timeout per socket operation; a missing ack past it
    /// triggers a reconnect.
    pub io_timeout: Duration,
    /// Total (re)connect attempts before giving up.
    pub max_retries: u32,
    /// First backoff delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Max processes with an un-acked event in flight.
    pub max_inflight: usize,
}

impl ClientConfig {
    /// Defaults: the `"default"` tenant, 2 s I/O timeout, 10 retries,
    /// 25 ms base / 1 s cap backoff, seed 0, window 8.
    pub fn new(addr: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            tenant: DEFAULT_TENANT.into(),
            io_timeout: Duration::from_secs(2),
            max_retries: 10,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0,
            max_inflight: 8,
        }
    }

    /// Selects the tenant the session belongs to.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }
}

/// Why a feed gave up.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/retry budget exhausted; carries the attempt count and
    /// the last underlying error.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The error that ended the final attempt.
        last: String,
    },
    /// The server answered with a protocol [`Message::Error`].
    Server(String),
    /// The peer sent something that makes no sense at this point.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last error: {last})")
            }
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What a completed feed observed.
#[derive(Debug, Clone, Default)]
pub struct FeedReport {
    /// Events acked `Accepted`.
    pub accepted: u64,
    /// Events acked `Duplicate` (screened redeliveries).
    pub duplicates: u64,
    /// Events acked `Stale`.
    pub stale: u64,
    /// Events acked `Rejected` (backpressure) and retried.
    pub rejected_retries: u64,
    /// Reconnects performed (0 on a fault-free run).
    pub reconnects: u64,
    /// Events skipped at resume because the high-water mark already
    /// covered them.
    pub resumed_past: u64,
    /// The verdict queried after the last event was acked.
    pub witness: Option<Vec<Vec<u32>>>,
}

/// A reusable client for one server address.
pub struct FeedClient {
    config: ClientConfig,
}

impl FeedClient {
    /// Builds a client; connections are opened per call.
    pub fn new(config: ClientConfig) -> Self {
        FeedClient { config }
    }

    /// Deterministic backoff with jitter: `min(cap, base·2^k)` plus a
    /// jitter drawn from a seeded generator, so replayed runs back off
    /// identically.
    fn backoff(&self, failures: u32) -> Duration {
        backoff_delay(
            self.config.backoff_base,
            self.config.backoff_cap,
            self.config.jitter_seed,
            failures,
        )
    }

    /// Streams `events` — `(process, clock)` pairs in a per-process
    /// FIFO order — and returns the final verdict. Survives connection
    /// loss, duplicated or dropped frames, and server restarts, within
    /// the retry budget.
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] when the fault rate outlasts
    /// the budget, or a server/protocol error.
    pub fn feed(
        &self,
        initial: &[bool],
        events: &[(usize, Vec<u32>)],
    ) -> Result<FeedReport, ClientError> {
        let n = initial.len();
        // Per-process FIFO queues of indices into `events`.
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (p, clock)) in events.iter().enumerate() {
            assert!(*p < n, "event process out of range");
            assert_eq!(clock.len(), n, "event clock length mismatch");
            queues[*p].push(i);
        }
        let mut report = FeedReport::default();
        let mut failures = 0u32;
        let mut attempts = 0u32;
        let mut first_connect = true;
        let hello = Message::Hello {
            tenant: self.config.tenant.clone(),
            initial: initial.to_vec(),
        };

        'session: loop {
            let (mut stream, high_water) = open_session(
                &self.config,
                &hello,
                &mut failures,
                &mut attempts,
                |reply| match reply {
                    Message::HelloAck { high_water } => Ok(high_water),
                    other => Err(other),
                },
            )?;
            if high_water.len() != n {
                return Err(ClientError::Protocol("high-water length mismatch".into()));
            }
            if !first_connect {
                report.reconnects += 1;
            }
            first_connect = false;

            // Resume: next unsent index per process, skipping events the
            // server already applied.
            let mut next: Vec<usize> = vec![0; n];
            for p in 0..n {
                while next[p] < queues[p].len() {
                    let (_, clock) = &events[queues[p][next[p]]];
                    match high_water[p] {
                        Some(hw) if clock[p] <= hw => {
                            next[p] += 1;
                            report.resumed_past += 1;
                        }
                        _ => break,
                    }
                }
            }

            // (process, seq) -> backoff round for Rejected retries.
            let mut inflight: HashMap<(usize, u32), u32> = HashMap::new();
            let mut ready: Vec<usize> = (0..n).collect();
            loop {
                // Launch: one in-flight event per process, window-capped.
                ready.retain(|&p| {
                    if inflight.len() >= self.config.max_inflight {
                        return true;
                    }
                    if next[p] >= queues[p].len() {
                        return false; // process done
                    }
                    let (_, clock) = &events[queues[p][next[p]]];
                    let seq = clock[p];
                    if write_message(
                        &mut stream,
                        &Message::Event {
                            process: p as u32,
                            clock: clock.clone(),
                        },
                    )
                    .is_err()
                    {
                        return true; // socket broken; the read below reconnects
                    }
                    inflight.insert((p, seq), 0);
                    false // not ready again until acked
                });

                if inflight.is_empty() {
                    if (0..n).all(|p| next[p] >= queues[p].len()) {
                        break; // everything delivered and acked
                    }
                    if ready.is_empty() {
                        // Processes remain but none are ready: all are
                        // waiting on a Rejected backoff below, which
                        // re-inserts into `ready`. (Unreachable today;
                        // defensive.)
                        return Err(ClientError::Protocol("feed wedged".into()));
                    }
                    continue;
                }

                match read_message(&mut stream) {
                    Ok(Message::Ack {
                        process,
                        seq,
                        status,
                    }) => {
                        let key = (process as usize, seq);
                        let Some(round) = inflight.remove(&key) else {
                            continue; // dup ack of an old frame: ignore
                        };
                        match status {
                            AckStatus::Accepted => {
                                report.accepted += 1;
                                next[key.0] += 1;
                                ready.push(key.0);
                            }
                            AckStatus::Duplicate => {
                                report.duplicates += 1;
                                next[key.0] += 1;
                                ready.push(key.0);
                            }
                            AckStatus::Stale => {
                                report.stale += 1;
                                next[key.0] += 1;
                                ready.push(key.0);
                            }
                            AckStatus::Rejected => {
                                // Backpressure: back off, then retry the
                                // same event on this connection — up to
                                // the same budget as reconnects, so a
                                // permanently full queue (e.g. a capped
                                // tenant that never drains) surfaces as
                                // an error instead of spinning forever.
                                if round >= self.config.max_retries {
                                    return Err(ClientError::RetriesExhausted {
                                        attempts: round,
                                        last: format!(
                                            "event for process {process} rejected \
                                             (backpressure) {round} times",
                                        ),
                                    });
                                }
                                report.rejected_retries += 1;
                                std::thread::sleep(self.backoff(round));
                                let _ = inflight.insert(key, round + 1);
                                let (_, clock) = &events[queues[key.0][next[key.0]]];
                                if write_message(
                                    &mut stream,
                                    &Message::Event {
                                        process,
                                        clock: clock.clone(),
                                    },
                                )
                                .is_err()
                                {
                                    failures += 1;
                                    continue 'session;
                                }
                            }
                        }
                    }
                    // A duplicated Hello frame (chaos) makes the server
                    // answer HelloAck twice; the stray copy is harmless.
                    Ok(Message::HelloAck { .. }) => {}
                    Ok(Message::Error { message }) => return Err(ClientError::Server(message)),
                    Ok(other) => {
                        return Err(ClientError::Protocol(format!(
                            "expected Ack, got {other:?}"
                        )))
                    }
                    Err(_) => {
                        // Timeout or reset: reconnect and resume.
                        failures += 1;
                        continue 'session;
                    }
                }
            }

            // All acked: fetch the verdict on the same connection.
            if write_message(
                &mut stream,
                &Message::VerdictQuery {
                    tenant: String::new(),
                },
            )
            .is_err()
            {
                failures += 1;
                continue 'session;
            }
            loop {
                match read_message(&mut stream) {
                    Ok(Message::Verdict { witness }) => {
                        report.witness = witness;
                        return Ok(report);
                    }
                    // Stray acks of duplicated frames may still be
                    // queued ahead of the verdict; drain them.
                    Ok(Message::Ack { .. }) | Ok(Message::HelloAck { .. }) => {}
                    Ok(Message::Error { message }) => return Err(ClientError::Server(message)),
                    Ok(other) => {
                        return Err(ClientError::Protocol(format!(
                            "expected Verdict, got {other:?}"
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

    /// One-shot verdict query (no `Hello` needed once a session exists).
    ///
    /// # Errors
    ///
    /// I/O mapped to [`ClientError::RetriesExhausted`] (single
    /// attempt), or a server/protocol error.
    pub fn query_verdict(&self) -> Result<Option<Vec<Vec<u32>>>, ClientError> {
        match self.roundtrip(&Message::VerdictQuery {
            tenant: self.config.tenant.clone(),
        })? {
            Message::Verdict { witness } => Ok(witness),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected Verdict, got {other:?}"
            ))),
        }
    }

    /// One-shot aggregate stats query: the sum of
    /// [`FeedClient::query_tenant_stats`].
    ///
    /// # Errors
    ///
    /// As [`FeedClient::query_verdict`].
    pub fn query_stats(&self) -> Result<ServerStats, ClientError> {
        self.query_tenant_stats()
            .map(|rows| ServerStats::sum(&rows))
    }

    /// One-shot per-tenant stats query.
    ///
    /// # Errors
    ///
    /// As [`FeedClient::query_verdict`].
    pub fn query_tenant_stats(&self) -> Result<Vec<TenantStatsRow>, ClientError> {
        match self.roundtrip(&Message::TenantStatsQuery)? {
            Message::TenantStats { rows } => Ok(rows),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected TenantStats, got {other:?}"
            ))),
        }
    }

    /// One-shot decentralized-verdict query: the tenant's three-valued
    /// slicer status (witness / not-yet / degraded `Unknown` with
    /// progress bounds).
    ///
    /// # Errors
    ///
    /// As [`FeedClient::query_verdict`].
    pub fn query_slicer_status(&self) -> Result<SlicerVerdict, ClientError> {
        match self.roundtrip(&Message::SlicerStatusQuery {
            tenant: self.config.tenant.clone(),
        })? {
            Message::SlicerStatus(verdict) => Ok(verdict),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected SlicerStatus, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and stop; returns its final verdict.
    ///
    /// # Errors
    ///
    /// As [`FeedClient::query_verdict`].
    pub fn shutdown(&self) -> Result<Option<Vec<Vec<u32>>>, ClientError> {
        match self.roundtrip(&Message::Shutdown {
            tenant: self.config.tenant.clone(),
        })? {
            Message::ShutdownAck { witness } => Ok(witness),
            Message::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "expected ShutdownAck, got {other:?}"
            ))),
        }
    }

    fn roundtrip(&self, message: &Message) -> Result<Message, ClientError> {
        let io = |e: std::io::Error| ClientError::RetriesExhausted {
            attempts: 1,
            last: e.to_string(),
        };
        let mut stream = connect(&self.config).map_err(io)?;
        write_message(&mut stream, message).map_err(io)?;
        read_message(&mut stream).map_err(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let client = FeedClient::new(ClientConfig::new("127.0.0.1:1"));
        let a: Vec<Duration> = (0..8).map(|k| client.backoff(k)).collect();
        let b: Vec<Duration> = (0..8).map(|k| client.backoff(k)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let cap = ClientConfig::new("x").backoff_cap + ClientConfig::new("x").backoff_base;
        for d in &a {
            assert!(*d <= cap, "{d:?} exceeds cap+jitter");
        }
        // Exponential growth up to the cap (modulo jitter of at most
        // one base step).
        assert!(a[4] > a[0]);
    }

    #[test]
    fn different_seeds_jitter_differently() {
        let mut a = ClientConfig::new("x");
        a.jitter_seed = 1;
        let mut b = ClientConfig::new("x");
        b.jitter_seed = 2;
        let ca = FeedClient::new(a);
        let cb = FeedClient::new(b);
        let sa: Vec<Duration> = (0..16).map(|k| ca.backoff(k)).collect();
        let sb: Vec<Duration> = (0..16).map(|k| cb.backoff(k)).collect();
        assert_ne!(sa, sb, "jitter must depend on the seed");
    }

    #[test]
    fn retries_exhausted_on_dead_address() {
        // Port 1 on loopback is essentially never listening.
        let mut config = ClientConfig::new("127.0.0.1:1");
        config.max_retries = 2;
        config.backoff_base = Duration::from_millis(1);
        config.backoff_cap = Duration::from_millis(2);
        let client = FeedClient::new(config);
        match client.feed(&[false], &[(0, vec![1])]) {
            Err(ClientError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
