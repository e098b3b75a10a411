//! The `serve_saturate` workload: the online monitor service run
//! in-process through `gpd_server::server::start`, loaded over TCP by a
//! generator in this process that speaks the wire protocol.
//!
//! The timed run is closed-loop with `fsync group`: `FeedClient::feed`
//! rounds measure throughput, and instrumented rounds on the same
//! window measure ack and query latency. The traced run adds the
//! open loop — `fsync always`, a fixed offered rate of Poisson arrivals
//! plus bursts, every latency timed from the scheduled send — and the
//! capacity ladder.
//!
//! Each of two tenants streams the true `in_cs` states of a correct
//! Ricart–Agrawala trace, so the all-process conjunction never holds.
//! The recorded trace is repeated,
//! each copy shifted past the previous copy's final clock; the
//! repetition is itself a computation (a barrier message from every
//! process's last event of a copy to every other process's first event
//! of the next), which is what the final verdict is checked against.
//!
//! Set-up writes a fixed-size WAL for both tenants, then restarts the
//! server over it several times, each restart timed from `start` to the
//! first `HelloAck`.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpd::conjunctive::possibly_conjunctive;
use gpd::online::ConjunctiveMonitor;
use gpd_computation::{
    BoolVariable, Computation, ComputationBuilder, EventId, ProcessId, VectorClock,
};
use gpd_server::protocol::{parse_message, write_message};
use gpd_server::server::start;
use gpd_server::{
    AckStatus, ClientConfig, FeedClient, FsyncPolicy, Message, RealVfs, ServerConfig, ServerHandle,
    Vfs, Wal, WalConfig, WalRecord,
};
use gpd_sim::protocols::RicartAgrawala;
use gpd_sim::{SimConfig, Simulation};

use crate::host;
use crate::openloop::{backlog, schedule, Kind, Offered, Stamp};
use crate::spans::Recorder;
use crate::stats::{highest_reportable_percentile, median, percentile, Windowed};
use crate::timing_vfs::TimingVfs;
use crate::{Outcome, RunArgs};

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// Processes of each tenant's mutex trace.
const PROCESSES: usize = 12;
/// Critical-section rounds per process in one copy of the trace.
const ROUNDS: u32 = 20;
/// Events per tenant already in the WAL when the server starts.
const PREWRITTEN: usize = 100_000;
/// Server restarts over the WAL in set-up; `setup_s` is their median.
const SETUP_RESTARTS: usize = 7;

/// The offered load of the traced run's open-loop phase: a constant,
/// recorded in `BENCHMARK.json`, well below the closed-loop capacity.
pub const OPEN_LOAD: Offered = Offered {
    events_per_s: 1000.0,
    burst_every_ms: 200,
    burst_len: 10,
    query_every: 100,
};

/// Offered rates of the traced run's capacity ladder, events per
/// second over both tenants.
const LADDER: [f64; 3] = [250.0, 500.0, 1000.0];
/// The ack p99 limit a ladder rate must meet to count as sustained.
const P99_LIMIT_MS: f64 = 20.0;

/// Events per tenant in one closed-loop round of `serve_saturate`.
const ROUND_EVENTS: usize = 1_500;
/// How long stragglers may take to be answered after the schedule ends.
const DRAIN: Duration = Duration::from_secs(5);

/// A tenant's endless stream of true `in_cs` states.
struct Stream {
    /// One copy's true states `(process, clock)`, in a causal order.
    base: Vec<(usize, Vec<u32>)>,
    /// One copy's final frontier: the shift between copies.
    period: Vec<u32>,
    comp: Computation,
    in_cs: BoolVariable,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let sim = Simulation::new(
            RicartAgrawala::group(PROCESSES, ROUNDS),
            SimConfig::new(seed).with_max_events(1_000_000),
        )
        .run();
        let in_cs = sim.bool_var("in_cs").expect("mutex records in_cs").clone();
        let comp = sim.computation;
        let mut base = Vec::new();
        for p in 0..PROCESSES {
            for (i, &e) in comp.events_of(p).iter().enumerate() {
                if in_cs.value_in_state(p, i as u32 + 1) {
                    base.push((p, comp.clock(e).as_slice().to_vec()));
                }
            }
        }
        // The clock sum is a linear extension of happened-before.
        base.sort_by_key(|(p, c)| (c.iter().sum::<u32>(), *p));
        let period = (0..PROCESSES).map(|p| comp.events_on(p) as u32).collect();
        Stream {
            base,
            period,
            comp,
            in_cs,
        }
    }

    fn initial(&self) -> Vec<bool> {
        (0..PROCESSES)
            .map(|p| self.in_cs.true_initially(ProcessId::new(p)))
            .collect()
    }

    /// The `i`-th true state of the repeated stream.
    fn event(&self, i: usize) -> (usize, Vec<u32>) {
        let copy = (i / self.base.len()) as u32;
        let (p, clock) = &self.base[i % self.base.len()];
        let shifted = clock
            .iter()
            .zip(&self.period)
            .map(|(c, d)| c + copy * d)
            .collect();
        (*p, shifted)
    }

    /// The computation of the first `sent` streamed states: enough
    /// copies joined by barrier messages, with `in_cs` true exactly in
    /// the states that were streamed.
    fn prefix_computation(&self, sent: usize) -> (Computation, BoolVariable) {
        let copies = sent.div_ceil(self.base.len()).max(1);
        let mut b = ComputationBuilder::new(PROCESSES);
        let mut last: Vec<Option<EventId>> = vec![None; PROCESSES];
        for _ in 0..copies {
            let mut ids: Vec<Vec<EventId>> = Vec::with_capacity(PROCESSES);
            for p in 0..PROCESSES {
                ids.push((0..self.comp.events_on(p)).map(|_| b.append(p)).collect());
            }
            for (p, own) in ids.iter().enumerate() {
                for (q, prev) in last.iter().enumerate() {
                    if let (Some(prev), true) = (prev, p != q) {
                        b.message(*prev, own[0]).expect("distinct processes");
                    }
                }
            }
            for &(s, r) in self.comp.messages() {
                let at = |e: EventId| {
                    let p = self.comp.process_of(e).index();
                    ids[p][self.comp.local_index(e) as usize - 1]
                };
                b.message(at(s), at(r)).expect("recorded message");
            }
            last = ids.iter().map(|v| v.last().copied()).collect();
        }
        let comp = b.build().expect("barriers keep the copies acyclic");
        let mut tracks: Vec<Vec<bool>> = (0..PROCESSES)
            .map(|p| vec![false; comp.events_on(p) + 1])
            .collect();
        for i in 0..sent {
            let (p, clock) = self.event(i);
            tracks[p][clock[p] as usize] = true;
        }
        let var = BoolVariable::new(&comp, tracks);
        (comp, var)
    }

    /// The witness offline detection finds on the first `sent` states,
    /// as per-process local states.
    fn offline_verdict(&self, sent: usize) -> Option<Vec<u32>> {
        let (comp, var) = self.prefix_computation(sent);
        let all: Vec<ProcessId> = (0..PROCESSES).map(ProcessId::new).collect();
        possibly_conjunctive(&comp, &var, &all).map(|c| c.frontier().to_vec())
    }
}

/// Per-process local states of a server witness (one clock per process).
fn witness_frontier(witness: &[Vec<u32>]) -> Vec<u32> {
    witness.iter().enumerate().map(|(p, c)| c[p]).collect()
}

/// One protocol connection with its own receive buffer, so replies can
/// be awaited with a timeout without losing a partly received frame.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, tenant: &str, initial: &[bool]) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
        };
        conn.send(&Message::Hello {
            tenant: tenant.to_string(),
            initial: initial.to_vec(),
        })?;
        match conn.recv_one(Duration::from_secs(30))? {
            Message::HelloAck { .. } => Ok(conn),
            other => Err(format!("expected HelloAck, got {other:?}")),
        }
    }

    /// Writes one frame whole. The socket is nonblocking for reads; a
    /// full send buffer is waited out.
    fn send(&mut self, message: &Message) -> Result<(), String> {
        let mut frame = Vec::with_capacity(64);
        write_message(&mut frame, message).expect("writing to memory");
        let mut sent = 0;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for replies; appends every complete one
    /// with the instant its bytes arrived.
    fn poll(&mut self, timeout: Duration, out: &mut Vec<(Message, Instant)>) -> Result<(), String> {
        if !wait_readable(&self.stream, timeout).map_err(|e| format!("ppoll: {e}"))? {
            return Ok(());
        }
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(format!("receive: {e}")),
        }
        let at = Instant::now();
        let mut used = 0;
        while let Some((message, n)) =
            parse_message(&self.buf[used..]).map_err(|e| format!("bad frame: {e}"))?
        {
            out.push((message, at));
            used += n;
        }
        self.buf.drain(..used);
        Ok(())
    }

    fn recv_one(&mut self, timeout: Duration) -> Result<Message, String> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        while out.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return Err("timed out waiting for a reply".into());
            }
            self.poll(deadline - now, &mut out)?;
        }
        if out.len() > 1 {
            return Err(format!("unexpected extra replies: {:?}", &out[1..]));
        }
        Ok(out.remove(0).0)
    }
}

/// What one generator connection saw.
#[derive(Debug, Default)]
struct ClientLog {
    stamps: Vec<Stamp>,
    attempted: u64,
    failed: u64,
    accepted: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Outstanding requests of one connection, matched to their replies.
#[derive(Default)]
struct Outstanding {
    events: HashMap<(u32, u32), usize>,
    verdicts: VecDeque<usize>,
    stats: VecDeque<usize>,
}

impl Outstanding {
    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.verdicts.is_empty() && self.stats.is_empty()
    }

    fn len(&self) -> usize {
        self.events.len() + self.verdicts.len() + self.stats.len()
    }

    /// Sends one request and stamps it.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        conn: &mut Conn,
        log: &mut ClientLog,
        message: Message,
        kind: Kind,
        scheduled_ns: u64,
        origin: Instant,
        idle_since: Instant,
    ) -> Result<Instant, String> {
        let slot = log.stamps.len();
        match &message {
            Message::Event { process, clock } => {
                self.events
                    .insert((*process, clock[*process as usize]), slot);
            }
            Message::VerdictQuery { .. } => self.verdicts.push_back(slot),
            _ => self.stats.push_back(slot),
        }
        let before = Instant::now();
        conn.send(&message)?;
        let sent = Instant::now();
        log.attempted += 1;
        log.stamps.push(Stamp {
            scheduled_ns,
            sent_ns: ns(origin, sent),
            replied_ns: None,
            kind,
            idle_before_ns: before.saturating_duration_since(idle_since).as_nanos() as u64,
        });
        Ok(sent)
    }

    /// Matches one reply; returns the process whose event was acked.
    fn reply(
        &mut self,
        tenant: &str,
        message: Message,
        at: Instant,
        origin: Instant,
        log: &mut ClientLog,
    ) -> Result<Option<usize>, String> {
        let at_ns = ns(origin, at);
        match message {
            Message::Ack {
                process,
                seq,
                status,
            } => {
                let slot = self
                    .events
                    .remove(&(process, seq))
                    .ok_or_else(|| format!("ack for unsent event {process}/{seq}"))?;
                log.stamps[slot].replied_ns = Some(at_ns);
                if status == AckStatus::Accepted {
                    log.accepted += 1;
                } else {
                    log.fail(format!("event {process}/{seq} acked {status:?}"));
                }
                Ok(Some(process as usize))
            }
            Message::Verdict { witness } => {
                let slot = self.verdicts.pop_front().ok_or("unasked verdict")?;
                log.stamps[slot].replied_ns = Some(at_ns);
                if witness.is_some() {
                    log.fail(format!("{tenant}: live verdict holds a witness"));
                }
                Ok(None)
            }
            Message::TenantStats { rows } => {
                let slot = self.stats.pop_front().ok_or("unasked tenant stats")?;
                log.stamps[slot].replied_ns = Some(at_ns);
                match rows.iter().find(|r| r.tenant == tenant) {
                    Some(r) if !r.quarantined && !r.witness_found => {}
                    other => log.fail(format!("{tenant}: bad stats row {other:?}")),
                }
                Ok(None)
            }
            Message::Error { message } => Err(format!("server error: {message}")),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// Waits until `stream` has bytes to read or `timeout` passes;
/// returns whether it is readable. `ppoll(2)` sleeps on a
/// high-resolution timer, so the generator wakes on time for its next
/// send — socket receive timeouts are rounded to scheduler ticks.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd`
    // and `struct timespec` values for the duration of the call; one
    // descriptor is passed, and a null signal mask leaves the mask as is.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        -1 => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

fn ns(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Sends `arrivals` of one tenant on their schedule from `origin`,
/// whatever the replies do, and stamps every reply. Events are the
/// stream's states from index `first` on.
fn open_loop(
    addr: SocketAddr,
    tenant: &str,
    stream: &Stream,
    first: usize,
    arrivals: &[crate::openloop::Arrival],
    origin: Instant,
) -> Result<ClientLog, String> {
    let mut conn = Conn::open(addr, tenant, &stream.initial())?;
    let mut log = ClientLog::default();
    let mut out = Outstanding::default();
    let mut replies = Vec::new();
    let mut next = 0;
    let mut event = first;
    let mut idle_since = origin;
    let mut drain_until = None;
    loop {
        let now = Instant::now();
        if let Some(a) = arrivals.get(next) {
            let due = origin + Duration::from_nanos(a.at_ns);
            if due <= now {
                let message = match a.kind {
                    Kind::Event => {
                        let (p, clock) = stream.event(event);
                        event += 1;
                        Message::Event {
                            process: p as u32,
                            clock,
                        }
                    }
                    Kind::VerdictQuery => Message::VerdictQuery {
                        tenant: String::new(),
                    },
                    Kind::StatsQuery => Message::TenantStatsQuery,
                };
                idle_since = out.send(
                    &mut conn, &mut log, message, a.kind, a.at_ns, origin, idle_since,
                )?;
                next += 1;
                continue;
            }
            conn.poll(due - now, &mut replies)?;
        } else {
            if out.is_empty() {
                break;
            }
            let until = *drain_until.get_or_insert(now + DRAIN);
            if now >= until {
                break;
            }
            conn.poll(until - now, &mut replies)?;
        }
        for (message, at) in replies.drain(..) {
            out.reply(tenant, message, at, origin, &mut log)?;
            idle_since = idle_since.max(at);
        }
    }
    for _ in 0..out.len() {
        log.fail(format!("{tenant}: request unanswered after {DRAIN:?}"));
    }
    Ok(log)
}

/// Streams `count` states of one tenant from index `first` with every
/// process keeping one event in flight (the full window), plus one
/// query per hundred acks. Latency is timed from the send.
fn closed_loop(
    addr: SocketAddr,
    tenant: &str,
    stream: &Stream,
    first: usize,
    count: usize,
    origin: Instant,
) -> Result<ClientLog, String> {
    let mut queues: Vec<VecDeque<Vec<u32>>> = vec![VecDeque::new(); PROCESSES];
    for i in first..first + count {
        let (p, clock) = stream.event(i);
        queues[p].push_back(clock);
    }
    let mut conn = Conn::open(addr, tenant, &stream.initial())?;
    let mut log = ClientLog::default();
    let mut out = Outstanding::default();
    let mut replies = Vec::new();
    let mut send_next = |p: usize, conn: &mut Conn, log: &mut ClientLog, out: &mut Outstanding| {
        let Some(clock) = queues[p].pop_front() else {
            return Ok(());
        };
        let now = Instant::now();
        let message = Message::Event {
            process: p as u32,
            clock,
        };
        out.send(
            conn,
            log,
            message,
            Kind::Event,
            ns(origin, now),
            origin,
            now,
        )
        .map(|_| ())
    };
    for p in 0..PROCESSES {
        send_next(p, &mut conn, &mut log, &mut out)?;
    }
    let mut acks = 0usize;
    let mut queries = 0usize;
    while !out.is_empty() {
        conn.poll(DRAIN, &mut replies)?;
        if replies.is_empty() {
            for _ in 0..out.len() {
                log.fail(format!("{tenant}: request unanswered after {DRAIN:?}"));
            }
            break;
        }
        for (message, at) in std::mem::take(&mut replies) {
            if let Some(p) = out.reply(tenant, message, at, origin, &mut log)? {
                acks += 1;
                send_next(p, &mut conn, &mut log, &mut out)?;
                if acks.is_multiple_of(OPEN_LOAD.query_every) {
                    let (message, kind) = if queries.is_multiple_of(2) {
                        (
                            Message::VerdictQuery {
                                tenant: String::new(),
                            },
                            Kind::VerdictQuery,
                        )
                    } else {
                        (Message::TenantStatsQuery, Kind::StatsQuery)
                    };
                    queries += 1;
                    let now = Instant::now();
                    out.send(
                        &mut conn,
                        &mut log,
                        message,
                        kind,
                        ns(origin, now),
                        origin,
                        now,
                    )?;
                }
            }
        }
    }
    Ok(log)
}

/// The server under test and how to restart it.
struct Service {
    fsync: FsyncPolicy,
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    handle: Option<ServerHandle>,
    addr: SocketAddr,
}

impl Service {
    fn config(&self) -> ServerConfig {
        ServerConfig::new(
            WalConfig::new(&self.root)
                .with_fsync(self.fsync)
                .with_vfs(Arc::clone(&self.vfs)),
        )
    }

    /// Starts the server over its WAL and waits for the first tenant's
    /// `HelloAck`; returns the time that took.
    fn start(&mut self, initial: &[bool]) -> Result<Duration, String> {
        let t = Instant::now();
        let handle = start("127.0.0.1:0", self.config()).map_err(|e| format!("start: {e}"))?;
        self.addr = handle.local_addr();
        Conn::open(self.addr, TENANTS[0], initial)?;
        let took = t.elapsed();
        self.handle = Some(handle);
        Ok(took)
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Some(handle) = self.handle.take() {
            FeedClient::new(ClientConfig::new(self.addr.to_string()))
                .shutdown()
                .map_err(|e| format!("shutdown: {e}"))?;
            handle.wait();
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Errors are already reported by an explicit `stop`.
        let _ = self.stop();
    }
}

/// Writes `PREWRITTEN` states of each tenant's stream into its WAL
/// namespace, as the server itself would have logged them.
fn prewrite(root: &Path, streams: &[Stream], vfs: &Arc<dyn Vfs>) -> Result<(), String> {
    for (tenant, stream) in TENANTS.iter().zip(streams) {
        let dir = root.join("tenants").join(tenant);
        let config = WalConfig::new(&dir)
            .with_fsync(FsyncPolicy::Group)
            .with_vfs(Arc::clone(vfs));
        let (mut wal, _) = Wal::open(config).map_err(|e| format!("wal: {e}"))?;
        let io = |e: std::io::Error| format!("wal: {e}");
        wal.append(&WalRecord::Init {
            initial: stream.initial(),
        })
        .map_err(io)?;
        for i in 0..PREWRITTEN {
            let (p, clock) = stream.event(i);
            wal.append(&WalRecord::Event {
                process: p as u32,
                clock,
            })
            .map_err(io)?;
        }
        wal.sync().map_err(io)?;
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Adds the latency in milliseconds, times `factor`, of every answered
/// stamp of `kind` (all kinds when `None`), stamped with when it was
/// due.
fn push_latencies(w: &mut Windowed, logs: &[ClientLog], kind: Option<Kind>, factor: f64) {
    for s in logs.iter().flat_map(|l| &l.stamps) {
        if kind.is_none_or(|k| k == s.kind) {
            if let Some(l) = s.latency_ns() {
                w.push(s.scheduled_ns as f64 / 1e9, l as f64 / 1e6 * factor);
            }
        }
    }
}

/// Latencies of the connections' answered requests, as measured.
fn latencies(logs: &[ClientLog], kind: Option<Kind>) -> Windowed {
    let mut w = Windowed::default();
    push_latencies(&mut w, logs, kind, 1.0);
    w
}

/// Totals of a set of connections.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, logs: &[ClientLog]) {
        for log in logs {
            self.attempted += log.attempted;
            self.failed += log.failed;
            for e in &log.errors {
                eprintln!("check failed: {e}");
            }
        }
    }
}

/// Runs both tenants' generators on their own threads.
fn both<F>(f: F) -> Result<Vec<ClientLog>, String>
where
    F: Fn(usize) -> Result<ClientLog, String> + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS.len())
            .map(|t| {
                let f = &f;
                scope.spawn(move || f(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "generator thread panicked".to_string())?
            })
            .collect()
    })
}

/// One closed-loop round pair and the host reference time after it.
struct Round {
    /// Events per second of the `FeedClient` round, as measured.
    eps: f64,
    /// The instrumented round's connections.
    logs: Vec<ClientLog>,
    ref_ms: f64,
    disk_ms: f64,
}

impl Round {
    fn factor(&self) -> f64 {
        host::mixed_factor(self.ref_ms, self.disk_ms)
    }

    /// Events per second at nominal host speed.
    fn nominal_eps(&self) -> f64 {
        self.eps / self.factor()
    }
}

/// Latencies in milliseconds of the rounds' answered requests of
/// `kind` (every kind when `None`), each at nominal host speed.
fn round_latencies(rounds: &[Round], kind: Option<Kind>) -> Windowed {
    let mut w = Windowed::default();
    for round in rounds {
        push_latencies(&mut w, &round.logs, kind, round.factor());
    }
    w
}

/// Shared state of one serve run.
struct Run<'a> {
    args: &'a RunArgs,
    streams: Vec<Stream>,
    /// Next stream index per tenant.
    next: Vec<usize>,
    service: Service,
    tally: Tally,
    /// `VmHWM` once [`RSS_ROUNDS`] round pairs have run.
    rss_mb: Option<f64>,
}

impl Run<'_> {
    /// One open-loop phase of `seconds` at `offered`.
    fn open_phase(
        &mut self,
        offered: Offered,
        seed: u64,
        seconds: f64,
    ) -> Result<Vec<ClientLog>, String> {
        let plan = schedule(seed, TENANTS.len(), offered, seconds);
        let origin = Instant::now() + Duration::from_millis(20);
        let addr = self.service.addr;
        let (streams, next) = (&self.streams, &self.next);
        let logs = both(|t| open_loop(addr, TENANTS[t], &streams[t], next[t], &plan[t], origin))?;
        for (t, list) in plan.iter().enumerate() {
            self.next[t] += list.iter().filter(|a| a.kind == Kind::Event).count();
        }
        self.tally.add(&logs);
        Ok(logs)
    }

    /// One closed-loop round through `FeedClient::feed` on both
    /// tenants; returns events per second over both.
    fn feed_round(&mut self) -> Result<f64, String> {
        let addr = self.service.addr.to_string();
        let streams = &self.streams;
        let batches: Vec<Vec<(usize, Vec<u32>)>> = (0..TENANTS.len())
            .map(|t| {
                (self.next[t]..self.next[t] + ROUND_EVENTS)
                    .map(|i| streams[t].event(i))
                    .collect()
            })
            .collect();
        let start = Instant::now();
        let logs = both(|t| {
            let events = &batches[t];
            let mut config = ClientConfig::new(addr.clone()).with_tenant(TENANTS[t]);
            config.max_inflight = PROCESSES;
            let report = FeedClient::new(config)
                .feed(&streams[t].initial(), events)
                .map_err(|e| format!("{}: feed: {e}", TENANTS[t]))?;
            let mut log = ClientLog {
                attempted: events.len() as u64,
                ..ClientLog::default()
            };
            let clean = report.accepted == events.len() as u64
                && report.duplicates + report.stale + report.rejected_retries + report.reconnects
                    == 0
                && report.witness.is_none();
            if !clean {
                log.failed = events.len() as u64 - report.accepted.min(events.len() as u64);
                log.fail(format!("{}: feed report {report:?}", TENANTS[t]));
            }
            Ok(log)
        })?;
        let wall = start.elapsed().as_secs_f64();
        for n in &mut self.next {
            *n += ROUND_EVENTS;
        }
        self.tally.add(&logs);
        Ok((ROUND_EVENTS * TENANTS.len()) as f64 / wall)
    }

    /// One instrumented closed-loop round on both tenants.
    fn instrumented_round(&mut self, origin: Instant) -> Result<Vec<ClientLog>, String> {
        let addr = self.service.addr;
        let (streams, next) = (&self.streams, &self.next);
        let logs =
            both(|t| closed_loop(addr, TENANTS[t], &streams[t], next[t], ROUND_EVENTS, origin))?;
        for n in &mut self.next {
            *n += ROUND_EVENTS;
        }
        self.tally.add(&logs);
        Ok(logs)
    }

    /// Closed-loop rounds for `seconds`, alternating `FeedClient`
    /// rounds (throughput) with instrumented rounds (latency), each
    /// pair followed by a run of the host reference loop.
    fn saturate_phase(&mut self, seconds: f64) -> Result<Vec<Round>, String> {
        let origin = Instant::now();
        let until = origin + Duration::from_secs_f64(seconds);
        let mut rounds = Vec::new();
        while Instant::now() < until || rounds.is_empty() {
            if rounds.len() == RSS_ROUNDS {
                self.rss_mb.get_or_insert(crate::peak_rss_mb()?);
            }
            let eps = self.feed_round()?;
            let logs = self.instrumented_round(origin)?;
            let ref_ms = host::reference_ms();
            let disk_ms = host::disk_reference_ms(&self.args.work);
            rounds.push(Round {
                eps,
                logs,
                ref_ms,
                disk_ms,
            });
        }
        Ok(rounds)
    }

    /// Final verdict of every tenant against offline detection on
    /// exactly the states streamed to it.
    fn check_final_verdicts(&mut self) -> Result<(), String> {
        for (t, tenant) in TENANTS.iter().enumerate() {
            self.tally.attempted += 1;
            let live = FeedClient::new(
                ClientConfig::new(self.service.addr.to_string()).with_tenant(*tenant),
            )
            .query_verdict()
            .map_err(|e| format!("{tenant}: verdict query: {e}"))?
            .map(|w| witness_frontier(&w));
            let offline = self.streams[t].offline_verdict(self.next[t]);
            if live != offline {
                self.tally.failed += 1;
                eprintln!("check failed: {tenant}: live verdict {live:?}, offline {offline:?}");
            }
        }
        Ok(())
    }
}

fn events_accepted(logs: &[ClientLog]) -> u64 {
    logs.iter().map(|l| l.accepted).sum()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let setup_start = Instant::now();
    let streams: Vec<Stream> = (0..TENANTS.len())
        .map(|t| Stream::new(args.seed.wrapping_mul(31).wrapping_add(t as u64)))
        .collect();
    let root = args.work.join("wal");
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
    prewrite(&root, &streams, &vfs)?;
    let recover_copy = args.work.join("recover-copy");
    if args.trace {
        copy_dir(&root.join("tenants").join(TENANTS[0]), &recover_copy)
            .map_err(|e| format!("copying the WAL: {e}"))?;
    }
    let initial = streams[0].initial();
    let mut service = Service {
        fsync: FsyncPolicy::Group,
        root,
        vfs,
        handle: None,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
    };
    let mut restarts = Vec::new();
    for r in 0..SETUP_RESTARTS {
        let took = service.start(&initial)?.as_secs_f64();
        restarts.push(took * host::factor(host::reference_ms()));
        if r + 1 < SETUP_RESTARTS {
            service.stop()?;
        }
    }
    let setup_s = median(&restarts).expect("restarts");
    eprintln!(
        "set-up: {:.3} s in total, restarts {restarts:?}",
        setup_start.elapsed().as_secs_f64()
    );
    let mut run = Run {
        args,
        streams,
        next: vec![PREWRITTEN; TENANTS.len()],
        service,
        tally: Tally::default(),
        rss_mb: None,
    };
    let mut outcome = if args.trace {
        traced(&mut run, &recover_copy)?
    } else {
        untraced(&mut run, setup_s)?
    };
    run.check_final_verdicts()?;
    run.service.stop()?;
    outcome.attempted = run.tally.attempted;
    outcome.failed = run.tally.failed;
    Ok(outcome)
}

/// Closed-loop rounds for the whole run: events per second from the
/// `FeedClient` rounds, latencies from the instrumented ones, all at
/// nominal host speed.
fn untraced(run: &mut Run, setup_s: f64) -> Result<Outcome, String> {
    let rounds = run.saturate_phase(run.args.seconds as f64)?;
    let mut outcome = Outcome::new(0, 0);
    let rss_mb = match run.rss_mb {
        Some(mb) => mb,
        None => crate::peak_rss_mb()?,
    };
    outcome.metric("peak_rss_mb", rss_mb);
    let acks = round_latencies(&rounds, Some(Kind::Event));
    let query_ms: Vec<f64> = round_latencies(&rounds, Some(Kind::VerdictQuery))
        .values()
        .into_iter()
        .chain(round_latencies(&rounds, Some(Kind::StatsQuery)).values())
        .collect();
    let eps: Vec<f64> = rounds.iter().map(Round::nominal_eps).collect();
    let raw_eps: Vec<f64> = rounds.iter().map(|r| r.eps).collect();
    let refs: Vec<f64> = rounds.iter().map(|r| r.ref_ms).collect();
    eprintln!(
        "{} round pairs of {ROUND_EVENTS} events per tenant, {} acks (highest reportable percentile {:?}), {} queries",
        rounds.len(),
        acks.len(),
        highest_reportable_percentile(acks.len()),
        query_ms.len()
    );
    let disks: Vec<f64> = rounds.iter().map(|r| r.disk_ms).collect();
    eprintln!(
        "feed rounds: {:.1} events/s as measured; reference loop {:.3} ms, reference fdatasync {:.4} ms",
        median(&raw_eps).unwrap_or(0.0),
        median(&refs).unwrap_or(0.0),
        median(&disks).unwrap_or(0.0)
    );
    outcome.metric("setup_s", setup_s);
    outcome.metric(
        "latency_ms",
        median(&round_latencies(&rounds, None).values()).ok_or("no requests")?,
    );
    outcome.metric(
        "ack_p50_ms",
        acks.median_of_windows(ACK_WINDOW_S, 50.0, 200)
            .ok_or("no acks")?,
    );
    outcome.metric("query_p50_ms", median(&query_ms).ok_or("no queries")?);
    outcome.metric("events_per_s", median(&eps).ok_or("no rounds")?);
    Ok(outcome)
}

/// Round pairs after which the peak resident set is read: the server's
/// memory grows with the events it has taken, so the reading is taken
/// at a fixed amount of work (240 000 events) rather than at the end
/// of a run whose length in events depends on the host's speed.
const RSS_ROUNDS: usize = 40;

/// Window over which ack percentiles are taken before the median
/// across windows.
const ACK_WINDOW_S: f64 = 0.25;

/// Open-loop validity: the generator must keep to its schedule well
/// enough that its own lateness is small against the latency measured.
fn lateness_ok(late_p50_ms: f64, ack_p50_ms: f64) -> bool {
    late_p50_ms <= 0.5 * ack_p50_ms
}

/// Per-event cost of encoding and decoding the workload's event frames.
fn protocol_layer(stream: &Stream, rec: &mut Recorder, outcome: &mut Outcome) {
    const N: usize = 20_000;
    let messages: Vec<Message> = (0..N)
        .map(|i| {
            let (p, clock) = stream.event(i);
            Message::Event {
                process: p as u32,
                clock,
            }
        })
        .collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut buf = Vec::with_capacity(N * 32);
    for _ in 0..7 {
        buf.clear();
        let t = Instant::now();
        rec.time("protocol.encode", None, 0, || {
            for m in &messages {
                write_message(&mut buf, m).expect("writing to memory");
            }
        });
        enc.push(t.elapsed().as_secs_f64() * 1e6 / N as f64);
        let t = Instant::now();
        let decoded = rec.time("protocol.decode", None, 0, || {
            let mut used = 0;
            let mut count = 0;
            while let Some((m, n)) = parse_message(&buf[used..]).expect("well-formed frames") {
                std::hint::black_box(m);
                used += n;
                count += 1;
            }
            count
        });
        dec.push(t.elapsed().as_secs_f64() * 1e6 / N as f64);
        assert_eq!(decoded, N, "every frame decodes");
    }
    outcome.metric("protocol.encode_us", median(&enc).expect("samples"));
    outcome.metric("protocol.decode_us", median(&dec).expect("samples"));
    outcome.metric("protocol.bytes_per_event", buf.len() as f64 / N as f64);
}

/// Per-event cost of the online monitor over the workload's stream.
fn online_layer(stream: &Stream, rec: &mut Recorder, outcome: &mut Outcome) {
    const N: usize = 50_000;
    let events: Vec<(usize, VectorClock)> = (0..N)
        .map(|i| {
            let (p, c) = stream.event(i);
            (p, VectorClock::from(c))
        })
        .collect();
    let mut per_event = Vec::new();
    let mut peak = 0;
    for _ in 0..5 {
        let batch = events.clone();
        let mut monitor = ConjunctiveMonitor::with_initial(&stream.initial());
        let t = Instant::now();
        rec.time("online.apply", None, 0, || {
            for (p, clock) in batch {
                monitor.try_observe(p, clock).expect("unbounded queues");
                peak = peak.max(monitor.queue_depth());
            }
        });
        per_event.push(t.elapsed().as_secs_f64() * 1e6 / N as f64);
        assert!(monitor.witness().is_none(), "a correct mutex never meets");
    }
    outcome.metric("online.apply_us", median(&per_event).expect("samples"));
    outcome.metric("online.queue_peak", peak as f64);
}

/// `Wal::append` and `Wal::sync` per event into a fresh directory,
/// one sync per event as under `fsync always`.
fn wal_layer(
    stream: &Stream,
    dir: &Path,
    rec: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("wal layer: {e}");
    let (mut wal, _) = Wal::open(WalConfig::new(dir).with_fsync(FsyncPolicy::Group)).map_err(io)?;
    wal.append(&WalRecord::Init {
        initial: stream.initial(),
    })
    .map_err(io)?;
    let start_bytes = wal.bytes();
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    let until = Instant::now() + Duration::from_millis(1500);
    let mut i = 0;
    while Instant::now() < until && i < 5_000 {
        let (p, clock) = stream.event(i);
        let record = WalRecord::Event {
            process: p as u32,
            clock,
        };
        let t = Instant::now();
        rec.time("wal.append", None, i as u64, || wal.append(&record))
            .map_err(io)?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        rec.time("wal.sync", None, i as u64, || wal.sync())
            .map_err(io)?;
        sync.push(t.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    outcome.metric("wal.append_us", median(&append).ok_or("no appends")?);
    outcome.metric("wal.sync_us", median(&sync).ok_or("no syncs")?);
    outcome.metric(
        "wal.bytes_per_event",
        (wal.bytes() - start_bytes) as f64 / i as f64,
    );
    Ok(())
}

/// `Wal::open` over copies of the pre-written log.
fn recovery_layer(
    copy: &Path,
    work: &Path,
    rec: &mut Recorder,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut ms = Vec::new();
    let mut replayed = 0;
    for r in 0..5 {
        let dir = work.join(format!("recover-{r}"));
        copy_dir(copy, &dir).map_err(|e| format!("copying the WAL: {e}"))?;
        let t = Instant::now();
        let (_, recovery) = rec
            .time("wal.recover", None, r, || Wal::open(WalConfig::new(&dir)))
            .map_err(|e| format!("recovery: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        replayed = recovery.records.len();
    }
    outcome.metric("wal.recover_ms", median(&ms).expect("samples"));
    outcome.metric("wal.records_replayed", replayed as f64);
    Ok(())
}

/// Records each request's generator stamps as spans: the request from
/// when it was due to its reply, with the generator's lateness and the
/// wait for the reply as children.
fn record_stamps(rec: &mut Recorder, origin_ns: u64, logs: &[ClientLog]) {
    let mut id = 0;
    for s in logs.iter().flat_map(|l| &l.stamps) {
        id += 1;
        let Some(replied) = s.replied_ns else {
            continue;
        };
        let at = |t: u64| origin_ns + t;
        let root = rec.record("client.request", None, id, at(s.scheduled_ns), at(replied));
        rec.record(
            "client.late",
            Some(root),
            id,
            at(s.scheduled_ns),
            at(s.sent_ns),
        );
        rec.record("server.reply", Some(root), id, at(s.sent_ns), at(replied));
    }
}

/// The traced run. Closed loop: an untraced phase, then a phase
/// against a server restarted on the timing VFS with every request
/// recorded as spans (their difference is the tracing overhead). Open
/// loop: the server restarted with `fsync always`, as `gpd serve` runs
/// by default, at the fixed offered load, then the capacity ladder.
/// Last, the layers timed from outside on the workload's inputs.
fn traced(run: &mut Run, recover_copy: &Path) -> Result<Outcome, String> {
    let seconds = run.args.seconds as f64;
    let phase = seconds / 4.0;
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let mut outcome = Outcome::new(0, 0);

    let plain = run.saturate_phase(phase)?;
    let vfs = TimingVfs::default();
    run.service.stop()?;
    run.service.vfs = Arc::new(vfs.clone());
    run.service.start(&run.streams[0].initial())?;
    let before = vfs.counts();
    let phase_start = Instant::now();
    let phase_origin_ns = rec.now_ns();
    let traced_rounds = run.saturate_phase(phase)?;
    let traced: Vec<f64> = traced_rounds.iter().map(Round::nominal_eps).collect();
    let refs: Vec<f64> = traced_rounds.iter().map(|r| r.ref_ms).collect();
    outcome.metric("host.ref_ms", median(&refs).expect("rounds"));
    let disks: Vec<f64> = traced_rounds.iter().map(|r| r.disk_ms).collect();
    outcome.metric("host.disk_ref_ms", median(&disks).expect("rounds"));
    let wall_ns = phase_start.elapsed().as_nanos() as f64;
    let io = vfs.counts().since(&before);
    let logs: Vec<ClientLog> = traced_rounds.into_iter().flat_map(|r| r.logs).collect();
    let accepted =
        (ROUND_EVENTS * TENANTS.len() * traced.len()) as f64 + events_accepted(&logs) as f64;
    record_stamps(&mut rec, phase_origin_ns, &logs);
    outcome.metric("vfs.syncs_per_event", io.syncs as f64 / accepted);
    outcome.metric("vfs.writes_per_event", io.writes as f64 / accepted);
    outcome.metric("vfs.sync_ms_share", io.sync_ns as f64 / wall_ns);
    // The closed-loop ack tail is set by the disk's `fdatasync` stalls,
    // which drift too much between runs for a bounded end-to-end number.
    outcome.metric(
        "server.ack_p99_ms",
        round_latencies(&plain, Some(Kind::Event))
            .median_of_windows(ACK_WINDOW_S, 99.0, 200)
            .ok_or("no acks")?,
    );
    let plain = median(&plain.iter().map(Round::nominal_eps).collect::<Vec<_>>()).expect("rounds");
    let with_spans = median(&traced).expect("rounds");
    outcome.metric("trace.overhead_pct", (plain - with_spans) / plain * 100.0);

    // Open loop on `fsync always`.
    run.service.stop()?;
    run.service.fsync = FsyncPolicy::Always;
    run.service.start(&run.streams[0].initial())?;
    let open_origin_ns = rec.now_ns();
    let logs = run.open_phase(OPEN_LOAD, run.args.seed, phase)?;
    record_stamps(&mut rec, open_origin_ns, &logs);
    let acks = latencies(&logs, Some(Kind::Event));
    let ack_p50 = acks
        .median_of_windows(1.0, 50.0, 100)
        .ok_or("no open-loop acks")?;
    let stamps: Vec<Stamp> = logs.iter().flat_map(|l| l.stamps.iter().copied()).collect();
    let late: Vec<f64> = stamps.iter().map(|s| s.late_ns() as f64 / 1e6).collect();
    let late_p50 = percentile(&late, 50.0).unwrap_or(0.0);
    eprintln!("open loop: generator lateness p50 {late_p50:.4} ms against ack p50 {ack_p50:.4} ms");
    if !lateness_ok(late_p50, ack_p50) {
        eprintln!("invalid run: the generator fell behind its schedule");
        outcome.valid = false;
    }
    let idle: Vec<f64> = stamps
        .iter()
        .filter(|s| s.kind == Kind::Event && s.idle_before_ns >= 2_000_000)
        .filter_map(|s| s.latency_ns())
        .map(|l| l as f64 / 1e6)
        .collect();
    eprintln!(
        "open loop: {} acks (highest reportable percentile {:?}), {} after 2 ms idle",
        acks.len(),
        highest_reportable_percentile(acks.len()),
        idle.len()
    );
    outcome.metric("trace.samples", acks.len() as f64);
    outcome.metric(
        "server.ack_p999_ms",
        percentile(&acks.values(), 99.9).ok_or("no acks")?,
    );
    outcome.metric(
        "server.idle_ack_p99_ms",
        percentile(&idle, 99.0).unwrap_or(0.0),
    );
    outcome.metric("client.late_p99_ms", percentile(&late, 99.0).unwrap_or(0.0));
    outcome.metric(
        "client.backlog_peak",
        backlog(&stamps, (phase * 1e9) as u64).peak as f64,
    );
    let mut sustained = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let offered = Offered {
            events_per_s: rate,
            ..OPEN_LOAD
        };
        let step = seconds / 8.0;
        let logs = run.open_phase(offered, run.args.seed.wrapping_add(10 + i as u64), step)?;
        let stamps: Vec<Stamp> = logs.iter().flat_map(|l| l.stamps.iter().copied()).collect();
        let p99 = latencies(&logs, Some(Kind::Event))
            .median_of_windows(1.0, 99.0, 100)
            .unwrap_or(f64::INFINITY);
        let growing = backlog(&stamps, (step * 1e9) as u64).growing();
        let failed: u64 = logs.iter().map(|l| l.failed).sum();
        eprintln!("ladder {rate} events/s: ack p99 {p99:.3} ms, backlog growing {growing}");
        if p99 <= P99_LIMIT_MS && !growing && failed == 0 {
            sustained = rate;
        }
    }
    outcome.metric("client.sustained_eps", sustained);
    for (start, end) in vfs.sync_intervals() {
        rec.record("vfs.sync", None, 0, rec.ns_at(start), rec.ns_at(end));
    }

    protocol_layer(&run.streams[0], &mut rec, &mut outcome);
    online_layer(&run.streams[0], &mut rec, &mut outcome);
    wal_layer(
        &run.streams[0],
        &run.args.work.join("wal-layer"),
        &mut rec,
        &mut outcome,
    )?;
    recovery_layer(recover_copy, &run.args.work, &mut rec, &mut outcome)?;
    rec.write_jsonl(&run.args.spans_path())
        .map_err(|e| format!("writing spans: {e}"))?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_stream_matches_the_barrier_computation() {
        let stream = Stream::new(5);
        let sent = stream.base.len() * 2 + 7;
        let (comp, var) = stream.prefix_computation(sent);
        // Every streamed state is a true state of the built computation,
        // stamped with the clock the stream sends.
        for i in 0..sent {
            let (p, clock) = stream.event(i);
            let e = comp.events_of(p)[clock[p] as usize - 1];
            assert_eq!(comp.clock(e).as_slice(), clock.as_slice(), "state {i}");
            assert!(var.value_in_state(p, clock[p]));
        }
        assert_eq!(
            stream.offline_verdict(sent),
            None,
            "a correct mutex never meets"
        );
    }

    #[test]
    fn a_non_accepted_ack_counts_as_failed() {
        let mut out = Outstanding::default();
        let mut log = ClientLog::default();
        log.stamps.push(Stamp {
            scheduled_ns: 0,
            sent_ns: 0,
            replied_ns: None,
            kind: Kind::Event,
            idle_before_ns: 0,
        });
        out.events.insert((1, 4), 0);
        let origin = Instant::now();
        let ack = Message::Ack {
            process: 1,
            seq: 4,
            status: AckStatus::Rejected,
        };
        assert_eq!(out.reply("t", ack, origin, origin, &mut log), Ok(Some(1)));
        assert_eq!((log.failed, log.accepted), (1, 0));
        assert!(out.is_empty());
        // A reply nobody asked for is a protocol error.
        assert!(out
            .reply(
                "t",
                Message::Verdict { witness: None },
                origin,
                origin,
                &mut log
            )
            .is_err());
    }
}
