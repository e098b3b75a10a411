//! The monitoring service: a sharded, event-driven TCP server that
//! logs every accepted event to a per-tenant WAL before applying it to
//! that tenant's [`ConjunctiveMonitor`] and acking the client.
//!
//! ## Shard model
//!
//! `shards` worker threads each run a readiness sweep over the
//! nonblocking connections assigned to them: drain newly accepted
//! connections from the shard's inbox, read whatever bytes each socket
//! has, process up to `quota_frames` frames per connection (fairness —
//! one hot session cannot monopolize a sweep), stage all replies in
//! per-connection write buffers, fsync the write-ahead logs the sweep
//! dirtied (the **group-commit boundary** under
//! [`FsyncPolicy::Group`]), and only
//! then flush the staged replies to the sockets. A shard with no work
//! parks on its inbox condvar until the acceptor or a peer wakes it.
//!
//! Sessions are pinned to shards by tenant hash: the acceptor deals
//! connections round-robin, and the first `Hello` names the tenant —
//! if its home shard is elsewhere, the connection migrates (carrying
//! its unconsumed bytes) *before* the `Hello` is consumed, so a
//! tenant's WAL and monitor are only ever touched by its home shard's
//! thread plus brief read-only peeks from queries elsewhere. That is
//! what makes the per-tenant mutex uncontended in steady state and the
//! sweep the natural fsync batch.
//!
//! ## Ordering and determinism
//!
//! A connection's frames are processed sequentially by one shard, and
//! each tenant's WAL + monitor live behind one mutex, so events apply
//! in the order sent — per-process FIFO is preserved at any shard
//! count. Combined with the monitor's unique-minimal-witness property
//! (`docs/ALGORITHMS.md` §11), verdict and witness are identical at 1,
//! 2, or 8 shards, and identical across crash/recover/redeliver runs.
//!
//! ## Crash windows
//!
//! The classify → append → apply → ack order makes every crash window
//! safe under `fsync always`, and under group commit because no ack
//! leaves the server before the sweep-end fsync covers its append:
//!
//! - crash before the append is durable → the client never got an ack
//!   and retransmits after reconnect; recovery replays the prefix.
//! - crash after the append, before the ack → recovery replays the
//!   event; the client retransmits it and the monitor screens it as a
//!   duplicate.
//!
//! ## Tenant namespaces
//!
//! Each tenant's segments live under `<wal-dir>/tenants/<name>/`;
//! pre-multi-tenant logs found at the WAL root are migrated into
//! `tenants/default/` at startup. Snapshot compaction rewrites a
//! tenant's log as one [`WalRecord::Snapshot`] plus the events since,
//! so recovery replay is O(live monitor state), not O(event history).

use std::collections::{HashMap, HashSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpd::online::{ConjunctiveMonitor, MonitorSnapshot, Observation};
use gpd_computation::VectorClock;

use crate::liveness::SlicerRegistry;
use crate::protocol::{
    parse_message, valid_tenant_name, AckStatus, Message, ServerStats, SlicerVerdict,
    TenantStatsRow, DEFAULT_TENANT, MAX_FRAME,
};
use crate::wal::{FsyncPolicy, Wal, WalConfig, WalRecord};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// WAL root and durability policy. Tenant logs live in
    /// `<dir>/tenants/<name>/`.
    pub wal: WalConfig,
    /// Shard (worker) threads. Sessions are pinned by tenant hash.
    pub shards: usize,
    /// Per-connection idle timeout; a silent connection past it is
    /// dropped (the client reconnects and resumes).
    pub io_timeout: Duration,
    /// Optional cap on each monitor's per-process queues; overflow is
    /// acked as [`AckStatus::Rejected`] so clients back off. The queues
    /// are settled after every event, so overflow means a live backlog
    /// (one process ahead of a silent peer), never dead states.
    pub queue_cap: Option<usize>,
    /// Max tenants with live state; a `Hello` for a new tenant beyond
    /// it is refused.
    pub max_tenants: usize,
    /// Frames processed per connection per sweep — the fairness quota
    /// that keeps one hot tenant from starving its shard's peers.
    pub quota_frames: usize,
    /// Compact a tenant's WAL after this many logged events
    /// (`None` = never).
    pub snapshot_every: Option<u64>,
    /// Test hook: called with the tenant name while that tenant's
    /// event is applied (inside the panic isolation boundary). A panic
    /// here models a crashing predicate and quarantines the tenant.
    pub fault_injection: Option<fn(&str)>,
    /// A decentralized slicer silent for longer than this (and not
    /// done) is considered dead; its tenant's verdict degrades to
    /// `Unknown` with progress bounds instead of wedging.
    pub heartbeat_timeout: Duration,
    /// Re-verify each tenant's segment CRCs this often (`None` =
    /// never), self-healing corruption from the live monitor where
    /// possible — see `Wal::scrub` and `docs/ALGORITHMS.md` §16.
    pub scrub_every: Option<Duration>,
}

impl ServerConfig {
    /// Defaults: 2 shards, 30 s idle timeout, unbounded monitor
    /// queues, 1024 tenants, 64-frame sweep quota, no auto-compaction.
    pub fn new(wal: WalConfig) -> Self {
        ServerConfig {
            wal,
            shards: 2,
            io_timeout: Duration::from_secs(30),
            queue_cap: None,
            max_tenants: 1024,
            quota_frames: 64,
            snapshot_every: None,
            fault_injection: None,
            heartbeat_timeout: Duration::from_secs(2),
            scrub_every: None,
        }
    }
}

/// One tenant's monitor, WAL, and counters. Owned by its home shard in
/// steady state; the mutex also admits brief read-only peeks from
/// queries landing on other shards.
struct Tenant {
    name: String,
    wal: Wal,
    /// `None` until the first `Hello` (or WAL replay) declares the
    /// process count.
    monitor: Option<ConjunctiveMonitor>,
    initial: Option<Vec<bool>>,
    observed: u64,
    duplicates: u64,
    stale: u64,
    rejected: u64,
    events_logged: u64,
    resumes: u64,
    queue_peak: u64,
    snapshots: u64,
    events_since_snapshot: u64,
    quarantined: bool,
    /// Why the tenant was quarantined (`None` while healthy) — the
    /// shutdown summary prints this instead of dropping the tenant.
    quarantine_reason: Option<String>,
    /// Slicer liveness and progress for decentralized sessions (empty
    /// for centralized tenants).
    slicers: SlicerRegistry,
    /// Records replayed when this tenant's WAL was opened — the
    /// O(live state) gauge the recovery tests assert on.
    replayed: u64,
    /// Bytes recovery cut as a torn tail when the WAL was opened —
    /// nonzero means an unclean shutdown lost un-acked data.
    recovered_truncated_bytes: u64,
    /// Whole segments recovery dropped past the torn one.
    recovered_dropped_segments: u64,
    /// Appends rejected for transient storage errors (ENOSPC/EIO with
    /// a clean rollback — the tenant stayed in service).
    storage_errors: u64,
    /// Completed background scrub passes.
    scrub_passes: u64,
    /// Corrupt segments the scrubber found.
    scrub_corruptions: u64,
    /// Corrupt segments healed by compacting from the live monitor.
    scrub_healed: u64,
    last_scrub: Instant,
}

impl Tenant {
    /// Opens (or creates) the tenant's WAL namespace and replays it.
    fn open(name: &str, template: &WalConfig, queue_cap: Option<usize>) -> std::io::Result<Tenant> {
        let mut config = template.clone();
        config.dir = tenant_dir(&template.dir, name);
        let (wal, recovery) = Wal::open(config)?;
        let mut tenant = Tenant {
            name: name.to_string(),
            wal,
            monitor: None,
            initial: None,
            observed: 0,
            duplicates: 0,
            stale: 0,
            rejected: 0,
            events_logged: 0,
            resumes: 0,
            queue_peak: 0,
            snapshots: 0,
            events_since_snapshot: 0,
            quarantined: false,
            quarantine_reason: None,
            slicers: SlicerRegistry::new(),
            replayed: recovery.records.len() as u64,
            recovered_truncated_bytes: recovery.truncated_bytes,
            recovered_dropped_segments: recovery.dropped_segments,
            storage_errors: 0,
            scrub_passes: 0,
            scrub_corruptions: 0,
            scrub_healed: 0,
            last_scrub: Instant::now(),
        };
        // Deterministic replay: the log records every accepted
        // observation in apply order (with snapshots as reset points),
        // so replaying rebuilds the exact monitor the crashed server
        // had at its last durable append. Records are consumed: each
        // clock buffer moves into the monitor and is freed when its
        // state is eliminated.
        for record in recovery.records {
            match record {
                WalRecord::Init { initial } => {
                    tenant.monitor = Some(with_cap(
                        ConjunctiveMonitor::with_initial(&initial),
                        queue_cap,
                    ));
                    tenant.initial = Some(initial);
                }
                WalRecord::Event { process, clock } => {
                    if let Some(m) = tenant.monitor.as_mut() {
                        // Logged events were accepted once; replay
                        // cannot overflow a queue that held them.
                        let _ = m.try_observe(process as usize, VectorClock::from(clock));
                    }
                }
                WalRecord::Snapshot {
                    initial,
                    latest,
                    queues,
                    witness,
                } => {
                    let snapshot = MonitorSnapshot {
                        latest,
                        queues: queues
                            .into_iter()
                            .map(|q| q.into_iter().map(VectorClock::from).collect())
                            .collect(),
                        witness: witness.map(|w| w.into_iter().map(VectorClock::from).collect()),
                    };
                    tenant.monitor =
                        Some(with_cap(ConjunctiveMonitor::restore(snapshot), queue_cap));
                    tenant.initial = Some(initial);
                }
            }
        }
        Ok(tenant)
    }

    fn witness(&self) -> Option<Vec<Vec<u32>>> {
        self.monitor.as_ref().and_then(|m| {
            m.witness()
                .map(|cut| cut.iter().map(|c| c.as_slice().to_vec()).collect())
        })
    }

    fn row(&self, now: Instant, heartbeat_timeout: Duration) -> TenantStatsRow {
        let witness_found = self.monitor.as_ref().is_some_and(|m| m.witness().is_some());
        let census = self.slicers.census(now, heartbeat_timeout);
        TenantStatsRow {
            tenant: self.name.clone(),
            observed: self.observed,
            duplicates: self.duplicates,
            stale: self.stale,
            rejected: self.rejected,
            events_logged: self.events_logged,
            resumes: self.resumes,
            queue_depth: self.monitor.as_ref().map_or(0, |m| m.queue_depth() as u64),
            queue_peak: self.queue_peak,
            wal_segments: self.wal.segment_count(),
            wal_bytes: self.wal.bytes(),
            snapshots: self.snapshots,
            quarantined: self.quarantined,
            witness_found,
            quarantine_reason: self.quarantine_reason.clone().unwrap_or_default(),
            slicers_live: census.live,
            slicers_dead: census.dead,
            slicers_done: census.done,
            // Storage poisoning degrades the verdict exactly like a
            // dead slicer: without a durable log the tenant can no
            // longer promise "not yet" — only a sticky witness stands.
            degraded: !witness_found && (census.dead > 0 || self.quarantined),
            replayed: self.replayed,
            recovered_truncated_bytes: self.recovered_truncated_bytes,
            recovered_dropped_segments: self.recovered_dropped_segments,
            storage_errors: self.storage_errors,
            scrub_passes: self.scrub_passes,
            scrub_corruptions: self.scrub_corruptions,
            scrub_healed: self.scrub_healed,
        }
    }

    /// Marks the tenant quarantined, keeping the first reason (later
    /// failures on an already-poisoned tenant add no information).
    fn quarantine(&mut self, reason: String) {
        self.quarantined = true;
        self.quarantine_reason.get_or_insert(reason);
    }

    /// The three-valued decentralized verdict at `now`: the sticky
    /// witness if one exists, otherwise "not yet" — degraded to
    /// `Unknown` when a registered, unfinished slicer is past its
    /// heartbeat deadline. The bounds are sound: `applied[p]` is the
    /// monitor's dedup high-water mark and `explored[p]` the
    /// componentwise-max of everything `p`'s slicer reported.
    fn slicer_verdict(&self, now: Instant, heartbeat_timeout: Duration) -> SlicerVerdict {
        let witness = self.witness();
        let dead = self.slicers.dead(now, heartbeat_timeout);
        let n = self.monitor.as_ref().map_or(0, |m| m.process_count());
        SlicerVerdict {
            // A quarantined tenant (poisoned storage, crashed
            // predicate) degrades to Unknown the same way a dead
            // slicer does: a sticky witness still stands, but "no
            // witness" can no longer be trusted as "not yet".
            degraded: witness.is_none() && (!dead.is_empty() || self.quarantined),
            witness,
            dead,
            applied: (0..n)
                .map(|p| self.monitor.as_ref().and_then(|m| m.high_water(p)))
                .collect(),
            explored: self.slicers.progress(n),
        }
    }

    /// Writes a snapshot of the live monitor state and compacts the
    /// log down to it.
    fn compact(&mut self) -> std::io::Result<()> {
        let (Some(monitor), Some(initial)) = (self.monitor.as_ref(), self.initial.as_ref()) else {
            return Ok(());
        };
        let snapshot = monitor.snapshot();
        let record = WalRecord::Snapshot {
            initial: initial.clone(),
            latest: snapshot.latest,
            queues: snapshot
                .queues
                .into_iter()
                .map(|q| q.into_iter().map(|c| c.as_slice().to_vec()).collect())
                .collect(),
            witness: snapshot
                .witness
                .map(|w| w.into_iter().map(|c| c.as_slice().to_vec()).collect()),
        };
        self.wal.compact(&record)?;
        self.snapshots += 1;
        self.events_since_snapshot = 0;
        Ok(())
    }

    /// One background scrub: re-verify every live segment's CRCs, and
    /// self-heal corruption by compacting from the live monitor — the
    /// monitor is authoritative for everything the log recorded, so
    /// the rewritten log (snapshot + nothing) supersedes the corrupt
    /// segments, which compaction then deletes. Without live state to
    /// snapshot (or when healing itself fails) the tenant is
    /// quarantined instead: its log can no longer be trusted.
    fn scrub_pass(&mut self) {
        let report = match self.wal.scrub() {
            Ok(report) => report,
            Err(e) => {
                self.storage_errors += 1;
                if self.wal.poisoned().is_some() {
                    self.quarantine(format!("wal scrub failed: {e}"));
                }
                return;
            }
        };
        self.scrub_passes += 1;
        if report.is_clean() {
            return;
        }
        self.scrub_corruptions += report.corrupt_segments;
        if self.monitor.is_none() || self.initial.is_none() {
            self.quarantine(format!(
                "scrub found {} corrupt segment(s) and no live state to heal from",
                report.corrupt_segments
            ));
            return;
        }
        match self.compact() {
            Ok(()) => self.scrub_healed += report.corrupt_segments,
            Err(e) => self.quarantine(format!(
                "scrub found {} corrupt segment(s) and healing compaction failed: {e}",
                report.corrupt_segments
            )),
        }
    }
}

fn with_cap(monitor: ConjunctiveMonitor, cap: Option<usize>) -> ConjunctiveMonitor {
    match cap {
        Some(cap) => monitor.with_queue_cap(cap),
        None => monitor,
    }
}

/// `<root>/tenants/<name>`.
fn tenant_dir(root: &std::path::Path, name: &str) -> std::path::PathBuf {
    root.join("tenants").join(name)
}

/// The home shard of a tenant: a deterministic hash, so every shard
/// (and every restart) agrees.
fn shard_of(tenant: &str, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    tenant.hash(&mut hasher);
    (hasher.finish() % shards.max(1) as u64) as usize
}

type TenantRef = Arc<Mutex<Tenant>>;

/// A shard's inbox: connections dealt by the acceptor or migrated by
/// peers, plus the condvar the shard parks on when idle.
#[derive(Default)]
struct Mailbox {
    inbox: Mutex<Vec<Conn>>,
    cv: Condvar,
}

impl Mailbox {
    fn push(&self, conn: Conn) {
        self.inbox.lock().expect("shard inbox poisoned").push(conn);
        self.cv.notify_all();
    }

    fn wake(&self) {
        self.cv.notify_all();
    }
}

struct Shared {
    tenants: Mutex<HashMap<String, TenantRef>>,
    mailboxes: Vec<Mailbox>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let now = Instant::now();
        let mut stats = ServerStats::default();
        for tenant in self.tenant_refs() {
            let t = tenant.lock().expect("tenant poisoned");
            let row = t.row(now, self.config.heartbeat_timeout);
            stats.observed += row.observed;
            stats.duplicates += row.duplicates;
            stats.stale += row.stale;
            stats.rejected += row.rejected;
            stats.events_logged += row.events_logged;
            stats.resumes += row.resumes;
            stats.queue_depth += row.queue_depth;
            stats.wal_segments += row.wal_segments;
            stats.wal_bytes += row.wal_bytes;
            stats.snapshots += row.snapshots;
            stats.tenants += 1;
        }
        stats
    }

    fn tenant_rows(&self) -> Vec<TenantStatsRow> {
        let now = Instant::now();
        let mut rows: Vec<TenantStatsRow> = self
            .tenant_refs()
            .iter()
            .map(|t| {
                t.lock()
                    .expect("tenant poisoned")
                    .row(now, self.config.heartbeat_timeout)
            })
            .collect();
        rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        rows
    }

    fn tenant_refs(&self) -> Vec<TenantRef> {
        self.tenants
            .lock()
            .expect("tenant map poisoned")
            .values()
            .cloned()
            .collect()
    }

    fn lookup(&self, name: &str) -> Option<TenantRef> {
        self.tenants
            .lock()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
    }

    /// Flushes every tenant's WAL buffers (shutdown and group-commit
    /// stragglers).
    fn sync_all(&self) {
        for tenant in self.tenant_refs() {
            let mut t = tenant.lock().expect("tenant poisoned");
            let _ = t.wal.sync();
        }
    }

    fn wake_all(&self) {
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
    }
}

/// A running server; dropped handles do **not** stop it — send
/// [`Message::Shutdown`] (e.g. via
/// [`FeedClient::shutdown`](crate::client::FeedClient::shutdown)) and
/// then [`ServerHandle::wait`].
pub struct ServerHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// What the server knew when it stopped.
#[derive(Debug, Clone)]
pub struct ServerSummary {
    /// The final witness cut of the [`DEFAULT_TENANT`], if its
    /// conjunction ever held.
    pub witness: Option<Vec<Vec<u32>>>,
    /// Final aggregate counters.
    pub stats: ServerStats,
    /// Final per-tenant counters, sorted by tenant id.
    pub tenants: Vec<TenantStatsRow>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time aggregate counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Point-in-time per-tenant counters, sorted by tenant id.
    pub fn tenant_stats(&self) -> Vec<TenantStatsRow> {
        self.shared.tenant_rows()
    }

    /// Per-tenant WAL records replayed at startup — the recovery-work
    /// gauge: after compaction this is O(live monitor state), not
    /// O(event history).
    pub fn replayed_records(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .shared
            .tenant_refs()
            .iter()
            .map(|t| {
                let t = t.lock().expect("tenant poisoned");
                (t.name.clone(), t.replayed)
            })
            .collect();
        out.sort();
        out
    }

    /// Blocks until a client-initiated shutdown completes, then reports
    /// the final verdict and counters.
    pub fn wait(self) -> ServerSummary {
        for t in self.threads {
            let _ = t.join();
        }
        let stats = self.shared.stats();
        let witness = self
            .shared
            .lookup(DEFAULT_TENANT)
            .and_then(|t| t.lock().expect("tenant poisoned").witness());
        ServerSummary {
            witness,
            stats,
            tenants: self.shared.tenant_rows(),
        }
    }
}

/// Starts the service on `addr` (use `"127.0.0.1:0"` for an ephemeral
/// port), recovering every tenant found under the WAL root first.
///
/// # Errors
///
/// Any I/O error binding the listener or opening/recovering a WAL.
pub fn start(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let root = config.wal.dir.clone();
    let vfs = Arc::clone(&config.wal.vfs);
    vfs.create_dir_all(&root.join("tenants"))?;
    migrate_legacy_layout(&*vfs, &root)?;

    // Eagerly recover every tenant namespace, so stats and verdicts
    // are correct before any client reconnects.
    let mut tenants = HashMap::new();
    for name in vfs.list_dirs(&root.join("tenants"))? {
        let tenant = Tenant::open(&name, &config.wal, config.queue_cap)?;
        tenants.insert(name, Arc::new(Mutex::new(tenant)));
    }

    let shard_count = config.shards.max(1);
    let shared = Arc::new(Shared {
        tenants: Mutex::new(tenants),
        mailboxes: (0..shard_count).map(|_| Mailbox::default()).collect(),
        shutdown: AtomicBool::new(false),
        config,
    });

    let mut threads = Vec::new();
    for shard in 0..shard_count {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || shard_loop(shard, &shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
    }

    Ok(ServerHandle {
        addr: local,
        threads,
        shared,
    })
}

/// Moves pre-multi-tenant segments (`<root>/*.wal`) into the default
/// tenant's namespace, so old logs keep working.
fn migrate_legacy_layout(vfs: &dyn crate::vfs::Vfs, root: &std::path::Path) -> std::io::Result<()> {
    let default_dir = tenant_dir(root, DEFAULT_TENANT);
    let mut moved = false;
    for name in vfs.list(root)? {
        if name.ends_with(".wal") {
            vfs.create_dir_all(&default_dir)?;
            vfs.rename(&root.join(&name), &default_dir.join(&name))?;
            moved = true;
        }
    }
    if moved {
        // Renames are durable only once both directories are synced —
        // otherwise power loss could resurrect the pre-migration
        // layout, or worse, drop the segments from both.
        vfs.sync_dir(root)?;
        vfs.sync_dir(&default_dir)?;
    }
    Ok(())
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client);
                    // closing the socket tells the peer we are gone.
                    break;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                // Deal round-robin; the first Hello re-homes the
                // connection to its tenant's shard.
                let shard = next % shared.mailboxes.len();
                next = next.wrapping_add(1);
                shared.mailboxes[shard].push(Conn::new(stream));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Why a connection is done.
enum ConnFate {
    Alive,
    /// Close after the write buffer drains.
    Closing,
    /// Drop immediately, discarding any unflushed output.
    Dead,
}

/// One nonblocking connection and its buffers.
struct Conn {
    stream: TcpStream,
    /// Received, not yet parsed bytes.
    rbuf: Vec<u8>,
    /// Staged, not yet flushed replies. Only flushed after the sweep's
    /// group-commit fsync — that is the log-before-ack gate.
    wbuf: Vec<u8>,
    /// The session tenant, set by the first processed `Hello`.
    tenant: Option<TenantRef>,
    tenant_name: Option<String>,
    /// Slicer identity `(process, adopted epoch)` when this session
    /// was opened by a `SlicerHello` — events arriving on it double as
    /// liveness beats for that epoch.
    slicer: Option<(u32, u64)>,
    last_activity: Instant,
    fate: ConnFate,
    /// Target shard when a `Hello` named a tenant homed elsewhere.
    migrate_to: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            tenant: None,
            tenant_name: None,
            slicer: None,
            last_activity: Instant::now(),
            fate: ConnFate::Alive,
            migrate_to: None,
        }
    }

    /// Nonblocking read of everything currently available. Returns
    /// whether any bytes arrived.
    fn read_some(&mut self) -> bool {
        // Cap buffered input: a peer that streams faster than its
        // quota drains is left in the kernel buffer (TCP backpressure).
        const RBUF_CAP: usize = 2 * (MAX_FRAME as usize + 4);
        let mut chunk = [0u8; 8192];
        let mut any = false;
        while self.rbuf.len() < RBUF_CAP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed: process what we have, then close.
                    if !matches!(self.fate, ConnFate::Dead) {
                        self.fate = ConnFate::Closing;
                    }
                    break;
                }
                Ok(k) => {
                    self.rbuf.extend_from_slice(&chunk[..k]);
                    any = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fate = ConnFate::Dead;
                    break;
                }
            }
        }
        if any {
            self.last_activity = Instant::now();
        }
        any
    }

    /// Nonblocking flush of staged replies. Returns whether any bytes
    /// left.
    fn flush_some(&mut self) -> bool {
        let mut written = 0usize;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => {
                    self.fate = ConnFate::Dead;
                    break;
                }
                Ok(k) => written += k,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fate = ConnFate::Dead;
                    break;
                }
            }
        }
        self.wbuf.drain(..written);
        if written > 0 {
            self.last_activity = Instant::now();
        }
        written > 0
    }

    fn stage(&mut self, message: &Message) {
        // Writing into a Vec cannot fail.
        let _ = crate::protocol::write_message(&mut self.wbuf, message);
    }
}

/// One sweep's bookkeeping: which tenants were dirtied (need the
/// group-commit fsync) and which crossed their snapshot threshold.
#[derive(Default)]
struct SweepState {
    dirty: Vec<TenantRef>,
    dirty_names: HashSet<String>,
    compact: Vec<TenantRef>,
    compact_names: HashSet<String>,
}

impl SweepState {
    fn mark_dirty(&mut self, name: &str, tenant: &TenantRef) {
        if self.dirty_names.insert(name.to_string()) {
            self.dirty.push(Arc::clone(tenant));
        }
    }

    fn mark_compact(&mut self, name: &str, tenant: &TenantRef) {
        if self.compact_names.insert(name.to_string()) {
            self.compact.push(Arc::clone(tenant));
        }
    }
}

fn shard_loop(shard: usize, shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    let io_timeout = shared.config.io_timeout;
    let mut next_scrub_scan = Instant::now();
    // Sweeps without progress before the shard parks: a short yield
    // phase keeps ack latency in the microseconds while clients are
    // mid-round-trip, without burning CPU when genuinely idle.
    const IDLE_SPINS: u32 = 64;
    let mut idle = 0u32;
    loop {
        let mut progress = false;

        // Adopt newly dealt or migrated connections.
        {
            let mut inbox = shared.mailboxes[shard]
                .inbox
                .lock()
                .expect("shard inbox poisoned");
            if !inbox.is_empty() {
                progress = true;
                conns.append(&mut inbox);
            }
        }

        let mut sweep = SweepState::default();
        for conn in &mut conns {
            if !matches!(conn.fate, ConnFate::Alive) {
                continue;
            }
            if conn.read_some() {
                progress = true;
            }
            if process_frames(shard, shared, conn, &mut sweep) {
                progress = true;
            }
        }

        // Group-commit boundary: everything this sweep appended
        // becomes durable in one fsync per dirtied tenant — before any
        // staged ack reaches a socket.
        if matches!(shared.config.wal.fsync, FsyncPolicy::Group) {
            for tenant in &sweep.dirty {
                let mut t = tenant.lock().expect("tenant poisoned");
                if let Err(e) = t.wal.sync() {
                    // The appends this sweep acked may not be durable:
                    // quarantine the tenant and drop its connections
                    // unflushed, so no unlogged ack escapes. Clients
                    // will retransmit elsewhere.
                    t.quarantine(format!("wal fsync failed at group-commit boundary: {e}"));
                    let name = t.name.clone();
                    drop(t);
                    for conn in &mut conns {
                        if conn.tenant_name.as_deref() == Some(&name) {
                            conn.fate = ConnFate::Dead;
                        }
                    }
                }
            }
        }

        // Snapshot + compaction for tenants past their threshold. The
        // snapshot fsyncs before old segments are deleted, so this is
        // crash-safe anywhere; failures leave the full history behind
        // and retry on the next threshold crossing.
        for tenant in &sweep.compact {
            let mut t = tenant.lock().expect("tenant poisoned");
            let _ = t.compact();
        }

        // Background scrub: periodically re-verify cold segment CRCs
        // for this shard's tenants (the sweep thread owns their locks
        // anyway, so the scrub never races an append).
        if let Some(every) = shared.config.scrub_every {
            let now = Instant::now();
            if now >= next_scrub_scan {
                next_scrub_scan = now + (every / 2).max(Duration::from_millis(10));
                for tenant in shared.tenant_refs() {
                    let mut t = tenant.lock().expect("tenant poisoned");
                    if shard_of(&t.name, shared.mailboxes.len()) != shard
                        || t.quarantined
                        || now.duration_since(t.last_scrub) < every
                    {
                        continue;
                    }
                    t.last_scrub = now;
                    t.scrub_pass();
                }
            }
        }

        // Flush staged replies; retire finished connections.
        for conn in &mut conns {
            if matches!(conn.fate, ConnFate::Dead) {
                continue;
            }
            if conn.flush_some() {
                progress = true;
            }
        }
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        conns.retain_mut(|conn| match conn.fate {
            ConnFate::Dead => false,
            ConnFate::Closing => !conn.wbuf.is_empty(),
            ConnFate::Alive => {
                if let Some(target) = conn.migrate_to.take() {
                    let mut moved = Conn::new_migrated(conn);
                    moved.last_activity = Instant::now();
                    shared.mailboxes[target].push(moved);
                    return false;
                }
                conn.last_activity.elapsed() < io_timeout && !shutting_down
            }
        });

        if shutting_down && conns.is_empty() {
            return;
        }
        if progress {
            idle = 0;
        } else {
            idle += 1;
            if idle < IDLE_SPINS {
                std::thread::yield_now();
            } else {
                // Nothing moved for a while: park until the acceptor,
                // a migration, or shutdown wakes this shard (bounded,
                // so idle timeouts and the shutdown flag are still
                // observed).
                let guard = shared.mailboxes[shard]
                    .inbox
                    .lock()
                    .expect("shard inbox poisoned");
                let _ = shared.mailboxes[shard]
                    .cv
                    .wait_timeout(guard, Duration::from_millis(1));
            }
        }
    }
}

impl Conn {
    /// Rebuilds a connection object for migration to another shard,
    /// carrying the socket and both buffers.
    fn new_migrated(conn: &mut Conn) -> Conn {
        Conn {
            stream: conn.stream.try_clone().expect("clone migrating socket"),
            rbuf: std::mem::take(&mut conn.rbuf),
            wbuf: std::mem::take(&mut conn.wbuf),
            tenant: conn.tenant.take(),
            tenant_name: conn.tenant_name.take(),
            slicer: conn.slicer.take(),
            last_activity: conn.last_activity,
            fate: ConnFate::Alive,
            migrate_to: None,
        }
    }
}

/// Parses and handles up to the fairness quota of frames from `conn`.
/// Returns whether any frame was consumed.
fn process_frames(shard: usize, shared: &Shared, conn: &mut Conn, sweep: &mut SweepState) -> bool {
    let mut consumed_total = 0usize;
    let mut any = false;
    for _ in 0..shared.config.quota_frames.max(1) {
        if !matches!(conn.fate, ConnFate::Alive) {
            break;
        }
        match parse_message(&conn.rbuf[consumed_total..]) {
            Ok(None) => break,
            Err(e) => {
                // Garbage framing (oversized/zero length, undecodable
                // body): the stream can no longer be trusted, but the
                // peer deserves to know why. Stage a clean protocol
                // error — no allocation was ever attempted for an
                // oversized frame — and close once it drains.
                fail(conn, format!("protocol error: {e}"));
                break;
            }
            Ok(Some((message, used))) => {
                // Tenant pinning: a (Slicer)Hello homed elsewhere
                // migrates the connection *before* the frame is
                // consumed, so only the home shard ever drives this
                // tenant's WAL.
                if let Message::Hello { tenant, .. } | Message::SlicerHello { tenant, .. } =
                    &message
                {
                    let home = shard_of(tenant, shared.mailboxes.len());
                    if home != shard && valid_tenant_name(tenant) {
                        conn.migrate_to = Some(home);
                        break;
                    }
                }
                consumed_total += used;
                any = true;
                handle_message(shared, conn, message, sweep);
            }
        }
    }
    conn.rbuf.drain(..consumed_total);
    any
}

fn handle_message(shared: &Shared, conn: &mut Conn, message: Message, sweep: &mut SweepState) {
    match message {
        Message::Hello { tenant, initial } => handle_hello(shared, conn, &tenant, initial, sweep),
        Message::Event { process, clock } => handle_event(shared, conn, process, clock, sweep),
        Message::VerdictQuery { tenant } => {
            let witness = resolve_tenant(shared, conn, &tenant)
                .and_then(|t| t.lock().expect("tenant poisoned").witness());
            conn.stage(&Message::Verdict { witness });
        }
        Message::StatsQuery => {
            let stats = shared.stats();
            conn.stage(&Message::Stats(stats));
        }
        Message::TenantStatsQuery => {
            let rows = shared.tenant_rows();
            conn.stage(&Message::TenantStats { rows });
        }
        Message::Shutdown { tenant } => {
            // Drain every tenant's buffers (Interval/Group stragglers)
            // before acknowledging.
            shared.sync_all();
            let witness = resolve_tenant(shared, conn, &tenant)
                .and_then(|t| t.lock().expect("tenant poisoned").witness());
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake_all();
            // Wake the blocking acceptor so it observes the flag.
            if let Ok(addr) = conn.stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            conn.stage(&Message::ShutdownAck { witness });
            conn.fate = ConnFate::Closing;
        }
        Message::SlicerHello {
            tenant,
            process,
            epoch,
            initial,
        } => handle_slicer_hello(shared, conn, &tenant, process, epoch, initial, sweep),
        Message::Heartbeat {
            process,
            epoch,
            progress,
        } => handle_heartbeat(conn, process, epoch, &progress),
        Message::SlicerDone {
            process,
            epoch,
            progress,
        } => handle_slicer_done(conn, process, epoch, &progress),
        Message::SlicerStatusQuery { tenant } => {
            let verdict =
                resolve_tenant(shared, conn, &tenant).map_or_else(SlicerVerdict::default, |t| {
                    t.lock()
                        .expect("tenant poisoned")
                        .slicer_verdict(Instant::now(), shared.config.heartbeat_timeout)
                });
            conn.stage(&Message::SlicerStatus(verdict));
        }
        // Server-bound connections should not send server-role
        // messages; answer with an error and close.
        Message::HelloAck { .. }
        | Message::Ack { .. }
        | Message::Verdict { .. }
        | Message::Stats(_)
        | Message::ShutdownAck { .. }
        | Message::TenantStats { .. }
        | Message::SlicerHelloAck { .. }
        | Message::SlicerDoneAck
        | Message::SlicerStatus(_)
        | Message::Error { .. } => {
            fail(conn, "unexpected server-role message".to_string());
        }
    }
}

/// Opens (or resumes) a slicer session: the tenant admission and
/// predicate-shape validation of [`handle_hello`], plus epoch adoption
/// and a single-process high-water mark in the ack.
fn handle_slicer_hello(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    process: u32,
    epoch: u64,
    initial: Vec<bool>,
    sweep: &mut SweepState,
) {
    if !valid_tenant_name(tenant) {
        return fail(conn, format!("invalid tenant name {tenant:?}"));
    }
    if process as usize >= initial.len() {
        return fail(
            conn,
            format!(
                "slicer process {process} out of range for {} processes",
                initial.len()
            ),
        );
    }
    let tenant_ref = match admit_tenant(shared, tenant) {
        Ok(t) => t,
        Err(reason) => return fail(conn, reason),
    };
    let mut t = tenant_ref.lock().expect("tenant poisoned");
    if t.quarantined {
        drop(t);
        return fail(conn, format!("tenant {tenant:?} is quarantined"));
    }
    match (&t.initial, t.monitor.is_some()) {
        (Some(existing), true) => {
            if *existing != initial {
                drop(t);
                return fail(
                    conn,
                    "session mismatch: tenant already monitors a different computation".to_string(),
                );
            }
            t.resumes += 1;
        }
        _ => {
            if let Err(e) = t.wal.append(&WalRecord::Init {
                initial: initial.clone(),
            }) {
                if t.wal.poisoned().is_some() {
                    // Fsync failure: quarantine rather than retry
                    // (fsyncgate), and drop the connection unflushed.
                    t.quarantine(format!("wal append failed: {e}"));
                    drop(t);
                    conn.fate = ConnFate::Dead;
                    return;
                }
                drop(t);
                return fail(conn, format!("wal append failed: {e}"));
            }
            t.events_logged += 1;
            t.monitor = Some(with_cap(
                ConjunctiveMonitor::with_initial(&initial),
                shared.config.queue_cap,
            ));
            t.initial = Some(initial);
            sweep.mark_dirty(tenant, &tenant_ref);
        }
    }
    let adopted = t.slicers.register(process, epoch, Instant::now());
    let high_water = t
        .monitor
        .as_ref()
        .expect("just initialized")
        .high_water(process as usize);
    drop(t);
    conn.tenant = Some(Arc::clone(&tenant_ref));
    conn.tenant_name = Some(tenant.to_string());
    conn.slicer = Some((process, adopted));
    conn.stage(&Message::SlicerHelloAck {
        epoch: adopted,
        high_water,
    });
}

/// Liveness beat: refresh `last_seen` and merge the progress clock.
/// No reply — heartbeats ride the event socket without consuming an
/// ack round-trip.
fn handle_heartbeat(conn: &mut Conn, process: u32, epoch: u64, progress: &[u32]) {
    let Some(tenant_ref) = conn.tenant.clone() else {
        return fail(
            conn,
            "no slicer session: send SlicerHello first".to_string(),
        );
    };
    let mut t = tenant_ref.lock().expect("tenant poisoned");
    t.slicers.beat(process, epoch, progress, Instant::now());
}

/// Graceful completion: the slicer replayed its whole stream. Done
/// slicers are exempt from the heartbeat deadline.
fn handle_slicer_done(conn: &mut Conn, process: u32, epoch: u64, progress: &[u32]) {
    let Some(tenant_ref) = conn.tenant.clone() else {
        return fail(
            conn,
            "no slicer session: send SlicerHello first".to_string(),
        );
    };
    {
        let mut t = tenant_ref.lock().expect("tenant poisoned");
        t.slicers.done(process, epoch, progress, Instant::now());
    }
    conn.stage(&Message::SlicerDoneAck);
}

/// Stages an error reply and closes the connection after it drains.
fn fail(conn: &mut Conn, message: String) {
    conn.stage(&Message::Error { message });
    conn.fate = ConnFate::Closing;
}

/// `""` → the session's tenant, falling back to the default tenant.
fn resolve_tenant(shared: &Shared, conn: &Conn, tenant: &str) -> Option<TenantRef> {
    if !tenant.is_empty() {
        return shared.lookup(tenant);
    }
    if let Some(t) = &conn.tenant {
        return Some(Arc::clone(t));
    }
    shared.lookup(DEFAULT_TENANT)
}

/// Finds or admits `tenant` under the map lock; heavy work (WAL open)
/// happens under the tenant's own lock. Errors are user-facing reasons.
fn admit_tenant(shared: &Shared, tenant: &str) -> Result<TenantRef, String> {
    let mut map = shared.tenants.lock().expect("tenant map poisoned");
    match map.get(tenant) {
        Some(t) => Ok(Arc::clone(t)),
        None => {
            if map.len() >= shared.config.max_tenants {
                return Err(format!(
                    "tenant quota exceeded ({} tenants)",
                    shared.config.max_tenants
                ));
            }
            match Tenant::open(tenant, &shared.config.wal, shared.config.queue_cap) {
                Ok(t) => {
                    let t = Arc::new(Mutex::new(t));
                    map.insert(tenant.to_string(), Arc::clone(&t));
                    Ok(t)
                }
                Err(e) => Err(format!("tenant WAL unavailable: {e}")),
            }
        }
    }
}

fn handle_hello(
    shared: &Shared,
    conn: &mut Conn,
    tenant: &str,
    initial: Vec<bool>,
    sweep: &mut SweepState,
) {
    if !valid_tenant_name(tenant) {
        return fail(conn, format!("invalid tenant name {tenant:?}"));
    }
    let tenant_ref = match admit_tenant(shared, tenant) {
        Ok(t) => t,
        Err(reason) => return fail(conn, reason),
    };

    let mut t = tenant_ref.lock().expect("tenant poisoned");
    if t.quarantined {
        drop(t);
        return fail(conn, format!("tenant {tenant:?} is quarantined"));
    }
    match (&t.initial, t.monitor.is_some()) {
        (Some(existing), true) => {
            if *existing != initial {
                drop(t);
                return fail(
                    conn,
                    "session mismatch: tenant already monitors a different computation".to_string(),
                );
            }
            t.resumes += 1;
        }
        _ => {
            // First contact: log the session header before building
            // the monitor, so recovery can rebuild it.
            if let Err(e) = t.wal.append(&WalRecord::Init {
                initial: initial.clone(),
            }) {
                if t.wal.poisoned().is_some() {
                    // Fsync failure: quarantine rather than retry
                    // (fsyncgate), and drop the connection unflushed.
                    t.quarantine(format!("wal append failed: {e}"));
                    drop(t);
                    conn.fate = ConnFate::Dead;
                    return;
                }
                drop(t);
                return fail(conn, format!("wal append failed: {e}"));
            }
            t.events_logged += 1;
            t.monitor = Some(with_cap(
                ConjunctiveMonitor::with_initial(&initial),
                shared.config.queue_cap,
            ));
            t.initial = Some(initial);
            sweep.mark_dirty(tenant, &tenant_ref);
        }
    }
    let monitor = t.monitor.as_ref().expect("just initialized");
    let high_water = (0..monitor.process_count())
        .map(|p| monitor.high_water(p))
        .collect();
    drop(t);
    conn.tenant = Some(Arc::clone(&tenant_ref));
    conn.tenant_name = Some(tenant.to_string());
    conn.stage(&Message::HelloAck { high_water });
}

fn handle_event(
    shared: &Shared,
    conn: &mut Conn,
    process: u32,
    clock: Vec<u32>,
    sweep: &mut SweepState,
) {
    let Some(tenant_ref) = conn.tenant.clone() else {
        return fail(conn, "no session: send Hello first".to_string());
    };
    let name = conn.tenant_name.clone().unwrap_or_default();
    let mut t = tenant_ref.lock().expect("tenant poisoned");
    if t.quarantined {
        drop(t);
        return fail(conn, format!("tenant {name:?} is quarantined"));
    }
    let Some(monitor) = t.monitor.as_ref() else {
        drop(t);
        return fail(conn, "no session: send Hello first".to_string());
    };
    let n = monitor.process_count();
    if process as usize >= n || clock.len() != n {
        drop(t);
        return fail(
            conn,
            format!(
                "malformed event: process {process}, clock length {}",
                clock.len()
            ),
        );
    }
    let p = process as usize;
    let vc = VectorClock::from(clock.clone());
    let seq = clock[p];
    // An event on a slicer session is a sign of life (and causal
    // progress) for its epoch — stale epochs are fenced by the
    // registry, so a zombie's replay cannot mask its successor.
    if let Some((sp, epoch)) = conn.slicer {
        if sp == process {
            t.slicers.beat(sp, epoch, &clock, Instant::now());
        }
    }
    // Classify first so only genuinely new events hit the log; then
    // append (durable at the group-commit boundary, or immediately
    // under `fsync always`); then apply; then ack at sweep end. See
    // the module docs for why each crash window is safe.
    let status = match t.monitor.as_ref().expect("checked").classify(p, &vc) {
        Observation::Duplicate => {
            t.duplicates += 1;
            AckStatus::Duplicate
        }
        Observation::Stale => {
            t.stale += 1;
            AckStatus::Stale
        }
        Observation::Accepted => {
            let over = shared.config.queue_cap.is_some_and(|cap| {
                let m = t.monitor.as_ref().expect("checked");
                m.witness().is_none() && m.queue_depth_of(p) >= cap
            });
            if over {
                t.rejected += 1;
                AckStatus::Rejected
            } else {
                if let Err(e) = t.wal.append(&WalRecord::Event {
                    process,
                    clock: clock.clone(),
                }) {
                    if t.wal.poisoned().is_some() {
                        // Fsync failure (or a rollback that failed):
                        // durability can no longer be promised and a
                        // retry would trust a lying fsync (fsyncgate).
                        // Quarantine and drop the connection with its
                        // staged output unflushed — every un-synced
                        // ack is withheld; the client re-delivers to
                        // a healthy home after operator action.
                        t.quarantine(format!("wal append failed: {e}"));
                        drop(t);
                        conn.fate = ConnFate::Dead;
                        return;
                    }
                    // Transient storage error (ENOSPC/EIO), frame
                    // rolled back: the log is intact minus this one
                    // event — reject it so the client backs off, and
                    // stay in service.
                    t.storage_errors += 1;
                    t.rejected += 1;
                    drop(t);
                    conn.stage(&Message::Ack {
                        process,
                        seq,
                        status: AckStatus::Rejected,
                    });
                    return;
                }
                t.events_logged += 1;
                t.events_since_snapshot += 1;
                // Panic isolation: a crashing predicate (modeled by
                // the fault-injection hook) quarantines this tenant
                // only — the monitor is not trusted afterwards, but no
                // other tenant shares it, and the catch keeps the
                // tenant mutex unpoisoned.
                let fault = shared.config.fault_injection;
                let applied = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(hook) = fault {
                        hook(&name);
                    }
                    t.monitor
                        .as_mut()
                        .expect("checked")
                        .try_observe(p, vc)
                        .expect("overflow checked before logging")
                }));
                match applied {
                    Ok(observed) => {
                        debug_assert_eq!(observed, Observation::Accepted);
                        t.observed += 1;
                        let depth = t.monitor.as_ref().expect("checked").queue_depth() as u64;
                        t.queue_peak = t.queue_peak.max(depth);
                        if shared
                            .config
                            .snapshot_every
                            .is_some_and(|every| t.events_since_snapshot >= every)
                        {
                            sweep.mark_compact(&name, &tenant_ref);
                        }
                        sweep.mark_dirty(&name, &tenant_ref);
                        AckStatus::Accepted
                    }
                    Err(_) => {
                        t.quarantine(format!(
                            "predicate panicked applying event (process {process}, seq {seq})"
                        ));
                        drop(t);
                        sweep.mark_dirty(&name, &tenant_ref);
                        return fail(conn, format!("tenant {name:?} is quarantined"));
                    }
                }
            }
        }
    };
    drop(t);
    conn.stage(&Message::Ack {
        process,
        seq,
        status,
    });
}
