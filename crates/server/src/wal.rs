//! The write-ahead event log.
//!
//! Every observation the server accepts is framed, checksummed, and
//! appended to a segment file *before* it is applied to the in-memory
//! [`ConjunctiveMonitor`] and acked to the client. Recovery after a
//! crash — `kill -9` at any byte offset — re-reads the segments,
//! truncates the torn tail (a frame whose length header, payload, or
//! CRC-32 did not make it to disk intact), and replays the surviving
//! records into a fresh monitor ([`Recovery::replay`]). Because the
//! monitor's verdict and witness are order-insensitive under per-process
//! FIFO redelivery (see `docs/ALGORITHMS.md` §11), the recovered service
//! is byte-for-byte indistinguishable from one that never crashed once
//! clients re-deliver the unacked suffix.
//!
//! ## On-disk format
//!
//! A log is a directory of segment files `00000000.wal`, `00000001.wal`,
//! … each at most `segment_bytes` long. A segment is a sequence of
//! frames:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc: u32 LE    | payload: len B   |
//! +----------------+----------------+------------------+
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload. The payload's first byte
//! is the record kind, and its fields use the layout the `codec`
//! module shares with the wire protocol (`docs/ALGORITHMS.md` §11
//! lists it): `1` = `Init` (flags: the initially-true variables), `2` =
//! `Event` (`u32` process, then a clock), `3` = `Snapshot` (flags for
//! the `n` processes, `n` high-water marks, then per process a list of
//! fixed-width clocks, then an optional witness of `n` fixed-width
//! clocks). A `Snapshot` *resets* replay to the recorded state;
//! [`Wal::compact`] uses it to shrink recovery from O(event history)
//! to O(live monitor state).
//!
//! ## Durability discipline
//!
//! All I/O goes through a [`Vfs`] so the torture tests can run the log
//! on a fault-injecting in-memory disk. Three rules, each torn from a
//! real-world failure class (see `docs/ALGORITHMS.md` §16):
//!
//! 1. **Directory sync.** Creating, deleting, or truncating a segment
//!    is durable only once the *directory* is fsynced; [`Wal::open`],
//!    rotation, and compaction all sync the directory before trusting
//!    the new layout.
//! 2. **Fsync failure poisons.** A failed fsync may have dropped the
//!    dirty pages; retrying and trusting the second `Ok` silently
//!    loses acked data (fsyncgate). The log goes permanently out of
//!    service instead — see [`Wal::poisoned`].
//! 3. **Write errors roll back.** ENOSPC or EIO mid-frame truncates
//!    the partial frame away; the log stays usable and old segments
//!    stay intact, so the host can reject the one event and continue.

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpd::online::{ConjunctiveMonitor, MonitorSnapshot};
use gpd_computation::VectorClock;

use crate::codec::{
    put_clock, put_fixed_clock, put_flags, put_high_water, put_list, put_option, put_u32, Decoder,
};
use crate::crc32::crc32;
use crate::vfs::{RealVfs, Vfs, VfsFile};

/// When appended records reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` before every append returns — an acked event is durable.
    /// The default, and the mode under which the crash-determinism
    /// guarantee holds unconditionally.
    Always,
    /// `fsync` at most once per interval (opportunistically, on the next
    /// append past the deadline) and at shutdown. Faster, but a crash
    /// may lose up to an interval of *acked* events; clients replaying
    /// their unacked suffix cannot fill that gap. Use when the feed can
    /// be replayed from its own durable source.
    Interval(Duration),
    /// Group commit: `append` never syncs; the host calls
    /// [`Wal::sync`] once per batch, after appending every record in
    /// the batch and *before* releasing any of the batch's acks. Many
    /// sessions' log-before-ack writes then share one fsync, and the
    /// acked-is-durable guarantee of [`Always`](Self::Always) still
    /// holds — durability is delayed only until the batch boundary,
    /// never past an ack.
    Group,
}

/// Where and how the log is written.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// The segment directory (created if missing).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// The storage the log runs on — the real filesystem by default,
    /// or a [`FaultVfs`](crate::vfs::FaultVfs) under torture tests.
    pub vfs: Arc<dyn Vfs>,
}

impl WalConfig {
    /// Defaults: 1 MiB segments, [`FsyncPolicy::Always`], the real
    /// filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            vfs: Arc::new(RealVfs),
        }
    }

    /// Runs the log on `vfs` instead of the real filesystem.
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// Sets the segment rotation threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` cannot hold even one frame header.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes >= FRAME_HEADER as u64, "segment size too small");
        self.segment_bytes = bytes;
        self
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }
}

/// One durable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The session header: which processes are monitored and which
    /// variables start true. Always the first record of a log.
    Init {
        /// Per process: whether its variable is true initially.
        initial: Vec<bool>,
    },
    /// One accepted observation: process `process` entered a true state
    /// stamped `clock`.
    Event {
        /// The reporting process.
        process: u32,
        /// The state's vector clock.
        clock: Vec<u32>,
    },
    /// A monitor snapshot: the complete live state of the monitor at
    /// the moment it was taken. Replay semantics: a `Snapshot` record
    /// **resets** the monitor to exactly this state, discarding
    /// whatever earlier records rebuilt — so a compacted log (one
    /// snapshot followed by the events since) and a full-history log
    /// recover byte-identical monitors.
    Snapshot {
        /// Per process: whether its variable is true initially (the
        /// `Init` information, folded in so a compacted log is
        /// self-contained).
        initial: Vec<bool>,
        /// The monitor's state. Every clock has one component per
        /// process.
        snapshot: MonitorSnapshot,
    },
}

const KIND_INIT: u8 = 1;
const KIND_EVENT: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;

/// Frame header bytes (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a payload — far above any real record (a clock over
/// `MAX_TRACE_PROCESSES` fits), so a torn length header cannot make
/// recovery attempt a huge read.
pub const MAX_PAYLOAD: u32 = 1 << 23;

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Init { initial } => {
                out.push(KIND_INIT);
                put_flags(&mut out, initial);
            }
            WalRecord::Event { process, clock } => {
                out.reserve_exact(9 + 4 * clock.len());
                out.push(KIND_EVENT);
                put_u32(&mut out, *process);
                put_clock(&mut out, clock);
            }
            WalRecord::Snapshot { initial, snapshot } => {
                out.push(KIND_SNAPSHOT);
                put_flags(&mut out, initial);
                for &hw in &snapshot.latest {
                    put_high_water(&mut out, hw);
                }
                for queue in &snapshot.queues {
                    put_list(&mut out, queue, |out, clock| {
                        put_fixed_clock(out, clock.as_slice());
                    });
                }
                put_option(&mut out, snapshot.witness.as_deref(), |out, cut| {
                    for clock in cut {
                        put_fixed_clock(out, clock.as_slice());
                    }
                });
            }
        }
        out
    }

    /// Fallible like the CRC check: a malformed payload reads as a
    /// corrupt frame, never a panic on the shard thread.
    fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut d = Decoder::new(payload);
        let record = match d.u8()? {
            KIND_INIT => WalRecord::Init {
                initial: d.flags()?,
            },
            KIND_EVENT => WalRecord::Event {
                process: d.u32()?,
                clock: d.clock()?,
            },
            KIND_SNAPSHOT => {
                let initial = d.flags()?;
                let n = initial.len();
                let clock = |d: &mut Decoder<'_>| d.fixed_clock(n).map(VectorClock::from);
                let snapshot = MonitorSnapshot {
                    latest: d.repeat(n, 8, Decoder::high_water)?,
                    queues: d.repeat(n, 4, |d| d.list(4 * n, clock))?,
                    witness: d.option(|d| d.repeat(n, 4 * n, clock))?,
                };
                WalRecord::Snapshot { initial, snapshot }
            }
            _ => return None,
        };
        d.finish(record)
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The surviving records, in append order, ready to replay.
    pub records: Vec<WalRecord>,
    /// Bytes discarded as a torn tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// Whole segments discarded because they followed the torn one
    /// (only possible when the log was tampered with mid-stream; a
    /// crash tears the final segment only).
    pub dropped_segments: u64,
}

impl Recovery {
    /// Replays the recovered records into the monitor the crashed
    /// server had at its last durable append, with `queue_cap` applied
    /// (see [`ConjunctiveMonitor::with_queue_cap`]), paired with the
    /// tenant's initial truth vector; `None` when no `Init` or
    /// `Snapshot` survived. The log records every accepted observation
    /// in apply order, with snapshots as reset points, so the replay is
    /// deterministic. Records are consumed: each clock buffer moves into
    /// the monitor and is freed when its state is eliminated.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`], naming the record's index, when
    /// an `Event` record's process or clock length does not fit the
    /// monitor: a CRC-valid record the server would have refused.
    pub fn replay(
        self,
        queue_cap: Option<usize>,
    ) -> io::Result<Option<(Vec<bool>, ConjunctiveMonitor)>> {
        let mut state = None;
        for (index, record) in self.records.into_iter().enumerate() {
            match record {
                WalRecord::Init { initial } => {
                    let monitor = with_cap(ConjunctiveMonitor::with_initial(&initial), queue_cap);
                    state = Some((initial, monitor));
                }
                WalRecord::Event { process, clock } => {
                    if let Some((_, monitor)) = state.as_mut() {
                        let n = monitor.process_count();
                        if process as usize >= n || clock.len() != n {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "WAL record {index}: event of process {process} with a \
                                     clock of length {} in a {n}-process log",
                                    clock.len()
                                ),
                            ));
                        }
                        // Logged events were accepted once; replay
                        // cannot overflow a queue that held them.
                        let _ = monitor.try_observe(process as usize, VectorClock::from(clock));
                    }
                }
                WalRecord::Snapshot { initial, snapshot } => {
                    state = Some((
                        initial,
                        with_cap(ConjunctiveMonitor::restore(snapshot), queue_cap),
                    ));
                }
            }
        }
        Ok(state)
    }
}

/// `monitor`, its queues bounded by `queue_cap` when one is given.
pub(crate) fn with_cap(
    monitor: ConjunctiveMonitor,
    queue_cap: Option<usize>,
) -> ConjunctiveMonitor {
    match queue_cap {
        Some(cap) => monitor.with_queue_cap(cap),
        None => monitor,
    }
}

/// What [`Wal::scrub`] found: a read-only CRC re-verification of every
/// live segment, catching bit rot before a recovery would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Segments scanned.
    pub segments: u64,
    /// Intact frames verified.
    pub frames: u64,
    /// Total bytes read.
    pub bytes_scanned: u64,
    /// Segments whose clean prefix fell short of their length —
    /// bit rot (or an unflushed torn tail, impossible on a live log).
    pub corrupt_segments: u64,
    /// Bytes past the first corruption, summed over corrupt segments.
    pub corrupt_bytes: u64,
}

impl ScrubReport {
    /// Whether any segment failed verification.
    pub fn is_clean(&self) -> bool {
        self.corrupt_segments == 0
    }
}

/// An append-only, CRC-framed, rotating write-ahead log with
/// snapshot-based compaction.
///
/// ## Fsync failure is fatal (fsyncgate)
///
/// A failed `fsync` means the kernel may already have dropped the
/// dirty pages while marking them clean — a retry that then "succeeds"
/// has synced nothing. The log therefore never retries: any sync
/// failure (data or directory) permanently **poisons** the `Wal`; all
/// further mutating calls fail with [`poisoned`](Self::poisoned) set,
/// and the host must withhold every un-flushed ack and quarantine the
/// tenant. Plain write errors (ENOSPC, EIO) are *not* poisonous: the
/// partial frame is rolled back and the log stays usable.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    file: Box<dyn VfsFile>,
    seg_index: u64,
    seg_len: u64,
    /// Live (on-disk) segment files, by index. Compaction shrinks this.
    live: Vec<u64>,
    last_sync: Instant,
    dirty: bool,
    /// Bytes across all live segments (recovered + appended).
    total_bytes: u64,
    /// Set forever by the first failed fsync; see the type docs.
    poisoned: Option<String>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{index:08}.wal"))
}

impl Wal {
    /// Opens (or creates) the log at `config.dir`, recovering whatever
    /// survives on disk: scans the segments in order, stops at the first
    /// torn or corrupt frame, truncates the file there, and removes any
    /// later segments.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or segments
    /// cannot be created/read/truncated.
    pub fn open(config: WalConfig) -> std::io::Result<(Wal, Recovery)> {
        let vfs = Arc::clone(&config.vfs);
        vfs.create_dir_all(&config.dir)?;
        let mut indices: Vec<u64> = vfs
            .list(&config.dir)?
            .into_iter()
            .filter_map(|name| name.strip_suffix(".wal")?.parse().ok())
            .collect();
        indices.sort_unstable();

        let mut recovery = Recovery::default();
        let mut live: Vec<u64> = Vec::new();
        let mut total_bytes = 0u64;
        let mut tail: Option<(u64, u64)> = None; // (segment index, clean length)
        for (pos, &index) in indices.iter().enumerate() {
            let path = segment_path(&config.dir, index);
            let bytes = vfs.read(&path)?;
            let clean = scan_segment(&bytes, &mut recovery.records);
            live.push(index);
            total_bytes += clean;
            tail = Some((index, clean));
            if clean < bytes.len() as u64 {
                // Torn tail: truncate this segment and drop the rest.
                recovery.truncated_bytes += bytes.len() as u64 - clean;
                vfs.set_len(&path, clean)?;
                for &later in &indices[pos + 1..] {
                    let later_path = segment_path(&config.dir, later);
                    recovery.truncated_bytes += vfs.file_len(&later_path)?;
                    recovery.dropped_segments += 1;
                    vfs.remove(&later_path)?;
                }
                break;
            }
        }

        let (seg_index, seg_len) = tail.unwrap_or((0, 0));
        if live.is_empty() {
            live.push(seg_index);
        }
        // Append mode: writes land at the current end — the recovered
        // clean prefix (the torn tail was already cut by `set_len`).
        let file = vfs.open_append(&segment_path(&config.dir, seg_index), false)?;
        // Make the directory state durable before the first append:
        // segment 0's creation and the recovery-time removals above
        // must survive power loss from here on.
        vfs.sync_dir(&config.dir)?;
        Ok((
            Wal {
                config,
                file,
                seg_index,
                seg_len,
                live,
                last_sync: Instant::now(),
                dirty: false,
                total_bytes,
                poisoned: None,
            },
            recovery,
        ))
    }

    /// The reason this log is permanently out of service (a failed
    /// fsync — see the type docs), or `None` while healthy.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn poison(&mut self, reason: String) -> std::io::Error {
        let err = std::io::Error::other(format!("wal poisoned: {reason}"));
        if self.poisoned.is_none() {
            self.poisoned = Some(reason);
        }
        err
    }

    fn guard(&self) -> std::io::Result<()> {
        match &self.poisoned {
            Some(reason) => Err(std::io::Error::other(format!("wal poisoned: {reason}"))),
            None => Ok(()),
        }
    }

    /// Appends one record. Under [`FsyncPolicy::Always`] the record is
    /// durable when this returns; under `Interval` it is buffered and
    /// synced opportunistically.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the record must then be treated
    /// as not logged (do not ack it). A plain write error (ENOSPC, EIO)
    /// rolls the partial frame back and leaves the log usable — the
    /// caller may reject the event and carry on. A sync failure, or a
    /// write error whose rollback also failed, poisons the log (see the
    /// type docs); check [`poisoned`](Self::poisoned) to tell them
    /// apart.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.guard()?;
        let bytes = frame(record);
        if bytes.len() - FRAME_HEADER > MAX_PAYLOAD as usize {
            // A frame recovery would refuse to read must never be
            // written (only reachable via an absurdly large snapshot).
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "wal record exceeds MAX_PAYLOAD",
            ));
        }
        let frame_len = bytes.len() as u64;
        if self.seg_len > 0 && self.seg_len + frame_len > self.config.segment_bytes {
            self.rotate()?;
        }
        self.write_frame(&bytes)?;
        self.seg_len += frame_len;
        self.total_bytes += frame_len;
        self.dirty = true;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(every) => {
                if self.last_sync.elapsed() >= every {
                    self.sync()?;
                }
            }
            // The host owns the batch boundary.
            FsyncPolicy::Group => {}
        }
        Ok(())
    }

    /// Writes one whole frame, rolling a partial write back to the
    /// pre-append length so a failed append (ENOSPC mid-frame) leaves
    /// no torn garbage for the *next* append to bury mid-segment.
    fn write_frame(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut written = 0usize;
        while written < bytes.len() {
            match self.file.write(&bytes[written..]) {
                Ok(0) => {
                    return Err(self.rollback_partial(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "wal write returned zero",
                    )));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.rollback_partial(e)),
            }
        }
        Ok(())
    }

    fn rollback_partial(&mut self, cause: std::io::Error) -> std::io::Error {
        let path = segment_path(&self.config.dir, self.seg_index);
        let vfs = Arc::clone(&self.config.vfs);
        if let Err(rollback) = vfs.set_len(&path, self.seg_len) {
            // Can't even restore the segment to its pre-append length:
            // the on-disk tail is unknown, so the log is out of service.
            return self.poison(format!(
                "append failed ({cause}) and rollback failed ({rollback})"
            ));
        }
        cause
    }

    /// Flushes buffered appends to disk (no-op when clean).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error — and **poisons** the log (a
    /// failed fsync can never be retried; see the type docs).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.guard()?;
        if self.dirty {
            if let Err(e) = self.file.sync_data() {
                return Err(self.poison(format!("fsync failed: {e}")));
            }
            self.dirty = false;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        let next = self.seg_index + 1;
        let vfs = Arc::clone(&self.config.vfs);
        // Create first, commit state after: a failed create (ENOSPC)
        // leaves the current segment writable and the next append
        // simply retries the rotation.
        let file = vfs.open_append(&segment_path(&self.config.dir, next), true)?;
        // The new segment's directory entry must be durable before
        // anything written to it is trusted: a file fsync does not
        // persist the entry, and a segment lost to power loss would
        // silently drop its acked events.
        if let Err(e) = vfs.sync_dir(&self.config.dir) {
            return Err(self.poison(format!("directory fsync failed at rotate: {e}")));
        }
        self.file = file;
        self.seg_index = next;
        self.live.push(next);
        self.seg_len = 0;
        Ok(())
    }

    /// Compacts the log down to (almost) O(live state): rotates to a
    /// fresh segment, writes `snapshot` as its first record, fsyncs it
    /// durable — and only then deletes every older segment. Recovery of
    /// the compacted log replays the snapshot plus whatever events were
    /// appended after it, never the full event history.
    ///
    /// Crash-safe at any byte: until the deletions happen the old
    /// segments are still on disk, so a torn or missing snapshot frame
    /// degrades to the ordinary full-history replay (the scanner cuts
    /// the torn frame and, per the mid-stream rule, drops nothing
    /// before it).
    ///
    /// Returns the number of segments deleted.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error. ENOSPC (or any write error)
    /// while the snapshot is being written rolls the fresh segment
    /// back and keeps **every old segment intact** — the log stays
    /// usable on its full history and a retry simply compacts again.
    /// Only a failed fsync poisons the log.
    pub fn compact(&mut self, snapshot: &WalRecord) -> std::io::Result<u64> {
        self.guard()?;
        self.rotate()?;
        self.append(snapshot)?;
        self.sync()?; // durable before anything is deleted
        let old: Vec<u64> = self
            .live
            .iter()
            .copied()
            .filter(|&index| index != self.seg_index)
            .collect();
        let vfs = Arc::clone(&self.config.vfs);
        let mut removed = 0u64;
        for index in old {
            // Book-keep per deletion so an error mid-loop (EIO) leaves
            // `live` matching the disk; recovery of the partially
            // deleted set still works — the snapshot segment sorts
            // last and resets replay regardless of which older
            // segments survive.
            let path = segment_path(&self.config.dir, index);
            let len = vfs.file_len(&path)?;
            vfs.remove(&path)?;
            self.live.retain(|&i| i != index);
            self.total_bytes = self.total_bytes.saturating_sub(len);
            removed += 1;
        }
        // Make the deletions durable. (Not load-bearing for
        // correctness — resurrected old segments replay before the
        // snapshot that resets them — but an fsync failure is still
        // disqualifying.)
        if let Err(e) = vfs.sync_dir(&self.config.dir) {
            return Err(self.poison(format!("directory fsync failed at compact: {e}")));
        }
        Ok(removed)
    }

    /// Re-verifies every live segment's CRCs without touching replay
    /// state — the background scrub that catches bit rot while the
    /// snapshot needed to heal it still exists. Read-only: healing is
    /// the host's move (compact from the live monitor, which rewrites
    /// the log and deletes the corrupt segments; see
    /// `Tenant::scrub_pass`).
    ///
    /// # Errors
    ///
    /// Returns the underlying read error, or the poisoning error if
    /// the log is out of service.
    pub fn scrub(&self) -> std::io::Result<ScrubReport> {
        self.guard()?;
        let vfs = Arc::clone(&self.config.vfs);
        let mut report = ScrubReport::default();
        for &index in &self.live {
            let bytes = vfs.read(&segment_path(&self.config.dir, index))?;
            let mut records = Vec::new();
            let clean = scan_segment(&bytes, &mut records);
            report.segments += 1;
            report.frames += records.len() as u64;
            report.bytes_scanned += bytes.len() as u64;
            if clean < bytes.len() as u64 {
                report.corrupt_segments += 1;
                report.corrupt_bytes += bytes.len() as u64 - clean;
            }
        }
        Ok(report)
    }

    /// The number of live segment files on disk (compaction shrinks
    /// this back down; rotation grows it).
    pub fn segment_count(&self) -> u64 {
        self.live.len() as u64
    }

    /// Total bytes across all live segments — recovered plus appended,
    /// minus what compaction deleted. The per-tenant disk-footprint
    /// gauge the stats report.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Whether buffered appends are awaiting a [`sync`](Self::sync) —
    /// under [`FsyncPolicy::Group`], the host checks this at its batch
    /// boundary.
    pub fn needs_sync(&self) -> bool {
        self.dirty
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }
}

/// Scans one segment's bytes, pushing intact records and returning the
/// clean prefix length: the offset of the first torn/corrupt frame (or
/// the full length).
fn scan_segment(bytes: &[u8], records: &mut Vec<WalRecord>) -> u64 {
    let mut offset = 0usize;
    while let Some((record, len)) = next_frame(&bytes[offset..]) {
        records.push(record);
        offset += len;
    }
    offset as u64
}

/// The record in the frame at the front of `bytes` and the frame's
/// length; `None` at the end, or where the length header is torn or
/// nonsense, the payload is short, the CRC fails (bit rot or a torn
/// payload) or an intact payload does not decode.
fn next_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let mut d = Decoder::new(bytes);
    let len = d.u32()?;
    let crc = d.u32()?;
    if len == 0 || len > MAX_PAYLOAD {
        return None;
    }
    let payload = d.bytes(len as usize)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((WalRecord::decode(payload)?, FRAME_HEADER + payload.len()))
}

/// The exact bytes [`Wal::append`] writes for `record` — length
/// prefix, CRC, payload. Exposed so corpus tests and tools can build
/// or verify log images without a `Wal`.
pub fn frame(record: &WalRecord) -> Vec<u8> {
    let payload = record.encode();
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Reads the raw concatenated bytes of all segments in order — what a
/// crash-at-offset test truncates.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn concatenated_bytes(dir: &Path) -> std::io::Result<Vec<u8>> {
    let mut indices: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            let name = name.to_str()?;
            name.strip_suffix(".wal")?.parse().ok()
        })
        .collect();
    indices.sort_unstable();
    let mut out = Vec::new();
    for index in indices {
        let mut f = File::open(segment_path(dir, index))?;
        f.read_to_end(&mut out)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs::OpenOptions;

    /// Rewrites `dir` to hold exactly the first `keep` bytes of the
    /// concatenated log, keeping the segment boundaries it had: the
    /// moral equivalent of `kill -9` after the `keep`-th byte reached
    /// disk.
    fn truncate_at(dir: &Path, keep: u64) -> io::Result<()> {
        let mut remaining = keep;
        let mut indices: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                name.strip_suffix(".wal")?.parse().ok()
            })
            .collect();
        indices.sort_unstable();
        for index in indices {
            let path = segment_path(dir, index);
            let len = fs::metadata(&path)?.len();
            if remaining >= len {
                remaining -= len;
                continue;
            }
            if remaining == 0 {
                fs::remove_file(&path)?;
            } else {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(remaining)?;
                remaining = 0;
            }
        }
        Ok(())
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gpd-wal-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn event(p: u32, clock: &[u32]) -> WalRecord {
        WalRecord::Event {
            process: p,
            clock: clock.to_vec(),
        }
    }

    #[test]
    fn roundtrip_and_clean_recovery() {
        let dir = tmp_dir("roundtrip");
        let records = vec![
            WalRecord::Init {
                initial: vec![true, false],
            },
            event(0, &[1, 0]),
            event(1, &[0, 3]),
        ];
        {
            let (mut wal, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert!(rec.records.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.records, records);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_survive_reopen_and_continue() {
        let dir = tmp_dir("continue");
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
            wal.append(&event(0, &[1])).unwrap();
        }
        {
            let (mut wal, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
            assert_eq!(rec.records.len(), 1);
            wal.append(&event(0, &[2])).unwrap();
        }
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.records, vec![event(0, &[1]), event(0, &[2])]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp_dir("rotate");
        let config = WalConfig::new(&dir).with_segment_bytes(64);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for k in 1..=20u32 {
            wal.append(&event(0, &[k, k, k, k])).unwrap();
        }
        assert!(wal.segment_count() > 1, "64-byte segments must rotate");
        drop(wal);
        let (_, rec) = Wal::open(config).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert_eq!(
            rec.records[19],
            event(0, &[20, 20, 20, 20]),
            "order preserved across segments"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_offset_recovers_a_prefix() {
        let dir = tmp_dir("alloffsets");
        let config = WalConfig::new(&dir).with_segment_bytes(96);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        let records: Vec<WalRecord> = (1..=12u32).map(|k| event(k % 3, &[k, k, k])).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        // The writer's own segments, so each tear falls where a crash
        // would leave it, in any segment.
        let segments: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        assert!(segments.len() > 2, "96-byte segments must rotate");
        let full = concatenated_bytes(&dir).unwrap();
        for keep in 0..=full.len() as u64 {
            // Restore the pristine log, then tear it at `keep`.
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            for (path, bytes) in &segments {
                fs::write(path, bytes).unwrap();
            }
            truncate_at(&dir, keep).unwrap();
            let (_, rec) = Wal::open(config.clone()).unwrap();
            // The recovered records are a prefix of the originals.
            assert!(rec.records.len() <= records.len());
            assert_eq!(rec.records[..], records[..rec.records.len()], "keep={keep}");
            // And nothing durable before the tear is lost: every frame
            // fully inside the kept prefix survives.
            let mut durable = 0usize;
            let mut off = 0u64;
            for r in &records {
                off += (FRAME_HEADER + r.encode().len()) as u64;
                if off <= keep {
                    durable += 1;
                }
            }
            assert_eq!(rec.records.len(), durable, "keep={keep}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_crc_is_cut_at_the_corruption_point() {
        let dir = tmp_dir("badcrc");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append(&event(0, &[1])).unwrap();
        wal.append(&event(0, &[2])).unwrap();
        drop(wal);
        // Flip one payload bit of the second frame.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let first_frame = FRAME_HEADER + event(0, &[1]).encode().len();
        let len = bytes.len();
        bytes[len - 1] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(rec.records, vec![event(0, &[1])]);
        assert_eq!(
            rec.truncated_bytes,
            (bytes.len() - first_frame) as u64,
            "everything from the corrupt frame on is discarded"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_drops_later_segments() {
        let dir = tmp_dir("midlog");
        let config = WalConfig::new(&dir).with_segment_bytes(64);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for k in 1..=9u32 {
            wal.append(&event(0, &[k, k])).unwrap();
        }
        assert!(wal.segment_count() >= 3);
        drop(wal);
        // Corrupt the first byte of segment 0's second frame.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let frame = FRAME_HEADER + event(0, &[1, 1]).encode().len();
        bytes[frame + FRAME_HEADER] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (wal, rec) = Wal::open(config).unwrap();
        assert_eq!(rec.records, vec![event(0, &[1, 1])]);
        assert!(rec.dropped_segments >= 2, "{rec:?}");
        assert_eq!(wal.segment_count(), 1, "appends continue in segment 0");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_fsync_defers_but_shutdown_syncs() {
        let dir = tmp_dir("interval");
        let config =
            WalConfig::new(&dir).with_fsync(FsyncPolicy::Interval(Duration::from_secs(3600)));
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        wal.append(&event(0, &[1])).unwrap();
        // Nothing forced a sync yet; an explicit one must succeed and
        // make the record recoverable.
        wal.sync().unwrap();
        drop(wal);
        let (_, rec) = Wal::open(config).unwrap();
        assert_eq!(rec.records.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_snapshot() -> WalRecord {
        snapshot_record(
            vec![true, false],
            vec![Some(4), None],
            vec![vec![vec![3, 0], vec![4, 1]], vec![]],
            None,
        )
    }

    /// A `Snapshot` record built from plain clocks.
    fn snapshot_record(
        initial: Vec<bool>,
        latest: Vec<Option<u32>>,
        queues: Vec<Vec<Vec<u32>>>,
        witness: Option<Vec<Vec<u32>>>,
    ) -> WalRecord {
        let clocks = |clocks: Vec<Vec<u32>>| clocks.into_iter().map(VectorClock::from).collect();
        WalRecord::Snapshot {
            initial,
            snapshot: MonitorSnapshot {
                latest,
                queues: queues.into_iter().map(clocks).collect(),
                witness: witness.map(clocks),
            },
        }
    }

    /// Every record kind as `frame` writes it, in hex: the on-disk
    /// format, byte for byte.
    #[test]
    fn wal_frames_are_pinned() {
        let golden = [
            (
                WalRecord::Init {
                    initial: vec![true, false, true],
                },
                "08000000cb9fa5ee0103000000010001",
            ),
            (event(2, &[0, 7, 3]), "150000007fa0b65e020200000003000000000000000700000003000000"),
            (
                snapshot_record(vec![false, true], vec![None, None], vec![vec![], vec![]], None),
                "20000000272ac72a0302000000000100000000000000000000000000000000000000000000000000",
            ),
            (
                snapshot_record(
                    vec![true, false],
                    vec![Some(u32::MAX), Some(0)],
                    vec![vec![vec![3, 0], vec![4, 1]], vec![]],
                    Some(vec![vec![4, 1], vec![2, 1]]),
                ),
                "40000000dc1d789703020000000100000000000100000001000000000000000200000003000000000000000400000001000000000000000104000000010000000200000001000000",
            ),
        ];
        for (record, hex) in golden {
            let bytes = frame(&record);
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{record:?}");
            let mut records = Vec::new();
            assert_eq!(scan_segment(&bytes, &mut records), bytes.len() as u64);
            assert_eq!(records, vec![record]);
        }
    }

    #[test]
    fn snapshot_record_roundtrips() {
        for snap in [
            sample_snapshot(),
            snapshot_record(vec![], vec![], vec![], Some(vec![])),
            snapshot_record(
                vec![true, true],
                vec![Some(0), Some(2)],
                vec![vec![], vec![]],
                Some(vec![vec![0, 0], vec![0, 2]]),
            ),
        ] {
            assert_eq!(WalRecord::decode(&snap.encode()), Some(snap));
        }
    }

    #[test]
    fn snapshot_decode_rejects_trailing_or_short_payloads() {
        let good = sample_snapshot().encode();
        let mut long = good.clone();
        long.push(0);
        assert_eq!(WalRecord::decode(&long), None, "trailing byte");
        for cut in 1..good.len() {
            assert_eq!(WalRecord::decode(&good[..cut]), None, "cut={cut}");
        }
    }

    /// A record of any kind with random fields: snapshots over 0–3
    /// processes, with edge values in every clock and high-water mark.
    fn random_record(rng: &mut StdRng) -> WalRecord {
        let n = rng.gen_range(0..4usize);
        let word = |rng: &mut StdRng| [0, 1, 7, u32::MAX][rng.gen_range(0..4usize)];
        let clock = |rng: &mut StdRng| (0..n).map(|_| word(rng)).collect::<Vec<u32>>();
        let initial = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        match rng.gen_range(0..3u32) {
            0 => WalRecord::Init { initial },
            1 => event(word(rng), &clock(rng)),
            _ => snapshot_record(
                initial,
                (0..n)
                    .map(|_| rng.gen_bool(0.6).then(|| word(rng)))
                    .collect(),
                (0..n)
                    .map(|_| (0..rng.gen_range(0..3usize)).map(|_| clock(rng)).collect())
                    .collect(),
                rng.gen_bool(0.5)
                    .then(|| (0..n).map(|_| clock(rng)).collect()),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A random record decodes to itself; every strict prefix of
        /// its payload, and the payload plus one trailing byte, decode
        /// to nothing.
        #[test]
        fn random_records_roundtrip_and_nothing_else_decodes(seed in any::<u64>(), extra in any::<u8>()) {
            let record = random_record(&mut StdRng::seed_from_u64(seed));
            let payload = record.encode();
            prop_assert_eq!(WalRecord::decode(&payload), Some(record.clone()));
            for cut in 0..payload.len() {
                prop_assert_eq!(WalRecord::decode(&payload[..cut]), None, "{:?} cut at {}", record, cut);
            }
            let long = [&payload[..], &[extra]].concat();
            prop_assert_eq!(WalRecord::decode(&long), None, "{:?} plus {}", record, extra);
        }

        /// Arbitrary bytes, alone or behind every record kind, never
        /// panic the decoder or the segment scanner.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..257),
        ) {
            for kind in 0..=4u8 {
                let _ = WalRecord::decode(&[&[kind][..], &bytes].concat());
            }
            let mut records = Vec::new();
            prop_assert!(scan_segment(&bytes, &mut records) <= bytes.len() as u64);
        }
    }

    #[test]
    fn compaction_shrinks_recovery_to_live_state() {
        let dir = tmp_dir("compact");
        let config = WalConfig::new(&dir).with_segment_bytes(64);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for k in 1..=20u32 {
            wal.append(&event(0, &[k, k])).unwrap();
        }
        assert!(wal.segment_count() > 1);
        let bytes_before = wal.bytes();
        let removed = wal.compact(&sample_snapshot()).unwrap();
        assert!(removed > 1, "old segments deleted");
        assert_eq!(wal.segment_count(), 1, "only the snapshot segment lives");
        assert!(wal.bytes() < bytes_before);
        // Post-compaction appends land after the snapshot.
        wal.append(&event(0, &[21, 21])).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(config).unwrap();
        assert_eq!(
            rec.records,
            vec![sample_snapshot(), event(0, &[21, 21])],
            "replay is snapshot + suffix, not 20 events"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_offset_across_a_compaction_recovers() {
        // Build a log whose history crosses a compaction boundary, then
        // verify the scanner yields a meaningful prefix at every tear
        // point of the *surviving* bytes.
        let dir = tmp_dir("compact-tear");
        let config = WalConfig::new(&dir).with_segment_bytes(128);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        for k in 1..=6u32 {
            wal.append(&event(0, &[k, k])).unwrap();
        }
        wal.compact(&sample_snapshot()).unwrap();
        wal.append(&event(0, &[5, 5])).unwrap();
        wal.append(&event(0, &[6, 6])).unwrap();
        drop(wal);
        let backup = concatenated_bytes(&dir).unwrap();
        let first_index = 1; // segment 0 was compacted away
        let expect = [sample_snapshot(), event(0, &[5, 5]), event(0, &[6, 6])];
        for keep in 0..=backup.len() as u64 {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::write(segment_path(&dir, first_index), &backup).unwrap();
            truncate_at(&dir, keep).unwrap();
            let (_, rec) = Wal::open(config.clone()).unwrap();
            assert!(rec.records.len() <= expect.len());
            assert_eq!(rec.records[..], expect[..rec.records.len()], "keep={keep}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_policy_defers_sync_to_the_host() {
        let dir = tmp_dir("group");
        let config = WalConfig::new(&dir).with_fsync(FsyncPolicy::Group);
        let (mut wal, _) = Wal::open(config.clone()).unwrap();
        assert!(!wal.needs_sync());
        wal.append(&event(0, &[1])).unwrap();
        wal.append(&event(0, &[2])).unwrap();
        assert!(wal.needs_sync(), "appends stay buffered");
        wal.sync().unwrap();
        assert!(!wal.needs_sync());
        drop(wal);
        let (_, rec) = Wal::open(config).unwrap();
        assert_eq!(rec.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_tracks_live_footprint() {
        let dir = tmp_dir("bytes");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.bytes(), 0);
        wal.append(&event(0, &[1])).unwrap();
        let one = wal.bytes();
        assert!(one > 0);
        drop(wal);
        let (wal, _) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.bytes(), one, "recovered bytes counted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_record_kind_reads_as_torn() {
        let dir = tmp_dir("unknownkind");
        fs::create_dir_all(&dir).unwrap();
        let payload = [99u8, 1, 2, 3];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        fs::write(segment_path(&dir, 0), &frame).unwrap();
        let (_, rec) = Wal::open(WalConfig::new(&dir)).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, frame.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }
}
