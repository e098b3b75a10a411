//! The length-prefixed TCP wire protocol between `gpd feed` clients,
//! the chaos proxy, and `gpd serve`.
//!
//! Every message travels as one frame:
//!
//! ```text
//! +-------------+--------------+
//! | len: u32 LE | body: len B  |
//! +-------------+--------------+
//! ```
//!
//! The body's first byte is the message tag; the fields after it use
//! the layout the `codec` module shares with the WAL (little-endian
//! integers, length-prefixed clocks and strings, `0 = none, k+1 = k`
//! high-water marks). The protocol is deliberately std-only — no
//! serialization crate — so the server adds nothing to the dependency
//! closure.
//!
//! ## Delivery contract
//!
//! A client's events for process `p` carry strictly increasing local
//! components `clock[p]`; that component doubles as the per-process
//! sequence number. The server acks every event with its `(process,
//! seq)` and a status. Under `--fsync always` an [`AckStatus::Accepted`]
//! ack means the event is durable on disk. After a reconnect the
//! [`Message::HelloAck`] carries per-process high-water marks so the
//! client resumes exactly past what the server already has —
//! at-least-once delivery with server-side dedup.
//!
//! ## Retired tags
//!
//! Tags 7 and 8 carried an aggregate stats query and reply. Every one
//! of its counters was a sum over the per-tenant rows, so the
//! aggregate is now computed from [`Message::TenantStats`] by
//! [`ServerStats::sum`]. A frame with either tag no longer decodes, and
//! neither number is reused.

use std::io::{Read, Write};

use crate::codec::{
    get_u32, put_bool, put_clock, put_flags, put_high_water, put_list, put_option, put_string,
    put_u32, put_u64, put_witness, Decoder,
};

/// Largest accepted frame body. A clock over the trace-format process
/// cap fits comfortably; anything larger is a framing error.
pub const MAX_FRAME: u32 = 1 << 20;

/// How the server classified one delivered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// New, logged durably (under `fsync always`), and applied.
    Accepted = 0,
    /// Same local component as one already applied — redelivery.
    Duplicate = 1,
    /// Older than the process's high-water mark — late redelivery.
    Stale = 2,
    /// Monitor queue full (backpressure): not logged, not applied.
    /// The client should back off and retransmit.
    Rejected = 3,
}

impl AckStatus {
    fn from_u8(byte: u8) -> Option<AckStatus> {
        match byte {
            0 => Some(AckStatus::Accepted),
            1 => Some(AckStatus::Duplicate),
            2 => Some(AckStatus::Stale),
            3 => Some(AckStatus::Rejected),
            _ => None,
        }
    }
}

/// Server-wide counters: the sum of the per-tenant rows that travel in
/// [`Message::TenantStats`] (see [`ServerStats::sum`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Events accepted and applied to the monitor.
    pub observed: u64,
    /// Redeliveries screened out as duplicates.
    pub duplicates: u64,
    /// Redeliveries screened out as stale.
    pub stale: u64,
    /// Events rejected for backpressure (monitor queue full).
    pub rejected: u64,
    /// Records appended to the WAL (including the `Init` header).
    pub events_logged: u64,
    /// `Hello` messages on an already-initialized session — i.e.
    /// reconnects that resumed.
    pub resumes: u64,
    /// Current total queued states across all processes.
    pub queue_depth: u64,
    /// Live WAL segment files.
    pub wal_segments: u64,
    /// Tenants with live state on this server.
    pub tenants: u64,
    /// Live WAL bytes on disk across all tenants.
    pub wal_bytes: u64,
    /// Snapshot+compaction cycles performed.
    pub snapshots: u64,
}

impl ServerStats {
    /// Adds up `rows` field by field; `tenants` counts the rows.
    pub fn sum(rows: &[TenantStatsRow]) -> ServerStats {
        let mut stats = ServerStats {
            tenants: rows.len() as u64,
            ..ServerStats::default()
        };
        for row in rows {
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
        }
        stats
    }
}

/// One tenant's counter row in a [`Message::TenantStats`] reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStatsRow {
    /// The tenant id (as given in `Hello`).
    pub tenant: String,
    /// Events accepted and applied to this tenant's monitor.
    pub observed: u64,
    /// Redeliveries screened out as duplicates.
    pub duplicates: u64,
    /// Redeliveries screened out as stale.
    pub stale: u64,
    /// Events rejected for backpressure.
    pub rejected: u64,
    /// Records appended to this tenant's WAL.
    pub events_logged: u64,
    /// Session resumes.
    pub resumes: u64,
    /// Current queued states across this tenant's processes.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` over the tenant's lifetime.
    pub queue_peak: u64,
    /// Live WAL segment files in this tenant's namespace.
    pub wal_segments: u64,
    /// Live WAL bytes in this tenant's namespace.
    pub wal_bytes: u64,
    /// Snapshot+compaction cycles for this tenant.
    pub snapshots: u64,
    /// Whether the tenant is quarantined (its predicate machinery
    /// panicked; sessions are refused until restart).
    pub quarantined: bool,
    /// Whether the tenant's conjunction has been detected.
    pub witness_found: bool,
    /// Why the tenant was quarantined (empty when not quarantined).
    pub quarantine_reason: String,
    /// Registered slicers currently considered live.
    pub slicers_live: u64,
    /// Registered slicers past their heartbeat timeout.
    pub slicers_dead: u64,
    /// Slicers that finished their streams gracefully.
    pub slicers_done: u64,
    /// Whether the tenant's decentralized verdict is degraded to
    /// `Unknown` (no witness yet, and either a slicer is dead or the
    /// tenant is quarantined — e.g. poisoned storage).
    pub degraded: bool,
    /// WAL records replayed when this tenant was recovered at startup.
    pub replayed: u64,
    /// Bytes recovery cut as a torn tail at startup — nonzero means an
    /// unclean shutdown lost un-acked (or, off `fsync always`, acked)
    /// data; operators should check client-side redelivery.
    pub recovered_truncated_bytes: u64,
    /// Whole segments recovery dropped after the torn one at startup.
    pub recovered_dropped_segments: u64,
    /// Appends rejected on transient storage errors (ENOSPC/EIO with a
    /// clean rollback — the tenant stayed in service).
    pub storage_errors: u64,
    /// Completed background scrub passes ([`Wal::scrub`](crate::wal::Wal::scrub)).
    pub scrub_passes: u64,
    /// Corrupt segments the scrubber found over the tenant's lifetime.
    pub scrub_corruptions: u64,
    /// Corrupt segments healed by compacting from the live monitor.
    pub scrub_healed: u64,
}

/// The three-valued verdict of a decentralized (slicer-fed) tenant —
/// the online counterpart of `gpd::budget::Verdict`: either a witness,
/// or "not yet" with every slicer accounted for, or `Unknown` with
/// sound progress bounds when a slicer died mid-stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlicerVerdict {
    /// The witness cut once the conjunction held (sticky; a witness
    /// found before a crash survives the degradation).
    pub witness: Option<Vec<Vec<u32>>>,
    /// True when no witness is known AND some registered, unfinished
    /// slicer missed its heartbeat deadline: the verdict is `Unknown`,
    /// bounded below by `applied`/`explored`.
    pub degraded: bool,
    /// The processes whose slicers are past the heartbeat timeout.
    pub dead: Vec<u32>,
    /// Per process: the monitor's high-water mark — every relevant
    /// state with local component `<= applied[p]` has been applied.
    pub applied: Vec<Option<u32>>,
    /// Per process: the latest causal-progress clock the slicer
    /// reported (via events, summaries, or heartbeats) — the frontier
    /// up to which the computation is known explored even through
    /// false runs.
    pub explored: Vec<Option<Vec<u32>>>,
}

/// Whether `name` is a usable tenant id: 1–64 bytes of
/// `[A-Za-z0-9._-]`, not starting with a dot. Tenant ids become WAL
/// subdirectory names, so path separators and empty/hidden names are
/// refused at the protocol layer.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// The tenant every pre-multi-tenant client lands in.
pub const DEFAULT_TENANT: &str = "default";

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server: open (or resume) a session for `tenant` over
    /// `initial.len()` processes whose variables start true/false as
    /// given. The first `Hello` for a tenant fixes its predicate shape;
    /// later sessions must match it exactly or are refused.
    Hello {
        /// The tenant id (see [`valid_tenant_name`]).
        tenant: String,
        /// Per-process initial truth of the local variable.
        initial: Vec<bool>,
    },
    /// Server → client: session open. `high_water[p]` is the largest
    /// local component already applied for process `p` (`None` when the
    /// server has seen nothing from `p`) — resume strictly after it.
    HelloAck {
        /// Per-process high-water marks.
        high_water: Vec<Option<u32>>,
    },
    /// Client → server: process `process` entered a true state with
    /// vector clock `clock`. Its sequence number is `clock[process]`.
    Event {
        /// The reporting process.
        process: u32,
        /// The state's vector clock.
        clock: Vec<u32>,
    },
    /// Server → client: disposition of the event `(process, seq)`.
    Ack {
        /// The event's process.
        process: u32,
        /// The event's local component.
        seq: u32,
        /// How the server classified it.
        status: AckStatus,
    },
    /// Client → server: report the current verdict for `tenant`. An
    /// empty tenant means "this connection's session tenant", falling
    /// back to [`DEFAULT_TENANT`] on a sessionless connection.
    VerdictQuery {
        /// The tenant whose verdict is wanted ("" = session's).
        tenant: String,
    },
    /// Server → client: `Some(witness)` once the conjunction has held —
    /// one vector clock per process, the componentwise-minimal witness.
    Verdict {
        /// The witness cut, if detected.
        witness: Option<Vec<Vec<u32>>>,
    },
    /// Client → server: drain the WALs, stop accepting connections, and
    /// shut down once in-flight connections finish. The ack carries the
    /// final verdict of `tenant` ("" = session's tenant, falling back
    /// to [`DEFAULT_TENANT`]).
    Shutdown {
        /// The tenant whose final verdict the ack should carry.
        tenant: String,
    },
    /// Server → client: shutdown acknowledged; carries the final
    /// verdict like [`Message::Verdict`].
    ShutdownAck {
        /// The final witness cut, if detected.
        witness: Option<Vec<Vec<u32>>>,
    },
    /// Server → client: the request could not be honored. The
    /// connection closes after this.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Client → server: report per-tenant counters.
    TenantStatsQuery,
    /// Server → client: one counter row per live tenant, sorted by
    /// tenant id.
    TenantStats {
        /// The per-tenant rows.
        rows: Vec<TenantStatsRow>,
    },
    /// Slicer → server: open (or resume) a slicer session for one
    /// process of `tenant`. `epoch` is the slicer's incarnation number
    /// (0 on first boot); the server adopts
    /// `max(epoch, server_epoch + 1)` and replies with the adopted
    /// epoch plus the process's high-water mark, so a restarted slicer
    /// resumes past everything already applied and stale-epoch traffic
    /// can be fenced.
    SlicerHello {
        /// The tenant id (see [`valid_tenant_name`]).
        tenant: String,
        /// The process this slicer runs beside.
        process: u32,
        /// The slicer's proposed incarnation number.
        epoch: u64,
        /// Per-process initial truth (fixes/validates the tenant's
        /// predicate shape, exactly like [`Message::Hello`]).
        initial: Vec<bool>,
    },
    /// Server → slicer: slicer session open.
    SlicerHelloAck {
        /// The epoch the server adopted — strictly greater than any
        /// previously adopted for this process.
        epoch: u64,
        /// The largest local component already applied for this
        /// process (`None` if nothing yet) — resume strictly after it.
        high_water: Option<u32>,
    },
    /// Slicer → server: liveness beat carrying the slicer's causal
    /// progress clock (its latest observed state, relevant or not).
    /// Not acknowledged.
    Heartbeat {
        /// The reporting process.
        process: u32,
        /// The slicer's adopted epoch (stale epochs are ignored).
        epoch: u64,
        /// The latest observed vector clock (empty = none yet).
        progress: Vec<u32>,
    },
    /// Slicer → server: the slicer replayed its whole stream. A done
    /// slicer is exempt from liveness tracking — silence after `Done`
    /// is completion, not a crash.
    SlicerDone {
        /// The reporting process.
        process: u32,
        /// The slicer's adopted epoch.
        epoch: u64,
        /// The final progress clock (empty = none).
        progress: Vec<u32>,
    },
    /// Server → slicer: `SlicerDone` recorded durably in the session.
    SlicerDoneAck,
    /// Client → server: report the three-valued decentralized verdict
    /// for `tenant` ("" = session's tenant).
    SlicerStatusQuery {
        /// The tenant whose slicer verdict is wanted.
        tenant: String,
    },
    /// Server → client: the decentralized verdict.
    SlicerStatus(SlicerVerdict),
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_EVENT: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_VERDICT_QUERY: u8 = 5;
const TAG_VERDICT: u8 = 6;
// 7 and 8 are retired (see the module docs).
const TAG_SHUTDOWN: u8 = 9;
const TAG_SHUTDOWN_ACK: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_TENANT_STATS_QUERY: u8 = 12;
const TAG_TENANT_STATS: u8 = 13;
const TAG_SLICER_HELLO: u8 = 14;
const TAG_SLICER_HELLO_ACK: u8 = 15;
const TAG_HEARTBEAT: u8 = 16;
const TAG_SLICER_DONE: u8 = 17;
const TAG_SLICER_DONE_ACK: u8 = 18;
const TAG_SLICER_STATUS_QUERY: u8 = 19;
const TAG_SLICER_STATUS: u8 = 20;

impl Message {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello { tenant, initial } => {
                out.push(TAG_HELLO);
                put_string(&mut out, tenant);
                put_flags(&mut out, initial);
            }
            Message::HelloAck { high_water } => {
                out.push(TAG_HELLO_ACK);
                put_list(&mut out, high_water, |out, &hw| put_high_water(out, hw));
            }
            Message::Event { process, clock } => {
                out.push(TAG_EVENT);
                put_u32(&mut out, *process);
                put_clock(&mut out, clock);
            }
            Message::Ack {
                process,
                seq,
                status,
            } => {
                out.push(TAG_ACK);
                put_u32(&mut out, *process);
                put_u32(&mut out, *seq);
                out.push(*status as u8);
            }
            Message::VerdictQuery { tenant } => {
                out.push(TAG_VERDICT_QUERY);
                put_string(&mut out, tenant);
            }
            Message::Verdict { witness } => {
                out.push(TAG_VERDICT);
                put_witness(&mut out, witness.as_deref());
            }
            Message::Shutdown { tenant } => {
                out.push(TAG_SHUTDOWN);
                put_string(&mut out, tenant);
            }
            Message::ShutdownAck { witness } => {
                out.push(TAG_SHUTDOWN_ACK);
                put_witness(&mut out, witness.as_deref());
            }
            Message::Error { message } => {
                out.push(TAG_ERROR);
                put_string(&mut out, message);
            }
            Message::TenantStatsQuery => out.push(TAG_TENANT_STATS_QUERY),
            Message::TenantStats { rows } => {
                out.push(TAG_TENANT_STATS);
                put_list(&mut out, rows, |out, row| {
                    put_string(out, &row.tenant);
                    put_u64(out, row.observed);
                    put_u64(out, row.duplicates);
                    put_u64(out, row.stale);
                    put_u64(out, row.rejected);
                    put_u64(out, row.events_logged);
                    put_u64(out, row.resumes);
                    put_u64(out, row.queue_depth);
                    put_u64(out, row.queue_peak);
                    put_u64(out, row.wal_segments);
                    put_u64(out, row.wal_bytes);
                    put_u64(out, row.snapshots);
                    put_bool(out, row.quarantined);
                    put_bool(out, row.witness_found);
                    put_string(out, &row.quarantine_reason);
                    put_u64(out, row.slicers_live);
                    put_u64(out, row.slicers_dead);
                    put_u64(out, row.slicers_done);
                    put_bool(out, row.degraded);
                    put_u64(out, row.replayed);
                    put_u64(out, row.recovered_truncated_bytes);
                    put_u64(out, row.recovered_dropped_segments);
                    put_u64(out, row.storage_errors);
                    put_u64(out, row.scrub_passes);
                    put_u64(out, row.scrub_corruptions);
                    put_u64(out, row.scrub_healed);
                });
            }
            Message::SlicerHello {
                tenant,
                process,
                epoch,
                initial,
            } => {
                out.push(TAG_SLICER_HELLO);
                put_string(&mut out, tenant);
                put_u32(&mut out, *process);
                put_u64(&mut out, *epoch);
                put_flags(&mut out, initial);
            }
            Message::SlicerHelloAck { epoch, high_water } => {
                out.push(TAG_SLICER_HELLO_ACK);
                put_u64(&mut out, *epoch);
                put_high_water(&mut out, *high_water);
            }
            Message::Heartbeat {
                process,
                epoch,
                progress,
            } => {
                out.push(TAG_HEARTBEAT);
                put_u32(&mut out, *process);
                put_u64(&mut out, *epoch);
                put_clock(&mut out, progress);
            }
            Message::SlicerDone {
                process,
                epoch,
                progress,
            } => {
                out.push(TAG_SLICER_DONE);
                put_u32(&mut out, *process);
                put_u64(&mut out, *epoch);
                put_clock(&mut out, progress);
            }
            Message::SlicerDoneAck => out.push(TAG_SLICER_DONE_ACK),
            Message::SlicerStatusQuery { tenant } => {
                out.push(TAG_SLICER_STATUS_QUERY);
                put_string(&mut out, tenant);
            }
            Message::SlicerStatus(v) => {
                out.push(TAG_SLICER_STATUS);
                put_witness(&mut out, v.witness.as_deref());
                put_bool(&mut out, v.degraded);
                put_list(&mut out, &v.dead, |out, &p| put_u32(out, p));
                put_list(&mut out, &v.applied, |out, &hw| put_high_water(out, hw));
                put_list(&mut out, &v.explored, |out, clock| {
                    put_option(out, clock.as_deref(), put_clock);
                });
            }
        }
        out
    }

    fn decode(body: &[u8]) -> Option<Message> {
        let mut d = Decoder::new(body);
        let message = match d.u8()? {
            TAG_HELLO => Message::Hello {
                tenant: d.string()?,
                initial: d.flags()?,
            },
            TAG_HELLO_ACK => Message::HelloAck {
                high_water: d.list(8, Decoder::high_water)?,
            },
            TAG_EVENT => Message::Event {
                process: d.u32()?,
                clock: d.clock()?,
            },
            TAG_ACK => Message::Ack {
                process: d.u32()?,
                seq: d.u32()?,
                status: AckStatus::from_u8(d.u8()?)?,
            },
            TAG_VERDICT_QUERY => Message::VerdictQuery {
                tenant: d.string()?,
            },
            TAG_VERDICT => Message::Verdict {
                witness: d.witness()?,
            },
            TAG_SHUTDOWN => Message::Shutdown {
                tenant: d.string()?,
            },
            TAG_SHUTDOWN_ACK => Message::ShutdownAck {
                witness: d.witness()?,
            },
            TAG_ERROR => Message::Error {
                message: d.string()?,
            },
            TAG_TENANT_STATS_QUERY => Message::TenantStatsQuery,
            // Each row is at least its 21 counters, three flags and two
            // length prefixes.
            TAG_TENANT_STATS => Message::TenantStats {
                rows: d.list(179, |d| {
                    Some(TenantStatsRow {
                        tenant: d.string()?,
                        observed: d.u64()?,
                        duplicates: d.u64()?,
                        stale: d.u64()?,
                        rejected: d.u64()?,
                        events_logged: d.u64()?,
                        resumes: d.u64()?,
                        queue_depth: d.u64()?,
                        queue_peak: d.u64()?,
                        wal_segments: d.u64()?,
                        wal_bytes: d.u64()?,
                        snapshots: d.u64()?,
                        quarantined: d.bool()?,
                        witness_found: d.bool()?,
                        quarantine_reason: d.string()?,
                        slicers_live: d.u64()?,
                        slicers_dead: d.u64()?,
                        slicers_done: d.u64()?,
                        degraded: d.bool()?,
                        replayed: d.u64()?,
                        recovered_truncated_bytes: d.u64()?,
                        recovered_dropped_segments: d.u64()?,
                        storage_errors: d.u64()?,
                        scrub_passes: d.u64()?,
                        scrub_corruptions: d.u64()?,
                        scrub_healed: d.u64()?,
                    })
                })?,
            },
            TAG_SLICER_HELLO => Message::SlicerHello {
                tenant: d.string()?,
                process: d.u32()?,
                epoch: d.u64()?,
                initial: d.flags()?,
            },
            TAG_SLICER_HELLO_ACK => Message::SlicerHelloAck {
                epoch: d.u64()?,
                high_water: d.high_water()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat {
                process: d.u32()?,
                epoch: d.u64()?,
                progress: d.clock()?,
            },
            TAG_SLICER_DONE => Message::SlicerDone {
                process: d.u32()?,
                epoch: d.u64()?,
                progress: d.clock()?,
            },
            TAG_SLICER_DONE_ACK => Message::SlicerDoneAck,
            TAG_SLICER_STATUS_QUERY => Message::SlicerStatusQuery {
                tenant: d.string()?,
            },
            TAG_SLICER_STATUS => Message::SlicerStatus(SlicerVerdict {
                witness: d.witness()?,
                degraded: d.bool()?,
                dead: d.list(4, Decoder::u32)?,
                applied: d.list(8, Decoder::high_water)?,
                explored: d.list(1, |d| d.option(Decoder::clock))?,
            }),
            _ => return None,
        };
        d.finish(message)
    }
}

/// The body length a frame's prefix announces: refused when zero or
/// over [`MAX_FRAME`].
fn body_len(len: u32) -> std::io::Result<usize> {
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    Ok(len as usize)
}

fn decode_body(body: &[u8]) -> std::io::Result<Message> {
    Message::decode(body)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "undecodable message"))
}

/// Reads one raw frame body (without the length prefix).
///
/// # Errors
///
/// `UnexpectedEof` on a closed peer, `InvalidData` on an oversized or
/// zero-length frame, or any underlying I/O error (including timeouts).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let mut body = vec![0u8; body_len(get_u32(prefix))?];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Writes one raw frame body with its length prefix.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME as usize);
    let mut frame = Vec::with_capacity(4 + body.len());
    put_u32(&mut frame, body.len() as u32);
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Writes one message as a frame.
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_message(w: &mut impl Write, message: &Message) -> std::io::Result<()> {
    write_frame(w, &message.encode())
}

/// Reads one message.
///
/// # Errors
///
/// As [`read_frame`], plus `InvalidData` when the body does not decode.
pub fn read_message(r: &mut impl Read) -> std::io::Result<Message> {
    decode_body(&read_frame(r)?)
}

/// Tries to split one complete message off the front of `buf` without
/// blocking: `Ok(None)` when more bytes are needed, otherwise the
/// decoded message and the total bytes consumed (length prefix +
/// body). The event-driven server calls this on a connection's receive
/// buffer after every nonblocking read.
///
/// # Errors
///
/// `InvalidData` on a zero/oversized frame length or an undecodable
/// body — the connection should be dropped.
pub fn parse_message(buf: &[u8]) -> std::io::Result<Option<(Message, usize)>> {
    let mut d = Decoder::new(buf);
    let Some(len) = d.u32() else {
        return Ok(None);
    };
    let len = body_len(len)?;
    match d.bytes(len) {
        Some(body) => Ok(Some((decode_body(body)?, 4 + len))),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn roundtrip(message: Message) {
        let mut buf = Vec::new();
        write_message(&mut buf, &message).unwrap();
        let decoded = read_message(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, message);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Message::Hello {
            tenant: "default".into(),
            initial: vec![true, false, true],
        });
        roundtrip(Message::Hello {
            tenant: "team-7.prod".into(),
            initial: vec![],
        });
        roundtrip(Message::HelloAck {
            high_water: vec![None, Some(0), Some(41)],
        });
        roundtrip(Message::Event {
            process: 2,
            clock: vec![0, 7, 3],
        });
        for status in [
            AckStatus::Accepted,
            AckStatus::Duplicate,
            AckStatus::Stale,
            AckStatus::Rejected,
        ] {
            roundtrip(Message::Ack {
                process: 1,
                seq: 9,
                status,
            });
        }
        roundtrip(Message::VerdictQuery { tenant: "".into() });
        roundtrip(Message::VerdictQuery {
            tenant: "team-7".into(),
        });
        roundtrip(Message::Verdict { witness: None });
        roundtrip(Message::Verdict {
            witness: Some(vec![vec![1, 0], vec![1, 2]]),
        });
        roundtrip(Message::TenantStatsQuery);
        roundtrip(Message::TenantStats { rows: vec![] });
        roundtrip(Message::TenantStats {
            rows: vec![
                TenantStatsRow {
                    tenant: "a".into(),
                    observed: 1,
                    queue_peak: 7,
                    wal_bytes: 99,
                    witness_found: true,
                    ..TenantStatsRow::default()
                },
                TenantStatsRow {
                    tenant: "b".into(),
                    quarantined: true,
                    ..TenantStatsRow::default()
                },
            ],
        });
        roundtrip(Message::Shutdown { tenant: "".into() });
        roundtrip(Message::Shutdown {
            tenant: "default".into(),
        });
        roundtrip(Message::ShutdownAck { witness: None });
        roundtrip(Message::ShutdownAck {
            witness: Some(vec![vec![3], vec![]]),
        });
        roundtrip(Message::Error {
            message: "process 9 out of range".into(),
        });
        roundtrip(Message::SlicerHello {
            tenant: "team-7".into(),
            process: 3,
            epoch: 0,
            initial: vec![false, true, false, false],
        });
        roundtrip(Message::SlicerHelloAck {
            epoch: 5,
            high_water: None,
        });
        roundtrip(Message::SlicerHelloAck {
            epoch: 1,
            high_water: Some(0),
        });
        roundtrip(Message::Heartbeat {
            process: 2,
            epoch: 7,
            progress: vec![],
        });
        roundtrip(Message::Heartbeat {
            process: 2,
            epoch: 7,
            progress: vec![4, 0, 9],
        });
        roundtrip(Message::SlicerDone {
            process: 0,
            epoch: 1,
            progress: vec![8, 8],
        });
        roundtrip(Message::SlicerDoneAck);
        roundtrip(Message::SlicerStatusQuery { tenant: "".into() });
        roundtrip(Message::SlicerStatus(SlicerVerdict::default()));
        roundtrip(Message::SlicerStatus(SlicerVerdict {
            witness: Some(vec![vec![1, 0], vec![1, 2]]),
            degraded: false,
            dead: vec![],
            applied: vec![Some(1), Some(2)],
            explored: vec![Some(vec![3, 0]), None],
        }));
        roundtrip(Message::SlicerStatus(SlicerVerdict {
            witness: None,
            degraded: true,
            dead: vec![1, 3],
            applied: vec![None, Some(0), Some(7), None],
            explored: vec![None, Some(vec![0, 1, 0, 0]), Some(vec![2, 9, 9, 1]), None],
        }));
        roundtrip(Message::TenantStats {
            rows: vec![TenantStatsRow {
                tenant: "q".into(),
                quarantined: true,
                quarantine_reason: "predicate panicked at event 7".into(),
                slicers_live: 3,
                slicers_dead: 1,
                slicers_done: 2,
                degraded: true,
                ..TenantStatsRow::default()
            }],
        });
        roundtrip(Message::TenantStats {
            rows: vec![TenantStatsRow {
                tenant: "storage".into(),
                replayed: 42,
                recovered_truncated_bytes: 87,
                recovered_dropped_segments: 2,
                storage_errors: 5,
                scrub_passes: 9,
                scrub_corruptions: 1,
                scrub_healed: 1,
                ..TenantStatsRow::default()
            }],
        });
    }

    /// One instance of every message with its encoded body, in hex.
    fn golden() -> Vec<(Message, &'static str)> {
        vec![
            (
                Message::Hello {
                    tenant: "acme".into(),
                    initial: vec![true, false, true],
                },
                "010400000061636d6503000000010001",
            ),
            (
                Message::HelloAck {
                    high_water: vec![None, Some(0), Some(41)],
                },
                "0203000000000000000000000001000000000000002a00000000000000",
            ),
            (
                Message::Event {
                    process: 2,
                    clock: vec![0, 7, 3],
                },
                "030200000003000000000000000700000003000000",
            ),
            (
                Message::Ack {
                    process: 1,
                    seq: 9,
                    status: AckStatus::Stale,
                },
                "04010000000900000002",
            ),
            (
                Message::VerdictQuery {
                    tenant: "team-7".into(),
                },
                "05060000007465616d2d37",
            ),
            (
                Message::Verdict {
                    witness: Some(vec![vec![1, 0], vec![1, 2]]),
                },
                "060102000000020000000100000000000000020000000100000002000000",
            ),
            (
                Message::Shutdown {
                    tenant: "default".into(),
                },
                "090700000064656661756c74",
            ),
            (
                Message::ShutdownAck {
                    witness: Some(vec![vec![3], vec![]]),
                },
                "0a0102000000010000000300000000000000",
            ),
            (
                Message::Error {
                    message: "session mismatch".into(),
                },
                "0b1000000073657373696f6e206d69736d61746368",
            ),
            (Message::TenantStatsQuery, "0c"),
            (
                Message::TenantStats {
                    rows: vec![TenantStatsRow {
                        tenant: "q".into(),
                        observed: 1,
                        duplicates: 2,
                        stale: 3,
                        rejected: 4,
                        events_logged: 5,
                        resumes: 6,
                        queue_depth: 7,
                        queue_peak: 8,
                        wal_segments: 9,
                        wal_bytes: 10,
                        snapshots: 11,
                        quarantined: true,
                        witness_found: false,
                        quarantine_reason: "boom".into(),
                        slicers_live: 12,
                        slicers_dead: 13,
                        slicers_done: 14,
                        degraded: true,
                        replayed: 15,
                        recovered_truncated_bytes: 16,
                        recovered_dropped_segments: 17,
                        storage_errors: 18,
                        scrub_passes: 19,
                        scrub_corruptions: 20,
                        scrub_healed: 21,
                    }],
                },
                "0d0100000001000000710100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b00000000000000010004000000626f6f6d0c000000000000000d000000000000000e00000000000000010f00000000000000100000000000000011000000000000001200000000000000130000000000000014000000000000001500000000000000",
            ),
            (
                Message::SlicerHello {
                    tenant: "team-7".into(),
                    process: 3,
                    epoch: 2,
                    initial: vec![false, true, false, false],
                },
                "0e060000007465616d2d370300000002000000000000000400000000010000",
            ),
            (
                Message::SlicerHelloAck {
                    epoch: 5,
                    high_water: Some(4),
                },
                "0f05000000000000000500000000000000",
            ),
            (
                Message::Heartbeat {
                    process: 2,
                    epoch: 7,
                    progress: vec![4, 0, 9],
                },
                "1002000000070000000000000003000000040000000000000009000000",
            ),
            (
                Message::SlicerDone {
                    process: 0,
                    epoch: 1,
                    progress: vec![8, 8],
                },
                "11000000000100000000000000020000000800000008000000",
            ),
            (Message::SlicerDoneAck, "12"),
            (
                Message::SlicerStatusQuery {
                    tenant: "team-7".into(),
                },
                "13060000007465616d2d37",
            ),
            (
                Message::SlicerStatus(SlicerVerdict {
                    witness: None,
                    degraded: true,
                    dead: vec![1, 3],
                    applied: vec![None, Some(0)],
                    explored: vec![None, Some(vec![0, 1])],
                }),
                "1400010200000001000000030000000200000000000000000000000100000000000000020000000001020000000000000001000000",
            ),
        ]
    }

    #[test]
    fn encodings_are_pinned() {
        for (message, hex) in golden() {
            let body = message.encode();
            let got: String = body.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{message:?}");
            assert_eq!(Message::decode(&body), Some(message));
        }
    }

    #[test]
    fn high_water_marks_past_u32_do_not_decode() {
        // `raw` is a high-water field as sent: 0 = none, k+1 = k.
        let bodies = |raw: u64| {
            let raw = raw.to_le_bytes();
            let hello_ack = [&[TAG_HELLO_ACK, 1, 0, 0, 0][..], &raw].concat();
            let slicer_hello_ack =
                [&[TAG_SLICER_HELLO_ACK][..], &[5, 0, 0, 0, 0, 0, 0, 0], &raw].concat();
            // No witness, not degraded, no dead slicers, one applied
            // mark, no explored clocks.
            let slicer_status = [
                &[TAG_SLICER_STATUS, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0][..],
                &raw,
                &[0, 0, 0, 0],
            ]
            .concat();
            [hello_ack, slicer_hello_ack, slicer_status]
        };
        let well_formed = bodies(1).map(|body| Message::decode(&body));
        assert_eq!(
            well_formed,
            [
                Some(Message::HelloAck {
                    high_water: vec![Some(0)]
                }),
                Some(Message::SlicerHelloAck {
                    epoch: 5,
                    high_water: Some(0)
                }),
                Some(Message::SlicerStatus(SlicerVerdict {
                    applied: vec![Some(0)],
                    ..SlicerVerdict::default()
                })),
            ]
        );
        // 2^32 + 1 names mark 2^32, which a u32 cannot hold; truncated,
        // it would resume a client from mark 0.
        for body in bodies(u64::from(u32::MAX) + 2) {
            assert_eq!(Message::decode(&body), None, "{body:02x?}");
        }
    }

    #[test]
    fn hostile_slicer_status_counts_are_bounded() {
        // A SlicerStatus claiming 2^32-1 dead entries in a tiny body
        // must be rejected by the size guard, not attempted.
        let mut body = vec![
            TAG_SLICER_STATUS,
            0, /* no witness */
            0, /* not degraded */
        ];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Message::decode(&body).is_none());
    }

    #[test]
    fn truncated_bodies_do_not_decode() {
        let mut buf = Vec::new();
        write_message(
            &mut buf,
            &Message::Event {
                process: 0,
                clock: vec![1, 2, 3],
            },
        )
        .unwrap();
        // Shorten the body but fix up the length prefix so only the
        // decoder (not the framer) can notice.
        let body = &buf[4..buf.len() - 2];
        assert!(Message::decode(body).is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = Message::TenantStatsQuery.encode();
        body.push(0);
        assert!(Message::decode(&body).is_none());
    }

    #[test]
    fn retired_tags_are_protocol_errors() {
        // The aggregate query's body was its tag alone; the reply's was
        // its tag and eleven u64 counters.
        for body in [vec![7u8], [vec![8u8], vec![0; 88]].concat()] {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            let err = parse_message(&frame).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "tag {}",
                body[0]
            );
        }
    }

    #[test]
    fn oversized_and_empty_frames_error() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut huge.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        let zero = 0u32.to_le_bytes();
        assert_eq!(
            read_frame(&mut zero.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn parse_message_is_incremental() {
        let mut buf = Vec::new();
        let first = Message::Event {
            process: 1,
            clock: vec![4, 5],
        };
        write_message(&mut buf, &first).unwrap();
        write_message(&mut buf, &Message::TenantStatsQuery).unwrap();
        // Nothing decodes until the first frame is complete...
        for cut in 0..buf.len() {
            let parsed = parse_message(&buf[..cut]).unwrap();
            if cut < 4 + first.encode().len() {
                assert!(parsed.is_none(), "cut={cut}");
            } else {
                let (m, used) = parsed.unwrap();
                assert_eq!(m, first, "cut={cut}");
                assert_eq!(used, 4 + first.encode().len());
            }
        }
        // ...and consuming it exposes the second.
        let (_, used) = parse_message(&buf).unwrap().unwrap();
        let (second, used2) = parse_message(&buf[used..]).unwrap().unwrap();
        assert_eq!(second, Message::TenantStatsQuery);
        assert_eq!(used + used2, buf.len());
        // Bad lengths are hard errors, not "wait for more".
        assert!(parse_message(&[0, 0, 0, 0, 9]).is_err());
        assert!(parse_message(&(MAX_FRAME + 1).to_le_bytes()).is_err());
    }

    #[test]
    fn tenant_names_are_vetted() {
        for good in ["default", "a", "team-7.prod", "X_1", &"t".repeat(64)] {
            assert!(valid_tenant_name(good), "{good:?}");
        }
        for bad in [
            "",
            ".hidden",
            "a/b",
            "a\\b",
            "..",
            "white space",
            "naïve",
            &"t".repeat(65),
        ] {
            assert!(!valid_tenant_name(bad), "{bad:?}");
        }
    }

    fn word(rng: &mut StdRng) -> u32 {
        match rng.gen_range(0..4u32) {
            0 => 0,
            1 => u32::MAX,
            _ => rng.gen_range(1..1000u32),
        }
    }

    fn clock(rng: &mut StdRng) -> Vec<u32> {
        (0..rng.gen_range(0..5usize)).map(|_| word(rng)).collect()
    }

    fn high_water(rng: &mut StdRng) -> Option<u32> {
        rng.gen_bool(0.7).then(|| word(rng))
    }

    fn text(rng: &mut StdRng) -> String {
        ["", "default", "team-7.prod", "naïve ✓"][rng.gen_range(0..4usize)].to_string()
    }

    fn witness(rng: &mut StdRng) -> Option<Vec<Vec<u32>>> {
        rng.gen_bool(0.5)
            .then(|| (0..rng.gen_range(0..4usize)).map(|_| clock(rng)).collect())
    }

    fn list<T>(rng: &mut StdRng, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        (0..rng.gen_range(0..4usize)).map(|_| item(rng)).collect()
    }

    /// A message of any kind with random fields, edge values included.
    fn random_message(rng: &mut StdRng) -> Message {
        let flags = |rng: &mut StdRng| list(rng, |rng| rng.gen_bool(0.5));
        match rng.gen_range(0..18u32) {
            0 => Message::Hello {
                tenant: text(rng),
                initial: flags(rng),
            },
            1 => Message::HelloAck {
                high_water: list(rng, high_water),
            },
            2 => Message::Event {
                process: word(rng),
                clock: clock(rng),
            },
            3 => Message::Ack {
                process: word(rng),
                seq: word(rng),
                status: AckStatus::from_u8(rng.gen_range(0..4u8)).unwrap(),
            },
            4 => Message::VerdictQuery { tenant: text(rng) },
            5 => Message::Verdict {
                witness: witness(rng),
            },
            6 => Message::Shutdown { tenant: text(rng) },
            7 => Message::ShutdownAck {
                witness: witness(rng),
            },
            8 => Message::Error { message: text(rng) },
            9 => Message::TenantStatsQuery,
            10 => Message::TenantStats {
                rows: list(rng, |rng| TenantStatsRow {
                    tenant: text(rng),
                    observed: rng.next_u64(),
                    queue_peak: u64::MAX,
                    quarantined: rng.gen_bool(0.5),
                    quarantine_reason: text(rng),
                    degraded: rng.gen_bool(0.5),
                    scrub_healed: rng.next_u64(),
                    ..TenantStatsRow::default()
                }),
            },
            11 => Message::SlicerHello {
                tenant: text(rng),
                process: word(rng),
                epoch: rng.next_u64(),
                initial: flags(rng),
            },
            12 => Message::SlicerHelloAck {
                epoch: rng.next_u64(),
                high_water: high_water(rng),
            },
            13 => Message::Heartbeat {
                process: word(rng),
                epoch: rng.next_u64(),
                progress: clock(rng),
            },
            14 => Message::SlicerDone {
                process: word(rng),
                epoch: rng.next_u64(),
                progress: clock(rng),
            },
            15 => Message::SlicerDoneAck,
            16 => Message::SlicerStatusQuery { tenant: text(rng) },
            _ => Message::SlicerStatus(SlicerVerdict {
                witness: witness(rng),
                degraded: rng.gen_bool(0.5),
                dead: list(rng, word),
                applied: list(rng, high_water),
                explored: list(rng, |rng| rng.gen_bool(0.5).then(|| clock(rng))),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A random message decodes to itself; every strict prefix of
        /// its body, and the body plus one trailing byte, decode to
        /// nothing.
        #[test]
        fn random_messages_roundtrip_and_nothing_else_decodes(seed in any::<u64>(), extra in any::<u8>()) {
            let message = random_message(&mut StdRng::seed_from_u64(seed));
            let body = message.encode();
            prop_assert_eq!(Message::decode(&body), Some(message.clone()));
            for cut in 0..body.len() {
                prop_assert_eq!(Message::decode(&body[..cut]), None, "{:?} cut at {}", message, cut);
            }
            let long = [&body[..], &[extra]].concat();
            prop_assert_eq!(Message::decode(&long), None, "{:?} plus {}", message, extra);
        }

        /// Arbitrary bytes, alone or behind every tag, never panic the
        /// decoder or the framer.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..257),
        ) {
            for tag in 0..=21u8 {
                let _ = Message::decode(&[&[tag][..], &bytes].concat());
            }
            let _ = Message::decode(&bytes);
            let _ = parse_message(&bytes);
            let _ = read_message(&mut bytes.as_slice());
        }
    }

    #[test]
    fn closed_peer_reads_as_eof() {
        let empty: &[u8] = &[];
        assert_eq!(
            read_message(&mut &*empty).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}
