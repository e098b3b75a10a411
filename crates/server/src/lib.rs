//! Durable online monitoring service for conjunctive predicate
//! detection.
//!
//! This crate turns the streaming [`ConjunctiveMonitor`](gpd::online)
//! into a crash-recoverable network service:
//!
//! - [`wal`] — a CRC-framed write-ahead log in rotating segment files.
//!   Recovery truncates a torn tail and replays the survivors into a
//!   fresh monitor; combined with at-least-once redelivery the verdict
//!   is byte-for-byte the one an uninterrupted run produces.
//! - [`protocol`] — the std-only, length-prefixed TCP wire protocol
//!   with per-process sequence numbers and durable acks.
//! - [`server`] — the sharded, event-driven listener: nonblocking
//!   sweeps over tenant-pinned connections, per-tenant monitors and
//!   WAL namespaces, group-commit fsync batching, snapshot compaction,
//!   log-before-ack, graceful shutdown that drains every WAL.
//! - [`client`] — the feeding client: timeouts, bounded retries,
//!   exponential backoff with deterministic jitter, and
//!   reconnect-with-resume driven by the server's high-water marks.
//! - [`chaos`] — a fault-injecting proxy that applies
//!   [`FaultPlan`](gpd_sim::FaultPlan) semantics (loss, duplication,
//!   jitter, forced resets, asymmetric partitions) to real sockets,
//!   for end-to-end fault drills.
//! - [`slicer`] — the decentralized slicer agent: replays one
//!   process's trace through a [`gpd::abstraction::LocalSlicer`],
//!   forwarding only abstraction-relevant events plus heartbeats, with
//!   epoch-numbered crash/restart resync.
//! - [`liveness`] — server-side slicer liveness: epoch fencing,
//!   clock-free heartbeat deadlines, and the progress bounds behind
//!   the degraded `Unknown` verdict.
//! - [`vfs`] — the storage abstraction under the WAL: the real
//!   filesystem in production, and a deterministic fault-injecting
//!   in-memory disk ([`FaultVfs`]) with a precise
//!   power-loss model for the storage torture tests.
//!
//! See `docs/ALGORITHMS.md` §11 for the recovery-determinism argument,
//! §15 for the decentralized abstraction mode, and §16 for the storage
//! fault model.

#![warn(missing_docs)]

mod codec;
mod crc32;

pub mod chaos;
pub mod client;
pub mod liveness;
pub mod protocol;
pub mod server;
pub mod slicer;
pub mod vfs;
pub mod wal;

pub use chaos::{ChaosConfig, ChaosHandle, ChaosReport, PartitionDirection};
pub use client::{ClientConfig, ClientError, FeedClient, FeedReport};
pub use liveness::{SlicerCensus, SlicerRegistry};
pub use protocol::{
    AckStatus, Message, ServerStats, SlicerVerdict, TenantStatsRow, DEFAULT_TENANT,
};
pub use server::{ServerConfig, ServerHandle, ServerSummary};
pub use slicer::{SlicerAgent, SlicerReport};
pub use vfs::{CrashStyle, Fault, FaultVfs, OpKind, RealVfs, Vfs, VfsFile};
pub use wal::{FsyncPolicy, Recovery, ScrubReport, Wal, WalConfig, WalRecord};
