//! Storage torture: the WAL on a fault-injecting in-memory disk.
//!
//! The tentpole is the exhaustive power-loss simulator: one fixed
//! workload (appends over 3 processes, a mid-way compaction, small
//! segments so rotation happens) is cut at *every* disk op, the
//! surviving image is taken under several crash styles, and recovery
//! must (a) never panic or error, (b) retain every acked event, and
//! (c) after redelivering the full stream, reach a verdict
//! byte-identical to the fault-free run.
//!
//! Around it: proptests over random fault schedules (EIO / ENOSPC /
//! short writes / fsyncgate), a fault-free log that must scrub clean,
//! an ENOSPC-during-compaction regression proving old segments survive,
//! and three server-level tests — group commit issues at most half the
//! fsyncs of per-event `Always` (an exact count on the fault-injecting
//! disk), fsync failure withholds acks and quarantines rather than
//! retries, and the background scrub self-heals bit rot from the live
//! monitor.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpd::online::{ConjunctiveMonitor, MonitorSnapshot};
use gpd_computation::VectorClock;
use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::protocol::{read_message, write_message, AckStatus, Message};
use gpd_server::server::{self, ServerConfig};
use gpd_server::vfs::{CrashStyle, Fault, FaultVfs, OpKind};
use gpd_server::wal::{FsyncPolicy, Recovery, Wal, WalConfig, WalRecord};

use proptest::prelude::*;

const PROCS: usize = 3;
const WAL_DIR: &str = "/wal";

/// The fixed workload stream: 8 rounds of one concurrent true state
/// per process. The conjunction holds from the first round, so the
/// fault-free witness is the all-ones cut.
fn events() -> Vec<(u32, Vec<u32>)> {
    let mut evs = Vec::new();
    for k in 1..=8u32 {
        for p in 0..PROCS as u32 {
            let mut clock = vec![0u32; PROCS];
            clock[p as usize] = k;
            evs.push((p, clock));
        }
    }
    evs
}

fn wal_config(vfs: &FaultVfs) -> WalConfig {
    WalConfig::new(WAL_DIR)
        .with_vfs(Arc::new(vfs.clone()))
        .with_fsync(FsyncPolicy::Always)
        .with_segment_bytes(96)
}

/// The server-side snapshot encoding (mirrors `Tenant::compact`).
fn snapshot_record(monitor: &ConjunctiveMonitor, initial: &[bool]) -> WalRecord {
    let snapshot = monitor.snapshot();
    WalRecord::Snapshot {
        initial: initial.to_vec(),
        latest: snapshot.latest,
        queues: snapshot
            .queues
            .into_iter()
            .map(|q| q.into_iter().map(|c| c.as_slice().to_vec()).collect())
            .collect(),
        witness: snapshot
            .witness
            .map(|w| w.into_iter().map(|c| c.as_slice().to_vec()).collect()),
    }
}

/// Replays recovered records exactly the way `Tenant::open` does.
fn recover_monitor(recovery: &Recovery) -> Option<ConjunctiveMonitor> {
    let mut monitor = None;
    for record in &recovery.records {
        match record {
            WalRecord::Init { initial } => {
                monitor = Some(ConjunctiveMonitor::with_initial(initial));
            }
            WalRecord::Event { process, clock } => {
                if let Some(m) = monitor.as_mut() {
                    let _ = m.try_observe(*process as usize, VectorClock::from(clock.clone()));
                }
            }
            WalRecord::Snapshot {
                latest,
                queues,
                witness,
                ..
            } => {
                monitor = Some(ConjunctiveMonitor::restore(MonitorSnapshot {
                    latest: latest.clone(),
                    queues: queues
                        .iter()
                        .map(|q| q.iter().cloned().map(VectorClock::from).collect())
                        .collect(),
                    witness: witness
                        .as_ref()
                        .map(|w| w.iter().cloned().map(VectorClock::from).collect()),
                }));
            }
        }
    }
    monitor
}

fn witness_of(monitor: &ConjunctiveMonitor) -> Option<Vec<Vec<u32>>> {
    monitor
        .witness()
        .map(|cut| cut.iter().map(|c| c.as_slice().to_vec()).collect())
}

/// Runs the workload against `vfs`, compacting after event 9, and
/// returns the per-process acked high-water marks. Under
/// [`FsyncPolicy::Always`] an `Ok` append *is* the ack — the frame is
/// on the platter when `append` returns. A failed append is skipped
/// (reject-and-continue, like the server); a poisoned log stops the
/// run (the server quarantines there).
fn run_workload(vfs: &FaultVfs) -> Vec<Option<u32>> {
    let mut acked: Vec<Option<u32>> = vec![None; PROCS];
    let initial = vec![false; PROCS];
    let Ok((mut wal, _)) = Wal::open(wal_config(vfs)) else {
        return acked;
    };
    if wal
        .append(&WalRecord::Init {
            initial: initial.clone(),
        })
        .is_err()
    {
        return acked;
    }
    // Shadow monitor so the mid-way compaction snapshots real state.
    let mut monitor = ConjunctiveMonitor::with_initial(&initial);
    for (i, (p, clock)) in events().into_iter().enumerate() {
        if i == 9 {
            let _ = wal.compact(&snapshot_record(&monitor, &initial));
            if wal.poisoned().is_some() {
                return acked;
            }
        }
        let seq = clock[p as usize];
        match wal.append(&WalRecord::Event {
            process: p,
            clock: clock.clone(),
        }) {
            Ok(()) => {
                acked[p as usize] = Some(seq);
                let _ = monitor.try_observe(p as usize, VectorClock::from(clock));
            }
            Err(_) => {
                if wal.poisoned().is_some() {
                    return acked;
                }
            }
        }
    }
    acked
}

/// Recovers from `image`, checks the acked prefix survived, then
/// redelivers the full stream and checks the verdict matches the
/// fault-free run. `tag` labels the failure context.
fn check_recovery(
    image: &FaultVfs,
    acked: &[Option<u32>],
    reference: &Option<Vec<Vec<u32>>>,
    tag: &str,
) {
    let (_, recovery) =
        Wal::open(wal_config(image)).unwrap_or_else(|e| panic!("{tag}: recovery errored: {e}"));
    let monitor = recover_monitor(&recovery);
    for (p, &want) in acked.iter().enumerate() {
        if want.is_none() {
            continue;
        }
        let got = monitor.as_ref().and_then(|m| m.high_water(p));
        assert!(
            got >= want,
            "{tag}: acked event lost — process {p} acked up to {want:?}, recovered {got:?} \
             (recovery: {} records, {}B truncated, {} segments dropped)",
            recovery.records.len(),
            recovery.truncated_bytes,
            recovery.dropped_segments,
        );
    }
    // At-least-once redelivery of the whole stream: the verdict must
    // be byte-identical to the uninterrupted run.
    let mut monitor = monitor.unwrap_or_else(|| ConjunctiveMonitor::with_initial(&[false; PROCS]));
    for (p, clock) in events() {
        let _ = monitor.try_observe(p as usize, VectorClock::from(clock));
    }
    assert_eq!(
        &witness_of(&monitor),
        reference,
        "{tag}: verdict diverged after redelivery"
    );
}

/// The fault-free reference verdict: every event through one monitor.
fn reference_witness() -> Option<Vec<Vec<u32>>> {
    let mut monitor = ConjunctiveMonitor::with_initial(&[false; PROCS]);
    for (p, clock) in events() {
        let _ = monitor.try_observe(p as usize, VectorClock::from(clock));
    }
    witness_of(&monitor)
}

/// The tentpole: cut the power at every single disk op (16-byte write
/// blocks, so frames tear mid-write too), crash under four styles, and
/// recovery must hold the acked-prefix and redelivery-determinism
/// invariants at every point. Zero panics allowed.
#[test]
fn power_loss_at_every_op_preserves_acked_events_and_verdict() {
    let reference = reference_witness();
    let clean = FaultVfs::new().with_block_bytes(16);
    let acked_clean = run_workload(&clean);
    let total_ops = clean.op_count();
    assert!(
        total_ops > 100,
        "workload too small to be interesting: {total_ops} ops"
    );
    assert!(
        acked_clean.iter().all(|hw| *hw == Some(8)),
        "fault-free run must ack everything: {acked_clean:?}"
    );
    check_recovery(
        &clean.crash(CrashStyle::Strict),
        &acked_clean,
        &reference,
        "clean",
    );

    for cut in 0..=total_ops {
        let vfs = FaultVfs::new().with_block_bytes(16);
        vfs.power_off_after(cut);
        let acked = run_workload(&vfs);
        for style in [
            CrashStyle::Strict,
            CrashStyle::WriteThrough,
            CrashStyle::Sampled(0xA5A5_5A5A),
            CrashStyle::Sampled(cut.wrapping_mul(7) + 1),
        ] {
            let tag = format!("cut at op {cut}/{total_ops}, {style:?}");
            check_recovery(&vfs.crash(style), &acked, &reference, &tag);
        }
    }
}

/// A log written without faults scrubs clean: every frame of every cold
/// segment passes its CRC.
#[test]
fn fault_free_multi_segment_log_scrubs_clean() {
    let vfs = FaultVfs::new();
    let (mut wal, _) = Wal::open(wal_config(&vfs)).unwrap();
    wal.append(&WalRecord::Init {
        initial: vec![false; PROCS],
    })
    .unwrap();
    for (process, clock) in events() {
        wal.append(&WalRecord::Event { process, clock }).unwrap();
    }
    let report = wal.scrub().unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.segments > 1 && report.frames > 0, "{report:?}");
}

/// ENOSPC while compaction writes its snapshot must leave the full
/// pre-compaction history on disk and the log healthy (not poisoned):
/// a failed compaction is a no-op plus an empty rotated segment, never
/// data loss.
#[test]
fn enospc_during_compaction_retains_old_segments() {
    let vfs = FaultVfs::new();
    let initial = vec![false; PROCS];
    let (mut wal, _) = Wal::open(wal_config(&vfs)).unwrap();
    wal.append(&WalRecord::Init {
        initial: initial.clone(),
    })
    .unwrap();
    let mut monitor = ConjunctiveMonitor::with_initial(&initial);
    for (p, clock) in events().into_iter().take(12) {
        wal.append(&WalRecord::Event {
            process: p,
            clock: clock.clone(),
        })
        .unwrap();
        let _ = monitor.try_observe(p as usize, VectorClock::from(clock));
    }
    let segments_before = wal.segment_count();
    assert!(segments_before > 1, "workload must span segments");

    // The next write op is compaction's snapshot frame: disk full.
    vfs.fail_kind(OpKind::Write, vfs.ops_of(OpKind::Write), Fault::Enospc);
    let snapshot = snapshot_record(&monitor, &initial);
    let err = wal.compact(&snapshot).expect_err("compaction must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{err}");
    assert!(wal.poisoned().is_none(), "ENOSPC must not poison the log");
    assert!(
        wal.segment_count() >= segments_before,
        "old segments must survive a failed compaction"
    );

    // The full history is still recoverable, byte for byte.
    let (_, recovery) = Wal::open(wal_config(&vfs)).unwrap();
    assert_eq!(recovery.records.len(), 13, "init + 12 events");
    assert_eq!(recovery.truncated_bytes, 0);

    // And the log keeps working: appends land, and a retried
    // compaction (space freed) succeeds.
    let (p, clock) = events()[12].clone();
    wal.append(&WalRecord::Event {
        process: p,
        clock: clock.clone(),
    })
    .unwrap();
    let _ = monitor.try_observe(p as usize, VectorClock::from(clock));
    wal.compact(&snapshot_record(&monitor, &initial)).unwrap();
    assert_eq!(
        wal.segment_count(),
        1,
        "retry compacts down to the snapshot"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault schedules — EIO / ENOSPC / short writes on the
    /// data path, EIO / fsyncgate on the sync paths — must never
    /// panic, and a [`CrashStyle::Strict`] image taken afterwards must
    /// still recover every acked event. The fsyncgate case is the
    /// sharp one: if the log retried a failed fsync instead of
    /// poisoning itself, later "successful" syncs would persist
    /// nothing and this invariant would break.
    #[test]
    fn random_fault_schedules_never_lose_acked_events(
        schedule in proptest::collection::vec((0u8..6, 0u64..60), 1..4),
        block_sel in 0u8..3,
    ) {
        let block = [16usize, 64, 4096][block_sel as usize];
        let vfs = FaultVfs::new().with_block_bytes(block);
        for &(sel, nth) in &schedule {
            let (kind, fault) = match sel {
                0 => (OpKind::Write, Fault::Eio),
                1 => (OpKind::Write, Fault::Enospc),
                2 => (OpKind::Write, Fault::ShortWrite),
                3 => (OpKind::SyncData, Fault::SyncFail),
                4 => (OpKind::SyncDir, Fault::Eio),
                _ => (OpKind::SyncData, Fault::Eio),
            };
            vfs.fail_kind(kind, nth, fault);
        }
        let acked = run_workload(&vfs);
        let (_, recovery) = Wal::open(wal_config(&vfs.crash(CrashStyle::Strict)))
            .expect("recovery must not error");
        let monitor = recover_monitor(&recovery);
        for (p, &want) in acked.iter().enumerate() {
            if want.is_none() { continue; }
            let got = monitor.as_ref().and_then(|m| m.high_water(p));
            prop_assert!(
                got >= want,
                "schedule {schedule:?}: process {p} acked {want:?}, recovered {got:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Server-level: group commit batches fsyncs; fsync failure withholds
// acks; scrub self-heals bit rot
// ---------------------------------------------------------------------

fn server_config(vfs: &FaultVfs, fsync: FsyncPolicy) -> ServerConfig {
    let mut config = ServerConfig::new(
        WalConfig::new("/srv")
            .with_vfs(Arc::new(vfs.clone()))
            .with_fsync(fsync),
    );
    config.shards = 1;
    config.io_timeout = Duration::from_secs(5);
    config
}

fn client_for(addr: std::net::SocketAddr, tenant: &str) -> FeedClient {
    let mut config = ClientConfig::new(addr.to_string()).with_tenant(tenant);
    config.io_timeout = Duration::from_secs(5);
    config.max_retries = 4;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(20);
    FeedClient::new(config)
}

/// Group commit batches the log-before-ack fsyncs at the shard's sweep
/// boundary. With 8 concurrent sessions on one tenant it issues at most
/// half the fsyncs of `Always`, which syncs the init record and then
/// every event on its own.
///
/// The in-memory disk syncs for free, so on its own nothing holds a
/// sweep open while the other sessions' events arrive, and the batch
/// size would be set by the OS scheduler. A 50 µs cost per applied
/// event stands in for the service time a real disk provides.
#[test]
fn group_commit_issues_at_most_half_the_fsyncs_of_always() {
    const SESSIONS: usize = 8;
    const EVENTS: u32 = 150;
    let syncs = |fsync: FsyncPolicy| {
        let vfs = FaultVfs::new();
        let mut config = server_config(&vfs, fsync);
        config.fault_injection = Some(|_| std::thread::sleep(Duration::from_micros(50)));
        let handle = server::start("127.0.0.1:0", config).unwrap();
        let addr = handle.local_addr();
        // One process per session, each feeding its own local states.
        let feeds: Vec<_> = (0..SESSIONS)
            .map(|p| {
                std::thread::spawn(move || {
                    let events: Vec<(usize, Vec<u32>)> = (1..=EVENTS)
                        .map(|k| {
                            let mut clock = vec![0u32; SESSIONS];
                            clock[p] = k;
                            (p, clock)
                        })
                        .collect();
                    let report = client_for(addr, "acme")
                        .feed(&[false; SESSIONS], &events)
                        .unwrap();
                    assert_eq!(report.accepted, u64::from(EVENTS), "{report:?}");
                })
            })
            .collect();
        for feed in feeds {
            feed.join().unwrap();
        }
        client_for(addr, "acme").shutdown().unwrap();
        handle.wait();
        vfs.ops_of(OpKind::SyncData)
    };
    let always = syncs(FsyncPolicy::Always);
    let group = syncs(FsyncPolicy::Group);
    let events = SESSIONS as u64 * u64::from(EVENTS);
    assert_eq!(
        always,
        events + 1,
        "always: one fsync per event plus the init"
    );
    assert!(
        2 * group <= always,
        "group commit must issue ≤½ the fsyncs of always: group {group} vs always {always}"
    );
}

/// An injected fsync failure mid-stream: the event whose sync failed
/// gets **no ack** (the connection is dropped unflushed), the tenant
/// is quarantined — never silently retried — and a strict power-loss
/// image still holds every event that *was* acked.
#[test]
fn fsync_failure_withholds_acks_and_quarantines() {
    use std::io::ErrorKind;
    use std::net::TcpStream;

    let vfs = FaultVfs::new();
    // SyncData ops for tenant "acme": #0 = Init append, #1 = event 1,
    // #2 = event 2 — the fsyncgate adversary strikes at event 2.
    vfs.fail_kind(OpKind::SyncData, 2, Fault::SyncFail);
    let handle = server::start("127.0.0.1:0", server_config(&vfs, FsyncPolicy::Always)).unwrap();
    let addr = handle.local_addr();

    // Raw protocol (not FeedClient: its retry loop hides per-event
    // acks on error paths, and here the missing ack *is* the test).
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_message(
        &mut stream,
        &Message::Hello {
            tenant: "acme".into(),
            initial: vec![false, false],
        },
    )
    .unwrap();
    assert!(matches!(
        read_message(&mut stream).unwrap(),
        Message::HelloAck { .. }
    ));
    let mut accepted: Vec<u32> = Vec::new();
    for k in 1..=4u32 {
        if write_message(
            &mut stream,
            &Message::Event {
                process: 0,
                clock: vec![k, 0],
            },
        )
        .is_err()
        {
            break;
        }
        match read_message(&mut stream) {
            Ok(Message::Ack {
                process: 0,
                seq,
                status: AckStatus::Accepted,
            }) => accepted.push(seq),
            Ok(other) => panic!("unexpected reply: {other:?}"),
            // Connection dropped unflushed: the poisoned tenant's
            // pending acks are withheld, not retried.
            Err(e) => {
                assert!(
                    matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof
                            | ErrorKind::ConnectionReset
                            | ErrorKind::ConnectionAborted
                            | ErrorKind::BrokenPipe
                    ),
                    "{e}"
                );
                break;
            }
        }
    }
    assert_eq!(accepted, vec![1], "only the pre-failure event is acked");

    let rows = client_for(addr, "acme").query_tenant_stats().unwrap();
    let row = rows.iter().find(|r| r.tenant == "acme").unwrap();
    assert!(row.quarantined, "{row:?}");
    assert!(
        row.quarantine_reason.contains("poisoned") || row.quarantine_reason.contains("fsync"),
        "{row:?}"
    );
    assert!(
        row.degraded,
        "no witness + no durable log = Unknown: {row:?}"
    );

    client_for(addr, "acme").shutdown().unwrap();
    handle.wait();

    // Even losing all unsynced state, the acked event survives.
    let image = vfs.crash(CrashStyle::Strict);
    let config = WalConfig::new("/srv/tenants/acme").with_vfs(Arc::new(image));
    let (_, recovery) = Wal::open(config).unwrap();
    let monitor = recover_monitor(&recovery).expect("init must have survived");
    assert_eq!(monitor.high_water(0), Some(1), "acked event lost");
}

/// Background scrub detects flipped bits in a cold segment and heals
/// by compacting from the live monitor: the corrupt segment is
/// superseded and deleted, the verdict survives, no quarantine.
#[test]
fn background_scrub_heals_bit_rot_from_the_live_monitor() {
    let vfs = FaultVfs::new();
    let mut config = server_config(&vfs, FsyncPolicy::Always);
    config.wal = config.wal.with_segment_bytes(128);
    config.scrub_every = Some(Duration::from_millis(25));
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // Enough events to rotate past segment 0, and a witness to keep.
    let mut events: Vec<(usize, Vec<u32>)> = Vec::new();
    for k in 1..=8u32 {
        events.push((0, vec![k, 0]));
        events.push((1, vec![0, k]));
    }
    let client = client_for(addr, "acme");
    let report = client.feed(&[false, false], &events).unwrap();
    assert!(report.witness.is_some(), "{report:?}");
    let rows = client.query_tenant_stats().unwrap();
    let row = rows.iter().find(|r| r.tenant == "acme").unwrap();
    assert!(row.wal_segments > 1, "need a cold segment: {row:?}");

    // Bit rot in segment 0 (cold — the live head is a later segment):
    // flip a byte of the first frame's CRC.
    vfs.flip_byte(Path::new("/srv/tenants/acme/00000000.wal"), 4)
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let healed = loop {
        let rows = client.query_tenant_stats().unwrap();
        let row = rows.iter().find(|r| r.tenant == "acme").unwrap().clone();
        assert!(
            !row.quarantined,
            "healable rot must not quarantine: {row:?}"
        );
        if row.scrub_healed > 0 {
            break row;
        }
        assert!(Instant::now() < deadline, "scrub never healed: {row:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(healed.scrub_passes > 0, "{healed:?}");
    assert_eq!(healed.scrub_corruptions, 1, "{healed:?}");
    assert_eq!(healed.scrub_healed, 1, "{healed:?}");
    assert!(
        healed.witness_found,
        "healing must keep the verdict: {healed:?}"
    );

    let final_witness = client.shutdown().unwrap();
    assert!(final_witness.is_some(), "verdict lost across healing");
    handle.wait();

    // The healed log stands on its own: recovery from the compacted
    // snapshot reproduces the witness with no corrupt bytes left.
    let (_, recovery) =
        Wal::open(WalConfig::new("/srv/tenants/acme").with_vfs(Arc::new(vfs))).unwrap();
    let monitor = recover_monitor(&recovery).expect("snapshot must recover");
    assert!(monitor.witness().is_some());
}
