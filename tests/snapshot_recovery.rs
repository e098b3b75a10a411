//! Snapshot + compaction recovery: replay work is O(live monitor
//! state) rather than O(event history), and the kill-at-any-byte
//! recovery invariant survives the snapshot boundary — truncating the
//! log anywhere (including mid-snapshot-frame), restarting, and
//! redelivering always converges to the uninterrupted verdict.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::protocol::{read_message, write_message, Message, DEFAULT_TENANT};
use gpd_server::server::{self, ServerConfig};
use gpd_server::wal::{self, FsyncPolicy, Wal, WalConfig, WalRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 3;
/// Compact after this many logged records.
const SNAPSHOT_EVERY: u64 = 8;

fn tmp_dir(tag: &str) -> PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gpd-snap-{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same deterministic stream shape as `tests/crash_recovery.rs`, but
/// longer, so several compactions fire mid-feed.
fn generated_events() -> Vec<(usize, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    let mut clocks = vec![vec![0u32; N]; N];
    let mut events = Vec::new();
    for round in 0..16 {
        for p in 0..N {
            if round > 0 && rng.gen_bool(0.4) {
                let q = rng.gen_range(0..N - 1);
                let q = if q >= p { q + 1 } else { q };
                let other = clocks[q].clone();
                for (mine, theirs) in clocks[p].iter_mut().zip(other) {
                    *mine = (*mine).max(theirs);
                }
            }
            clocks[p][p] += 1;
            events.push((p, clocks[p].clone()));
        }
    }
    events
}

fn server_config(dir: &PathBuf, fsync: FsyncPolicy) -> ServerConfig {
    let mut config = ServerConfig::new(
        WalConfig::new(dir)
            // Small segments so compaction spans several files.
            .with_segment_bytes(256)
            .with_fsync(fsync),
    );
    config.shards = 2;
    config.io_timeout = Duration::from_secs(5);
    config.snapshot_every = Some(SNAPSHOT_EVERY);
    config
}

fn client_config(addr: std::net::SocketAddr) -> ClientConfig {
    let mut config = ClientConfig::new(addr.to_string());
    config.io_timeout = Duration::from_secs(5);
    config.max_retries = 5;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(50);
    config
}

struct Baseline {
    witness: Option<Vec<Vec<u32>>>,
    /// The default tenant's compacted log: snapshot frame first, then
    /// the post-snapshot suffix.
    wal_bytes: Vec<u8>,
    snapshots: u64,
}

fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = tmp_dir("baseline");
        let handle =
            server::start("127.0.0.1:0", server_config(&dir, FsyncPolicy::Always)).unwrap();
        let client = FeedClient::new(client_config(handle.local_addr()));
        let report = client.feed(&[false; N], &generated_events()).unwrap();
        let witness = client.shutdown().unwrap();
        assert_eq!(report.witness, witness);
        assert!(witness.is_some(), "the all-true stream must find a witness");
        let summary = handle.wait();
        let row = &summary.tenants[0];
        assert!(
            row.snapshots >= 2,
            "48 events at snapshot-every={SNAPSHOT_EVERY} must compact repeatedly: {row:?}"
        );
        let wal_bytes = wal::concatenated_bytes(&dir.join("tenants").join("default")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        Baseline {
            witness,
            wal_bytes,
            snapshots: row.snapshots,
        }
    })
}

/// Restarting over a compacted log replays O(live state): the snapshot
/// record plus the short post-compaction suffix — not the 48-event
/// history.
#[test]
fn post_compaction_replay_is_bounded_by_live_state() {
    let base = baseline();
    let total = generated_events().len() as u64;

    let dir = tmp_dir("replay");
    let tenant_dir = dir.join("tenants").join("default");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    std::fs::write(tenant_dir.join("00000000.wal"), &base.wal_bytes).unwrap();

    let handle = server::start("127.0.0.1:0", server_config(&dir, FsyncPolicy::Always)).unwrap();
    let replayed = handle.replayed_records();
    let (_, records) = replayed
        .iter()
        .find(|(name, _)| name == "default")
        .expect("default tenant recovered");
    assert!(
        *records < total / 2,
        "replay must be proportional to live state, not history: \
         {records} records replayed for {total} events fed ({} snapshots)",
        base.snapshots
    );

    // The recovered verdict is immediately correct, before any client
    // reconnects or redelivers.
    let client = FeedClient::new(client_config(handle.local_addr()));
    assert_eq!(client.query_verdict().unwrap(), base.witness);
    client.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kills the server after `keep` bytes of the compacted baseline log
/// reached disk, restarts, redelivers everything, and requires the
/// uninterrupted verdict.
fn crash_recover_redeliver(keep: usize) {
    let base = baseline();
    let dir = tmp_dir("kill");
    let tenant_dir = dir.join("tenants").join("default");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    std::fs::write(tenant_dir.join("00000000.wal"), &base.wal_bytes[..keep]).unwrap();

    let handle = server::start("127.0.0.1:0", server_config(&dir, FsyncPolicy::Always)).unwrap();
    let client = FeedClient::new(client_config(handle.local_addr()));
    let report = client
        .feed(&[false; N], &generated_events())
        .expect("redelivery feed succeeds");
    let witness = client.shutdown().expect("shutdown succeeds");
    let summary = handle.wait();

    assert_eq!(
        witness, base.witness,
        "recovered verdict diverges (keep={keep})"
    );
    assert_eq!(summary.witness, base.witness);
    // At-least-once accounting: every event is applied exactly once,
    // whether it survived in the log, was redelivered, or was skipped
    // by the resume high-water marks.
    let total = generated_events().len() as u64;
    assert_eq!(
        report.accepted + report.duplicates + report.stale + report.resumed_past,
        total,
        "event accounting broken at keep={keep}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every truncation offset across the head of the log — which is the
/// snapshot frame itself — recovers. A torn snapshot must degrade to
/// an empty (or shorter) replay, never to a wrong verdict.
#[test]
fn every_offset_through_the_snapshot_frame_recovers() {
    let len = baseline().wal_bytes.len();
    // The snapshot frame sits at byte 0; 64 bytes comfortably covers
    // its header and the start of its payload, plus edges.
    for keep in (0..64.min(len)).chain([len - 1, len]) {
        crash_recover_redeliver(keep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sampled offsets over the whole compacted log (snapshot frame,
    /// suffix events, segment boundaries).
    #[test]
    fn any_truncation_offset_across_compaction_recovers(offset_seed in any::<u64>()) {
        let wal_len = baseline().wal_bytes.len();
        let keep = (offset_seed % (wal_len as u64 + 1)) as usize;
        crash_recover_redeliver(keep);
    }
}

/// Group-commit fsync batching is a durability/performance policy, not
/// a semantics change: the verdict matches the `Always` policy run,
/// and compaction keeps working under it.
#[test]
fn group_commit_policy_preserves_the_verdict() {
    let base = baseline();
    let dir = tmp_dir("group");
    let handle = server::start("127.0.0.1:0", server_config(&dir, FsyncPolicy::Group)).unwrap();
    let client = FeedClient::new(client_config(handle.local_addr()));
    let report = client.feed(&[false; N], &generated_events()).unwrap();
    assert_eq!(report.witness, base.witness);
    client.shutdown().unwrap();
    let summary = handle.wait();
    assert_eq!(summary.witness, base.witness);
    assert!(summary.tenants[0].snapshots >= 1, "{:?}", summary.tenants);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sorted `*.wal` names in `dir` (none when it does not exist).
fn segments(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".wal"))
        .collect();
    names.sort();
    names
}

/// The server's high-water marks for the default tenant, as a resuming
/// client's `Hello` receives them.
fn resume_marks(addr: std::net::SocketAddr) -> Vec<Option<u32>> {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let hello = Message::Hello {
        tenant: DEFAULT_TENANT.to_string(),
        initial: vec![false; N],
    };
    write_message(&mut stream, &hello).unwrap();
    match read_message(&mut stream).unwrap() {
        Message::HelloAck { high_water } => high_water,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// A pre-multi-tenant log (segments at the WAL root) moves into the
/// default tenant's namespace at startup and replays to the verdict
/// and high-water marks of the unmigrated log; a second restart moves
/// nothing.
#[test]
fn a_legacy_root_log_migrates_into_the_default_tenant() {
    let dir = tmp_dir("legacy");
    let legacy = WalConfig::new(&dir).with_segment_bytes(256);
    let (mut log, _) = Wal::open(legacy.clone()).unwrap();
    log.append(&WalRecord::Init {
        initial: vec![false; N],
    })
    .unwrap();
    for (p, clock) in generated_events() {
        log.append(&WalRecord::Event {
            process: p as u32,
            clock,
        })
        .unwrap();
    }
    drop(log);
    let moved = segments(&dir);
    assert!(moved.len() > 1, "{moved:?}");
    let (_, recovery) = Wal::open(legacy).unwrap();
    let records = recovery.records.len() as u64;
    let (_, monitor) = recovery.replay(None).unwrap().unwrap();
    let witness = monitor
        .witness()
        .map(|cut| cut.iter().map(|c| c.as_slice().to_vec()).collect());
    assert!(witness.is_some());
    let marks: Vec<Option<u32>> = (0..N).map(|p| monitor.high_water(p)).collect();

    let default_dir = dir.join("tenants").join(DEFAULT_TENANT);
    let mut config = server_config(&dir, FsyncPolicy::Always);
    config.snapshot_every = None;
    for start in ["first", "second"] {
        let handle = server::start("127.0.0.1:0", config.clone()).unwrap();
        assert_eq!(segments(&dir), Vec::<String>::new(), "{start} start");
        assert_eq!(segments(&default_dir), moved, "{start} start");
        assert_eq!(
            handle.replayed_records(),
            vec![(DEFAULT_TENANT.to_string(), records)],
            "{start} start"
        );
        assert_eq!(resume_marks(handle.local_addr()), marks, "{start} start");
        let client = FeedClient::new(client_config(handle.local_addr()));
        assert_eq!(client.query_verdict().unwrap(), witness, "{start} start");
        client.shutdown().unwrap();
        handle.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Starts a server on a `tenant` log holding a two-process `Init`, one
/// well-formed event and then `bad`, and returns the error `start` gives.
fn start_error_on(tenant: &str, bad: WalRecord) -> std::io::Error {
    let dir = tmp_dir(tenant);
    let (mut log, _) = Wal::open(WalConfig::new(dir.join("tenants").join(tenant))).unwrap();
    for record in [
        WalRecord::Init {
            initial: vec![false; 2],
        },
        WalRecord::Event {
            process: 0,
            clock: vec![1, 0],
        },
        bad,
    ] {
        log.append(&record).unwrap();
    }
    drop(log);
    let started = server::start("127.0.0.1:0", server_config(&dir, FsyncPolicy::Always));
    let _ = std::fs::remove_dir_all(&dir);
    match started {
        Ok(_) => panic!("start accepted a malformed {tenant} record"),
        Err(e) => e,
    }
}

/// A CRC-valid `Event` record naming a process the log does not have
/// fails `start` with `InvalidData` naming the tenant and the record.
#[test]
fn an_event_record_from_an_unknown_process_fails_start() {
    let err = start_error_on(
        "far",
        WalRecord::Event {
            process: 5,
            clock: vec![1, 0],
        },
    );
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let text = err.to_string();
    assert!(
        text.contains("\"far\"") && text.contains("record 2"),
        "{text}"
    );
}

/// A CRC-valid `Event` record whose clock is not one entry per process
/// fails `start` with `InvalidData` naming the tenant and the record.
#[test]
fn an_event_record_with_a_wrong_length_clock_fails_start() {
    let err = start_error_on(
        "wide",
        WalRecord::Event {
            process: 1,
            clock: vec![1, 1, 0],
        },
    );
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let text = err.to_string();
    assert!(
        text.contains("\"wide\"") && text.contains("record 2"),
        "{text}"
    );
}
