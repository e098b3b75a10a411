//! Tenant isolation for the multi-tenant sharded service: one
//! tenant's backpressure overflow, panicking predicate, or torn WAL
//! segment must not change any other tenant's verdict or counters.

use std::path::PathBuf;
use std::time::Duration;

use gpd_server::client::{ClientConfig, ClientError, FeedClient};
use gpd_server::server::{self, ServerConfig};
use gpd_server::wal::{FsyncPolicy, WalConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gpd-tenant-{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(dir: &PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(WalConfig::new(dir).with_fsync(FsyncPolicy::Always));
    config.shards = 4;
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

/// A 2-process stream where both processes report true states that
/// are mutually concurrent, so the conjunction holds.
fn witnessed_events() -> Vec<(usize, Vec<u32>)> {
    vec![
        (0, vec![1, 0]),
        (1, vec![0, 1]),
        (0, vec![2, 0]),
        (1, vec![0, 2]),
    ]
}

/// Only process 0 ever reports a true state: no witness, and the
/// monitor queue for process 0 grows without bound.
fn one_sided_events(len: u32) -> Vec<(usize, Vec<u32>)> {
    (1..=len).map(|k| (0, vec![k, 0])).collect()
}

fn row_for<'a>(
    rows: &'a [gpd_server::TenantStatsRow],
    tenant: &str,
) -> &'a gpd_server::TenantStatsRow {
    rows.iter()
        .find(|r| r.tenant == tenant)
        .unwrap_or_else(|| panic!("no stats row for tenant {tenant:?}"))
}

#[test]
fn tenants_get_independent_verdicts_and_counters() {
    let dir = tmp_dir("verdicts");
    let handle = server::start("127.0.0.1:0", server_config(&dir)).unwrap();
    let addr = handle.local_addr();

    // Even tenants see the conjunction hold; odd tenants never do.
    // Feed concurrently so shard pinning and migration are exercised.
    let feeds: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let tenant = format!("tenant-{i}");
                let client = client_for(addr, &tenant);
                let events = if i % 2 == 0 {
                    witnessed_events()
                } else {
                    one_sided_events(4)
                };
                let report = client.feed(&[false, false], &events).unwrap();
                (i, report)
            })
        })
        .collect();
    for feed in feeds {
        let (i, report) = feed.join().unwrap();
        assert_eq!(
            report.witness.is_some(),
            i % 2 == 0,
            "tenant-{i} got the wrong verdict: {report:?}"
        );
    }

    let rows = client_for(addr, "tenant-0").query_tenant_stats().unwrap();
    assert_eq!(rows.len(), 8, "{rows:?}");
    for i in 0..8u32 {
        let row = row_for(&rows, &format!("tenant-{i}"));
        assert_eq!(row.observed, 4, "tenant-{i}: {row:?}");
        assert_eq!(row.witness_found, i % 2 == 0, "tenant-{i}: {row:?}");
        assert!(!row.quarantined, "tenant-{i}: {row:?}");
        assert!(row.wal_bytes > 0, "tenant-{i}: {row:?}");
    }

    client_for(addr, "tenant-0").shutdown().unwrap();
    let summary = handle.wait();
    assert_eq!(summary.stats.tenants, 8);
    assert_eq!(summary.tenants.len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_in_one_tenant_leaves_others_untouched() {
    let dir = tmp_dir("overflow");
    let mut config = server_config(&dir);
    config.queue_cap = Some(2);
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // "hog" streams one-sided events past the cap: after 2 queued
    // states every further event is Rejected, and the client's retry
    // budget eventually gives up.
    let hog = client_for(addr, "hog");
    let err = hog
        .feed(&[false, false], &one_sided_events(10))
        .expect_err("the overflowing feed must exhaust its retries");
    assert!(
        matches!(err, ClientError::RetriesExhausted { .. }),
        "{err:?}"
    );

    // "quiet" is unaffected: same server, full verdict.
    let quiet = client_for(addr, "quiet");
    let report = quiet.feed(&[false, false], &witnessed_events()).unwrap();
    assert!(report.witness.is_some(), "{report:?}");
    assert_eq!(report.rejected_retries, 0, "{report:?}");

    let rows = quiet.query_tenant_stats().unwrap();
    let hog_row = row_for(&rows, "hog");
    assert!(hog_row.rejected >= 1, "{hog_row:?}");
    assert_eq!(hog_row.observed, 2, "cap admits exactly 2: {hog_row:?}");
    let quiet_row = row_for(&rows, "quiet");
    assert_eq!(quiet_row.rejected, 0, "{quiet_row:?}");
    assert_eq!(quiet_row.observed, 4, "{quiet_row:?}");

    quiet.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fault-injection hook: panics while applying any event of the
/// tenant named "evil" — a stand-in for a predicate whose evaluation
/// crashes.
fn evil_predicate(tenant: &str) {
    assert!(tenant != "evil", "injected predicate crash");
}

#[test]
fn panicking_predicate_quarantines_only_its_tenant() {
    let dir = tmp_dir("quarantine");
    let mut config = server_config(&dir);
    config.fault_injection = Some(evil_predicate);
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // The evil tenant's first event trips the panic; the server
    // answers with a protocol error instead of dying.
    let evil = client_for(addr, "evil");
    let err = evil
        .feed(&[false, false], &witnessed_events())
        .expect_err("the quarantined tenant cannot make progress");
    let quarantined_error = |e: &ClientError| match e {
        ClientError::Server(m) => m.contains("quarantined"),
        ClientError::RetriesExhausted { last, .. } => last.contains("quarantined"),
        ClientError::Protocol(_) => false,
    };
    assert!(quarantined_error(&err), "{err:?}");

    // A fresh session for the same tenant is refused too.
    let again = client_for(addr, "evil");
    let err = again
        .feed(&[false, false], &witnessed_events())
        .expect_err("quarantine outlives the connection");
    assert!(quarantined_error(&err), "{err:?}");

    // Every other tenant still works, even one on the same shard.
    for name in ["innocent", "bystander"] {
        let client = client_for(addr, name);
        let report = client.feed(&[false, false], &witnessed_events()).unwrap();
        assert!(report.witness.is_some(), "tenant {name}: {report:?}");
    }

    let rows = client_for(addr, "innocent").query_tenant_stats().unwrap();
    assert!(row_for(&rows, "evil").quarantined);
    assert!(!row_for(&rows, "innocent").quarantined);
    assert!(!row_for(&rows, "bystander").quarantined);

    client_for(addr, "innocent").shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_segment_in_one_tenant_does_not_poison_recovery() {
    let dir = tmp_dir("torn");

    // First life: two healthy tenants.
    let handle = server::start("127.0.0.1:0", server_config(&dir)).unwrap();
    let addr = handle.local_addr();
    for name in ["healthy", "doomed"] {
        let client = client_for(addr, name);
        let report = client.feed(&[false, false], &witnessed_events()).unwrap();
        assert!(report.witness.is_some());
    }
    client_for(addr, "healthy").shutdown().unwrap();
    handle.wait();

    // Tear the doomed tenant's log mid-frame and drop garbage into a
    // third tenant's namespace.
    let doomed = dir.join("tenants").join("doomed").join("00000000.wal");
    let bytes = std::fs::read(&doomed).unwrap();
    std::fs::write(&doomed, &bytes[..bytes.len() / 2]).unwrap();
    let garbage = dir.join("tenants").join("garbage");
    std::fs::create_dir_all(&garbage).unwrap();
    std::fs::write(garbage.join("00000000.wal"), [0xFFu8; 37]).unwrap();

    // Second life: recovery truncates the torn tails per tenant; the
    // healthy tenant's verdict is untouched.
    let handle = server::start("127.0.0.1:0", server_config(&dir)).unwrap();
    let addr = handle.local_addr();
    let healthy = client_for(addr, "healthy");
    assert!(
        healthy.query_verdict().unwrap().is_some(),
        "healthy tenant's recovered verdict lost"
    );
    let rows = healthy.query_tenant_stats().unwrap();
    assert!(row_for(&rows, "healthy").witness_found);
    assert!(!row_for(&rows, "garbage").witness_found);

    // The doomed tenant accepts a fresh session and redelivery
    // converges to the same verdict (at-least-once semantics).
    let doomed_client = client_for(addr, "doomed");
    let report = doomed_client
        .feed(&[false, false], &witnessed_events())
        .unwrap();
    assert!(report.witness.is_some(), "{report:?}");

    healthy.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_quota_refuses_new_tenants_but_not_existing_ones() {
    let dir = tmp_dir("quota");
    let mut config = server_config(&dir);
    config.max_tenants = 2;
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let a = client_for(addr, "a");
    let b = client_for(addr, "b");
    assert!(a.feed(&[false, false], &witnessed_events()).is_ok());
    assert!(b.feed(&[false, false], &witnessed_events()).is_ok());

    let crowd = client_for(addr, "crowd");
    let err = crowd
        .feed(&[false, false], &witnessed_events())
        .expect_err("the quota must hold");
    let quota_error = |e: &ClientError| match e {
        ClientError::Server(m) => m.contains("quota"),
        ClientError::RetriesExhausted { last, .. } => last.contains("quota"),
        ClientError::Protocol(_) => false,
    };
    assert!(quota_error(&err), "{err:?}");

    // Existing tenants still resume fine.
    let report = a.feed(&[false, false], &witnessed_events()).unwrap();
    assert!(report.witness.is_some());

    a.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_tenant_names_are_refused() {
    let dir = tmp_dir("names");
    let handle = server::start("127.0.0.1:0", server_config(&dir)).unwrap();
    let addr = handle.local_addr();
    for bad in ["", ".hidden", "a/b", "name with spaces"] {
        let client = client_for(addr, bad);
        assert!(
            client.feed(&[false, false], &witnessed_events()).is_err(),
            "tenant name {bad:?} must be refused"
        );
    }
    let ok = client_for(addr, "A-ok_name.v2");
    assert!(ok.feed(&[false, false], &witnessed_events()).is_ok());
    ok.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregate_stats_are_the_sum_of_the_tenant_rows() {
    let dir = tmp_dir("sums");
    let handle = server::start("127.0.0.1:0", server_config(&dir)).unwrap();
    let addr = handle.local_addr();
    client_for(addr, "x")
        .feed(&[false, false], &witnessed_events())
        .unwrap();
    client_for(addr, "y")
        .feed(&[false, false], &one_sided_events(6))
        .unwrap();
    // Fed twice, so the second session resumes.
    for _ in 0..2 {
        client_for(addr, "z")
            .feed(&[false, false], &one_sided_events(3))
            .unwrap();
    }

    let client = client_for(addr, "x");
    let rows = client.query_tenant_stats().unwrap();
    assert_eq!(rows.len(), 3, "{rows:?}");
    let sum = |field: fn(&gpd_server::TenantStatsRow) -> u64| rows.iter().map(field).sum::<u64>();
    let stats = client.query_stats().unwrap();
    assert_eq!(stats.observed, sum(|r| r.observed));
    assert_eq!(stats.duplicates, sum(|r| r.duplicates));
    assert_eq!(stats.stale, sum(|r| r.stale));
    assert_eq!(stats.rejected, sum(|r| r.rejected));
    assert_eq!(stats.events_logged, sum(|r| r.events_logged));
    assert_eq!(stats.resumes, sum(|r| r.resumes));
    assert_eq!(stats.queue_depth, sum(|r| r.queue_depth));
    assert_eq!(stats.wal_segments, sum(|r| r.wal_segments));
    assert_eq!(stats.wal_bytes, sum(|r| r.wal_bytes));
    assert_eq!(stats.snapshots, sum(|r| r.snapshots));
    assert_eq!(stats.tenants, 3);
    // The run moved the counters the sum is checked on.
    assert_eq!(stats.observed, 4 + 6 + 3, "{stats:?}");
    assert_eq!(stats.resumes, 1, "{stats:?}");
    assert!(stats.queue_depth > 0 && stats.wal_bytes > 0, "{stats:?}");
    // The in-process view agrees with the wire.
    assert_eq!(handle.stats(), stats);

    client.shutdown().unwrap();
    let summary = handle.wait();
    assert_eq!(summary.stats, stats);
    let _ = std::fs::remove_dir_all(&dir);
}
