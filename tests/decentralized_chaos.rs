//! The decentralized fault drill: per-process slicer agents streaming
//! through the chaos proxy — loss, duplication, jitter, forced resets,
//! and a mid-run slicer kill/restart — must reach a verdict and
//! witness **byte-identical** to the centralized fault-free leg, at
//! every server shard count.
//!
//! This is the paper's distributed-abstraction claim made executable:
//! the merged slice (only abstraction-relevant events, delivered
//! at-least-once, out of order across processes) decides exactly the
//! predicate the full computation decides, and the unique-minimal
//! witness property (`docs/ALGORITHMS.md` §11, §15) makes the witness
//! bit-for-bit reproducible however the faults interleave.

use std::path::PathBuf;
use std::time::Duration;

use gpd::abstraction::LocalRelevance;
use gpd::online::ConjunctiveMonitor;
use gpd_computation::{gen, BoolVariable, Computation, ProcessId};
use gpd_server::chaos::{self, ChaosConfig};
use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::server::{self, ServerConfig};
use gpd_server::slicer::SlicerAgent;
use gpd_server::wal::{FsyncPolicy, WalConfig};
use gpd_sim::{local_streams, FaultPlan, LocalStreams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tmp_dir(tag: &str) -> PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gpd-dec-{tag}-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random computation plus a sparse local predicate that is
/// **guaranteed satisfiable**: every process's final state is true
/// (the final cut is consistent), plus random sparse trues elsewhere.
fn satisfiable_workload(
    seed: u64,
    n: usize,
    events: usize,
    messages: usize,
    density: f64,
) -> (Computation, BoolVariable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let comp = gen::random_computation(&mut rng, n, events, messages);
    let values: Vec<Vec<bool>> = (0..n)
        .map(|p| {
            let states = comp.events_of(ProcessId::new(p)).len() + 1;
            (0..states)
                .map(|k| k == states - 1 || rng.gen_bool(density))
                .collect()
        })
        .collect();
    let x = BoolVariable::new(&comp, values);
    (comp, x)
}

/// The centralized reference: the exact monitor the server runs,
/// fed every true state in canonical order, fault-free, in-process.
fn centralized_witness(comp: &Computation, x: &BoolVariable) -> Option<Vec<Vec<u32>>> {
    let n = comp.process_count();
    let initial: Vec<bool> = (0..n).map(|p| x.true_initially(p)).collect();
    let mut monitor = ConjunctiveMonitor::with_initial(&initial);
    let mut trues: Vec<(u32, usize)> = Vec::new();
    for p in 0..n {
        for k in 1..=comp.events_of(ProcessId::new(p)).len() as u32 {
            if x.value_in_state(p, k) {
                trues.push((k, p));
            }
        }
    }
    trues.sort_unstable();
    for (k, p) in trues {
        let e = comp.event_at(p, k).expect("true state beyond the trace");
        monitor.observe(p, comp.clock(e).to_owned());
    }
    monitor
        .witness()
        .map(|w| w.iter().map(|c| c.as_slice().to_vec()).collect())
}

fn agent_config(addr: &str, p: u32) -> ClientConfig {
    let mut config = ClientConfig::new(addr.to_string());
    config.io_timeout = Duration::from_millis(500);
    config.max_retries = 300;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(50);
    config.jitter_seed = 7 + u64::from(p);
    config
}

/// Runs one slicer agent per process against `addr`, killing and
/// restarting `kill_restart` mid-run when given. Returns the summed
/// (reconnects, retransmits, restarts-that-actually-killed).
fn run_fleet(addr: &str, streams: &LocalStreams, kill_restart: Option<u32>) -> (u64, u64, u64) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams.initial.len() as u32)
            .map(|p| {
                scope.spawn(move || {
                    let build = |kill_after: Option<usize>| {
                        let mut agent =
                            SlicerAgent::new(agent_config(addr, p), p, LocalRelevance::Conjunctive)
                                .with_summary_every(16)
                                .with_heartbeat_interval(Duration::from_millis(25));
                        if let Some(acked) = kill_after {
                            agent = agent.with_kill_after(acked);
                        }
                        agent
                    };
                    let mut reconnects = 0;
                    let mut retransmits = 0;
                    let mut killed = 0;
                    if kill_restart == Some(p) {
                        // Crash this agent after its first acked event,
                        // then restart it from scratch: the epoch
                        // handshake plus the high-water resync must
                        // absorb both.
                        let report = build(Some(1))
                            .run(&streams.initial, &streams.streams[p as usize])
                            .expect("killed leg must not error");
                        reconnects += report.reconnects;
                        retransmits += report.retransmits;
                        killed += u64::from(report.killed);
                    }
                    let report = build(None)
                        .run(&streams.initial, &streams.streams[p as usize])
                        .expect("retry budget must outlast the fault plan");
                    assert!(!report.killed);
                    (
                        reconnects + report.reconnects,
                        retransmits + report.retransmits,
                        killed,
                    )
                })
            })
            .collect();
        let mut totals = (0, 0, 0);
        for h in handles {
            let (rc, rt, k) = h.join().unwrap();
            totals.0 += rc;
            totals.1 += rt;
            totals.2 += k;
        }
        totals
    })
}

fn start_server(dir: &PathBuf, shards: usize) -> gpd_server::ServerHandle {
    let mut config = ServerConfig::new(WalConfig::new(dir).with_fsync(FsyncPolicy::Group));
    config.shards = shards;
    config.io_timeout = Duration::from_secs(5);
    config.heartbeat_timeout = Duration::from_secs(5);
    server::start("127.0.0.1:0", config).unwrap()
}

/// The committed drill: 64 processes, loss + duplication + jitter +
/// forced resets + one slicer killed and restarted mid-run, sharded
/// server — and the verdict and witness are byte-identical to the
/// centralized fault-free reference.
#[test]
fn decentralized_drill_matches_centralized_witness() {
    let (comp, x) = satisfiable_workload(0xdec1, 64, 640, 300, 0.08);
    let expected = centralized_witness(&comp, &x);
    assert!(expected.is_some(), "workload must be satisfiable");
    let streams = local_streams(&comp, &x);

    let dir = tmp_dir("drill");
    let server = start_server(&dir, 2);
    let mut chaos_config = ChaosConfig::new(server.local_addr().to_string());
    chaos_config.faults = FaultPlan {
        drop_prob: 0.04,
        duplicate_prob: 0.08,
        jitter_prob: 0.05,
        jitter_range: (1, 3),
        crashes: Vec::new(),
    };
    chaos_config.reset_after = Some(150);
    chaos_config.reset_every = Some(400);
    chaos_config.reset_limit = 3;
    chaos_config.seed = 42;
    let proxy = chaos::start("127.0.0.1:0", chaos_config).unwrap();

    let (reconnects, _retransmits, killed) =
        run_fleet(&proxy.local_addr().to_string(), &streams, Some(0));
    assert_eq!(killed, 1, "the kill switch must have fired mid-run");

    let direct = FeedClient::new(agent_config(&server.local_addr().to_string(), 999));
    let verdict = direct.query_slicer_status().unwrap();
    assert_eq!(
        verdict.witness, expected,
        "decentralized witness diverged from the centralized fault-free leg"
    );
    assert!(!verdict.degraded, "all slicers completed: {verdict:?}");
    assert!(verdict.dead.is_empty(), "{verdict:?}");

    let proxy_report = proxy.stop();
    assert!(proxy_report.dropped >= 1, "{proxy_report:?}");
    assert!(proxy_report.duplicated >= 1, "{proxy_report:?}");
    assert!(proxy_report.resets >= 1, "{proxy_report:?}");
    assert!(
        reconnects >= 1,
        "resets and the kill/restart must drive reconnects"
    );

    direct.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Witness identity holds at 1, 2, and 4 shards under the same chaos
/// plan: sharding is invisible to the decentralized verdict.
#[test]
fn witness_identical_across_shard_counts_under_chaos() {
    let (comp, x) = satisfiable_workload(0x5ca1e, 16, 160, 80, 0.12);
    let expected = centralized_witness(&comp, &x);
    assert!(expected.is_some());
    let streams = local_streams(&comp, &x);

    for shards in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("shards{shards}"));
        let server = start_server(&dir, shards);
        let mut chaos_config = ChaosConfig::new(server.local_addr().to_string());
        chaos_config.faults = FaultPlan {
            drop_prob: 0.05,
            duplicate_prob: 0.1,
            jitter_prob: 0.0,
            jitter_range: (0, 0),
            crashes: Vec::new(),
        };
        chaos_config.reset_after = Some(60);
        chaos_config.reset_every = Some(200);
        chaos_config.reset_limit = 2;
        chaos_config.seed = 1000 + shards as u64;
        let proxy = chaos::start("127.0.0.1:0", chaos_config).unwrap();

        run_fleet(&proxy.local_addr().to_string(), &streams, None);
        let direct = FeedClient::new(agent_config(&server.local_addr().to_string(), 999));
        let verdict = direct.query_slicer_status().unwrap();
        assert_eq!(
            verdict.witness, expected,
            "witness diverged at {shards} shard(s)"
        );
        assert!(!verdict.degraded, "{verdict:?}");

        proxy.stop();
        direct.shutdown().unwrap();
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small workloads, fault-free, every shard count: the
    /// decentralized verdict and witness equal the centralized
    /// in-process reference byte for byte.
    #[test]
    fn decentralized_equals_centralized_at_every_shard_count(
        seed in 0u64..1_000_000,
        n in 3usize..8,
        density in 0.05f64..0.6,
    ) {
        let (comp, x) = satisfiable_workload(seed, n, n * 8, n * 4, density);
        let expected = centralized_witness(&comp, &x);
        let streams = local_streams(&comp, &x);
        for shards in [1usize, 2, 4] {
            let dir = tmp_dir(&format!("prop{shards}"));
            let server = start_server(&dir, shards);
            run_fleet(&server.local_addr().to_string(), &streams, None);
            let direct = FeedClient::new(agent_config(&server.local_addr().to_string(), 999));
            let verdict = direct.query_slicer_status().unwrap();
            prop_assert_eq!(
                &verdict.witness, &expected,
                "witness diverged at {} shard(s)", shards
            );
            direct.shutdown().unwrap();
            server.wait();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
