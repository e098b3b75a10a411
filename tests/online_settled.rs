//! The online monitor's settled invariant: every two non-empty queue
//! heads are consistent after each observation, so the queues hold only
//! states that may still join a witness.
//!
//! * At every prefix of random interleavings (with duplicate and stale
//!   redeliveries) the invariant holds, the witness equals offline
//!   `possibly_conjunctive` on that prefix clock for clock, and every
//!   ack and witness equals the former rule's, which eliminated heads
//!   only while no queue was empty.
//! * A snapshot taken under the former rule restores to exactly the
//!   monitor a fresh replay builds, in memory and through the WAL.
//! * On Ricart–Agrawala `in_cs` streams the total queue depth stays at
//!   most the process count.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Duration;

use gpd::conjunctive::possibly_conjunctive;
use gpd::online::{ConjunctiveMonitor, MonitorSnapshot, Observation};
use gpd_computation::{gen, BoolVariable, Computation, ProcessId, VectorClock};
use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::server::{self, ServerConfig};
use gpd_server::wal::{FsyncPolicy, Wal, WalConfig, WalRecord};
use gpd_sim::protocols::RicartAgrawala;
use gpd_sim::{SimConfig, Simulation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The former elimination rule, kept as an oracle: nothing is compared
/// while any queue is empty; otherwise pairs are scanned from the start
/// after every kill until the heads are pairwise consistent.
struct FormerRule {
    queues: Vec<VecDeque<Vec<u32>>>,
    latest: Vec<Option<u32>>,
    witness: Option<Vec<Vec<u32>>>,
}

impl FormerRule {
    fn with_initial(initial: &[bool]) -> FormerRule {
        let n = initial.len();
        let mut rule = FormerRule {
            queues: vec![VecDeque::new(); n],
            latest: vec![None; n],
            witness: None,
        };
        for (p, &true_initially) in initial.iter().enumerate() {
            if true_initially {
                rule.queues[p].push_back(vec![0; n]);
                rule.latest[p] = Some(0);
            }
        }
        rule.scan();
        rule
    }

    fn observe(&mut self, p: usize, clock: Vec<u32>) -> Observation {
        let local = clock[p];
        match self.latest[p] {
            Some(high) if local == high => return Observation::Duplicate,
            Some(high) if local < high => return Observation::Stale,
            _ => {}
        }
        self.latest[p] = Some(local);
        if self.witness.is_none() {
            self.queues[p].push_back(clock);
            self.scan();
        }
        Observation::Accepted
    }

    fn scan(&mut self) {
        let n = self.queues.len();
        while self.queues.iter().all(|q| !q.is_empty()) {
            let killed = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .find(|&(i, j)| i != j && self.queues[i][0][j] > self.queues[j][0][j]);
            match killed {
                Some((_, j)) => {
                    self.queues[j].pop_front();
                }
                None => {
                    self.witness = Some(self.queues.iter().map(|q| q[0].clone()).collect());
                    return;
                }
            }
        }
    }

    fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            latest: self.latest.clone(),
            queues: self
                .queues
                .iter()
                .map(|q| q.iter().cloned().map(VectorClock::from).collect())
                .collect(),
            witness: self
                .witness
                .as_ref()
                .map(|w| w.iter().cloned().map(VectorClock::from).collect()),
        }
    }
}

fn witness_of(monitor: &ConjunctiveMonitor) -> Option<Vec<Vec<u32>>> {
    monitor
        .witness()
        .map(|w| w.iter().map(|c| c.as_slice().to_vec()).collect())
}

/// The clock of state `k` of process `p` (the zero clock for `k = 0`).
fn state_clock(comp: &Computation, p: usize, k: u32) -> Vec<u32> {
    match comp.event_at(p, k) {
        Some(e) => comp.clock(e).as_slice().to_vec(),
        None => vec![0; comp.process_count()],
    }
}

/// Each process's true non-initial states as `(state, clock)`, in
/// program order.
type Streams = Vec<Vec<(u32, Vec<u32>)>>;

/// A random computation, a variable on it, and its true-state streams.
fn workload(
    seed: u64,
    n: usize,
    m: usize,
    msgs: usize,
    density: f64,
) -> (Computation, BoolVariable, Streams, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let comp = gen::random_computation(&mut rng, n, m, msgs);
    let x = gen::random_bool_variable(&mut rng, &comp, density);
    let streams = (0..n)
        .map(|p| {
            x.true_states(p)
                .into_iter()
                .filter(|&k| k > 0)
                .map(|k| (k, state_clock(&comp, p, k)))
                .collect()
        })
        .collect();
    (comp, x, streams, rng)
}

/// A random interleaving that keeps each process's order.
fn interleaving(rng: &mut StdRng, streams: &Streams) -> Vec<usize> {
    let mut order: Vec<usize> = (0..streams.len())
        .flat_map(|p| std::iter::repeat_n(p, streams[p].len()))
        .collect();
    order.shuffle(rng);
    order
}

/// Checks the settled invariant by brute force over all pairs of
/// non-empty heads, and the running depth total against the queues.
fn assert_settled(monitor: &ConjunctiveMonitor) {
    let snapshot = monitor.snapshot();
    let heads: Vec<(usize, &VectorClock)> = snapshot
        .queues
        .iter()
        .enumerate()
        .filter_map(|(p, q)| q.first().map(|c| (p, c)))
        .collect();
    for &(p, cp) in &heads {
        for &(q, cq) in &heads {
            assert!(
                cp.get(q) <= cq.get(q),
                "heads of {p} and {q} are inconsistent: {cp:?} {cq:?}"
            );
        }
    }
    let depth: usize = snapshot.queues.iter().map(Vec::len).sum();
    assert_eq!(monitor.queue_depth(), depth);
}

/// Offline detection over exactly the delivered states, as one clock
/// per process.
fn offline_witness(comp: &Computation, delivered: &[Vec<bool>]) -> Option<Vec<Vec<u32>>> {
    let n = comp.process_count();
    let x = BoolVariable::new(comp, delivered.to_vec());
    let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
    possibly_conjunctive(comp, &x, &processes).map(|cut| {
        // The least witness cut's frontier is each process's witness
        // state: pairwise consistency pins every coordinate to it.
        (0..n)
            .map(|p| state_clock(comp, p, cut.frontier()[p]))
            .collect()
    })
}

fn params() -> impl Strategy<Value = (u64, usize, usize, usize, f64)> {
    (any::<u64>(), 2usize..5, 1usize..7, 0usize..10, 0.2f64..0.8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_prefix_is_settled_and_matches_offline((seed, n, m, msgs, density) in params()) {
        let (comp, x, streams, mut rng) = workload(seed, n, m, msgs, density);
        let initial: Vec<bool> = (0..n).map(|p| x.true_initially(p)).collect();
        let mut delivered: Vec<Vec<bool>> = (0..n)
            .map(|p| {
                let mut track = vec![false; comp.events_on(p) + 1];
                track[0] = initial[p];
                track
            })
            .collect();
        let mut monitor = ConjunctiveMonitor::with_initial(&initial);
        let mut former = FormerRule::with_initial(&initial);
        let mut next = vec![0usize; n];

        let check = |monitor: &ConjunctiveMonitor, former: &FormerRule, delivered: &[Vec<bool>]| {
            assert_settled(monitor);
            let witness = witness_of(monitor);
            assert_eq!(witness, offline_witness(&comp, delivered));
            assert_eq!(witness, former.witness);
            for p in 0..n {
                // Settling only ever drops more dead heads.
                assert!(monitor.queue_depth_of(p) <= former.queues[p].len());
            }
        };
        check(&monitor, &former, &delivered);
        for p in interleaving(&mut rng, &streams) {
            let (k, clock) = streams[p][next[p]].clone();
            next[p] += 1;
            delivered[p][k as usize] = true;
            let status = monitor.observe(p, VectorClock::from(clock.clone()));
            prop_assert_eq!(status, Observation::Accepted);
            prop_assert_eq!(status, former.observe(p, clock.clone()));
            check(&monitor, &former, &delivered);
            if rng.gen_bool(0.3) {
                prop_assert_eq!(monitor.observe(p, VectorClock::from(clock.clone())), Observation::Duplicate);
                prop_assert_eq!(former.observe(p, clock), Observation::Duplicate);
                check(&monitor, &former, &delivered);
            }
            if next[p] > 1 && rng.gen_bool(0.3) {
                let old = streams[p][rng.gen_range(0..next[p] - 1)].1.clone();
                prop_assert_eq!(monitor.observe(p, VectorClock::from(old.clone())), Observation::Stale);
                prop_assert_eq!(former.observe(p, old), Observation::Stale);
                check(&monitor, &former, &delivered);
            }
        }
    }

    #[test]
    fn former_rule_snapshots_restore_to_a_fresh_replay((seed, n, m, msgs, density) in params()) {
        let (_, x, streams, mut rng) = workload(seed, n, m, msgs, density);
        let initial: Vec<bool> = (0..n).map(|p| x.true_initially(p)).collect();
        let order = interleaving(&mut rng, &streams);
        let cut = rng.gen_range(0..=order.len());
        let mut fresh = ConjunctiveMonitor::with_initial(&initial);
        let mut former = FormerRule::with_initial(&initial);
        let mut next = vec![0usize; n];
        for &p in &order[..cut] {
            let clock = streams[p][next[p]].1.clone();
            next[p] += 1;
            fresh.observe(p, VectorClock::from(clock.clone()));
            former.observe(p, clock);
        }
        let mut restored = ConjunctiveMonitor::restore(former.snapshot());
        assert_settled(&restored);
        prop_assert_eq!(restored.snapshot(), fresh.snapshot());
        prop_assert_eq!(restored.queue_depth(), fresh.queue_depth());
        for &p in &order[cut..] {
            let clock = VectorClock::from(streams[p][next[p]].1.clone());
            next[p] += 1;
            prop_assert_eq!(restored.observe(p, clock.clone()), fresh.observe(p, clock));
            prop_assert_eq!(restored.snapshot(), fresh.snapshot());
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpd-settled-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A WAL snapshot that is stable under the former rule but unsettled
/// under the current one — p1's head forces past p0's while p2's queue
/// is empty — recovers to the verdict and queue depths of a fresh
/// replay, and the next event finds the same witness.
#[test]
fn an_unsettled_wal_snapshot_recovers_like_a_fresh_replay() {
    let events: Vec<(usize, Vec<u32>)> =
        vec![(0, vec![1, 0, 0]), (0, vec![3, 0, 0]), (1, vec![2, 1, 0])];
    let mut former = FormerRule::with_initial(&[false; 3]);
    let mut fresh = ConjunctiveMonitor::with_initial(&[false; 3]);
    for (p, clock) in &events {
        former.observe(*p, clock.clone());
        fresh.observe(*p, VectorClock::from(clock.clone()));
    }
    assert_eq!(
        former.queues[0].len(),
        2,
        "the former rule kept p0's dead head"
    );
    assert_eq!((fresh.queue_depth_of(0), fresh.queue_depth()), (1, 2));

    let dir = tmp_dir("wal");
    let tenant_dir = dir.join("tenants").join("default");
    let (mut wal, _) = Wal::open(WalConfig::new(&tenant_dir)).unwrap();
    wal.append(&WalRecord::Snapshot {
        initial: vec![false; 3],
        snapshot: former.snapshot(),
    })
    .unwrap();
    wal.sync().unwrap();
    drop(wal);

    let mut config = ServerConfig::new(WalConfig::new(&dir).with_fsync(FsyncPolicy::Always));
    config.io_timeout = Duration::from_secs(5);
    let handle = server::start("127.0.0.1:0", config).unwrap();
    let mut client_config = ClientConfig::new(handle.local_addr().to_string());
    client_config.io_timeout = Duration::from_secs(5);
    let client = FeedClient::new(client_config);
    let rows = client.query_tenant_stats().unwrap();
    let row = rows.iter().find(|r| r.tenant == "default").unwrap();
    assert_eq!(row.queue_depth, fresh.queue_depth() as u64, "{row:?}");
    assert_eq!(client.query_verdict().unwrap(), None);

    let last = (2, vec![0, 0, 1]);
    fresh.observe(last.0, VectorClock::from(last.1.clone()));
    let expected = witness_of(&fresh);
    assert_eq!(
        expected,
        Some(vec![vec![3, 0, 0], vec![2, 1, 0], vec![0, 0, 1]])
    );
    let mut all = events.clone();
    all.push(last);
    let report = client.feed(&[false; 3], &all).unwrap();
    assert_eq!(report.witness, expected);
    client.shutdown().unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streams the true `in_cs` states of an 8-process Ricart–Agrawala run
/// in event-id order: mutual exclusion means no witness ever forms, and
/// each new critical section kills the earlier ones, so the queues
/// never hold more than one state per process.
#[test]
fn mutex_streams_keep_the_queues_bounded() {
    const PROCESSES: usize = 8;
    for seed in [1, 2, 3, 501, 20261017] {
        let sim = Simulation::new(
            RicartAgrawala::group(PROCESSES, 400),
            SimConfig::new(seed).with_max_events(5000),
        )
        .run();
        let in_cs = sim.bool_var("in_cs").unwrap().clone();
        let comp = &sim.computation;
        let initial: Vec<bool> = (0..PROCESSES).map(|p| in_cs.true_initially(p)).collect();
        let mut monitor = ConjunctiveMonitor::with_initial(&initial);
        let (mut states, mut peak) = (0, monitor.queue_depth());
        for e in comp.events() {
            let p = comp.process_of(e).index();
            if in_cs.value_in_state(p, comp.local_index(e)) {
                monitor.observe(p, comp.clock(e).to_owned());
                peak = peak.max(monitor.queue_depth());
                states += 1;
            }
        }
        assert!(states > 100, "seed {seed}: only {states} in_cs states");
        assert!(
            monitor.witness().is_none(),
            "seed {seed}: mutual exclusion broke"
        );
        assert!(
            peak <= PROCESSES,
            "seed {seed}: queue depth peaked at {peak} over {states} states"
        );
    }
}
