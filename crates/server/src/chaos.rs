//! A fault-injecting TCP proxy: sits between feed clients and the
//! server and applies [`FaultPlan`] semantics to
//! real sockets — frame loss, frame duplication, delivery jitter, and
//! forced connection resets.
//!
//! Faults are applied at frame granularity on the client → server
//! direction (dropping half a frame would just desynchronize the
//! stream; the interesting failures are whole lost or repeated
//! messages). The server → client direction is forwarded frame-aware
//! too, so **asymmetric partitions** can silence either direction
//! alone: after [`partition_after`](ChaosConfig::partition_after)
//! frames in the chosen direction, the next
//! [`partition_frames`](ChaosConfig::partition_frames) frames are
//! dropped, then the link heals — the classic "my acks vanish but my
//! sends arrive" (or vice versa) slicer-link failure.
//!
//! Connections are served concurrently (one pump thread each), so a
//! multi-tenant fleet can storm the proxy at once. Each connection's
//! fault rolls come from its own [`StdRng`] seeded `seed + connection
//! index`, so any single connection's fault schedule is reproducible
//! regardless of how connections interleave.
//!
//! Forced resets are schedulable and repeatable: the first fires after
//! [`reset_after`](ChaosConfig::reset_after) forwarded frames, then
//! every [`reset_every`](ChaosConfig::reset_every) frames, up to
//! [`reset_limit`](ChaosConfig::reset_limit) — so a reconnect storm
//! (every session forced through resume, repeatedly) is one flag away.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gpd_sim::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::protocol::{read_frame, write_frame};

/// Proxy tunables.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Address to forward to (the real server).
    pub upstream: String,
    /// Frame-level faults: `drop_prob`, `duplicate_prob`, `jitter_prob`
    /// and `jitter_range` (milliseconds) apply per client → server
    /// frame. (`crashes` does not apply to a proxy.)
    pub faults: FaultPlan,
    /// Fire the first forced reset once this many client frames have
    /// been forwarded (counted across all connections). `None`
    /// disables resets.
    pub reset_after: Option<u64>,
    /// Fire another reset every additional N forwarded frames. `None`
    /// keeps the pre-existing one-shot behaviour: exactly one reset.
    pub reset_every: Option<u64>,
    /// Stop after this many resets; `0` means unlimited (only
    /// meaningful with `reset_every`).
    pub reset_limit: u64,
    /// Base seed for the fault rolls; connection `i` rolls from
    /// `seed + i`.
    pub seed: u64,
    /// Start an asymmetric partition after this many frames have been
    /// seen **in the partitioned direction, per connection**. `None`
    /// disables partitions.
    pub partition_after: Option<u64>,
    /// Drop this many consecutive frames once the partition starts,
    /// then heal the link.
    pub partition_frames: u64,
    /// Which direction the partition silences.
    pub partition_direction: PartitionDirection,
}

/// Which half of the duplex link an asymmetric partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionDirection {
    /// Client → server frames vanish (events/heartbeats lost; acks
    /// still flow).
    #[default]
    ToServer,
    /// Server → client frames vanish (acks lost; events still land —
    /// the redelivery-heavy half).
    ToClient,
}

/// Per-connection, per-direction partition schedule: frames with index
/// in `[after, after + frames)` are dropped, everything else passes.
struct Partition {
    after: u64,
    frames: u64,
    seen: u64,
}

impl Partition {
    fn new(config: &ChaosConfig, direction: PartitionDirection) -> Option<Partition> {
        let after = config.partition_after?;
        (config.partition_direction == direction).then_some(Partition {
            after,
            frames: config.partition_frames,
            seen: 0,
        })
    }

    /// Whether the next frame in this direction is swallowed.
    fn drops(&mut self) -> bool {
        let index = self.seen;
        self.seen += 1;
        index >= self.after && index < self.after + self.frames
    }
}

impl ChaosConfig {
    /// A transparent proxy to `upstream` (no faults) with seed 0.
    pub fn new(upstream: impl Into<String>) -> Self {
        ChaosConfig {
            upstream: upstream.into(),
            faults: FaultPlan::default(),
            reset_after: None,
            reset_every: None,
            reset_limit: 0,
            seed: 0,
            partition_after: None,
            partition_frames: 0,
            partition_direction: PartitionDirection::ToServer,
        }
    }
}

/// Counters of what the proxy did to the stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    /// Client frames forwarded upstream.
    pub forwarded: u64,
    /// Client frames silently dropped.
    pub dropped: u64,
    /// Client frames sent twice.
    pub duplicated: u64,
    /// Forced connection resets performed.
    pub resets: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Frames swallowed by asymmetric partitions (either direction).
    pub partitioned: u64,
}

struct Shared {
    stop: AtomicBool,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    resets: AtomicU64,
    connections: AtomicU64,
    partitioned: AtomicU64,
}

impl Shared {
    /// Claims the next scheduled reset if the forwarded-frame count
    /// has crossed its threshold. Lock-free: racing connections agree
    /// on who fires via the CAS on the reset counter.
    fn claim_reset(&self, config: &ChaosConfig) -> bool {
        let Some(after) = config.reset_after else {
            return false;
        };
        loop {
            let fired = self.resets.load(Ordering::SeqCst);
            if config.reset_limit != 0 && fired >= config.reset_limit {
                return false;
            }
            let threshold = match (fired, config.reset_every) {
                (0, _) => after,
                (k, Some(every)) => after.saturating_add(k.saturating_mul(every)),
                // One-shot (no repeat interval) and it already fired.
                (_, None) => return false,
            };
            if self.forwarded.load(Ordering::SeqCst) < threshold {
                return false;
            }
            if self
                .resets
                .compare_exchange(fired, fired + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }
}

/// A running proxy.
pub struct ChaosHandle {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ChaosHandle {
    /// The proxy's listening address — point the clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the proxy has done so far.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            forwarded: self.shared.forwarded.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            duplicated: self.shared.duplicated.load(Ordering::Relaxed),
            resets: self.shared.resets.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
            partitioned: self.shared.partitioned.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, joins the acceptor (which joins every pump
    /// thread), and reports.
    pub fn stop(mut self) -> ChaosReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the acceptor
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.report()
    }
}

/// Starts the proxy on `addr` (use port 0 for ephemeral). Each
/// accepted connection gets its own pump thread and its own seeded
/// RNG, so concurrent sessions do not perturb each other's fault
/// schedules.
///
/// # Errors
///
/// Any I/O error binding the listener.
pub fn start(addr: &str, config: ChaosConfig) -> std::io::Result<ChaosHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        forwarded: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        duplicated: AtomicU64::new(0),
        resets: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        partitioned: AtomicU64::new(0),
    });
    let thread = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut pumps: Vec<JoinHandle<()>> = Vec::new();
            let mut next_conn = 0u64;
            loop {
                let Ok((client, _)) = listener.accept() else {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                };
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_seed = config.seed.wrapping_add(next_conn);
                next_conn += 1;
                let config = config.clone();
                let shared = Arc::clone(&shared);
                pumps.push(std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(conn_seed);
                    let _ = pump_connection(client, &config, &shared, &mut rng);
                }));
            }
            for pump in pumps {
                let _ = pump.join();
            }
        })
    };
    Ok(ChaosHandle {
        addr: local,
        thread: Some(thread),
        shared,
    })
}

/// Forwards one client connection until EOF, fault, or reset.
fn pump_connection(
    mut client: TcpStream,
    config: &ChaosConfig,
    shared: &Arc<Shared>,
    rng: &mut StdRng,
) -> std::io::Result<()> {
    let mut upstream = TcpStream::connect(&config.upstream)?;
    client.set_nodelay(true)?;
    upstream.set_nodelay(true)?;

    // Server → client: frame-aware pump in its own thread, so an
    // asymmetric partition can swallow whole reply frames; ends when
    // either socket dies.
    let downstream = {
        let mut up = upstream.try_clone()?;
        let mut down = client.try_clone()?;
        let mut partition = Partition::new(config, PartitionDirection::ToClient);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            while let Ok(frame) = read_frame(&mut up) {
                if partition.as_mut().is_some_and(Partition::drops) {
                    shared.partitioned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if write_frame(&mut down, &frame).is_err() {
                    break;
                }
            }
            let _ = down.shutdown(Shutdown::Write);
        })
    };

    // Client → server: frame-granular with faults.
    // Runs until the client hangs up (EOF) or sends garbage.
    let mut partition = Partition::new(config, PartitionDirection::ToServer);
    while let Ok(frame) = read_frame(&mut client) {
        if partition.as_mut().is_some_and(Partition::drops) {
            shared.partitioned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if shared.claim_reset(config) {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
            break;
        }
        if config.faults.drop_prob > 0.0 && rng.gen_bool(config.faults.drop_prob) {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if config.faults.jitter_prob > 0.0 && rng.gen_bool(config.faults.jitter_prob) {
            let (lo, hi) = config.faults.jitter_range;
            let ms = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            std::thread::sleep(Duration::from_millis(ms));
        }
        let duplicate =
            config.faults.duplicate_prob > 0.0 && rng.gen_bool(config.faults.duplicate_prob);
        if write_frame(&mut upstream, &frame).is_err() {
            break;
        }
        shared.forwarded.fetch_add(1, Ordering::SeqCst);
        if duplicate {
            if write_frame(&mut upstream, &frame).is_err() {
                break;
            }
            shared.duplicated.fetch_add(1, Ordering::Relaxed);
            shared.forwarded.fetch_add(1, Ordering::SeqCst);
        }
    }
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
    let _ = downstream.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream that echoes every frame and returns what it saw.
    fn echo_upstream() -> (SocketAddr, JoinHandle<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            while let Ok(frame) = read_frame(&mut conn) {
                let _ = write_frame(&mut conn, &frame);
                seen.push(frame);
            }
            seen
        });
        (addr, thread)
    }

    fn partitioned_config(upstream: SocketAddr, direction: PartitionDirection) -> ChaosConfig {
        let mut config = ChaosConfig::new(upstream.to_string());
        config.partition_after = Some(2);
        config.partition_frames = 3;
        config.partition_direction = direction;
        config
    }

    #[test]
    fn to_server_partition_drops_then_heals() {
        let (up_addr, upstream) = echo_upstream();
        let config = partitioned_config(up_addr, PartitionDirection::ToServer);
        let handle = start("127.0.0.1:0", config).unwrap();
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for i in 0u8..8 {
            write_frame(&mut client, &[i]).unwrap();
        }
        // Frames 2..5 vanished upstream; the survivors' echoes prove
        // the link healed after the window.
        let mut echoed = Vec::new();
        for _ in 0..5 {
            echoed.push(read_frame(&mut client).unwrap());
        }
        assert_eq!(echoed, vec![vec![0], vec![1], vec![5], vec![6], vec![7]]);
        drop(client);
        let seen = upstream.join().unwrap();
        assert_eq!(seen, vec![vec![0], vec![1], vec![5], vec![6], vec![7]]);
        let report = handle.stop();
        assert_eq!(report.partitioned, 3);
        assert_eq!(report.forwarded, 5);
    }

    #[test]
    fn to_client_partition_swallows_replies_only() {
        let (up_addr, upstream) = echo_upstream();
        let config = partitioned_config(up_addr, PartitionDirection::ToClient);
        let handle = start("127.0.0.1:0", config).unwrap();
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for i in 0u8..8 {
            write_frame(&mut client, &[i]).unwrap();
        }
        // Replies 2..5 vanished; the sends all landed (asymmetric).
        let mut echoed = Vec::new();
        for _ in 0..5 {
            echoed.push(read_frame(&mut client).unwrap());
        }
        assert_eq!(echoed, vec![vec![0], vec![1], vec![5], vec![6], vec![7]]);
        drop(client);
        let seen = upstream.join().unwrap();
        assert_eq!(seen.len(), 8, "every send reached the server");
        let report = handle.stop();
        assert_eq!(report.partitioned, 3);
        assert_eq!(report.forwarded, 8);
    }
}
