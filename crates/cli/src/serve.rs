//! The networked-monitoring subcommands: `gpd serve`, `gpd feed`,
//! `gpd slicer`, and `gpd chaos`.
//!
//! `serve` hosts the durable [`ConjunctiveMonitor`](gpd::online)
//! behind the WAL-backed TCP service from `gpd-server`; `feed` replays
//! a recorded `.trace` file into it as a live, retrying event stream;
//! `slicer` replays it **decentralized** — one crash-tolerant slicer
//! agent per process, each forwarding only abstraction-relevant events
//! plus heartbeats; `chaos` interposes a fault-injecting proxy for
//! drills. Together they make the crash/recovery path drivable from a
//! shell:
//!
//! ```text
//! gpd serve --wal-dir wal --addr 127.0.0.1:0 --addr-file addr.txt &
//! gpd feed trace.gpd --addr "$(cat addr.txt)" --var in_cs --shutdown
//! # or, decentralized:
//! gpd slicer trace.gpd --addr "$(cat addr.txt)" --var in_cs --all --status --shutdown
//! ```

use std::io::Write as _;
use std::time::Duration;

use gpd_computation::{BoolVariable, Computation};
use gpd_server::chaos::{self, ChaosConfig};
use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::server::{self, ServerConfig, ServerSummary};
use gpd_server::slicer::SlicerAgent;
use gpd_server::wal::{FsyncPolicy, WalConfig};
use gpd_sim::FaultPlan;

use crate::commands::{find_bool, find_int, load_trace, parse_flags, FlagSpec, Flags};
use crate::CliError;

/// Announces a bound address: printed immediately (and flushed, so
/// scripts piping stdout see it before the command blocks) and written
/// to `--addr-file` when given.
fn announce(addr: std::net::SocketAddr, flags: &Flags) -> Result<(), CliError> {
    println!("listening on {addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Io(e.to_string()))?;
    if let Some(path) = flags.values.get("addr-file") {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    }
    Ok(())
}

fn render_witness(witness: &Option<Vec<Vec<u32>>>) -> String {
    match witness {
        Some(cut) => format!("verdict: true\nwitness clocks: {cut:?}\n"),
        None => "verdict: false\n".to_string(),
    }
}

pub(crate) const SERVE_FLAGS: FlagSpec = (
    &[
        "addr",
        "wal-dir",
        "fsync",
        "fsync-interval-ms",
        "shards",
        "queue-cap",
        "max-tenants",
        "snapshot-every",
        "quota-frames",
        "heartbeat-timeout-ms",
        "scrub-every-ms",
        "addr-file",
    ],
    &["stats", "decentralized"],
);

/// `gpd serve [--addr A] [--wal-dir DIR] [--fsync always|interval|group]
///  [--fsync-interval-ms N] [--shards N] [--queue-cap N] [--max-tenants N]
///  [--snapshot-every N] [--quota-frames N] [--heartbeat-timeout-ms N]
///  [--scrub-every-ms N] [--decentralized] [--stats] [--addr-file FILE]`
///
/// Blocks until a client sends the shutdown command (`gpd feed
/// --shutdown`), then reports the final verdict and counters —
/// per-tenant rows when `--stats` is given or more than one tenant
/// connected.
///
/// `--queue-cap N` bounds each tenant's per-process monitor queues. The
/// monitor drops a state as soon as another process's state rules it
/// out, so the queues hold live states only: a `Rejected` ack means a
/// live backlog — one process running ahead of a peer that has not
/// reported yet — not dead states piling up.
///
/// Decentralized slicer sessions are always accepted;
/// `--heartbeat-timeout-ms` tunes how long a silent slicer stays
/// "live" before its tenant degrades to `Unknown`, and
/// `--decentralized` adds the slicer census (live/dead/done, DEGRADED)
/// to the per-tenant summary rows. A quarantined tenant is still
/// drained at shutdown and its last-known verdict plus the quarantine
/// reason are printed.
///
/// Startup prints one recovery line per tenant whose WAL replayed any
/// records, flagging `DATA LOSS` when recovery had to truncate a torn
/// tail or drop unreadable segments. `--scrub-every-ms N` enables the
/// background scrub: each tenant's cold segments are CRC-verified at
/// least every N milliseconds, latent corruption is healed from the
/// live in-memory state where possible, and the scrub counters join
/// the per-tenant summary rows.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, SERVE_FLAGS)?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "serve [--addr A] [--wal-dir DIR] [--fsync always|interval|group] [flags]".into(),
        ));
    }
    let addr = flags
        .values
        .get("addr")
        .map_or("127.0.0.1:7878", String::as_str);
    let wal_dir = flags
        .values
        .get("wal-dir")
        .map_or("gpd-wal", String::as_str);
    let fsync = match flags.values.get("fsync").map(String::as_str) {
        None | Some("always") => FsyncPolicy::Always,
        Some("group") => FsyncPolicy::Group,
        Some("interval") => FsyncPolicy::Interval(Duration::from_millis(
            flags.get_u64("fsync-interval-ms", 200)?,
        )),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--fsync expects always, interval, or group, got {other:?}"
            )))
        }
    };

    let mut config = ServerConfig::new(WalConfig::new(wal_dir).with_fsync(fsync));
    config.shards = flags.get_usize("shards", 2)?;
    config.queue_cap = match flags.get_usize("queue-cap", 0)? {
        0 => None,
        cap => Some(cap),
    };
    config.max_tenants = flags.get_usize("max-tenants", 1024)?;
    config.snapshot_every = match flags.get_u64("snapshot-every", 0)? {
        0 => None,
        n => Some(n),
    };
    config.quota_frames = flags.get_usize("quota-frames", 64)?;
    config.heartbeat_timeout = Duration::from_millis(flags.get_u64("heartbeat-timeout-ms", 2000)?);
    config.scrub_every = match flags.get_u64("scrub-every-ms", 0)? {
        0 => None,
        n => Some(Duration::from_millis(n)),
    };
    let per_tenant = flags.has("stats");
    let decentralized = flags.has("decentralized");

    let before = gpd::counters::snapshot();
    let handle = server::start(addr, config).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
    announce(handle.local_addr(), &flags)?;
    for row in handle.tenant_stats() {
        if row.replayed == 0
            && row.recovered_truncated_bytes == 0
            && row.recovered_dropped_segments == 0
        {
            continue;
        }
        let loss = if row.recovered_truncated_bytes > 0 || row.recovered_dropped_segments > 0 {
            format!(
                " — DATA LOSS: {} bytes truncated, {} segments dropped",
                row.recovered_truncated_bytes, row.recovered_dropped_segments,
            )
        } else {
            String::new()
        };
        println!(
            "recovered tenant {}: {} records replayed{loss}",
            row.tenant, row.replayed,
        );
    }
    std::io::stdout()
        .flush()
        .map_err(|e| CliError::Io(e.to_string()))?;
    let summary = handle.wait();

    let monitor = gpd::counters::snapshot().since(&before);
    Ok(render_summary(
        &summary,
        &monitor,
        per_tenant,
        decentralized,
    ))
}

/// Formats the shutdown summary: verdict, counters, per-tenant rows,
/// and — always, whatever the row flags — a line per quarantined
/// tenant with its last-known verdict and the quarantine reason (a
/// quarantined tenant is drained, not dropped).
fn render_summary(
    summary: &ServerSummary,
    monitor: &gpd::counters::ScanCounters,
    per_tenant: bool,
    decentralized: bool,
) -> String {
    let stats = &summary.stats;
    let mut out = render_witness(&summary.witness);
    out.push_str(&format!(
        "server stats: {} observed, {} duplicate, {} stale, {} rejected, {} logged, {} resumes, {} wal segments\n",
        stats.observed,
        stats.duplicates,
        stats.stale,
        stats.rejected,
        stats.events_logged,
        stats.resumes,
        stats.wal_segments,
    ));
    out.push_str(&format!(
        "monitor stats: {} observed, {} duplicate, {} stale deliveries, peak queue depth {}\n",
        monitor.monitor_observed,
        monitor.monitor_duplicates,
        monitor.monitor_stale,
        monitor.monitor_queue_peak,
    ));
    if per_tenant || decentralized || summary.tenants.len() > 1 {
        for row in &summary.tenants {
            let slicers = if decentralized {
                format!(
                    ", slicers {} live / {} dead / {} done{}",
                    row.slicers_live,
                    row.slicers_dead,
                    row.slicers_done,
                    if row.degraded { ", DEGRADED" } else { "" },
                )
            } else {
                String::new()
            };
            let storage = if row.storage_errors > 0
                || row.scrub_passes > 0
                || row.scrub_corruptions > 0
                || row.recovered_truncated_bytes > 0
                || row.recovered_dropped_segments > 0
            {
                format!(
                    ", storage: {} errors, {} scrubs / {} corrupt / {} healed, {}B+{} lost at recovery",
                    row.storage_errors,
                    row.scrub_passes,
                    row.scrub_corruptions,
                    row.scrub_healed,
                    row.recovered_truncated_bytes,
                    row.recovered_dropped_segments,
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "tenant {}: {} observed, {} duplicate, {} stale, {} rejected, queue peak {}, {} wal bytes, {} snapshots, {} resumes{}{}{}{}\n",
                row.tenant,
                row.observed,
                row.duplicates,
                row.stale,
                row.rejected,
                row.queue_peak,
                row.wal_bytes,
                row.snapshots,
                row.resumes,
                if row.witness_found { ", witness found" } else { "" },
                slicers,
                storage,
                if row.quarantined { ", QUARANTINED" } else { "" },
            ));
        }
    }
    for row in summary.tenants.iter().filter(|r| r.quarantined) {
        out.push_str(&format!(
            "tenant {} quarantined: {}; last-known verdict: {}\n",
            row.tenant,
            if row.quarantine_reason.is_empty() {
                "unknown reason"
            } else {
                &row.quarantine_reason
            },
            if row.witness_found { "true" } else { "false" },
        ));
    }
    out
}

/// Derives the local predicate `feed` and `slicer` replay: either a
/// recorded boolean variable, or a threshold over a recorded integer
/// variable (`--int balance --below 100` / `--at-least 100`).
fn truth(trace: &gpd_computation::trace::Trace, flags: &Flags) -> Result<BoolVariable, CliError> {
    match (flags.values.get("var"), flags.values.get("int")) {
        (Some(name), None) => Ok(find_bool(trace, name)?.clone()),
        (None, Some(name)) => {
            let var = find_int(trace, name)?;
            let (threshold, below) = match (flags.values.get("below"), flags.values.get("at-least"))
            {
                (Some(v), None) => (parse_i64("below", v)?, true),
                (None, Some(v)) => (parse_i64("at-least", v)?, false),
                _ => {
                    return Err(CliError::Usage(
                        "--int needs exactly one of --below K / --at-least K".into(),
                    ))
                }
            };
            let tracks = var
                .tracks()
                .iter()
                .map(|values| {
                    values
                        .iter()
                        .map(|&v| if below { v < threshold } else { v >= threshold })
                        .collect()
                })
                .collect();
            Ok(BoolVariable::new(&trace.computation, tracks))
        }
        _ => unreachable!("replay_addr checks for exactly one of --var / --int"),
    }
}

fn parse_i64(flag: &str, v: &str) -> Result<i64, CliError> {
    v.parse()
        .map_err(|_| CliError::Usage(format!("--{flag} expects an integer, got {v:?}")))
}

/// Converts truth tracks into the wire stream: the initial-state truth
/// vector plus every true state's vector clock, in the canonical merge
/// order (ascending local index, then process) — per-process FIFO, so
/// any interleaving the server sees is a valid delivery order.
fn stream_events(comp: &Computation, tracks: &[Vec<bool>]) -> (Vec<bool>, Vec<(usize, Vec<u32>)>) {
    let initial: Vec<bool> = tracks
        .iter()
        .map(|t| t.first().copied().unwrap_or(false))
        .collect();
    let mut events: Vec<(u32, usize)> = Vec::new(); // (local state index, process)
    for (p, track) in tracks.iter().enumerate() {
        for (k, &is_true) in track.iter().enumerate().skip(1) {
            if is_true {
                events.push((k as u32, p));
            }
        }
    }
    events.sort_unstable();
    let stream = events
        .into_iter()
        .map(|(k, p)| {
            let e = comp.event_at(p, k).expect("true state beyond the trace");
            (p, comp.clock(e).as_slice().to_vec())
        })
        .collect();
    (initial, stream)
}

/// Checks the flags `feed` and `slicer` share, `--addr` and exactly one
/// of `--var`/`--int`, and returns the address.
fn replay_addr<'a>(command: &str, flags: &'a Flags) -> Result<&'a String, CliError> {
    let Some(addr) = flags.values.get("addr") else {
        return Err(CliError::Usage(format!("{command} needs --addr HOST:PORT")));
    };
    if flags.values.contains_key("var") == flags.values.contains_key("int") {
        return Err(CliError::Usage(format!(
            "{command} needs exactly one of --var NAME / --int NAME"
        )));
    }
    Ok(addr)
}

/// Loads the trace `feed` or `slicer` replays, derives its local
/// predicate, and builds the client configuration from the shared
/// flags. (`slicer` takes no `--window`: its agents are stop-and-wait.)
fn load_replay(
    path: &str,
    addr: &str,
    flags: &Flags,
) -> Result<(Computation, BoolVariable, ClientConfig), CliError> {
    let trace = load_trace(path)?;
    let x = truth(&trace, flags)?;
    let mut config = ClientConfig::new(addr);
    if let Some(tenant) = flags.values.get("tenant") {
        config = config.with_tenant(tenant.clone());
    }
    config.io_timeout = Duration::from_millis(flags.get_u64("io-timeout-ms", 2000)?);
    config.max_retries = flags.get_u64("retries", 10)? as u32;
    config.backoff_base = Duration::from_millis(flags.get_u64("backoff-ms", 25)?);
    config.backoff_cap = Duration::from_millis(flags.get_u64("backoff-cap-ms", 1000)?);
    config.jitter_seed = flags.get_u64("seed", 0)?;
    config.max_inflight = flags.get_usize("window", 8)?;
    Ok((trace.computation, x, config))
}

/// The `--shutdown` tail of `feed` and `slicer`: stops the server and
/// appends its final verdict to `out`.
fn shutdown_tail(client: &FeedClient, flags: &Flags, mut out: String) -> Result<String, CliError> {
    if flags.has("shutdown") {
        let final_witness = client.shutdown().map_err(|e| CliError::Io(e.to_string()))?;
        out.push_str(&format!(
            "server drained and stopped\nfinal {}",
            render_witness(&final_witness)
        ));
    }
    Ok(out)
}

pub(crate) const FEED_FLAGS: FlagSpec = (
    &[
        "addr",
        "tenant",
        "var",
        "int",
        "below",
        "at-least",
        "io-timeout-ms",
        "retries",
        "backoff-ms",
        "backoff-cap-ms",
        "seed",
        "window",
    ],
    &["shutdown"],
);

/// `gpd feed <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
///  [--tenant T] [--io-timeout-ms N] [--retries N] [--backoff-ms N]
///  [--backoff-cap-ms N] [--seed S] [--window N] [--shutdown]`
pub fn feed(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, FEED_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "feed <trace> --addr A (--var NAME | --int NAME --below K) [flags]".into(),
        ));
    };
    let addr = replay_addr("feed", &flags)?;
    let (comp, x, config) = load_replay(path, addr, &flags)?;
    let (initial, events) = stream_events(&comp, x.tracks());
    let client = FeedClient::new(config);

    let report = client
        .feed(&initial, &events)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let mut out = format!(
        "fed {} events: {} accepted, {} duplicate, {} stale, {} skipped at resume\n\
         {} reconnects, {} backpressure retries\n",
        events.len(),
        report.accepted,
        report.duplicates,
        report.stale,
        report.resumed_past,
        report.reconnects,
        report.rejected_retries,
    );
    out.push_str(&render_witness(&report.witness));
    shutdown_tail(&client, &flags, out)
}

pub(crate) const SLICER_FLAGS: FlagSpec = (
    &[
        "addr",
        "tenant",
        "var",
        "int",
        "below",
        "at-least",
        "process",
        "summary-every",
        "heartbeat-ms",
        "io-timeout-ms",
        "retries",
        "backoff-ms",
        "backoff-cap-ms",
        "seed",
    ],
    &["all", "status", "shutdown"],
);

/// `gpd slicer <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
///  (--process P | --all) [--tenant T] [--summary-every N] [--heartbeat-ms N]
///  [--io-timeout-ms N] [--retries N] [--backoff-ms N] [--backoff-cap-ms N]
///  [--seed S] [--status] [--shutdown]`
///
/// Replays the trace **decentralized**: one slicer agent per process
/// (`--all`, threads) or a single process (`--process P`, so a shell
/// can run each agent as its own OS process and `kill`/restart them
/// independently). Each agent forwards only abstraction-relevant
/// events plus causal summaries and heartbeats, resyncing through the
/// epoch handshake after any crash or reconnect. `--status` queries
/// the server's decentralized verdict afterwards; `--shutdown` then
/// stops the server.
pub fn slicer(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, SLICER_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "slicer <trace> --addr A (--var NAME | --int NAME --below K) (--process P | --all) [flags]"
                .into(),
        ));
    };
    let addr = replay_addr("slicer", &flags)?;
    if flags.has("all") == flags.values.contains_key("process") {
        return Err(CliError::Usage(
            "slicer needs exactly one of --process P / --all".into(),
        ));
    }
    let (comp, x, config) = load_replay(path, addr, &flags)?;
    let gpd_sim::LocalStreams { initial, streams } = gpd_sim::local_streams(&comp, &x);
    let summary_every = flags.get_usize("summary-every", 64)?;
    let heartbeat = Duration::from_millis(flags.get_u64("heartbeat-ms", 100)?);

    let processes: Vec<u32> = if flags.has("all") {
        (0..initial.len() as u32).collect()
    } else {
        let p = flags.get_usize("process", 0)? as u32;
        if p as usize >= initial.len() {
            return Err(CliError::Usage(format!(
                "--process {p} out of range for {} processes",
                initial.len()
            )));
        }
        vec![p]
    };

    let run_one = |p: u32| {
        let mut agent_config = config.clone();
        // Decorrelate the agents' backoff schedules.
        agent_config.jitter_seed = config.jitter_seed.wrapping_add(u64::from(p));
        let agent = SlicerAgent::new(
            agent_config,
            p,
            gpd::abstraction::LocalRelevance::Conjunctive,
        )
        .with_summary_every(summary_every)
        .with_heartbeat_interval(heartbeat);
        agent.run(&initial, &streams[p as usize])
    };
    let reports: Vec<_> = if processes.len() == 1 {
        vec![(processes[0], run_one(processes[0]))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = processes
                .iter()
                .map(|&p| (p, scope.spawn(move || run_one(p))))
                .collect();
            handles
                .into_iter()
                .map(|(p, h)| (p, h.join().expect("slicer thread panicked")))
                .collect()
        })
    };

    let mut out = String::new();
    for (p, report) in reports {
        let report = report.map_err(|e| CliError::Io(format!("slicer {p}: {e}")))?;
        let stats = &report.stats;
        out.push_str(&format!(
            "slicer {p}: {} observed, {} forwarded, {} summarized, reduction {:.1}x, {} heartbeats, {} reconnects, {} retransmits, epoch {}\n",
            stats.observed,
            stats.forwarded,
            stats.summarized,
            stats.reduction_ratio(),
            report.heartbeats,
            report.reconnects,
            report.retransmits,
            report.epoch,
        ));
    }
    let client = FeedClient::new(config);
    if flags.has("status") {
        let verdict = client
            .query_slicer_status()
            .map_err(|e| CliError::Io(e.to_string()))?;
        out.push_str(&render_witness(&verdict.witness));
        if verdict.degraded {
            out.push_str(&format!(
                "DEGRADED: verdict is Unknown below the progress frontier; dead slicers: {:?}\n",
                verdict.dead
            ));
        }
    }
    shutdown_tail(&client, &flags, out)
}

pub(crate) const CHAOS_FLAGS: FlagSpec = (
    &[
        "upstream",
        "listen",
        "drop",
        "duplicate",
        "jitter",
        "jitter-lo-ms",
        "jitter-hi-ms",
        "reset-after",
        "reset-every",
        "reset-limit",
        "partition-after",
        "partition-frames",
        "partition-direction",
        "seed",
        "addr-file",
    ],
    &[],
);

/// `gpd chaos --upstream A [--listen B] [--drop P] [--duplicate P]
///  [--jitter P] [--jitter-lo-ms N] [--jitter-hi-ms N] [--reset-after N]
///  [--reset-every N] [--reset-limit N] [--partition-after N]
///  [--partition-frames N] [--partition-direction to-server|to-client]
///  [--seed S] [--addr-file FILE]`
///
/// Blocks forever (kill the process to stop it); meant for drills and
/// the CI chaos smoke job. `--reset-after N` forces the first
/// connection reset after N forwarded frames; `--reset-every M`
/// repeats it every M further frames (a reconnect storm), bounded by
/// `--reset-limit K` (0 = unlimited). `--partition-after N` starts an
/// asymmetric partition per connection after N frames in the chosen
/// direction, swallowing the next `--partition-frames` frames before
/// the link heals.
pub fn chaos(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, CHAOS_FLAGS)?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "chaos --upstream HOST:PORT [--listen A] [--drop P] [flags]".into(),
        ));
    }
    let Some(upstream) = flags.values.get("upstream") else {
        return Err(CliError::Usage("chaos needs --upstream HOST:PORT".into()));
    };
    let listen = flags
        .values
        .get("listen")
        .map_or("127.0.0.1:0", String::as_str);
    let mut config = ChaosConfig::new(upstream.clone());
    config.faults = FaultPlan {
        drop_prob: flags.get_f64("drop", 0.0)?,
        duplicate_prob: flags.get_f64("duplicate", 0.0)?,
        jitter_prob: flags.get_f64("jitter", 0.0)?,
        jitter_range: (
            flags.get_u64("jitter-lo-ms", 1)?,
            flags.get_u64("jitter-hi-ms", 5)?,
        ),
        crashes: Vec::new(),
    };
    config.reset_after = match flags.get_u64("reset-after", 0)? {
        0 => None,
        n => Some(n),
    };
    config.reset_every = match flags.get_u64("reset-every", 0)? {
        0 => None,
        n => Some(n),
    };
    config.reset_limit = flags.get_u64("reset-limit", 0)?;
    config.partition_after = match flags.get_u64("partition-after", 0)? {
        0 => None,
        n => Some(n),
    };
    config.partition_frames = flags.get_u64("partition-frames", 0)?;
    config.partition_direction = match flags.values.get("partition-direction").map(String::as_str) {
        None | Some("to-server") => gpd_server::chaos::PartitionDirection::ToServer,
        Some("to-client") => gpd_server::chaos::PartitionDirection::ToClient,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--partition-direction expects to-server or to-client, got {other:?}"
            )))
        }
    };
    config.seed = flags.get_u64("seed", 0)?;

    let handle =
        chaos::start(listen, config).map_err(|e| CliError::Io(format!("{listen}: {e}")))?;
    announce(handle.local_addr(), &flags)?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::simulate;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gpd-serve-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn temp_trace(name: &str, protocol: &str, extra: &[&str]) -> String {
        let path = temp_path(&format!("{name}.trace"));
        let mut a = vec![protocol, "-o", &path];
        a.extend_from_slice(extra);
        simulate(&args(&a)).unwrap();
        path
    }

    /// Runs `serve` in a thread, waits for its address file, and
    /// returns (address, join handle for the summary output).
    fn spawn_serve(
        tag: &str,
        extra: &[&str],
    ) -> (String, std::thread::JoinHandle<Result<String, CliError>>) {
        let wal_dir = temp_path(&format!("{tag}-wal"));
        let addr_file = temp_path(&format!("{tag}.addr"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let _ = std::fs::remove_file(&addr_file);
        let mut a = vec![
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            &wal_dir,
            "--addr-file",
            &addr_file,
        ];
        a.extend_from_slice(extra);
        let argv = args(&a);
        let handle = std::thread::spawn(move || serve(&argv));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never announced its address"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        (addr, handle)
    }

    #[test]
    fn serve_and_feed_bool_variable_end_to_end() {
        let trace = temp_trace("bool", "mutex", &["--n", "3", "--buggy", "--seed", "5"]);
        let (addr, serve_thread) = spawn_serve("bool", &[]);
        let out = feed(&args(&[
            &trace,
            "--addr",
            &addr,
            "--var",
            "in_cs",
            "--shutdown",
        ]))
        .unwrap();
        assert!(out.contains("fed "), "{out}");
        assert!(out.contains("0 reconnects"), "{out}");
        let summary = serve_thread.join().unwrap().unwrap();
        assert!(summary.contains("verdict:"), "{summary}");
        assert!(summary.contains("server stats:"), "{summary}");
        assert!(summary.contains("monitor stats:"), "{summary}");
        // The offline detector must agree with the online service.
        let offline =
            crate::commands::detect(&args(&[&trace, "--pred", "conj in_cs@0 in_cs@1 in_cs@2"]))
                .unwrap();
        let offline_true = offline.contains("true");
        assert_eq!(
            out.contains("verdict: true"),
            offline_true,
            "online {out:?} vs offline {offline:?}"
        );
    }

    #[test]
    fn feed_int_threshold_derivation_works() {
        let trace = temp_trace("int", "bank", &["--n", "3", "--seed", "2"]);
        let (addr, serve_thread) = spawn_serve("int", &[]);
        let out = feed(&args(&[
            &trace,
            "--addr",
            &addr,
            "--int",
            "balance",
            "--at-least",
            "1",
            "--shutdown",
        ]))
        .unwrap();
        assert!(out.contains("verdict:"), "{out}");
        serve_thread.join().unwrap().unwrap();
    }

    #[test]
    fn wal_survives_a_server_restart() {
        let trace = temp_trace("restart", "mutex", &["--n", "3", "--buggy", "--seed", "5"]);
        let wal_dir = temp_path("restart-wal-shared");
        let _ = std::fs::remove_dir_all(&wal_dir);

        // First server: feed, stop (without crashing).
        let addr_file = temp_path("restart1.addr");
        let _ = std::fs::remove_file(&addr_file);
        let argv = args(&[
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            &wal_dir,
            "--addr-file",
            &addr_file,
        ]);
        let t1 = std::thread::spawn(move || serve(&argv));
        let addr = wait_addr(&addr_file);
        let first = feed(&args(&[
            &trace,
            "--addr",
            &addr,
            "--var",
            "in_cs",
            "--shutdown",
        ]))
        .unwrap();
        t1.join().unwrap().unwrap();

        // Second server over the same WAL: the verdict is already
        // recovered before any event arrives.
        let addr_file = temp_path("restart2.addr");
        let _ = std::fs::remove_file(&addr_file);
        let argv = args(&[
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            &wal_dir,
            "--addr-file",
            &addr_file,
        ]);
        let t2 = std::thread::spawn(move || serve(&argv));
        let addr = wait_addr(&addr_file);
        let again = feed(&args(&[
            &trace,
            "--addr",
            &addr,
            "--var",
            "in_cs",
            "--shutdown",
        ]))
        .unwrap();
        let summary = t2.join().unwrap().unwrap();
        let verdict = |s: &str| s.contains("verdict: true");
        assert_eq!(verdict(&first), verdict(&again));
        assert_eq!(verdict(&first), verdict(&summary));
        // Redelivery is screened, not double-applied.
        assert!(
            again.contains("0 accepted") || again.contains("skipped at resume"),
            "{again}"
        );
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    fn wait_addr(addr_file: &str) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if text.ends_with('\n') {
                    return text.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never announced its address"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn slicer_all_reaches_the_centralized_verdict() {
        let trace = temp_trace("slicer", "mutex", &["--n", "3", "--buggy", "--seed", "5"]);
        let (addr, serve_thread) = spawn_serve("slicer", &["--decentralized"]);
        let out = slicer(&args(&[
            &trace,
            "--addr",
            &addr,
            "--var",
            "in_cs",
            "--all",
            "--status",
            "--shutdown",
        ]))
        .unwrap();
        assert!(out.contains("slicer 0:"), "{out}");
        assert!(out.contains("slicer 2:"), "{out}");
        assert!(out.contains("verdict:"), "{out}");
        assert!(!out.contains("DEGRADED"), "{out}");
        let summary = serve_thread.join().unwrap().unwrap();
        assert!(summary.contains("slicers"), "{summary}");
        // The decentralized verdict must agree with the offline detector.
        let offline =
            crate::commands::detect(&args(&[&trace, "--pred", "conj in_cs@0 in_cs@1 in_cs@2"]))
                .unwrap();
        assert_eq!(
            out.contains("verdict: true"),
            offline.contains("true"),
            "decentralized {out:?} vs offline {offline:?}"
        );
    }

    #[test]
    fn quarantined_tenants_print_reason_and_last_verdict() {
        use gpd_server::protocol::{ServerStats, TenantStatsRow};
        let summary = ServerSummary {
            witness: None,
            stats: ServerStats::default(),
            tenants: vec![TenantStatsRow {
                tenant: "acme".into(),
                quarantined: true,
                quarantine_reason: "wal fsync failed".into(),
                witness_found: true,
                ..TenantStatsRow::default()
            }],
        };
        let monitor = gpd::counters::ScanCounters::default();
        let out = render_summary(&summary, &monitor, false, false);
        assert!(
            out.contains("tenant acme quarantined: wal fsync failed; last-known verdict: true"),
            "{out}"
        );
    }

    #[test]
    fn usage_errors_are_caught() {
        assert!(matches!(
            feed(&args(&["nonexistent.trace"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            feed(&args(&["x.trace", "--addr", "127.0.0.1:1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(chaos(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            slicer(&args(&["x.trace", "--addr", "127.0.0.1:1", "--var", "v"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            slicer(&args(&[
                "x.trace",
                "--addr",
                "127.0.0.1:1",
                "--var",
                "v",
                "--all",
                "--process",
                "0"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            serve(&args(&["--fsync", "sometimes"])),
            Err(CliError::Usage(_))
        ));
        let trace = temp_trace("usage", "bank", &["--n", "2"]);
        assert!(matches!(
            feed(&args(&[
                &trace,
                "--addr",
                "127.0.0.1:1",
                "--int",
                "balance"
            ])),
            Err(CliError::Usage(_))
        ));
    }
}
