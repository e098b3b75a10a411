//! End-to-end and per-layer benchmark for `gpd detect` and `gpd serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detect_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `detect_mix`, `detect_sweep`, `serve_saturate` (see
//! `BENCHMARK.json` and `perfbench/README.md`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of the traced run
//! with `--trace 1`. Scratch files live under `.bench_work/` in the
//! current directory and are removed on exit; the traced run writes its
//! spans to `.bench_out/`.

mod detect;
mod host;
mod openloop;
mod serve;
mod spans;
mod stats;
mod timing_vfs;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("events_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer that is not on a workload's path did no work there and reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("trace.read_ms", "ms"),
    ("trace.parse_self_ms", "ms"),
    ("builder.build_ms", "ms"),
    ("slice.build_ms", "ms"),
    ("slice.nodes_before", "count"),
    ("slice.nodes_after", "count"),
    ("conjunctive.ms", "ms"),
    ("relational.ms", "ms"),
    ("symmetric.ms", "ms"),
    ("singular.ms", "ms"),
    ("scan.runs", "count"),
    ("scan.pair_checks", "count"),
    ("scan.forces_evals", "count"),
    ("enumerate.ms_1t", "ms"),
    ("enumerate.ms_2t", "ms"),
    ("enumerate.nodes", "count"),
    ("par.speedup_2t", "ratio"),
    ("par.work_ratio_2t", "ratio"),
    ("par.waves", "count"),
    ("par.steals", "count"),
    ("par.threads_spawned", "count"),
    ("kernel.clock_row_reads", "count"),
    ("kernel.dominance_batches", "count"),
    ("witness.check_ms", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.bytes_per_event", "B"),
    ("online.apply_us", "us"),
    ("online.queue_peak", "count"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.bytes_per_event", "B"),
    ("vfs.syncs_per_event", "ratio"),
    ("vfs.sync_ms_share", "ratio"),
    ("vfs.writes_per_event", "ratio"),
    ("wal.recover_ms", "ms"),
    ("wal.records_replayed", "count"),
    ("server.ack_p99_ms", "ms"),
    ("server.idle_ack_p99_ms", "ms"),
    ("server.ack_p999_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("client.backlog_peak", "count"),
    ("client.sustained_eps", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.samples", "count"),
    ("host.ref_ms", "ms"),
    ("host.disk_ref_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory of this run.
    pub work: PathBuf,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad seconds {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        let seconds: u64 = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        Ok(RunArgs {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
            work,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Outcome {
    /// False when the run itself is invalid (not merely some operations
    /// failed), e.g. an open-loop generator that could not keep to its
    /// schedule.
    pub valid: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            valid: true,
            attempted,
            failed,
            metrics: BTreeMap::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The process's peak resident set (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Renders the result line. Every value must be finite.
fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.valid && outcome.failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &RunArgs) -> Result<String, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let mut outcome = match args.workload.as_str() {
        "detect_mix" => detect::run(detect::Flavor::Mix, args),
        "detect_sweep" => detect::run(detect::Flavor::Sweep, args),
        "serve_saturate" => serve::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    if args.trace {
        if let Some(extra) = outcome
            .metrics
            .keys()
            .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("traced run measured an undeclared metric {extra}"));
        }
        for (name, _) in PER_LAYER {
            outcome.metrics.entry(name).or_insert(0.0);
        }
        result_json(&outcome, &PER_LAYER)
    } else {
        if !outcome.metrics.contains_key("peak_rss_mb") {
            outcome.metric("peak_rss_mb", peak_rss_mb()?);
        }
        result_json(&outcome, &END_TO_END)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gpd-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gpd-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
