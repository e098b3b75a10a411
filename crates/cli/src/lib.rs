//! The `gpd` command-line tool, as a library for testability.
//!
//! Four subcommands cover the record → inspect → detect workflow:
//!
//! ```text
//! gpd simulate <protocol> [--n N] [--seed S] [...]   # record a trace
//! gpd stats <trace> [--cuts]                         # shape of the computation
//! gpd dot <trace> [--var NAME]                       # Graphviz export
//! gpd detect <trace> --pred "EXPR" [--definitely]    # the detection question
//! ```
//!
//! Predicates use a small language (see [`predicate`]):
//!
//! ```text
//! conj in_cs@0 in_cs@2                 # conjunction of literals
//! conj has_token@0 !has_token@1       # ! negates
//! cnf in_cs@0 | !in_cs@1 & flag@2     # singular CNF ('&' separates clauses)
//! sum tokens == 3                      # exact sum (Theorem 7, ±1 steps)
//! sum balance >= 100                   # relational (flow, any steps)
//! count voted_yes in {0,2,4}           # symmetric by accepted counts
//! count voted_yes xor                  # named symmetric predicates
//! ```

pub mod commands;
pub mod predicate;
pub mod serve;

/// Error surfaced to the terminal with a non-zero exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Wrong invocation; the message explains the expected shape.
    Usage(String),
    /// A predicate expression failed to parse.
    Parse(String),
    /// File I/O failed.
    Io(String),
    /// The trace file was malformed, or referenced data is missing.
    Trace(String),
    /// The question is outside the polynomial algorithms and the caller
    /// did not opt into exhaustive enumeration.
    Intractable(String),
    /// A budgeted run exhausted its deadline, node or width cap before
    /// deciding: the message carries the partial bounds and the path of
    /// the checkpoint to resume from. Exits with code 3, distinct from
    /// ordinary errors, so scripts can tell "don't know yet" from
    /// "failed".
    Unknown(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Parse(m) => write!(f, "predicate: {m}"),
            CliError::Io(m) => write!(f, "io: {m}"),
            CliError::Trace(m) => write!(f, "trace: {m}"),
            CliError::Intractable(m) => write!(f, "{m}"),
            CliError::Unknown(m) => write!(f, "verdict unknown: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Dispatches a full argument vector (without the program name) and
/// returns the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad flags, unparsable
/// predicates, unreadable traces, or intractable questions.
///
/// # Example
///
/// ```
/// let out = gpd_cli::run(&[
///     "simulate".into(), "token-ring".into(), "--n".into(), "3".into(),
/// ]).unwrap();
/// assert!(out.starts_with("gpd-trace 1"));
/// ```
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
    match cmd.as_str() {
        "simulate" => commands::simulate(rest),
        "stats" => commands::stats(rest),
        "lattice" => commands::lattice(rest),
        "dot" => commands::dot(rest),
        "detect" => commands::detect(rest),
        "serve" => serve::serve(rest),
        "feed" => serve::feed(rest),
        "slicer" => serve::slicer(rest),
        "chaos" => serve::chaos(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
gpd <command> ...
  simulate <token-ring|mutex|election|voting|bank|2pc> [--n N] [--seed S] [--buggy] [-o FILE]
  stats <trace> [--cuts]
  lattice <trace> [--enumerate]
  dot <trace> [--var NAME]
  detect <trace> --pred \"EXPR\" [--definitely] [--enumerate] [--threads N] [--stats]
         [--deadline-ms N] [--max-nodes N] [--max-width N] [--resume CKPT] [--checkpoint FILE]
  serve [--addr A] [--wal-dir DIR] [--fsync always|interval] [--fsync-interval-ms N]
        [--max-inflight N] [--workers N] [--queue-cap N] [--heartbeat-timeout-ms N]
        [--decentralized] [--addr-file FILE]
  feed <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
        [--io-timeout-ms N] [--retries N] [--backoff-ms N] [--backoff-cap-ms N]
        [--seed S] [--window N] [--shutdown]
  slicer <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
        (--process P | --all) [--tenant T] [--summary-every N] [--heartbeat-ms N]
        [--seed S] [--status] [--shutdown]
  chaos --upstream A [--listen B] [--drop P] [--duplicate P] [--jitter P]
        [--jitter-lo-ms N] [--jitter-hi-ms N] [--reset-after N]
        [--partition-after N] [--partition-frames N] [--partition-direction D]
        [--seed S] [--addr-file FILE]
  help

detect budget flags bound the NP-hard engines: an exhausted budget exits
with code 3 (verdict unknown), prints sound partial bounds, and writes a
checkpoint (default <trace>.ckpt) from which --resume continues the very
same search.

serve hosts the durable online monitor: events stream in over TCP, every
accepted event is fsynced to the write-ahead log before it is acked, and
a restart over the same --wal-dir replays the log so the verdict survives
kill -9. The monitor drops each state as soon as another process's state
rules it out, so --queue-cap bounds live states only: a rejected event
means one process runs ahead of a peer that has not reported yet. feed replays a recorded trace as a live stream with retry,
backoff, and reconnect-with-resume; slicer replays it decentralized (one
crash-tolerant agent per process, forwarding only relevant events plus
heartbeats, with epoch-numbered resync); chaos interposes a
fault-injecting proxy (frame loss, duplication, delay, connection
resets, asymmetric partitions) for drills.";
