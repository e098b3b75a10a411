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
  simulate <token-ring|mutex|election|voting|bank|2pc> [--n N] [--seed S]
        [--tokens K] [--rounds R] [--buggy] [-o FILE]
  stats <trace> [--cuts]
  lattice <trace> [--enumerate]
  dot <trace> [--var NAME]
  detect <trace> --pred \"EXPR\" [--definitely] [--enumerate] [--threads N] [--stats]
         [--slice off|auto|force] [--deadline-ms N] [--max-nodes N] [--max-width N]
         [--resume CKPT] [--checkpoint FILE]
  serve [--addr A] [--wal-dir DIR] [--fsync always|interval|group] [--fsync-interval-ms N]
        [--shards N] [--queue-cap N] [--max-tenants N] [--snapshot-every N]
        [--quota-frames N] [--heartbeat-timeout-ms N] [--scrub-every-ms N]
        [--decentralized] [--stats] [--addr-file FILE]
  feed <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
        [--tenant T] [--io-timeout-ms N] [--retries N] [--backoff-ms N]
        [--backoff-cap-ms N] [--seed S] [--window N] [--shutdown]
  slicer <trace> --addr A (--var NAME | --int NAME --below K | --at-least K)
        (--process P | --all) [--tenant T] [--summary-every N] [--heartbeat-ms N]
        [--io-timeout-ms N] [--retries N] [--backoff-ms N] [--backoff-cap-ms N]
        [--seed S] [--status] [--shutdown]
  chaos --upstream A [--listen B] [--drop P] [--duplicate P] [--jitter P]
        [--jitter-lo-ms N] [--jitter-hi-ms N] [--reset-after N] [--reset-every N]
        [--reset-limit N] [--partition-after N] [--partition-frames N]
        [--partition-direction D] [--seed S] [--addr-file FILE]
  help

detect budget flags bound the NP-hard engines: an exhausted budget exits
with code 3 (verdict unknown), prints sound partial bounds, and writes a
checkpoint (default <trace>.ckpt) from which --resume continues the very
same search.

serve hosts the durable online monitor: events stream in over TCP, under
--fsync always (the default) or group every accepted event is fsynced to
the write-ahead log before it is acked, and a restart over the same
--wal-dir replays the log so the verdict survives kill -9. The monitor drops each state as soon as another process's state
rules it out, so --queue-cap bounds live states only: a rejected event
means one process runs ahead of a peer that has not reported yet. feed
replays a recorded trace as a live stream with retry, backoff, and
reconnect-with-resume; slicer replays it decentralized (one
crash-tolerant agent per process, forwarding only relevant events plus
heartbeats, with epoch-numbered resync); chaos interposes a
fault-injecting proxy (frame loss, duplication, delay, connection
resets, asymmetric partitions) for drills.";

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::commands::FlagSpec;

    /// Every subcommand with the flags it accepts.
    const COMMANDS: [(&str, FlagSpec); 9] = [
        ("simulate", commands::SIMULATE_FLAGS),
        ("stats", commands::STATS_FLAGS),
        ("lattice", commands::LATTICE_FLAGS),
        ("dot", commands::DOT_FLAGS),
        ("detect", commands::DETECT_FLAGS),
        ("serve", serve::SERVE_FLAGS),
        ("feed", serve::FEED_FLAGS),
        ("slicer", serve::SLICER_FLAGS),
        ("chaos", serve::CHAOS_FLAGS),
    ];

    /// The command lines of `USAGE`: each entry starts two spaces in,
    /// and its continuation lines further in.
    fn usage_entries() -> Vec<(String, String)> {
        let mut entries: Vec<(String, String)> = Vec::new();
        for line in USAGE.lines().skip(1).take_while(|l| !l.is_empty()) {
            let text = line.trim_start();
            if line.len() - text.len() == 2 {
                let command = text.split_whitespace().next().unwrap().to_string();
                entries.push((command, text.to_string()));
            } else {
                entries.last_mut().unwrap().1.push_str(&format!(" {text}"));
            }
        }
        entries
    }

    #[test]
    fn usage_names_exactly_the_accepted_flags() {
        let entries = usage_entries();
        let listed: Vec<&str> = entries.iter().map(|(c, _)| c.as_str()).collect();
        let mut expected: Vec<&str> = COMMANDS.iter().map(|(c, _)| *c).collect();
        expected.push("help");
        assert_eq!(listed, expected);
        for (command, (values, switches)) in COMMANDS {
            let (_, text) = entries.iter().find(|(c, _)| c == command).unwrap();
            let named: BTreeSet<&str> = text
                .split_whitespace()
                .map(|word| word.trim_matches(|c| "[]()".contains(c)))
                .filter_map(|word| word.strip_prefix('-'))
                .map(|flag| flag.trim_start_matches('-'))
                .collect();
            let accepted: BTreeSet<&str> = values.iter().chain(switches).copied().collect();
            assert_eq!(named, accepted, "gpd {command}");
        }
    }

    #[test]
    fn every_usage_flag_is_accepted() {
        // The usage bug this pins: `serve` advertised a flag it refused.
        for (command, (values, _)) in COMMANDS {
            for flag in values {
                let args = [command.to_string(), format!("--{flag}")];
                let err = run(&args).unwrap_err();
                assert_eq!(
                    err,
                    CliError::Usage(format!("--{flag} needs a value")),
                    "gpd {command} --{flag}"
                );
            }
        }
        assert_eq!(
            run(&["serve".into(), "--workers".into(), "4".into()]),
            Err(CliError::Usage("unknown flag --workers".into()))
        );
    }
}
