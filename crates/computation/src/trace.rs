//! A line-oriented text format for computations and their variables.
//!
//! Traces let the examples and the benchmark harness persist computations
//! (e.g. ones recorded from the simulator) and reload them elsewhere:
//!
//! ```text
//! gpd-trace 1
//! processes 2
//! counts 2 1
//! message 0.1 1.1
//! boolvar ready 0: 0 1 0
//! boolvar ready 1: 0 1
//! intvar tokens 0: 1 1 0
//! intvar tokens 1: 0 0
//! end
//! ```
//!
//! `message p.k q.l` connects the `k`-th event of process `p` (1-based) to
//! the `l`-th event of process `q`. Variable lines carry one value per
//! local state (`counts[p] + 1` values).
//!
//! The header is checked against three resource caps before anything is
//! allocated per event, so a hostile header cannot force huge
//! allocations: [`MAX_TRACE_PROCESSES`], [`MAX_TRACE_EVENTS`] on `Σ counts`,
//! and [`MAX_TRACE_CLOCK_CELLS`] on `processes × Σ counts`, the size of
//! the vector-clock matrix the build fills.

use std::collections::BTreeMap;

use crate::builder::ComputationBuilder;
use crate::computation::Computation;
use crate::variables::{BoolVariable, IntVariable};

/// A parsed trace: the computation plus named variable annotations.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The event poset.
    pub computation: Computation,
    /// Named boolean variables, sorted by name.
    pub bool_vars: Vec<(String, BoolVariable)>,
    /// Named integer variables, sorted by name.
    pub int_vars: Vec<(String, IntVariable)>,
}

/// Error produced by [`read_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    line: usize,
    message: String,
}

impl TraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Hard cap on `processes` — a parser resource bound, far above any real
/// trace, so a hostile header cannot force huge allocations.
pub const MAX_TRACE_PROCESSES: usize = 1 << 20;

/// Hard cap on the total event count (`Σ counts`), checked with overflow
/// detection before any per-event allocation happens.
pub const MAX_TRACE_EVENTS: usize = 1 << 24;

/// Hard cap on the clock matrix, `processes × Σ counts` entries (1 GiB of
/// `u32`s), checked with overflow detection before any per-event
/// allocation: headers within both caps above can still declare a
/// matrix of up to 2^44 entries.
pub const MAX_TRACE_CLOCK_CELLS: usize = 1 << 28;

/// Serializes a computation and its variables to the trace format.
///
/// # Example
///
/// ```
/// use gpd_computation::{trace, ComputationBuilder};
///
/// let mut b = ComputationBuilder::new(1);
/// b.append(0);
/// let comp = b.build().unwrap();
/// let text = trace::write_trace(&comp, &[], &[]);
/// let back = trace::read_trace(&text).unwrap();
/// assert_eq!(back.computation.event_count(), 1);
/// ```
pub fn write_trace(
    comp: &Computation,
    bool_vars: &[(&str, &BoolVariable)],
    int_vars: &[(&str, &IntVariable)],
) -> String {
    let mut out = String::from("gpd-trace 1\n");
    out.push_str(&format!("processes {}\n", comp.process_count()));
    out.push_str("counts");
    for p in 0..comp.process_count() {
        out.push_str(&format!(" {}", comp.events_on(p)));
    }
    out.push('\n');
    for &(s, r) in comp.messages() {
        out.push_str(&format!(
            "message {}.{} {}.{}\n",
            comp.process_of(s).index(),
            comp.local_index(s),
            comp.process_of(r).index(),
            comp.local_index(r)
        ));
    }
    for (name, var) in bool_vars {
        for (p, track) in var.tracks().iter().enumerate() {
            out.push_str(&format!("boolvar {name} {p}:"));
            for &v in track {
                out.push_str(if v { " 1" } else { " 0" });
            }
            out.push('\n');
        }
    }
    for (name, var) in int_vars {
        for (p, track) in var.tracks().iter().enumerate() {
            out.push_str(&format!("intvar {name} {p}:"));
            for &v in track {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

fn parse_endpoint(tok: &str, line: usize) -> Result<(usize, u32), TraceError> {
    let (p, k) = tok
        .split_once('.')
        .ok_or_else(|| TraceError::new(line, format!("bad endpoint {tok:?}")))?;
    let p = p
        .parse()
        .map_err(|_| TraceError::new(line, format!("bad process in {tok:?}")))?;
    let k = k
        .parse()
        .map_err(|_| TraceError::new(line, format!("bad index in {tok:?}")))?;
    Ok((p, k))
}

/// Parses a trace produced by [`write_trace`].
///
/// # Errors
///
/// Returns [`TraceError`] (with a line number) on any malformed header,
/// message, or variable line, on shape mismatches, or if the messages
/// form a causal cycle.
pub fn read_trace(input: &str) -> Result<Trace, TraceError> {
    let mut lines = input.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));

    let (i, header) = lines
        .next()
        .ok_or_else(|| TraceError::new(0, "empty input"))?;
    if header != "gpd-trace 1" {
        return Err(TraceError::new(i, format!("bad magic {header:?}")));
    }
    let (i, procs_line) = lines
        .next()
        .ok_or_else(|| TraceError::new(i, "missing processes line"))?;
    let processes: usize = procs_line
        .strip_prefix("processes ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TraceError::new(i, format!("bad processes line {procs_line:?}")))?;
    if processes > MAX_TRACE_PROCESSES {
        return Err(TraceError::new(
            i,
            format!("{processes} processes exceeds the cap of {MAX_TRACE_PROCESSES}"),
        ));
    }
    let (i, counts_line) = lines
        .next()
        .ok_or_else(|| TraceError::new(i, "missing counts line"))?;
    let counts: Vec<usize> = counts_line
        .strip_prefix("counts")
        .ok_or_else(|| TraceError::new(i, format!("bad counts line {counts_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| TraceError::new(i, "bad event count"))?;
    if counts.len() != processes {
        return Err(TraceError::new(
            i,
            format!("{} counts for {processes} processes", counts.len()),
        ));
    }
    let events = counts
        .iter()
        .try_fold(0usize, |acc, &c| acc.checked_add(c))
        .filter(|&t| t <= MAX_TRACE_EVENTS)
        .ok_or_else(|| {
            TraceError::new(
                i,
                format!("declared event count exceeds the cap of {MAX_TRACE_EVENTS}"),
            )
        })?;
    events
        .checked_mul(processes)
        .filter(|&cells| cells <= MAX_TRACE_CLOCK_CELLS)
        .ok_or_else(|| {
            TraceError::new(
                i,
                format!(
                    "{events} events on {processes} processes exceed the clock-matrix cap of \
                     {MAX_TRACE_CLOCK_CELLS} entries"
                ),
            )
        })?;

    // Events are appended process by process, so endpoint `p.k` is event
    // `first[p] + k - 1`.
    let mut b = ComputationBuilder::new(processes);
    b.reserve(events);
    let mut first = Vec::with_capacity(processes);
    for (p, &c) in counts.iter().enumerate() {
        first.push(b.event_count());
        for _ in 0..c {
            b.append(p);
        }
    }

    let mut bool_tracks: BTreeMap<String, Vec<Option<Vec<bool>>>> = BTreeMap::new();
    let mut int_tracks: BTreeMap<String, Vec<Option<Vec<i64>>>> = BTreeMap::new();
    let mut saw_end = false;

    for (i, line) in lines {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "end" {
            saw_end = true;
            break;
        }
        if let Some(rest) = line.strip_prefix("message ") {
            let mut toks = rest.split_whitespace();
            let (from, to) = (
                toks.next()
                    .ok_or_else(|| TraceError::new(i, "missing send endpoint"))?,
                toks.next()
                    .ok_or_else(|| TraceError::new(i, "missing receive endpoint"))?,
            );
            let (sp, sk) = parse_endpoint(from, i)?;
            let (rp, rk) = parse_endpoint(to, i)?;
            let get = |p: usize, k: u32| -> Result<crate::EventId, TraceError> {
                // Endpoints are 1-based; position 0 is the implicit
                // initial event, which cannot send or receive.
                let k1 = k.checked_sub(1).ok_or_else(|| {
                    TraceError::new(i, format!("endpoint {p}.{k}: event index must be >= 1"))
                })? as usize;
                match counts.get(p) {
                    Some(&c) if k1 < c => Ok(crate::EventId::new(first[p] + k1)),
                    _ => Err(TraceError::new(i, format!("no event {p}.{k}"))),
                }
            };
            b.message(get(sp, sk)?, get(rp, rk)?)
                .map_err(|e| TraceError::new(i, e.to_string()))?;
        } else if let Some(rest) = line.strip_prefix("boolvar ") {
            let (name, p, vals) = parse_var_line(rest, i)?;
            let track: Vec<bool> = vals
                .map(|t| match t {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    other => Err(TraceError::new(i, format!("bad bool {other:?}"))),
                })
                .collect::<Result<_, _>>()?;
            let slot = track_slot(&mut bool_tracks, name, p, processes, i)?;
            if slot.replace(track).is_some() {
                return Err(TraceError::new(
                    i,
                    format!("duplicate boolvar line for {name:?} p{p}"),
                ));
            }
        } else if let Some(rest) = line.strip_prefix("intvar ") {
            let (name, p, vals) = parse_var_line(rest, i)?;
            let track: Vec<i64> = vals
                .map(|t| {
                    t.parse()
                        .map_err(|_| TraceError::new(i, format!("bad int {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            let slot = track_slot(&mut int_tracks, name, p, processes, i)?;
            if slot.replace(track).is_some() {
                return Err(TraceError::new(
                    i,
                    format!("duplicate intvar line for {name:?} p{p}"),
                ));
            }
        } else {
            return Err(TraceError::new(i, format!("unrecognized line {line:?}")));
        }
    }
    if !saw_end {
        return Err(TraceError::new(0, "missing end marker"));
    }

    let computation = b.build().map_err(|e| TraceError::new(0, e.to_string()))?;

    let finish_bool = |(name, tracks): (String, Vec<Option<Vec<bool>>>)| {
        let tracks: Option<Vec<Vec<bool>>> = tracks.into_iter().collect();
        let tracks = tracks.ok_or_else(|| {
            TraceError::new(0, format!("boolvar {name:?} missing a process track"))
        })?;
        check_var_shape(&name, &tracks, &counts)?;
        Ok::<_, TraceError>((name, BoolVariable::new(&computation, tracks)))
    };
    let finish_int = |(name, tracks): (String, Vec<Option<Vec<i64>>>)| {
        let tracks: Option<Vec<Vec<i64>>> = tracks.into_iter().collect();
        let tracks = tracks.ok_or_else(|| {
            TraceError::new(0, format!("intvar {name:?} missing a process track"))
        })?;
        check_var_shape(&name, &tracks, &counts)?;
        Ok::<_, TraceError>((name, IntVariable::new(&computation, tracks)))
    };

    Ok(Trace {
        bool_vars: bool_tracks
            .into_iter()
            .map(finish_bool)
            .collect::<Result<_, _>>()?,
        int_vars: int_tracks
            .into_iter()
            .map(finish_int)
            .collect::<Result<_, _>>()?,
        computation,
    })
}

fn parse_var_line(
    rest: &str,
    i: usize,
) -> Result<(&str, usize, std::str::SplitAsciiWhitespace<'_>), TraceError> {
    let (head, values) = rest
        .split_once(':')
        .ok_or_else(|| TraceError::new(i, "missing ':' in variable line"))?;
    let mut toks = head.split_whitespace();
    let name = toks
        .next()
        .ok_or_else(|| TraceError::new(i, "missing variable name"))?;
    let p: usize = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| TraceError::new(i, "missing process index"))?;
    Ok((name, p, values.split_ascii_whitespace()))
}

/// Process `p`'s slot among variable `name`'s tracks; the variable's
/// entry (and its owned name) is created on first sight only.
fn track_slot<'m, T: Clone>(
    tracks: &'m mut BTreeMap<String, Vec<Option<Vec<T>>>>,
    name: &str,
    p: usize,
    processes: usize,
    i: usize,
) -> Result<&'m mut Option<Vec<T>>, TraceError> {
    if !tracks.contains_key(name) {
        tracks.insert(name.to_string(), vec![None; processes]);
    }
    tracks
        .get_mut(name)
        .and_then(|slots| slots.get_mut(p))
        .ok_or_else(|| TraceError::new(i, format!("process {p} out of range")))
}

fn check_var_shape<T>(name: &str, tracks: &[Vec<T>], counts: &[usize]) -> Result<(), TraceError> {
    for (p, track) in tracks.iter().enumerate() {
        if track.len() != counts[p] + 1 {
            return Err(TraceError::new(
                0,
                format!(
                    "variable {name:?} track for p{p} has {} values, expected {}",
                    track.len(),
                    counts[p] + 1
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Computation, BoolVariable, IntVariable) {
        let mut b = ComputationBuilder::new(2);
        let s = b.append(0);
        let r = b.append(1);
        b.append(0);
        b.message(s, r).unwrap();
        let comp = b.build().unwrap();
        let bv = BoolVariable::new(&comp, vec![vec![false, true, false], vec![true, false]]);
        let iv = IntVariable::new(&comp, vec![vec![0, 1, 2], vec![5, 4]]);
        (comp, bv, iv)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (comp, bv, iv) = sample();
        let text = write_trace(&comp, &[("flag", &bv)], &[("x", &iv)]);
        let back = read_trace(&text).unwrap();
        assert_eq!(back.computation.process_count(), 2);
        assert_eq!(back.computation.event_count(), 3);
        assert_eq!(back.computation.messages().len(), 1);
        assert_eq!(back.bool_vars.len(), 1);
        assert_eq!(back.bool_vars[0].0, "flag");
        assert_eq!(back.bool_vars[0].1, bv);
        assert_eq!(back.int_vars[0].1, iv);
        // Happened-before is preserved.
        let s = back.computation.event_at(0, 1).unwrap();
        let r = back.computation.event_at(1, 1).unwrap();
        assert!(back.computation.happened_before(s, r));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "gpd-trace 1\nprocesses 1\ncounts 0\n\n# comment\nend\n";
        assert!(read_trace(text).is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "gpd-trace 1\nprocesses 1\ncounts 0\nmessage 0.1 0.2\nend\n";
        let err = read_trace(bad).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
    }

    #[test]
    fn rejects_bad_magic_and_missing_end() {
        assert!(read_trace("nope\n").is_err());
        assert!(read_trace("gpd-trace 1\nprocesses 1\ncounts 0\n").is_err());
        assert!(read_trace("").is_err());
    }

    #[test]
    fn rejects_malformed_variable_lines() {
        let base = "gpd-trace 1\nprocesses 1\ncounts 1\n";
        assert!(read_trace(&format!("{base}boolvar f 0: 0 2 0\nend\n")).is_err());
        assert!(read_trace(&format!("{base}boolvar f 0 0 1\nend\n")).is_err());
        assert!(read_trace(&format!("{base}intvar x 0: 1\nend\n")).is_err()); // wrong length
        assert!(read_trace(&format!("{base}weird line\nend\n")).is_err());
    }

    #[test]
    fn rejects_duplicate_variable_tracks() {
        let base = "gpd-trace 1\nprocesses 1\ncounts 1\n";
        let dup_bool = format!("{base}boolvar f 0: 0 1\nboolvar f 0: 1 0\nend\n");
        let err = read_trace(&dup_bool).unwrap_err();
        assert!(err.to_string().contains("duplicate boolvar"), "{err}");
        let dup_int = format!("{base}intvar x 0: 1 2\nintvar x 0: 3 4\nend\n");
        let err = read_trace(&dup_int).unwrap_err();
        assert!(err.to_string().contains("duplicate intvar"), "{err}");
        // Same name on *different* processes is fine.
        let ok = "gpd-trace 1\nprocesses 2\ncounts 1 1\nboolvar f 0: 0 1\nboolvar f 1: 1 0\nend\n";
        assert!(read_trace(ok).is_ok());
    }

    #[test]
    fn rejects_oversized_declarations_before_allocating() {
        // A hostile header must fail fast, not exhaust memory.
        let huge_counts = "gpd-trace 1\nprocesses 1\ncounts 99999999999999\nend\n";
        assert!(read_trace(huge_counts).is_err());
        let overflow = format!(
            "gpd-trace 1\nprocesses 2\ncounts {} {}\nend\n",
            usize::MAX,
            usize::MAX
        );
        assert!(read_trace(&overflow).is_err());
        let huge_procs = format!(
            "gpd-trace 1\nprocesses {}\ncounts\nend\n",
            MAX_TRACE_PROCESSES + 1
        );
        assert!(read_trace(&huge_procs).is_err());
        // Both counts within their own caps, but the clock matrix
        // (2^16 processes × 2^24 events) would take 2^42 bytes.
        let wide = format!(
            "gpd-trace 1\nprocesses 65536\ncounts {}{}\nend\n",
            MAX_TRACE_EVENTS,
            " 0".repeat(65535)
        );
        let err = read_trace(&wide).unwrap_err();
        assert!(err.to_string().contains("clock-matrix cap"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        // Width alone is fine: 2^16 processes with 4 events in all.
        let sparse = format!(
            "gpd-trace 1\nprocesses 65536\ncounts 4{}\nend\n",
            " 0".repeat(65535)
        );
        assert!(read_trace(&sparse).is_ok());
    }

    #[test]
    fn zero_based_endpoints_error_explicitly() {
        // Send-position `p.0`.
        let send0 = "gpd-trace 1\nprocesses 2\ncounts 1 1\nmessage 0.0 1.1\nend\n";
        let err = read_trace(send0).unwrap_err();
        assert!(
            err.to_string().contains("event index must be >= 1"),
            "{err}"
        );
        assert!(err.to_string().contains("line 4"), "{err}");
        // Receive-position `q.0`.
        let recv0 = "gpd-trace 1\nprocesses 2\ncounts 1 1\nmessage 0.1 1.0\nend\n";
        let err = read_trace(recv0).unwrap_err();
        assert!(
            err.to_string().contains("event index must be >= 1"),
            "{err}"
        );
        assert!(err.to_string().contains("1.0"), "{err}");
    }

    #[test]
    fn rejects_cyclic_messages() {
        let text = "gpd-trace 1\nprocesses 2\ncounts 2 2\nmessage 0.2 1.1\nmessage 1.2 0.1\nend\n";
        assert!(read_trace(text).is_err());
    }
}
