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
//! the vector-clock matrix the first clock read fills.
//!
//! [`read_trace`] takes exactly this language:
//! - Lines end at `\n` and lose leading and trailing Unicode whitespace,
//!   so CRLF passes. Blank and `#` lines are skipped after the three
//!   header lines, and nothing after the line `end` is read.
//! - Numbers are ASCII digits after an optional `+` (integer values also
//!   take `-`) and must fit `usize` (counts, processes), `u32` (event
//!   indices) or `i64` (values).
//! - `processes` and the body keywords take one ASCII space, so
//!   `message\t…` is rejected. Counts, `message` endpoints and the name
//!   and process before a variable line's `:` split on Unicode whitespace
//!   (tab, VT, U+00A0, U+3000, …); only the first two endpoint or head
//!   tokens are read. Values split on ASCII whitespace only (not VT or
//!   U+00A0), and booleans are `0` or `1`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::builder::ComputationBuilder;
use crate::computation::Computation;
use crate::event::EventId;
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

    fn at<T>(line: usize, message: impl Into<String>) -> Result<T, Self> {
        Err(TraceError::new(line, message))
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
    // Up to 24 bytes a line head, two a boolean state (` 1`) and about
    // four an integer one. Writing into a String cannot fail.
    let (n, vars) = (comp.process_count(), bool_vars.len() + int_vars.len());
    let heads = n + comp.messages().len() + vars * n;
    let states = (2 * bool_vars.len() + 4 * int_vars.len()) * (comp.event_count() + n);
    let mut out = String::with_capacity(24 * heads + states);
    let _ = write!(out, "gpd-trace 1\nprocesses {n}\ncounts");
    for p in 0..n {
        let _ = write!(out, " {}", comp.events_on(p));
    }
    for &(s, r) in comp.messages() {
        let (sp, rp) = (comp.process_of(s).index(), comp.process_of(r).index());
        let (sk, rk) = (comp.local_index(s), comp.local_index(r));
        let _ = write!(out, "\nmessage {sp}.{sk} {rp}.{rk}");
    }
    for (name, var) in bool_vars {
        for (p, track) in var.tracks().iter().enumerate() {
            let _ = write!(out, "\nboolvar {name} {p}:");
            for &v in track {
                out.push_str(if v { " 1" } else { " 0" });
            }
        }
    }
    for (name, var) in int_vars {
        for (p, track) in var.tracks().iter().enumerate() {
            let _ = write!(out, "\nintvar {name} {p}:");
            for &v in track {
                let _ = write!(out, " {v}");
            }
        }
    }
    out.push_str("\nend\n");
    out
}

/// Each variable's per-process track slots, keyed by its name in the input.
type Tracks<'a, T> = BTreeMap<&'a str, Vec<Option<Vec<T>>>>;

/// Parses a trace produced by [`write_trace`] in one pass over its bytes,
/// taking the language the module docs give. Each track is filled in a
/// vector reserved at its declared length, so a well-formed trace costs
/// a constant number of allocations plus one per (variable, process)
/// track and two per variable, whatever its message and value counts.
///
/// # Errors
///
/// Returns [`TraceError`] (with a line number) on any malformed header,
/// message, or variable line, on shape mismatches, or if the messages
/// form a causal cycle.
pub fn read_trace(input: &str) -> Result<Trace, TraceError> {
    let mut lines = (1..).zip(lines(input));
    let mut next = |i, missing: &str| lines.next().ok_or_else(|| TraceError::new(i, missing));
    let (i, header) = next(0, "empty input")?;
    if header != "gpd-trace 1" {
        return TraceError::at(i, format!("bad magic {header:?}"));
    }
    let (i, line) = next(i, "missing processes line")?;
    let Some(processes) = line.strip_prefix("processes ").and_then(decimal::<usize>) else {
        return TraceError::at(i, format!("bad processes line {line:?}"));
    };
    if processes > MAX_TRACE_PROCESSES {
        let cap = MAX_TRACE_PROCESSES;
        return TraceError::at(i, format!("{processes} processes exceeds the cap of {cap}"));
    }
    let (i, line) = next(i, "missing counts line")?;
    let Some(counts) = line.strip_prefix("counts") else {
        return TraceError::at(i, format!("bad counts line {line:?}"));
    };
    // first[p] is process p's first event and first[processes] the
    // total; an overflowing total saturates and fails the cap below.
    let mut first: Vec<usize> = Vec::with_capacity(processes + 1);
    first.push(0);
    for count in words(counts) {
        let count: usize = decimal(count).ok_or_else(|| TraceError::new(i, "bad event count"))?;
        first.push(first[first.len() - 1].saturating_add(count));
    }
    if first.len() != processes + 1 {
        let counts = first.len() - 1;
        return TraceError::at(i, format!("{counts} counts for {processes} processes"));
    }
    let (events, cap) = (first[processes], MAX_TRACE_EVENTS);
    if events > cap {
        return TraceError::at(i, format!("declared event count exceeds the cap of {cap}"));
    }
    let cells = events.checked_mul(processes);
    if cells.is_none_or(|cells| cells > MAX_TRACE_CLOCK_CELLS) {
        let cap = format!("exceed the clock-matrix cap of {MAX_TRACE_CLOCK_CELLS} entries");
        return TraceError::at(i, format!("{events} events on {processes} processes {cap}"));
    }

    // Events are appended process by process, so endpoint `p.k` is event
    // `first[p] + k - 1`. A message line takes at least 16 bytes
    // (`message 0.1 1.1` and its newline), which bounds the messages.
    let mut b = ComputationBuilder::new(processes);
    b.reserve(events);
    b.reserve_messages(input.len() / 16);
    for p in 0..processes {
        b.append_run(p, first[p + 1] - first[p]);
    }
    // Endpoints are 1-based; position 0 is the implicit initial event,
    // which cannot send or receive.
    let event = |i, p: usize, k: u32| match (k as usize).checked_sub(1) {
        None => TraceError::at(i, format!("endpoint {p}.{k}: event index must be >= 1")),
        Some(j) if p < processes && j < first[p + 1] - first[p] => Ok(EventId::new(first[p] + j)),
        Some(_) => TraceError::at(i, format!("no event {p}.{k}")),
    };

    let (mut bools, mut ints): (Tracks<bool>, Tracks<i64>) = Default::default();
    loop {
        let Some((i, line)) = lines.next() else {
            return TraceError::at(0, "missing end marker");
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "end" {
            break;
        }
        if let Some(mut rest) = line.strip_prefix("message ") {
            let (from, to) = (endpoint(&mut rest), endpoint(&mut rest));
            let from = from.ok_or_else(|| TraceError::new(i, "missing send endpoint"))?;
            let to = to.ok_or_else(|| TraceError::new(i, "missing receive endpoint"))?;
            let (sp, sk) = from.map_err(|tok| endpoint_error(tok, i))?;
            let (rp, rk) = to.map_err(|tok| endpoint_error(tok, i))?;
            b.message(event(i, sp, sk)?, event(i, rp, rk)?)
                .map_err(|e| TraceError::new(i, e.to_string()))?;
        } else if let Some(rest) = line.strip_prefix("boolvar ") {
            let bit = |t: &[u8]| (t.len() == 1 && t[0] | 1 == b'1').then(|| t[0] == b'1');
            read_var(rest, i, &first, &mut bools, "boolvar", bit)?;
        } else if let Some(rest) = line.strip_prefix("intvar ") {
            read_var(rest, i, &first, &mut ints, "intvar", signed)?;
        } else {
            return TraceError::at(i, format!("unrecognized line {line:?}"));
        }
    }

    let computation = b.build().map_err(|e| TraceError::new(0, e.to_string()))?;
    Ok(Trace {
        bool_vars: finish(bools, "boolvar", &computation, BoolVariable::new)?,
        int_vars: finish(ints, "intvar", &computation, IntVariable::new)?,
        computation,
    })
}

/// The lines of `s` as `str::lines` splits them, without leading and
/// trailing Unicode whitespace. The newline search tests eight bytes a
/// step, and `trim` runs only when an end byte is not printable ASCII.
fn lines(mut s: &str) -> impl Iterator<Item = &str> {
    std::iter::from_fn(move || {
        let (b, mut i) = (s.as_bytes(), 0);
        while let Some(word) = b[i..].first_chunk::<8>() {
            let x = u64::from_le_bytes(*word) ^ 0x0a0a_0a0a_0a0a_0a0a;
            let newline = x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080;
            if newline != 0 {
                i += newline.trailing_zeros() as usize / 8;
                break;
            }
            i += 8;
        }
        while b.get(i).is_some_and(|&c| c != b'\n') {
            i += 1;
        }
        let line = s.get(..i).filter(|_| !b.is_empty())?;
        s = s.get(i + 1..).unwrap_or("");
        match (line.as_bytes().first(), line.as_bytes().last()) {
            (Some(a), Some(z)) if a.is_ascii_graphic() && z.is_ascii_graphic() => Some(line),
            _ => Some(line.trim()),
        }
    })
}

/// The first index from `i` on whose character is Unicode whitespace,
/// or is not when `space` is set; ASCII bytes are tested undecoded.
fn skip(s: &str, mut i: usize, space: bool) -> usize {
    while let Some(&c) = s.as_bytes().get(i) {
        if c >= 0x80 {
            let rest = s[i..].find(|c: char| c.is_whitespace() != space);
            return rest.map_or(s.len(), |n| i + n);
        }
        if matches!(c, b'\t'..=b'\r' | b' ') != space {
            break;
        }
        i += 1;
    }
    i
}

/// The tokens between runs of Unicode whitespace, as
/// `str::split_whitespace` gives them.
fn words(mut s: &str) -> impl Iterator<Item = &str> {
    std::iter::from_fn(move || {
        let start = skip(s, 0, true);
        let end = skip(s, start, false);
        let word = &s[start..end];
        s = &s[end..];
        (end > start).then_some(word)
    })
}

/// Reads an unsigned number at `b[*i..]` like `str::parse` (digits after
/// an optional `+`), moving `*i` past it; `None` without digits or on
/// overflow. Digits accumulate unchecked: a run of up to 19 cannot
/// overflow, so only a longer one is tested, once.
fn number(b: &[u8], i: &mut usize) -> Option<u64> {
    *i += usize::from(b.get(*i) == Some(&b'+'));
    let (start, mut v) = (*i, 0u64);
    while let Some(&c @ b'0'..=b'9') = b.get(*i) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        *i += 1;
    }
    (*i > start && (*i - start < 20 || fits_u64(&b[start..*i]))).then_some(v)
}

/// Whether a run of ASCII digits is at most `u64::MAX`.
#[cold]
fn fits_u64(digits: &[u8]) -> bool {
    let significant = &digits[digits.iter().take_while(|&&c| c == b'0').count()..];
    (significant.len(), significant) <= (20, b"18446744073709551615".as_slice())
}

/// An `i64` token as `str::parse` reads it: a [`decimal`], or `-` and
/// digits.
fn signed(t: &[u8]) -> Option<i64> {
    match t {
        [b'-', b'+', ..] => None,
        [b'-', digits @ ..] => 0i64.checked_sub_unsigned(decimal(digits)?),
        _ => decimal(t),
    }
}

/// A whole token read as an unsigned [`number`] of type `T`.
fn decimal<T: TryFrom<u64>>(t: impl AsRef<[u8]>) -> Option<T> {
    let (t, mut i) = (t.as_ref(), 0);
    let v = number(t, &mut i).filter(|_| i == t.len())?;
    v.try_into().ok()
}

/// Takes the first `p.k` endpoint token off `text`: its value, or the
/// token itself if malformed; `None` if `text` has no token.
fn endpoint<'a>(text: &mut &'a str) -> Option<Result<(usize, u32), &'a str>> {
    let (s, start) = (*text, skip(text, 0, true));
    let (b, mut i) = (s.as_bytes(), start);
    let p = number(b, &mut i);
    let dot = b.get(i) == Some(&b'.');
    i += usize::from(dot);
    let k = number(b, &mut i).filter(|_| dot);
    let end = skip(s, i, false);
    let value = match (p, k) {
        (Some(p), Some(k)) if end == i => p.try_into().ok().zip(k.try_into().ok()),
        _ => None,
    };
    *text = &s[end..];
    (end > start).then(|| value.ok_or_else(|| &s[start..end]))
}

/// Why the token `tok` is not a `p.k` endpoint.
fn endpoint_error(tok: &str, line: usize) -> TraceError {
    let why = match tok.find('.') {
        None => "bad endpoint",
        Some(dot) if decimal::<usize>(&tok[..dot]).is_none() => "bad process in",
        Some(_) => "bad index in",
    };
    TraceError::new(line, format!("{why} {tok:?}"))
}

/// Reads `NAME p: v…` (after the keyword) into NAME's slot for process
/// `p`, checking every value, then `p`, then that the slot is empty.
fn read_var<'a, T: Clone>(
    rest: &'a str,
    i: usize,
    first: &[usize],
    tracks: &mut Tracks<'a, T>,
    kind: &str,
    value: impl Fn(&[u8]) -> Option<T>,
) -> Result<(), TraceError> {
    let Some(colon) = rest.find(':') else {
        return TraceError::at(i, "missing ':' in variable line");
    };
    let mut head = words(&rest[..colon]);
    let name = head
        .next()
        .ok_or_else(|| TraceError::new(i, "missing variable name"))?;
    let Some(p) = head.next().and_then(decimal::<usize>) else {
        return TraceError::at(i, "missing process index");
    };
    let (values, processes) = (&rest[colon + 1..], first.len() - 1);
    // At two bytes a value, a short line cannot reserve a hostile length.
    let declared = (p < processes).then(|| first[p + 1] - first[p] + 1);
    let mut track = Vec::with_capacity(declared.unwrap_or(0).min(values.len() / 2 + 1));
    for tok in values.split_ascii_whitespace() {
        let Some(v) = value(tok.as_bytes()) else {
            return TraceError::at(i, format!("bad {} {tok:?}", kind.trim_end_matches("var")));
        };
        track.push(v);
    }
    if p >= processes {
        return TraceError::at(i, format!("process {p} out of range"));
    }
    let slot = &mut tracks.entry(name).or_insert_with(|| vec![None; processes])[p];
    if slot.replace(track).is_some() {
        return TraceError::at(i, format!("duplicate {kind} line for {name:?} p{p}"));
    }
    Ok(())
}

/// The variables in name order, once every process has a track of its
/// declared length.
fn finish<T, V>(
    tracks: Tracks<'_, T>,
    kind: &str,
    comp: &Computation,
    var: impl Fn(&Computation, Vec<Vec<T>>) -> V,
) -> Result<Vec<(String, V)>, TraceError> {
    let mut vars = Vec::with_capacity(tracks.len());
    for (name, slots) in tracks {
        let Some(tracks) = slots.into_iter().collect::<Option<Vec<_>>>() else {
            return TraceError::at(0, format!("{kind} {name:?} missing a process track"));
        };
        for (p, track) in tracks.iter().enumerate() {
            let (got, expected) = (track.len(), comp.events_on(p) + 1);
            if got != expected {
                let what = format!("variable {name:?} track for p{p}");
                return TraceError::at(0, format!("{what} has {got} values, expected {expected}"));
            }
        }
        vars.push((name.to_string(), var(comp, tracks)));
    }
    Ok(vars)
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

    /// The one-pass reader against the `str` oracle: equal errors on
    /// rejected input, equal traces on accepted input, and the writer
    /// byte for byte against the oracle's.
    mod differential {
        use super::oracle;
        use super::*;
        use crate::gen;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        const NAMES: [&str; 6] = ["b", "ß", "名前", "é_1", "#c", "end"];
        const SPACES: [&str; 9] = [
            " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{a0}", "\u{3000}", "\u{85}",
        ];
        const ENDINGS: [&str; 5] = ["\n", "\r\n", " \n", "\u{a0}\n", "\x0b\n"];
        const NUMBERS: [&str; 25] = [
            "+",
            "-",
            "00",
            "+0",
            "-0",
            "+7",
            "007",
            "٣",
            "999999999",
            "000000007",
            "9999999999",
            "0000000007",
            "4294967295",
            "4294967296",
            "9999999999999999999",
            "0000000000000000007",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "00000000000000000007",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "000000000000000000000018446744073709551615",
        ];
        /// Whole `p.k` endpoint shapes, swapped in for a number and the
        /// `.k` after it.
        const ENDPOINTS: [&str; 10] = [
            "4294967295.1",
            "0.4294967296",
            "1.+1",
            "1.",
            ".1",
            "1..1",
            "1.٣",
            "1.\u{a0}1",
            "1.\u{3000}1",
            "0000000000000000000001.00000000000000000000004294967295",
        ];

        fn written(t: &Trace) -> String {
            let bools: Vec<_> = t.bool_vars.iter().map(|(n, v)| (n.as_str(), v)).collect();
            let ints: Vec<_> = t.int_vars.iter().map(|(n, v)| (n.as_str(), v)).collect();
            write_trace(&t.computation, &bools, &ints)
        }

        /// Asserts both readers agree on `text`; true if they accept it.
        fn agree(text: &str) -> bool {
            match (read_trace(text), oracle::read_trace(text)) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(written(&new), written(&old), "on {text:?}");
                    assert_eq!(new.bool_vars, old.bool_vars, "on {text:?}");
                    assert_eq!(new.int_vars, old.int_vars, "on {text:?}");
                    true
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new, old, "on {text:?}");
                    false
                }
                (new, old) => panic!(
                    "readers disagree on {text:?}: {:?} against {:?}",
                    new.map(|_| ()),
                    old.map(|_| ())
                ),
            }
        }

        fn random_trace(rng: &mut StdRng) -> String {
            let n = rng.gen_range(1..5);
            let m = rng.gen_range(0..6);
            let msgs = if n > 1 && m > 0 {
                rng.gen_range(0..8)
            } else {
                0
            };
            let comp = gen::random_computation(rng, n, m, msgs);
            let bv = gen::random_bool_variable(rng, &comp, 0.5);
            let iv = gen::random_int_variable(rng, &comp, 50);
            let (b, x) = (*NAMES.choose(rng).unwrap(), *NAMES.choose(rng).unwrap());
            write_trace(&comp, &[(b, &bv)], &[(x, &iv)])
        }

        /// Printable ASCII noise with some line breaks.
        fn garbage(rng: &mut StdRng) -> String {
            let len = rng.gen_range(0..40);
            (0..len)
                .map(|_| match char::from(rng.gen_range(0x20u8..0x7f)) {
                    '|' => '\n',
                    c => c,
                })
                .collect()
        }

        /// Swaps separators, line endings, numbers and endpoints of
        /// `text` for the variants above, each at `rate`.
        fn decorate(text: &str, rng: &mut StdRng, rate: f64) -> String {
            let mut out = String::with_capacity(2 * text.len());
            let mut chars = text.chars().peekable();
            let mut prev = '\n';
            while let Some(c) = chars.next() {
                let hit = rng.gen_bool(rate);
                match c {
                    ' ' if hit => out.push_str(SPACES.choose(rng).unwrap()),
                    '\n' if hit => out.push_str(ENDINGS.choose(rng).unwrap()),
                    '0'..='9' if hit && !prev.is_ascii_digit() => match rng.gen_range(0..4) {
                        0 => out.extend(['+', c]),
                        1 => out.extend(['0', c]),
                        2 => {
                            out.push_str(NUMBERS.choose(rng).unwrap());
                            while chars.next_if(char::is_ascii_digit).is_some() {}
                        }
                        _ => {
                            out.push_str(ENDPOINTS.choose(rng).unwrap());
                            while chars.next_if(char::is_ascii_digit).is_some() {}
                            if chars.next_if_eq(&'.').is_some() {
                                while chars.next_if(char::is_ascii_digit).is_some() {}
                            }
                        }
                    },
                    _ => out.push(c),
                }
                prev = c;
            }
            out
        }

        /// A random trace, decorated, then put through one of the
        /// `trace_fuzz` families or given text after its `end`.
        fn input(seed: u64, rate: f64, family: usize) -> String {
            let rng = &mut StdRng::seed_from_u64(seed);
            let text = decorate(&random_trace(rng), rng, rate);
            let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
            let (a, b) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
            match family {
                0 => text,
                1 => {
                    let cut = rng.gen_range(0..=text.len());
                    let cut = (0..=cut).rev().find(|&c| text.is_char_boundary(c));
                    text[..cut.unwrap_or(0)].to_string()
                }
                2 => {
                    match rng.gen_range(0..3) {
                        0 => lines.insert(a, lines[b].clone()),
                        1 => drop(lines.remove(a)),
                        _ => lines.swap(a, b),
                    }
                    lines.join("\n")
                }
                3 => {
                    lines.insert(a, garbage(rng));
                    lines.join("\n")
                }
                _ => text + &garbage(rng),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn reader_agrees_with_the_str_oracle(
                seed in any::<u64>(),
                rate in 0.0f64..0.05,
                family in 0usize..5,
            ) {
                agree(&input(seed, rate, family));
            }

            #[test]
            fn writer_agrees_with_the_oracle_byte_for_byte(
                seed in any::<u64>(),
                n in 1usize..6,
                m in 0usize..8,
                msgs in 0usize..12,
            ) {
                let rng = &mut StdRng::seed_from_u64(seed);
                let msgs = if n > 1 && m > 0 { msgs } else { 0 };
                let comp = gen::random_computation(rng, n, m, msgs);
                let bv = gen::random_bool_variable(rng, &comp, 0.5);
                let iv = gen::random_int_variable(rng, &comp, i64::MAX);
                let (bools, ints) = ([("ß", &bv)], [("x", &iv), ("名前", &iv)]);
                prop_assert_eq!(
                    write_trace(&comp, &bools, &ints),
                    oracle::write_trace(&comp, &bools, &ints)
                );
            }
        }

        /// The differential inputs exercise both sides: at least a fifth
        /// of them parse and at least a fifth are rejected.
        #[test]
        fn differential_inputs_are_accepted_and_rejected() {
            let accepted = (0..600u64)
                .filter(|&s| agree(&input(s, (s % 7) as f64 / 300.0, (s % 5) as usize)))
                .count();
            assert!(
                (120..=480).contains(&accepted),
                "{accepted} of 600 accepted"
            );
        }

        #[test]
        fn pinned_edge_cases_agree() {
            let base = "gpd-trace 1\nprocesses 2\ncounts 1 1\n";
            for body in [
                "message\t0.1 1.1\nend\n",
                "message 0.1 1.1 extra 9.9\nend\n",
                "message 0.4294967295 1.1\nend\n",
                "message 0.4294967296 1.1\nend\n",
                "message 0.+1 +1.01\nend\n",
                "message 0.1\u{a0}1.1\u{85}\nend\n",
                "message 0.1.1 1.1\nend\n",
                "message 0.1\nend\n",
                "message 4294967295.1 1.1\nend\n",
                "message 0.1 1.000000000000000000001\nend\n",
                "message 0.1 1.0000000000000000000004294967296\nend\n",
                "message 0.+1 1.\nend\n",
                "message .1 1.1\nend\n",
                "message 0..1 1.1\nend\n",
                "message 0.٣ 1.1\nend\n",
                "message 0.\u{a0}1 1.1\nend\n",
                "message 0.99999999999999999999 1.1\nend\n",
                "intvar x 0: 000000000000000000000009223372036854775807 -00000000000000000000001\nintvar x 1: 0 0\nend\n",
                "intvar x 0: 9223372036854775807 -9223372036854775808\nintvar x 1: 0 0\nend\n",
                "intvar x 0: 9223372036854775808 0\nend\n",
                "intvar x 0: -9223372036854775809 0\nend\n",
                "intvar x 0: 0\x0b1\nend\n",
                "intvar x 0: - 0\nend\n",
                "boolvar 名前\u{3000}1\x0b: 0\x0c1\r\nboolvar 名前 0 junk: 1 0\nend\n",
                "boolvar f 0: 0\u{a0}1\nend\n",
                "boolvar f 2: 2\nend\n",
                "boolvar f 0: 0 1\nboolvar f 0: 2\nend\n",
                "boolvar f 0: 0 1\nend\nnot a line\n",
                "boolvar f 0 0 1\nend\n",
                "boolvar : 0 1\nend\n",
                "boolvar f : 0 1\nend\n",
                "boolvar f 0: 0 1\nboolvar f 1: 0 1 1\nend\n",
                "boolvar f 0: 0 1\nend",
                "  # indented comment\n\t\nend  \n",
                "endless\n",
            ] {
                agree(&format!("{base}{body}"));
            }
            for text in [
                "",
                "\n",
                "gpd-trace 1",
                "gpd-trace 1\n",
                "gpd-trace 1\nprocesses 2",
                "gpd-trace 1\r\nprocesses +2\r\ncounts\x0b1\u{a0}+01\r\nend\r\n",
                "gpd-trace 1\nprocesses  2\ncounts 1 1\nend\n",
                "gpd-trace 1\nprocesses 1\ncounts5\nend\n",
                "gpd-trace 1\nprocesses 1\ncountsx\nend\n",
                "gpd-trace 1\nprocesses 2\ncounts 18446744073709551615 1\nend\n",
                "gpd-trace 1\nprocesses 2\ncounts 18446744073709551616 1\nend\n",
                "gpd-trace 1\nprocesses 3\ncounts 1 1\nend\n",
                "\u{feff}gpd-trace 1\nprocesses 1\ncounts 0\nend\n",
                "\u{2003}gpd-trace 1\u{2028}\nprocesses 1\ncounts 0\nend\n",
            ] {
                agree(text);
            }
        }
    }

    /// The `str` reader (and its writer) that the one-pass reader
    /// replaced, kept verbatim as the differential oracle.
    mod oracle {
        use std::collections::BTreeMap;

        use super::super::MAX_TRACE_PROCESSES;
        use super::super::{Trace, TraceError, MAX_TRACE_CLOCK_CELLS, MAX_TRACE_EVENTS};
        use crate::builder::ComputationBuilder;
        use crate::computation::Computation;
        use crate::variables::{BoolVariable, IntVariable};

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
                            TraceError::new(
                                i,
                                format!("endpoint {p}.{k}: event index must be >= 1"),
                            )
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

        fn check_var_shape<T>(
            name: &str,
            tracks: &[Vec<T>],
            counts: &[usize],
        ) -> Result<(), TraceError> {
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
    }
}
