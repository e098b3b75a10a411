//! Resource governance for the NP-hard engines: budgets, three-valued
//! verdicts, and resumable checkpoints.
//!
//! General predicate detection is NP-complete (the paper's Theorem 1) and
//! the cut lattice can be exponential, so the exhaustive engines
//! ([`crate::enumerate`], [`crate::singular`]'s §3.3 walks, the
//! `Definitely` sweeps in [`crate::relational`]) may run arbitrarily
//! long. A [`Budget`] bounds a run by wall-clock deadline, explored-node
//! count, and materialized-level width; a run that exhausts its budget
//! returns [`Verdict::Unknown`] instead of an answer, carrying
//!
//! * sound partial bounds ([`Progress`]: levels fully swept without a
//!   witness, combinations eliminated, the max-flow sum interval), and
//! * a serializable [`Checkpoint`] from which a later call **resumes and
//!   reaches the identical verdict and witness the uninterrupted run
//!   would have** — byte for byte, at any thread count.
//!
//! That replay guarantee holds because the budgeted engines only
//! checkpoint at *deterministic* boundaries (a fully swept lattice level,
//! a completed odometer wave); work interrupted mid-boundary is discarded
//! and redone on resume. See `docs/ALGORITHMS.md` §10 for the argument
//! per engine.
//!
//! The same layer hardens the engines against panicking predicate
//! closures: every budgeted entry point runs under `catch_unwind` (and
//! [`crate::par`]'s workers recover poisoned locks), so a panic surfaces
//! as [`DetectError::PredicatePanicked`] instead of aborting the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gpd_computation::{fnv1a, Computation, Cut};

/// Resource limits for one detection call. All limits are optional;
/// [`Budget::unlimited`] never interrupts.
///
/// Limits are *per call*: a resumed run gets a fresh deadline and node
/// meter. Resuming therefore makes forward progress whenever the budget
/// covers at least one checkpoint boundary (one lattice level, one
/// odometer wave); the width cap is the exception — it is a hard memory
/// bound, so a level too wide for it fails identically on every resume.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_nodes: Option<u64>,
    max_width: Option<usize>,
}

impl Budget {
    /// A budget that never interrupts.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps wall-clock time, measured from now.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Caps wall-clock time at an absolute instant.
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Caps the number of explored search nodes (cuts probed or
    /// expanded, scan combinations visited).
    pub fn with_max_nodes(mut self, nodes: u64) -> Self {
        self.max_nodes = Some(nodes);
        self
    }

    /// Caps the width of any materialized lattice level (the visited-set
    /// memory bound of the level-synchronous sweeps).
    pub fn with_max_width(mut self, width: usize) -> Self {
        self.max_width = Some(width);
        self
    }

    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_nodes.is_none() && self.max_width.is_none()
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero once exceeded).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    pub(crate) fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    pub(crate) fn nodes_exceeded(&self, nodes: u64) -> bool {
        self.max_nodes.is_some_and(|cap| nodes >= cap)
    }

    pub(crate) fn width_exceeded(&self, width: usize) -> bool {
        self.max_width.is_some_and(|cap| width > cap)
    }
}

/// Shared node counter for one detection call. Callers create one, pass
/// it to a budgeted engine, and can read the consumption afterwards on
/// **every** outcome — decided, unknown, or error (`gpd detect --stats`
/// reports it).
#[derive(Debug, Default)]
pub struct BudgetMeter {
    nodes: AtomicU64,
}

impl BudgetMeter {
    pub fn new() -> Self {
        BudgetMeter::default()
    }

    /// Explored nodes charged so far.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    pub(crate) fn charge(&self, nodes: u64) {
        self.nodes.fetch_add(nodes, Ordering::Relaxed);
    }
}

/// Why a budgeted run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The explored-node cap was reached.
    Nodes,
    /// A lattice level outgrew the width (memory) cap.
    Width,
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustReason::Deadline => write!(f, "deadline exceeded"),
            ExhaustReason::Nodes => write!(f, "node cap reached"),
            ExhaustReason::Width => write!(f, "level width cap exceeded"),
        }
    }
}

/// What a budgeted engine established before it stopped. Every bound is
/// *sound*: a level is only counted in `levels_swept` after the whole
/// level was probed witness-free, and `combinations_eliminated` counts
/// only combinations whose scans fully settled dead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress {
    /// Search nodes explored (cuts probed/expanded, combinations
    /// scanned) by this call.
    pub nodes_explored: u64,
    /// Lattice levels fully swept without finding a witness
    /// (level-synchronous engines only): levels `0..levels_swept`
    /// provably contain none.
    pub levels_swept: Option<u32>,
    /// Odometer combinations provably eliminated (§3.3 engines only):
    /// indices `0..combinations_eliminated` admit no witness.
    pub combinations_eliminated: Option<u64>,
    /// Size of the full combination space, when known.
    pub combinations_total: Option<u64>,
    /// `(min Σ, max Σ)` over all consistent cuts from the push-relabel
    /// closure network (exact-sum fallback only): any witness sum lies
    /// inside.
    pub sum_interval: Option<(i64, i64)>,
}

impl Progress {
    pub(crate) fn with_nodes(meter: &BudgetMeter) -> Self {
        Progress {
            nodes_explored: meter.nodes(),
            ..Progress::default()
        }
    }
}

/// An exhausted budget: why, how far the run got, and where to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partial {
    pub reason: ExhaustReason,
    pub progress: Progress,
    pub checkpoint: Checkpoint,
}

/// Three-valued outcome of a budgeted detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<T> {
    /// The search completed; `T` is exactly what the unbudgeted engine
    /// returns (witness cut or boolean).
    Decided(T, Progress),
    /// The budget ran out first; resume from the carried checkpoint.
    Unknown(Partial),
}

impl<T> Verdict<T> {
    pub fn is_decided(&self) -> bool {
        matches!(self, Verdict::Decided(..))
    }

    /// The decided value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            Verdict::Decided(value, _) => Some(value),
            Verdict::Unknown(_) => None,
        }
    }

    pub fn progress(&self) -> &Progress {
        match self {
            Verdict::Decided(_, progress) => progress,
            Verdict::Unknown(partial) => &partial.progress,
        }
    }

    /// Maps the decided value; an `Unknown` verdict passes through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Verdict<U> {
        match self {
            Verdict::Decided(value, progress) => Verdict::Decided(f(value), progress),
            Verdict::Unknown(partial) => Verdict::Unknown(partial),
        }
    }

    /// The checkpoint carried by an `Unknown` verdict.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            Verdict::Decided(..) => None,
            Verdict::Unknown(partial) => Some(&partial.checkpoint),
        }
    }
}

/// A budgeted engine failed outright (as opposed to running out of
/// budget, which is the [`Verdict::Unknown`] path), or
/// [`crate::detect()`] refused the question as asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectError {
    /// The caller's predicate closure panicked mid-search. The panic was
    /// contained: no worker poisoned a lock, no partial state leaked.
    PredicatePanicked(String),
    /// A resume checkpoint does not match this engine, computation, or
    /// combination space.
    CheckpointMismatch(String),
    /// A resume checkpoint was offered for the named polynomial question,
    /// whose engine never checkpoints.
    NotResumable(&'static str),
    /// Forced slicing was asked of the named predicate class, which has
    /// no regular envelope.
    NotRegular(&'static str),
    /// Forced slicing was asked of a CNF with no unit clause.
    NoEnvelope,
    /// The question needs exhaustive enumeration on a computation above
    /// [`crate::detect::ENUMERATION_LIMIT`] events, and the caller
    /// neither opted in nor set a budget.
    NeedsEnumeration {
        /// What needs the enumeration.
        what: String,
        /// The computation's event count.
        events: usize,
    },
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::PredicatePanicked(msg) => {
                write!(f, "predicate closure panicked: {msg}")
            }
            DetectError::CheckpointMismatch(msg) => {
                write!(f, "checkpoint mismatch: {msg}")
            }
            DetectError::NotResumable(question) => write!(
                f,
                "--resume does not apply to {question}: it is polynomial and never checkpoints"
            ),
            DetectError::NotRegular(class) => write!(
                f,
                "--slice force applies only to conjunction and cnf predicates; \
                 {class} predicates are not regular"
            ),
            DetectError::NoEnvelope => write!(
                f,
                "--slice force needs a regular envelope, but the CNF has no unit clause \
                 (nothing regular to slice on)"
            ),
            DetectError::NeedsEnumeration { what, events } => write!(
                f,
                "{what} needs exhaustive enumeration (exponential); pass --enumerate to force it \
                 ({events} events here, guard is {})",
                crate::detect::ENUMERATION_LIMIT
            ),
        }
    }
}

impl std::error::Error for DetectError {}

/// Runs an engine body with panic containment: a panicking predicate
/// closure (on any worker — [`crate::par`] re-raises worker panics on
/// the calling thread) becomes [`DetectError::PredicatePanicked`].
pub(crate) fn catch_detect<T>(f: impl FnOnce() -> T) -> Result<T, DetectError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic payload of unknown type".to_string()
        };
        DetectError::PredicatePanicked(msg)
    })
}

/// Runs a budgeted `engine` on 0 threads under [`Budget::unlimited`]
/// without a resume checkpoint, which always decides — the plain
/// sequential form of every budgeted engine. A predicate panic the
/// engine contained is re-raised.
pub(crate) fn sequential<T>(
    engine: impl FnOnce(usize, &Budget, &BudgetMeter) -> Result<Verdict<T>, DetectError>,
) -> T {
    match engine(0, &Budget::unlimited(), &BudgetMeter::new()) {
        Ok(Verdict::Decided(value, _)) => value,
        Ok(Verdict::Unknown(_)) => unreachable!("unlimited budgets always decide"),
        Err(err) => panic!("{err}"),
    }
}

/// FNV-1a fingerprint of a computation's shape (process count, events
/// per process, message endpoints). Checkpoints embed it so a resume
/// against a different computation is refused instead of silently
/// producing garbage.
pub fn problem_fingerprint(comp: &Computation) -> u64 {
    let words = std::iter::once(comp.process_count() as u64)
        .chain((0..comp.process_count()).map(|p| comp.events_on(p) as u64))
        .chain(
            comp.messages()
                .iter()
                .map(|&(s, r)| ((s.index() as u64) << 32) | r.index() as u64),
        );
    fnv1a(words)
}

/// Fingerprint of one §3.3 combination space: the computation plus the
/// per-clause dimension sizes the odometer runs over.
pub(crate) fn odometer_fingerprint(comp: &Computation, sizes: &[usize]) -> u64 {
    fnv1a(
        std::iter::once(problem_fingerprint(comp))
            .chain(std::iter::once(sizes.len() as u64))
            .chain(sizes.iter().map(|&s| s as u64)),
    )
}

/// A resumable position in a budgeted search, produced by
/// [`Verdict::Unknown`] and accepted by the same engine's `resume`
/// parameter. Serializable as a line-oriented text document
/// ([`Checkpoint::to_text`] / [`Checkpoint::from_text`]) so the CLI can
/// round-trip it through a file (`--checkpoint` / `--resume`).
///
/// Both variants embed the engine name, a [`problem_fingerprint`], and a
/// digest over the payload; resume validates all three plus the payload's
/// internal consistency, so a stale, corrupted, or mismatched checkpoint
/// is a [`DetectError::CheckpointMismatch`], never a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// A level-synchronous sweep stopped with `frontiers` — the cuts of
    /// lattice level `level`, canonically sorted — not yet processed.
    /// Every level below is fully swept.
    Level {
        detector: String,
        /// Free-form caller metadata (the CLI stores the predicate
        /// expression and verifies it on resume). Not part of the digest
        /// validation performed by the engines.
        label: String,
        problem: u64,
        level: u32,
        frontiers: Vec<Vec<u32>>,
    },
    /// A §3.3 odometer walk stopped before combination index `next`
    /// (of `total`); all lower indices are fully eliminated.
    Odometer {
        detector: String,
        /// See [`Checkpoint::Level::label`].
        label: String,
        problem: u64,
        next: u64,
        total: u64,
    },
}

/// Parse error for [`Checkpoint::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    /// 1-based line of the offending input (0 for whole-document
    /// problems such as a digest mismatch).
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CheckpointError {}

fn cerr(line: usize, message: impl Into<String>) -> CheckpointError {
    CheckpointError {
        line,
        message: message.into(),
    }
}

const CHECKPOINT_MAGIC: &str = "gpd-checkpoint 1";

impl Checkpoint {
    /// Builds a level-sweep checkpoint (engines use this; exposed for
    /// tooling and tests).
    pub fn level(detector: &str, problem: u64, level: u32, frontiers: Vec<Vec<u32>>) -> Self {
        Checkpoint::Level {
            detector: detector.to_string(),
            label: String::new(),
            problem,
            level,
            frontiers,
        }
    }

    /// Builds an odometer checkpoint.
    pub fn odometer(detector: &str, problem: u64, next: u64, total: u64) -> Self {
        Checkpoint::Odometer {
            detector: detector.to_string(),
            label: String::new(),
            problem,
            next,
            total,
        }
    }

    /// The engine this checkpoint belongs to.
    pub fn detector(&self) -> &str {
        match self {
            Checkpoint::Level { detector, .. } | Checkpoint::Odometer { detector, .. } => detector,
        }
    }

    /// Caller metadata carried alongside the checkpoint.
    pub fn label(&self) -> &str {
        match self {
            Checkpoint::Level { label, .. } | Checkpoint::Odometer { label, .. } => label,
        }
    }

    /// Attaches caller metadata (newlines are flattened to spaces to
    /// keep the text form line-oriented).
    pub fn set_label(&mut self, text: &str) {
        let flat = text.replace(['\n', '\r'], " ");
        match self {
            Checkpoint::Level { label, .. } | Checkpoint::Odometer { label, .. } => *label = flat,
        }
    }

    /// The embedded [`problem_fingerprint`].
    pub fn problem(&self) -> u64 {
        match self {
            Checkpoint::Level { problem, .. } | Checkpoint::Odometer { problem, .. } => *problem,
        }
    }

    /// FNV-1a digest over the resume-relevant payload (everything except
    /// the label). Stored in the text form and re-verified on parse.
    pub fn digest(&self) -> u64 {
        match self {
            Checkpoint::Level {
                detector,
                problem,
                level,
                frontiers,
                ..
            } => fnv1a(
                detector
                    .bytes()
                    .map(u64::from)
                    .chain([*problem, 0xF0, u64::from(*level)])
                    .chain(frontiers.iter().flat_map(|f| {
                        std::iter::once(0xF1).chain(f.iter().map(|&x| u64::from(x)))
                    })),
            ),
            Checkpoint::Odometer {
                detector,
                problem,
                next,
                total,
                ..
            } => fnv1a(
                detector
                    .bytes()
                    .map(u64::from)
                    .chain([*problem, 0xF2, *next, *total]),
            ),
        }
    }

    /// Serializes to the line-oriented text form (mirrors the trace file
    /// format: magic header, `key value` lines, `end` trailer).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        out.push_str(&format!("detector {}\n", self.detector()));
        if !self.label().is_empty() {
            out.push_str(&format!("label {}\n", self.label()));
        }
        out.push_str(&format!("problem {}\n", self.problem()));
        out.push_str(&format!("digest {}\n", self.digest()));
        match self {
            Checkpoint::Level {
                level, frontiers, ..
            } => {
                out.push_str(&format!("level {level}\n"));
                for f in frontiers {
                    out.push_str("frontier");
                    for x in f {
                        out.push_str(&format!(" {x}"));
                    }
                    out.push('\n');
                }
            }
            Checkpoint::Odometer { next, total, .. } => {
                out.push_str(&format!("next {next}\n"));
                out.push_str(&format!("total {total}\n"));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text form, verifying the stored digest against the
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on any malformed line, missing field,
    /// or digest mismatch.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut detector: Option<String> = None;
        let mut label = String::new();
        let mut problem: Option<u64> = None;
        let mut digest: Option<u64> = None;
        let mut level: Option<u32> = None;
        let mut frontiers: Vec<Vec<u32>> = Vec::new();
        let mut next: Option<u64> = None;
        let mut total: Option<u64> = None;
        let mut saw_magic = false;
        let mut saw_end = false;

        for (idx, raw) in text.lines().enumerate() {
            let no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_magic {
                if line != CHECKPOINT_MAGIC {
                    return Err(cerr(no, format!("expected `{CHECKPOINT_MAGIC}` header")));
                }
                saw_magic = true;
                continue;
            }
            if saw_end {
                return Err(cerr(no, "content after `end`"));
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let parse_u64 = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| cerr(no, format!("invalid number `{s}`")))
            };
            match key {
                "detector" => {
                    if rest.is_empty() {
                        return Err(cerr(no, "empty detector name"));
                    }
                    detector = Some(rest.to_string());
                }
                "label" => label = rest.to_string(),
                "problem" => problem = Some(parse_u64(rest)?),
                "digest" => digest = Some(parse_u64(rest)?),
                "level" => {
                    level = Some(
                        rest.parse::<u32>()
                            .map_err(|_| cerr(no, format!("invalid level `{rest}`")))?,
                    )
                }
                "frontier" => {
                    let f: Result<Vec<u32>, _> = rest
                        .split_whitespace()
                        .map(|t| {
                            t.parse::<u32>()
                                .map_err(|_| cerr(no, format!("invalid frontier entry `{t}`")))
                        })
                        .collect();
                    frontiers.push(f?);
                }
                "next" => next = Some(parse_u64(rest)?),
                "total" => total = Some(parse_u64(rest)?),
                "end" => saw_end = true,
                other => return Err(cerr(no, format!("unknown key `{other}`"))),
            }
        }
        if !saw_magic {
            return Err(cerr(0, "empty checkpoint"));
        }
        if !saw_end {
            return Err(cerr(0, "missing `end` trailer (truncated checkpoint?)"));
        }
        let detector = detector.ok_or_else(|| cerr(0, "missing `detector`"))?;
        let problem = problem.ok_or_else(|| cerr(0, "missing `problem`"))?;
        let stored_digest = digest.ok_or_else(|| cerr(0, "missing `digest`"))?;
        let checkpoint = match (level, next, total) {
            (Some(level), None, None) => {
                if frontiers.is_empty() {
                    return Err(cerr(0, "level checkpoint has no frontiers"));
                }
                Checkpoint::Level {
                    detector,
                    label,
                    problem,
                    level,
                    frontiers,
                }
            }
            (None, Some(next), Some(total)) => {
                if !frontiers.is_empty() {
                    return Err(cerr(0, "odometer checkpoint cannot carry frontiers"));
                }
                Checkpoint::Odometer {
                    detector,
                    label,
                    problem,
                    next,
                    total,
                }
            }
            _ => {
                return Err(cerr(
                    0,
                    "need either `level` + `frontier` lines or `next` + `total`",
                ))
            }
        };
        if checkpoint.digest() != stored_digest {
            return Err(cerr(0, "digest mismatch: checkpoint corrupted or edited"));
        }
        Ok(checkpoint)
    }

    /// Validates a level checkpoint against an engine and computation and
    /// rebuilds the stored level (canonically sorted).
    pub(crate) fn restore_level(
        &self,
        detector: &str,
        problem: u64,
        comp: &Computation,
    ) -> Result<(u32, Vec<Cut>), DetectError> {
        let mismatch = |msg: String| DetectError::CheckpointMismatch(msg);
        match self {
            Checkpoint::Level {
                detector: d,
                problem: p,
                level,
                frontiers,
                ..
            } => {
                if d != detector {
                    return Err(mismatch(format!(
                        "checkpoint belongs to engine `{d}`, not `{detector}`"
                    )));
                }
                if *p != problem {
                    return Err(mismatch(
                        "checkpoint was taken on a different computation".to_string(),
                    ));
                }
                let mut level_cuts = Vec::with_capacity(frontiers.len());
                for f in frontiers {
                    if f.len() != comp.process_count() {
                        return Err(mismatch(format!(
                            "frontier has {} entries for {} processes",
                            f.len(),
                            comp.process_count()
                        )));
                    }
                    if f.iter()
                        .enumerate()
                        .any(|(q, &x)| x as usize > comp.events_on(q))
                    {
                        return Err(mismatch("frontier entry out of range".to_string()));
                    }
                    let cut = Cut::from_frontier(f.clone());
                    if cut.event_count() != *level as usize {
                        return Err(mismatch(format!(
                            "frontier on level {} stored under level {level}",
                            cut.event_count()
                        )));
                    }
                    if !comp.is_consistent(&cut) {
                        return Err(mismatch("stored frontier is not a consistent cut".into()));
                    }
                    level_cuts.push(cut);
                }
                level_cuts.sort_unstable();
                level_cuts.dedup();
                Ok((*level, level_cuts))
            }
            Checkpoint::Odometer { .. } => Err(mismatch(format!(
                "odometer checkpoint offered to level-sweep engine `{detector}`"
            ))),
        }
    }

    /// Validates an odometer checkpoint against an engine and combination
    /// space, returning the resume index.
    pub(crate) fn restore_odometer(
        &self,
        detector: &str,
        problem: u64,
        total: u64,
    ) -> Result<u64, DetectError> {
        let mismatch = |msg: String| DetectError::CheckpointMismatch(msg);
        match self {
            Checkpoint::Odometer {
                detector: d,
                problem: p,
                next,
                total: t,
                ..
            } => {
                if d != detector {
                    return Err(mismatch(format!(
                        "checkpoint belongs to engine `{d}`, not `{detector}`"
                    )));
                }
                if *p != problem {
                    return Err(mismatch(
                        "checkpoint was taken on a different computation or predicate".to_string(),
                    ));
                }
                if *t != total {
                    return Err(mismatch(format!(
                        "checkpoint space has {t} combinations, engine has {total}"
                    )));
                }
                if *next > total {
                    return Err(mismatch(format!(
                        "resume index {next} beyond space of {total}"
                    )));
                }
                Ok(*next)
            }
            Checkpoint::Level { .. } => Err(mismatch(format!(
                "level checkpoint offered to odometer engine `{detector}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::ComputationBuilder;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.deadline_exceeded());
        assert!(!b.nodes_exceeded(u64::MAX));
        assert!(!b.width_exceeded(usize::MAX));
        assert_eq!(b.remaining_time(), None);
    }

    #[test]
    fn limits_trip_at_their_caps() {
        let b = Budget::unlimited().with_max_nodes(10).with_max_width(4);
        assert!(!b.is_unlimited());
        assert!(!b.nodes_exceeded(9));
        assert!(b.nodes_exceeded(10));
        assert!(!b.width_exceeded(4));
        assert!(b.width_exceeded(5));
        let expired = Budget::unlimited().deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(expired.deadline_exceeded());
        assert_eq!(expired.remaining_time(), Some(Duration::ZERO));
        let far = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(!far.deadline_exceeded());
        assert!(far.remaining_time().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn meter_accumulates() {
        let m = BudgetMeter::new();
        m.charge(3);
        m.charge(4);
        assert_eq!(m.nodes(), 7);
    }

    #[test]
    fn checkpoint_text_roundtrip() {
        let mut cp = Checkpoint::level("possibly-enumerate", 42, 3, vec![vec![1, 2], vec![3, 0]]);
        cp.set_label("cnf a@0 | b@1");
        let text = cp.to_text();
        assert_eq!(Checkpoint::from_text(&text).unwrap(), cp);

        let od = Checkpoint::odometer("singular-chains", 7, 100, 4096);
        assert_eq!(Checkpoint::from_text(&od.to_text()).unwrap(), od);
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let cp = Checkpoint::odometer("singular-subsets", 9, 5, 10);
        let text = cp.to_text();
        // Bump the resume index without fixing the digest.
        let forged = text.replace("next 5", "next 6");
        let err = Checkpoint::from_text(&forged).unwrap_err();
        assert!(err.message.contains("digest"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_error_cleanly() {
        for bad in [
            "",
            "not a checkpoint",
            "gpd-checkpoint 1\nend\n",
            "gpd-checkpoint 1\ndetector x\nproblem 1\ndigest 2\nlevel 0\nend\n",
            "gpd-checkpoint 1\ndetector x\nproblem 1\ndigest 2\nnext 1\nend\n",
            "gpd-checkpoint 1\ndetector x\nproblem nope\n",
            "gpd-checkpoint 1\nwat 3\nend\n",
            "gpd-checkpoint 1\ndetector x\nproblem 1\ndigest 2\nnext 1\ntotal 2\nend\ntrailing\n",
        ] {
            assert!(Checkpoint::from_text(bad).is_err(), "accepted: {bad:?}");
        }
        // Truncation (missing `end`) must be detected.
        let cp = Checkpoint::odometer("e", 1, 2, 3).to_text();
        let truncated = cp.strip_suffix("end\n").unwrap();
        assert!(Checkpoint::from_text(truncated).is_err());
    }

    #[test]
    fn restore_validates_engine_problem_and_shape() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        b.append(1);
        let comp = b.build().unwrap();
        let problem = problem_fingerprint(&comp);

        let cp = Checkpoint::level("possibly-enumerate", problem, 1, vec![vec![1, 0]]);
        let (level, cuts) = cp
            .restore_level("possibly-enumerate", problem, &comp)
            .unwrap();
        assert_eq!(level, 1);
        assert_eq!(cuts.len(), 1);

        assert!(cp
            .restore_level("definitely-levelwise", problem, &comp)
            .is_err());
        assert!(cp
            .restore_level("possibly-enumerate", problem ^ 1, &comp)
            .is_err());
        assert!(cp
            .restore_odometer("possibly-enumerate", problem, 4)
            .is_err());

        // Wrong frontier arity / level / range / consistency all refuse.
        let bad_arity = Checkpoint::level("e", problem, 1, vec![vec![1]]);
        assert!(bad_arity.restore_level("e", problem, &comp).is_err());
        let bad_level = Checkpoint::level("e", problem, 2, vec![vec![1, 0]]);
        assert!(bad_level.restore_level("e", problem, &comp).is_err());
        let bad_range = Checkpoint::level("e", problem, 9, vec![vec![9, 0]]);
        assert!(bad_range.restore_level("e", problem, &comp).is_err());

        let od = Checkpoint::odometer("s", problem, 3, 8);
        assert_eq!(od.restore_odometer("s", problem, 8).unwrap(), 3);
        assert!(od.restore_odometer("s", problem, 9).is_err());
        assert!(od.restore_odometer("t", problem, 8).is_err());
        let overrun = Checkpoint::odometer("s", problem, 9, 8);
        assert!(overrun.restore_odometer("s", problem, 8).is_err());
    }

    #[test]
    fn fingerprints_separate_shapes() {
        let c1 = {
            let mut b = ComputationBuilder::new(2);
            b.append(0);
            b.build().unwrap()
        };
        let c2 = {
            let mut b = ComputationBuilder::new(2);
            b.append(1);
            b.build().unwrap()
        };
        assert_ne!(problem_fingerprint(&c1), problem_fingerprint(&c2));
        assert_ne!(
            odometer_fingerprint(&c1, &[2, 3]),
            odometer_fingerprint(&c1, &[3, 2])
        );
    }

    #[test]
    fn catch_detect_contains_panics() {
        let ok = catch_detect(|| 5);
        assert_eq!(ok, Ok(5));
        let err = catch_detect(|| -> i32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, DetectError::PredicatePanicked("boom 7".to_string()));
        let err = catch_detect(|| -> i32 { std::panic::panic_any(42i64) }).unwrap_err();
        assert!(matches!(err, DetectError::PredicatePanicked(_)));
    }
}
