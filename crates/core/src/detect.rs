//! One entry point for every detection question: [`detect`] reads the
//! predicate class and the modality, picks the engine the paper's
//! Figure 1 taxonomy prescribes, and runs it under the caller's threads,
//! budget and slicing options.
//!
//! | Question | Engine (`Report::engine`) |
//! |---|---|
//! | Possibly(conjunction) | `possibly-conjunctive` (CPDHB scan); `possibly-slice` under [`Slicing::Force`] |
//! | Definitely(conjunction) | `definitely-conjunctive` (interval overlap); `definitely-slice` under [`Slicing::Force`] |
//! | Possibly(singular CNF) | `singular-ordered` (§3.2) when receive- or send-ordered, else `singular-chains` (§3.3); a resumed `singular-subsets` checkpoint stays there |
//! | Definitely(singular CNF) | `definitely-levelwise-sliced`, or `definitely-levelwise` without a slice |
//! | Possibly(Σ relop K) | `possibly-sum` (one max-flow) |
//! | Definitely(Σ relop K) | `definitely-sum` (endpoint and max-flow short-circuits, then the level sweep, past the enumeration guard) |
//! | Possibly/Definitely(Σ = K) | `possibly-exact-sum` / `definitely-exact-sum` (Theorem 7 for ±1 steps; larger steps under a budget enumerate within it); [`EXACT_SUM_ENUMERATION`] for larger steps without a budget |
//! | Possibly(symmetric) | `possibly-symmetric` (Theorem 7 per count) |
//! | Definitely(symmetric) | `definitely-levelwise` |
//!
//! **SliceReduce.** A CNF's unit clauses form a regular envelope that
//! every Φ-cut satisfies. Under [`Slicing::Auto`] and [`Slicing::Force`]
//! the planner builds the slice of that envelope and hands it to the CNF
//! engines, which then search only inside its window. The slice build
//! draws on the same budget; if it runs out, the unsliced engine runs on
//! what is left. A Definitely resume runs the sliced sweep only when the
//! checkpoint came from it.
//!
//! Exhaustive questions (every Definitely sweep above, and exact sums
//! with steps above 1) on computations above [`ENUMERATION_LIMIT`] events
//! are refused unless [`Options::enumerate`] is set or a budget is given.

use gpd_computation::{BoolVariable, Computation, Cut, IntVariable, ProcessId};

use crate::budget::{Budget, BudgetMeter, Checkpoint, DetectError, Progress, Verdict};
use crate::conjunctive::{definitely_conjunctive, possibly_conjunctive};
use crate::enumerate::{definitely_levelwise_budgeted, DEFINITELY_LEVELWISE};
use crate::predicate::{Relop, SingularCnf};
use crate::relational::{
    definitely_exact_sum_budgeted, definitely_sum_short_circuit, possibly_exact_sum_budgeted,
    possibly_sum, NotUnitStepError,
};
use crate::singular::dispatch;
use crate::slice::{
    cnf_envelope, definitely_levelwise_sliced_budgeted, definitely_slice, possibly_slice,
    RegularPredicate, Slice, DEFINITELY_LEVELWISE_SLICED,
};
use crate::symmetric::{possibly_symmetric, SymmetricPredicate};

/// Above this many events, exhaustive questions need
/// [`Options::enumerate`] or a budget.
pub const ENUMERATION_LIMIT: usize = 64;

/// The engine reported for an exact sum whose steps exceed 1, answered
/// without a budget by the exhaustive fallback (Theorem 2: NP-complete).
pub const EXACT_SUM_ENUMERATION: &str = "exact-sum-enumeration";

/// The modal operator of a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// Some consistent cut satisfies the predicate.
    Possibly,
    /// Every run passes through a cut satisfying the predicate.
    Definitely,
}

/// The predicate classes [`detect`] plans for. Every variant borrows its
/// variables, so building a [`Query`] copies nothing.
#[derive(Debug, Clone, Copy)]
pub enum Predicate<'a> {
    /// `var` holds at every listed process.
    Conjunction {
        var: &'a BoolVariable,
        processes: &'a [ProcessId],
    },
    /// A singular CNF over `var`.
    SingularCnf {
        var: &'a BoolVariable,
        cnf: &'a SingularCnf,
    },
    /// `Σ var relop k`.
    Sum {
        var: &'a IntVariable,
        relop: Relop,
        k: i64,
    },
    /// `Σ var = k`.
    ExactSum { var: &'a IntVariable, k: i64 },
    /// A symmetric predicate over `var`.
    Symmetric {
        var: &'a BoolVariable,
        predicate: &'a SymmetricPredicate,
    },
}

/// A detection question: a predicate and a modality on one computation.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    pub comp: &'a Computation,
    pub predicate: Predicate<'a>,
    pub modality: Modality,
}

/// How the SliceReduce pre-pass is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Slicing {
    /// Never slice.
    Off,
    /// Slice whenever a regular envelope exists.
    #[default]
    Auto,
    /// Require slicing: refuse questions with no regular envelope, and
    /// answer conjunctions by the slicing engines.
    Force,
}

/// How [`detect`] runs its engine.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Worker threads for the exponential engines (0 or 1: sequential).
    /// Verdicts and witnesses are the same at every count.
    pub threads: usize,
    /// Bounds the search. With a budget, an exhausted search returns
    /// [`Verdict::Unknown`] carrying a checkpoint.
    pub budget: Option<Budget>,
    pub slicing: Slicing,
    /// Continues an interrupted search from its checkpoint.
    pub resume: Option<Checkpoint>,
    /// Allows exhaustive enumeration above [`ENUMERATION_LIMIT`] events
    /// without a budget.
    pub enumerate: bool,
}

/// What a decided question answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A Possibly answer: the witness cut, if any.
    Witness(Option<Cut>),
    /// A Definitely answer.
    Holds(bool),
}

/// The outcome of [`detect`].
#[derive(Debug, Clone)]
pub struct Report {
    /// The answer, or the checkpoint of an exhausted budget. A decided
    /// verdict's progress counts every budget node charged, the slice
    /// build's included.
    pub verdict: Verdict<Answer>,
    /// The engine that ran (see the module table).
    pub engine: &'static str,
}

/// Refuses exhaustive work on computations above [`ENUMERATION_LIMIT`]
/// events unless `enumerate` opts in.
///
/// # Errors
///
/// [`DetectError::NeedsEnumeration`] naming `what`.
pub fn enumeration_guard(
    comp: &Computation,
    enumerate: bool,
    what: &str,
) -> Result<(), DetectError> {
    if !enumerate && comp.event_count() > ENUMERATION_LIMIT {
        return Err(DetectError::NeedsEnumeration {
            what: what.to_string(),
            events: comp.event_count(),
        });
    }
    Ok(())
}

/// Answers `query` with the engine its class and modality call for (see
/// the module table, and the crate Quickstart for a call).
///
/// # Errors
///
/// [`DetectError::NotResumable`], [`DetectError::NotRegular`],
/// [`DetectError::NoEnvelope`] and [`DetectError::NeedsEnumeration`]
/// when the question is refused as asked; an engine's own
/// [`DetectError::CheckpointMismatch`] or
/// [`DetectError::PredicatePanicked`].
///
/// # Example
///
/// ```
/// use gpd::detect::{Answer, Modality, Options, Predicate, Query};
/// use gpd::Relop;
/// use gpd_computation::{ComputationBuilder, IntVariable};
///
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = IntVariable::new(&comp, vec![vec![0, 1], vec![0, 1]]);
/// let definitely = |relop, k| {
///     let predicate = Predicate::Sum { var: &x, relop, k };
///     let query = Query { comp: &comp, predicate, modality: Modality::Definitely };
///     let report = gpd::detect(&query, &Options::default()).unwrap();
///     report.verdict.value() == Some(&Answer::Holds(true))
/// };
/// // Every run starts at sum 0: Σ ≤ 0 definitely holds.
/// assert!(definitely(Relop::Le, 0));
/// // Σ ≥ 1 also definitely holds: both events must eventually run.
/// assert!(definitely(Relop::Ge, 1));
/// ```
pub fn detect(query: &Query<'_>, options: &Options) -> Result<Report, DetectError> {
    let Query {
        comp,
        predicate,
        modality,
    } = *query;
    let resume = options.resume.as_ref();
    // Any budget or resume routes to the budgeted engines, and stands in
    // for `enumerate`: the budget stops the sweep.
    let budgeted = options.budget.is_some() || resume.is_some();
    let unlimited = Budget::unlimited();
    let budget = options.budget.as_ref().unwrap_or(&unlimited);
    let (threads, force) = (options.threads, options.slicing == Slicing::Force);
    let guard = |what: &str| enumeration_guard(comp, options.enumerate || budgeted, what);
    let polynomial = |question| match resume {
        Some(_) => Err(DetectError::NotResumable(question)),
        None => Ok(()),
    };
    let meter = BudgetMeter::new();
    let decided = |answer| Verdict::Decided(answer, Progress::with_nodes(&meter));
    let (engine, verdict) = match predicate {
        Predicate::Conjunction { var, processes } => {
            polynomial("a conjunction")?;
            // `var` already encodes each literal's polarity, so every
            // constrained process wants it true.
            let regular = || {
                let literals: Vec<_> = processes.iter().map(|&p| (p, true)).collect();
                RegularPredicate::conjunction(comp, var, &literals)
            };
            let (engine, answer) = match (modality, force) {
                (Modality::Possibly, false) => (
                    "possibly-conjunctive",
                    Answer::Witness(possibly_conjunctive(comp, var, processes)),
                ),
                (Modality::Definitely, false) => (
                    "definitely-conjunctive",
                    Answer::Holds(definitely_conjunctive(comp, var, processes)),
                ),
                (Modality::Possibly, true) => (
                    "possibly-slice",
                    Answer::Witness(possibly_slice(comp, &regular())),
                ),
                (Modality::Definitely, true) => (
                    "definitely-slice",
                    Answer::Holds(definitely_slice(comp, &regular())),
                ),
            };
            (engine, decided(answer))
        }
        Predicate::SingularCnf { var, cnf } => {
            let envelope = match options.slicing {
                Slicing::Off => None,
                Slicing::Auto | Slicing::Force => cnf_envelope(comp, var, cnf),
            };
            if force && envelope.is_none() {
                return Err(DetectError::NoEnvelope);
            }
            if modality == Modality::Definitely {
                guard("Definitely(cnf)")?;
            }
            // A slice build that exhausts the budget falls back to the
            // unsliced engine, which checkpoints as usual.
            let slice = envelope.and_then(|env| match budgeted {
                true => Slice::build_budgeted(comp, &env, budget, &meter).ok(),
                false => Some(Slice::build(comp, &env)),
            });
            match modality {
                Modality::Possibly => {
                    let (engine, verdict) = dispatch(
                        comp,
                        var,
                        cnf,
                        slice.as_ref(),
                        threads,
                        budget,
                        &meter,
                        resume,
                    )?;
                    (engine, verdict.map(Answer::Witness))
                }
                Modality::Definitely => {
                    let holds = |cut: &Cut| cnf.eval(var, cut);
                    // Checkpoints pin their engine: resume through the
                    // sliced sweep only if it was taken there.
                    let from_slice = |cp: &Checkpoint| cp.detector() == DEFINITELY_LEVELWISE_SLICED;
                    let (engine, verdict) = match slice.filter(|_| resume.is_none_or(from_slice)) {
                        Some(sl) => (
                            DEFINITELY_LEVELWISE_SLICED,
                            definitely_levelwise_sliced_budgeted(
                                comp, &sl, holds, threads, budget, &meter, resume,
                            )?,
                        ),
                        None => (
                            DEFINITELY_LEVELWISE,
                            definitely_levelwise_budgeted(
                                comp, holds, threads, budget, &meter, resume,
                            )?,
                        ),
                    };
                    (engine, verdict.map(Answer::Holds))
                }
            }
        }
        Predicate::Sum { .. } | Predicate::ExactSum { .. } if force => {
            return Err(DetectError::NotRegular("sum"))
        }
        Predicate::Symmetric { .. } if force => return Err(DetectError::NotRegular("count")),
        Predicate::Sum { var, relop, k } => match modality {
            Modality::Possibly => {
                polynomial("Possibly(sum relop)")?;
                let witness = possibly_sum(comp, var, relop, k);
                ("possibly-sum", decided(Answer::Witness(witness)))
            }
            Modality::Definitely => {
                // Only the sweep past the polynomial short-circuits is
                // exhaustive, so only it meets the guard.
                let verdict = match definitely_sum_short_circuit(comp, var, relop, k) {
                    Some(holds) => decided(Answer::Holds(holds)),
                    None => {
                        guard("Definitely(sum relop)")?;
                        let holds = |cut: &Cut| relop.eval(var.sum_at(cut), k);
                        definitely_levelwise_budgeted(comp, holds, threads, budget, &meter, resume)?
                            .map(Answer::Holds)
                    }
                };
                ("definitely-sum", verdict)
            }
        },
        Predicate::ExactSum { var, k } => {
            let max_step = var.max_step();
            let engine = if max_step > 1 && !budgeted {
                // Larger steps make the question NP-complete (Theorem 2):
                // enumerate, past the guard.
                let what = NotUnitStepError { max_step }.to_string();
                guard(&match modality {
                    Modality::Possibly => {
                        format!("{what}; exact detection (Theorem 2: NP-complete)")
                    }
                    Modality::Definitely => what,
                })?;
                EXACT_SUM_ENUMERATION
            } else {
                match modality {
                    Modality::Possibly => "possibly-exact-sum",
                    Modality::Definitely => "definitely-exact-sum",
                }
            };
            let verdict = match modality {
                Modality::Possibly => {
                    possibly_exact_sum_budgeted(comp, var, k, threads, budget, &meter, resume)?
                        .map(Answer::Witness)
                }
                Modality::Definitely => {
                    definitely_exact_sum_budgeted(comp, var, k, threads, budget, &meter, resume)?
                        .map(Answer::Holds)
                }
            };
            (engine, verdict)
        }
        Predicate::Symmetric { var, predicate } => match modality {
            Modality::Possibly => {
                polynomial("Possibly(count)")?;
                let witness = possibly_symmetric(comp, var, predicate);
                ("possibly-symmetric", decided(Answer::Witness(witness)))
            }
            Modality::Definitely => {
                guard("Definitely(count)")?;
                let holds = |cut: &Cut| predicate.eval(comp, var, cut);
                let verdict =
                    definitely_levelwise_budgeted(comp, holds, threads, budget, &meter, resume)?;
                (DEFINITELY_LEVELWISE, verdict.map(Answer::Holds))
            }
        },
    };
    Ok(Report { verdict, engine })
}
