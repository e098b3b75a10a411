//! The `detect_mix` and `detect_sweep` workloads: `gpd detect` driven
//! through `gpd_cli::run`, from trace file to checked verdict.
//!
//! Set-up simulates the workload's traces from the seed with `gpd-sim`,
//! writes them, fixes every query's expected verdict with an engine
//! other than the one `gpd detect` picks (exhaustive enumeration where
//! the lattice is small), and runs one untimed pass that also fixes the
//! witnesses. A timed pass then runs every query exactly as a user
//! types it and checks each answer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use gpd::conjunctive::possibly_conjunctive;
use gpd::enumerate::{
    definitely_by_enumeration, definitely_levelwise_budgeted, possibly_by_enumeration,
    possibly_by_enumeration_budgeted,
};
use gpd::relational::{possibly_exact_sum_budgeted, possibly_sum, sum_extremes};
use gpd::singular::{possibly_singular_budgeted, possibly_singular_subsets_budgeted};
use gpd::slice::{
    cnf_envelope, definitely_levelwise_sliced_budgeted, possibly_singular_sliced_budgeted,
    RegularPredicate, Slice,
};
use gpd::symmetric::{indicator_variable, possibly_symmetric, SymmetricPredicate};
use gpd::{Budget, BudgetMeter, CnfClause, Relop, SingularCnf, Verdict};
use gpd_cli::predicate::{parse, CountSpec, LitSpec, PredicateSpec, SumOp};
use gpd_computation::trace::{read_trace, write_trace, Trace};
use gpd_computation::{
    BoolVariable, Computation, ComputationBuilder, Cut, EventId, IntVariable, ProcessId,
};
use gpd_sim::protocols::{
    BankBranch, ChangRoberts, RicartAgrawala, TokenRing, TwoPhaseCommit, Voter,
};
use gpd_sim::{Process, SimConfig, SimTrace, Simulation};

use gpd::counters::ScanCounters;

use crate::host;
use crate::spans::{meter_nodes, work_since, work_snapshot, Recorder};
use crate::stats::median;
use crate::{Outcome, RunArgs};

/// Which detect workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Polynomial queries over large protocol traces.
    Mix,
    /// NP-hard queries at `--threads 2` over small traces.
    Sweep,
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// One recorded trace file.
struct TraceFile {
    path: String,
    trace: Trace,
}

/// One query exactly as a user types it.
struct Query {
    trace: usize,
    expr: String,
    flags: Vec<String>,
    spec: PredicateSpec,
    definitely: bool,
    /// Threads the query asks for (`--threads`, 0 = sequential).
    threads: usize,
    expected: bool,
    /// The witness every run must return: the unique least cut where
    /// the oracle fixes it, otherwise the untimed set-up pass's answer.
    witness: Option<Vec<u32>>,
}

impl Query {
    fn args(&self, files: &[TraceFile]) -> Vec<String> {
        let mut args = vec![
            "detect".to_string(),
            files[self.trace].path.clone(),
            "--pred".to_string(),
            self.expr.clone(),
        ];
        args.extend(self.flags.iter().cloned());
        args
    }
}

struct Workload {
    files: Vec<TraceFile>,
    queries: Vec<Query>,
}

fn simulate<P: Process>(processes: Vec<P>, seed: u64, max_events: usize) -> SimTrace {
    Simulation::new(processes, SimConfig::new(seed).with_max_events(max_events)).run()
}

fn sim_to_trace(sim: SimTrace) -> Trace {
    Trace {
        computation: sim.computation,
        bool_vars: sim.bool_vars,
        int_vars: sim.int_vars,
    }
}

fn single_var_trace(comp: Computation, name: &str, var: BoolVariable) -> Trace {
    Trace {
        computation: comp,
        bool_vars: vec![(name.to_string(), var)],
        int_vars: Vec::new(),
    }
}

fn write_file(dir: &Path, name: &str, trace: Trace) -> std::io::Result<TraceFile> {
    let bools: Vec<(&str, &BoolVariable)> = trace
        .bool_vars
        .iter()
        .map(|(n, v)| (n.as_str(), v))
        .collect();
    let ints: Vec<(&str, &IntVariable)> = trace
        .int_vars
        .iter()
        .map(|(n, v)| (n.as_str(), v))
        .collect();
    let text = write_trace(&trace.computation, &bools, &ints);
    let path = dir.join(format!("{name}.trace"));
    std::fs::write(&path, text)?;
    Ok(TraceFile {
        path: path.to_string_lossy().into_owned(),
        trace,
    })
}

fn lits(name: &str, procs: impl IntoIterator<Item = usize>) -> String {
    procs
        .into_iter()
        .map(|p| format!("{name}@{p}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A query whose expected verdict is still to be fixed by the oracle.
fn query(trace: usize, expr: String, flags: &[&str]) -> Query {
    let spec = parse(&expr).expect("benchmark predicates parse");
    let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
    let threads = flags
        .iter()
        .position(|f| f == "--threads")
        .map_or(0, |i| flags[i + 1].parse().expect("thread count"));
    Query {
        trace,
        definitely: flags.iter().any(|f| f == "--definitely"),
        expr,
        flags,
        spec,
        threads,
        expected: false,
        witness: None,
    }
}

/// Traces and queries of `detect_mix`: every protocol, large, and the
/// polynomial classes of the paper.
fn mix_inputs(seed: u64, dir: &Path) -> std::io::Result<(Vec<TraceFile>, Vec<Query>)> {
    let s = |k: u64| seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
    let uids: Vec<u64> = (0..40u64).map(|i| i * 1000 + (s(5) + i) % 997).collect();
    let files = vec![
        write_file(
            dir,
            "mutex",
            sim_to_trace(simulate(RicartAgrawala::group(8, 400), s(0), 5_000)),
        )?,
        write_file(
            dir,
            "token-ring",
            sim_to_trace(simulate(TokenRing::ring(40, 16), s(1), 14_000)),
        )?,
        write_file(
            dir,
            "bank",
            sim_to_trace(simulate(BankBranch::network(8, 100, 700, 50), s(2), 5_000)),
        )?,
        write_file(
            dir,
            "voting",
            sim_to_trace(simulate(Voter::electorate(40, 0.5), s(3), 14_000)),
        )?,
        write_file(
            dir,
            "2pc",
            sim_to_trace(simulate(TwoPhaseCommit::transaction(48, 0.0), s(4), 14_000)),
        )?,
        write_file(
            dir,
            "election",
            sim_to_trace(simulate(ChangRoberts::ring(&uids), s(5), 14_000)),
        )?,
    ];
    let bank_total = 8 * 100;
    let queries = vec![
        query(0, format!("conj {}", lits("in_cs", 0..4)), &[]),
        query(
            0,
            format!("conj {}", lits("in_cs", 0..4)),
            &["--slice", "force"],
        ),
        query(
            0,
            "cnf in_cs@0 | in_cs@1 & in_cs@2 | requesting@3".into(),
            &[],
        ),
        query(0, "count in_cs exactly 2".into(), &[]),
        query(1, "sum tokens == 10".into(), &[]),
        query(1, "sum tokens < 16".into(), &[]),
        query(2, format!("sum balance <= {}", bank_total - 60), &[]),
        query(2, format!("sum balance > {bank_total}"), &[]),
        query(3, "count voted_yes exactly 20".into(), &[]),
        query(4, format!("conj {}", lits("prepared", 0..8)), &[]),
        query(
            4,
            format!("conj {}", lits("committed", 0..6)),
            &["--slice", "force"],
        ),
        query(
            5,
            "cnf knows_leader@0 | knows_leader@1 & knows_leader@2".into(),
            &[],
        ),
    ];
    Ok((files, queries))
}

/// Traces and queries of `detect_sweep`: small computations whose
/// questions need the lattice sweep or the combinatorial CNF engines.
/// The seeded traces come several to a pass, so that one seed's lattice
/// sizes do not set the pass time alone.
fn sweep_inputs(seed: u64, dir: &Path) -> std::io::Result<(Vec<TraceFile>, Vec<Query>)> {
    let s = |k: u64| seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
    let mut files = Vec::new();
    let mut queries = Vec::new();
    for i in 0..BANKS {
        let bank = banded(BANK_CUTS, s(1000 * i), |seed| {
            sim_to_trace(simulate(BankBranch::network(6, 100, 3, 50), seed, 10_000))
        });
        let k = unattainable_sum(&bank);
        files.push(write_file(dir, &format!("bank-{i}"), bank)?);
        queries.push(query(
            files.len() - 1,
            format!("sum balance == {k}"),
            &["--enumerate", "--threads", "2"],
        ));
    }
    for i in 0..VOTINGS {
        let voting = banded(VOTING_CUTS, s(1000 * (BANKS + i)), |seed| {
            sim_to_trace(simulate(Voter::electorate(5, 0.5), seed, 10_000))
        });
        files.push(write_file(dir, &format!("voting-{i}"), voting)?);
        queries.push(query(
            files.len() - 1,
            format!(
                "cnf {}",
                (0..5)
                    .map(|p| format!("voted@{p}"))
                    .collect::<Vec<_>>()
                    .join(" & ")
            ),
            &["--definitely", "--enumerate", "--threads", "2"],
        ));
    }
    let (wide, wide_var, wide_phi) = gpd_bench::wide_unsat_singular_workload(40, 6, 4);
    let (unit, unit_var, unit_phi) = with_unit_clause(&wide, &wide_var, &wide_phi, 40);
    files.push(write_file(
        dir,
        "wide-unsat",
        single_var_trace(wide, "x", wide_var),
    )?);
    queries.push(query(
        files.len() - 1,
        cnf_expr(&wide_phi, "x"),
        &["--threads", "2"],
    ));
    files.push(write_file(
        dir,
        "wide-unsat-unit",
        single_var_trace(unit, "x", unit_var),
    )?);
    for slice in ["off", "auto"] {
        queries.push(query(
            files.len() - 1,
            cnf_expr(&unit_phi, "x"),
            &["--threads", "2", "--slice", slice],
        ));
    }
    Ok((files, queries))
}

/// Seeded bank traces per `detect_sweep` pass.
const BANKS: u64 = 6;
/// Seeded voting traces per `detect_sweep` pass.
const VOTINGS: u64 = 4;
/// Consistent-cut counts a `detect_sweep` bank or voting trace must
/// have: the sweeps' work grows with the lattice, so the band keeps a
/// pass's work alike from seed to seed while the seed still picks the
/// traces.
const BANK_CUTS: (usize, usize) = (24_000, 26_000);
const VOTING_CUTS: (usize, usize) = (3_100, 3_400);

/// The first trace of the seeds `first, first + 1, …` whose lattice has
/// a cut count within `band`.
fn banded(band: (usize, usize), first: u64, make: impl Fn(u64) -> Trace) -> Trace {
    (first..first + 1_000)
        .map(make)
        .find(|t| {
            let cuts = t.computation.consistent_cuts().take(band.1 + 1).count();
            (band.0..=band.1).contains(&cuts)
        })
        .expect("a trace in the band within a thousand seeds")
}

/// `comp` with one more process of `pad` internal events whose variable
/// holds in its first half only, and `phi` with a unit clause on it:
/// the same non-ordered question, now with a regular envelope for the
/// SliceReduce pre-pass to slice on.
fn with_unit_clause(
    comp: &Computation,
    var: &BoolVariable,
    phi: &SingularCnf,
    pad: usize,
) -> (Computation, BoolVariable, SingularCnf) {
    let n = comp.process_count();
    let mut b = ComputationBuilder::new(n + 1);
    let mut map = vec![EventId::from_index(0); comp.event_count()];
    for p in 0..n {
        for &e in comp.events_of(p) {
            map[e.index()] = b.append(p);
        }
    }
    for &(s, r) in comp.messages() {
        b.message(map[s.index()], map[r.index()])
            .expect("recorded message");
    }
    for _ in 0..pad {
        b.append(n);
    }
    let comp = b
        .build()
        .expect("the original order plus an independent process");
    let mut tracks = var.tracks().to_vec();
    tracks.push((0..=pad).map(|state| state <= pad / 2).collect());
    let var = BoolVariable::new(&comp, tracks);
    let mut clauses = phi.clauses().to_vec();
    clauses.push(CnfClause::new(vec![(ProcessId::new(n), true)]));
    (comp, var, SingularCnf::new(clauses))
}

fn cnf_expr(phi: &SingularCnf, var: &str) -> String {
    let clauses: Vec<String> = phi
        .clauses()
        .iter()
        .map(|c| {
            c.literals()
                .iter()
                .map(|&(p, positive)| {
                    format!("{}{var}@{}", if positive { "" } else { "!" }, p.index())
                })
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect();
    format!("cnf {}", clauses.join(" & "))
}

/// The smallest value between the least and the greatest attainable
/// sum that no consistent cut attains, or one past the greatest when
/// every value between is attained.
fn unattainable_sum(trace: &Trace) -> i64 {
    let var = &trace
        .int_vars
        .iter()
        .find(|(n, _)| n == "balance")
        .expect("bank balance")
        .1;
    let comp = &trace.computation;
    let sums: std::collections::BTreeSet<i64> =
        comp.consistent_cuts().map(|c| var.sum_at(&c)).collect();
    let (lo, hi) = (*sums.first().expect("a cut"), *sums.last().expect("a cut"));
    (lo..=hi).find(|v| !sums.contains(v)).unwrap_or(hi + 1)
}

fn bool_var<'a>(trace: &'a Trace, name: &str) -> &'a BoolVariable {
    &trace
        .bool_vars
        .iter()
        .find(|(n, _)| n == name)
        .expect("bool variable")
        .1
}

fn int_var<'a>(trace: &'a Trace, name: &str) -> &'a IntVariable {
    &trace
        .int_vars
        .iter()
        .find(|(n, _)| n == name)
        .expect("int variable")
        .1
}

/// The per-process variable whose value is each literal's truth, as
/// `gpd detect` builds it: detection then sees positive literals only.
fn truth_variable(trace: &Trace, literals: &[LitSpec]) -> BoolVariable {
    let comp = &trace.computation;
    let mut tracks: Vec<Vec<bool>> = (0..comp.process_count())
        .map(|p| vec![false; comp.events_on(p) + 1])
        .collect();
    for lit in literals {
        tracks[lit.process] = bool_var(trace, &lit.name).tracks()[lit.process]
            .iter()
            .map(|&v| v == lit.positive)
            .collect();
    }
    BoolVariable::new(comp, tracks)
}

fn positive_cnf(clauses: &[Vec<LitSpec>]) -> SingularCnf {
    SingularCnf::new(
        clauses
            .iter()
            .map(|c| {
                CnfClause::new(
                    c.iter()
                        .map(|l| (ProcessId::new(l.process), true))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn relop(op: SumOp) -> Relop {
    match op {
        SumOp::Lt => Relop::Lt,
        SumOp::Le => Relop::Le,
        SumOp::Gt => Relop::Gt,
        SumOp::Ge => Relop::Ge,
        SumOp::Eq => unreachable!("exact sums are not relational"),
    }
}

fn count_accepts(spec: &CountSpec, trues: u32) -> bool {
    match spec {
        CountSpec::Exactly(k) => trues == *k,
        CountSpec::In(ks) => ks.contains(&trues),
        other => unimplemented!("count predicate {other:?} is not used by the benchmark"),
    }
}

/// Whether the query's predicate holds at `cut`.
fn holds(trace: &Trace, spec: &PredicateSpec, cut: &Cut) -> bool {
    let lit = |l: &LitSpec| bool_var(trace, &l.name).value_at(cut, l.process) == l.positive;
    match spec {
        PredicateSpec::Conjunction(ls) => ls.iter().all(lit),
        PredicateSpec::Cnf(cs) => cs.iter().all(|c| c.iter().any(lit)),
        PredicateSpec::Sum { name, op, k } => {
            let sum = int_var(trace, name).sum_at(cut);
            match op {
                SumOp::Eq => sum == *k,
                other => relop(*other).eval(sum, *k),
            }
        }
        PredicateSpec::Count { name, spec } => {
            let var = bool_var(trace, name);
            let trues = (0..trace.computation.process_count())
                .filter(|&p| var.value_at(cut, p))
                .count() as u32;
            count_accepts(spec, trues)
        }
    }
}

/// Fixes the expected verdict of `q` (and its witness, where the
/// answer's least cut is unique) with an engine other than the one
/// `gpd detect` routes the query to: exhaustive enumeration on the
/// small lattices of `detect_sweep`, a second polynomial engine on the
/// large traces of `detect_mix`.
fn oracle(flavor: Flavor, trace: &Trace, q: &mut Query) {
    let comp = &trace.computation;
    if q.definitely {
        q.expected = definitely_by_enumeration(comp, |c| holds(trace, &q.spec, c));
        return;
    }
    if flavor == Flavor::Sweep && !matches!(q.spec, PredicateSpec::Cnf(_)) {
        let first = possibly_by_enumeration(comp, |c| holds(trace, &q.spec, c));
        q.expected = first.is_some();
        // A conjunction's least witness is unique, and the sweep finds
        // it first.
        if let (PredicateSpec::Conjunction(_), Some(cut)) = (&q.spec, first) {
            q.witness = Some(cut.frontier().to_vec());
        }
        return;
    }
    match &q.spec {
        PredicateSpec::Conjunction(ls) => {
            // Regular: the slice's least cut is the unique least witness.
            let truth = truth_variable(trace, ls);
            let literals: Vec<(ProcessId, bool)> = ls
                .iter()
                .map(|l| (ProcessId::new(l.process), true))
                .collect();
            let least = gpd::slice::possibly_slice(
                comp,
                &RegularPredicate::conjunction(comp, &truth, &literals),
            );
            q.expected = least.is_some();
            q.witness = least.map(|c| c.frontier().to_vec());
        }
        PredicateSpec::Cnf(cs) => {
            let truth = truth_variable(trace, &cs.iter().flatten().cloned().collect::<Vec<_>>());
            let verdict = possibly_singular_subsets_budgeted(
                comp,
                &truth,
                &positive_cnf(cs),
                1,
                &Budget::unlimited(),
                &BudgetMeter::new(),
                None,
            )
            .expect("subsets engine");
            let Verdict::Decided(cut, _) = verdict else {
                unreachable!("unlimited budget decides")
            };
            q.expected = cut.is_some();
        }
        PredicateSpec::Sum { name, op, k } => {
            // Both extremes by max-flow; every step of the benchmark's
            // exact-sum variable is ±1, so every sum in between is
            // attained too.
            let var = int_var(trace, name);
            let ((min, _), (max, _)) = sum_extremes(comp, var);
            q.expected = match op {
                SumOp::Eq => {
                    assert!(
                        var.is_unit_step(),
                        "exact sums on large traces need unit steps"
                    );
                    (min..=max).contains(k)
                }
                SumOp::Lt => min < *k,
                SumOp::Le => min <= *k,
                SumOp::Gt => max > *k,
                SumOp::Ge => max >= *k,
            };
        }
        PredicateSpec::Count { name, spec } => {
            let CountSpec::Exactly(k) = spec else {
                unimplemented!("only `count … exactly K` is used on large traces")
            };
            let ((min, _), (max, _)) =
                sum_extremes(comp, &indicator_variable(comp, bool_var(trace, name)));
            q.expected = (min..=max).contains(&i64::from(*k));
        }
    }
}

/// What one `gpd detect` answered.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    verdict: bool,
    witness: Option<Vec<u32>>,
}

fn parse_answer(out: &str) -> Result<Answer, String> {
    let first = out.lines().next().ok_or("empty output")?;
    let rest = first
        .split_once("): ")
        .ok_or_else(|| format!("no verdict in {first:?}"))?
        .1;
    let verdict = if rest.starts_with("true") {
        true
    } else if rest.starts_with("false") {
        false
    } else {
        return Err(format!("no verdict in {first:?}"));
    };
    let witness = out
        .lines()
        .find_map(|l| l.strip_prefix("witness cut: ["))
        .map(|l| {
            let body = l.split(']').next().unwrap_or("");
            body.split(", ")
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<u32>()
                        .map_err(|e| format!("bad witness {l:?}: {e}"))
                })
                .collect::<Result<Vec<u32>, String>>()
        })
        .transpose()?;
    Ok(Answer { verdict, witness })
}

/// Checks one answer against the query's expectation: the verdict, a
/// witness that is a consistent cut satisfying the predicate, and the
/// fixed witness where one is known.
fn check(trace: &Trace, q: &Query, out: &str) -> Result<Answer, String> {
    let answer = parse_answer(out)?;
    if answer.verdict != q.expected {
        return Err(format!(
            "{}: verdict {} expected {}",
            q.expr, answer.verdict, q.expected
        ));
    }
    if q.definitely || !answer.verdict {
        return Ok(answer);
    }
    let frontier = answer
        .witness
        .as_ref()
        .ok_or_else(|| format!("{}: no witness", q.expr))?;
    check_witness(trace, q, frontier)?;
    if let Some(expected) = &q.witness {
        if expected != frontier {
            return Err(format!(
                "{}: witness {frontier:?} expected {expected:?}",
                q.expr
            ));
        }
    }
    Ok(answer)
}

fn check_witness(trace: &Trace, q: &Query, frontier: &[u32]) -> Result<(), String> {
    let cut = Cut::from_frontier(frontier.to_vec());
    if frontier.len() != trace.computation.process_count() || !trace.computation.is_consistent(&cut)
    {
        return Err(format!(
            "{}: witness {frontier:?} is not a consistent cut",
            q.expr
        ));
    }
    if !holds(trace, &q.spec, &cut) {
        return Err(format!(
            "{}: predicate false at witness {frontier:?}",
            q.expr
        ));
    }
    Ok(())
}

/// Set-up: simulate, write, fix the expected answers, and run one
/// untimed pass (which also spawns the worker pool and fixes the
/// witnesses the oracle left open).
fn setup(flavor: Flavor, seed: u64, dir: &Path) -> Result<Workload, String> {
    let (files, mut queries) = match flavor {
        Flavor::Mix => mix_inputs(seed, dir),
        Flavor::Sweep => sweep_inputs(seed, dir),
    }
    .map_err(|e| format!("writing traces: {e}"))?;
    for q in &mut queries {
        oracle(flavor, &files[q.trace].trace, q);
    }
    for q in &mut queries {
        let out = gpd_cli::run(&q.args(&files)).map_err(|e| format!("{}: {e}", q.expr))?;
        let answer = check(&files[q.trace].trace, q, &out)?;
        if q.witness.is_none() {
            q.witness = answer.witness;
        }
    }
    Ok(Workload { files, queries })
}

/// Samples of the timed passes.
#[derive(Default)]
struct Passes {
    pass_ms: Vec<f64>,
    /// Per query, its latencies.
    per_query: Vec<Vec<f64>>,
    /// The reference loop's time after each pass.
    ref_ms: Vec<f64>,
    /// Pass times as measured; `pass_ms` holds them at nominal speed.
    raw_pass_ms: Vec<f64>,
    events_per_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Runs timed passes until `until`; each query's time is the
/// `gpd_cli::run` call alone, and its answer is checked after.
fn timed_passes(w: &Workload, until: Instant, mut rec: Option<&mut Recorder>) -> Passes {
    let mut out = Passes {
        per_query: vec![Vec::new(); w.queries.len()],
        ..Passes::default()
    };
    let args: Vec<Vec<String>> = w.queries.iter().map(|q| q.args(&w.files)).collect();
    let events: usize = w
        .queries
        .iter()
        .map(|q| w.files[q.trace].trace.computation.event_count())
        .sum();
    while Instant::now() < until {
        let mut pass_ns = 0u128;
        for (i, q) in w.queries.iter().enumerate() {
            let start = Instant::now();
            let result = gpd_cli::run(&args[i]);
            let took = start.elapsed();
            if let Some(rec) = rec.as_deref_mut() {
                let s = rec.ns_at(start);
                rec.record("cli.detect", None, i as u64, s, s + took.as_nanos() as u64);
            }
            pass_ns += took.as_nanos();
            out.attempted += 1;
            out.per_query[i].push(took.as_secs_f64() * 1e3);
            let verdict = result
                .map_err(|e| format!("{}: {e}", q.expr))
                .and_then(|text| check(&w.files[q.trace].trace, q, &text));
            if let Err(e) = verdict {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(e);
                }
            }
        }
        let ref_ms = host::reference_ms();
        let pass_ms = pass_ns as f64 / 1e6;
        out.ref_ms.push(ref_ms);
        out.raw_pass_ms.push(pass_ms);
        out.pass_ms.push(pass_ms * host::factor(ref_ms));
        out.events_per_s
            .push(events as f64 / (pass_ms * host::factor(ref_ms) / 1e3));
    }
    out
}

pub fn run(flavor: Flavor, args: &RunArgs) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        workload = Some(setup(flavor, args.seed, &args.work)?);
        let took = start.elapsed().as_secs_f64();
        setup_s.push(took * host::factor(host::reference_ms()));
    }
    let w = workload.expect("at least one set-up");
    let setup_s = median(&setup_s).expect("set-up samples");

    if args.trace {
        return traced(&w, args);
    }
    let passes = timed_passes(&w, Instant::now() + args.duration(), None);
    for e in &passes.errors {
        eprintln!("check failed: {e}");
    }
    for (query, ms) in w.queries.iter().zip(&passes.per_query) {
        eprintln!(
            "{:>10.3} ms  {} {}",
            median(ms).unwrap_or(0.0),
            query.expr,
            query.flags.join(" ")
        );
    }
    eprintln!(
        "pass wall time median {:.3} ms, reference loop median {:.3} ms",
        median(&passes.raw_pass_ms).unwrap_or(0.0),
        median(&passes.ref_ms).unwrap_or(0.0)
    );
    eprintln!(
        "{} passes, {} queries per pass, {} query samples",
        passes.pass_ms.len(),
        w.queries.len(),
        passes.attempted
    );
    // A pass is the request here, and a query's share of it the
    // latency of one answer: on detect, the query is what is acked.
    let per_query_ms: Vec<f64> = passes
        .pass_ms
        .iter()
        .map(|p| p / w.queries.len() as f64)
        .collect();
    let ack_p50 = median(&per_query_ms).ok_or("no passes")?;
    let mut outcome = Outcome::new(passes.attempted, passes.failed);
    outcome.metric("setup_s", setup_s);
    outcome.metric("latency_ms", median(&passes.pass_ms).ok_or("no passes")?);
    outcome.metric("ack_p50_ms", ack_p50);
    outcome.metric("query_p50_ms", ack_p50);
    outcome.metric(
        "events_per_s",
        median(&passes.events_per_s).ok_or("no passes")?,
    );
    Ok(outcome)
}

/// Rebuilds the parsed computation with a fresh builder, so that
/// `ComputationBuilder::build` can be timed apart from parsing.
fn rebuild(comp: &Computation) -> ComputationBuilder {
    let mut b = ComputationBuilder::new(comp.process_count());
    let mut map = vec![EventId::from_index(0); comp.event_count()];
    for p in 0..comp.process_count() {
        for &e in comp.events_of(p) {
            map[e.index()] = b.append(p);
        }
    }
    for &(s, r) in comp.messages() {
        b.message(map[s.index()], map[r.index()])
            .expect("recorded message");
    }
    b
}

/// Per-pass layer totals of the decomposed run.
type PassLayers = BTreeMap<&'static str, f64>;

fn add(layers: &mut PassLayers, name: &'static str, v: f64) {
    *layers.entry(name).or_default() += v;
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Spans and layer totals of one query of the decomposed run.
struct QueryTrace<'r> {
    rec: &'r mut Recorder,
    root: usize,
    id: u64,
    layers: &'r mut PassLayers,
}

impl QueryTrace<'_> {
    /// Times `f` as span `span`, adds its time to `ms_key`, and adds the
    /// work counters it moved to their layer rows.
    fn measured<T>(
        &mut self,
        span: &'static str,
        ms_key: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, ScanCounters) {
        let before = work_snapshot();
        let t = Instant::now();
        let out = self.rec.time(span, Some(self.root), self.id, f);
        add(self.layers, ms_key, ms_since(t));
        let work = work_since(&before);
        for (key, v) in [
            ("scan.runs", work.scan_runs),
            ("scan.pair_checks", work.pair_checks),
            ("scan.forces_evals", work.forces_evals),
            ("kernel.clock_row_reads", work.clock_row_reads),
            ("kernel.dominance_batches", work.dominance_batches),
            ("slice.nodes_before", work.slice_nodes_before),
            ("slice.nodes_after", work.slice_nodes_after),
            ("par.waves", work.par_waves),
            ("par.steals", work.par_steals),
        ] {
            add(self.layers, key, v as f64);
        }
        (out, work)
    }

    /// Runs a parallel engine at one thread (the baseline, outside the
    /// layer rows) and then at two (the query's own path), recording
    /// both times and the useful work — budget nodes plus scan runs —
    /// at each. Returns the two-thread answer.
    fn parallel<T>(
        &mut self,
        layer: &'static str,
        ms_key: &'static str,
        mut engine: impl FnMut(usize, &BudgetMeter) -> Result<T, String>,
    ) -> Result<T, String> {
        let meter = BudgetMeter::new();
        let before = work_snapshot();
        let t = Instant::now();
        self.rec
            .time("engine.1t", Some(self.root), self.id, || engine(1, &meter))?;
        let ms_1t = ms_since(t);
        let runs_1t = work_since(&before).scan_runs;
        add(self.layers, "par.ms_1t", ms_1t);
        add(
            self.layers,
            "par.work_1t",
            (meter_nodes(&meter) + runs_1t) as f64,
        );
        if layer == "enumerate" {
            add(self.layers, "enumerate.ms_1t", ms_1t);
            add(self.layers, "enumerate.nodes", meter_nodes(&meter) as f64);
        }

        let meter = BudgetMeter::new();
        let t = Instant::now();
        let (out, work) = self.measured(layer, ms_key, || engine(2, &meter));
        add(self.layers, "par.ms_2t", ms_since(t));
        add(
            self.layers,
            "par.work_2t",
            (meter_nodes(&meter) + work.scan_runs) as f64,
        );
        out
    }
}

/// Runs one query through the public function of each layer, composed
/// the way `gpd detect` composes them, recording a span per layer.
/// Returns the verdict and the witness frontier, if any.
fn layered_query(
    file: &TraceFile,
    q: &Query,
    rec: &mut Recorder,
    id: u64,
    layers: &mut PassLayers,
) -> Result<(bool, Option<Vec<u32>>), String> {
    let root = rec.open("detect.query", None, id);
    let mut qt = QueryTrace {
        rec,
        root,
        id,
        layers,
    };

    let (trace, _) = qt.measured("trace.read", "trace.read_ms", || {
        std::fs::read_to_string(&file.path)
            .map_err(|e| e.to_string())
            .and_then(|text| read_trace(&text).map_err(|e| e.to_string()))
    });
    let trace = trace?;
    let builder = rebuild(&trace.computation);
    let (built, _) = qt.measured("builder.build", "builder.build_ms", || builder.build());
    built.map_err(|e| e.to_string())?;

    let comp = &trace.computation;
    let unlimited = Budget::unlimited();
    let witness: Option<Cut> = match &q.spec {
        PredicateSpec::Conjunction(ls) => {
            let truth = truth_variable(&trace, ls);
            let procs: Vec<ProcessId> = ls.iter().map(|l| ProcessId::new(l.process)).collect();
            if q.flags.iter().any(|f| f == "force") {
                let literals: Vec<(ProcessId, bool)> = procs.iter().map(|&p| (p, true)).collect();
                let pred = RegularPredicate::conjunction(comp, &truth, &literals);
                let (slice, _) = qt.measured("slice.build", "slice.build_ms", || {
                    Slice::build(comp, &pred)
                });
                slice.least().cloned()
            } else {
                qt.measured("conjunctive", "conjunctive.ms", || {
                    possibly_conjunctive(comp, &truth, &procs)
                })
                .0
            }
        }
        PredicateSpec::Cnf(cs) => {
            let truth = truth_variable(&trace, &cs.iter().flatten().cloned().collect::<Vec<_>>());
            let phi = positive_cnf(cs);
            let envelope = if q.flags.iter().any(|f| f == "off") {
                None
            } else {
                cnf_envelope(comp, &truth, &phi)
            };
            let slice = envelope.map(|env| {
                qt.measured("slice.build", "slice.build_ms", || Slice::build(comp, &env))
                    .0
            });
            let eval = |c: &Cut| phi.eval(&truth, c);
            if q.definitely {
                let holds = qt.parallel("enumerate", "enumerate.ms_2t", |threads, meter| {
                    decided(match &slice {
                        Some(sl) => definitely_levelwise_sliced_budgeted(
                            comp, sl, eval, threads, &unlimited, meter, None,
                        ),
                        None => definitely_levelwise_budgeted(
                            comp, eval, threads, &unlimited, meter, None,
                        ),
                    })
                })?;
                qt.rec.close(root);
                return Ok((holds, None));
            }
            let engine = |threads: usize, meter: &BudgetMeter| {
                decided(match &slice {
                    Some(sl) => possibly_singular_sliced_budgeted(
                        comp, &truth, &phi, sl, threads, &unlimited, meter, None,
                    ),
                    None => possibly_singular_budgeted(
                        comp, &truth, &phi, threads, &unlimited, meter, None,
                    ),
                })
            };
            if q.threads >= 2 {
                qt.parallel("singular", "singular.ms", engine)?
            } else {
                let meter = BudgetMeter::new();
                qt.measured("singular", "singular.ms", || engine(q.threads, &meter))
                    .0?
            }
        }
        PredicateSpec::Sum { name, op, k } => {
            let var = int_var(&trace, name);
            if *op == SumOp::Eq && !var.is_unit_step() {
                qt.parallel("enumerate", "enumerate.ms_2t", |threads, meter| {
                    decided(possibly_by_enumeration_budgeted(
                        comp,
                        |c| var.sum_at(c) == *k,
                        threads,
                        &unlimited,
                        meter,
                        None,
                    ))
                })?
            } else if *op == SumOp::Eq {
                let meter = BudgetMeter::new();
                qt.measured("relational", "relational.ms", || {
                    decided(possibly_exact_sum_budgeted(
                        comp, var, *k, q.threads, &unlimited, &meter, None,
                    ))
                })
                .0?
            } else {
                qt.measured("relational", "relational.ms", || {
                    possibly_sum(comp, var, relop(*op), *k)
                })
                .0
            }
        }
        PredicateSpec::Count { name, spec } => {
            let CountSpec::Exactly(k) = spec else {
                unimplemented!("only `count … exactly K` is used by the benchmark")
            };
            let phi = SymmetricPredicate::exactly(*k);
            qt.measured("symmetric", "symmetric.ms", || {
                possibly_symmetric(comp, bool_var(&trace, name), &phi)
            })
            .0
        }
    };

    let frontier = witness.map(|c| c.frontier().to_vec());
    if let Some(f) = &frontier {
        qt.measured("witness.check", "witness.check_ms", || {
            check_witness(&trace, q, f)
        })
        .0?;
    }
    qt.rec.close(root);
    Ok((frontier.is_some(), frontier))
}

fn decided<T>(v: Result<Verdict<T>, gpd::DetectError>) -> Result<T, String> {
    match v.map_err(|e| e.to_string())? {
        Verdict::Decided(t, _) => Ok(t),
        Verdict::Unknown(_) => Err("unlimited budget returned unknown".into()),
    }
}

/// The traced run: untraced passes, passes with a span around every
/// `gpd detect` call (their difference is the tracing overhead), then
/// passes decomposed into the public function of each layer.
fn traced(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let third = args.duration() / 3;
    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let plain = timed_passes(w, origin + third, None);
    let with_spans = timed_passes(w, Instant::now() + third, Some(&mut rec));
    let mut attempted = plain.attempted + with_spans.attempted;
    let mut failed = plain.failed + with_spans.failed;
    for e in plain.errors.iter().chain(&with_spans.errors) {
        eprintln!("check failed: {e}");
    }

    let until = Instant::now() + third;
    let mut passes: Vec<PassLayers> = Vec::new();
    let mut id = 0;
    while Instant::now() < until || passes.is_empty() {
        let mut layers = PassLayers::new();
        for q in &w.queries {
            attempted += 1;
            id += 1;
            let result = layered_query(&w.files[q.trace], q, &mut rec, id, &mut layers);
            let ok = match &result {
                Ok((verdict, witness)) => {
                    *verdict == q.expected
                        && (q.definitely || q.witness.is_none() || *witness == q.witness)
                }
                Err(_) => false,
            };
            if !ok {
                failed += 1;
                eprintln!("layered check failed: {}: {result:?}", q.expr);
            }
        }
        passes.push(layers);
    }
    rec.write_jsonl(&args.spans_path())
        .map_err(|e| format!("writing spans: {e}"))?;

    let per_pass = |key: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.get(key).copied().unwrap_or(0.0))
            .collect()
    };
    let med = |key: &str| median(&per_pass(key)).unwrap_or(0.0);
    let ratio = |num: &str, den: &str| -> f64 {
        let r: Vec<f64> = per_pass(num)
            .iter()
            .zip(per_pass(den))
            .filter(|(_, d)| *d > 0.0)
            .map(|(n, d)| n / d)
            .collect();
        median(&r).unwrap_or(0.0)
    };
    let mut outcome = Outcome::new(attempted, failed);
    let keys: std::collections::BTreeSet<&'static str> =
        passes.iter().flat_map(|p| p.keys().copied()).collect();
    for key in keys
        .into_iter()
        .filter(|k| !k.starts_with("par.ms_") && !k.starts_with("par.work_"))
    {
        outcome.metric(key, med(key));
    }
    let parse_self: Vec<f64> = per_pass("trace.read_ms")
        .iter()
        .zip(per_pass("builder.build_ms"))
        .map(|(r, b)| r - b)
        .collect();
    outcome.metric("trace.parse_self_ms", median(&parse_self).unwrap_or(0.0));
    outcome.metric("par.speedup_2t", ratio("par.ms_1t", "par.ms_2t"));
    outcome.metric("par.work_ratio_2t", ratio("par.work_2t", "par.work_1t"));
    outcome.metric(
        "par.threads_spawned",
        work_snapshot().par_threads_spawned as f64,
    );
    let plain_ms = median(&plain.pass_ms).ok_or("no untraced passes")?;
    let traced_ms = median(&with_spans.pass_ms).ok_or("no traced passes")?;
    outcome.metric(
        "trace.overhead_pct",
        (traced_ms - plain_ms) / plain_ms * 100.0,
    );
    outcome.metric(
        "trace.samples",
        (plain.attempted + with_spans.attempted) as f64,
    );
    let refs: Vec<f64> = plain
        .ref_ms
        .iter()
        .chain(&with_spans.ref_ms)
        .copied()
        .collect();
    outcome.metric("host.ref_ms", median(&refs).unwrap_or(0.0));
    eprintln!(
        "traced: {} untraced passes, {} passes with spans, {} layered passes",
        plain.pass_ms.len(),
        with_spans.pass_ms.len(),
        passes.len()
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voting_query(dir: &Path) -> (TraceFile, Query) {
        let trace = sim_to_trace(simulate(Voter::electorate(4, 0.5), 7, 10_000));
        let file = write_file(dir, "voting", trace).unwrap();
        let mut q = query(0, "conj voted@0 voted@1".into(), &[]);
        oracle(Flavor::Sweep, &file.trace, &mut q);
        (file, q)
    }

    #[test]
    fn checks_accept_the_right_answer_and_catch_a_wrong_expectation() {
        let dir = std::env::temp_dir().join(format!("perfbench-detect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (file, mut q) = voting_query(&dir);
        let out = gpd_cli::run(&q.args(std::slice::from_ref(&file))).unwrap();
        let answer = check(&file.trace, &q, &out).expect("the oracle agrees with gpd detect");
        assert!(answer.verdict, "every voter eventually votes");
        // The enumeration oracle fixes the unique least witness.
        assert_eq!(answer.witness, q.witness);

        q.expected = !q.expected;
        assert!(
            check(&file.trace, &q, &out).is_err(),
            "a wrong verdict is caught"
        );
        q.expected = !q.expected;
        q.witness = Some(vec![0; file.trace.computation.process_count()]);
        assert!(
            check(&file.trace, &q, &out).is_err(),
            "a wrong witness is caught"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn answers_parse_with_and_without_a_witness() {
        let a = parse_answer("Possibly(x): true\nwitness cut: [1, 0, 2]\n").unwrap();
        assert_eq!(
            a,
            Answer {
                verdict: true,
                witness: Some(vec![1, 0, 2])
            }
        );
        let b = parse_answer("Possibly(x): false (by enumeration)\n").unwrap();
        assert_eq!(
            b,
            Answer {
                verdict: false,
                witness: None
            }
        );
        assert!(parse_answer("garbage").is_err());
    }
}
