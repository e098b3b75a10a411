//! Subcommand implementations.

use std::collections::HashMap;

use gpd::counters::ScanCounters;
use gpd::detect::{
    enumeration_guard, Answer, Modality, Options, Predicate, Query, Report, Slicing,
    ENUMERATION_LIMIT, EXACT_SUM_ENUMERATION,
};
use gpd::symmetric::SymmetricPredicate;
use gpd::{Budget, Checkpoint, CnfClause, DetectError, Progress, Relop, SingularCnf, Verdict};
use gpd_computation::trace::{read_trace, write_trace, Trace};
use gpd_computation::{to_dot, BoolVariable, ProcessId};
use gpd_sim::protocols::{BankBranch, ChangRoberts, RicartAgrawala, TokenRing, Voter};
use gpd_sim::{Process, SimConfig, SimTrace, Simulation};

use crate::predicate::{parse, CountSpec, LitSpec, PredicateSpec, SumOp};
use crate::CliError;

/// Parsed flags: `--name value` pairs, bare `--switch`es, and positionals.
pub(crate) struct Flags {
    pub(crate) positional: Vec<String>,
    pub(crate) values: HashMap<String, String>,
    pub(crate) switches: Vec<String>,
}

/// A subcommand's accepted flags: those that take a value, then the
/// bare switches. `USAGE` names exactly these.
pub(crate) type FlagSpec = (&'static [&'static str], &'static [&'static str]);

pub(crate) fn parse_flags(
    args: &[String],
    (value_flags, switch_flags): FlagSpec,
) -> Result<Flags, CliError> {
    let mut flags = Flags {
        positional: Vec::new(),
        values: HashMap::new(),
        switches: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--").or_else(|| arg.strip_prefix('-')) {
            if value_flags.contains(&name) {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
                flags.values.insert(name.to_string(), value.clone());
            } else if switch_flags.contains(&name) {
                flags.switches.push(name.to_string());
            } else {
                return Err(CliError::Usage(format!("unknown flag --{name}")));
            }
        } else {
            flags.positional.push(arg.clone());
        }
    }
    Ok(flags)
}

impl Flags {
    pub(crate) fn get_usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    pub(crate) fn get_u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    pub(crate) fn get_f64(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

pub(crate) fn load_trace(path: &str) -> Result<Trace, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    read_trace(&text).map_err(|e| CliError::Trace(e.to_string()))
}

fn trace_text(trace: &SimTrace) -> String {
    let bools: Vec<(&str, &BoolVariable)> = trace
        .bool_vars
        .iter()
        .map(|(n, v)| (n.as_str(), v))
        .collect();
    let ints: Vec<(&str, &gpd_computation::IntVariable)> = trace
        .int_vars
        .iter()
        .map(|(n, v)| (n.as_str(), v))
        .collect();
    write_trace(&trace.computation, &bools, &ints)
}

pub(crate) const SIMULATE_FLAGS: FlagSpec = (&["n", "seed", "tokens", "rounds", "o"], &["buggy"]);

/// `gpd simulate <protocol> [--n N] [--seed S] [--tokens K] [--rounds R] [--buggy] [-o FILE]`
pub fn simulate(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, SIMULATE_FLAGS)?;
    let [protocol] = flags.positional.as_slice() else {
        return Err(CliError::Usage(
            "simulate <token-ring|mutex|election|voting|bank|2pc> [flags]".into(),
        ));
    };
    let n = flags.get_usize("n", 4)?;
    let seed = flags.get_u64("seed", 0)?;
    let config = SimConfig::new(seed);
    let buggy = flags.has("buggy");

    fn run_protocol<P: Process>(processes: Vec<P>, config: SimConfig) -> SimTrace {
        Simulation::new(processes, config).run()
    }

    let trace = match protocol.as_str() {
        "token-ring" => {
            let tokens = flags.get_usize("tokens", (n / 2).max(1))?;
            if tokens > n {
                return Err(CliError::Usage(format!(
                    "--tokens {tokens} exceeds --n {n}"
                )));
            }
            run_protocol(
                TokenRing::ring_with_bug(n, tokens, if buggy { 2 } else { 0 }),
                config,
            )
        }
        "mutex" => {
            let rounds = flags.get_usize("rounds", 2)? as u32;
            run_protocol(RicartAgrawala::group_with_bug(n, rounds, buggy), config)
        }
        "election" => {
            // Distinct pseudo-random uids, deterministic in the seed.
            let uids: Vec<u64> = (0..n as u64).map(|i| i * 1000 + (seed + i) % 997).collect();
            run_protocol(ChangRoberts::ring(&uids), config)
        }
        "voting" => run_protocol(Voter::electorate(n, 0.5), config),
        "bank" => run_protocol(BankBranch::network(n, 100, 3, 50), config),
        "2pc" => run_protocol(
            gpd_sim::protocols::TwoPhaseCommit::transaction(
                n.max(2),
                if buggy { 0.5 } else { 0.0 },
            ),
            config,
        ),
        other => {
            return Err(CliError::Usage(format!(
                "unknown protocol {other:?} (token-ring|mutex|election|voting|bank|2pc)"
            )))
        }
    };

    let text = trace_text(&trace);
    match flags.values.get("o") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            Ok(format!(
                "wrote {} events / {} messages to {path}",
                trace.computation.event_count(),
                trace.computation.messages().len()
            ))
        }
        None => Ok(text),
    }
}

pub(crate) const STATS_FLAGS: FlagSpec = (&[], &["cuts"]);

/// `gpd stats <trace> [--cuts]`
pub fn stats(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, STATS_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage("stats <trace> [--cuts]".into()));
    };
    let trace = load_trace(path)?;
    let comp = &trace.computation;
    let mut out = format!(
        "processes: {}\nevents: {}\nmessages: {}\n",
        comp.process_count(),
        comp.event_count(),
        comp.messages().len()
    );
    for p in 0..comp.process_count() {
        out.push_str(&format!("  p{p}: {} events\n", comp.events_on(p)));
    }
    let st = gpd_computation::stats(comp);
    out.push_str(&format!(
        "width (max concurrent events): {}\nheight (longest causal chain): {}\n",
        st.width, st.height
    ));
    if !trace.bool_vars.is_empty() {
        let names: Vec<&str> = trace.bool_vars.iter().map(|(n, _)| n.as_str()).collect();
        out.push_str(&format!("bool variables: {}\n", names.join(", ")));
    }
    if !trace.int_vars.is_empty() {
        let names: Vec<&str> = trace.int_vars.iter().map(|(n, _)| n.as_str()).collect();
        out.push_str(&format!("int variables: {}\n", names.join(", ")));
    }
    if flags.has("cuts") {
        if comp.event_count() > ENUMERATION_LIMIT {
            return Err(CliError::Intractable(format!(
                "counting cuts is exponential; refusing above {ENUMERATION_LIMIT} events ({} here)",
                comp.event_count()
            )));
        }
        out.push_str(&format!(
            "consistent cuts: {}\n",
            comp.consistent_cuts().count()
        ));
    }
    Ok(out)
}

pub(crate) const LATTICE_FLAGS: FlagSpec = (&[], &["enumerate"]);

/// `gpd lattice <trace> [--enumerate]`: the per-level consistent-cut
/// profile — how wide the state space is at each logical step.
pub fn lattice(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, LATTICE_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage("lattice <trace> [--enumerate]".into()));
    };
    let trace = load_trace(path)?;
    let comp = &trace.computation;
    enumeration_guard(comp, flags.has("enumerate"), "the lattice profile").map_err(detect_error)?;
    let profile = gpd_computation::lattice_profile(comp);
    let total: usize = profile.iter().sum();
    let widest = profile.iter().copied().max().unwrap_or(0).max(1);
    let mut out = format!("consistent cuts: {total}\n");
    for (level, &count) in profile.iter().enumerate() {
        let bar = "#".repeat((count * 40).div_ceil(widest));
        out.push_str(&format!("{level:>4} | {count:>8} {bar}\n"));
    }
    Ok(out)
}

pub(crate) const DOT_FLAGS: FlagSpec = (&["var"], &[]);

/// `gpd dot <trace> [--var NAME]`
pub fn dot(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, DOT_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage("dot <trace> [--var NAME]".into()));
    };
    let trace = load_trace(path)?;
    let var = match flags.values.get("var") {
        None => None,
        Some(name) => Some(find_bool(&trace, name)?),
    };
    Ok(to_dot(&trace.computation, var))
}

pub(crate) fn find_bool<'a>(trace: &'a Trace, name: &str) -> Result<&'a BoolVariable, CliError> {
    trace
        .bool_vars
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| {
            let known: Vec<&str> = trace.bool_vars.iter().map(|(n, _)| n.as_str()).collect();
            CliError::Trace(format!(
                "no boolean variable {name:?} (known: {})",
                known.join(", ")
            ))
        })
}

pub(crate) fn find_int<'a>(
    trace: &'a Trace,
    name: &str,
) -> Result<&'a gpd_computation::IntVariable, CliError> {
    trace
        .int_vars
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| {
            let known: Vec<&str> = trace.int_vars.iter().map(|(n, _)| n.as_str()).collect();
            CliError::Trace(format!(
                "no integer variable {name:?} (known: {})",
                known.join(", ")
            ))
        })
}

/// Combines possibly differently-named literals into one per-process
/// boolean variable whose value *is the literal's truth* — detection then
/// only sees positive literals.
fn literal_truth_variable(trace: &Trace, literals: &[LitSpec]) -> Result<BoolVariable, CliError> {
    let comp = &trace.computation;
    let mut tracks: Vec<Vec<bool>> = (0..comp.process_count())
        .map(|p| vec![false; comp.events_on(p) + 1])
        .collect();
    let mut used = vec![false; comp.process_count()];
    for lit in literals {
        if lit.process >= comp.process_count() {
            return Err(CliError::Trace(format!(
                "process {} out of range ({} processes)",
                lit.process,
                comp.process_count()
            )));
        }
        if std::mem::replace(&mut used[lit.process], true) {
            return Err(CliError::Parse(format!(
                "process {} appears in two literals; one literal per process",
                lit.process
            )));
        }
        let var = find_bool(trace, &lit.name)?;
        tracks[lit.process] = var.tracks()[lit.process]
            .iter()
            .map(|&v| v == lit.positive)
            .collect();
    }
    Ok(BoolVariable::new(comp, tracks))
}

/// Maps a refused or failed detection onto the CLI's error kinds.
fn detect_error(err: DetectError) -> CliError {
    let kind = match err {
        DetectError::NeedsEnumeration { .. } => CliError::Intractable,
        DetectError::NotResumable(_) | DetectError::NotRegular(_) | DetectError::NoEnvelope => {
            CliError::Usage
        }
        DetectError::PredicatePanicked(_) | DetectError::CheckpointMismatch(_) => CliError::Trace,
    };
    kind(err.to_string())
}

/// The budget flags: the budget when any bounding flag is given, and the
/// checkpoint `--resume` names.
fn parse_budget(
    flags: &Flags,
    expr: &str,
) -> Result<(Option<Budget>, Option<Checkpoint>), CliError> {
    let mut budget = Budget::unlimited();
    let mut bounded = false;
    if let Some(ms) = flags.values.get("deadline-ms") {
        let ms: u64 = ms.parse().map_err(|_| {
            CliError::Usage(format!("--deadline-ms expects milliseconds, got {ms:?}"))
        })?;
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
        bounded = true;
    }
    if flags.values.contains_key("max-nodes") {
        budget = budget.with_max_nodes(flags.get_u64("max-nodes", 0)?);
        bounded = true;
    }
    if flags.values.contains_key("max-width") {
        budget = budget.with_max_width(flags.get_usize("max-width", 0)?);
        bounded = true;
    }
    let resume = match flags.values.get("resume") {
        None => None,
        Some(ckpt_path) => {
            let text = std::fs::read_to_string(ckpt_path)
                .map_err(|e| CliError::Io(format!("{ckpt_path}: {e}")))?;
            let cp = Checkpoint::from_text(&text)
                .map_err(|e| CliError::Trace(format!("{ckpt_path}: {e}")))?;
            // The label pins the predicate the checkpoint was taken for:
            // resuming a different question would silently answer the
            // wrong one (the engine only fingerprints the computation).
            if !cp.label().is_empty() && cp.label() != expr {
                return Err(CliError::Usage(format!(
                    "checkpoint {ckpt_path} was taken for predicate {:?}, not {expr:?}",
                    cp.label()
                )));
            }
            Some(cp)
        }
    };
    Ok((bounded.then_some(budget), resume))
}

/// One-line summary of the sound partial bounds a budgeted run settled.
fn progress_summary(p: &Progress) -> String {
    let mut parts = vec![format!("{} nodes explored", p.nodes_explored)];
    if let Some(l) = p.levels_swept {
        parts.push(format!("{l} lattice levels swept witness-free"));
    }
    match (p.combinations_eliminated, p.combinations_total) {
        (Some(e), Some(t)) => parts.push(format!("{e}/{t} combinations eliminated")),
        (Some(e), None) => parts.push(format!("{e} combinations eliminated")),
        _ => {}
    }
    if let Some((lo, hi)) = p.sum_interval {
        parts.push(format!("attainable sums lie in [{lo}, {hi}]"));
    }
    parts.join(", ")
}

/// Turns an exhausted budget into the `Unknown` outcome: persist the
/// checkpoint (labelled with the predicate expression, so a resume for a
/// different question is refused) and surface reason + bounds.
fn budget_exhausted(partial: &gpd::Partial, path: &str, expr: &str) -> Result<String, CliError> {
    let mut cp = partial.checkpoint.clone();
    cp.set_label(expr);
    std::fs::write(path, cp.to_text()).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Err(CliError::Unknown(format!(
        "{}; {}; checkpoint written to {path} (resume with --resume {path})",
        partial.reason,
        progress_summary(&partial.progress),
    )))
}

/// The relation of a `sum` predicate other than `==`.
fn sum_relop(op: SumOp) -> Relop {
    match op {
        SumOp::Lt => Relop::Lt,
        SumOp::Le => Relop::Le,
        SumOp::Gt => Relop::Gt,
        SumOp::Ge => Relop::Ge,
        SumOp::Eq => unreachable!("`==` is the exact-sum question"),
    }
}

fn symmetric_predicate(spec: CountSpec, n: u32) -> SymmetricPredicate {
    match spec {
        CountSpec::In(counts) => SymmetricPredicate::new(counts),
        CountSpec::Xor => SymmetricPredicate::exclusive_or(n),
        CountSpec::NotAllEqual => SymmetricPredicate::not_all_equal(n),
        CountSpec::AllEqual => SymmetricPredicate::all_equal(n),
        CountSpec::NoMajority => SymmetricPredicate::absence_of_simple_majority(n),
        CountSpec::NoTwoThirds => SymmetricPredicate::absence_of_two_thirds_majority(n),
        CountSpec::Exactly(k) => SymmetricPredicate::exactly(k),
    }
}

/// The `--stats` block: the engine that ran, then the work counted since
/// `before`, and the budget spent when the run was budgeted.
fn stats_block(engine: &str, before: &ScanCounters, options: &Options, nodes: u64) -> String {
    let w = gpd::counters::snapshot().since(before);
    // Which worker takes which span is a race, so the steal count
    // varies between identical runs: on its own line, so the work
    // lines can be diffed between builds.
    let mut out = format!(
        "engine: {engine}\n\
         scan stats: {} scan runs, {} pair checks, {} forces evaluations\n\
         kernel stats: {} clock-row reads, {} cut-successor allocations, {} vector-clock allocations\n\
         parallel stats: {} pool waves, {} threads spawned, {} batched dominance passes\n\
         timing-dependent: {} steals\n\
         slice stats: {} nodes before, {} after\n\
         monitor stats: {} observed, {} duplicate, {} stale deliveries, peak queue depth {}\n",
        w.scan_runs, w.pair_checks, w.forces_evals,
        w.clock_row_reads, w.cut_successor_allocs, w.vclock_allocs,
        w.par_waves, w.par_threads_spawned, w.dominance_batches,
        w.par_steals,
        w.slice_nodes_before, w.slice_nodes_after,
        w.monitor_observed, w.monitor_duplicates, w.monitor_stale, w.monitor_queue_peak,
    );
    if options.budget.is_some() || options.resume.is_some() {
        let remaining = match options.budget.as_ref().and_then(Budget::remaining_time) {
            Some(d) => format!(", {}ms of deadline left", d.as_millis()),
            None => String::new(),
        };
        out.push_str(&format!(
            "budget stats: {nodes} nodes explored{remaining}\n"
        ));
    }
    out
}

const DETECT_USAGE: &str = "detect <trace> --pred \"EXPR\" [--definitely] [--enumerate] \
    [--threads N] [--stats] [--slice off|auto|force] [--deadline-ms N] [--max-nodes N] \
    [--max-width N] [--resume CKPT] [--checkpoint FILE]";

fn parse_slicing(flags: &Flags) -> Result<Slicing, CliError> {
    match flags.values.get("slice").map(String::as_str) {
        None | Some("auto") => Ok(Slicing::Auto),
        Some("off") => Ok(Slicing::Off),
        Some("force") => Ok(Slicing::Force),
        Some(other) => Err(CliError::Usage(format!(
            "--slice expects off, auto, or force, got {other:?}"
        ))),
    }
}

/// The CNF over the literal-truth variable: it holds each literal's
/// truth, so every literal is positive.
fn positive_cnf(clauses: &[Vec<LitSpec>]) -> SingularCnf {
    let positive = |c: &Vec<LitSpec>| {
        CnfClause::new(
            c.iter()
                .map(|l| (ProcessId::new(l.process), true))
                .collect(),
        )
    };
    SingularCnf::new(clauses.iter().map(positive).collect())
}

/// The verdict line, marked when the exhaustive fallback answered it,
/// then the witness cut when there is one (with its sum for a `sum`
/// relop question).
fn answer_text(question: &str, report: &Report, predicate: &Predicate<'_>) -> String {
    let marker = match report.engine {
        EXACT_SUM_ENUMERATION => " (by enumeration)",
        _ => "",
    };
    match report.verdict.value() {
        Some(Answer::Witness(Some(cut))) => {
            let sum = match predicate {
                Predicate::Sum { var, .. } => format!(" (Σ = {})", var.sum_at(cut)),
                _ => String::new(),
            };
            let frontier = cut.frontier();
            format!("{question}: true{marker}\nwitness cut: {frontier:?}{sum}\n")
        }
        Some(Answer::Holds(holds)) => format!("{question}: {holds}{marker}\n"),
        _ => format!("{question}: false{marker}\n"),
    }
}

pub(crate) const DETECT_FLAGS: FlagSpec = (
    &[
        "pred",
        "threads",
        "deadline-ms",
        "max-nodes",
        "max-width",
        "resume",
        "checkpoint",
        "slice",
    ],
    &["definitely", "enumerate", "stats"],
);

/// `gpd detect <trace> --pred "EXPR" [--definitely] [--enumerate] [--threads N] [--stats]
///  [--slice off|auto|force] [--deadline-ms N] [--max-nodes N] [--max-width N]
///  [--resume CKPT] [--checkpoint FILE]`
pub fn detect(args: &[String]) -> Result<String, CliError> {
    let flags = parse_flags(args, DETECT_FLAGS)?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(DETECT_USAGE.into()));
    };
    let slicing = parse_slicing(&flags)?;
    let expr = flags
        .values
        .get("pred")
        .ok_or_else(|| CliError::Usage("detect needs --pred \"EXPR\"".into()))?;
    let spec = parse(expr)?;
    let trace = load_trace(path)?;
    let comp = &trace.computation;
    // 0 = sequential (the default); N ≥ 2 fans the combinatorial CNF
    // scans and the lattice sweeps out over N workers, with the
    // sequential verdict and witness.
    let threads = flags.get_usize("threads", 0)?;
    let (budget, resume) = parse_budget(&flags, expr)?;
    let options = Options {
        threads,
        budget,
        slicing,
        resume,
        enumerate: flags.has("enumerate"),
    };

    let before = flags.has("stats").then(gpd::counters::snapshot);
    // The query borrows what the predicate is built from.
    let (truth, processes, cnf, symmetric);
    let predicate = match spec {
        PredicateSpec::Conjunction(lits) => {
            truth = literal_truth_variable(&trace, &lits)?;
            processes = lits
                .iter()
                .map(|l| ProcessId::new(l.process))
                .collect::<Vec<_>>();
            Predicate::Conjunction {
                var: &truth,
                processes: &processes,
            }
        }
        PredicateSpec::Cnf(clauses) => {
            let all_lits: Vec<LitSpec> = clauses.iter().flatten().cloned().collect();
            truth = literal_truth_variable(&trace, &all_lits)?;
            cnf = positive_cnf(&clauses);
            Predicate::SingularCnf {
                var: &truth,
                cnf: &cnf,
            }
        }
        PredicateSpec::Sum { name, op, k } => {
            let var = find_int(&trace, &name)?;
            match op {
                SumOp::Eq => Predicate::ExactSum { var, k },
                op => Predicate::Sum {
                    var,
                    relop: sum_relop(op),
                    k,
                },
            }
        }
        PredicateSpec::Count { name, spec } => {
            let var = find_bool(&trace, &name)?;
            symmetric = symmetric_predicate(spec, comp.process_count() as u32);
            Predicate::Symmetric {
                var,
                predicate: &symmetric,
            }
        }
    };
    let modality = match flags.has("definitely") {
        true => Modality::Definitely,
        false => Modality::Possibly,
    };
    let query = Query {
        comp,
        predicate,
        modality,
    };
    let report = gpd::detect(&query, &options).map_err(detect_error)?;

    if let Verdict::Unknown(partial) = &report.verdict {
        let default_path = format!("{path}.ckpt");
        let ckpt = flags.values.get("checkpoint").unwrap_or(&default_path);
        return budget_exhausted(partial, ckpt, expr);
    }
    let mut out = answer_text(&format!("{modality:?}({expr})"), &report, &predicate);
    if let Some(before) = before {
        let nodes = report.verdict.progress().nodes_explored;
        out.push_str(&stats_block(report.engine, &before, &options, nodes));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_trace(name: &str, protocol: &str, extra: &[&str]) -> String {
        let path =
            std::env::temp_dir().join(format!("gpd-cli-test-{name}-{}.trace", std::process::id()));
        let path = path.to_string_lossy().to_string();
        let mut a = vec![protocol, "--seed", "7", "-o"];
        a.push(&path);
        a.extend_from_slice(extra);
        simulate(&args(&a)).unwrap();
        path
    }

    #[test]
    fn simulate_writes_a_parsable_trace() {
        let out = simulate(&args(&["token-ring", "--n", "3", "--tokens", "1"])).unwrap();
        assert!(out.starts_with("gpd-trace 1"));
        assert!(read_trace(&out).is_ok());
    }

    #[test]
    fn simulate_rejects_bad_input() {
        assert!(matches!(simulate(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            simulate(&args(&["warp-drive"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            simulate(&args(&["token-ring", "--n", "2", "--tokens", "5"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            simulate(&args(&["token-ring", "--n", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            simulate(&args(&["token-ring", "--bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_reports_shape() {
        let path = temp_trace("stats", "voting", &["--n", "3"]);
        let out = stats(&args(&[&path])).unwrap();
        assert!(out.contains("processes: 3"));
        assert!(out.contains("voted_yes"));
        assert!(out.contains("width"));
        assert!(out.contains("height"));
        let with_cuts = stats(&args(&[&path, "--cuts"])).unwrap();
        assert!(with_cuts.contains("consistent cuts:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lattice_profile_renders() {
        let path = temp_trace("lattice", "voting", &["--n", "3"]);
        let out = lattice(&args(&[&path])).unwrap();
        assert!(out.contains("consistent cuts:"), "{out}");
        assert!(out.contains("   0 |        1"), "{out}");
        std::fs::remove_file(&path).ok();

        // Guard: a big trace is refused without --enumerate.
        let big = temp_trace("lattice-big", "token-ring", &["--n", "8", "--tokens", "4"]);
        assert!(matches!(
            lattice(&args(&[&big])),
            Err(CliError::Intractable(_))
        ));
        std::fs::remove_file(&big).ok();
    }

    #[test]
    fn dot_renders_with_variable() {
        let path = temp_trace("dot", "token-ring", &["--n", "3"]);
        let out = dot(&args(&[&path, "--var", "has_token"])).unwrap();
        assert!(out.contains("digraph"));
        assert!(matches!(
            dot(&args(&[&path, "--var", "missing"])),
            Err(CliError::Trace(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_conjunction_on_mutex() {
        let path = temp_trace("conj", "mutex", &["--n", "3", "--rounds", "1"]);
        let out = detect(&args(&[&path, "--pred", "conj in_cs@0 in_cs@1"])).unwrap();
        assert!(out.contains("false"), "{out}");
        // Negated literals work: ¬in_cs everywhere is at least initially true.
        let out = detect(&args(&[&path, "--pred", "conj !in_cs@0 !in_cs@1 !in_cs@2"])).unwrap();
        assert!(out.contains("true"), "{out}");
        // Definitely, polynomial path.
        let out = detect(&args(&[
            &path,
            "--pred",
            "conj !in_cs@0 !in_cs@1",
            "--definitely",
        ]))
        .unwrap();
        assert!(out.contains("true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_sums_on_token_ring() {
        let path = temp_trace("sum", "token-ring", &["--n", "4", "--tokens", "2"]);
        let out = detect(&args(&[&path, "--pred", "sum tokens == 2"])).unwrap();
        assert!(out.contains("true"), "{out}");
        let out = detect(&args(&[&path, "--pred", "sum tokens > 2"])).unwrap();
        assert!(out.contains("false"), "{out}");
        let out = detect(&args(&[&path, "--pred", "sum tokens <= 1"])).unwrap();
        assert!(out.contains("Σ"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_counts_on_voting() {
        let path = temp_trace("count", "voting", &["--n", "4"]);
        let out = detect(&args(&[&path, "--pred", "count voted in {0}"])).unwrap();
        assert!(out.contains("true"), "{out}"); // nobody has voted initially
        let out = detect(&args(&[&path, "--pred", "count voted exactly 4"])).unwrap();
        assert!(out.contains("true"), "{out}"); // everyone eventually votes
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_cnf_on_token_ring() {
        let path = temp_trace("cnf", "token-ring", &["--n", "4", "--tokens", "1"]);
        let out = detect(&args(&[
            &path,
            "--pred",
            "cnf has_token@0 | has_token@1 & !has_token@2 | !has_token@3",
        ]))
        .unwrap();
        assert!(out.contains("Possibly"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_stats_flag_reports_scan_work() {
        let path = temp_trace("stats", "token-ring", &["--n", "4", "--tokens", "1"]);
        let pred = "cnf has_token@0 | has_token@1 & !has_token@2 | !has_token@3";
        let out = detect(&args(&[&path, "--pred", pred, "--stats"])).unwrap();
        let stats_line = out
            .lines()
            .find(|l| l.starts_with("scan stats:"))
            .unwrap_or_else(|| panic!("no stats line in {out:?}"));
        assert!(stats_line.contains("scan runs"), "{stats_line}");
        assert!(stats_line.contains("forces evaluations"), "{stats_line}");
        let kernel_line = out
            .lines()
            .find(|l| l.starts_with("kernel stats:"))
            .unwrap_or_else(|| panic!("no kernel stats line in {out:?}"));
        assert!(kernel_line.contains("clock-row reads"), "{kernel_line}");
        assert!(
            kernel_line.contains("0 vector-clock allocations"),
            "the flat kernel must answer detection without owned clocks: {kernel_line}"
        );
        let par_line = out
            .lines()
            .find(|l| l.starts_with("parallel stats:"))
            .unwrap_or_else(|| panic!("no parallel stats line in {out:?}"));
        assert!(par_line.contains("pool waves"), "{par_line}");
        assert!(par_line.contains("threads spawned"), "{par_line}");
        assert!(par_line.contains("batched dominance passes"), "{par_line}");
        assert!(!par_line.contains("steals"), "{par_line}");
        assert!(
            out.lines()
                .any(|l| l.starts_with("timing-dependent:") && l.ends_with(" steals")),
            "{out}"
        );
        // Without the flag the lines are absent.
        let out = detect(&args(&[&path, "--pred", pred])).unwrap();
        assert!(!out.contains("scan stats:"), "{out}");
        assert!(!out.contains("kernel stats:"), "{out}");
        assert!(!out.contains("parallel stats:"), "{out}");
        assert!(!out.contains("timing-dependent:"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_cnf_threads_flag_keeps_the_verdict() {
        let path = temp_trace("cnf-par", "token-ring", &["--n", "4", "--tokens", "1"]);
        let pred = "cnf has_token@0 | has_token@1 & !has_token@2 | !has_token@3";
        let seq = detect(&args(&[&path, "--pred", pred])).unwrap();
        let witness = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("witness cut:"))
                .map(str::to_owned)
        };
        for threads in ["1", "2", "4"] {
            let par = detect(&args(&[&path, "--pred", pred, "--threads", threads])).unwrap();
            // The verdict line and the witness frontier are identical at
            // every thread count.
            assert_eq!(
                par.lines().next().unwrap(),
                seq.lines().next().unwrap(),
                "threads = {threads}"
            );
            assert_eq!(witness(&par), witness(&seq), "threads = {threads}");
        }
        assert!(matches!(
            detect(&args(&[&path, "--pred", pred, "--threads", "x"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_slice_modes_agree_on_cnf() {
        let path = temp_trace("slice-cnf", "token-ring", &["--n", "4", "--tokens", "1"]);
        // (has_token@0) ∧ (has_token@1 ∨ ¬has_token@2): the unit clause
        // gives the pre-pass a regular envelope to slice on.
        let pred = "cnf has_token@0 & has_token@1 | !has_token@2";
        let off = detect(&args(&[&path, "--pred", pred, "--slice", "off"])).unwrap();
        let auto = detect(&args(&[&path, "--pred", pred])).unwrap();
        let force = detect(&args(&[&path, "--pred", pred, "--slice", "force"])).unwrap();
        assert_eq!(off, auto, "sliced witness must be byte-identical");
        assert_eq!(off, force);
        let definitely: Vec<String> = ["off", "auto", "force"]
            .iter()
            .map(|mode| {
                detect(&args(&[
                    &path,
                    "--pred",
                    pred,
                    "--definitely",
                    "--slice",
                    mode,
                    "--max-nodes",
                    "100000",
                ]))
                .unwrap()
            })
            .collect();
        assert_eq!(definitely[0], definitely[1]);
        assert_eq!(definitely[0], definitely[2]);
        // --stats surfaces the event-graph compression of the pre-pass.
        let out = detect(&args(&[&path, "--pred", pred, "--stats"])).unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("slice stats:"))
            .unwrap_or_else(|| panic!("no slice stats line in {out:?}"));
        assert!(line.contains("nodes before"), "{line}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_slice_force_is_exact_on_conjunctions() {
        let path = temp_trace("slice-conj", "token-ring", &["--n", "3", "--tokens", "1"]);
        let pred = "conj has_token@0 !has_token@1";
        let plain = detect(&args(&[&path, "--pred", pred])).unwrap();
        let forced = detect(&args(&[&path, "--pred", pred, "--slice", "force"])).unwrap();
        assert_eq!(plain, forced, "least B-cut must match the GW scan witness");
        let plain = detect(&args(&[&path, "--pred", pred, "--definitely"])).unwrap();
        let forced = detect(&args(&[
            &path,
            "--pred",
            pred,
            "--definitely",
            "--slice",
            "force",
        ]))
        .unwrap();
        assert_eq!(plain, forced);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detect_slice_force_rejects_inapplicable_predicates() {
        let path = temp_trace("slice-bad", "token-ring", &["--n", "3", "--tokens", "1"]);
        for pred in ["sum tokens == 1", "count has_token exactly 1"] {
            let err = detect(&args(&[&path, "--pred", pred, "--slice", "force"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{pred}: {err:?}");
        }
        // A CNF with no unit clause has no regular envelope.
        let err = detect(&args(&[
            &path,
            "--pred",
            "cnf has_token@0 | has_token@1",
            "--slice",
            "force",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        // And an unknown mode is rejected up front.
        let err = detect(&args(&[
            &path,
            "--pred",
            "conj has_token@0",
            "--slice",
            "sometimes",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn enumeration_guard_blocks_big_exhaustive_questions() {
        let path = temp_trace("guard", "bank", &["--n", "12"]);
        // Bank balances have unbounded steps: exact sum falls back to
        // enumeration, which the guard refuses on a large trace.
        for modality in [None, Some("--definitely")] {
            let mut list = vec![path.as_str(), "--pred", "sum balance == 1200"];
            list.extend(modality);
            let err = detect(&args(&list)).unwrap_err();
            assert!(
                matches!(err, CliError::Intractable(_)),
                "{modality:?}: {err:?}"
            );
        }
        // Definitely(sum relop) and Definitely(count) sweep the lattice
        // too: without a budget flag the guard refuses them as well, but
        // only once the polynomial short-circuits leave the question to
        // the sweep. No cut sums below 300, so the max-flow answers that
        // one; the balances dip below 1200 only while money is in transit,
        // and neither endpoint does, so that one needs the sweep.
        let out = detect(&args(&[
            &path,
            "--pred",
            "sum balance < 300",
            "--definitely",
        ]))
        .unwrap();
        assert_eq!(out, "Definitely(sum balance < 300): false\n");
        let err = detect(&args(&[
            &path,
            "--pred",
            "sum balance < 1200",
            "--definitely",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Intractable(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
        // A ±1 Definitely(Σ = K) that neither endpoint nor the attainable
        // interval decides needs the sweep too: two tokens circulate, so
        // Σ = 1 is attainable but the endpoints sum to 2.
        let path = temp_trace(
            "guard-ring",
            "token-ring",
            &["--n", "8", "--tokens", "2", "--seed", "3"],
        );
        let mut list = vec![path.as_str(), "--pred", "sum tokens == 1", "--definitely"];
        let err = detect(&args(&list)).unwrap_err();
        assert!(matches!(err, CliError::Intractable(_)), "{err:?}");
        list.push("--enumerate");
        assert_eq!(
            detect(&args(&list)).unwrap(),
            "Definitely(sum tokens == 1): true\n"
        );
        std::fs::remove_file(&path).ok();
        let path = temp_trace("guard-count", "voting", &["--n", "16"]);
        let err = detect(&args(&[
            &path,
            "--pred",
            "count voted exactly 8",
            "--definitely",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Intractable(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn definitely_sweeps_print_the_same_answer_at_every_thread_count() {
        // Both verdicts of each predicate class, each at 0 and 2 threads.
        let questions = [
            ("voting", "4", "count voted exactly 2"),
            ("voting", "4", "count voted_yes exactly 2"),
            ("bank", "3", "sum balance < 300"),
            ("bank", "3", "sum balance > 300"),
        ];
        for (protocol, n, pred) in questions {
            let path = temp_trace("def-threads", protocol, &["--n", n]);
            let run = |threads: &str| {
                detect(&args(&[
                    &path,
                    "--pred",
                    pred,
                    "--definitely",
                    "--enumerate",
                    "--threads",
                    threads,
                ]))
                .unwrap()
            };
            let sequential = run("0");
            assert!(
                sequential.starts_with("Definitely("),
                "{pred}: {sequential}"
            );
            assert_eq!(run("2"), sequential, "{pred}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn exact_sum_enumeration_prints_the_same_answer_at_every_thread_count() {
        // Bank balances move in steps larger than 1, so `sum == K` is the
        // NP-complete exact-sum question and runs the lattice sweep.
        let path = temp_trace("exact-sum-threads", "bank", &["--n", "6"]);
        let trace = load_trace(&path).unwrap();
        let var = find_int(&trace, "balance").unwrap();
        assert!(!var.is_unit_step());
        let sums: std::collections::BTreeSet<i64> = trace
            .computation
            .consistent_cuts()
            .map(|c| var.sum_at(&c))
            .collect();
        let (lo, hi) = (*sums.first().unwrap(), *sums.last().unwrap());
        let unattained = (lo..=hi).find(|s| !sums.contains(s)).expect("a gap");
        let questions = [
            (format!("sum balance == {lo}"), false),
            (format!("sum balance == {unattained}"), false),
            (format!("sum balance == {unattained}"), true),
        ];
        for (pred, definitely) in &questions {
            let run = |extra: &[&str]| {
                let mut list = vec![path.as_str(), "--pred", pred];
                if *definitely {
                    list.push("--definitely");
                }
                list.extend_from_slice(extra);
                detect(&args(&list)).unwrap()
            };
            let sequential = run(&["--enumerate", "--threads", "0"]);
            assert!(
                sequential
                    .lines()
                    .next()
                    .unwrap()
                    .ends_with(" (by enumeration)"),
                "{pred}: {sequential}"
            );
            if pred.ends_with(&format!("== {lo}")) {
                assert!(sequential.contains("true (by enumeration)\nwitness cut: ["));
            }
            for threads in ["1", "2"] {
                assert_eq!(
                    run(&["--enumerate", "--threads", threads]),
                    sequential,
                    "{pred}, threads {threads}"
                );
            }
            // A budget that never trips runs the budgeted arm, which
            // prints the same verdict and witness without the marker.
            assert_eq!(
                run(&["--max-nodes", "1000000000", "--threads", "2"]),
                sequential.replace(" (by enumeration)", ""),
                "{pred}, budgeted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_duplicate_literals_are_rejected() {
        let path = temp_trace("badlits", "voting", &["--n", "3"]);
        assert!(matches!(
            detect(&args(&[&path, "--pred", "conj nope@0"])),
            Err(CliError::Trace(_))
        ));
        assert!(matches!(
            detect(&args(&[&path, "--pred", "conj voted@0 voted@0"])),
            Err(CliError::Parse(_))
        ));
        assert!(matches!(
            detect(&args(&[&path, "--pred", "conj voted@9"])),
            Err(CliError::Trace(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budgeted_detect_interrupts_checkpoints_and_resumes() {
        let path = temp_trace("budget", "bank", &["--n", "3"]);
        let ckpt = format!("{path}.ckpt");
        // Money in flight makes Σ < 300 attainable mid-transfer, so the
        // Definitely question needs the exponential lattice sweep.
        let pred = "sum balance < 300";
        let reference = detect(&args(&[
            &path,
            "--pred",
            pred,
            "--definitely",
            "--enumerate",
        ]))
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .to_string();

        // A 3-node cap cannot finish the sweep: Unknown, bounds, ckpt.
        let err = detect(&args(&[
            &path,
            "--pred",
            pred,
            "--definitely",
            "--max-nodes",
            "3",
        ]))
        .unwrap_err();
        let CliError::Unknown(msg) = err else {
            panic!("expected Unknown, got {err:?}");
        };
        assert!(msg.contains("node cap"), "{msg}");
        assert!(msg.contains("nodes explored"), "{msg}");
        assert!(msg.contains(&ckpt), "{msg}");
        assert!(std::path::Path::new(&ckpt).exists());

        // A checkpoint is pinned to its predicate.
        let err = detect(&args(&[
            &path,
            "--pred",
            "sum balance < 299",
            "--definitely",
            "--resume",
            &ckpt,
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("was taken for predicate")),
            "{err:?}"
        );

        // Resuming with room to spare reproduces the reference verdict.
        let resumed = detect(&args(&[
            &path,
            "--pred",
            pred,
            "--definitely",
            "--resume",
            &ckpt,
            "--max-nodes",
            "100000000",
        ]))
        .unwrap();
        assert_eq!(resumed.lines().next().unwrap(), reference);

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn a_resume_chain_under_a_tiny_node_cap_reaches_the_verdict() {
        // 21 events, 22 lattice levels. Every resumed leg sweeps at least
        // one level before its node cap can trip, so the chain ends
        // within one leg per level plus the first.
        let path = temp_trace("resume-chain", "bank", &["--n", "3"]);
        let ckpt = format!("{path}.ckpt");
        for (modality, answer) in [
            (None, "Possibly(sum balance == 150): false\n"),
            (
                Some("--definitely"),
                "Definitely(sum balance == 150): false\n",
            ),
        ] {
            let leg = |resume: bool| {
                let mut a = vec![path.as_str(), "--pred", "sum balance == 150"];
                a.extend(modality);
                a.extend(["--max-nodes", "5", "--checkpoint", &ckpt]);
                if resume {
                    a.extend(["--resume", &ckpt]);
                }
                detect(&args(&a))
            };
            let mut outcome = leg(false);
            let mut legs = 1;
            while let Err(CliError::Unknown(msg)) = &outcome {
                assert!(msg.contains("node cap"), "{msg}");
                assert!(legs <= 22, "{modality:?}: leg {legs} did not finish");
                outcome = leg(true);
                legs += 1;
            }
            assert_eq!(outcome.unwrap(), answer, "{modality:?} after {legs} legs");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn a_cnf_resume_chain_ends_when_the_slice_build_spends_the_cap() {
        // 68 events: the envelope's slice build alone charges 70 nodes, so
        // under a 5-node cap it exhausts and the unsliced odometer runs on
        // a spent meter. Each leg still completes a wave: 2 combinations,
        // so the chain ends within 3 legs.
        let path = std::env::temp_dir()
            .join(format!(
                "gpd-cli-test-cnf-chain-{}.trace",
                std::process::id()
            ))
            .to_string_lossy()
            .to_string();
        simulate(&args(&["mutex", "--n", "4", "--seed", "3", "-o", &path])).unwrap();
        let ckpt = format!("{path}.ckpt");
        let pred = "cnf requesting@0 & in_cs@1 | requesting@2 & requesting@3";
        for slice in ["auto", "force"] {
            let leg = |resume: bool| {
                let mut a = vec![path.as_str(), "--pred", pred, "--slice", slice];
                a.extend(["--max-nodes", "5", "--checkpoint", &ckpt]);
                if resume {
                    a.extend(["--resume", &ckpt]);
                }
                detect(&args(&a))
            };
            let mut outcome = leg(false);
            let mut legs = 1;
            while let Err(CliError::Unknown(msg)) = &outcome {
                assert!(msg.contains("node cap"), "{msg}");
                assert!(legs < 3, "--slice {slice}: leg {legs} did not finish");
                outcome = leg(true);
                legs += 1;
            }
            assert_eq!(
                outcome.unwrap(),
                format!("Possibly({pred}): true\nwitness cut: [2, 0, 3, 2]\n"),
                "--slice {slice} after {legs} legs"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn budget_stats_and_polynomial_resume_rejection() {
        let path = temp_trace("budget-stats", "voting", &["--n", "3"]);
        let out = detect(&args(&[
            &path,
            "--pred",
            "count voted in {0}",
            "--definitely",
            "--max-nodes",
            "100000000",
            "--stats",
        ]))
        .unwrap();
        assert!(out.contains("budget stats:"), "{out}");
        assert!(out.contains("nodes explored"), "{out}");
        // Without budget flags no budget line appears.
        let out = detect(&args(&[
            &path,
            "--pred",
            "count voted in {0}",
            "--definitely",
            "--enumerate",
            "--stats",
        ]))
        .unwrap();
        assert!(!out.contains("budget stats:"), "{out}");
        // Deadline flag parses and reports remaining time under --stats.
        let out = detect(&args(&[
            &path,
            "--pred",
            "conj !voted@0 !voted@1",
            "--deadline-ms",
            "60000",
            "--stats",
        ]))
        .unwrap();
        assert!(out.contains("deadline left"), "{out}");
        assert!(matches!(
            detect(&args(&[
                &path,
                "--pred",
                "conj voted@0",
                "--deadline-ms",
                "x"
            ])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_phase_commit_trace_supports_commit_point_query() {
        let path = temp_trace("2pc", "2pc", &["--n", "4"]);
        // Unanimous yes: Definitely(all participants prepared).
        let out = detect(&args(&[
            &path,
            "--pred",
            "conj prepared@1 prepared@2 prepared@3",
            "--definitely",
        ]))
        .unwrap();
        assert!(out.contains("true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn top_level_dispatch() {
        assert!(crate::run(&args(&["help"]))
            .unwrap()
            .contains("gpd <command>"));
        assert!(matches!(crate::run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            crate::run(&args(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
    }

    /// Lines of the `--stats` block whose figures come from the
    /// process-global work counters: tests running alongside this one add
    /// into them, so the pin keeps their shape and collapses their figures.
    const COUNTER_LINES: [&str; 7] = [
        "scan stats:",
        "kernel stats:",
        "parallel stats:",
        "timing-dependent:",
        "slice stats:",
        "monitor stats:",
        "budget stats:",
    ];

    /// One `gpd detect` invocation and its result in `{:?}` form: `Ok`
    /// with the exact stdout, or the error variant with its exact message.
    /// `$DIR` stands for the pin's scratch directory.
    type PinCell = (&'static [&'static str], &'static str);

    /// Budget interrupts and their resumes; they write the checkpoints
    /// the second table reads.
    #[rustfmt::skip]
    const PIN_CHECKPOINTS: &[PinCell] = &[
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--max-nodes", "2", "--checkpoint", "$DIR/fallback.ckpt"],
            r##"Err(Unknown("node cap reached; 3 nodes explored, 0 lattice levels swept witness-free; checkpoint written to $DIR/fallback.ckpt (resume with --resume $DIR/fallback.ckpt)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--resume", "$DIR/fallback.ckpt", "--max-nodes", "100000000"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--max-nodes", "40", "--checkpoint", "$DIR/cnf-level.ckpt"],
            r##"Err(Unknown("node cap reached; 43 nodes explored, 1 lattice levels swept witness-free; checkpoint written to $DIR/cnf-level.ckpt (resume with --resume $DIR/cnf-level.ckpt)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--resume", "$DIR/cnf-level.ckpt", "--max-nodes", "100000000", "--threads", "2"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--resume", "$DIR/cnf-level.ckpt", "--slice", "off"],
            r##"Err(Trace("checkpoint mismatch: checkpoint belongs to engine `definitely-levelwise-sliced`, not `definitely-levelwise`"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--max-nodes", "2", "--checkpoint", "$DIR/cnf-odometer.ckpt"],
            r##"Err(Unknown("node cap reached; 2 nodes explored, 0/1 combinations eliminated; checkpoint written to $DIR/cnf-odometer.ckpt (resume with --resume $DIR/cnf-odometer.ckpt)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--resume", "$DIR/cnf-odometer.ckpt", "--threads", "2", "--max-nodes", "100000000"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--resume", "$DIR/cnf-odometer.ckpt", "--slice", "force"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--max-nodes", "0"],
            r##"Err(Unknown("node cap reached; 0 nodes explored, 0/2 combinations eliminated; checkpoint written to $DIR/mutex.trace.ckpt (resume with --resume $DIR/mutex.trace.ckpt)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--resume", "$DIR/mutex.trace.ckpt"],
            r##"Ok("Possibly(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--definitely", "--max-nodes", "60", "--checkpoint", "$DIR/cnf-def.ckpt"],
            r##"Err(Unknown("node cap reached; 109 nodes explored, 4 lattice levels swept witness-free; checkpoint written to $DIR/cnf-def.ckpt (resume with --resume $DIR/cnf-def.ckpt)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--definitely", "--resume", "$DIR/cnf-def.ckpt", "--threads", "2"],
            r##"Ok("Definitely(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--definitely", "--max-nodes", "3"],
            r##"Err(Unknown("node cap reached; 4 nodes explored, 1 lattice levels swept witness-free; checkpoint written to $DIR/bank.trace.ckpt (resume with --resume $DIR/bank.trace.ckpt)"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 299", "--definitely", "--resume", "$DIR/bank.trace.ckpt"],
            r##"Err(Usage("checkpoint $DIR/bank.trace.ckpt was taken for predicate \"sum balance < 300\", not \"sum balance < 299\""))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--definitely", "--resume", "$DIR/bank.trace.ckpt", "--threads", "2"],
            r##"Ok("Definitely(sum balance < 300): true\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--max-nodes", "3", "--checkpoint", "$DIR/exact.ckpt"],
            r##"Err(Unknown("node cap reached; 7 nodes explored, 2 lattice levels swept witness-free, attainable sums lie in [74, 300]; checkpoint written to $DIR/exact.ckpt (resume with --resume $DIR/exact.ckpt)"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--resume", "$DIR/exact.ckpt"],
            r##"Ok("Possibly(sum balance == 250): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--definitely", "--max-nodes", "3", "--checkpoint", "$DIR/exact-def.ckpt"],
            r##"Err(Unknown("node cap reached; 4 nodes explored, 1 lattice levels swept witness-free, attainable sums lie in [74, 300]; checkpoint written to $DIR/exact-def.ckpt (resume with --resume $DIR/exact-def.ckpt)"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--definitely", "--resume", "$DIR/exact-def.ckpt", "--threads", "2"],
            r##"Ok("Definitely(sum balance == 250): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 150", "--max-nodes", "200", "--checkpoint", "$DIR/pruned.ckpt"],
            r##"Err(Unknown("node cap reached; 210 nodes explored, 8 lattice levels swept witness-free, attainable sums lie in [74, 300]; checkpoint written to $DIR/pruned.ckpt (resume with --resume $DIR/pruned.ckpt)"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 150", "--resume", "$DIR/pruned.ckpt", "--threads", "2"],
            r##"Ok("Possibly(sum balance == 150): false\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely", "--max-nodes", "2", "--checkpoint", "$DIR/count.ckpt"],
            r##"Err(Unknown("node cap reached; 4 nodes explored, 1 lattice levels swept witness-free; checkpoint written to $DIR/count.ckpt (resume with --resume $DIR/count.ckpt)"))"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely", "--resume", "$DIR/count.ckpt", "--threads", "2"],
            r##"Ok("Definitely(count voted exactly 2): true\n")"##),
    ];

    /// Every other route of `detect`.
    #[rustfmt::skip]
    const PIN_ROUTES: &[PinCell] = &[
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--definitely"],
            r##"Ok("Definitely(conj !in_cs@0 in_cs@1): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--slice", "off"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--slice", "force"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--slice", "force", "--definitely"],
            r##"Ok("Definitely(conj !in_cs@0 in_cs@1): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--threads", "2"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--max-nodes", "5"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--resume", "$DIR/bare-level.ckpt"],
            r##"Err(Usage("--resume does not apply to a conjunction: it is polynomial and never checkpoints"))"##),
        (&["$DIR/mutex.trace", "--pred", "conj in_cs@0 in_cs@1"],
            r##"Ok("Possibly(conj in_cs@0 in_cs@1): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj in_cs@0 in_cs@1", "--slice", "force"],
            r##"Ok("Possibly(conj in_cs@0 in_cs@1): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj in_cs@0 in_cs@1", "--definitely"],
            r##"Ok("Definitely(conj in_cs@0 in_cs@1): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj in_cs@0 in_cs@1", "--definitely", "--slice", "force"],
            r##"Ok("Definitely(conj in_cs@0 in_cs@1): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "conj !in_cs@0 in_cs@1", "--stats"],
            r##"Ok("Possibly(conj !in_cs@0 in_cs@1): true\nwitness cut: [9, 8, 4, 5]\nengine: possibly-conjunctive\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3"],
            r##"Ok("Possibly(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--slice", "off"],
            r##"Ok("Possibly(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--slice", "force"],
            r##"Err(Usage("--slice force needs a regular envelope, but the CNF has no unit clause (nothing regular to slice on)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--threads", "2"],
            r##"Ok("Possibly(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--definitely"],
            r##"Ok("Definitely(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--definitely", "--threads", "2"],
            r##"Ok("Definitely(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3", "--stats"],
            r##"Ok("Possibly(cnf in_cs@0 | requesting@1 & in_cs@2 | in_cs@3): false\nengine: singular-chains\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3", "--threads", "2"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3", "--definitely"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2 | in_cs@3): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--slice", "off"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--slice", "force"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--threads", "2"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--slice", "off"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--slice", "force", "--threads", "2"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--stats"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\nengine: singular-chains\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--definitely", "--stats", "--max-nodes", "100000000"],
            r##"Ok("Definitely(cnf in_cs@0 | in_cs@1 & requesting@2): true\nengine: definitely-levelwise-sliced\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\nbudget stats: # nodes explored\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf in_cs@0 | in_cs@1 & requesting@2", "--resume", "$DIR/bare-odometer.ckpt"],
            r##"Ok("Possibly(cnf in_cs@0 | in_cs@1 & requesting@2): true\nwitness cut: [8, 3, 4, 5]\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf requesting@0 & requesting@1 & in_cs@2"],
            r##"Ok("Possibly(cnf requesting@0 & requesting@1 & in_cs@2): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf requesting@0 & requesting@1 & in_cs@2", "--stats"],
            r##"Ok("Possibly(cnf requesting@0 & requesting@1 & in_cs@2): false\nengine: singular-ordered\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf requesting@0 & requesting@1 & in_cs@2", "--slice", "off"],
            r##"Ok("Possibly(cnf requesting@0 & requesting@1 & in_cs@2): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf requesting@0 & requesting@1 & in_cs@2", "--definitely"],
            r##"Ok("Definitely(cnf requesting@0 & requesting@1 & in_cs@2): false\n")"##),
        (&["$DIR/mutex.trace", "--pred", "cnf requesting@0 & requesting@1 & in_cs@2", "--definitely", "--slice", "off"],
            r##"Ok("Definitely(cnf requesting@0 & requesting@1 & in_cs@2): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300"],
            r##"Ok("Possibly(sum balance < 300): true\nwitness cut: [5, 6, 4] (Σ = 74)\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--threads", "2", "--slice", "off"],
            r##"Ok("Possibly(sum balance < 300): true\nwitness cut: [5, 6, 4] (Σ = 74)\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance > 300"],
            r##"Ok("Possibly(sum balance > 300): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance > 300", "--definitely"],
            r##"Ok("Definitely(sum balance > 300): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--definitely", "--enumerate", "--threads", "2"],
            r##"Ok("Definitely(sum balance < 300): true\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--slice", "force"],
            r##"Err(Usage("--slice force applies only to conjunction and cnf predicates; sum predicates are not regular"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 300", "--resume", "$DIR/bare-level.ckpt"],
            r##"Err(Usage("--resume does not apply to Possibly(sum relop): it is polynomial and never checkpoints"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance >= 300", "--stats"],
            r##"Ok("Possibly(sum balance >= 300): true\nwitness cut: [0, 0, 0] (Σ = 300)\nengine: possibly-sum\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/bigbank.trace", "--pred", "sum balance < 300"],
            r##"Ok("Possibly(sum balance < 300): false\n")"##),
        (&["$DIR/bigbank.trace", "--pred", "sum balance < 300", "--definitely"],
            r##"Ok("Definitely(sum balance < 300): false\n")"##),
        (&["$DIR/bigbank.trace", "--pred", "sum balance < 1200", "--definitely"],
            r##"Err(Intractable("Definitely(sum relop) needs exhaustive enumeration (exponential); pass --enumerate to force it (84 events here, guard is 64)"))"##),
        (&["$DIR/ring8.trace", "--pred", "sum tokens <= 2", "--definitely"],
            r##"Ok("Definitely(sum tokens <= 2): true\n")"##),
        (&["$DIR/ring8.trace", "--pred", "sum tokens == 1", "--definitely", "--max-nodes", "5"],
            r##"Err(Unknown("node cap reached; 9 nodes explored, 1 lattice levels swept witness-free, attainable sums lie in [0, 2]; checkpoint written to $DIR/ring8.trace.ckpt (resume with --resume $DIR/ring8.trace.ckpt)"))"##),
        (&["$DIR/ring8.trace", "--pred", "sum tokens == 1", "--definitely", "--resume", "$DIR/ring8.trace.ckpt"],
            r##"Ok("Definitely(sum tokens == 1): true\n")"##),
        (&["$DIR/ring8.trace", "--pred", "sum tokens == 1", "--definitely"],
            r##"Err(Intractable("Definitely(exact sum) needs exhaustive enumeration (exponential); pass --enumerate to force it (202 events here, guard is 64)"))"##),
        (&["$DIR/ring8.trace", "--pred", "sum tokens == 1", "--definitely", "--enumerate"],
            r##"Ok("Definitely(sum tokens == 1): true\n")"##),
        (&["$DIR/mutex.trace", "--pred", "sum cs_entries == 2", "--definitely", "--max-nodes", "5", "--stats"],
            r##"Ok("Definitely(sum cs_entries == 2): true\nengine: definitely-exact-sum\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\nbudget stats: # nodes explored\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1"],
            r##"Ok("Possibly(sum tokens == 1): true\nwitness cut: [2, 0, 0, 0]\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1", "--definitely"],
            r##"Ok("Definitely(sum tokens == 1): true\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 3"],
            r##"Ok("Possibly(sum tokens == 3): false\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 3", "--definitely"],
            r##"Ok("Definitely(sum tokens == 3): false\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1", "--max-nodes", "100"],
            r##"Ok("Possibly(sum tokens == 1): true\nwitness cut: [2, 0, 0, 0]\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 3", "--definitely", "--max-nodes", "100"],
            r##"Ok("Definitely(sum tokens == 3): false\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1", "--resume", "$DIR/bare-odometer.ckpt"],
            r##"Ok("Possibly(sum tokens == 1): true\nwitness cut: [2, 0, 0, 0]\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1", "--threads", "2"],
            r##"Ok("Possibly(sum tokens == 1): true\nwitness cut: [2, 0, 0, 0]\n")"##),
        (&["$DIR/ring.trace", "--pred", "sum tokens == 1", "--slice", "force"],
            r##"Err(Usage("--slice force applies only to conjunction and cnf predicates; sum predicates are not regular"))"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 300"],
            r##"Ok("Possibly(sum balance == 300): true (by enumeration)\nwitness cut: [0, 0, 0]\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 300", "--definitely"],
            r##"Ok("Definitely(sum balance == 300): true (by enumeration)\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--threads", "2"],
            r##"Ok("Possibly(sum balance == 250): false (by enumeration)\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--definitely"],
            r##"Ok("Definitely(sum balance == 250): false (by enumeration)\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--max-nodes", "1000000000"],
            r##"Ok("Possibly(sum balance == 250): false\n")"##),
        // The suffix bounds decide these within a cap the plain sweeps
        // exceed (541, 376 and 314 nodes).
        (&["$DIR/bank.trace", "--pred", "sum balance == 150", "--max-nodes", "500"],
            r##"Ok("Possibly(sum balance == 150): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 150", "--definitely", "--max-nodes", "320"],
            r##"Ok("Definitely(sum balance == 150): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance < 150", "--definitely", "--max-nodes", "280"],
            r##"Ok("Definitely(sum balance < 150): false\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum balance == 250", "--stats"],
            r##"Ok("Possibly(sum balance == 250): false (by enumeration)\nengine: exact-sum-enumeration\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\n")"##),
        (&["$DIR/bigbank.trace", "--pred", "sum balance == 1200"],
            r##"Err(Intractable("variables change by up to 50 per event; the exact-sum algorithm needs steps of at most 1; exact detection (Theorem 2: NP-complete) needs exhaustive enumeration (exponential); pass --enumerate to force it (84 events here, guard is 64)"))"##),
        (&["$DIR/bigbank.trace", "--pred", "sum balance == 1200", "--definitely"],
            r##"Err(Intractable("variables change by up to 50 per event; the exact-sum algorithm needs steps of at most 1 needs exhaustive enumeration (exponential); pass --enumerate to force it (84 events here, guard is 64)"))"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2"],
            r##"Ok("Possibly(count voted exactly 2): true\nwitness cut: [2, 3, 0]\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely"],
            r##"Ok("Definitely(count voted exactly 2): true\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely", "--threads", "2"],
            r##"Ok("Definitely(count voted exactly 2): true\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted_yes xor"],
            r##"Ok("Possibly(count voted_yes xor): true\nwitness cut: [2, 0, 0]\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted in {0}", "--definitely"],
            r##"Ok("Definitely(count voted in {0}): true\n")"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--slice", "force"],
            r##"Err(Usage("--slice force applies only to conjunction and cnf predicates; count predicates are not regular"))"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--resume", "$DIR/bare-level.ckpt"],
            r##"Err(Usage("--resume does not apply to Possibly(count): it is polynomial and never checkpoints"))"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely", "--resume", "$DIR/bare-odometer.ckpt"],
            r##"Err(Trace("checkpoint mismatch: odometer checkpoint offered to level-sweep engine `definitely-levelwise`"))"##),
        (&["$DIR/vote.trace", "--pred", "count voted exactly 2", "--definitely", "--stats", "--max-nodes", "100000000"],
            r##"Ok("Definitely(count voted exactly 2): true\nengine: definitely-levelwise\nscan stats: # scan runs, # pair checks, # forces evaluations\nkernel stats: # clock-row reads, # cut-successor allocations, # vector-clock allocations\nparallel stats: # pool waves, # threads spawned, # batched dominance passes\ntiming-dependent: # steals\nslice stats: # nodes before, # after\nmonitor stats: # observed, # duplicate, # stale deliveries, peak queue depth #\nbudget stats: # nodes explored\n")"##),
        (&["$DIR/ring.trace", "--pred", "count has_token exactly 1"],
            r##"Ok("Possibly(count has_token exactly 1): true\nwitness cut: [2, 0, 0, 0]\n")"##),
        (&["$DIR/ring.trace", "--pred", "count has_token exactly 1", "--definitely", "--slice", "off"],
            r##"Ok("Definitely(count has_token exactly 1): true\n")"##),
        (&["$DIR/bigvote.trace", "--pred", "count voted exactly 8", "--definitely"],
            r##"Err(Intractable("Definitely(count) needs exhaustive enumeration (exponential); pass --enumerate to force it (272 events here, guard is 64)"))"##),
        (&["$DIR/bigvote.trace", "--pred", "count voted exactly 8"],
            r##"Ok("Possibly(count voted exactly 8): true\nwitness cut: [2, 2, 2, 3, 3, 2, 6, 3, 3, 2, 2, 2, 0, 0, 0, 0]\n")"##),
        (&["$DIR/bank.trace", "--pred", "sum nope < 3"],
            r##"Err(Trace("no integer variable \"nope\" (known: balance)"))"##),
        (&["$DIR/vote.trace", "--pred", "count nope xor"],
            r##"Err(Trace("no boolean variable \"nope\" (known: voted, voted_yes)"))"##),
        (&["$DIR/mutex.trace", "--pred", "cnf nope@0 & in_cs@1"],
            r##"Err(Trace("no boolean variable \"nope\" (known: in_cs, requesting)"))"##),
    ];

    fn pin_render(result: Result<String, CliError>, dir: &str) -> String {
        let collapse = |line: &str| {
            let mut out = String::new();
            for c in line.chars() {
                if !c.is_ascii_digit() {
                    out.push(c);
                } else if !out.ends_with('#') {
                    out.push('#');
                }
            }
            out
        };
        let result = result.map(|out| {
            out.lines()
                .map(|line| {
                    let line = if COUNTER_LINES.iter().any(|p| line.starts_with(p)) {
                        collapse(line)
                    } else {
                        line.to_string()
                    };
                    line + "\n"
                })
                .collect::<String>()
        });
        format!("{result:?}").replace(dir, "$DIR")
    }

    fn pin_run(cells: &[PinCell], dir: &str, failures: &mut Vec<String>) {
        for (cell, expected) in cells {
            let mut list = vec!["detect".to_string()];
            list.extend(cell.iter().map(|a| a.replace("$DIR", dir)));
            let got = pin_render(crate::run(&list), dir);
            if got != *expected {
                failures.push(format!("{cell:?}\n  expected {expected}\n  got      {got}"));
            }
        }
    }

    /// Pins `gpd detect` byte for byte on every route: conjunction, cnf,
    /// sum relop, exact sum and count under both modalities, each slice
    /// mode, no budget, an interrupting node cap and `--resume`, and 0 or
    /// 2 threads, plus every error the engine choice can raise.
    #[test]
    fn detect_routes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("gpd-cli-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir = dir.to_string_lossy().to_string();
        let traces = [
            ("ring", "token-ring", &["--n", "4", "--tokens", "2"][..]),
            ("mutex", "mutex", &["--n", "4", "--rounds", "1"]),
            ("bank", "bank", &["--n", "3"]),
            ("vote", "voting", &["--n", "3"]),
            ("bigbank", "bank", &["--n", "12"]),
            ("bigvote", "voting", &["--n", "16"]),
            (
                "ring8",
                "token-ring",
                &["--n", "8", "--tokens", "2", "--seed", "3"],
            ),
        ];
        for (name, protocol, extra) in traces {
            let path = format!("{dir}/{name}.trace");
            let mut a = vec![protocol, "--seed", "7", "-o", &path];
            a.extend_from_slice(extra);
            simulate(&args(&a)).unwrap();
        }
        let mut failures = Vec::new();
        pin_run(PIN_CHECKPOINTS, &dir, &mut failures);
        // The same checkpoints with their predicate label dropped, so a
        // resume reaches the engine choice instead of the label check.
        for (from, to) in [
            ("cnf-level", "bare-level"),
            ("cnf-odometer", "bare-odometer"),
        ] {
            let text = std::fs::read_to_string(format!("{dir}/{from}.ckpt")).unwrap();
            let bare: String = text
                .lines()
                .filter(|l| !l.starts_with("label "))
                .map(|l| format!("{l}\n"))
                .collect();
            std::fs::write(format!("{dir}/{to}.ckpt"), bare).unwrap();
        }
        pin_run(PIN_ROUTES, &dir, &mut failures);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            failures.is_empty(),
            "mismatched cells:\n{}",
            failures.join("\n")
        );
    }
}
