//! Regenerates the `EXPERIMENTS.md` measurements: one compact,
//! deterministic run of every experiment E1–E8, printed as markdown.
//!
//! Run with: `cargo run --release -p gpd-bench --bin report`
//!
//! Flags:
//!
//! * `--json PATH` — also write the comparison report (`BENCH_PR3.json`):
//!   the incremental-scan comparison (restart-loop reference vs the
//!   incremental engine, per-workload median ns and scan-work counters)
//!   plus the flat-kernel comparison (PR 2 nested-vector layout vs the
//!   CSR + row-major clock-matrix kernel, with kernel counters).
//! * `--quick` — CI smoke mode: skip the slow E1–E8 sweep, run the
//!   comparisons on downsized workloads, and keep the counter-ratio and
//!   result-identity assertions (which are size-independent facts about
//!   the algorithms); the ≥1.3× flat-kernel speedup floor is asserted
//!   only in full mode, where the workloads are large enough to measure.

use std::time::{Duration, Instant};

use gpd::conjunctive::possibly_conjunctive;
use gpd::counters;
use gpd::enumerate::{possibly_by_enumeration, possibly_by_enumeration_budgeted};
use gpd::hardness::{brute_force_subset_sum, reduce_sat, reduce_subset_sum};
use gpd::relational::{definitely_exact_sum, possibly_exact_sum, possibly_sum, sum_extremes};
use gpd::singular::{
    chain_cover_sizes, possibly_singular_chains, possibly_singular_ordered,
    possibly_singular_subsets, possibly_singular_subsets_budgeted,
    possibly_singular_subsets_reference,
};
use gpd::slice::{cnf_envelope, possibly_by_enumeration_sliced_budgeted, Slice};
use gpd::symmetric::{possibly_symmetric, SymmetricPredicate};
use gpd::{Budget, BudgetMeter, Relop, SingularCnf};
use gpd_bench::legacy::{possibly_level_sync, LegacyComputation};
use gpd_bench::{
    boolean_workload, hard_formula, ordered_singular_workload, sat_gadget, singular_workload,
    sliced_unsat_workload, standard_computation, subset_sum_instance, unit_sum_workload,
    unsat_singular_workload, wide_unsat_singular_workload,
};
use gpd_computation::{fnv1a, BoolVariable, Computation, Cut, ProcessId};
use gpd_sat::solve;

/// The subset engine fanned out over `threads` under an unlimited budget.
fn subsets_at(
    comp: &Computation,
    var: &BoolVariable,
    phi: &SingularCnf,
    threads: usize,
) -> Option<Cut> {
    let meter = BudgetMeter::new();
    possibly_singular_subsets_budgeted(comp, var, phi, threads, &Budget::unlimited(), &meter, None)
        .expect("no checkpoint, no panic")
        .value()
        .expect("unlimited budgets always decide")
        .clone()
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn us(d: Duration) -> String {
    if d.as_micros() < 10_000 {
        format!("{:.1} µs", d.as_nanos() as f64 / 1e3)
    } else if d.as_millis() < 10_000 {
        format!("{:.2} ms", d.as_nanos() as f64 / 1e6)
    } else {
        format!("{:.2} s", d.as_nanos() as f64 / 1e9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    if !quick {
        println!(
        "# Experiment report (regenerate with `cargo run --release -p gpd-bench --bin report`)\n"
        );
        e1();
        e2();
        e3();
        e4();
        e5();
        e6();
        e7();
        e8();
    }
    let scan_section = incremental_scan_comparison(quick);
    let kernel_section = flat_kernel_comparison(quick);
    let slicing_section = slicing_comparison(quick);
    let sweep_section = parallel_sweep_comparison(quick);
    let batch_section = batched_kernel_comparison(quick);
    let server_section = server_throughput_comparison(quick);
    let decentralized_section = decentralized_abstraction_comparison(quick);
    let storage_section = storage_comparison(quick);
    if let Some(path) = json_path.as_deref() {
        let json = format!(
            "{{\n  \"regenerate\": \"cargo run --release -p gpd-bench --bin report -- --json BENCH_PR10.json\",\n  \"quick\": {quick},\n  \"incremental_scan\": [\n{scan_section}\n  ],\n  \"flat_kernel\": [\n{kernel_section}\n  ],\n  \"slicing\": [\n{slicing_section}\n  ],\n  \"parallel_sweep\": [\n{sweep_section}\n  ],\n  \"batched_kernel\": [\n{batch_section}\n  ],\n  \"server_throughput\": {server_section},\n  \"decentralized_abstraction\": {decentralized_section},\n  \"storage\": {storage_section}\n}}\n",
        );
        std::fs::write(path, json).expect("write json report");
        println!("Wrote {path}.\n");
    }
}

/// One row of the service-throughput sweep: `sessions` concurrent feed
/// clients pushing `events_per_session` events each through the
/// sharded server under one fsync policy, wall-clocked end to end.
struct ServedRow {
    topology: &'static str,
    tenants: usize,
    sessions: usize,
    events: u64,
    events_per_sec: f64,
    elapsed_ms: f64,
}

/// Runs one topology × policy combination against a fresh server and
/// returns sustained events/sec (total accepted events over total feed
/// wall time, all sessions concurrent).
fn serve_throughput(
    topology: &'static str,
    tenants: usize,
    sessions_per_tenant: usize,
    events_per_session: u32,
    fsync: gpd_server::FsyncPolicy,
) -> ServedRow {
    use gpd_server::client::{ClientConfig, FeedClient};
    use gpd_server::server::{self, ServerConfig};
    use gpd_server::wal::WalConfig;

    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gpd-bench-serve-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut config = ServerConfig::new(WalConfig::new(&dir).with_fsync(fsync));
    config.shards = 4;
    config.io_timeout = Duration::from_secs(10);
    let handle = server::start("127.0.0.1:0", config).expect("bench server starts");
    let addr = handle.local_addr();

    // Single-tenant topology: one computation with n = sessions
    // processes, each session feeding its own process's events — the
    // per-process true states are mutually concurrent, so the monitor
    // settles fast and the WAL/fsync path dominates (which is what
    // this benchmark is about). Multi-tenant topology: n = 1 per
    // tenant, one session each.
    let n = sessions_per_tenant;
    let sessions = tenants * sessions_per_tenant;
    let total_events = sessions as u64 * u64::from(events_per_session);

    let t0 = Instant::now();
    let feeds: Vec<std::thread::JoinHandle<()>> = (0..tenants)
        .flat_map(|t| (0..sessions_per_tenant).map(move |p| (t, p)))
        .map(|(t, p)| {
            std::thread::spawn(move || {
                let mut config =
                    ClientConfig::new(addr.to_string()).with_tenant(format!("bench-{t:03}"));
                config.io_timeout = Duration::from_secs(10);
                config.max_retries = 5;
                let events: Vec<(usize, Vec<u32>)> = (1..=events_per_session)
                    .map(|k| {
                        let mut clock = vec![0u32; n];
                        clock[p] = k;
                        (p, clock)
                    })
                    .collect();
                let report = FeedClient::new(config)
                    .feed(&vec![false; n], &events)
                    .expect("bench feed succeeds");
                assert_eq!(
                    report.accepted,
                    u64::from(events_per_session),
                    "bench feed must accept every event"
                );
            })
        })
        .collect();
    for feed in feeds {
        feed.join().expect("bench feed thread");
    }
    let elapsed = t0.elapsed();

    let client = FeedClient::new(ClientConfig::new(addr.to_string()));
    client.shutdown().expect("bench server stops");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);

    ServedRow {
        topology,
        tenants,
        sessions,
        events: total_events,
        events_per_sec: total_events as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

/// The PR 8 measurement: sustained events/sec through the sharded
/// multi-tenant server, single-tenant (8 sessions, one computation)
/// vs 64-tenant (one session each), per fsync policy. The load-bearing
/// floor: group commit must beat per-event `Always` fsync by ≥2× at
/// ≥8 concurrent sessions, because that is the entire point of
/// batching the log-before-ack fsyncs at the sweep boundary.
fn server_throughput_comparison(quick: bool) -> String {
    use gpd_server::FsyncPolicy;

    println!("## Service throughput: sharded multi-tenant server (PR 8)\n");
    println!("| topology | tenants | sessions | fsync | events | events/sec | elapsed |");
    println!("|---|---|---|---|---|---|---|");

    // Quick mode downsizes the event counts (CI smoke), not the
    // session counts — the ≥8-session concurrency the floor speaks
    // about is preserved.
    let (single_events, multi_tenants, multi_events) = if quick {
        (150u32, 16usize, 40u32)
    } else {
        (600, 64, 75)
    };
    let policies = [
        ("always", FsyncPolicy::Always),
        (
            "interval_5ms",
            FsyncPolicy::Interval(Duration::from_millis(5)),
        ),
        ("group", FsyncPolicy::Group),
    ];

    let mut rows: Vec<ServedRow> = Vec::new();
    for (_, policy) in &policies {
        rows.push(serve_throughput(
            "single_tenant",
            1,
            8,
            single_events,
            *policy,
        ));
    }
    for (_, policy) in &policies {
        rows.push(serve_throughput(
            "multi_tenant",
            multi_tenants,
            1,
            multi_events,
            *policy,
        ));
    }

    let mut json_rows = Vec::new();
    for (row, (policy_name, _)) in rows.iter().zip(policies.iter().cycle()) {
        println!(
            "| {} | {} | {} | {policy_name} | {} | {:.0} | {} |",
            row.topology,
            row.tenants,
            row.sessions,
            row.events,
            row.events_per_sec,
            us(Duration::from_secs_f64(row.elapsed_ms / 1e3)),
        );
        json_rows.push(format!(
            "    {{\"topology\": \"{}\", \"tenants\": {}, \"sessions\": {}, \"fsync\": \"{policy_name}\", \"events\": {}, \"events_per_sec\": {:.1}, \"elapsed_ms\": {:.1}}}",
            row.topology, row.tenants, row.sessions, row.events, row.events_per_sec, row.elapsed_ms
        ));
    }

    // The programmatic floor, asserted in quick (CI smoke) and full
    // mode alike: group commit ≥2× Always at 8 concurrent sessions.
    let always = rows[0].events_per_sec;
    let group = rows[2].events_per_sec;
    let ratio = group / always;
    assert!(
        rows[0].sessions >= 8,
        "the floor is defined at ≥8 concurrent sessions"
    );
    assert!(
        ratio >= 2.0,
        "group commit must sustain ≥2× the per-event-fsync throughput \
         at {} sessions: always {always:.0} events/s vs group {group:.0} events/s ({ratio:.2}×)",
        rows[0].sessions,
    );
    println!(
        "\nGroup-commit floor: {group:.0} events/s vs {always:.0} events/s under `fsync always` — {ratio:.2}× (floor: ≥2× at ≥8 sessions).\n"
    );

    format!(
        "{{\n    \"floor\": \"group >= 2x always at >= 8 concurrent sessions\",\n    \"always_events_per_sec\": {always:.1},\n    \"group_events_per_sec\": {group:.1},\n    \"ratio\": {ratio:.4},\n    \"rows\": [\n{}\n    ]\n  }}",
        json_rows.join(",\n")
    )
}

/// One row of the decentralized message-complexity sweep.
struct AbstractionRow {
    processes: usize,
    states: u64,
    forwarded: u64,
    summaries: u64,
    messages: u64,
    reduction: f64,
}

/// Runs the local-slicer relevance machine over every process's
/// stream, feeds only the forwarded events to a fresh monitor, and
/// checks the verdict (and witness) against the full centralized
/// reference. Returns the message-complexity row.
fn decentralized_abstraction_row(
    seed: u64,
    n: usize,
    events_per_process: usize,
    density: f64,
) -> AbstractionRow {
    use gpd::abstraction::{Decision, LocalSlicer};
    use gpd::online::ConjunctiveMonitor;
    use gpd_computation::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let events = n * events_per_process;
    let comp = gen::random_computation(&mut rng, n, events, events / 2);
    let x = gen::random_bool_variable(&mut rng, &comp, density);
    let streams = gpd_sim::local_streams(&comp, &x);

    // Centralized reference: every true state, canonical order.
    let mut reference = ConjunctiveMonitor::with_initial(&streams.initial);
    let mut trues: Vec<(u32, usize)> = Vec::new();
    for (p, stream) in streams.streams.iter().enumerate() {
        for (clock, is_true) in stream {
            if *is_true {
                trues.push((clock[p], p));
            }
        }
    }
    trues.sort_unstable();
    for &(k, p) in &trues {
        let e = comp.event_at(p, k).expect("true state beyond the trace");
        reference.observe(p, comp.clock(e).to_owned());
    }

    // Decentralized: one local slicer per process decides relevance;
    // the merged monitor sees only the forwarded events.
    let mut merged = ConjunctiveMonitor::with_initial(&streams.initial);
    let mut states = 0u64;
    let mut forwarded = 0u64;
    let mut summaries = 0u64;
    let mut forwards: Vec<(u32, usize)> = Vec::new();
    for (p, stream) in streams.streams.iter().enumerate() {
        let mut slicer = LocalSlicer::new(p, 64);
        for (clock, is_true) in stream {
            let vc = gpd_computation::VectorClock::from(clock.clone());
            match slicer.admit(&vc, *is_true) {
                Decision::Forward => forwards.push((clock[p], p)),
                Decision::Summarize => summaries += 1,
                Decision::Skip => {}
            }
        }
        let stats = slicer.stats();
        states += stats.observed;
        forwarded += stats.forwarded;
    }
    forwards.sort_unstable();
    for &(k, p) in &forwards {
        let e = comp
            .event_at(p, k)
            .expect("forwarded state beyond the trace");
        merged.observe(p, comp.clock(e).to_owned());
    }

    assert_eq!(
        merged.witness().map(|w| w.to_vec()),
        reference.witness().map(|w| w.to_vec()),
        "sliced verdict diverged from the centralized reference at n = {n}"
    );

    let messages = forwarded + summaries;
    AbstractionRow {
        processes: n,
        states,
        forwarded,
        summaries,
        messages,
        reduction: if messages == 0 {
            states as f64
        } else {
            states as f64 / messages as f64
        },
    }
}

/// The PR 9 measurement: message complexity of the decentralized
/// abstraction — local states generated vs messages actually sent
/// (forwarded relevant events + causal summaries) — on sparse
/// predicates, with a 256-process scaling row. The load-bearing floor:
/// ≥4× reduction on the 64-process sparse workload, asserted in quick
/// and full mode alike (the ratio is a property of the relevance rule,
/// not the workload size). Verdict identity with the centralized
/// reference is asserted inside every row.
fn decentralized_abstraction_comparison(quick: bool) -> String {
    println!("## Decentralized abstraction: message complexity (PR 9)\n");
    println!("| processes | local states | forwarded | summaries | messages | reduction |");
    println!("|---|---|---|---|---|---|");

    let events_per_process = if quick { 12 } else { 40 };
    let rows = [
        decentralized_abstraction_row(0x9a11, 64, events_per_process, 0.05),
        decentralized_abstraction_row(0x9a12, 256, events_per_process, 0.05),
    ];

    let mut json_rows = Vec::new();
    for row in &rows {
        println!(
            "| {} | {} | {} | {} | {} | {:.1}× |",
            row.processes, row.states, row.forwarded, row.summaries, row.messages, row.reduction,
        );
        json_rows.push(format!(
            "    {{\"processes\": {}, \"local_states\": {}, \"forwarded\": {}, \"summaries\": {}, \"messages\": {}, \"reduction\": {:.2}}}",
            row.processes, row.states, row.forwarded, row.summaries, row.messages, row.reduction
        ));
    }

    let sparse = &rows[0];
    assert!(
        sparse.reduction >= 4.0,
        "the decentralized abstraction must send ≥4× fewer messages than \
         local states generated on the 64-process sparse workload: \
         {} states vs {} messages ({:.2}×)",
        sparse.states,
        sparse.messages,
        sparse.reduction,
    );
    println!(
        "\nAbstraction floor: {} local states collapse to {} messages at 64 processes — {:.1}× (floor: ≥4× on sparse predicates).\n",
        sparse.states, sparse.messages, sparse.reduction
    );

    format!(
        "{{\n    \"floor\": \"messages <= local_states / 4 on the 64-process sparse workload\",\n    \"sparse_reduction\": {:.4},\n    \"rows\": [\n{}\n    ]\n  }}",
        sparse.reduction,
        json_rows.join(",\n")
    )
}

/// One side of the incremental-vs-reference comparison: median wall time
/// over `reps` runs plus the scan-work counters of a single run.
struct Measured {
    median_ns: u128,
    work: counters::ScanCounters,
}

fn measure(
    reps: usize,
    f: impl Fn() -> Option<gpd_computation::Cut>,
) -> (Option<gpd_computation::Cut>, Measured) {
    let before = counters::snapshot();
    let result = f();
    let work = counters::snapshot().since(&before);
    let mut times: Vec<u128> = (0..reps).map(|_| time(&f).1.as_nanos()).collect();
    times.sort_unstable();
    let median_ns = times[times.len() / 2];
    (result, Measured { median_ns, work })
}

fn json_side(m: &Measured) -> String {
    format!(
        "{{\"median_ns\": {}, \"forces_evals\": {}, \"pair_checks\": {}, \"scan_runs\": {}}}",
        m.median_ns, m.work.forces_evals, m.work.pair_checks, m.work.scan_runs
    )
}

/// The PR 2 measurement: the restart-from-scratch reference loop vs the
/// queue-driven incremental scan with prefix sharing, on the E5
/// workloads. Counter deltas are the load-bearing numbers (wall clock on
/// a loaded host is noise); the wide unsatisfiable workloads must show
/// the incremental engine doing **at most half** the `forces` work.
fn incremental_scan_comparison(quick: bool) -> String {
    println!("## Incremental scan vs restart reference (E5 workloads)\n");
    println!("| workload | verdict | reference forces | incremental forces | ratio | reference median | incremental median |");
    println!("|---|---|---|---|---|---|---|");

    struct Workload {
        name: &'static str,
        input: (
            gpd_computation::Computation,
            gpd_computation::BoolVariable,
            gpd::SingularCnf,
        ),
        /// Wide-clause unsat workloads must show ≥2× fewer forces evals.
        expect_half: bool,
    }
    let workloads: Vec<Workload> = if quick {
        vec![
            Workload {
                name: "e5_singular_g2w3",
                input: singular_workload(5, 2, 3, 10, 0.3),
                expect_half: false,
            },
            Workload {
                name: "e5_wide_unsat_g2w4",
                input: wide_unsat_singular_workload(10, 2, 4),
                expect_half: true,
            },
        ]
    } else {
        vec![
            Workload {
                name: "e5_singular_g2w3",
                input: singular_workload(5, 2, 3, 20, 0.3),
                expect_half: false,
            },
            Workload {
                name: "e5_singular_g4w3",
                input: singular_workload(5, 4, 3, 20, 0.3),
                expect_half: false,
            },
            Workload {
                name: "e5_wide_unsat_g3w4",
                input: wide_unsat_singular_workload(30, 3, 4),
                expect_half: true,
            },
            Workload {
                name: "e5_wide_unsat_g4w4",
                input: wide_unsat_singular_workload(30, 4, 4),
                expect_half: true,
            },
        ]
    };
    let reps = if quick { 3 } else { 5 };

    let mut entries = Vec::new();
    for w in &workloads {
        let (comp, var, phi) = &w.input;
        let (ref_result, reference) =
            measure(reps, || possibly_singular_subsets_reference(comp, var, phi));
        let (inc_result, incremental) = measure(reps, || possibly_singular_subsets(comp, var, phi));
        // Byte-identical witnesses, not just matching verdicts.
        assert_eq!(ref_result, inc_result, "{}: witness mismatch", w.name);
        let ratio =
            reference.work.forces_evals as f64 / (incremental.work.forces_evals.max(1)) as f64;
        if w.expect_half {
            assert!(
                ratio >= 2.0,
                "{}: expected ≥2× fewer forces evaluations, got {ratio:.2}×",
                w.name
            );
        }
        println!(
            "| {} | {} | {} | {} | {ratio:.2}× | {} | {} |",
            w.name,
            if ref_result.is_some() { "sat" } else { "unsat" },
            reference.work.forces_evals,
            incremental.work.forces_evals,
            us(Duration::from_nanos(reference.median_ns as u64)),
            us(Duration::from_nanos(incremental.median_ns as u64)),
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{}\", \"verdict\": \"{}\", \"witness_identical\": true,\n      \"reference\": {},\n      \"incremental\": {},\n      \"forces_ratio\": {ratio:.4}\n    }}",
            w.name,
            if ref_result.is_some() { "sat" } else { "unsat" },
            json_side(&reference),
            json_side(&incremental),
        ));
    }
    println!();
    entries.join(",\n")
}

/// The PR 6 measurement: the SliceReduce pre-pass in front of canonical
/// lattice enumeration on the padded unsat gadget. The unit-clause
/// envelope's slice pins every padding process to its initial state, so
/// the sliced sweep walks only the gadget's handful of cuts while the
/// unsliced sweep rejects through the full `O((pad+1)^pads)` lattice.
/// Verdicts and witnesses must be byte-identical; the unsat row must
/// show a **≥4×** enumerated-node reduction, and slicing must shrink
/// the event graph (`slice_nodes_after < slice_nodes_before`). All of
/// these are size-independent facts, so they are asserted in `--quick`
/// mode too.
fn slicing_comparison(quick: bool) -> String {
    println!("## SliceReduce pre-pass vs plain enumeration (padded unsat gadget)\n");
    println!(
        "| workload | verdict | unsliced nodes | sliced nodes | ratio | event graph before → after |"
    );
    println!("|---|---|---|---|---|---|");

    let (pad, pads) = if quick { (2usize, 4usize) } else { (4, 6) };
    let (comp, var, unsat, sat) = sliced_unsat_workload(pad, pads);

    let mut entries = Vec::new();
    for (name, phi, must_quadruple) in [
        (format!("slice_unsat_p{pad}x{pads}"), &unsat, true),
        (format!("slice_sat_p{pad}x{pads}"), &sat, false),
    ] {
        let env = cnf_envelope(&comp, &var, phi).expect("unit clauses present");
        let before = counters::snapshot();
        let slice = Slice::build(&comp, &env);
        let slice_work = counters::snapshot().since(&before);
        assert!(
            slice_work.slice_nodes_after < slice_work.slice_nodes_before,
            "{name}: the reduced event graph must shrink, got {} -> {}",
            slice_work.slice_nodes_before,
            slice_work.slice_nodes_after
        );

        let plain_meter = BudgetMeter::new();
        let plain = possibly_by_enumeration_budgeted(
            &comp,
            |c| phi.eval(&var, c),
            0,
            &Budget::unlimited(),
            &plain_meter,
            None,
        )
        .expect("no resume checkpoint");
        let sliced_meter = BudgetMeter::new();
        let sliced = possibly_by_enumeration_sliced_budgeted(
            &comp,
            &slice,
            |c| phi.eval(&var, c),
            0,
            &Budget::unlimited(),
            &sliced_meter,
            None,
        )
        .expect("no resume checkpoint");
        let witness = plain.value().expect("unlimited budgets decide");
        assert_eq!(
            witness,
            sliced.value().expect("unlimited budgets decide"),
            "{name}: sliced witness must be byte-identical"
        );
        let ratio = plain_meter.nodes() as f64 / sliced_meter.nodes().max(1) as f64;
        if must_quadruple {
            assert!(
                ratio >= 4.0,
                "{name}: expected >=4x fewer enumerated nodes, got {ratio:.2}x"
            );
        }
        println!(
            "| {} | {} | {} | {} | {ratio:.2}× | {} → {} |",
            name,
            if witness.is_some() { "sat" } else { "unsat" },
            plain_meter.nodes(),
            sliced_meter.nodes(),
            slice_work.slice_nodes_before,
            slice_work.slice_nodes_after,
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{}\", \"verdict\": \"{}\", \"witness_identical\": true,\n      \"unsliced_nodes\": {}, \"sliced_nodes\": {}, \"node_ratio\": {ratio:.4},\n      \"slice_nodes_before\": {}, \"slice_nodes_after\": {}\n    }}",
            name,
            if witness.is_some() { "sat" } else { "unsat" },
            plain_meter.nodes(),
            sliced_meter.nodes(),
            slice_work.slice_nodes_before,
            slice_work.slice_nodes_after,
        ));
    }
    println!();
    entries.join(",\n")
}

/// The PR 3 measurement: the PR 2 nested-vector layout (replicated in
/// `gpd_bench::legacy`) vs the flat CSR + row-major clock-matrix kernel,
/// on enumeration-heavy workloads where successor generation and
/// frontier-dominance checks dominate. Results must be identical — same
/// cut sequence digest for sweeps, byte-identical first witnesses for
/// detections — and in full mode the e2 sweep and the E5 unsat row must
/// show at least the 1.3× median speedup the flat layout is for.
fn flat_kernel_comparison(quick: bool) -> String {
    println!("## Flat kernel vs PR 2 layout (lattice workloads)\n");
    println!("| workload | result | legacy median | flat median | speedup | flat row reads | cut-succ allocs |");
    println!("|---|---|---|---|---|---|---|");

    fn measure_ns<T>(reps: usize, f: impl Fn() -> T) -> (T, u128) {
        let result = f();
        let mut times: Vec<u128> = (0..reps).map(|_| time(&f).1.as_nanos()).collect();
        times.sort_unstable();
        (result, times[times.len() / 2])
    }

    /// Order-sensitive digest of a cut sequence: count + FNV-1a over
    /// every yielded frontier word.
    fn sweep_digest<'a>(cuts: impl Iterator<Item = gpd_computation::Cut> + 'a) -> (usize, u64) {
        let mut count = 0usize;
        let hash = fnv1a(cuts.flat_map(|c| {
            count += 1;
            c.frontier().iter().map(|&x| x as u64).collect::<Vec<u64>>()
        }));
        (count, hash)
    }

    struct Row {
        name: &'static str,
        result: String,
        legacy_ns: u128,
        flat_ns: u128,
        work: gpd_computation::KernelCounters,
        /// Full-mode speedup floor (the acceptance criterion's 1.3×).
        floor: Option<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    let reps = if quick { 3 } else { 5 };

    // e2 lattice sweep: count + digest over the yielded frontier sequence.
    let (n, m) = if quick { (4usize, 5usize) } else { (6, 6) };
    let comp = standard_computation(20 + n as u64, n, m);
    let legacy = LegacyComputation::replicate(&comp);
    let (old_digest, legacy_ns) = measure_ns(reps, || sweep_digest(legacy.consistent_cuts()));
    let before = gpd_computation::kernel_counters();
    let (new_digest, flat_ns) = measure_ns(reps, || sweep_digest(comp.consistent_cuts()));
    let work = gpd_computation::kernel_counters().since(&before);
    assert_eq!(old_digest, new_digest, "e2 sweep: digest mismatch");
    rows.push(Row {
        name: "e2_lattice_sweep",
        result: format!("{} cuts", new_digest.0),
        legacy_ns,
        flat_ns,
        work,
        floor: (!quick).then_some(1.3),
    });

    // E5 general-case rows: the unsatisfiable sweep (full lattice, no
    // lucky witness) and a satisfiable first-witness search.
    let pad = if quick { 8 } else { 24 };
    let (ucomp, uvar, uphi) = unsat_singular_workload(pad);
    let ulegacy = LegacyComputation::replicate(&ucomp);
    let (old_w, legacy_ns) = measure_ns(reps, || {
        ulegacy.possibly_by_enumeration(|c| uphi.eval(&uvar, c))
    });
    let before = gpd_computation::kernel_counters();
    let (new_w, flat_ns) = measure_ns(reps, || {
        possibly_by_enumeration(&ucomp, |c| uphi.eval(&uvar, c))
    });
    let work = gpd_computation::kernel_counters().since(&before);
    assert_eq!(old_w, new_w, "e5 unsat: verdict mismatch");
    assert!(new_w.is_none());
    rows.push(Row {
        name: "e5_unsat_enumeration",
        result: "unsat".into(),
        legacy_ns,
        flat_ns,
        work,
        floor: (!quick).then_some(1.3),
    });

    let (scomp, svar, sphi) = if quick {
        singular_workload(5, 2, 3, 8, 0.3)
    } else {
        singular_workload(5, 3, 3, 12, 0.3)
    };
    let slegacy = LegacyComputation::replicate(&scomp);
    let (old_w, legacy_ns) = measure_ns(reps, || {
        slegacy.possibly_by_enumeration(|c| sphi.eval(&svar, c))
    });
    let before = gpd_computation::kernel_counters();
    let (new_w, flat_ns) = measure_ns(reps, || {
        possibly_by_enumeration(&scomp, |c| sphi.eval(&svar, c))
    });
    let work = gpd_computation::kernel_counters().since(&before);
    // Byte-identical witness cut, not just a matching verdict.
    assert_eq!(old_w, new_w, "e5 sat: witness mismatch");
    rows.push(Row {
        name: "e5_sat_first_witness",
        result: if new_w.is_some() { "sat" } else { "unsat" }.into(),
        legacy_ns,
        flat_ns,
        work,
        floor: None,
    });

    let mut entries = Vec::new();
    for r in &rows {
        let speedup = r.legacy_ns as f64 / (r.flat_ns.max(1)) as f64;
        if let Some(floor) = r.floor {
            assert!(
                speedup >= floor,
                "{}: expected ≥{floor}× flat-kernel speedup, got {speedup:.2}×",
                r.name
            );
        }
        // The flat sweeps must never fall back to owned clock rows.
        assert_eq!(
            r.work.vclock_allocs, 0,
            "{}: owned VectorClock allocated",
            r.name
        );
        println!(
            "| {} | {} | {} | {} | {speedup:.2}× | {} | {} |",
            r.name,
            r.result,
            us(Duration::from_nanos(r.legacy_ns as u64)),
            us(Duration::from_nanos(r.flat_ns as u64)),
            r.work.clock_row_reads,
            r.work.cut_successor_allocs,
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{}\", \"result\": \"{}\", \"identical\": true,\n      \"legacy\": {{\"median_ns\": {}}},\n      \"flat\": {{\"median_ns\": {}, \"clock_row_reads\": {}, \"cut_successor_allocs\": {}, \"vclock_allocs\": {}}},\n      \"speedup\": {speedup:.4}\n    }}",
            r.name,
            r.result,
            r.legacy_ns,
            r.flat_ns,
            r.work.clock_row_reads,
            r.work.cut_successor_allocs,
            r.work.vclock_allocs,
        ));
    }
    println!();
    entries.join(",\n")
}

/// Median wall time of `f` over `reps` runs (after one untimed warm-up
/// run whose result is returned).
fn bench_median<T>(reps: usize, f: impl Fn() -> T) -> (T, u128) {
    let result = f();
    let mut times: Vec<u128> = (0..reps).map(|_| time(&f).1.as_nanos()).collect();
    times.sort_unstable();
    (result, times[times.len() / 2])
}

/// The PR 7 measurement: the persistent-pool work-stealing sweeps as a
/// 1/2/4/8-thread curve, against the superseded scheduling as baseline —
/// the per-wave `thread::scope` level-synchronous walk for the lattice
/// sweep, the sequential engine for the subset scans. Both workloads are
/// **unsatisfiable**, so every node must be visited and the curve
/// measures guaranteed work division, not a lucky early witness.
///
/// The load-bearing assertion is **work-optimality**: the work counters
/// (expanded lattice nodes / scheduled scan runs) are identical at every
/// thread count — parallelism divides the work, it must not inflate it.
/// That is size-independent, so it is asserted in `--quick` mode too.
/// Wall-clock speedup is bounded by the host's hardware parallelism and
/// is reported, not asserted.
fn parallel_sweep_comparison(quick: bool) -> String {
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("## Work-stealing parallel core: thread curve (PR 7)\n");
    println!("Hardware parallelism on this host: {hw} — the curve flattens there.\n");
    println!("| workload | verdict | baseline | 1 thread | 2 threads | 4 threads | 8 threads | speedup ×4 | work (all thread counts) |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let reps = if quick { 3 } else { 5 };
    let mut entries = Vec::new();

    // Lattice sweep: deterministic budgeted enumeration over the padded
    // unsat gadget, vs the PR 6 per-wave scopes at 4 threads.
    let pad = if quick { 8 } else { 20 };
    let (comp, var, phi) = unsat_singular_workload(pad);
    let pred = |c: &gpd_computation::Cut| phi.eval(&var, c);
    let (legacy_w, legacy_ns) = bench_median(reps, || possibly_level_sync(&comp, &pred, 4));
    assert!(legacy_w.is_none(), "workload must be unsatisfiable");
    let mut medians: Vec<u128> = Vec::new();
    let mut work: Vec<u64> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (nodes, ns) = bench_median(reps, || {
            let meter = BudgetMeter::new();
            let verdict = possibly_by_enumeration_budgeted(
                &comp,
                pred,
                threads,
                &Budget::unlimited(),
                &meter,
                None,
            )
            .expect("no resume checkpoint");
            let witness = verdict.value().expect("unlimited budgets decide");
            assert!(witness.is_none(), "workload must be unsatisfiable");
            meter.nodes()
        });
        medians.push(ns);
        work.push(nodes);
    }
    assert!(
        work.iter().all(|&n| n == work[0]),
        "work-optimality: expanded nodes must be thread-count invariant, got {work:?}"
    );
    let speedup = medians[0] as f64 / medians[2].max(1) as f64;
    println!(
        "| lattice_sweep_unsat_p{pad} | unsat | {} | {} | {} | {} | {} | {speedup:.2}× | {} nodes |",
        us(Duration::from_nanos(legacy_ns as u64)),
        us(Duration::from_nanos(medians[0] as u64)),
        us(Duration::from_nanos(medians[1] as u64)),
        us(Duration::from_nanos(medians[2] as u64)),
        us(Duration::from_nanos(medians[3] as u64)),
        work[0],
    );
    entries.push(format!(
        "    {{\n      \"workload\": \"lattice_sweep_unsat_p{pad}\", \"verdict\": \"unsat\",\n      \"baseline\": {{\"kind\": \"level_sync_scopes_4t\", \"median_ns\": {legacy_ns}}},\n      \"threads\": {{\"1\": {}, \"2\": {}, \"4\": {}, \"8\": {}}},\n      \"work_per_thread_count\": {work:?}, \"work_invariant\": true,\n      \"speedup_4t\": {speedup:.4}\n    }}",
        medians[0], medians[1], medians[2], medians[3],
    ));

    // Wide-unsat subset scans: every ∏kᵢ combination must be rejected.
    // One worker must reproduce the sequential engine's scan schedule
    // exactly. More workers may re-settle a dead prefix once per block
    // of a wave, but every wave resumes past the furthest dead-prefix
    // skip, so the extra work stays within the bound
    // `tests/odometer_work.rs` holds the engines to.
    const PARALLEL_SCAN_SLACK: u64 = 128;
    let (groups, width) = if quick { (2usize, 4usize) } else { (3, 4) };
    let wpad = if quick { 10 } else { 30 };
    let (wcomp, wvar, wphi) = wide_unsat_singular_workload(wpad, groups, width);
    let before = counters::snapshot();
    let (seq_w, seq_ns) = bench_median(reps, || possibly_singular_subsets(&wcomp, &wvar, &wphi));
    assert!(seq_w.is_none(), "workload must be unsatisfiable");
    let seq_runs = counters::snapshot().since(&before).scan_runs / (reps as u64 + 1);
    let mut medians: Vec<u128> = Vec::new();
    let mut work: Vec<u64> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (runs, ns) = bench_median(reps, || {
            let before = counters::snapshot();
            let witness = subsets_at(&wcomp, &wvar, &wphi, threads);
            assert!(witness.is_none(), "workload must be unsatisfiable");
            counters::snapshot().since(&before).scan_runs
        });
        medians.push(ns);
        work.push(runs);
    }
    assert_eq!(
        work[0], seq_runs,
        "one worker must reproduce the sequential engine's scan schedule"
    );
    for (threads, &runs) in [2, 4, 8].iter().zip(&work[1..]) {
        assert!(
            runs <= work[0] + PARALLEL_SCAN_SLACK,
            "{threads} threads: {runs} scan runs exceed the 1-thread {} + {PARALLEL_SCAN_SLACK}",
            work[0]
        );
    }
    let speedup = medians[0] as f64 / medians[2].max(1) as f64;
    println!(
        "| wide_unsat_g{groups}w{width} | unsat | {} | {} | {} | {} | {} | {speedup:.2}× | {} scans |",
        us(Duration::from_nanos(seq_ns as u64)),
        us(Duration::from_nanos(medians[0] as u64)),
        us(Duration::from_nanos(medians[1] as u64)),
        us(Duration::from_nanos(medians[2] as u64)),
        us(Duration::from_nanos(medians[3] as u64)),
        work[0],
    );
    entries.push(format!(
        "    {{\n      \"workload\": \"wide_unsat_g{groups}w{width}\", \"verdict\": \"unsat\",\n      \"baseline\": {{\"kind\": \"sequential_subsets\", \"median_ns\": {seq_ns}, \"scan_runs\": {seq_runs}}},\n      \"threads\": {{\"1\": {}, \"2\": {}, \"4\": {}, \"8\": {}}},\n      \"scan_runs_per_thread_count\": {work:?}, \"one_worker_matches_sequential\": true,\n      \"speedup_4t\": {speedup:.4}\n    }}",
        medians[0], medians[1], medians[2], medians[3],
    ));
    println!();
    entries.join(",\n")
}

/// The PR 7 dominance microbench: scalar row-at-a-time
/// `kernel::violations` vs the column-major batched
/// `kernel::violations_batch` over identical candidate matrices. The
/// rows are deliberately *short* (width 4): a row is one frontier and
/// its width is the process count, so single-digit widths are the
/// representative case — and the short-row regime is exactly where
/// batching pays, because the per-row loop overhead that the
/// column-major layout amortises across `BATCH` frontiers dominates
/// there (long rows auto-vectorise well even scalar). The checksums
/// must agree exactly (the batched kernels are drop-in); in full mode
/// the batched pass must clear the ≥1.3× single-thread floor the
/// batching is for.
fn batched_kernel_comparison(quick: bool) -> String {
    use gpd_computation::kernel;
    use rand::Rng;

    println!("## Batched dominance kernel vs scalar (PR 7 microbench)\n");
    println!("| rows × width | checksum | scalar median | batched median | speedup |");
    println!("|---|---|---|---|---|");
    let (nrows, width) = if quick {
        (4096usize, 4usize)
    } else {
        // The preceding sections saturate every core; measuring this
        // single-thread microbench immediately afterwards compresses
        // the scalar/batched ratio (frequency/scheduler settle), so
        // let the host quiesce before asserting the floor.
        std::thread::sleep(Duration::from_secs(10));
        (16384, 4)
    };
    // Each rep is tens of microseconds, so a large rep count is cheap
    // and keeps the median stable on a loaded host.
    let reps = if quick { 25 } else { 101 };
    let mut rng = gpd_bench::rng(4711);
    let matrix: Vec<u32> = (0..nrows * width).map(|_| rng.gen_range(0..64)).collect();
    let rows: Vec<&[u32]> = matrix.chunks(width).collect();
    let bound: Vec<u32> = (0..width).map(|_| rng.gen_range(0..64)).collect();

    let (scalar_sum, scalar_ns) = bench_median(reps, || {
        let mut acc = 0u64;
        for row in &rows {
            acc += u64::from(kernel::violations(row, &bound));
        }
        acc
    });
    let (batched_sum, batched_ns) = bench_median(reps, || {
        let mut acc = 0u64;
        let mut out = [0u32; kernel::BATCH];
        for group in rows.chunks(kernel::BATCH) {
            kernel::violations_batch(group, &bound, &mut out[..group.len()]);
            acc += out[..group.len()]
                .iter()
                .map(|&v| u64::from(v))
                .sum::<u64>();
        }
        acc
    });
    assert_eq!(
        scalar_sum, batched_sum,
        "batched kernels must agree exactly with scalar"
    );
    let speedup = scalar_ns as f64 / (batched_ns.max(1)) as f64;
    if !quick {
        assert!(
            speedup >= 1.3,
            "expected ≥1.3× batched-dominance speedup, got {speedup:.2}×"
        );
    }
    println!(
        "| {nrows} × {width} | {scalar_sum} | {} | {} | {speedup:.2}× |\n",
        us(Duration::from_nanos(scalar_ns as u64)),
        us(Duration::from_nanos(batched_ns as u64)),
    );
    format!(
        "    {{\n      \"workload\": \"dominance_{nrows}x{width}\", \"checksum_identical\": true,\n      \"scalar\": {{\"median_ns\": {scalar_ns}}},\n      \"batched\": {{\"median_ns\": {batched_ns}}},\n      \"speedup\": {speedup:.4}\n    }}"
    )
}

/// The PR 10 measurement: scrub throughput over a cold multi-segment
/// log, and recovery cost (records replayed, wall time) before vs
/// after snapshot compaction — both on the deterministic in-memory
/// disk, so the numbers measure the WAL code, not the host's page
/// cache. The load-bearing floor: a compacted log must replay ≥4×
/// fewer records than the full history it supersedes, because bounding
/// recovery time is the entire point of compaction.
fn storage_comparison(quick: bool) -> String {
    use std::sync::Arc;

    use gpd_server::vfs::FaultVfs;
    use gpd_server::wal::{FsyncPolicy, Wal, WalConfig, WalRecord};

    println!("## Storage: scrub throughput and recovery vs compaction (PR 10)\n");

    let events: u32 = if quick { 2_000 } else { 20_000 };
    let n = 4usize;
    let vfs = FaultVfs::new();
    let config = WalConfig::new("/bench-wal")
        .with_vfs(Arc::new(vfs.clone()))
        .with_fsync(FsyncPolicy::Interval(Duration::from_secs(3600)))
        .with_segment_bytes(1 << 16);
    let (mut wal, _) = Wal::open(config.clone()).expect("bench wal opens");
    wal.append(&WalRecord::Init {
        initial: vec![false; n],
    })
    .expect("bench init appends");
    let mut latest = vec![0u32; n];
    for k in 1..=events {
        let p = k as usize % n;
        latest[p] += 1;
        let mut clock = vec![0u32; n];
        clock[p] = latest[p];
        wal.append(&WalRecord::Event {
            process: p as u32,
            clock,
        })
        .expect("bench event appends");
    }
    wal.sync().expect("bench wal syncs");

    // Scrub: a full CRC re-verification of every cold segment.
    let (scrub, scrub_dt) = time(|| wal.scrub().expect("bench scrub"));
    assert!(scrub.is_clean(), "bench log must scrub clean: {scrub:?}");
    let scrub_mb_per_sec = scrub.bytes_scanned as f64 / 1e6 / scrub_dt.as_secs_f64();

    // Recovery over the full history...
    let (full, full_dt) = time(|| Wal::open(config.clone()).expect("bench recovery (full)"));
    let full_records = full.1.records.len();

    // ...vs after compaction down to one snapshot.
    let snapshot = WalRecord::Snapshot {
        initial: vec![false; n],
        latest: latest.iter().map(|&s| Some(s)).collect(),
        queues: vec![Vec::new(); n],
        witness: None,
    };
    wal.compact(&snapshot).expect("bench compaction");
    let (compacted, compacted_dt) =
        time(|| Wal::open(config.clone()).expect("bench recovery (compacted)"));
    let compacted_records = compacted.1.records.len();

    println!("| phase | segments | records | bytes | elapsed |");
    println!("|---|---|---|---|---|");
    println!(
        "| scrub | {} | {} frames | {} | {} |",
        scrub.segments,
        scrub.frames,
        scrub.bytes_scanned,
        us(scrub_dt),
    );
    println!(
        "| recover full history | {} | {full_records} | {} | {} |",
        full.0.segment_count(),
        full.0.bytes(),
        us(full_dt),
    );
    println!(
        "| recover after compaction | {} | {compacted_records} | {} | {} |",
        compacted.0.segment_count(),
        compacted.0.bytes(),
        us(compacted_dt),
    );

    let reduction = full_records as f64 / compacted_records.max(1) as f64;
    assert!(
        full_records >= 4 * compacted_records,
        "compaction must cut recovery replay ≥4×: \
         {full_records} records before vs {compacted_records} after ({reduction:.1}×)"
    );
    println!(
        "\nScrub: {scrub_mb_per_sec:.0} MB/s over {} segments. \
         Compaction floor: {full_records} → {compacted_records} records replayed at recovery — {reduction:.0}× (floor: ≥4×).\n",
        scrub.segments,
    );

    format!(
        "{{\n    \"floor\": \"compacted recovery replays >= 4x fewer records\",\n    \"scrub_mb_per_sec\": {scrub_mb_per_sec:.1},\n    \"scrub_segments\": {},\n    \"scrub_frames\": {},\n    \"scrub_bytes\": {},\n    \"recovery_full_records\": {full_records},\n    \"recovery_full_ms\": {:.3},\n    \"recovery_compacted_records\": {compacted_records},\n    \"recovery_compacted_ms\": {:.3},\n    \"replay_reduction\": {reduction:.1}\n  }}",
        scrub.segments,
        scrub.frames,
        scrub.bytes_scanned,
        full_dt.as_secs_f64() * 1e3,
        compacted_dt.as_secs_f64() * 1e3,
    )
}

fn e1() {
    println!("## E1 — taxonomy (Figure 1)\n");
    println!("| class / algorithm | n=4 | n=8 | n=16 |");
    println!("|---|---|---|---|");
    let mut rows: Vec<(String, Vec<String>)> = vec![
        ("Possibly(conjunctive) — CPDHB".into(), vec![]),
        ("Definitely(conjunctive) — GW strong".into(), vec![]),
        ("singular 2-CNF (chains)".into(), vec![]),
        ("relational Σ≥K (flow)".into(), vec![]),
        ("exact sum Σ=K (Thm 7)".into(), vec![]),
        ("symmetric XOR".into(), vec![]),
    ];
    for &n in &[4usize, 8, 16] {
        let m = 50;
        let (comp, bvar) = boolean_workload(100 + n as u64, n, m);
        let processes: Vec<ProcessId> = (0..n).map(ProcessId::new).collect();
        let (_, t) = time(|| possibly_conjunctive(&comp, &bvar, &processes));
        rows[0].1.push(us(t));
        let (_, t) = time(|| gpd::conjunctive::definitely_conjunctive(&comp, &bvar, &processes));
        rows[1].1.push(us(t));
        let (scomp, svar, spred) = singular_workload(200 + n as u64, n / 2, 2, m, 0.4);
        let (_, t) = time(|| possibly_singular_chains(&scomp, &svar, &spred));
        rows[2].1.push(us(t));
        let (icomp, ivar) = unit_sum_workload(300 + n as u64, n, m);
        let (_, t) = time(|| possibly_sum(&icomp, &ivar, Relop::Ge, 2));
        rows[3].1.push(us(t));
        let (_, t) = time(|| possibly_exact_sum(&icomp, &ivar, 1).unwrap());
        rows[4].1.push(us(t));
        let xor = SymmetricPredicate::exclusive_or(n as u32);
        let (_, t) = time(|| possibly_symmetric(&comp, &bvar, &xor));
        rows[5].1.push(us(t));
    }
    for (name, cells) in rows {
        println!("| {name} | {} |", cells.join(" | "));
    }
    let (comp, bvar) = boolean_workload(999, 4, 6);
    let (_, t) =
        time(|| possibly_by_enumeration(&comp, |cut| (0..4).all(|p| bvar.value_at(cut, p))));
    println!("\nBaseline lattice enumeration already needs {} at n=4, m=6 — the polynomial classes above handle 50–200 events per process in the same ballpark.\n", us(t));
}

fn e2() {
    println!("## E2 — lattice growth (§2 model, Figure 2)\n");
    println!("| processes (6 events each) | consistent cuts | enumeration time |");
    println!("|---|---|---|");
    for &n in &[2usize, 3, 4, 5] {
        let comp = standard_computation(20 + n as u64, n, 6);
        let (count, t) = time(|| comp.consistent_cuts().count());
        println!("| {n} | {count} | {} |", us(t));
    }
    println!();
}

fn e3() {
    println!("## E3 — Theorem 1 (SAT reduction)\n");
    println!("Construction cost (hard-density formulas, `clauses ≈ 4.27·vars`):\n");
    println!("| vars | clauses (after non-monotonization) | reduce time | gadget events |");
    println!("|---|---|---|---|");
    for &vars in &[10u32, 20, 40, 80] {
        let formula = hard_formula(7, vars);
        let (gadget, t_red) = time(|| reduce_sat(&formula).unwrap());
        println!(
            "| {vars} | {} | {} | {} |",
            formula.clauses().len(),
            us(t_red),
            gadget.computation.event_count()
        );
    }
    println!("\nDecision cost — the detection instance inherits SAT's exponential");
    println!("worst case, growing with the clause count (the scan-combination");
    println!("exponent), while DPLL sees the original formula:\n");
    println!("| clauses (vars = clauses) | DPLL | detection (chains) | verdicts agree |");
    println!("|---|---|---|---|");
    for &clauses in &[4usize, 8, 12] {
        let formula = gpd_bench::small_formula(7, clauses as u32, clauses);
        let gadget = reduce_sat(&formula).unwrap();
        let (sat, t_sat) = time(|| solve(&formula).is_some());
        let (det, t_det) = time(|| {
            possibly_singular_chains(&gadget.computation, &gadget.variable, &gadget.predicate)
                .is_some()
        });
        println!(
            "| {} | {} ({sat}) | {} ({det}) | {} |",
            formula.clauses().len(),
            us(t_sat),
            us(t_det),
            sat == det
        );
        assert_eq!(sat, det);
    }
    let g = sat_gadget(7, 20);
    println!(
        "\nGadget sizes stay linear in the formula: 20 hard-density variables → {} processes, {} events, {} conflict arrows.\n",
        g.computation.process_count(),
        g.computation.event_count(),
        g.computation.messages().len()
    );
}

fn e4() {
    println!("## E4 — §3.2 special case (receive-ordered)\n");
    println!("| events/process (2 clauses × 3) | ordered scan | chain-cover | enumeration |");
    println!("|---|---|---|---|");
    for &events in &[4usize, 16, 64, 256] {
        let (comp, var, phi) = ordered_singular_workload(11, 2, 3, events, 0.3);
        let (a, t_ord) = time(|| possibly_singular_ordered(&comp, &var, &phi).unwrap());
        let (b, t_ch) = time(|| possibly_singular_chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        let enum_cell = if events <= 4 {
            let (c, t_enum) = time(|| possibly_by_enumeration(&comp, |cut| phi.eval(&var, cut)));
            assert_eq!(a.is_some(), c.is_some());
            us(t_enum)
        } else {
            "(skipped: exponential)".into()
        };
        println!("| {events} | {} | {} | {enum_cell} |", us(t_ord), us(t_ch));
    }
    println!();
}

fn e5() {
    println!("## E5 — §3.3 general case: exponential reduction\n");
    println!("| clauses ×3 literals (20 ev/proc) | subsets (∏kᵢ scans) | chains (∏cᵢ scans) | ∏kᵢ | ∏cᵢ |");
    println!("|---|---|---|---|---|");
    for &groups in &[2usize, 4, 6, 8] {
        let (comp, var, phi) = singular_workload(5, groups, 3, 20, 0.3);
        let (a, t_sub) = time(|| possibly_singular_subsets(&comp, &var, &phi));
        let (b, t_ch) = time(|| possibly_singular_chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let cs: usize = chain_cover_sizes(&comp, &var, &phi).iter().product();
        println!("| {groups} | {} | {} | {ks} | {cs} |", us(t_sub), us(t_ch));
    }
    println!("\nWhen each group's true states align on one causal chain (a relay");
    println!("pattern), covers collapse to 1 and the chain algorithm schedules a");
    println!("single scan where the subset algorithm schedules ∏kᵢ:\n");
    println!("| clauses ×3 (relay workload) | ∏kᵢ | ∏cᵢ | subsets | chains |");
    println!("|---|---|---|---|---|");
    for &groups in &[2usize, 4, 6, 8] {
        let (comp, var, phi) = gpd_bench::relay_singular_workload(9, groups, 3, 6, 0.3);
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let cs: usize = chain_cover_sizes(&comp, &var, &phi).iter().product();
        let (a, t_sub) = time(|| possibly_singular_subsets(&comp, &var, &phi));
        let (b, t_ch) = time(|| possibly_singular_chains(&comp, &var, &phi));
        assert_eq!(a.is_some(), b.is_some());
        println!("| {groups} | {ks} | {cs} | {} | {} |", us(t_sub), us(t_ch));
    }

    println!("\nAgainst the existing technique (lattice enumeration), on an");
    println!("**unsatisfiable** instance so both methods must do their full work (a");
    println!("satisfiable BFS can get lucky and stop at an early witness). The");
    println!("lattice grows like pad⁴ while the scans only read the event lists:\n");
    println!("| padding events/process | subsets | chains | enumeration | lattice size |");
    println!("|---|---|---|---|---|");
    for &pad in &[5usize, 10, 20, 40] {
        let (comp, var, phi) = gpd_bench::unsat_singular_workload(pad);
        let (a, t_sub) = time(|| possibly_singular_subsets(&comp, &var, &phi));
        let (b2, t_ch) = time(|| possibly_singular_chains(&comp, &var, &phi));
        let (c, t_enum) = time(|| possibly_by_enumeration(&comp, |cut| phi.eval(&var, cut)));
        assert!(a.is_none() && b2.is_none() && c.is_none());
        let cuts = comp.consistent_cuts().count();
        println!(
            "| {pad} | {} | {} | {} | {cuts} |",
            us(t_sub),
            us(t_ch),
            us(t_enum)
        );
    }

    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("\nParallel fan-out of the subset scans (`--threads`), on a **wide**");
    println!("unsatisfiable workload: every one of the ∏kᵢ scans must run before");
    println!("rejecting, so the speedup is guaranteed work division rather than a");
    println!("lucky early witness. Verdicts are identical at every thread count.");
    println!("Hardware parallelism on this host: {hw} (the speedup column is");
    println!("bounded by it — a single-core host can only show ≈1×):\n");
    println!(
        "| ∏kᵢ scans (wide unsat workload) | sequential | 2 threads | 4 threads | speedup ×4 |"
    );
    println!("|---|---|---|---|---|");
    for &(groups, width) in &[(3usize, 4usize), (4, 4)] {
        let (comp, var, phi) = gpd_bench::wide_unsat_singular_workload(30, groups, width);
        let ks: usize = phi.clauses().iter().map(|c| c.literals().len()).product();
        let (a, t_seq) = time(|| possibly_singular_subsets(&comp, &var, &phi));
        let (b2, t_p2) = time(|| subsets_at(&comp, &var, &phi, 2));
        let (c, t_p4) = time(|| subsets_at(&comp, &var, &phi, 4));
        assert!(a.is_none() && b2.is_none() && c.is_none());
        let speedup = t_seq.as_secs_f64() / t_p4.as_secs_f64().max(1e-9);
        println!(
            "| {ks} | {} | {} | {} | {speedup:.2}× |",
            us(t_seq),
            us(t_p2),
            us(t_p4)
        );
    }
    println!();
}

fn e6() {
    println!("## E6 — Theorem 2 (subset sum)\n");
    println!("| elements | exact (2ⁿ oracle) | inequality via flow | agree with gadget |");
    println!("|---|---|---|---|");
    for &n in &[10usize, 14, 18, 22] {
        let (sizes, target) = subset_sum_instance(21, n);
        let gadget = reduce_subset_sum(&sizes, target);
        let (exact, t_exact) = time(|| brute_force_subset_sum(&sizes, target).is_some());
        let (bounds, t_flow) = time(|| {
            // One shared flow network for both extremes (PR 3).
            let ((min, _), (max, _)) = sum_extremes(&gadget.computation, &gadget.variable);
            (min, max)
        });
        // Exact detection on the gadget (only at small n — it *is* 2^n).
        let agree = if n <= 14 {
            let det = possibly_by_enumeration(&gadget.computation, |c| {
                gadget.variable.sum_at(c) == gadget.target
            })
            .is_some();
            format!("{}", det == exact)
        } else {
            "(lattice too large)".into()
        };
        println!(
            "| {n} | {} ({exact}) | {} (range {}..={}) | {agree} |",
            us(t_exact),
            us(t_flow),
            bounds.0,
            bounds.1
        );
    }
    println!();
}

fn e7() {
    println!("## E7 — Theorems 4–7 (exact sums, ±1 steps)\n");
    println!("| n × events | Possibly(Σ=2) | total events |");
    println!("|---|---|---|");
    for &(n, m) in &[(4usize, 50usize), (8, 100), (16, 200), (32, 400), (64, 800)] {
        let (comp, var) = unit_sum_workload(40 + n as u64, n, m);
        let (w, t) = time(|| possibly_exact_sum(&comp, &var, 2).unwrap());
        if let Some(cut) = &w {
            assert_eq!(var.sum_at(cut), 2);
        }
        println!("| {n} × {m} | {} ({}) | {} |", us(t), w.is_some(), n * m);
    }
    println!("\n| toy size (4 × m) | Thm 7 | enumeration | Definitely(Σ=1) |");
    println!("|---|---|---|---|");
    for &m in &[3usize, 5, 7] {
        let (comp, var) = unit_sum_workload(50, 4, m);
        let (a, t_fast) = time(|| possibly_exact_sum(&comp, &var, 1).unwrap());
        let (b, t_enum) = time(|| possibly_by_enumeration(&comp, |c| var.sum_at(c) == 1));
        assert_eq!(a.is_some(), b.is_some());
        let (d, t_def) = time(|| definitely_exact_sum(&comp, &var, 1).unwrap());
        println!(
            "| m={m} | {} | {} | {} ({d}) |",
            us(t_fast),
            us(t_enum),
            us(t_def)
        );
    }
    println!();
}

fn e8() {
    println!("## E8 — §4.3 symmetric predicates\n");
    println!("| predicate | n=8 | n=32 | n=64 |");
    println!("|---|---|---|---|");
    type Ctor = fn(u32) -> SymmetricPredicate;
    let names: [(&str, Ctor); 5] = [
        ("exclusive-or", SymmetricPredicate::exclusive_or),
        ("not all equal", SymmetricPredicate::not_all_equal),
        (
            "no simple majority",
            SymmetricPredicate::absence_of_simple_majority,
        ),
        (
            "no ⅔ majority",
            SymmetricPredicate::absence_of_two_thirds_majority,
        ),
        ("exactly n/2", |n| SymmetricPredicate::exactly(n / 2)),
    ];
    for (name, make) in names {
        let mut cells = Vec::new();
        for &n in &[8usize, 32, 64] {
            let (comp, var) = boolean_workload(70 + n as u64, n, 50);
            let phi = make(n as u32);
            let (w, t) = time(|| possibly_symmetric(&comp, &var, &phi));
            cells.push(format!("{} ({})", us(t), w.is_some()));
        }
        println!("| {name} | {} |", cells.join(" | "));
    }
    println!();
}
