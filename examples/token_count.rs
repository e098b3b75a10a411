//! Monitoring token conservation with exact-sum predicates (§4.2/§4.3).
//!
//! A token ring should hold exactly K tokens at every global state —
//! except that tokens in flight are invisible, so the *observable* count
//! ranges over an interval. The §4.2 polynomial algorithm answers
//! `Possibly(Σ tokens = j)` for every j; an injected duplication bug
//! shows up as `Possibly(Σ > K)`.
//!
//! Run with: `cargo run --example token_count`

use gpd::detect::{Answer, Modality, Options, Predicate, Query};
use gpd::relational::{max_sum_cut, min_sum_cut};
use gpd_sim::protocols::TokenRing;
use gpd_sim::{SimConfig, SimTrace, Simulation};

fn report(label: &str, trace: &SimTrace, expected: i64) {
    let tokens = trace.int_var("tokens").expect("protocol exposes tokens");
    assert!(tokens.is_unit_step(), "token counts change by at most 1");
    let comp = &trace.computation;
    let (min, _) = min_sum_cut(comp, tokens);
    let (max, _) = max_sum_cut(comp, tokens);
    println!(
        "[{label}] {} events; observable token count ranges {min}..={max} (dispatched {expected})",
        comp.event_count()
    );
    for j in 0..=(max + 1) {
        let query = Query {
            comp,
            predicate: Predicate::ExactSum { var: tokens, k: j },
            modality: Modality::Possibly,
        };
        let report = gpd::detect(&query, &Options::default()).expect("unit steps");
        let possible = matches!(report.verdict.value(), Some(Answer::Witness(Some(_))));
        println!("[{label}]   Possibly(Σ tokens = {j}) = {possible}");
    }
    if max > expected {
        println!("[{label}]   ⚠ conservation violated: more tokens visible than dispatched!");
    }
}

fn main() {
    let correct = Simulation::new(TokenRing::ring(6, 3), SimConfig::new(42)).run();
    report("correct ring", &correct, 3);

    let buggy = Simulation::new(TokenRing::ring_with_bug(6, 3, 2), SimConfig::new(42)).run();
    report("buggy ring", &buggy, 3);

    // Sanity: the bug is observable, the correct ring is not over-full.
    let t_ok = correct.int_var("tokens").unwrap();
    let t_bad = buggy.int_var("tokens").unwrap();
    assert!(max_sum_cut(&correct.computation, t_ok).0 <= 3);
    assert!(max_sum_cut(&buggy.computation, t_bad).0 > 3);
    println!("\nconclusion: exact-sum monitoring separates the correct ring from the buggy one");
}
