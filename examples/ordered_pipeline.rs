//! The §3.2 special case on a realistic shape: a staged pipeline where
//! each stage has one collector process, so the computation is
//! receive-ordered and singular k-CNF detection is polynomial.
//!
//! Run with: `cargo run --example ordered_pipeline`

use std::time::Instant;

use gpd::enumerate::possibly_by_enumeration;
use gpd::singular::{possibly_singular_chains_budgeted, possibly_singular_ordered};
use gpd::{Budget, BudgetMeter, CnfClause, SingularCnf};
use gpd_computation::{gen, OrderingKind, ProcessId};
use rand::SeedableRng;

fn main() {
    // Two pipeline stages of three processes; all messages are received
    // by each stage's collector (p0, p3).
    let stages = 2;
    let width = 3;
    let n = stages * width;
    let collectors: Vec<usize> = (0..stages).map(|s| s * width).collect();

    // Predicate: per stage, "some worker is idle or the collector is
    // backlogged" — a 3-literal clause per stage, mixed polarities.
    let phi = SingularCnf::new(
        (0..stages)
            .map(|s| {
                CnfClause::new(vec![
                    (ProcessId::new(s * width), true),
                    (ProcessId::new(s * width + 1), false),
                    (ProcessId::new(s * width + 2), true),
                ])
            })
            .collect(),
    );
    let grouping = phi.grouping();

    for events in [5usize, 20, 100, 400] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let comp = gen::random_computation_with_receivers(
            &mut rng,
            n,
            events,
            (n * events) / 4,
            Some(&collectors),
        );
        assert!(grouping.is_ordered(&comp, OrderingKind::ReceiveOrdered));
        let x = gen::random_bool_variable(&mut rng, &comp, 0.3);

        let t0 = Instant::now();
        let fast = possibly_singular_ordered(&comp, &x, &phi).expect("receive-ordered");
        let t_fast = t0.elapsed();

        // The §3.3 chain-cover engine, sequential and unbounded.
        let (budget, meter) = (Budget::unlimited(), BudgetMeter::new());
        let t0 = Instant::now();
        let general =
            possibly_singular_chains_budgeted(&comp, &x, &phi, 0, &budget, &meter, None).unwrap();
        let t_general = t0.elapsed();
        assert_eq!(
            Some(&fast.is_some()),
            general.value().map(Option::is_some).as_ref()
        );

        print!(
            "{} events/process: ordered scan {:>10?} | chain-cover {:>10?}",
            events, t_fast, t_general
        );
        if events <= 5 {
            let t0 = Instant::now();
            let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
            println!(" | lattice enumeration {:>10?}", t0.elapsed());
            assert_eq!(fast.is_some(), slow.is_some());
        } else {
            println!(" | lattice enumeration: skipped (exponential)");
        }
        if let Some(cut) = fast {
            assert!(phi.eval(&x, &cut));
        }
    }
    println!(
        "\nthe ordered scan is a single left-to-right pass — polynomial —\n\
         while general algorithms multiply scans per clause and plain\n\
         enumeration explodes with the lattice."
    );
}
