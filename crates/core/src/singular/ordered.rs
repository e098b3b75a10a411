//! The §3.2 polynomial special case: receive-ordered or send-ordered
//! computations.
//!
//! When all receive events on every clause meta-process are totally
//! ordered, the causal order can be extended (independent non-receives
//! are pushed before receives within a meta-process) and linearized into
//! a total order σ satisfying **Property P**: if a state of another group
//! forces past a state `s` of group G, it forces past every state of G
//! that is σ-later than `s`. That is exactly the domination property the
//! scan engine needs, with the whole group as a single slot — so one scan
//! decides the predicate in polynomial time, no combination enumeration.
//!
//! The send-ordered case reduces to the receive-ordered case by time
//! reversal: sends become receives, consistent cuts complement.

use gpd_computation::{BoolVariable, Computation, Cut, Grouping, OrderingKind};

use crate::predicate::SingularCnf;
use crate::scan::{cut_through, scan, Candidate};
use crate::singular::literal_states;

/// Engine name the planner reports for the §3.2 polynomial scan.
pub const SINGULAR_ORDERED: &str = "singular-ordered";

/// Error: the computation is neither receive-ordered nor send-ordered for
/// the predicate's clause grouping, so the §3.2 special case does not
/// apply (fall back to the general algorithms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOrderedError;

impl std::fmt::Display for NotOrderedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "computation is neither receive-ordered nor send-ordered for this predicate"
        )
    }
}

impl std::error::Error for NotOrderedError {}

/// Decides `Possibly(Φ)` in polynomial time when the computation is
/// receive-ordered or send-ordered with respect to Φ's clause grouping.
///
/// # Errors
///
/// Returns [`NotOrderedError`] when neither ordering condition holds; the
/// caller should fall back to
/// [`possibly_singular_chains_budgeted`](crate::singular::possibly_singular_chains_budgeted).
///
/// # Example
///
/// ```
/// use gpd::singular::possibly_singular_ordered;
/// use gpd::{CnfClause, SingularCnf};
/// use gpd_computation::{BoolVariable, ComputationBuilder};
///
/// // No messages at all: trivially receive-ordered.
/// let mut b = ComputationBuilder::new(2);
/// b.append(0);
/// b.append(1);
/// let comp = b.build().unwrap();
/// let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, true]]);
/// let phi = SingularCnf::new(vec![
///     CnfClause::new(vec![(0.into(), true), (1.into(), true)]),
/// ]);
/// assert!(possibly_singular_ordered(&comp, &x, &phi).unwrap().is_some());
/// ```
pub fn possibly_singular_ordered(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
) -> Result<Option<Cut>, NotOrderedError> {
    let grouping = predicate.grouping();
    if grouping.is_ordered(comp, OrderingKind::ReceiveOrdered) {
        return Ok(scan_receive_ordered(comp, var, predicate, &grouping));
    }
    if grouping.is_ordered(comp, OrderingKind::SendOrdered) {
        // Time reversal: the reversed computation is receive-ordered for
        // the same grouping, and its consistent cuts are the complements
        // of this computation's.
        let rev_comp = comp.reversed();
        let rev_var = var.reversed();
        let witness = scan_receive_ordered(&rev_comp, &rev_var, predicate, &grouping);
        return Ok(witness.map(|g| {
            Cut::from_frontier(
                (0..comp.process_count())
                    .map(|p| comp.events_on(p) as u32 - g.state_of(p))
                    .collect(),
            )
        }));
    }
    Err(NotOrderedError)
}

/// One scan with whole clauses as slots, candidates sorted by the §3.2
/// linearization.
fn scan_receive_ordered(
    comp: &Computation,
    var: &BoolVariable,
    predicate: &SingularCnf,
    grouping: &Grouping,
) -> Option<Cut> {
    let lin = grouping
        .linearize(comp, OrderingKind::ReceiveOrdered)
        .expect("receive-ordered extension is acyclic (Tarafdar–Garg)");
    let slots: Vec<Vec<Candidate>> = predicate
        .clauses()
        .iter()
        .map(|clause| {
            let mut states: Vec<Candidate> = clause
                .literals()
                .iter()
                .flat_map(|&(p, positive)| literal_states(comp, var, p, positive))
                .collect();
            // Initial states (no event) sort before everything; real
            // states by σ position of their event.
            states.sort_by_key(|c| {
                if c.state == 0 {
                    0
                } else {
                    1 + lin.position(comp.event_at(c.process, c.state).expect("valid state"))
                }
            });
            states
        })
        .collect();
    scan(comp, &slots).map(|found| cut_through(comp, &found))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::possibly_by_enumeration;
    use crate::predicate::CnfClause;
    use gpd_computation::{gen, ComputationBuilder, ProcessId};
    use rand::{Rng, SeedableRng};

    /// Predicate with two 2-literal clauses over processes 0–3.
    fn two_clause_predicate<R: Rng>(rng: &mut R) -> SingularCnf {
        SingularCnf::new(vec![
            CnfClause::new(vec![
                (ProcessId::new(0), rng.gen_bool(0.5)),
                (ProcessId::new(1), rng.gen_bool(0.5)),
            ]),
            CnfClause::new(vec![
                (ProcessId::new(2), rng.gen_bool(0.5)),
                (ProcessId::new(3), rng.gen_bool(0.5)),
            ]),
        ])
    }

    #[test]
    fn receive_ordered_agrees_with_enumeration() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
        for round in 0..120 {
            let m = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..8);
            // Receives restricted to p1 and p3: each group's receives sit
            // on a single process → receive-ordered.
            let comp = gen::random_computation_with_receivers(&mut rng, 4, m, msgs, Some(&[1, 3]));
            let x = gen::random_bool_variable(&mut rng, &comp, 0.35);
            let phi = two_clause_predicate(&mut rng);
            let fast = possibly_singular_ordered(&comp, &x, &phi)
                .expect("receive-ordered by construction");
            let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
            assert_eq!(fast.is_some(), slow.is_some(), "round {round}: {phi:?}");
            if let Some(cut) = fast {
                assert!(phi.eval(&x, &cut), "round {round}");
            }
        }
    }

    #[test]
    fn send_ordered_agrees_with_enumeration() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(555);
        let mut exercised = 0;
        for round in 0..120 {
            let m = rng.gen_range(1..5);
            let msgs = rng.gen_range(0..8);
            // Receivers are p0 and p2, so *senders* can be anyone — to get
            // send-ordered computations, restrict receivers to the other
            // groups... instead, generate and keep only genuinely
            // send-ordered-but-not-receive-ordered cases.
            let comp = gen::random_computation(&mut rng, 4, m, msgs);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.35);
            let phi = two_clause_predicate(&mut rng);
            let grouping = phi.grouping();
            if grouping.is_ordered(&comp, gpd_computation::OrderingKind::ReceiveOrdered)
                || !grouping.is_ordered(&comp, gpd_computation::OrderingKind::SendOrdered)
            {
                continue;
            }
            exercised += 1;
            let fast = possibly_singular_ordered(&comp, &x, &phi).expect("send-ordered");
            let slow = possibly_by_enumeration(&comp, |cut| phi.eval(&x, cut));
            assert_eq!(fast.is_some(), slow.is_some(), "round {round}: {phi:?}");
            if let Some(cut) = fast {
                assert!(phi.eval(&x, &cut), "round {round}");
            }
        }
        assert!(exercised > 3, "too few send-ordered cases generated");
    }

    #[test]
    fn unordered_computation_is_rejected() {
        // Two concurrent receives into group {p0, p1} from p4, and the
        // same into group {p2, p3} — neither receive- nor send-ordered
        // once senders are also concurrent... build explicitly:
        let mut b = ComputationBuilder::new(5);
        let s1 = b.append(4);
        let s2 = b.append(4);
        let r0 = b.append(0);
        let r1 = b.append(1);
        b.message(s1, r0).unwrap();
        b.message(s2, r1).unwrap();
        // r0 ∥ r1? s1 < s2 on p4, so r0's past ⊆ ... r1 receives from s2
        // which follows s1; vc(r1)[0] = 0, vc(r0)[1] = 0 → independent. ✓
        // Group {p0, p1} has two independent receives → not
        // receive-ordered. p4 hosts both sends (totally ordered), but the
        // group {p4} is not part of the predicate; sends *on the
        // predicate's groups* are absent → send-ordered holds!
        let comp = b.build().unwrap();
        let phi = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        let x = BoolVariable::new(
            &comp,
            vec![
                vec![false, true],
                vec![false, true],
                vec![false],
                vec![false],
                vec![false, false, false],
            ],
        );
        // Send-ordered (vacuously): algorithm applies.
        assert!(possibly_singular_ordered(&comp, &x, &phi).is_ok());

        // Now also make the group send concurrently: p0 and p1 each send
        // to p4 — and receive concurrently as before: neither ordering.
        let mut b = ComputationBuilder::new(5);
        let s1 = b.append(4);
        let s2 = b.append(4);
        let r0 = b.append(0);
        let r1 = b.append(1);
        let t0 = b.append(0);
        let t1 = b.append(1);
        let u0 = b.append(4);
        let u1 = b.append(4);
        b.message(s1, r0).unwrap();
        b.message(s2, r1).unwrap();
        b.message(t0, u0).unwrap();
        b.message(t1, u1).unwrap();
        let comp = b.build().unwrap();
        let phi = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        let x = BoolVariable::new(
            &comp,
            vec![
                vec![false, true, false],
                vec![false, true, false],
                vec![false],
                vec![false],
                vec![false; 5],
            ],
        );
        assert_eq!(
            possibly_singular_ordered(&comp, &x, &phi),
            Err(NotOrderedError)
        );
    }

    #[test]
    fn witness_mapping_through_reversal_is_consistent() {
        // A send-ordered computation where the witness is not at the
        // boundary cuts: check the complemented frontier is consistent
        // and satisfies the predicate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(808);
        for _ in 0..60 {
            let comp = gen::random_computation(&mut rng, 4, 3, 4);
            let x = gen::random_bool_variable(&mut rng, &comp, 0.4);
            let phi = two_clause_predicate(&mut rng);
            let grouping = phi.grouping();
            if !grouping.is_ordered(&comp, gpd_computation::OrderingKind::SendOrdered) {
                continue;
            }
            if let Ok(Some(cut)) = possibly_singular_ordered(&comp, &x, &phi) {
                assert!(comp.is_consistent(&cut));
                assert!(phi.eval(&x, &cut));
            }
        }
    }
}
