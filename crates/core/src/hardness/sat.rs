//! The Theorem 1 reduction: non-monotone 3-SAT → singular 2-CNF
//! detection.
//!
//! For every clause `i` the gadget computation has two processes hosting
//! booleans `aᵢ` (even process `2i`) and `bᵢ` (odd process `2i + 1`); the
//! detection predicate is the singular 2-CNF `⋀ᵢ (aᵢ ∨ bᵢ)`. Each literal
//! occurrence becomes one *true event*; a message edge runs from the
//! false event following every positive occurrence of a variable to every
//! true event of a conflicting negative occurrence, so two true events
//! are inconsistent exactly when their literals conflict. A consistent
//! cut satisfying the predicate therefore picks one non-conflicting
//! literal per clause — a satisfying assignment — and vice versa.

use gpd_computation::{BoolVariable, Computation, ComputationBuilder, Cut, EventId, ProcessId};
use gpd_sat::{Cnf, Lit};

use crate::predicate::{CnfClause, SingularCnf};

/// Error: the input formula is not in the non-monotone 3-CNF form the
/// reduction requires (run [`gpd_sat::to_three_cnf`] and
/// [`gpd_sat::to_non_monotone`] first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotNonMonotoneError;

impl std::fmt::Display for NotNonMonotoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "formula must be non-monotone 3-CNF (≤3 literals per clause, 3-literal clauses mixed)"
        )
    }
}

impl std::error::Error for NotNonMonotoneError {}

/// Where one literal occurrence landed in the gadget.
#[derive(Debug, Clone, Copy)]
struct Site {
    lit: Lit,
    process: ProcessId,
    /// Local state index right after the literal's true event.
    state: u32,
    /// The true event itself.
    event: EventId,
    /// The false event following a positive occurrence (arrow source).
    successor: Option<EventId>,
}

/// The output of [`reduce_sat`]: a computation, its per-process boolean
/// variable, and the singular 2-CNF predicate such that the formula is
/// satisfiable iff `Possibly(predicate)`.
#[derive(Debug, Clone)]
pub struct SatReduction {
    /// The gadget computation (2 processes per clause).
    pub computation: Computation,
    /// The booleans `aᵢ`, `bᵢ`; true exactly at the literal true events.
    pub variable: BoolVariable,
    /// `⋀ᵢ (aᵢ ∨ bᵢ)`.
    pub predicate: SingularCnf,
    num_vars: u32,
    sites: Vec<Site>,
}

impl SatReduction {
    /// The number of variables of the original formula.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Converts a witness cut back into a satisfying assignment: a
    /// literal is made true iff the cut passes through its true event;
    /// unconstrained variables default to false.
    ///
    /// # Panics
    ///
    /// Panics if the cut assigns conflicting values — impossible for
    /// consistent cuts of the gadget, by construction.
    pub fn assignment_from_cut(&self, cut: &Cut) -> Vec<bool> {
        let mut assignment: Vec<Option<bool>> = vec![None; self.num_vars as usize];
        for site in &self.sites {
            if cut.state_of(site.process) == site.state {
                let v = site.lit.var() as usize;
                let value = site.lit.is_positive();
                assert!(
                    assignment[v].is_none_or(|prev| prev == value),
                    "consistent cut selected conflicting literals of x{v}"
                );
                assignment[v] = Some(value);
            }
        }
        assignment.into_iter().map(|a| a.unwrap_or(false)).collect()
    }
}

/// Builds the Theorem 1 gadget for a non-monotone 3-CNF formula.
///
/// # Errors
///
/// Returns [`NotNonMonotoneError`] if some clause has more than three
/// literals or a three-literal clause is all-positive or all-negative.
///
/// # Example
///
/// ```
/// use gpd::detect::{Answer, Modality, Options, Predicate, Query};
/// use gpd::hardness::reduce_sat;
/// use gpd_sat::{Cnf, Lit};
///
/// // (x0 ∨ ¬x1): satisfiable.
/// let cnf = Cnf::new(2, vec![vec![Lit::pos(0), Lit::neg(1)].into()]);
/// let gadget = reduce_sat(&cnf).unwrap();
/// let query = Query {
///     comp: &gadget.computation,
///     predicate: Predicate::SingularCnf { var: &gadget.variable, cnf: &gadget.predicate },
///     modality: Modality::Possibly,
/// };
/// let report = gpd::detect(&query, &Options::default()).unwrap();
/// let Some(Answer::Witness(Some(cut))) = report.verdict.value() else {
///     panic!("formula is satisfiable")
/// };
/// assert!(cnf.eval(&gadget.assignment_from_cut(cut)));
/// ```
pub fn reduce_sat(cnf: &Cnf) -> Result<SatReduction, NotNonMonotoneError> {
    if !cnf.is_non_monotone() || cnf.max_clause_len() > 3 {
        return Err(NotNonMonotoneError);
    }

    let m = cnf.clauses().len();
    let mut b = ComputationBuilder::new(2 * m);
    let mut sites: Vec<Site> = Vec::new();
    // values[p] = the boolean track of process p, starting at the initial
    // (false) state.
    let mut values: Vec<Vec<bool>> = vec![vec![false]; 2 * m];
    let mut predicate_clauses = Vec::with_capacity(m);

    // Appends "true event for `lit`, then a false event" on process `p`;
    // records the site.
    let emit_pair = |b: &mut ComputationBuilder,
                     values: &mut Vec<Vec<bool>>,
                     sites: &mut Vec<Site>,
                     p: usize,
                     lit: Lit| {
        let t = b.append(p);
        let f = b.append(p);
        values[p].push(true);
        values[p].push(false);
        sites.push(Site {
            lit,
            process: ProcessId::new(p),
            state: values[p].len() as u32 - 2,
            event: t,
            successor: Some(f),
        });
    };

    for (i, clause) in cnf.clauses().iter().enumerate() {
        let pa = 2 * i;
        let pb = 2 * i + 1;
        predicate_clauses.push(CnfClause::new(vec![
            (ProcessId::new(pa), true),
            (ProcessId::new(pb), true),
        ]));
        let lits = clause.lits();
        match lits.len() {
            0 => {} // both processes empty and never true: clause (aᵢ ∨ bᵢ) unsatisfiable, as required
            1 => emit_pair(&mut b, &mut values, &mut sites, pa, lits[0]),
            2 => {
                emit_pair(&mut b, &mut values, &mut sites, pa, lits[0]);
                emit_pair(&mut b, &mut values, &mut sites, pb, lits[1]);
            }
            3 => {
                // Mixed polarity guaranteed: put one positive and one
                // negative occurrence on process A — positive first, so
                // the arrow construction stays acyclic — the remaining
                // literal on process B.
                let pos = lits
                    .iter()
                    .position(|l| l.is_positive())
                    .expect("non-monotone 3-clause has a positive literal");
                let neg = lits
                    .iter()
                    .position(|l| !l.is_positive())
                    .expect("non-monotone 3-clause has a negative literal");
                let rest = (0..3)
                    .find(|&j| j != pos && j != neg)
                    .expect("three literals");
                // Process A: true(l_pos), false, true(l_neg).
                let t1 = b.append(pa);
                let f1 = b.append(pa);
                values[pa].push(true);
                values[pa].push(false);
                sites.push(Site {
                    lit: lits[pos],
                    process: ProcessId::new(pa),
                    state: 1,
                    event: t1,
                    successor: Some(f1),
                });
                let t2 = b.append(pa);
                values[pa].push(true);
                sites.push(Site {
                    lit: lits[neg],
                    process: ProcessId::new(pa),
                    state: 3,
                    event: t2,
                    successor: None,
                });
                emit_pair(&mut b, &mut values, &mut sites, pb, lits[rest]);
            }
            _ => unreachable!("max_clause_len checked above"),
        }
    }

    // Conflict arrows: from the false event after each positive
    // occurrence to the true event of each conflicting negative
    // occurrence. Same-process conflicts are already ordered by program
    // order (positive first), so no edge is needed there.
    for i in 0..sites.len() {
        for j in 0..sites.len() {
            if i == j {
                continue;
            }
            let (pos, neg) = (&sites[i], &sites[j]);
            if !pos.lit.is_positive() || neg.lit.is_positive() || pos.lit.var() != neg.lit.var() {
                continue;
            }
            if pos.process == neg.process {
                debug_assert!(pos.state < neg.state, "positive occurrence comes first");
                continue;
            }
            let source = pos
                .successor
                .expect("positive occurrences are always followed by a false event");
            b.message(source, neg.event)
                .expect("conflict arrows connect distinct processes");
        }
    }

    let computation = b.build().expect("the gadget is acyclic (Theorem 1)");
    let variable = BoolVariable::new(&computation, values);
    Ok(SatReduction {
        computation,
        variable,
        predicate: SingularCnf::new(predicate_clauses),
        num_vars: cnf.num_vars(),
        sites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::sequential;
    use crate::enumerate::possibly_by_enumeration;
    use crate::singular::{possibly_singular_chains_budgeted, possibly_singular_subsets_budgeted};
    use gpd_sat::{brute_force, random_cnf, to_non_monotone, Cnf};
    use rand::{Rng, SeedableRng};

    /// The chain engine at 0 threads under an unlimited budget.
    fn possibly_singular_chains(g: &SatReduction) -> Option<Cut> {
        let (comp, var, phi) = (&g.computation, &g.variable, &g.predicate);
        sequential(|t, b, m| possibly_singular_chains_budgeted(comp, var, phi, t, b, m, None))
    }

    /// The subset engine at 0 threads under an unlimited budget.
    fn possibly_singular_subsets(g: &SatReduction) -> Option<Cut> {
        let (comp, var, phi) = (&g.computation, &g.variable, &g.predicate);
        sequential(|t, b, m| possibly_singular_subsets_budgeted(comp, var, phi, t, b, m, None))
    }

    fn detectable(g: &SatReduction) -> Option<Cut> {
        possibly_by_enumeration(&g.computation, |cut| g.predicate.eval(&g.variable, cut))
    }

    #[test]
    fn figure3_example_is_satisfiable_and_detected() {
        // The paper's Figure 3 formula: (x ∨ y) ∧ (¬x ∨ ¬y) — after
        // non-monotonization it is already ≤2-literal clauses.
        let cnf = Cnf::new(
            2,
            vec![
                vec![Lit::pos(0), Lit::pos(1)].into(),
                vec![Lit::neg(0), Lit::neg(1)].into(),
            ],
        );
        let g = reduce_sat(&cnf).unwrap();
        assert_eq!(g.computation.process_count(), 4);
        // Conflicting literal events are inconsistent.
        let pos_x = g.sites.iter().find(|s| s.lit == Lit::pos(0)).unwrap();
        let neg_x = g.sites.iter().find(|s| s.lit == Lit::neg(0)).unwrap();
        assert!(!g.computation.consistent(pos_x.event, neg_x.event));
        // Non-conflicting pairs stay consistent.
        let pos_y = g.sites.iter().find(|s| s.lit == Lit::pos(1)).unwrap();
        assert!(g.computation.consistent(pos_x.event, pos_y.event));

        let cut = detectable(&g).expect("satisfiable formula must be detected");
        let assignment = g.assignment_from_cut(&cut);
        assert!(cnf.eval(&assignment));
    }

    #[test]
    fn unsatisfiable_formula_is_not_detected() {
        // x ∧ ¬x via two unit clauses.
        let cnf = Cnf::new(1, vec![vec![Lit::pos(0)].into(), vec![Lit::neg(0)].into()]);
        let g = reduce_sat(&cnf).unwrap();
        assert!(detectable(&g).is_none());
        assert!(possibly_singular_chains(&g).is_none());
    }

    #[test]
    fn empty_clause_makes_detection_impossible() {
        let cnf = Cnf::new(1, vec![gpd_sat::Clause::new(vec![])]);
        let g = reduce_sat(&cnf).unwrap();
        assert!(detectable(&g).is_none());
    }

    #[test]
    fn monotone_three_clause_is_rejected() {
        let cnf = Cnf::new(3, vec![vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)].into()]);
        assert_eq!(reduce_sat(&cnf).unwrap_err(), NotNonMonotoneError);
    }

    #[test]
    fn gadget_structure_matches_the_paper() {
        // Mixed 3-clause: sends precede receives on every process, no
        // event both sends and receives.
        let cnf = Cnf::new(
            3,
            vec![
                vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)].into(),
                vec![Lit::neg(0), Lit::pos(1)].into(),
            ],
        );
        let g = reduce_sat(&cnf).unwrap();
        for e in g.computation.events() {
            let k = g.computation.kind(e);
            assert!(
                !(k.is_send() && k.is_receive()),
                "no event is both send and receive"
            );
        }
        for p in 0..g.computation.process_count() {
            let mut seen_receive = false;
            for &e in g.computation.events_of(p) {
                if g.computation.kind(e).is_receive() {
                    seen_receive = true;
                }
                if g.computation.kind(e).is_send() {
                    assert!(!seen_receive, "sends precede receives on p{p}");
                }
            }
        }
    }

    #[test]
    fn equivalence_with_sat_on_random_formulas() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for round in 0..40 {
            let n = rng.gen_range(2..5u32);
            let clauses = rng.gen_range(1..4);
            let raw = random_cnf(&mut rng, n, clauses, 3.min(n as usize));
            let cnf = to_non_monotone(&raw);
            let g = reduce_sat(&cnf).unwrap();
            let sat = brute_force(&cnf).is_some();
            let detected = detectable(&g);
            assert_eq!(sat, detected.is_some(), "round {round}: {cnf:?}");
            // The general algorithms agree with enumeration on gadgets.
            let via_subsets = possibly_singular_subsets(&g);
            let via_chains = possibly_singular_chains(&g);
            assert_eq!(via_subsets.is_some(), sat, "round {round}");
            assert_eq!(via_chains.is_some(), sat, "round {round}");
            if let Some(cut) = detected {
                let assignment = g.assignment_from_cut(&cut);
                assert!(cnf.eval(&assignment), "round {round}: {cnf:?}");
            }
        }
    }
}
