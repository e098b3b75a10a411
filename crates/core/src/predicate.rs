//! Predicate types.

use gpd_computation::{BoolVariable, Cut, Grouping, ProcessId};

/// Comparison operator of a relational predicate `Σxᵢ relop K`.
///
/// Equality is deliberately *not* a variant: `Σ = K` is the paper's §4
/// centerpiece with its own algorithms and hardness result, asked as
/// [`Predicate::ExactSum`](crate::detect::Predicate::ExactSum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relop {
    /// `Σ < K`
    Lt,
    /// `Σ ≤ K`
    Le,
    /// `Σ > K`
    Gt,
    /// `Σ ≥ K`
    Ge,
}

impl Relop {
    /// Evaluates `sum relop k`.
    pub fn eval(self, sum: i64, k: i64) -> bool {
        match self {
            Relop::Lt => sum < k,
            Relop::Le => sum <= k,
            Relop::Gt => sum > k,
            Relop::Ge => sum >= k,
        }
    }
}

impl std::fmt::Display for Relop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Relop::Lt => "<",
            Relop::Le => "≤",
            Relop::Gt => ">",
            Relop::Ge => "≥",
        })
    }
}

/// One clause of a [`SingularCnf`]: a disjunction of literals, each the
/// boolean variable of a distinct process, possibly negated.
///
/// `(process, true)` is the positive literal `x_process`; `(process,
/// false)` is `¬x_process`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfClause {
    literals: Vec<(ProcessId, bool)>,
}

impl CnfClause {
    /// Creates a clause.
    ///
    /// # Panics
    ///
    /// Panics if the clause is empty or mentions a process twice.
    pub fn new(literals: Vec<(ProcessId, bool)>) -> Self {
        assert!(!literals.is_empty(), "empty clause is never satisfiable");
        let mut procs: Vec<ProcessId> = literals.iter().map(|&(p, _)| p).collect();
        procs.sort_unstable();
        procs.dedup();
        assert_eq!(
            procs.len(),
            literals.len(),
            "a clause may mention each process at most once"
        );
        CnfClause { literals }
    }

    /// The literals.
    pub fn literals(&self) -> &[(ProcessId, bool)] {
        &self.literals
    }

    /// The processes hosting this clause's variables.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.literals.iter().map(|&(p, _)| p)
    }

    /// Evaluates the clause at a cut.
    pub fn eval(&self, var: &BoolVariable, cut: &Cut) -> bool {
        self.literals
            .iter()
            .any(|&(p, positive)| var.value_at(cut, p) == positive)
    }
}

/// A **singular CNF predicate**: a conjunction of [`CnfClause`]s such that
/// no two clauses contain variables from the same process (§2.3). With one
/// positive literal per clause this degenerates to a conjunctive
/// predicate; with k literals per clause it is the singular k-CNF class
/// whose detection Theorem 1 proves NP-complete.
///
/// # Example
///
/// ```
/// use gpd::{CnfClause, SingularCnf};
///
/// // (x₀ ∨ ¬x₁) ∧ (x₂ ∨ x₃): singular — clause process sets are disjoint.
/// let phi = SingularCnf::new(vec![
///     CnfClause::new(vec![(0.into(), true), (1.into(), false)]),
///     CnfClause::new(vec![(2.into(), true), (3.into(), true)]),
/// ]);
/// assert_eq!(phi.clauses().len(), 2);
/// assert!(phi.is_conjunctive() == false);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularCnf {
    clauses: Vec<CnfClause>,
}

impl SingularCnf {
    /// Creates a singular CNF predicate.
    ///
    /// # Panics
    ///
    /// Panics if two clauses share a process (the predicate would not be
    /// singular).
    pub fn new(clauses: Vec<CnfClause>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for clause in &clauses {
            for p in clause.processes() {
                assert!(
                    seen.insert(p),
                    "process {p} appears in two clauses; the predicate is not singular"
                );
            }
        }
        SingularCnf { clauses }
    }

    /// The clauses.
    pub fn clauses(&self) -> &[CnfClause] {
        &self.clauses
    }

    /// Whether every clause has exactly one positive literal (a
    /// conjunctive predicate — the polynomially detectable base case).
    pub fn is_conjunctive(&self) -> bool {
        self.clauses
            .iter()
            .all(|c| c.literals().len() == 1 && c.literals()[0].1)
    }

    /// The grouping whose meta-processes are this predicate's clauses
    /// (the §3.2 view).
    pub fn grouping(&self) -> Grouping {
        Grouping::new(
            self.clauses
                .iter()
                .map(|c| c.processes().collect())
                .collect(),
        )
    }

    /// Evaluates the predicate at a cut.
    pub fn eval(&self, var: &BoolVariable, cut: &Cut) -> bool {
        self.clauses.iter().all(|c| c.eval(var, cut))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpd_computation::ComputationBuilder;

    #[test]
    fn relop_eval() {
        assert!(Relop::Lt.eval(1, 2));
        assert!(!Relop::Lt.eval(2, 2));
        assert!(Relop::Le.eval(2, 2));
        assert!(Relop::Gt.eval(3, 2));
        assert!(!Relop::Gt.eval(2, 2));
        assert!(Relop::Ge.eval(2, 2));
        assert_eq!(format!("{}", Relop::Ge), "≥");
    }

    #[test]
    fn clause_eval_respects_polarity() {
        let mut b = ComputationBuilder::new(2);
        b.append(0);
        let comp = b.build().unwrap();
        let var = BoolVariable::new(&comp, vec![vec![false, true], vec![false]]);
        let clause = CnfClause::new(vec![(0.into(), true), (1.into(), false)]);
        // State [0, 0]: x₀ false but ¬x₁ true → clause true.
        assert!(clause.eval(&var, &Cut::from_frontier(vec![0, 0])));
        let only_pos = CnfClause::new(vec![(0.into(), true)]);
        assert!(!only_pos.eval(&var, &Cut::from_frontier(vec![0, 0])));
        assert!(only_pos.eval(&var, &Cut::from_frontier(vec![1, 0])));
    }

    #[test]
    #[should_panic(expected = "empty clause")]
    fn empty_clause_panics() {
        CnfClause::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at most once")]
    fn duplicate_process_in_clause_panics() {
        CnfClause::new(vec![(0.into(), true), (0.into(), false)]);
    }

    #[test]
    #[should_panic(expected = "not singular")]
    fn overlapping_clauses_panic() {
        SingularCnf::new(vec![
            CnfClause::new(vec![(0.into(), true)]),
            CnfClause::new(vec![(0.into(), false)]),
        ]);
    }

    #[test]
    fn conjunctive_recognition() {
        let conj = SingularCnf::new(vec![
            CnfClause::new(vec![(0.into(), true)]),
            CnfClause::new(vec![(1.into(), true)]),
        ]);
        assert!(conj.is_conjunctive());
        let negated = SingularCnf::new(vec![CnfClause::new(vec![(0.into(), false)])]);
        assert!(!negated.is_conjunctive());
        let wide = SingularCnf::new(vec![CnfClause::new(vec![
            (0.into(), true),
            (1.into(), true),
        ])]);
        assert!(!wide.is_conjunctive());
    }

    #[test]
    fn grouping_mirrors_clauses() {
        let phi = SingularCnf::new(vec![
            CnfClause::new(vec![(0.into(), true), (2.into(), true)]),
            CnfClause::new(vec![(1.into(), false)]),
        ]);
        let g = phi.grouping();
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.group_of(2.into()), Some(0));
        assert_eq!(g.group_of(1.into()), Some(1));
    }
}
