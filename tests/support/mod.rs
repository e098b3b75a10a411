//! Case generators shared by the differential suites: random
//! computations, a random predicate of each class, and the fixed shapes
//! that pin edge cases. A new predicate class adds a generator here, not
//! a test file.
#![allow(dead_code)]

use gpd::{CnfClause, SingularCnf};
use gpd_computation::{gen, BoolVariable, Computation, ComputationBuilder, IntVariable, ProcessId};
use rand::Rng;

/// A random computation of `n` processes with `m` events each; a single
/// process cannot exchange messages, so `n = 1` drops `msgs`.
pub fn computation<R: Rng>(rng: &mut R, n: usize, m: usize, msgs: usize) -> Computation {
    gen::random_computation(rng, n, m, if n > 1 { msgs } else { 0 })
}

/// Six processes whose messages all go to processes 0 and 3: receive-
/// ordered for the grouping {0, 1, 2}, {3, 4, 5}.
pub fn receive_ordered<R: Rng>(rng: &mut R, m: usize, msgs: usize) -> Computation {
    gen::random_computation_with_receivers(rng, 6, m, msgs, Some(&[0, 3]))
}

/// The receive-ordered grouping as a CNF: two clauses of three literals
/// of random polarity.
pub fn two_group_cnf<R: Rng>(rng: &mut R) -> SingularCnf {
    let mut clause = |first: usize| {
        let literals = (first..first + 3)
            .map(|p| (ProcessId::new(p), rng.gen_bool(0.5)))
            .collect();
        CnfClause::new(literals)
    };
    SingularCnf::new(vec![clause(0), clause(3)])
}

/// A random singular CNF: the processes shuffled and carved into at most
/// `max_clauses` clauses of one to three literals of random polarity.
/// With `unit_first` the first clause is a unit clause, so the CNF has a
/// regular envelope to slice on.
pub fn singular_cnf<R: Rng>(
    rng: &mut R,
    n: usize,
    max_clauses: usize,
    unit_first: bool,
) -> SingularCnf {
    let mut procs: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        procs.swap(i, rng.gen_range(0..=i));
    }
    let mut clauses = Vec::new();
    let mut rest = procs.as_slice();
    while !rest.is_empty() && clauses.len() < max_clauses {
        let k = match unit_first && clauses.is_empty() {
            true => 1,
            false => rng.gen_range(1..=rest.len().min(3)),
        };
        let (now, later) = rest.split_at(k);
        clauses.push(CnfClause::new(
            now.iter()
                .map(|&p| (ProcessId::new(p), rng.gen_bool(0.5)))
                .collect(),
        ));
        rest = later;
    }
    SingularCnf::new(clauses)
}

/// Folds each literal's polarity into a variable, as the CLI builds
/// conjunctions: the result holds at `p` where literal `(p, positive)`
/// does, and is false on processes without a literal.
pub fn polarity_folded(
    comp: &Computation,
    x: &BoolVariable,
    literals: &[(ProcessId, bool)],
) -> BoolVariable {
    let mut values: Vec<Vec<bool>> = (0..comp.process_count())
        .map(|p| vec![false; comp.events_on(p) + 1])
        .collect();
    for &(p, positive) in literals {
        for (k, v) in values[p.index()].iter_mut().enumerate() {
            *v = x.value_in_state(p, k as u32) == positive;
        }
    }
    BoolVariable::new(comp, values)
}

/// A random walk per process whose steps lie in `-step..=step`, with at
/// least one step of exactly `step`, so the variable is not ±1.
///
/// # Panics
///
/// Panics if the computation has no event.
pub fn step_walk<R: Rng>(rng: &mut R, comp: &Computation, step: i64) -> IntVariable {
    let mut tracks: Vec<Vec<i64>> = (0..comp.process_count())
        .map(|p| {
            let mut x = rng.gen_range(-step..=step);
            let mut track = vec![x];
            for _ in 0..comp.events_on(p) {
                x += rng.gen_range(-step..=step);
                track.push(x);
            }
            track
        })
        .collect();
    let p = (0..tracks.len())
        .find(|&p| tracks[p].len() > 1)
        .expect("an event");
    let lift = step - (tracks[p][1] - tracks[p][0]);
    tracks[p][1..].iter_mut().for_each(|x| *x += lift);
    IntVariable::new(comp, tracks)
}

/// A fixed shape: a computation, a variable and a CNF over it.
pub type Shape = (Computation, BoolVariable, SingularCnf);

/// Two processes of one event each, and the CNF `(x₀) ∧ (x₁)` whose
/// second clause has no true state: the subset engine gets an empty
/// slot, the chain engine an empty cover.
pub fn empty_cover() -> Shape {
    let mut b = ComputationBuilder::new(2);
    b.append(0);
    b.append(1);
    let comp = b.build().expect("no messages");
    let x = BoolVariable::new(&comp, vec![vec![false, true], vec![false, false]]);
    let phi = SingularCnf::new(vec![
        CnfClause::new(vec![(ProcessId::new(0), true)]),
        CnfClause::new(vec![(ProcessId::new(1), true)]),
    ]);
    (comp, x, phi)
}

/// The clause `(x₀ ∨ x₁)` with every literal empty: every slot empty.
pub fn all_literals_empty() -> Shape {
    let mut b = ComputationBuilder::new(2);
    b.append(0);
    let comp = b.build().expect("no messages");
    let x = BoolVariable::new(&comp, vec![vec![false, false], vec![false]]);
    let phi = SingularCnf::new(vec![CnfClause::new(vec![
        (ProcessId::new(0), true),
        (ProcessId::new(1), true),
    ])]);
    (comp, x, phi)
}

/// `chain` processes of `links` events each, totally ordered by one
/// message chain through them, plus `free` independent processes of 7
/// events. Every frontier entry takes 3 bits once a process has 4 or
/// more events, so wide shapes pack into records of several words, while
/// the levels stay as wide as the free processes' state space.
pub fn chain_plus_free(chain: usize, links: usize, free: usize) -> Computation {
    let mut b = ComputationBuilder::new(chain + free);
    let mut last = None;
    for p in 0..chain {
        for i in 0..links {
            let e = b.append(p);
            if let (0, Some(s)) = (i, last) {
                b.message(s, e).expect("distinct processes");
            }
            last = Some(e);
        }
    }
    for p in chain..chain + free {
        for _ in 0..7 {
            b.append(p);
        }
    }
    b.build().expect("a forward chain")
}

/// The bench crate's E5 conflict gadget (`gpd_bench`'s
/// `wide_unsat_singular_workload`; that crate is no dependency here): a
/// 4-process gadget whose only true states, on processes 0 and 2, are
/// mutually inconsistent through one message, plus `groups` clauses of
/// `width` always-true processes, every process padded with `pad`
/// internal events. The gadget's two clauses hold `gadget` literals each
/// (1 or 2; the second literals, on processes 1 and 3, are never true),
/// so no literal combination survives and the lattice grows with `pad`.
pub fn wide_unsat(pad: usize, groups: usize, width: usize, gadget: usize) -> Shape {
    let n = 4 + groups * width;
    let mut b = ComputationBuilder::new(n);
    let _u1 = b.append(2);
    let u2 = b.append(2);
    let _e01 = b.append(0);
    let e02 = b.append(0);
    b.message(u2, e02).expect("distinct processes");
    for p in 0..n {
        for _ in 0..pad {
            b.append(p);
        }
    }
    let comp = b.build().expect("single forward message");
    let mut tracks: Vec<Vec<bool>> = (0..n)
        .map(|p| vec![p >= 4; comp.events_on(p) + 1])
        .collect();
    tracks[0][2] = true; // after e02
    tracks[2][1] = true; // after u1
    let var = BoolVariable::new(&comp, tracks);
    let gadget_clause = |first: usize| {
        CnfClause::new(
            (first..first + gadget)
                .map(|p| (ProcessId::new(p), true))
                .collect(),
        )
    };
    let mut clauses = vec![gadget_clause(0), gadget_clause(2)];
    for g in 0..groups {
        clauses.push(CnfClause::new(
            (0..width)
                .map(|i| (ProcessId::new(4 + g * width + i), true))
                .collect(),
        ));
    }
    (comp, var, SingularCnf::new(clauses))
}
