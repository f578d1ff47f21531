//! Shared test infrastructure: a seeded generator of random stratified
//! Datalog programs, used by the engine, checkpoint, demand, kernel and
//! copy-on-write family differential suites.
//!
//! Programs are generated level by level so stratification holds by
//! construction: a rule's positive literals draw from its own level or below
//! (same-level atoms make the rule recursive), negative literals only from
//! strictly lower levels, and built-ins only over variables bound by the
//! positive part — which also makes every rule safe.

#![allow(dead_code)] // Each tests/*.rs crate uses a different subset.

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

use cqa_datalog::prelude::*;

const VARS: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// A seeded generator of random stratified programs over the binary EDB
/// relations `R`, `S` (plus the unary `adom`).
pub struct ProgramGen {
    rng: StdRng,
}

impl ProgramGen {
    pub fn new(seed: u64) -> ProgramGen {
        ProgramGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.rng.random_range(0..xs.len())]
    }

    fn pick_str<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.rng.random_range(0..xs.len())]
    }

    /// A random term: usually a variable, occasionally a constant drawn from
    /// the instance generator's domain (`c0..c4`, matching
    /// `RandomInstanceConfig`'s `Constant::numbered` names).
    fn term(&mut self, vars_in_scope: &[&str]) -> DlTerm {
        if self.rng.random_bool(0.15) {
            DlTerm::constant(&format!("c{}", self.rng.random_range(0..5usize)))
        } else {
            DlTerm::var(self.pick_str(vars_in_scope))
        }
    }

    fn atom(&mut self, pred: Predicate, vars_in_scope: &[&str]) -> DlAtom {
        let args = (0..pred.arity).map(|_| self.term(vars_in_scope)).collect();
        DlAtom::new(pred, args)
    }

    /// A random safe rule for `head_pred` whose positive literals use
    /// `positive_preds` and whose negative literals use `negative_preds`.
    fn rule(
        &mut self,
        head_pred: Predicate,
        positive_preds: &[Predicate],
        negative_preds: &[Predicate],
    ) -> Rule {
        let num_positives = self.rng.random_range(1..=3usize);
        let mut body: Vec<BodyLiteral> = Vec::new();
        for _ in 0..num_positives {
            let pred = *self.pick(positive_preds);
            body.push(BodyLiteral::Positive(self.atom(pred, &VARS)));
        }
        // Variables bound by the positive part; everything else must draw
        // from these (or constants) to keep the rule safe.
        let bound: Vec<&str> = body
            .iter()
            .flat_map(|l| l.vars())
            .map(|v| v.as_str())
            .collect();
        if bound.is_empty() {
            // All-constant body: head must be all-constant too.
            let args = (0..head_pred.arity)
                .map(|_| DlTerm::constant(&format!("c{}", self.rng.random_range(0..5usize))))
                .collect();
            return Rule::new(DlAtom::new(head_pred, args), body);
        }
        if !negative_preds.is_empty() && self.rng.random_bool(0.4) {
            let pred = *self.pick(negative_preds);
            body.push(BodyLiteral::Negative(self.atom(pred, &bound)));
        }
        if self.rng.random_bool(0.4) {
            let a = DlTerm::var(self.pick_str(&bound));
            let b = DlTerm::var(self.pick_str(&bound));
            body.push(BodyLiteral::Builtin(if self.rng.random_bool(0.5) {
                Builtin::Neq(a, b)
            } else {
                Builtin::Eq(a, b)
            }));
        }
        let head_args = (0..head_pred.arity)
            .map(|_| {
                if self.rng.random_bool(0.1) {
                    DlTerm::constant(&format!("c{}", self.rng.random_range(0..5usize)))
                } else {
                    DlTerm::var(self.pick_str(&bound))
                }
            })
            .collect();
        Rule::new(DlAtom::new(head_pred, head_args), body)
    }

    /// A random stratified program over the binary EDB relations `R`, `S`.
    pub fn program(&mut self) -> Program {
        let edb = vec![
            Predicate::new("R", 2),
            Predicate::new("S", 2),
            Predicate::new("adom", 1),
        ];
        let mut program = Program::new();
        for &p in &edb {
            program.declare_edb(p);
        }
        let levels = self.rng.random_range(1..=3usize);
        let mut lower: Vec<Predicate> = edb.clone();
        for level in 0..levels {
            let preds_here: Vec<Predicate> = (0..self.rng.random_range(1..=2usize))
                .map(|j| {
                    Predicate::new(
                        &format!("idb_{level}_{j}"),
                        self.rng.random_range(1..=2usize),
                    )
                })
                .collect();
            for &head in &preds_here {
                // Positive literals may use this level's predicates
                // (recursion) or anything below; negation only strictly
                // below.
                let mut positive_pool = lower.clone();
                positive_pool.extend(&preds_here);
                for _ in 0..self.rng.random_range(1..=3usize) {
                    program.add_rule(self.rule(head, &positive_pool, &lower));
                }
            }
            lower.extend(preds_here);
        }
        program
    }
}
