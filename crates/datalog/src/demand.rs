//! Demand-driven derivation: goal-directed pruning and a magic-sets rewrite.
//!
//! The certainty check only ever inspects the goal predicate (`o/1` for the
//! generated CQA programs of Lemma 14), yet the engine derives the full IDB.
//! This module rewrites a program so that evaluation derives (a superset of)
//! exactly what the goal needs, in two stages:
//!
//! 1. **Reachability pruning**: drop every rule whose head predicate the goal
//!    cannot reach in the dependency graph (following positive *and*
//!    negative body edges). Unreachable predicates cannot influence the
//!    goal's fixpoint in any stratum, so this is answer-preserving on the
//!    goal for arbitrary stratified programs. It always runs first, and is
//!    what [`DemandMode::Magic`] falls back to when stage 2 cannot apply.
//!
//! 2. **Magic-sets / sideways information passing** ([`DemandMode::Magic`]):
//!    restrict eligible predicates to the tuples actually *demanded* by some
//!    goal derivation. Each eligible predicate `q` gets one canonical
//!    adornment — the set of argument positions bound at *every* positive
//!    occurrence of `q`, computed as a decreasing fixpoint under left-to-right
//!    information passing — plus a demand predicate `magic$q` over the bound
//!    positions. Every rule for `q` is guarded by a `magic$q` literal, and
//!    every occurrence of `q` contributes a rule deriving `magic$q` from the
//!    occurrence's guard and preceding positive literals (supplementary magic
//!    in the style of cozo's `magic_sets_rewrite`, but guard-based: original
//!    predicates keep their names and extensions shrink to the demanded
//!    cone).
//!
//! # Negation and the per-stratum hazard analysis
//!
//! A guarded rule derives a *subset* of its original head extension; if a
//! negated predicate `q` shrank on a tuple the evaluation actually consults,
//! `not q(..)` would start accepting tuples the original program rejected,
//! silently flipping answers. Restricting a negated predicate is
//! nevertheless sound *if every consultation is itself demanded*: for a
//! negative occurrence of `q` in rule `r`, the outcome of `not q(t)` can
//! only influence `r`'s head on bindings that satisfy **all** positive
//! literals of `r` (any other binding dies at a positive literal no matter
//! what the negation says). So stage 2 emits, per negative occurrence, a
//! demand rule
//!
//! ```text
//! magic$q(bound positions) :- guard?, <all positive literals of r>.
//! ```
//!
//! and on every binding it covers, standard magic-sets correctness makes the
//! restricted `q` agree with the original — while uncovered bindings cannot
//! affect any head. (Rule safety bounds every variable of a negative literal
//! by some positive literal, so these demand rules are always safe, and
//! negative occurrences never shrink the adornment masks.)
//!
//! What can go wrong is *stratification*, not soundness: the demand rule
//! makes `q` depend positively on the positive literals of `r`, and if such
//! a literal `p` sits **strictly above** `q` in the original stratification,
//! `p` may transitively depend on `q` through a negative edge — closing a
//! cycle through `magic$q` that contains a negation. The per-stratum hazard
//! analysis therefore exempts exactly the negated predicates with such an
//! occurrence (strictly-higher positive co-literal), together with their
//! (positive and negative) dependency cone — their rules stay unchanged, so
//! everything they read must keep its full extension. Negated predicates
//! whose co-literals all sit at or below their own stratum are restrictable:
//! any dependency path from a co-literal back to `q` is then positive-only,
//! so every new cycle is positive and the program stays stratified. In
//! particular, negation-free strata *below* a negated predicate — the common
//! CQA shape, where terminal rules negate a key predicate derived straight
//! from the EDB — are no longer exempt wholesale. A defensive [`stratify`]
//! check still runs, retrying with the historical full-cone exemption (no
//! negated predicate restricted) and finally falling back to the pruned
//! program if it ever fails.
//!
//! Builtins and negative literals never appear in magic-rule bodies (their
//! variables may be bound only by *later* positive literals, so copying them
//! could create unsafe rules); dropping them merely widens the demand set,
//! which is always sound.
//!
//! # Contract
//!
//! [`transform`] preserves the extension of the **goal predicate** exactly
//! (`crates/path-cqa/tests/demand_agreement.rs` pins this differentially
//! against the scan reference on random stratified programs); other
//! predicates may shrink or disappear. Callers that inspect non-goal
//! predicates must transform with [`DemandMode::Off`].

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::OnceLock;

use cqa_core::symbol::Symbol;

use crate::ast::{BodyLiteral, DlAtom, DlTerm, Predicate, Program, Rule};
use crate::stratify::stratify;

/// Demand knob, threaded from [`crate::parallel::EvalOptions`] down to
/// program generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Demand {
    /// Defer to the `PATH_CQA_DEMAND` environment variable: `off` (or `0`)
    /// disables the transformation; any other value — including unset and
    /// the retired `prune` — resolves to [`DemandMode::Magic`]. Like
    /// [`crate::parallel::Threads::Auto`] this is resolved once per process
    /// — set the variable before the first evaluation.
    #[default]
    Auto,
    /// No transformation: evaluate the program as written.
    Off,
    /// Stages 1 + 2: pruning, then the magic-sets rewrite.
    Magic,
}

/// A resolved demand setting (no `Auto`), usable as a cache-key component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DemandMode {
    /// No transformation.
    Off,
    /// Pruning plus the magic-sets rewrite.
    Magic,
}

impl std::fmt::Display for DemandMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DemandMode::Off => "off",
            DemandMode::Magic => "magic",
        })
    }
}

impl Demand {
    /// Resolves the knob to a concrete mode.
    pub fn resolve(self) -> DemandMode {
        match self {
            Demand::Off => DemandMode::Off,
            Demand::Magic => DemandMode::Magic,
            Demand::Auto => {
                static AUTO: OnceLock<DemandMode> = OnceLock::new();
                *AUTO.get_or_init(|| match std::env::var("PATH_CQA_DEMAND").as_deref() {
                    Ok("off") | Ok("0") => DemandMode::Off,
                    _ => DemandMode::Magic,
                })
            }
        }
    }
}

/// What a [`transform`] did, for stats plumbing ([`crate::parallel::EvalStats`],
/// the solver's session stats, the server `STATS` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DemandReport {
    /// Rules dropped by the reachability pass.
    pub rules_pruned: u64,
    /// IDB predicates that lost every defining rule in the reachability pass.
    pub predicates_pruned: u64,
    /// Predicates the magic stage restricted behind a demand guard.
    pub restricted_predicates: u64,
    /// `magic$…` rules emitted (0 when the magic stage did not apply — mode
    /// [`DemandMode::Off`], nothing restrictable, or the defensive
    /// stratification fallback).
    pub magic_rules: u64,
}

/// The demand-predicate name for `pred`: `magic$<name>`. The `$` keeps the
/// namespace disjoint from anything the CQA generator (or a reasonable test
/// program) emits.
fn magic_pred(pred: Predicate, mask: &[bool]) -> Predicate {
    Predicate::new(
        &format!("magic${}", pred.name),
        mask.iter().filter(|&&b| b).count(),
    )
}

/// Projects an atom onto its adorned (bound) positions, renamed to the demand
/// predicate.
fn magic_atom(atom: &DlAtom, mask: &[bool]) -> DlAtom {
    let args = atom
        .args
        .iter()
        .zip(mask)
        .filter(|&(_, &b)| b)
        .map(|(&t, _)| t)
        .collect();
    DlAtom::new(magic_pred(atom.pred, mask), args)
}

/// Stage 1: keeps only rules whose head the goal reaches through positive or
/// negative body edges. Returns the pruned program and the
/// (rules, predicates) drop counts.
fn prune(program: &Program, goal: Predicate) -> (Program, u64, u64) {
    let mut reachable: BTreeSet<Predicate> = BTreeSet::new();
    reachable.insert(goal);
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if !reachable.contains(&rule.head.pred) {
                continue;
            }
            for literal in &rule.body {
                if let BodyLiteral::Positive(a) | BodyLiteral::Negative(a) = literal {
                    changed |= reachable.insert(a.pred);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut pruned = Program::new();
    pruned.edb = program.edb.clone();
    for rule in &program.rules {
        if reachable.contains(&rule.head.pred) {
            pruned.add_rule(rule.clone());
        }
    }
    let heads = |p: &Program| -> BTreeSet<Predicate> { p.idb_predicates().into_iter().collect() };
    let rules_pruned = (program.rules.len() - pruned.rules.len()) as u64;
    let predicates_pruned = (heads(program).len() - heads(&pruned).len()) as u64;
    (pruned, rules_pruned, predicates_pruned)
}

/// Every predicate occurring under negation anywhere in the program.
fn all_negated(program: &Program) -> BTreeSet<Predicate> {
    program
        .rules
        .iter()
        .flat_map(|r| &r.body)
        .filter_map(|l| match l {
            BodyLiteral::Negative(a) => Some(a.pred),
            _ => None,
        })
        .collect()
}

/// The negated predicates whose restriction could break stratification: those
/// with some negative occurrence next to a positive co-literal *strictly
/// above* them in the original stratification (see the module docs' hazard
/// analysis). Unstratifiable input — defensive, callers only run stage 2 on
/// stratified programs — marks every negated predicate hazardous, degrading
/// to the historical full-cone exemption.
fn hazardous_negated(program: &Program) -> BTreeSet<Predicate> {
    let Ok(strat) = stratify(program) else {
        return all_negated(program);
    };
    // EDB predicates sit below every IDB stratum.
    let level = |p: Predicate| strat.stratum_of.get(&p).map_or(0, |s| s + 1);
    let mut hazardous = BTreeSet::new();
    for rule in &program.rules {
        for literal in &rule.body {
            let BodyLiteral::Negative(q) = literal else {
                continue;
            };
            let above = rule
                .body
                .iter()
                .any(|l| matches!(l, BodyLiteral::Positive(p) if level(p.pred) > level(q.pred)));
            if above {
                hazardous.insert(q.pred);
            }
        }
    }
    hazardous
}

/// Closes `seeds` under positive and negative body dependencies. Exempt
/// predicates keep their original rules, so everything those rules
/// (transitively) read must keep its full extension too.
fn dependency_cone(program: &Program, seeds: BTreeSet<Predicate>) -> BTreeSet<Predicate> {
    let mut cone = seeds;
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if !cone.contains(&rule.head.pred) {
                continue;
            }
            for literal in &rule.body {
                if let BodyLiteral::Positive(a) | BodyLiteral::Negative(a) = literal {
                    changed |= cone.insert(a.pred);
                }
            }
        }
        if !changed {
            return cone;
        }
    }
}

/// The canonical adornment of every restrictable predicate: the positions
/// bound (by a constant, a guard-provided head variable, or a preceding
/// positive literal) at *every* positive occurrence, as a decreasing
/// fixpoint. Predicates whose adornment empties out are demoted to full
/// (an all-free demand predicate would demand everything anyway).
fn adornments(
    program: &Program,
    goal: Predicate,
    exempt: &BTreeSet<Predicate>,
) -> BTreeMap<Predicate, Vec<bool>> {
    let mut adorn: BTreeMap<Predicate, Vec<bool>> = program
        .idb_predicates()
        .into_iter()
        .filter(|p| *p != goal && !exempt.contains(p))
        .map(|p| (p, vec![true; p.arity]))
        .collect();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let mut bound: BTreeSet<Symbol> = BTreeSet::new();
            if let Some(mask) = adorn.get(&rule.head.pred) {
                for (term, &b) in rule.head.args.iter().zip(mask) {
                    if b {
                        if let DlTerm::Var(v) = term {
                            bound.insert(*v);
                        }
                    }
                }
            }
            for literal in &rule.body {
                let BodyLiteral::Positive(a) = literal else {
                    continue;
                };
                if let Some(mask) = adorn.get(&a.pred).cloned() {
                    let new_mask: Vec<bool> = a
                        .args
                        .iter()
                        .zip(&mask)
                        .map(|(term, &b)| {
                            b && match term {
                                DlTerm::Const(_) => true,
                                DlTerm::Var(v) => bound.contains(v),
                            }
                        })
                        .collect();
                    if new_mask != mask {
                        changed = true;
                        if new_mask.contains(&true) {
                            adorn.insert(a.pred, new_mask);
                        } else {
                            adorn.remove(&a.pred);
                        }
                    }
                }
                for term in &a.args {
                    if let DlTerm::Var(v) = term {
                        bound.insert(*v);
                    }
                }
            }
        }
        if !changed {
            return adorn;
        }
    }
}

/// Stage 2: the guard-style magic rewrite over a pruned program. Tries the
/// per-stratum hazard exemption first; if its output fails the defensive
/// safety/stratification check, retries with the historical full negation
/// cone (which never restricts a negated predicate). Returns `None` when
/// nothing is restrictable or both attempts fail (the caller falls back to
/// the pruned program).
fn magic(pruned: &Program, goal: Predicate) -> Option<(Program, u64, u64)> {
    let refined = dependency_cone(pruned, hazardous_negated(pruned));
    if let Some(result) = magic_with_exempt(pruned, goal, &refined) {
        return Some(result);
    }
    let full = dependency_cone(pruned, all_negated(pruned));
    if full == refined {
        return None;
    }
    magic_with_exempt(pruned, goal, &full)
}

/// One magic-rewrite attempt under a fixed exemption set.
fn magic_with_exempt(
    pruned: &Program,
    goal: Predicate,
    exempt: &BTreeSet<Predicate>,
) -> Option<(Program, u64, u64)> {
    let adorn = adornments(pruned, goal, exempt);
    if adorn.is_empty() {
        return None;
    }

    let mut out = Program::new();
    out.edb = pruned.edb.clone();
    let mut emitted: HashSet<Rule> = HashSet::new();
    let mut magic_rules = 0u64;
    for rule in &pruned.rules {
        let guard: Option<DlAtom> = adorn
            .get(&rule.head.pred)
            .map(|mask| magic_atom(&rule.head, mask));
        // The sideways-information-passing prefix: the guard plus every
        // positive literal seen so far, in textual order.
        let mut seen: Vec<BodyLiteral> = guard
            .iter()
            .map(|g| BodyLiteral::Positive(g.clone()))
            .collect();
        for literal in &rule.body {
            let BodyLiteral::Positive(a) = literal else {
                continue;
            };
            if let Some(mask) = adorn.get(&a.pred) {
                let head = magic_atom(a, mask);
                // A recursive occurrence whose demand rule would be
                // `magic$q(..) :- magic$q(..), …` derives nothing new.
                let tautology = seen
                    .iter()
                    .any(|l| matches!(l, BodyLiteral::Positive(x) if *x == head));
                if !tautology {
                    let rule = Rule::new(head, seen.clone());
                    if emitted.insert(rule.clone()) {
                        out.add_rule(rule);
                        magic_rules += 1;
                    }
                }
            }
            seen.push(literal.clone());
        }
        // Demand for negative occurrences: `not q(..)` only matters on
        // bindings satisfying every positive literal of the rule, so those
        // literals (all of them — rule safety bounds the negation's
        // variables somewhere in the body, not necessarily before it) are
        // the demand (see the module docs' hazard analysis).
        for literal in &rule.body {
            let BodyLiteral::Negative(a) = literal else {
                continue;
            };
            if let Some(mask) = adorn.get(&a.pred) {
                let head = magic_atom(a, mask);
                let mut body: Vec<BodyLiteral> = guard
                    .iter()
                    .map(|g| BodyLiteral::Positive(g.clone()))
                    .collect();
                body.extend(
                    rule.body
                        .iter()
                        .filter(|l| matches!(l, BodyLiteral::Positive(_)))
                        .cloned(),
                );
                let rule = Rule::new(head, body);
                if emitted.insert(rule.clone()) {
                    out.add_rule(rule);
                    magic_rules += 1;
                }
            }
        }
        let mut body: Vec<BodyLiteral> = guard.into_iter().map(BodyLiteral::Positive).collect();
        body.extend(rule.body.iter().cloned());
        out.add_rule(Rule::new(rule.head.clone(), body));
    }

    // Defensive: the hazard analysis argues both properties hold by
    // construction (see module docs), but a demand rewrite that silently
    // produced an uncompilable program would take the whole route down —
    // `magic` retries with the full-cone exemption when this trips.
    if !out.is_safe() || stratify(&out).is_err() {
        return None;
    }
    Some((out, adorn.len() as u64, magic_rules))
}

/// Applies the demand transformation for `goal` at the given mode.
///
/// The result preserves the goal predicate's extension exactly; with
/// [`DemandMode::Off`] the program is returned unchanged (modulo clone). The
/// [`DemandReport`] records what each stage did.
pub fn transform(program: &Program, goal: Predicate, mode: DemandMode) -> (Program, DemandReport) {
    if mode == DemandMode::Off || program.edb.contains(&goal) {
        return (program.clone(), DemandReport::default());
    }
    let (pruned, rules_pruned, predicates_pruned) = prune(program, goal);
    let mut report = DemandReport {
        rules_pruned,
        predicates_pruned,
        ..DemandReport::default()
    };
    match magic(&pruned, goal) {
        Some((transformed, restricted, magic_rules)) => {
            report.restricted_predicates = restricted;
            report.magic_rules = magic_rules;
            (transformed, report)
        }
        None => (pruned, report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use cqa_db::instance::DatabaseInstance;

    fn atom(name: &str, terms: &[&str]) -> DlAtom {
        DlAtom::new(
            Predicate::new(name, terms.len()),
            terms
                .iter()
                .map(|t| {
                    if t.starts_with(|c: char| c.is_lowercase()) {
                        DlTerm::constant(t)
                    } else {
                        DlTerm::var(t)
                    }
                })
                .collect(),
        )
    }

    fn pos(name: &str, terms: &[&str]) -> BodyLiteral {
        BodyLiteral::Positive(atom(name, terms))
    }

    fn neg(name: &str, terms: &[&str]) -> BodyLiteral {
        BodyLiteral::Negative(atom(name, terms))
    }

    /// Transitive closure over `E`, a seeded goal, plus an unreachable
    /// second closure over `F`.
    fn seeded_tc_with_island() -> Program {
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.declare_edb(Predicate::new("F", 2));
        p.declare_edb(Predicate::new("seed", 2));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![pos("E", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![pos("path", &["X", "Y"]), pos("E", &["Y", "Z"])],
        ));
        // Instances are binary-relation databases, so the seed relation is a
        // binary self-loop seed(X, X).
        p.add_rule(Rule::new(
            atom("goal", &["Y"]),
            vec![pos("seed", &["X", "X2"]), pos("path", &["X", "Y"])],
        ));
        // Unreachable island: a closure over F the goal never consults.
        p.add_rule(Rule::new(
            atom("island", &["X", "Y"]),
            vec![pos("F", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("island", &["X", "Z"]),
            vec![pos("island", &["X", "Y"]), pos("F", &["Y", "Z"])],
        ));
        p
    }

    fn chain_db(n: usize) -> DatabaseInstance {
        let mut db = DatabaseInstance::new();
        for i in 0..n {
            db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
            db.insert_parsed("F", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db.insert_parsed("seed", "n0", "n0");
        db
    }

    fn goal_set(program: &Program, db: &DatabaseInstance) -> BTreeSet<Symbol> {
        let store = evaluate(program, db).unwrap();
        store
            .unary(Predicate::new("goal", 1))
            .map(|v| v.iter().collect())
            .unwrap_or_default()
    }

    #[test]
    fn resolve_maps_fixed_variants() {
        assert_eq!(Demand::Off.resolve(), DemandMode::Off);
        assert_eq!(Demand::Magic.resolve(), DemandMode::Magic);
    }

    #[test]
    fn off_is_identity() {
        let p = seeded_tc_with_island();
        let (t, report) = transform(&p, Predicate::new("goal", 1), DemandMode::Off);
        assert_eq!(t, p);
        assert_eq!(report, DemandReport::default());
    }

    #[test]
    fn prune_drops_the_island_and_nothing_else() {
        let p = seeded_tc_with_island();
        let (t, rules_pruned, predicates_pruned) = prune(&p, Predicate::new("goal", 1));
        assert_eq!(rules_pruned, 2);
        assert_eq!(predicates_pruned, 1);
        assert_eq!(t.rules.len(), 3);
        assert!(t.to_string().contains("path"));
        assert!(!t.to_string().contains("island"));
        let db = chain_db(20);
        assert_eq!(goal_set(&t, &db), goal_set(&p, &db));
    }

    #[test]
    fn magic_restricts_path_and_preserves_the_goal() {
        let p = seeded_tc_with_island();
        let (t, report) = transform(&p, Predicate::new("goal", 1), DemandMode::Magic);
        assert_eq!(report.rules_pruned, 2);
        assert_eq!(report.restricted_predicates, 1, "{t}");
        assert!(report.magic_rules >= 1, "{t}");
        assert!(t.to_string().contains("magic$path"));
        let db = chain_db(20);
        assert_eq!(goal_set(&t, &db), goal_set(&p, &db));
        // The win this transformation exists for: the original closure is
        // quadratic in the chain, the demanded one only walks from the seed.
        let full = evaluate(&p, &db).unwrap();
        let demanded = evaluate(&t, &db).unwrap();
        assert!(
            demanded.generation() < full.generation(),
            "demanded {} vs full {}",
            demanded.generation(),
            full.generation()
        );
    }

    #[test]
    fn unseeded_goal_falls_back_to_prune() {
        // goal == the recursive predicate itself: nothing is restrictable
        // (the goal is exempt), so magic degrades to the pruned program.
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![pos("E", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![pos("path", &["X", "Y"]), pos("E", &["Y", "Z"])],
        ));
        let (t, report) = transform(&p, Predicate::new("path", 2), DemandMode::Magic);
        assert_eq!(report.magic_rules, 0);
        assert_eq!(t.rules.len(), 2);
        assert!(!t.to_string().contains("magic$"));
    }

    #[test]
    fn negation_free_strata_below_a_negation_are_restricted() {
        // blocked is negated in the goal rule, but its cone (blocked, mark)
        // is negation-free and sits below everything the goal rule joins
        // with it: the hazard analysis restricts all three IDB predicates,
        // demanding blocked from the goal rule's positive literals.
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.declare_edb(Predicate::new("seed", 2));
        p.declare_edb(Predicate::new("M", 2));
        p.add_rule(Rule::new(
            atom("mark", &["X"]),
            vec![pos("M", &["X", "X2"])],
        ));
        p.add_rule(Rule::new(
            atom("blocked", &["X"]),
            vec![pos("mark", &["X"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![pos("E", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![pos("path", &["X", "Y"]), pos("E", &["Y", "Z"])],
        ));
        p.add_rule(Rule::new(
            atom("goal", &["Y"]),
            vec![
                pos("seed", &["X", "X2"]),
                pos("path", &["X", "Y"]),
                neg("blocked", &["Y"]),
            ],
        ));
        let goal = Predicate::new("goal", 1);
        let (t, report) = transform(&p, goal, DemandMode::Magic);
        assert_eq!(report.restricted_predicates, 3, "{t}");
        let text = t.to_string();
        assert!(text.contains("magic$path"));
        assert!(text.contains("magic$blocked"));
        assert!(text.contains("magic$mark"));
        assert!(stratify(&t).is_ok());

        let mut db = DatabaseInstance::new();
        for i in 0..8 {
            db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db.insert_parsed("seed", "n2", "n2");
        db.insert_parsed("M", "n5", "n5");
        assert_eq!(goal_set(&t, &db), goal_set(&p, &db));
    }

    #[test]
    fn hazardous_negation_keeps_its_cone_exempt() {
        // `not mark(Z)` occurs next to the recursive path literal, which
        // sits strictly above mark in the original stratification:
        // restricting mark would make it depend on path, closing a cycle
        // through the negation. The hazard analysis leaves mark (and its
        // cone) unrestricted while path stays restrictable.
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.declare_edb(Predicate::new("M", 2));
        p.declare_edb(Predicate::new("seed", 2));
        p.add_rule(Rule::new(
            atom("mark", &["X"]),
            vec![pos("M", &["X", "X2"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![pos("E", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![
                pos("path", &["X", "Y"]),
                pos("E", &["Y", "Z"]),
                neg("mark", &["Z"]),
            ],
        ));
        p.add_rule(Rule::new(
            atom("goal", &["Y"]),
            vec![pos("seed", &["X", "X2"]), pos("path", &["X", "Y"])],
        ));
        let goal = Predicate::new("goal", 1);
        let (t, report) = transform(&p, goal, DemandMode::Magic);
        let text = t.to_string();
        assert!(text.contains("magic$path"), "{t}");
        assert!(!text.contains("magic$mark"), "{t}");
        assert_eq!(report.restricted_predicates, 1, "{t}");
        assert!(stratify(&t).is_ok());

        let mut db = DatabaseInstance::new();
        for i in 0..8 {
            db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db.insert_parsed("seed", "n0", "n0");
        db.insert_parsed("M", "n4", "n4");
        assert_eq!(goal_set(&t, &db), goal_set(&p, &db));
    }

    #[test]
    fn constants_seed_demand_without_any_edb_seed() {
        // goal(Y) :- path(c0, Y): the constant alone binds path's first
        // position, so the demand cone starts at c0.
        let mut p = Program::new();
        p.declare_edb(Predicate::new("E", 2));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![pos("E", &["X", "Y"])],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![pos("path", &["X", "Y"]), pos("E", &["Y", "Z"])],
        ));
        p.add_rule(Rule::new(
            atom("goal", &["Y"]),
            vec![pos("path", &["c0", "Y"])],
        ));
        let (t, report) = transform(&p, Predicate::new("goal", 1), DemandMode::Magic);
        assert_eq!(report.restricted_predicates, 1);
        // The first occurrence has an empty SIP prefix, so the demand seed
        // is the fact rule `magic$path(c0).`.
        assert!(t.rules.iter().any(|r| r.body.is_empty()), "{t}");
        let mut db = DatabaseInstance::new();
        db.insert_parsed("E", "c0", "c1");
        db.insert_parsed("E", "c1", "c2");
        db.insert_parsed("E", "c9", "c0");
        assert_eq!(goal_set(&t, &db), goal_set(&p, &db));
    }

    #[test]
    fn transformed_programs_stay_safe_and_compilable() {
        let p = seeded_tc_with_island();
        for mode in [DemandMode::Off, DemandMode::Magic] {
            let (t, _) = transform(&p, Predicate::new("goal", 1), mode);
            assert!(t.is_safe(), "{mode}: {t}");
            assert!(
                crate::engine::CompiledProgram::compile(&t).is_ok(),
                "{mode}: {t}"
            );
        }
    }
}
