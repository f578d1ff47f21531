//! Generation of the linear Datalog program of Lemma 14 for path queries
//! satisfying C2 (via their strict B2b decomposition `q = s (uv)^(k-1) w v`).
//!
//! The program derives a unary predicate `o` such that `db` is a
//! "no"-instance of `CERTAINTY(q)` iff `o(c)` holds for **every**
//! `c ∈ adom(db)` (Claim 4 in the paper). The predicates follow Section 6.3:
//!
//! * `key_R(X) :- R(X, _)` — the keys with an outgoing `R`-edge;
//! * `uvterminal`, `wvterminal` — terminal vertices for the self-join-free
//!   words `uv` and `wv`;
//! * `uvpath(X, Y)` — a `uv`-step chain between `wv`-terminal vertices
//!   (the only recursive predicate; the recursion is linear);
//! * `p(X)` — the predicate `P` of Lemma 14: an `uv`-chain of `wv`-terminal
//!   vertices ending in a `uv`-terminal vertex or in a cycle;
//! * `spine_terminal(X)` — terminal vertices for the spine `s (uv)^(k-1)`,
//!   encoded with explicit `consistent/4` constraints because the spine may
//!   repeat relation names;
//! * `o(X)` — the predicate `O`: either `X` is spine-terminal, or a
//!   consistent spine path leads from `X` to some `Y` with `p(Y)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use cqa_core::regex_forms::B2bDecomposition;
use cqa_core::symbol::RelName;
use cqa_core::word::Word;

use crate::ast::{BodyLiteral, Builtin, DlAtom, DlTerm, Predicate, Program, Rule};
use crate::demand::{Demand, DemandMode, DemandReport};
use crate::engine::CompiledProgram;
use crate::plan_cache::PlanCache;

/// Names of the generated predicates, so that callers can query the result.
#[derive(Debug, Clone)]
pub struct CqaProgram {
    /// The generated program, as transformed under `mode` (with
    /// [`DemandMode::Off`] this is exactly the Lemma 14 program; under
    /// pruning/magic only the `o/1` extension is guaranteed unchanged).
    /// Shared out of the [`PlanCache`], like the compiled plan: repeated
    /// generation of the same query's program never re-transforms.
    pub program: Arc<Program>,
    /// The `o/1` answer predicate.
    pub o: Predicate,
    /// The `p/1` predicate of Lemma 14.
    pub p: Predicate,
    /// The `uvpath/2` recursive predicate.
    pub uvpath: Predicate,
    /// The decomposition the program was generated from.
    pub decomposition: B2bDecomposition,
    /// The resolved demand mode `program` was transformed under.
    pub mode: DemandMode,
    /// What the demand transformation did (all zero for
    /// [`DemandMode::Off`]).
    pub demand: DemandReport,
    /// The compiled evaluation plan, shared through the process-wide
    /// [`PlanCache`]: generating the same query's program twice hands back
    /// the same `Arc`, so repeated certain-answer calls never re-plan.
    pub compiled: Arc<CompiledProgram>,
}

fn rel_pred(rel: RelName) -> Predicate {
    Predicate {
        name: rel.symbol(),
        arity: 2,
    }
}

/// Interned `key_R/1` predicates, computed once per relation name: the
/// terminal rules reference them once per word position, and interning a
/// formatted string each time would hit the global interner lock in a loop.
struct KeyPreds {
    map: BTreeMap<RelName, Predicate>,
}

impl KeyPreds {
    fn for_relations(rels: &[RelName]) -> KeyPreds {
        KeyPreds {
            map: rels
                .iter()
                .map(|&rel| (rel, Predicate::new(&format!("key_{rel}"), 1)))
                .collect(),
        }
    }

    fn get(&self, rel: RelName) -> Predicate {
        self.map[&rel]
    }
}

fn var(prefix: &str, i: usize) -> DlTerm {
    DlTerm::var(&format!("{prefix}{i}"))
}

/// Appends the chain `word[0](X0, X1), word[1](X1, X2), …` to a rule body,
/// using variables `{prefix}0 … {prefix}n`. Returns the number of atoms added.
fn chain_atoms(body: &mut Vec<BodyLiteral>, word: &Word, prefix: &str) {
    for (i, rel) in word.iter().enumerate() {
        body.push(BodyLiteral::Positive(DlAtom::new(
            rel_pred(rel),
            vec![var(prefix, i), var(prefix, i + 1)],
        )));
    }
}

/// Adds `consistent/4` constraints between every pair of same-relation atoms
/// of the chain `word` over variables `{prefix}i`.
fn consistency_constraints(body: &mut Vec<BodyLiteral>, word: &Word, prefix: &str) {
    for i in 0..word.len() {
        for j in i + 1..word.len() {
            if word[i] == word[j] {
                body.push(BodyLiteral::Builtin(Builtin::KeyConsistent(
                    var(prefix, i),
                    var(prefix, i + 1),
                    var(prefix, j),
                    var(prefix, j + 1),
                )));
            }
        }
    }
}

/// Generates the terminal rules for a word: `terminal(X0)` holds iff some
/// consistent path with a proper-prefix trace of `word` starting at `X0`
/// reaches a vertex with no outgoing edge for the next relation name.
fn terminal_rules(program: &mut Program, terminal: Predicate, word: &Word, keys: &KeyPreds) {
    if word.is_empty() {
        return;
    }
    // i = 0: no outgoing edge of the first relation at all.
    program.add_rule(Rule::new(
        DlAtom::new(terminal, vec![var("T", 0)]),
        vec![
            BodyLiteral::Positive(DlAtom::new(Predicate::new("adom", 1), vec![var("T", 0)])),
            BodyLiteral::Negative(DlAtom::new(keys.get(word[0]), vec![var("T", 0)])),
        ],
    ));
    for i in 1..word.len() {
        let prefix = word.prefix(i);
        let mut body = Vec::new();
        chain_atoms(&mut body, &prefix, "T");
        consistency_constraints(&mut body, &prefix, "T");
        body.push(BodyLiteral::Negative(DlAtom::new(
            keys.get(word[i]),
            vec![var("T", i)],
        )));
        program.add_rule(Rule::new(DlAtom::new(terminal, vec![var("T", 0)]), body));
    }
}

/// Generates the linear Datalog program of Lemma 14 for the decomposition
/// `q = s (uv)^(k-1) w v`, compiling it through the process-wide
/// [`PlanCache`] (so generating the same query's program twice shares one
/// compilation).
///
/// Returns `None` if the decomposition is degenerate (`uv = ε`), in which
/// case the query is self-join-free and the FO rewriting should be used
/// instead.
pub fn generate_program(decomposition: &B2bDecomposition, query: &Word) -> Option<CqaProgram> {
    generate_program_with_cache(decomposition, query, PlanCache::global())
}

/// [`generate_program`] against an explicit plan cache. Benchmarks use a
/// fresh cache per call to measure the cold (plan-every-call) path; everyone
/// else wants [`generate_program`].
pub fn generate_program_with_cache(
    decomposition: &B2bDecomposition,
    query: &Word,
    cache: &PlanCache,
) -> Option<CqaProgram> {
    generate_program_with_options(decomposition, query, cache, Demand::Auto)
}

/// [`generate_program`] with an explicit plan cache and demand setting: the
/// Lemma 14 program is built, then transformed for the `o/1` goal under the
/// resolved demand mode (see [`crate::demand`]) and compiled through the
/// cache, keyed by the *untransformed* program plus the mode — so on a warm
/// cache both the transformation and the join planning are skipped.
pub fn generate_program_with_options(
    decomposition: &B2bDecomposition,
    query: &Word,
    cache: &PlanCache,
    demand: Demand,
) -> Option<CqaProgram> {
    let uv = decomposition.uv();
    let wv = decomposition.wv();
    let spine = decomposition.spine();
    if uv.is_empty() {
        return None;
    }
    debug_assert_eq!(&decomposition.reassemble(), query);

    let mut program = Program::new();
    let adom = Predicate::new("adom", 1);
    program.declare_edb(adom);
    // EDB relations: all relation names mentioned anywhere.
    let mut rels: Vec<RelName> = query.symbols().into_iter().collect();
    for extra in uv.symbols().into_iter().chain(wv.symbols()) {
        if !rels.contains(&extra) {
            rels.push(extra);
        }
    }
    for &rel in &rels {
        program.declare_edb(rel_pred(rel));
    }
    let keys = KeyPreds::for_relations(&rels);

    // key_R(X) :- R(X, Y).
    for &rel in &rels {
        program.add_rule(Rule::new(
            DlAtom::new(keys.get(rel), vec![DlTerm::var("X")]),
            vec![BodyLiteral::Positive(DlAtom::new(
                rel_pred(rel),
                vec![DlTerm::var("X"), DlTerm::var("Y")],
            ))],
        ));
    }

    let uvterminal = Predicate::new("uvterminal", 1);
    let wvterminal = Predicate::new("wvterminal", 1);
    let spine_terminal = Predicate::new("spineterminal", 1);
    let uvpath = Predicate::new("uvpath", 2);
    let p = Predicate::new("p", 1);
    let o = Predicate::new("o", 1);

    terminal_rules(&mut program, uvterminal, &uv, &keys);
    terminal_rules(&mut program, wvterminal, &wv, &keys);
    terminal_rules(&mut program, spine_terminal, &spine, &keys);

    // uvpath(X0, Xn) :- wvterminal(X0), uv-chain, wvterminal(Xn).
    {
        let mut body = vec![BodyLiteral::Positive(DlAtom::new(
            wvterminal,
            vec![var("U", 0)],
        ))];
        chain_atoms(&mut body, &uv, "U");
        body.push(BodyLiteral::Positive(DlAtom::new(
            wvterminal,
            vec![var("U", uv.len())],
        )));
        program.add_rule(Rule::new(
            DlAtom::new(uvpath, vec![var("U", 0), var("U", uv.len())]),
            body,
        ));
    }
    // uvpath(S, Xn) :- uvpath(S, X0), uv-chain, wvterminal(Xn).
    {
        let mut body = vec![BodyLiteral::Positive(DlAtom::new(
            uvpath,
            vec![DlTerm::var("S"), var("U", 0)],
        ))];
        chain_atoms(&mut body, &uv, "U");
        body.push(BodyLiteral::Positive(DlAtom::new(
            wvterminal,
            vec![var("U", uv.len())],
        )));
        program.add_rule(Rule::new(
            DlAtom::new(uvpath, vec![DlTerm::var("S"), var("U", uv.len())]),
            body,
        ));
    }

    // p(X) :- uvterminal(X), wvterminal(X).
    program.add_rule(Rule::new(
        DlAtom::new(p, vec![DlTerm::var("X")]),
        vec![
            BodyLiteral::Positive(DlAtom::new(uvterminal, vec![DlTerm::var("X")])),
            BodyLiteral::Positive(DlAtom::new(wvterminal, vec![DlTerm::var("X")])),
        ],
    ));
    // p(X) :- uvpath(X, Y), uvterminal(Y).
    program.add_rule(Rule::new(
        DlAtom::new(p, vec![DlTerm::var("X")]),
        vec![
            BodyLiteral::Positive(DlAtom::new(
                uvpath,
                vec![DlTerm::var("X"), DlTerm::var("Y")],
            )),
            BodyLiteral::Positive(DlAtom::new(uvterminal, vec![DlTerm::var("Y")])),
        ],
    ));
    // p(X) :- uvpath(X, Y), uvpath(Y, Y).   (the cycle case)
    program.add_rule(Rule::new(
        DlAtom::new(p, vec![DlTerm::var("X")]),
        vec![
            BodyLiteral::Positive(DlAtom::new(
                uvpath,
                vec![DlTerm::var("X"), DlTerm::var("Y")],
            )),
            BodyLiteral::Positive(DlAtom::new(
                uvpath,
                vec![DlTerm::var("Y"), DlTerm::var("Y")],
            )),
        ],
    ));

    // o(X) :- spineterminal(X).
    if !spine.is_empty() {
        program.add_rule(Rule::new(
            DlAtom::new(o, vec![DlTerm::var("X")]),
            vec![BodyLiteral::Positive(DlAtom::new(
                spine_terminal,
                vec![DlTerm::var("X")],
            ))],
        ));
    }
    // o(X0) :- spine-chain (consistent), p(Xn).
    {
        let mut body = Vec::new();
        if spine.is_empty() {
            body.push(BodyLiteral::Positive(DlAtom::new(adom, vec![var("S", 0)])));
        } else {
            chain_atoms(&mut body, &spine, "S");
            consistency_constraints(&mut body, &spine, "S");
        }
        body.push(BodyLiteral::Positive(DlAtom::new(
            p,
            vec![var("S", spine.len())],
        )));
        program.add_rule(Rule::new(DlAtom::new(o, vec![var("S", 0)]), body));
    }

    let mode = demand.resolve();
    let planned = cache
        .get_or_plan(&program, o, mode)
        .expect("generated programs are safe and stratified by construction");
    Some(CqaProgram {
        program: Arc::clone(&planned.program),
        o,
        p,
        uvpath,
        decomposition: decomposition.clone(),
        mode,
        demand: planned.report,
        compiled: Arc::clone(&planned.compiled),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use crate::stratify::{is_linear, stratify};
    use cqa_core::query::PathQuery;
    use cqa_core::regex_forms::b2b_strict_decomposition;
    use cqa_db::instance::DatabaseInstance;

    fn program_for(word: &str) -> CqaProgram {
        let q = PathQuery::parse(word).unwrap();
        let dec = b2b_strict_decomposition(q.word()).expect("decomposition exists");
        generate_program(&dec, q.word()).expect("program generated")
    }

    /// Oracle: db is a "no"-instance iff some repair falsifies q.
    fn is_certain(db: &DatabaseInstance, word: &str) -> bool {
        let q = PathQuery::parse(word).unwrap();
        db.repairs().all(|r| r.satisfies_word(q.word()))
    }

    /// Runs the generated program and applies Claim 4: the instance is
    /// certain iff o(c) fails for some constant.
    fn certain_via_datalog(db: &DatabaseInstance, word: &str) -> bool {
        let cqa = program_for(word);
        let store = evaluate(&cqa.program, db).unwrap();
        let o_holds = store.unary(cqa.o).unwrap();
        db.adom().iter().any(|c| !o_holds.contains(c.symbol()))
    }

    fn program_for_mode(word: &str, demand: Demand) -> CqaProgram {
        let q = PathQuery::parse(word).unwrap();
        let dec = b2b_strict_decomposition(q.word()).expect("decomposition exists");
        generate_program_with_options(&dec, q.word(), PlanCache::global(), demand)
            .expect("program generated")
    }

    #[test]
    fn generated_program_is_stratified_linear_and_safe() {
        // Linearity (the NL upper bound of Lemma 14) is a property of the
        // *untransformed* program: the magic rewrite trades it away for
        // goal-directedness, which the engine is free to do since it never
        // requires linearity.
        for word in ["RRX", "UVUVWV", "RXRX", "RR"] {
            let cqa = program_for_mode(word, Demand::Off);
            assert!(cqa.program.is_safe(), "{word}: unsafe");
            assert!(stratify(&cqa.program).is_ok(), "{word}: not stratified");
            assert!(is_linear(&cqa.program), "{word}: not linear");
        }
    }

    #[test]
    fn demand_transformed_programs_stay_safe_and_stratified() {
        for word in ["RRX", "UVUVWV", "RXRX", "RR"] {
            let cqa = program_for_mode(word, Demand::Magic);
            assert!(cqa.program.is_safe(), "{word}: unsafe");
            assert!(stratify(&cqa.program).is_ok(), "{word}: not stratified");
            // The magic rewrite genuinely restricts the recursion: uvpath is
            // seeded from the spine's endpoints instead of derived in full.
            assert!(
                cqa.demand.restricted_predicates >= 1,
                "{word}: nothing restricted"
            );
            assert!(cqa.program.to_string().contains("magic$uvpath"), "{word}");
        }
    }

    #[test]
    fn figure_2_instance_is_certain_for_rrx() {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "0", "1");
        db.insert_parsed("R", "1", "2");
        db.insert_parsed("R", "1", "3");
        db.insert_parsed("R", "2", "3");
        db.insert_parsed("X", "3", "4");
        assert!(is_certain(&db, "RRX"));
        assert!(certain_via_datalog(&db, "RRX"));
    }

    #[test]
    fn dead_end_instance_is_not_certain_for_rrx() {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "0", "1");
        db.insert_parsed("R", "1", "2");
        db.insert_parsed("R", "1", "3");
        db.insert_parsed("X", "2", "4");
        // The repair choosing R(1,3) has no RRX path.
        assert!(!is_certain(&db, "RRX"));
        assert!(!certain_via_datalog(&db, "RRX"));
    }

    #[test]
    fn datalog_matches_oracle_on_random_instances_for_rrx() {
        let mut state = 0xabcdef12u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let n = 6;
            let mut db = DatabaseInstance::new();
            let facts = 3 + (next() % 8) as usize;
            for _ in 0..facts {
                let rel = if next() % 3 == 0 { "X" } else { "R" };
                let a = next() % n;
                let b = next() % n;
                db.insert_parsed(rel, &format!("v{a}"), &format!("v{b}"));
            }
            if db.repair_count() > 4096 {
                continue;
            }
            assert_eq!(
                certain_via_datalog(&db, "RRX"),
                is_certain(&db, "RRX"),
                "round {round}: {db:?}"
            );
        }
    }

    #[test]
    fn datalog_matches_oracle_on_random_instances_for_uvuvwv() {
        let mut state = 0x13572468u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let n = 5;
            let mut db = DatabaseInstance::new();
            let facts = 4 + (next() % 10) as usize;
            for _ in 0..facts {
                let rel = match next() % 3 {
                    0 => "U",
                    1 => "V",
                    _ => "W",
                };
                let a = next() % n;
                let b = next() % n;
                db.insert_parsed(rel, &format!("v{a}"), &format!("v{b}"));
            }
            if db.repair_count() > 4096 {
                continue;
            }
            assert_eq!(
                certain_via_datalog(&db, "UVUVWV"),
                is_certain(&db, "UVUVWV"),
                "round {round}: {db:?}"
            );
        }
    }

    #[test]
    fn program_text_mentions_the_expected_predicates() {
        let cqa = program_for("UVUVWV");
        let text = cqa.program.to_string();
        assert!(text.contains("uvterminal"));
        assert!(text.contains("wvterminal"));
        assert!(text.contains("uvpath"));
        assert!(text.contains("o("));
        assert!(text.contains("consistent(") || !text.contains("consistent("));
    }

    #[test]
    fn degenerate_decomposition_is_rejected() {
        // A self-join-free query decomposes with uv = ε; the generator
        // declines and the caller should use the FO rewriting.
        let q = PathQuery::parse("RXY").unwrap();
        if let Some(dec) = b2b_strict_decomposition(q.word()) {
            if dec.uv().is_empty() {
                assert!(generate_program(&dec, q.word()).is_none());
            }
        }
    }
}
