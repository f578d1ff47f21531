//! Paths in database instances (Definition 6 and Definition 15).
//!
//! A *path* in an instance `db` is a sequence of facts
//! `R1(c1,c2), R2(c2,c3), …, Rn(cn,cn+1)`; its *trace* is the word
//! `R1 R2 … Rn`. A path is *consistent* if it does not contain two distinct
//! key-equal facts.

use std::collections::BTreeSet;

use cqa_core::word::Word;

use crate::error::DbError;
use crate::fact::{Constant, Fact, FactId};
use crate::instance::DatabaseInstance;

/// A path in a database instance, stored as the sequence of fact identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbPath {
    facts: Vec<FactId>,
}

impl DbPath {
    /// Builds a path from its fact identifiers, verifying that consecutive
    /// facts chain (`value` of one equals `key` of the next).
    pub fn new(db: &DatabaseInstance, facts: Vec<FactId>) -> Result<DbPath, DbError> {
        for pair in facts.windows(2) {
            let a = db.fact(pair[0]);
            let b = db.fact(pair[1]);
            if a.value != b.key {
                return Err(DbError::BrokenPath(format!("{a} does not chain with {b}")));
            }
        }
        Ok(DbPath { facts })
    }

    /// The fact identifiers along the path.
    pub fn fact_ids(&self) -> &[FactId] {
        &self.facts
    }

    /// The facts along the path.
    pub fn facts(&self, db: &DatabaseInstance) -> Vec<Fact> {
        self.facts.iter().map(|&id| db.fact(id)).collect()
    }

    /// The number of facts (the path length).
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True iff the path has no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// The trace of the path.
    pub fn trace(&self, db: &DatabaseInstance) -> Word {
        self.facts.iter().map(|&id| db.fact(id).rel).collect()
    }

    /// The start constant of the path, if nonempty.
    pub fn start(&self, db: &DatabaseInstance) -> Option<Constant> {
        self.facts.first().map(|&id| db.fact(id).key)
    }

    /// The end constant of the path, if nonempty.
    pub fn end(&self, db: &DatabaseInstance) -> Option<Constant> {
        self.facts.last().map(|&id| db.fact(id).value)
    }

    /// True iff the path contains no two *distinct* key-equal facts.
    pub fn is_consistent(&self, db: &DatabaseInstance) -> bool {
        let facts: Vec<Fact> = self.facts(db);
        for i in 0..facts.len() {
            for j in i + 1..facts.len() {
                if facts[i] != facts[j] && facts[i].key_equal(&facts[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// The set of distinct facts used by the path.
    pub fn fact_set(&self) -> BTreeSet<FactId> {
        self.facts.iter().copied().collect()
    }
}

/// Enumerates every path of `db` with the given trace, starting at `start`.
///
/// The number of such paths is `O(|db|^|trace|)` in the worst case; a `limit`
/// bounds the enumeration and an error is returned when it is exceeded.
pub fn paths_with_trace_from(
    db: &DatabaseInstance,
    start: Constant,
    trace: &Word,
    limit: usize,
) -> Result<Vec<DbPath>, DbError> {
    let mut results = Vec::new();
    let mut current: Vec<FactId> = Vec::with_capacity(trace.len());
    search_paths(db, start, trace, 0, &mut current, &mut results, limit)?;
    Ok(results)
}

fn search_paths(
    db: &DatabaseInstance,
    at: Constant,
    trace: &Word,
    depth: usize,
    current: &mut Vec<FactId>,
    results: &mut Vec<DbPath>,
    limit: usize,
) -> Result<(), DbError> {
    if depth == trace.len() {
        if results.len() >= limit {
            return Err(DbError::PathLimitExceeded(limit));
        }
        results.push(DbPath {
            facts: current.clone(),
        });
        return Ok(());
    }
    let rel = trace[depth];
    for &fact_id in db.block(rel, at) {
        current.push(fact_id);
        search_paths(
            db,
            db.fact(fact_id).value,
            trace,
            depth + 1,
            current,
            results,
            limit,
        )?;
        current.pop();
    }
    Ok(())
}

/// Enumerates every path of `db` with the given trace, starting anywhere.
pub fn paths_with_trace(
    db: &DatabaseInstance,
    trace: &Word,
    limit: usize,
) -> Result<Vec<DbPath>, DbError> {
    let mut all = Vec::new();
    if trace.is_empty() {
        return Ok(all);
    }
    let first = trace[0];
    let starts: BTreeSet<Constant> = db
        .facts()
        .iter()
        .filter(|f| f.rel == first)
        .map(|f| f.key)
        .collect();
    for start in starts {
        let remaining = limit.saturating_sub(all.len());
        // Each start is searched under what is left of the budget, but the
        // caller asked for (and must be told about) the whole cap.
        let mut found =
            paths_with_trace_from(db, start, trace, remaining).map_err(|e| match e {
                DbError::PathLimitExceeded(_) => DbError::PathLimitExceeded(limit),
                other => other,
            })?;
        all.append(&mut found);
    }
    Ok(all)
}

/// The distinct fact sets of every *embedding* of the path query `trace` in
/// `db` — i.e. the images `θ(q)` of all homomorphisms from the query to `db`.
/// Each embedding is returned as the set of facts it uses.
///
/// These are exactly the witnesses that must be avoided by a repair falsifying
/// the query, and are the clauses of the SAT encoding used by the coNP solver.
pub fn embeddings(
    db: &DatabaseInstance,
    trace: &Word,
    limit: usize,
) -> Result<Vec<BTreeSet<FactId>>, DbError> {
    let paths = paths_with_trace(db, trace, limit)?;
    let mut seen: BTreeSet<BTreeSet<FactId>> = BTreeSet::new();
    for p in paths {
        seen.insert(p.fact_set());
    }
    Ok(seen.into_iter().collect())
}

/// `db |= a --trace--> b` (Definition 15): there is a path from `a` to `b`
/// with the given trace.
pub fn has_path(db: &DatabaseInstance, from: Constant, trace: &Word, to: Constant) -> bool {
    reachable_by_trace(db, from, trace).contains(&to)
}

/// All constants reachable from `from` by a path with the given trace.
pub fn reachable_by_trace(
    db: &DatabaseInstance,
    from: Constant,
    trace: &Word,
) -> BTreeSet<Constant> {
    let mut frontier: BTreeSet<Constant> = BTreeSet::from([from]);
    for rel in trace.iter() {
        let mut next = BTreeSet::new();
        for &c in &frontier {
            for v in db.out_values(rel, c) {
                next.insert(v);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// All endpoints `d` such that `db |= from --trace-->--> d`, i.e. reachable by
/// a **consistent** path with the given trace (Definition 15).
pub fn consistent_path_endpoints(
    db: &DatabaseInstance,
    from: Constant,
    trace: &Word,
) -> BTreeSet<Constant> {
    let mut endpoints = BTreeSet::new();
    let mut used: Vec<FactId> = Vec::new();
    consistent_dfs(db, from, trace, 0, &mut used, &mut endpoints);
    endpoints
}

fn consistent_dfs(
    db: &DatabaseInstance,
    at: Constant,
    trace: &Word,
    depth: usize,
    used: &mut Vec<FactId>,
    endpoints: &mut BTreeSet<Constant>,
) {
    if depth == trace.len() {
        endpoints.insert(at);
        return;
    }
    let rel = trace[depth];
    for &fact_id in db.block(rel, at) {
        let fact = db.fact(fact_id);
        // Consistency: no other fact of the same block may already be used.
        let conflicts = used.iter().any(|&u| {
            let uf = db.fact(u);
            uf.key_equal(&fact) && uf != fact
        });
        if conflicts {
            continue;
        }
        used.push(fact_id);
        consistent_dfs(db, fact.value, trace, depth + 1, used, endpoints);
        used.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_2() -> DatabaseInstance {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "0", "1");
        db.insert_parsed("R", "1", "2");
        db.insert_parsed("R", "1", "3");
        db.insert_parsed("R", "2", "3");
        db.insert_parsed("X", "3", "4");
        db
    }

    #[test]
    fn paths_and_traces() {
        let db = figure_2();
        let word = Word::from_letters("RRR");
        let paths = paths_with_trace(&db, &word, 100).unwrap();
        // 0->1->2->3 is the only RRR path.
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.trace(&db), word);
        assert_eq!(p.start(&db), Some(Constant::new("0")));
        assert_eq!(p.end(&db), Some(Constant::new("3")));
        assert!(p.is_consistent(&db));
    }

    #[test]
    fn rrx_paths_in_figure_2() {
        let db = figure_2();
        let paths = paths_with_trace(&db, &Word::from_letters("RRX"), 100).unwrap();
        // 0 -> 1 -> 3 -> 4 (via R(1,3)) and 1 -> 2 -> 3 -> 4 (via R(1,2)).
        assert_eq!(paths.len(), 2);
        let starts: BTreeSet<Constant> = paths.iter().filter_map(|p| p.start(&db)).collect();
        assert_eq!(
            starts,
            BTreeSet::from([Constant::new("0"), Constant::new("1")])
        );
    }

    #[test]
    fn inconsistent_path_detection() {
        // R(a,a) loop: the path R(a,a), R(a,a) repeats the same fact, which is
        // allowed; but R(a,b), (back to a via S), R(a,c) would not be.
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "a", "b");
        db.insert_parsed("S", "b", "a");
        db.insert_parsed("R", "a", "c");
        let rsr = Word::from_letters("RSR");
        let paths = paths_with_trace_from(&db, Constant::new("a"), &rsr, 100).unwrap();
        // Two RSR paths from a: via R(a,b),S(b,a),R(a,b)... wait the final R
        // can be R(a,b) or R(a,c); the one reusing R(a,b) is consistent, the
        // one combining R(a,b) and R(a,c) is not.
        assert_eq!(paths.len(), 2);
        let consistent: Vec<bool> = paths.iter().map(|p| p.is_consistent(&db)).collect();
        assert!(consistent.contains(&true));
        assert!(consistent.contains(&false));
        // Consistent endpoints from a with trace RSR: only b (via reusing R(a,b)).
        let endpoints = consistent_path_endpoints(&db, Constant::new("a"), &rsr);
        assert_eq!(endpoints, BTreeSet::from([Constant::new("b")]));
    }

    #[test]
    fn example_7_terminal_paths() {
        // db = {R(c,d), S(d,c), R(c,e), T(e,f)}: db |= c -RS->-> c and
        // c -RT->-> f ... via consistent paths, but no consistent RSRT path.
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "c", "d");
        db.insert_parsed("S", "d", "c");
        db.insert_parsed("R", "c", "e");
        db.insert_parsed("T", "e", "f");
        let c = Constant::new("c");
        assert!(consistent_path_endpoints(&db, c, &Word::from_letters("RS")).contains(&c));
        assert!(consistent_path_endpoints(&db, c, &Word::from_letters("RT"))
            .contains(&Constant::new("f")));
        assert!(consistent_path_endpoints(&db, c, &Word::from_letters("RSRT")).is_empty());
        // The unrestricted (possibly inconsistent) reachability does find it.
        assert!(has_path(
            &db,
            c,
            &Word::from_letters("RSRT"),
            Constant::new("f")
        ));
    }

    #[test]
    fn embeddings_deduplicate_fact_sets() {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "a", "a");
        // The query RR has a single embedding {R(a,a)} (the fact is reused).
        let embs = embeddings(&db, &Word::from_letters("RR"), 10).unwrap();
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0].len(), 1);
    }

    #[test]
    fn limit_is_enforced() {
        let mut db = DatabaseInstance::new();
        for i in 0..10 {
            db.insert_parsed("R", "a", &format!("b{i}"));
        }
        let err = paths_with_trace(&db, &Word::from_letters("R"), 5);
        assert!(err.is_err());
    }

    #[test]
    fn limit_error_reports_the_cap_not_the_remaining_budget() {
        // Two paths from `a`, three from `c`: the cap of 4 is crossed while
        // searching the second start, when only 2 of the budget remain.
        let mut db = DatabaseInstance::new();
        for v in ["b0", "b1"] {
            db.insert_parsed("R", "a", v);
        }
        for v in ["d0", "d1", "d2"] {
            db.insert_parsed("R", "c", v);
        }
        assert_eq!(
            paths_with_trace(&db, &Word::from_letters("R"), 4),
            Err(DbError::PathLimitExceeded(4))
        );
    }

    #[test]
    fn reachability_by_trace() {
        let db = figure_2();
        let reach = reachable_by_trace(&db, Constant::new("0"), &Word::from_letters("RR"));
        assert_eq!(
            reach,
            BTreeSet::from([Constant::new("2"), Constant::new("3")])
        );
        assert!(has_path(
            &db,
            Constant::new("0"),
            &Word::from_letters("RRRX"),
            Constant::new("4")
        ));
        assert!(!has_path(
            &db,
            Constant::new("0"),
            &Word::from_letters("RX"),
            Constant::new("4")
        ));
    }

    #[test]
    fn broken_paths_are_rejected() {
        let db = figure_2();
        let id_a = db.fact_id(&Fact::parse("R", "0", "1")).unwrap();
        let id_b = db.fact_id(&Fact::parse("R", "2", "3")).unwrap();
        assert!(DbPath::new(&db, vec![id_a, id_b]).is_err());
        let id_c = db.fact_id(&Fact::parse("R", "1", "2")).unwrap();
        assert!(DbPath::new(&db, vec![id_a, id_c, id_b]).is_ok());
    }
}
