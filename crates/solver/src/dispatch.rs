//! The classification-driven dispatcher: classify `q` in polynomial time
//! (Theorem 2) and route the instance to the matching solver.

use std::fmt;

use cqa_core::classify::{classify, Classification};
use cqa_core::query::PathQuery;
use cqa_datalog::parallel::EvalOptions;
use cqa_db::instance::DatabaseInstance;

use crate::error::SolverError;
use crate::nl_solver::NlBackend;
use crate::session::CertaintySession;
use crate::traits::CertaintySolver;

/// The back-end a query is routed to, one per complexity class of the
/// tetrachotomy. Callers branch on the enum instead of string-matching
/// solver names; [`Route::solver_name`] (and `Display`) still yield the
/// stable names the solvers report through
/// [`CertaintySolver::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// First-order rewriting (Lemma 13), for the FO class.
    FoRewriting,
    /// The predicates `P`/`O` of Lemma 14 with the given back-end, for the
    /// NL-complete class.
    Nl(NlBackend),
    /// The fixpoint algorithm of Figure 5, for the PTIME-complete class.
    PtimeFixpoint,
    /// SAT-based counterexample search, for the coNP-complete class.
    ConpSat,
}

impl Route {
    /// The stable name of the routed solver (matches the corresponding
    /// [`CertaintySolver::name`]).
    pub fn solver_name(self) -> &'static str {
        match self {
            Route::FoRewriting => "fo-rewriting",
            Route::Nl(NlBackend::Direct) => "nl-direct",
            Route::Nl(NlBackend::Datalog) => "nl-datalog",
            Route::PtimeFixpoint => "ptime-fixpoint",
            Route::ConpSat => "conp-sat",
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honors width/alignment, which the table-style examples use.
        f.pad(self.solver_name())
    }
}

/// A solver that first classifies the query and then dispatches to the
/// specialized algorithm for its complexity class:
///
/// | class          | algorithm                                   |
/// |----------------|---------------------------------------------|
/// | FO             | first-order rewriting (Lemma 13)            |
/// | NL-complete    | predicates `P`/`O` of Lemma 14              |
/// | PTIME-complete | fixpoint algorithm of Figure 5              |
/// | coNP-complete  | SAT-based counterexample search             |
///
/// Dispatch runs through an internal [`CertaintySession`], so per-query
/// artifacts (classification, decomposition, compiled CQA program, `S-NFA`)
/// are built once per dispatcher and shared by subsequent calls with the
/// same query; use [`DispatchSolver::session`] for batch submission and
/// cache statistics.
#[derive(Debug)]
pub struct DispatchSolver {
    session: CertaintySession,
}

impl Default for DispatchSolver {
    fn default() -> DispatchSolver {
        DispatchSolver::new()
    }
}

impl DispatchSolver {
    /// Creates a dispatcher with default sub-solvers (direct NL back-end).
    pub fn new() -> DispatchSolver {
        DispatchSolver {
            session: CertaintySession::new(),
        }
    }

    /// Creates a dispatcher whose NL class is served by the Datalog back-end.
    pub fn with_datalog_nl() -> DispatchSolver {
        DispatchSolver {
            session: CertaintySession::with_datalog_nl(),
        }
    }

    /// Creates a dispatcher with an explicit NL back-end and evaluation
    /// options (demand, kernel, checkpoint and maintenance knobs, plus the
    /// fan-out budget for batched submission). `EvalOptions::sequential()`
    /// keeps batches on the calling thread.
    pub fn with_options(backend: NlBackend, options: EvalOptions) -> DispatchSolver {
        DispatchSolver {
            session: CertaintySession::with_options(backend, options),
        }
    }

    /// Classifies the query (exposed for reporting).
    pub fn classify(&self, query: &PathQuery) -> Classification {
        classify(query)
    }

    /// The route (sub-solver) that will handle the query.
    pub fn route(&self, query: &PathQuery) -> Route {
        self.session.route(query)
    }

    /// The dispatcher's certainty session, for batched submission
    /// ([`CertaintySession::certain_batch`]) and cache statistics.
    pub fn session(&self) -> &CertaintySession {
        &self.session
    }

    /// A point-in-time snapshot of the internal session's counters
    /// (plan-cache traffic and decided requests by route) — see
    /// [`CertaintySession::stats`].
    pub fn stats(&self) -> crate::session::SessionStats {
        self.session.stats()
    }

    /// Decides one query against every request of an instance family
    /// (shared prefix + per-request deltas), loading the prefix once —
    /// see [`CertaintySession::certain_batch_family`]. Answers are identical
    /// to dispatching every materialized `prefix ∪ delta` individually.
    pub fn certain_batch_family(
        &self,
        query: &PathQuery,
        family: &cqa_db::family::InstanceFamily,
    ) -> Vec<Result<bool, SolverError>> {
        self.session.certain_batch_family(query, family)
    }
}

impl CertaintySolver for DispatchSolver {
    fn name(&self) -> &'static str {
        "dispatch"
    }

    fn certain(&self, query: &PathQuery, db: &DatabaseInstance) -> Result<bool, SolverError> {
        self.session.certain(query, db)
    }
}

/// Convenience function: classify-and-solve with the default dispatcher.
pub fn solve_certainty(query: &PathQuery, db: &DatabaseInstance) -> Result<bool, SolverError> {
    DispatchSolver::new().certain(query, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveSolver;

    fn random_db(seed: u64, rels: &[&str], domain: u64, facts: u64) -> DatabaseInstance {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut db = DatabaseInstance::new();
        for _ in 0..facts {
            let rel = rels[(next() % rels.len() as u64) as usize];
            let a = next() % domain;
            let b = next() % domain;
            db.insert_parsed(rel, &format!("v{a}"), &format!("v{b}"));
        }
        db
    }

    #[test]
    fn routes_match_the_tetrachotomy() {
        let d = DispatchSolver::new();
        assert_eq!(
            d.route(&PathQuery::parse("RXRX").unwrap()),
            Route::FoRewriting
        );
        assert_eq!(
            d.route(&PathQuery::parse("RXRY").unwrap()),
            Route::Nl(NlBackend::Direct)
        );
        assert_eq!(
            d.route(&PathQuery::parse("RXRYRY").unwrap()),
            Route::PtimeFixpoint
        );
        assert_eq!(
            d.route(&PathQuery::parse("RXRXRYRY").unwrap()),
            Route::ConpSat
        );
        let dl = DispatchSolver::with_datalog_nl();
        assert_eq!(
            dl.route(&PathQuery::parse("RXRY").unwrap()),
            Route::Nl(NlBackend::Datalog)
        );
    }

    #[test]
    fn route_names_are_stable() {
        for (route, name) in [
            (Route::FoRewriting, "fo-rewriting"),
            (Route::Nl(NlBackend::Direct), "nl-direct"),
            (Route::Nl(NlBackend::Datalog), "nl-datalog"),
            (Route::PtimeFixpoint, "ptime-fixpoint"),
            (Route::ConpSat, "conp-sat"),
        ] {
            assert_eq!(route.solver_name(), name);
            assert_eq!(route.to_string(), name);
        }
    }

    #[test]
    fn dispatcher_agrees_with_oracle_across_all_classes() {
        let naive = NaiveSolver::default();
        let dispatch = DispatchSolver::new();
        let dispatch_dl = DispatchSolver::with_datalog_nl();
        let queries = [
            ("RXRX", vec!["R", "X"]),
            ("RR", vec!["R"]),
            ("RXRY", vec!["R", "X", "Y"]),
            ("RRX", vec!["R", "X"]),
            ("RXRYRY", vec!["R", "X", "Y"]),
            ("RSRRR", vec!["R", "S"]),
            ("ARRX", vec!["A", "R", "X"]),
            ("RXRXRYRY", vec!["R", "X", "Y"]),
        ];
        for (word, rels) in queries {
            let q = PathQuery::parse(word).unwrap();
            for seed in 1..=25u64 {
                let db = random_db(
                    seed.wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add(word.len() as u64),
                    &rels,
                    5,
                    4 + seed % 9,
                );
                if db.repair_count() > 1 << 12 {
                    continue;
                }
                let expected = naive.certain(&q, &db).unwrap();
                assert_eq!(
                    dispatch.certain(&q, &db).unwrap(),
                    expected,
                    "dispatch disagreement on {word}, seed {seed}: {db:?}"
                );
                assert_eq!(
                    dispatch_dl.certain(&q, &db).unwrap(),
                    expected,
                    "datalog dispatch disagreement on {word}, seed {seed}"
                );
            }
        }
        // The dispatchers' sessions were warm after the first instance of
        // each query, and every class shows up in the route counts.
        let stats = dispatch.stats();
        assert_eq!(stats.queries_prepared, 8);
        assert!(stats.cache_hits > 0);
        assert!(stats.routes.fo_rewriting > 0);
        assert!(stats.routes.nl_direct > 0);
        assert!(stats.routes.ptime_fixpoint > 0);
        assert!(stats.routes.conp_sat > 0);
        assert!(dispatch_dl.stats().routes.nl_datalog > 0);
    }

    #[test]
    fn convenience_function_works() {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "0", "1");
        db.insert_parsed("R", "1", "0");
        assert!(solve_certainty(&PathQuery::parse("RR").unwrap(), &db).unwrap());
        assert!(!solve_certainty(&PathQuery::parse("RX").unwrap(), &db).unwrap());
    }
}
