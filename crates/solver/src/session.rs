//! Batched certain-answer sessions.
//!
//! Real certain-answer workloads ask the *same* query against many
//! instances: the classification of `q` (Theorem 2), its strict B2b
//! decomposition, the generated linear Datalog program of Lemma 14 (plus its
//! compiled join plans) and the `S-NFA` family of Figure 5 all depend only on
//! the query, yet a naive per-call dispatcher rebuilds them for every
//! `(query, instance)` pair. A [`CertaintySession`] amortizes that setup: it
//! classifies each query once, prepares the route-specific artifacts once,
//! caches them per query word, and exposes both a per-call
//! [`CertaintySession::certain`] and a batched
//! [`CertaintySession::certain_batch`] that groups requests by query before
//! solving.
//!
//! [`crate::dispatch::DispatchSolver`] routes through a private session, so
//! every dispatcher instance is warm after its first call per query; create
//! a session directly when you want to inspect routes and cache statistics
//! or to submit whole batches.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cqa_automata::query_nfa::QueryNfa;
use cqa_core::classify::{classify, Classification, ComplexityClass};
use cqa_core::query::PathQuery;
use cqa_core::word::Word;
use cqa_datalog::parallel::EvalOptions;
use cqa_datalog::store::{edb_base_from_instance, BaseStore};
use cqa_db::family::InstanceFamily;
use cqa_db::instance::DatabaseInstance;

use crate::conp::SatCertaintySolver;
use crate::dispatch::Route;
use crate::error::SolverError;
use crate::fixpoint::compute_fixpoint_with_nfa;
use crate::fo_solver::FoSolver;
use crate::nl_solver::{DemandCounts, NlBackend, NlPlan, NlSolver};
use crate::traits::CertaintySolver;

/// A query's cached routing decision plus the per-query artifacts its route
/// shares across instances.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query: PathQuery,
    classification: Classification,
    route: Route,
    /// Prepared NL artifacts (decomposition / compiled program / fallback
    /// automaton) for NL-routed queries.
    nl: Option<NlPlan>,
    /// The shared automaton for fixpoint-routed queries.
    nfa: Option<Arc<QueryNfa>>,
}

impl QueryPlan {
    /// The query this plan was prepared for.
    pub fn query(&self) -> &PathQuery {
        &self.query
    }

    /// The query's classification (computed once per session and query).
    pub fn classification(&self) -> Classification {
        self.classification
    }

    /// The back-end the session routes this query to.
    pub fn route(&self) -> Route {
        self.route
    }
}

/// Per-route counts of decided requests — which back-ends a session's
/// traffic actually exercised. Part of [`SessionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Requests decided by first-order rewriting.
    pub fo_rewriting: u64,
    /// Requests decided by the direct NL back-end.
    pub nl_direct: u64,
    /// Requests decided by the Datalog NL back-end.
    pub nl_datalog: u64,
    /// Requests decided by the PTIME fixpoint algorithm.
    pub ptime_fixpoint: u64,
    /// Requests decided by SAT counterexample search.
    pub conp_sat: u64,
}

impl RouteCounts {
    /// The count for one route.
    pub fn of(&self, route: Route) -> u64 {
        match route {
            Route::FoRewriting => self.fo_rewriting,
            Route::Nl(NlBackend::Direct) => self.nl_direct,
            Route::Nl(NlBackend::Datalog) => self.nl_datalog,
            Route::PtimeFixpoint => self.ptime_fixpoint,
            Route::ConpSat => self.conp_sat,
        }
    }

    /// Total requests decided across every route.
    pub fn total(&self) -> u64 {
        self.fo_rewriting + self.nl_direct + self.nl_datalog + self.ptime_fixpoint + self.conp_sat
    }
}

/// A cheap point-in-time snapshot of a session's counters: plan-cache
/// traffic plus the routes its requests took. This is the one surface
/// callers observe a session through — `cqa-server`'s `STATS` command and
/// its eviction policy both render it — instead of a drawer of ad-hoc
/// getters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests that reused a cached query plan.
    pub cache_hits: u64,
    /// Query plans built (cache misses).
    pub cache_misses: u64,
    /// Distinct queries prepared by this session.
    pub queries_prepared: usize,
    /// Requests decided, by route.
    pub routes: RouteCounts,
    /// Cumulative demand-transformation effect over the session's Datalog
    /// engine runs: rules/predicates pruned per request and tuples actually
    /// derived (see [`crate::nl_solver::DemandCounts`]).
    pub demand: DemandCounts,
}

/// Route label values for [`SessionMetrics::route_histograms`], in
/// [`RouteCounts`] field order (the same order as
/// `CertaintySession::route_slot`).
pub const ROUTE_LABELS: [&str; 5] = [
    "fo_rewriting",
    "nl_direct",
    "nl_datalog",
    "ptime_fixpoint",
    "conp_sat",
];

/// Always-on latency instrumentation owned by a session, so its numbers
/// live and die with the session (a server restart genuinely resets them).
/// The handles are `Arc`s on purpose: `cqa-server` registers them into its
/// metrics registry ([`cqa_obs::Registry::register_histogram`]) and renders
/// them through `METRICS` without a second copy.
#[derive(Debug)]
pub struct SessionMetrics {
    /// Service time of each decided request, by route (one record per
    /// request, in [`ROUTE_LABELS`] order).
    route_ns: [Arc<cqa_obs::Histogram>; 5],
    /// Plan build time on a session plan-cache miss (classification plus
    /// route-artifact preparation).
    plan_build_ns: Arc<cqa_obs::Histogram>,
}

impl SessionMetrics {
    fn new() -> SessionMetrics {
        SessionMetrics {
            route_ns: std::array::from_fn(|_| Arc::new(cqa_obs::Histogram::new())),
            plan_build_ns: Arc::new(cqa_obs::Histogram::new()),
        }
    }

    /// The per-route service-time histograms, labelled for exposition.
    pub fn route_histograms(&self) -> [(&'static str, Arc<cqa_obs::Histogram>); 5] {
        std::array::from_fn(|i| (ROUTE_LABELS[i], Arc::clone(&self.route_ns[i])))
    }

    /// The plan-build (classify + prepare) histogram.
    pub fn plan_build_histogram(&self) -> Arc<cqa_obs::Histogram> {
        Arc::clone(&self.plan_build_ns)
    }
}

/// A reusable certain-answer session: classify once per query, share the
/// compiled artifacts, answer many `(query, instance)` requests.
#[derive(Debug)]
pub struct CertaintySession {
    fo: FoSolver,
    nl: NlSolver,
    nl_backend: NlBackend,
    conp: SatCertaintySolver,
    plans: Mutex<HashMap<Word, Arc<QueryPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Decided requests per route, in the order of [`RouteCounts`]'s fields
    /// (see [`CertaintySession::route_slot`]).
    route_counts: [AtomicU64; 5],
    metrics: SessionMetrics,
    options: EvalOptions,
}

impl Default for CertaintySession {
    fn default() -> CertaintySession {
        CertaintySession::new()
    }
}

impl CertaintySession {
    fn with_backend(backend: NlBackend) -> CertaintySession {
        CertaintySession::with_options(backend, EvalOptions::default())
    }

    /// Creates a session with an explicit back-end and evaluation options.
    ///
    /// The `threads` knob is the batch fan-out budget:
    /// [`CertaintySession::certain_batch`] and the family batch entry points
    /// spread whole requests across that many worker threads. Every engine
    /// run is sequential.
    pub fn with_options(backend: NlBackend, options: EvalOptions) -> CertaintySession {
        CertaintySession {
            fo: FoSolver::unchecked(),
            nl: NlSolver::lenient_with_options(backend, options),
            nl_backend: backend,
            conp: SatCertaintySolver::default(),
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            route_counts: Default::default(),
            metrics: SessionMetrics::new(),
            options,
        }
    }

    /// The session's always-on latency histograms (per-route service time,
    /// plan-build time).
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// Creates a session serving the NL class with the direct back-end.
    pub fn new() -> CertaintySession {
        CertaintySession::with_backend(NlBackend::Direct)
    }

    /// Creates a session serving the NL class with the Datalog back-end.
    pub fn with_datalog_nl() -> CertaintySession {
        CertaintySession::with_backend(NlBackend::Datalog)
    }

    /// The evaluation options this session was created with.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// Classifies the query and prepares its route, reusing the cached plan
    /// when this session has seen the query before.
    pub fn prepare(&self, query: &PathQuery) -> Arc<QueryPlan> {
        if let Some(plan) = self.plans.lock().expect("session lock").get(query.word()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(plan);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let timer = cqa_obs::Stopwatch::start();
        let classification = classify(query);
        let (route, nl, nfa) = match classification.class {
            ComplexityClass::FO => (Route::FoRewriting, None, None),
            ComplexityClass::NlComplete => (
                Route::Nl(self.nl_backend),
                Some(self.nl.prepare(query)),
                None,
            ),
            ComplexityClass::PtimeComplete => (
                Route::PtimeFixpoint,
                None,
                Some(Arc::new(QueryNfa::new(query))),
            ),
            ComplexityClass::CoNpComplete => (Route::ConpSat, None, None),
        };
        let plan = Arc::new(QueryPlan {
            query: query.clone(),
            classification,
            route,
            nl,
            nfa,
        });
        let ns = timer.elapsed_ns();
        self.metrics.plan_build_ns.record(ns);
        cqa_obs::record_span(cqa_obs::Span::Classify, ns);
        Arc::clone(
            self.plans
                .lock()
                .expect("session lock")
                .entry(query.word().clone())
                .or_insert(plan),
        )
    }

    /// The route the session would take for a query (preparing and caching
    /// the plan as a side effect).
    pub fn route(&self, query: &PathQuery) -> Route {
        self.prepare(query).route
    }

    /// Decides one `(query, instance)` request through the cached plan.
    pub fn certain(&self, query: &PathQuery, db: &DatabaseInstance) -> Result<bool, SolverError> {
        let plan = self.prepare(query);
        self.certain_planned(&plan, db)
    }

    /// Decides one instance against an already prepared plan.
    pub fn certain_planned(
        &self,
        plan: &QueryPlan,
        db: &DatabaseInstance,
    ) -> Result<bool, SolverError> {
        self.route_slot(plan.route).fetch_add(1, Ordering::Relaxed);
        let timer = cqa_obs::Stopwatch::start();
        let answer = match plan.route {
            Route::FoRewriting => Ok(self.fo.evaluate_rewriting(&plan.query, db)),
            Route::Nl(_) => {
                let nl = plan.nl.as_ref().expect("NL route carries an NL plan");
                self.nl.certain_prepared(nl, db)
            }
            Route::PtimeFixpoint => {
                let nfa = plan.nfa.as_ref().expect("fixpoint route carries an NFA");
                Ok(!compute_fixpoint_with_nfa(nfa, db)
                    .certain_start_vertices()
                    .is_empty())
            }
            Route::ConpSat => self.conp.certain(&plan.query, db),
        };
        self.route_histogram(plan.route).record(timer.elapsed_ns());
        answer
    }

    /// Decides a whole batch of `(query, instance)` requests, grouping by
    /// query so each distinct query is classified and prepared exactly once.
    /// Results are returned in request order.
    ///
    /// With a resolved thread budget above one, the batch is fanned out
    /// across scoped worker threads: plans are prepared once on the
    /// coordinator (every [`crate::dispatch::Route`]'s artifacts are `Sync`,
    /// so workers share them by reference), each worker decides a contiguous
    /// slice of the requests, and results land in preassigned slots —
    /// request order, and therefore the answer bitmap, is identical at every
    /// thread count.
    pub fn certain_batch(
        &self,
        requests: &[(PathQuery, DatabaseInstance)],
    ) -> Vec<Result<bool, SolverError>> {
        let threads = self.options.threads.resolve().min(requests.len());
        if threads > 1 {
            return self.certain_batch_parallel(requests, threads);
        }
        let mut groups: HashMap<&Word, Vec<usize>> = HashMap::new();
        for (i, (query, _)) in requests.iter().enumerate() {
            groups.entry(query.word()).or_default().push(i);
        }
        let mut out: Vec<Option<Result<bool, SolverError>>> = Vec::new();
        out.resize_with(requests.len(), || None);
        for indexes in groups.into_values() {
            let plan = self.prepare(&requests[indexes[0]].0);
            for i in indexes {
                out[i] = Some(self.certain_planned(&plan, &requests[i].1));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request grouped"))
            .collect()
    }

    /// The scoped fan-out behind [`CertaintySession::certain_batch`].
    fn certain_batch_parallel(
        &self,
        requests: &[(PathQuery, DatabaseInstance)],
        threads: usize,
    ) -> Vec<Result<bool, SolverError>> {
        // Classify and prepare on the coordinator: one prepare per distinct
        // query, exactly like the sequential grouping path, so cache
        // statistics do not depend on the thread count.
        let mut by_word: HashMap<&Word, Arc<QueryPlan>> = HashMap::new();
        let plans: Vec<Arc<QueryPlan>> = requests
            .iter()
            .map(|(query, _)| {
                Arc::clone(
                    by_word
                        .entry(query.word())
                        .or_insert_with(|| self.prepare(query)),
                )
            })
            .collect();

        fan_out(requests.len(), threads, |i| {
            self.certain_planned(&plans[i], &requests[i].1)
        })
    }

    /// Decides one query against every request of an [`InstanceFamily`]
    /// (request `i` denotes the full instance `prefix ∪ deltas[i]`),
    /// exploiting the shared prefix. Results are returned in request order
    /// and are **identical to fresh-loading every full instance** through
    /// [`CertaintySession::certain_batch`] — at every thread count.
    ///
    /// For queries the session routes to the Datalog NL back-end, the prefix
    /// is loaded and frozen into an `Arc`-shared copy-on-write base store
    /// *once* (its probe indexes are likewise built once, on the first
    /// request), and each request forks an O(delta) overlay — see
    /// [`cqa_datalog::store`]. Every other route evaluates on plain
    /// [`DatabaseInstance`]s, so those requests materialize `prefix ∪ delta`
    /// per request, exactly like the fresh-load path.
    ///
    /// With a resolved thread budget above one, requests fan out across
    /// scoped worker threads into preassigned result slots, sharing the
    /// frozen base by reference.
    pub fn certain_batch_family(
        &self,
        query: &PathQuery,
        family: &InstanceFamily,
    ) -> Vec<Result<bool, SolverError>> {
        let plan = self.prepare(query);
        if family.deltas().is_empty() {
            return Vec::new();
        }
        // The copy-on-write base is only worth building when the route
        // evaluates on relation stores (the generated Datalog program).
        let base = match &plan.nl {
            Some(NlPlan::Datalog(_)) => Some(edb_base_from_instance(family.prefix())),
            _ => None,
        };
        let requests: Vec<usize> = (0..family.len()).collect();
        self.family_requests(&plan, base.as_ref(), family, &requests, None)
    }

    /// Like [`CertaintySession::certain_batch_family`], but against a
    /// caller-held *resident* base store (frozen from the family's prefix
    /// with [`edb_base_from_instance`] once, kept across calls) and an
    /// explicit subset of request indexes. This is the serving entry point:
    /// `cqa-server` keeps one `Arc<BaseStore>` per resident tenant, so the
    /// prefix's committed probe indexes are built exactly once across *all*
    /// connections and queries, not once per batch.
    ///
    /// Answers are identical to materializing each selected request
    /// (`prefix ∪ deltas[i]`) through [`CertaintySession::certain_batch`] —
    /// the resident base only changes *where* the shared store lives, never
    /// what it contains.
    ///
    /// # Panics
    ///
    /// Panics if a request index is out of range; validate indexes at the
    /// boundary (the server replies with a typed error instead).
    pub fn certain_batch_family_resident(
        &self,
        query: &PathQuery,
        family: &InstanceFamily,
        base: &Arc<BaseStore>,
        requests: &[usize],
    ) -> Vec<Result<bool, SolverError>> {
        self.certain_batch_family_resident_counted(query, family, base, requests)
            .0
    }

    /// Like [`CertaintySession::certain_batch_family_resident`], additionally
    /// returning the number of tuples the Datalog engine derived for *this*
    /// batch. The session-wide [`SessionStats::demand`] counters aggregate
    /// across all tenants and queries; this per-batch figure is what lets
    /// `cqa-server` attribute derivation work to individual tenants. Routes
    /// that never run the Datalog engine (FO, direct NL, fixpoint, SAT)
    /// derive nothing and report zero.
    pub fn certain_batch_family_resident_counted(
        &self,
        query: &PathQuery,
        family: &InstanceFamily,
        base: &Arc<BaseStore>,
        requests: &[usize],
    ) -> (Vec<Result<bool, SolverError>>, u64) {
        let plan = self.prepare(query);
        // Only the Datalog NL route evaluates on relation stores; every
        // other route materializes, exactly like `certain_batch_family`.
        let base = match &plan.nl {
            Some(NlPlan::Datalog(_)) => Some(base),
            _ => None,
        };
        let derived = AtomicU64::new(0);
        let answers = self.family_requests(&plan, base, family, requests, Some(&derived));
        (answers, derived.into_inner())
    }

    /// Decides the selected family requests with an optional shared base,
    /// fanning out across the session's thread budget. Common driver of
    /// [`CertaintySession::certain_batch_family`] and
    /// [`CertaintySession::certain_batch_family_resident`].
    fn family_requests(
        &self,
        plan: &QueryPlan,
        base: Option<&Arc<BaseStore>>,
        family: &InstanceFamily,
        requests: &[usize],
        derived: Option<&AtomicU64>,
    ) -> Vec<Result<bool, SolverError>> {
        let deltas = family.deltas();
        let threads = self.options.threads.resolve().min(requests.len());
        if threads <= 1 {
            return requests
                .iter()
                .map(|&i| self.certain_family_request(plan, base, family, &deltas[i], i, derived))
                .collect();
        }
        // Scoped fan-out with preassigned slots, exactly like
        // `certain_batch_parallel`.
        fan_out(requests.len(), threads, |slot| {
            self.certain_family_request(
                plan,
                base,
                family,
                &deltas[requests[slot]],
                requests[slot],
                derived,
            )
        })
    }

    /// Decides one family request: the overlay fast path when a shared base
    /// exists for the plan, the materialized full instance otherwise. When a
    /// `derived` accumulator is supplied, the overlay arm adds the engine
    /// run's derived-tuple count to it (the only arm that runs the Datalog
    /// engine on this path — non-Datalog routes don't take the overlay arm
    /// and derive nothing). `slot` is the request's stable index within the
    /// family (its delta position), which keys the base's differentially
    /// maintained materialized IDB when the maintenance knob is on.
    fn certain_family_request(
        &self,
        plan: &QueryPlan,
        base: Option<&Arc<BaseStore>>,
        family: &InstanceFamily,
        delta: &DatabaseInstance,
        slot: usize,
        derived: Option<&AtomicU64>,
    ) -> Result<bool, SolverError> {
        match (base, &plan.nl) {
            (Some(base), Some(NlPlan::Datalog(cqa))) => {
                self.route_slot(plan.route).fetch_add(1, Ordering::Relaxed);
                let timer = cqa_obs::Stopwatch::start();
                let (answer, stats) = self.nl.certain_overlay_maintained(
                    cqa,
                    base,
                    family.prefix(),
                    delta,
                    slot,
                    &self.options,
                )?;
                if let Some(counter) = derived {
                    counter.fetch_add(stats.tuples_derived, Ordering::Relaxed);
                }
                self.route_histogram(plan.route).record(timer.elapsed_ns());
                Ok(answer)
            }
            _ => {
                let full = family.prefix().union(delta);
                self.certain_planned(plan, &full)
            }
        }
    }

    /// The counter slot for a route, in [`RouteCounts`] field order.
    fn route_slot(&self, route: Route) -> &AtomicU64 {
        let i = match route {
            Route::FoRewriting => 0,
            Route::Nl(NlBackend::Direct) => 1,
            Route::Nl(NlBackend::Datalog) => 2,
            Route::PtimeFixpoint => 3,
            Route::ConpSat => 4,
        };
        &self.route_counts[i]
    }

    /// The service-time histogram for a route, in the same slot order as
    /// [`CertaintySession::route_slot`].
    fn route_histogram(&self, route: Route) -> &cqa_obs::Histogram {
        let i = match route {
            Route::FoRewriting => 0,
            Route::Nl(NlBackend::Direct) => 1,
            Route::Nl(NlBackend::Datalog) => 2,
            Route::PtimeFixpoint => 3,
            Route::ConpSat => 4,
        };
        &self.metrics.route_ns[i]
    }

    /// A point-in-time snapshot of the session's counters: plan-cache
    /// hits/misses, distinct queries prepared, and decided requests by
    /// route. Cheap — five relaxed atomic loads and one map-size read.
    pub fn stats(&self) -> SessionStats {
        let load = |i: usize| self.route_counts[i].load(Ordering::Relaxed);
        SessionStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            queries_prepared: self.plans.lock().expect("session lock").len(),
            routes: RouteCounts {
                fo_rewriting: load(0),
                nl_direct: load(1),
                nl_datalog: load(2),
                ptime_fixpoint: load(3),
                conp_sat: load(4),
            },
            demand: self.nl.demand_counts(),
        }
    }
}

/// Decides requests `0..n` across `threads` scoped workers in contiguous
/// chunks, writing into preassigned slots — request order (and therefore the
/// answer bitmap) is independent of scheduling and thread count. Shared by
/// the request-batch and family-batch fan-outs so the two paths cannot
/// drift apart.
fn fan_out(
    n: usize,
    threads: usize,
    decide: impl Fn(usize) -> Result<bool, SolverError> + Sync,
) -> Vec<Result<bool, SolverError>> {
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<Result<bool, SolverError>>> = Vec::new();
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (chunk_index, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let decide = &decide;
            scope.spawn(move || {
                for (offset, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = Some(decide(chunk_index * chunk + offset));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every request chunked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveSolver;
    use cqa_workloads::random::LayeredConfig;

    fn layered(word: &str, width: usize, seed: u64) -> DatabaseInstance {
        let q = PathQuery::parse(word).unwrap();
        LayeredConfig::for_word(q.word(), width, seed).generate()
    }

    #[test]
    fn session_routes_match_the_tetrachotomy() {
        let session = CertaintySession::new();
        assert_eq!(
            session.route(&PathQuery::parse("RXRX").unwrap()),
            Route::FoRewriting
        );
        assert_eq!(
            session.route(&PathQuery::parse("RXRY").unwrap()),
            Route::Nl(NlBackend::Direct)
        );
        assert_eq!(
            session.route(&PathQuery::parse("RXRYRY").unwrap()),
            Route::PtimeFixpoint
        );
        assert_eq!(
            session.route(&PathQuery::parse("RXRXRYRY").unwrap()),
            Route::ConpSat
        );
        let datalog = CertaintySession::with_datalog_nl();
        assert_eq!(
            datalog.route(&PathQuery::parse("RXRY").unwrap()),
            Route::Nl(NlBackend::Datalog)
        );
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let session = CertaintySession::with_datalog_nl();
        let q = PathQuery::parse("RXRY").unwrap();
        for seed in 0..5u64 {
            let db = layered("RXRY", 4, seed);
            session.certain(&q, &db).unwrap();
        }
        let stats = session.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.queries_prepared, 1);
        // All five requests were decided on the Datalog NL route.
        assert_eq!(stats.routes.nl_datalog, 5);
        assert_eq!(stats.routes.total(), 5);
        assert_eq!(stats.routes.of(Route::Nl(NlBackend::Datalog)), 5);
    }

    #[test]
    fn batch_results_agree_with_per_call_dispatch_and_keep_order() {
        let words = ["RXRX", "RXRY", "RRX", "RXRYRY"];
        let mut requests: Vec<(PathQuery, DatabaseInstance)> = Vec::new();
        for (i, word) in words.iter().cycle().take(20).enumerate() {
            let q = PathQuery::parse(word).unwrap();
            requests.push((q, layered(word, 3, 0xBA7C + i as u64)));
        }
        let session = CertaintySession::with_datalog_nl();
        let batch = session.certain_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        // Each distinct query is prepared exactly once, and every request
        // shows up in the route counts.
        assert_eq!(session.stats().queries_prepared, words.len());
        assert_eq!(session.stats().routes.total(), requests.len() as u64);
        let naive = NaiveSolver::with_limit(1 << 16);
        for (i, (q, db)) in requests.iter().enumerate() {
            let got = batch[i].as_ref().unwrap();
            let fresh = CertaintySession::new().certain(q, db).unwrap();
            assert_eq!(*got, fresh, "batch/per-call mismatch at {i} ({q})");
            if db.repair_count() <= 1 << 16 {
                assert_eq!(
                    *got,
                    naive.certain(q, db).unwrap(),
                    "oracle mismatch at {i} ({q})"
                );
            }
        }
    }

    #[test]
    fn family_batches_match_materialized_batches_on_every_route() {
        // One family, four queries spanning FO / NL-datalog / PTIME routes:
        // the shared-prefix path must produce exactly the answers of the
        // materialized fresh-load path, for both the COW-backed Datalog
        // route and the materializing fallback.
        use cqa_db::family::InstanceFamily;
        let prefix = layered("RXRY", 4, 0xFA81);
        let deltas: Vec<DatabaseInstance> =
            (0..6u64).map(|i| layered("RXRY", 2, 0xDE17A + i)).collect();
        let family = InstanceFamily::with_deltas(prefix, deltas);
        for word in ["RXRX", "RRX", "RXRY", "RXRYRY"] {
            let q = PathQuery::parse(word).unwrap();
            let session = CertaintySession::with_datalog_nl();
            let shared = session.certain_batch_family(&q, &family);
            let requests: Vec<(PathQuery, DatabaseInstance)> = (0..family.len())
                .map(|i| (q.clone(), family.materialize(i)))
                .collect();
            let materialized = session.certain_batch(&requests);
            assert_eq!(shared.len(), materialized.len());
            for (i, (s, m)) in shared.iter().zip(&materialized).enumerate() {
                assert_eq!(
                    s.as_ref().unwrap(),
                    m.as_ref().unwrap(),
                    "family/materialized mismatch for {word} at request {i}"
                );
            }
            // The resident-base entry point answers identically, both for
            // the full request set and for an arbitrary subset, and reuses
            // the caller's base across calls (builds don't grow on repeats).
            let base = edb_base_from_instance(family.prefix());
            let all: Vec<usize> = (0..family.len()).collect();
            let resident = session.certain_batch_family_resident(&q, &family, &base, &all);
            for (i, (s, r)) in shared.iter().zip(&resident).enumerate() {
                assert_eq!(
                    s.as_ref().unwrap(),
                    r.as_ref().unwrap(),
                    "family/resident mismatch for {word} at request {i}"
                );
            }
            let subset = [4usize, 1, 1, 5];
            let picked = session.certain_batch_family_resident(&q, &family, &base, &subset);
            for (slot, &i) in subset.iter().enumerate() {
                assert_eq!(
                    picked[slot].as_ref().unwrap(),
                    shared[i].as_ref().unwrap(),
                    "subset/resident mismatch for {word} at request {i}"
                );
            }
            let builds = base.index_builds();
            session.certain_batch_family_resident(&q, &family, &base, &all);
            assert_eq!(base.index_builds(), builds, "resident base was rebuilt");
        }
    }

    #[test]
    fn empty_families_yield_empty_batches() {
        use cqa_db::family::InstanceFamily;
        let session = CertaintySession::with_datalog_nl();
        let family = InstanceFamily::new(layered("RRX", 3, 1));
        assert!(session
            .certain_batch_family(&PathQuery::parse("RRX").unwrap(), &family)
            .is_empty());
    }

    #[test]
    fn sessions_share_nl_artifacts_across_backends() {
        // Both backends agree on an NL query through the session path.
        let q = PathQuery::parse("RRX").unwrap();
        let direct = CertaintySession::new();
        let datalog = CertaintySession::with_datalog_nl();
        for seed in 0..6u64 {
            let db = layered("RRX", 4, 0x5E55 + seed);
            assert_eq!(
                direct.certain(&q, &db).unwrap(),
                datalog.certain(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }
}
