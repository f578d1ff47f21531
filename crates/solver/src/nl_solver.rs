//! The NL solver (Lemma 14): for path queries satisfying C2, `CERTAINTY(q)`
//! is decided through the predicates `P` and `O` over the strict B2b
//! decomposition `q = s (uv)^(k-1) w v`.
//!
//! Two interchangeable back-ends are provided:
//!
//! * a **direct** implementation that computes the terminal sets with the
//!   first-order rewriting tables and the predicate `P` with plain graph
//!   reachability (this mirrors how an NL machine would evaluate the linear
//!   Datalog program); and
//! * a **Datalog** back-end that generates the linear program of
//!   [`cqa_datalog::cqa_program`] and runs it on the semi-naive engine.
//!
//! Queries whose strict decomposition cannot be found (or is degenerate) are
//! transparently delegated to the PTIME fixpoint algorithm, which is correct
//! for every C2 query because C2 ⊆ C3; the fallback is recorded in the
//! solver's name-independent `FallbackStats`.
//!
//! Every per-query artifact — the strict decomposition, the generated (and
//! compiled) linear Datalog program, or the fallback `S-NFA` family — is
//! captured in an [`NlPlan`] that the solver caches per query word, so
//! deciding many instances of the same query pays the preparation cost once
//! (see also [`crate::session::CertaintySession`], which batches on top of
//! this).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cqa_automata::query_nfa::QueryNfa;
use cqa_core::classify::{classify, ComplexityClass};
use cqa_core::query::PathQuery;
use cqa_core::regex_forms::{b2b_strict_decomposition, B2bDecomposition};
use cqa_core::word::Word;
use cqa_datalog::cqa_program::{generate_program_with_options, CqaProgram};
use cqa_datalog::maintain::MaintainVerdict;
use cqa_datalog::parallel::{EvalOptions, EvalStats};
use cqa_datalog::plan_cache::PlanCache;
use cqa_datalog::store::{edb_from_instance, edb_overlay_on, BaseStore};
use cqa_db::fact::Constant;
use cqa_db::instance::DatabaseInstance;
use cqa_db::path::{consistent_path_endpoints, reachable_by_trace};
use cqa_fo::rewriting::{CertainRootedTable, EndCap};

use crate::error::SolverError;
use crate::fixpoint::compute_fixpoint_with_nfa;
use crate::traits::CertaintySolver;

/// Which back-end evaluates the `O` predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NlBackend {
    /// Direct graph-reachability evaluation.
    Direct,
    /// Generate and run the linear Datalog program.
    Datalog,
}

/// Counters describing how often the solver had to fall back to the fixpoint
/// algorithm.
#[derive(Debug, Default)]
pub struct FallbackStats {
    fixpoint_fallbacks: AtomicU64,
    decompositions_used: AtomicU64,
}

impl FallbackStats {
    /// Number of queries delegated to the PTIME fixpoint algorithm.
    pub fn fixpoint_fallbacks(&self) -> u64 {
        self.fixpoint_fallbacks.load(Ordering::Relaxed)
    }

    /// Number of queries solved through a strict B2b decomposition.
    pub fn decompositions_used(&self) -> u64 {
        self.decompositions_used.load(Ordering::Relaxed)
    }
}

/// Cumulative demand/derivation counters over every Datalog-engine run a
/// solver performed (the direct and fixpoint routes never touch the engine,
/// so they contribute nothing). `rules_pruned`/`predicates_pruned` sum the
/// per-request [`cqa_datalog::demand::DemandReport`] of the plan that served
/// each request — a rate, not a program property — so "work avoided" stays
/// proportional to traffic, like every other counter in the stats surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DemandCounts {
    /// Rules the demand transformation had removed from served plans.
    pub rules_pruned: u64,
    /// IDB predicates eliminated from served plans.
    pub predicates_pruned: u64,
    /// Tuples the engine actually derived (semi-naive inserts, EDB loads
    /// excluded).
    pub tuples_derived: u64,
    /// Rules served through a shape-specialized kernel, summed per run.
    pub kernel_rules: u64,
    /// Rules served through the generic hash-join plan, summed per run.
    pub generic_rules: u64,
    /// Individual kernel executions (per rule, per semi-naive round).
    pub kernel_invocations: u64,
    /// Strata resumed from a checkpointed base instead of re-derived from
    /// scratch, summed per run (see
    /// [`cqa_datalog::parallel::EvalStats::checkpoint_hits`]).
    pub checkpoint_hits: u64,
    /// Requests answered from a differentially maintained materialized IDB
    /// (pure hits and O(change) maintenance passes; see
    /// [`cqa_datalog::parallel::EvalStats::maintained_hits`]).
    pub maintained_hits: u64,
    /// Tuples maintenance passes physically removed (DRed overdeletion +
    /// counting-stratum count-to-zero deletions).
    pub tuples_overdeleted: u64,
    /// Tuples the DRed rederivation phase restored after overdeletion.
    pub tuples_rederived: u64,
}

/// Interior-mutable accumulator behind [`DemandCounts`].
#[derive(Debug, Default)]
struct DemandCounters {
    rules_pruned: AtomicU64,
    predicates_pruned: AtomicU64,
    tuples_derived: AtomicU64,
    kernel_rules: AtomicU64,
    generic_rules: AtomicU64,
    kernel_invocations: AtomicU64,
    checkpoint_hits: AtomicU64,
    maintained_hits: AtomicU64,
    tuples_overdeleted: AtomicU64,
    tuples_rederived: AtomicU64,
}

/// A query's prepared NL evaluation artifacts, shareable across instances
/// (and across threads: every payload is behind an `Arc`).
#[derive(Debug, Clone)]
pub enum NlPlan {
    /// Evaluate `P`/`O` by direct graph reachability over the decomposition.
    Direct(Arc<B2bDecomposition>),
    /// Run the generated linear Datalog program (compiled once, shared
    /// through the engine's plan cache).
    Datalog(Arc<CqaProgram>),
    /// No usable strict decomposition: fixpoint fallback over a shared
    /// automaton.
    Fixpoint(Arc<QueryNfa>),
}

/// The NL solver.
#[derive(Debug)]
pub struct NlSolver {
    backend: NlBackend,
    strict: bool,
    stats: FallbackStats,
    demand: DemandCounters,
    plans: Mutex<HashMap<Word, NlPlan>>,
    options: EvalOptions,
}

impl Default for NlSolver {
    fn default() -> NlSolver {
        NlSolver::direct()
    }
}

impl NlSolver {
    fn with_mode(backend: NlBackend, strict: bool) -> NlSolver {
        NlSolver {
            backend,
            strict,
            stats: FallbackStats::default(),
            demand: DemandCounters::default(),
            plans: Mutex::new(HashMap::new()),
            options: EvalOptions::default(),
        }
    }

    /// Creates the solver with the direct (graph-reachability) back-end.
    pub fn direct() -> NlSolver {
        NlSolver::with_mode(NlBackend::Direct, true)
    }

    /// Creates the solver with the Datalog back-end.
    pub fn datalog() -> NlSolver {
        NlSolver::with_mode(NlBackend::Datalog, true)
    }

    /// Creates a non-strict solver that accepts any C3 query (falling back to
    /// the fixpoint algorithm when no decomposition applies).
    pub fn lenient(backend: NlBackend) -> NlSolver {
        NlSolver::with_mode(backend, false)
    }

    /// Creates a non-strict solver with explicit engine evaluation options
    /// (demand, kernel, checkpoint and maintenance knobs).
    pub fn lenient_with_options(backend: NlBackend, options: EvalOptions) -> NlSolver {
        NlSolver {
            options,
            ..NlSolver::with_mode(backend, false)
        }
    }

    /// Fallback statistics.
    pub fn stats(&self) -> &FallbackStats {
        &self.stats
    }

    /// A snapshot of the cumulative demand/derivation counters.
    pub fn demand_counts(&self) -> DemandCounts {
        DemandCounts {
            rules_pruned: self.demand.rules_pruned.load(Ordering::Relaxed),
            predicates_pruned: self.demand.predicates_pruned.load(Ordering::Relaxed),
            tuples_derived: self.demand.tuples_derived.load(Ordering::Relaxed),
            kernel_rules: self.demand.kernel_rules.load(Ordering::Relaxed),
            generic_rules: self.demand.generic_rules.load(Ordering::Relaxed),
            kernel_invocations: self.demand.kernel_invocations.load(Ordering::Relaxed),
            checkpoint_hits: self.demand.checkpoint_hits.load(Ordering::Relaxed),
            maintained_hits: self.demand.maintained_hits.load(Ordering::Relaxed),
            tuples_overdeleted: self.demand.tuples_overdeleted.load(Ordering::Relaxed),
            tuples_rederived: self.demand.tuples_rederived.load(Ordering::Relaxed),
        }
    }

    /// Folds one engine run into the cumulative counters.
    fn record_engine(&self, cqa: &CqaProgram, stats: &EvalStats) {
        self.demand
            .rules_pruned
            .fetch_add(cqa.demand.rules_pruned, Ordering::Relaxed);
        self.demand
            .predicates_pruned
            .fetch_add(cqa.demand.predicates_pruned, Ordering::Relaxed);
        self.demand
            .tuples_derived
            .fetch_add(stats.tuples_derived, Ordering::Relaxed);
        self.demand
            .kernel_rules
            .fetch_add(stats.kernel_rules, Ordering::Relaxed);
        self.demand
            .generic_rules
            .fetch_add(stats.generic_rules, Ordering::Relaxed);
        self.demand
            .kernel_invocations
            .fetch_add(stats.kernel_invocations, Ordering::Relaxed);
        self.demand
            .checkpoint_hits
            .fetch_add(stats.checkpoint_hits, Ordering::Relaxed);
        self.demand
            .maintained_hits
            .fetch_add(stats.maintained_hits, Ordering::Relaxed);
        self.demand
            .tuples_overdeleted
            .fetch_add(stats.tuples_overdeleted, Ordering::Relaxed);
        self.demand
            .tuples_rederived
            .fetch_add(stats.tuples_rederived, Ordering::Relaxed);
    }

    /// Prepares (or fetches the cached) per-query plan: the strict B2b
    /// decomposition and, depending on the back-end, the generated + compiled
    /// Datalog program, or the fallback automaton. Class checks are *not*
    /// performed here; [`NlSolver::certain`] applies them first.
    pub fn prepare(&self, query: &PathQuery) -> NlPlan {
        if let Some(plan) = self.plans.lock().expect("plan lock").get(query.word()) {
            return plan.clone();
        }
        let plan = match b2b_strict_decomposition(query.word()) {
            Some(dec) if !dec.uv().is_empty() => match self.backend {
                NlBackend::Direct => NlPlan::Direct(Arc::new(dec)),
                NlBackend::Datalog => match generate_program_with_options(
                    &dec,
                    query.word(),
                    PlanCache::global(),
                    self.options.demand,
                ) {
                    Some(cqa) => NlPlan::Datalog(Arc::new(cqa)),
                    None => NlPlan::Fixpoint(Arc::new(QueryNfa::new(query))),
                },
            },
            _ => NlPlan::Fixpoint(Arc::new(QueryNfa::new(query))),
        };
        self.plans
            .lock()
            .expect("plan lock")
            .entry(query.word().clone())
            .or_insert(plan)
            .clone()
    }

    /// Decides one instance with a prepared plan, updating the fallback
    /// statistics.
    pub fn certain_prepared(
        &self,
        plan: &NlPlan,
        db: &DatabaseInstance,
    ) -> Result<bool, SolverError> {
        match plan {
            NlPlan::Direct(dec) => {
                self.stats
                    .decompositions_used
                    .fetch_add(1, Ordering::Relaxed);
                Ok(certain_direct(dec, db))
            }
            NlPlan::Datalog(cqa) => {
                self.stats
                    .decompositions_used
                    .fetch_add(1, Ordering::Relaxed);
                let (answer, stats) = certain_datalog(cqa, db, &self.options)?;
                self.record_engine(cqa, &stats);
                Ok(answer)
            }
            NlPlan::Fixpoint(nfa) => {
                self.stats
                    .fixpoint_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
                Ok(!compute_fixpoint_with_nfa(nfa, db)
                    .certain_start_vertices()
                    .is_empty())
            }
        }
    }

    /// Decides one shared-prefix family request with a prepared Datalog plan
    /// through the copy-on-write store path (base forked, only the delta
    /// loaded), updating the fallback statistics exactly like the fresh-load
    /// path. The family batch driver
    /// (`cqa_solver::session::CertaintySession::certain_batch_family`) calls
    /// this for Datalog-backed NL plans and materializes full instances for
    /// every other route.
    pub fn certain_overlay_with(
        &self,
        cqa: &CqaProgram,
        base: &Arc<BaseStore>,
        prefix: &DatabaseInstance,
        delta: &DatabaseInstance,
        options: &EvalOptions,
    ) -> Result<bool, SolverError> {
        self.certain_overlay_counted(cqa, base, prefix, delta, options)
            .map(|(answer, _)| answer)
    }

    /// Like [`NlSolver::certain_overlay_with`], additionally handing back the
    /// engine run's [`EvalStats`] so callers (the session's counted family
    /// batches, and through them the server's per-tenant `STATS`) can
    /// attribute derived-tuple counts without racing on the solver-wide
    /// cumulative counters.
    pub fn certain_overlay_counted(
        &self,
        cqa: &CqaProgram,
        base: &Arc<BaseStore>,
        prefix: &DatabaseInstance,
        delta: &DatabaseInstance,
        options: &EvalOptions,
    ) -> Result<(bool, EvalStats), SolverError> {
        self.stats
            .decompositions_used
            .fetch_add(1, Ordering::Relaxed);
        let (answer, stats) = certain_datalog_overlay(cqa, base, prefix, delta, options)?;
        self.record_engine(cqa, &stats);
        Ok((answer, stats))
    }

    /// Like [`NlSolver::certain_overlay_counted`], with a stable per-request
    /// `slot` identifying this request's position within its family, so the
    /// answer can come from a differentially maintained materialized IDB
    /// resident on `base` (see [`cqa_datalog::maintain`]).
    ///
    /// When the maintenance knob resolves off, this is exactly the counted
    /// overlay path. Otherwise the `(compiled plan, slot)` maintained store
    /// on the base is updated in O(change) via counting/DRed passes and the
    /// certainty answer is read straight from it; the first visit (and any
    /// mutation whose change ratio makes maintenance unprofitable, unless
    /// the knob forces it) derives from scratch through the checkpoint-aware
    /// path and installs the fixpoint as the slot's new maintained state.
    pub fn certain_overlay_maintained(
        &self,
        cqa: &CqaProgram,
        base: &Arc<BaseStore>,
        prefix: &DatabaseInstance,
        delta: &DatabaseInstance,
        slot: usize,
        options: &EvalOptions,
    ) -> Result<(bool, EvalStats), SolverError> {
        if !options.maintain.resolve() {
            return self.certain_overlay_counted(cqa, base, prefix, delta, options);
        }
        self.stats
            .decompositions_used
            .fetch_add(1, Ordering::Relaxed);
        let key = Arc::as_ptr(&cqa.compiled) as usize;
        let entry = base.maintained_slot((key, slot));
        let mut guard = entry.state.lock().expect("maintained slot lock");
        let force = !options.maintain.fallback_allowed();
        if let Some(state) = guard.as_mut() {
            let mut stats = EvalStats::default();
            match cqa_datalog::maintain::maintain(
                &cqa.compiled,
                state,
                prefix,
                delta,
                force,
                &mut stats,
            ) {
                MaintainVerdict::PureHit | MaintainVerdict::Maintained => {
                    entry
                        .tuples
                        .store(state.total_tuples() as u64, Ordering::Relaxed);
                    let adom = prefix.adom().iter().chain(delta.adom().iter()).copied();
                    let answer = o_fails_somewhere(cqa, state.store(), adom)?;
                    self.record_engine(cqa, &stats);
                    return Ok((answer, stats));
                }
                MaintainVerdict::Unprofitable => {}
            }
        }
        // First visit, or unprofitable change ratio: derive from scratch
        // (checkpoint-aware) and install the fixpoint as the slot's state.
        let (store, stats) = overlay_fixpoint(cqa, base, delta, options);
        let adom = prefix.adom().iter().chain(delta.adom().iter()).copied();
        let answer = o_fails_somewhere(cqa, &store, adom)?;
        let state = cqa_datalog::maintain::bootstrap(&cqa.compiled, &store, delta);
        entry
            .tuples
            .store(state.total_tuples() as u64, Ordering::Relaxed);
        *guard = Some(state);
        self.record_engine(cqa, &stats);
        Ok((answer, stats))
    }
}

/// Evaluates the predicate `O` directly and applies Claim 4:
/// the instance is certain iff `O(c)` fails for some constant.
pub(crate) fn certain_direct(dec: &B2bDecomposition, db: &DatabaseInstance) -> bool {
    let uv = dec.uv();
    let wv = dec.wv();
    let spine = dec.spine();

    // Terminal sets via the rooted-rewriting tables (Lemma 17).
    let uv_table = CertainRootedTable::compute(db, &uv, EndCap::Open);
    let wv_table = CertainRootedTable::compute(db, &wv, EndCap::Open);
    let spine_table = CertainRootedTable::compute(db, &spine, EndCap::Open);
    let uv_terminal: BTreeSet<Constant> = db
        .adom()
        .iter()
        .copied()
        .filter(|&c| !uv_table.certain_from(c))
        .collect();
    let wv_terminal: BTreeSet<Constant> = db
        .adom()
        .iter()
        .copied()
        .filter(|&c| !wv_table.certain_from(c))
        .collect();
    let spine_terminal: BTreeSet<Constant> = db
        .adom()
        .iter()
        .copied()
        .filter(|&c| !spine_table.certain_from(c))
        .collect();

    // The uv-step graph restricted to wv-terminal vertices.
    let mut edges: BTreeMap<Constant, BTreeSet<Constant>> = BTreeMap::new();
    for &d in &wv_terminal {
        let successors: BTreeSet<Constant> = reachable_by_trace(db, d, &uv)
            .into_iter()
            .filter(|t| wv_terminal.contains(t))
            .collect();
        if !successors.is_empty() {
            edges.insert(d, successors);
        }
    }

    // Vertices lying on a cycle of the uv-step graph.
    let on_cycle: BTreeSet<Constant> = wv_terminal
        .iter()
        .copied()
        .filter(|&v| {
            // v lies on a cycle iff v is reachable from one of its
            // successors.
            edges
                .get(&v)
                .is_some_and(|succs| succs.iter().any(|&s| reaches(&edges, s, v)))
        })
        .collect();

    // P(d): d is wv-terminal and reaches (reflexively) a vertex that is
    // uv-terminal, or reaches a vertex on a cycle.
    let targets: BTreeSet<Constant> = wv_terminal
        .iter()
        .copied()
        .filter(|c| uv_terminal.contains(c) || on_cycle.contains(c))
        .collect();
    let p_set: BTreeSet<Constant> = wv_terminal
        .iter()
        .copied()
        .filter(|&d| targets.contains(&d) || targets.iter().any(|&t| reaches(&edges, d, t)))
        .collect();

    // O(c): spine-terminal, or a consistent spine path reaches P.
    let o = |c: Constant| -> bool {
        if spine_terminal.contains(&c) {
            return true;
        }
        consistent_path_endpoints(db, c, &spine)
            .into_iter()
            .any(|d| p_set.contains(&d))
    };

    // Claim 4: "no"-instance iff O(c) holds for every c.
    db.adom().iter().any(|&c| !o(c))
}

/// Evaluates the generated (pre-compiled) Datalog program and applies
/// Claim 4, reporting the engine run's statistics alongside the answer.
pub(crate) fn certain_datalog(
    cqa: &CqaProgram,
    db: &DatabaseInstance,
    options: &EvalOptions,
) -> Result<(bool, EvalStats), SolverError> {
    let (store, stats) = cqa
        .compiled
        .run_on_store_with_stats(edb_from_instance(db), options);
    Ok((
        o_fails_somewhere(cqa, &store, db.adom().iter().copied())?,
        stats,
    ))
}

/// Decides one shared-prefix family request through the copy-on-write store
/// path: fork an overlay of the frozen base EDB (the prefix, loaded and
/// index-committed once per family), insert only the delta instance, and run
/// the pre-compiled program on the layered store. The answer is identical to
/// fresh-loading `prefix ∪ delta`, because the layered EDB holds exactly the
/// union's fact sets and semi-naive evaluation reaches the same unique
/// fixpoint on set-equal EDBs.
pub(crate) fn certain_datalog_overlay(
    cqa: &CqaProgram,
    base: &Arc<BaseStore>,
    prefix: &DatabaseInstance,
    delta: &DatabaseInstance,
    options: &EvalOptions,
) -> Result<(bool, EvalStats), SolverError> {
    let (store, stats) = overlay_fixpoint(cqa, base, delta, options);
    // adom(prefix ∪ delta) = adom(prefix) ∪ adom(delta); the overlap is
    // checked twice, which is harmless for an `any`.
    let adom = prefix.adom().iter().chain(delta.adom().iter()).copied();
    Ok((o_fails_somewhere(cqa, &store, adom)?, stats))
}

/// Derives the full fixpoint store for one overlay request.
///
/// Checkpointed resumption: when enabled and the program has checkpointable
/// strata, evaluate on (an overlay over) the base's checkpointed variant —
/// the prefix-determined part of those strata was pre-derived into it once
/// per (base, program) — and resume semi-naive with the delta as the initial
/// overlay. Keying by the compiled plan's address is sound because plans are
/// shared through the process-wide `PlanCache` (same program + demand mode ⇒
/// same `Arc`, for the life of the process).
fn overlay_fixpoint(
    cqa: &CqaProgram,
    base: &Arc<BaseStore>,
    delta: &DatabaseInstance,
    options: &EvalOptions,
) -> (cqa_datalog::engine::RelationStore, EvalStats) {
    let timer = cqa_obs::Stopwatch::start();
    let (store, stats) = if options.checkpoint.resolve() && cqa.compiled.has_checkpointable_strata()
    {
        let key = Arc::as_ptr(&cqa.compiled) as usize;
        let checkpointed = base.checkpoint(key, |raw| cqa.compiled.checkpoint_base(raw));
        cqa.compiled
            .resume_on_store_with_stats(edb_overlay_on(&checkpointed, delta), options)
    } else {
        cqa.compiled
            .run_on_store_with_stats(edb_overlay_on(base, delta), options)
    };
    // The resumed path still derives from scratch for non-checkpointable
    // strata; classify the whole request by whether any stratum resumed.
    let span = if stats.checkpoint_hits > 0 {
        cqa_obs::Span::CheckpointResume
    } else {
        cqa_obs::Span::ScratchDerive
    };
    cqa_obs::record_span(span, timer.elapsed_ns());
    (store, stats)
}

/// Claim 4 over an evaluated store: the instance is certain iff `o(c)` fails
/// for some constant of the active domain. Membership goes through the
/// store's borrowed [`cqa_datalog::store::UnaryView`] — O(1) per constant,
/// no per-call set materialization.
fn o_fails_somewhere(
    cqa: &CqaProgram,
    store: &cqa_datalog::engine::RelationStore,
    mut adom: impl Iterator<Item = Constant>,
) -> Result<bool, SolverError> {
    let timer = cqa_obs::trace_enabled().then(cqa_obs::Stopwatch::start);
    let o_holds = store
        .unary(cqa.o)
        .map_err(|e| SolverError::ResourceLimit(format!("datalog engine error: {e}")))?;
    let answer = adom.any(|c| !o_holds.contains(c.symbol()));
    if let Some(timer) = timer {
        cqa_obs::record_span(cqa_obs::Span::AnswerScan, timer.elapsed_ns());
    }
    Ok(answer)
}

/// Reflexivity is *not* included: `reaches(edges, a, b)` is true iff there is
/// a path of length ≥ 1 from `a` to `b`, or `a == b` and ... no: plain BFS
/// from `a`'s successors, so `a == b` requires a genuine cycle. Callers add
/// the reflexive case explicitly where the definition needs it.
fn reaches(edges: &BTreeMap<Constant, BTreeSet<Constant>>, from: Constant, to: Constant) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        if let Some(succs) = edges.get(&v) {
            for &s in succs {
                if s == to {
                    return true;
                }
                if seen.insert(s) {
                    stack.push(s);
                }
            }
        }
    }
    false
}

impl CertaintySolver for NlSolver {
    fn name(&self) -> &'static str {
        match self.backend {
            NlBackend::Direct => "nl-direct",
            NlBackend::Datalog => "nl-datalog",
        }
    }

    fn certain(&self, query: &PathQuery, db: &DatabaseInstance) -> Result<bool, SolverError> {
        let class = classify(query).class;
        if self.strict && !matches!(class, ComplexityClass::FO | ComplexityClass::NlComplete) {
            return Err(SolverError::NotApplicable {
                solver: "nl".into(),
                reason: format!("query {query} violates C2"),
            });
        }
        if !self.strict && class == ComplexityClass::CoNpComplete {
            return Err(SolverError::NotApplicable {
                solver: "nl".into(),
                reason: format!("query {query} violates C3"),
            });
        }
        let plan = self.prepare(query);
        self.certain_prepared(&plan, db)
    }
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
    fn both_backends_agree_with_oracle_on_rrx() {
        let naive = NaiveSolver::default();
        let direct = NlSolver::direct();
        let datalog = NlSolver::datalog();
        let q = PathQuery::parse("RRX").unwrap();
        for seed in 1..=40u64 {
            let db = random_db(seed * 7919, &["R", "X"], 6, 4 + seed % 8);
            if db.repair_count() > 1 << 12 {
                continue;
            }
            let expected = naive.certain(&q, &db).unwrap();
            assert_eq!(
                direct.certain(&q, &db).unwrap(),
                expected,
                "direct, seed {seed}"
            );
            assert_eq!(
                datalog.certain(&q, &db).unwrap(),
                expected,
                "datalog, seed {seed}"
            );
        }
        assert!(direct.stats().decompositions_used() > 0);
    }

    #[test]
    fn both_backends_agree_with_oracle_on_rxry() {
        // RXRY is the paper's canonical NL-complete query (Example 3).
        let naive = NaiveSolver::default();
        let direct = NlSolver::direct();
        let datalog = NlSolver::datalog();
        let q = PathQuery::parse("RXRY").unwrap();
        for seed in 1..=40u64 {
            let db = random_db(seed * 104729, &["R", "X", "Y"], 5, 5 + seed % 9);
            if db.repair_count() > 1 << 12 {
                continue;
            }
            let expected = naive.certain(&q, &db).unwrap();
            assert_eq!(
                direct.certain(&q, &db).unwrap(),
                expected,
                "direct, seed {seed}"
            );
            assert_eq!(
                datalog.certain(&q, &db).unwrap(),
                expected,
                "datalog, seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_oracle_on_uvuvwv() {
        let naive = NaiveSolver::default();
        let direct = NlSolver::direct();
        let q = PathQuery::parse("UVUVWV").unwrap();
        for seed in 1..=30u64 {
            let db = random_db(seed * 31337, &["U", "V", "W"], 5, 5 + seed % 10);
            if db.repair_count() > 1 << 12 {
                continue;
            }
            assert_eq!(
                direct.certain(&q, &db).unwrap(),
                naive.certain(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn figure_2_is_certain_for_rrx() {
        let mut db = DatabaseInstance::new();
        db.insert_parsed("R", "0", "1");
        db.insert_parsed("R", "1", "2");
        db.insert_parsed("R", "1", "3");
        db.insert_parsed("R", "2", "3");
        db.insert_parsed("X", "3", "4");
        assert!(NlSolver::direct()
            .certain(&PathQuery::parse("RRX").unwrap(), &db)
            .unwrap());
        assert!(NlSolver::datalog()
            .certain(&PathQuery::parse("RRX").unwrap(), &db)
            .unwrap());
    }

    #[test]
    fn strict_mode_rejects_ptime_and_conp_queries() {
        let db = DatabaseInstance::new();
        let solver = NlSolver::direct();
        for word in ["RXRYRY", "RXRXRYRY"] {
            let q = PathQuery::parse(word).unwrap();
            assert!(matches!(
                solver.certain(&q, &db),
                Err(SolverError::NotApplicable { .. })
            ));
        }
        // Lenient mode accepts the PTIME query (via fallback) but not coNP.
        let lenient = NlSolver::lenient(NlBackend::Direct);
        assert!(lenient
            .certain(&PathQuery::parse("RXRYRY").unwrap(), &db)
            .is_ok());
        assert!(lenient
            .certain(&PathQuery::parse("RXRXRYRY").unwrap(), &db)
            .is_err());
    }

    #[test]
    fn fo_class_queries_are_accepted_too() {
        // FO ⊆ NL: the solver should also handle C1 queries like RXRX.
        let naive = NaiveSolver::default();
        let direct = NlSolver::direct();
        let q = PathQuery::parse("RXRX").unwrap();
        for seed in 1..=25u64 {
            let db = random_db(seed * 65537, &["R", "X"], 5, 4 + seed % 8);
            if db.repair_count() > 1 << 12 {
                continue;
            }
            assert_eq!(
                direct.certain(&q, &db).unwrap(),
                naive.certain(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }
}
