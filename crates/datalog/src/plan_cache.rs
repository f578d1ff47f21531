//! Caching of demand-transformed, compiled programs, keyed by the
//! *untransformed* program and demand mode.
//!
//! Planning a program ([`CompiledProgram::compile`]) — safety checks,
//! stratification, variable numbering and greedy join ordering — and the
//! demand transformation that precedes it ([`crate::demand::transform`]) are
//! both pure in the program text, so repeated evaluations of the same
//! program (the normal case for certain-answer workloads, which run one
//! generated CQA program per query against many instances) can share one
//! transformed program and one compiled plan. A [`PlanCache`] maps a
//! [`Program`] (structural identity: rules plus EDB declarations) to:
//!
//! * one plain `Arc<CompiledProgram>` for callers that evaluate the program
//!   exactly as written ([`PlanCache::get_or_compile`]), and
//! * one [`PlannedProgram`] per [`DemandMode`] — the transformed program,
//!   its [`DemandReport`] and the compiled plan, cached as a unit by
//!   [`PlanCache::get_or_plan`] so warm lookups skip the transformation
//!   *and* the compilation.
//!
//! Keying by the untransformed text matters for latency: program
//! *generation* is cheap (building the Lemma 14 rules), but the magic
//! rewrite's adornment fixpoint and the join planner are not, and both
//! would otherwise run on every per-call dispatch. The process-wide
//! [`PlanCache::global`] instance backs
//! [`crate::cqa_program::generate_program`], so every generated program is
//! transformed and planned at most once per process and demand setting.
//!
//! The cache is `Sync` and its payloads are immutable, so the batch fan-out
//! (`cqa-solver`'s `CertaintySession::certain_batch`) shares compiled plans
//! across its worker threads without copying; racing compilations of the
//! same program are collapsed to whichever insertion wins.
//!
//! Plan caching composes with store layering ([`crate::store`]): a compiled
//! program's `(pred, mask)` index slots are stable across runs, and on
//! family workloads the *contents* of the slots over shared-base predicates
//! are cached too — committed once per [`crate::store::BaseStore`] and
//! attached by every sibling run — so a warm family session re-plans
//! nothing and re-indexes only per-request deltas.
//!
//! The cache also anchors **checkpoint identity**: a base store's cached
//! checkpoint variants ([`crate::store::BaseStore::checkpoint`]) are keyed
//! by the compiled program's `Arc` pointer. That key is sound precisely
//! because this cache deduplicates — structurally equal programs resolve to
//! the *same* `Arc<CompiledProgram>` for the life of the cache (the global
//! instance never evicts), so a pointer uniquely names a plan, never a
//! freed-and-reused allocation, and re-generating a query's program on a
//! later request finds the same checkpoint instead of building a twin.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ast::{Predicate, Program};
use crate::demand::{self, DemandMode, DemandReport};
use crate::engine::{CompiledProgram, EngineError};

/// A demand-transformed program bundled with everything evaluation needs:
/// the transformed rules, the report of what the transformation did, and
/// the compiled plan. Cached as a unit so a warm [`PlanCache::get_or_plan`]
/// is a single hash lookup.
#[derive(Debug)]
pub struct PlannedProgram {
    /// The program as transformed under the requested mode (with
    /// [`DemandMode::Off`] this is the input program unchanged).
    pub program: Arc<Program>,
    /// The goal predicate the transformation was directed at.
    pub goal: Predicate,
    /// What the transformation did (all zero for [`DemandMode::Off`]).
    pub report: DemandReport,
    /// The compiled evaluation plan for `program`.
    pub compiled: Arc<CompiledProgram>,
}

/// A cache of transformed/compiled programs keyed by untransformed program
/// identity *and* demand mode. The mode is part of the key so one setting's
/// entries can never collide with another's — a magic rewrite with nothing
/// to prune or restrict yields a program structurally identical to the
/// untransformed one, and the two must still occupy distinct entries or warm
/// lookups under one setting would observe the other setting's hit/miss
/// accounting.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<Program, Slots>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Per-program cache payload: the plain (as-written) compilation plus one
/// demand-planned entry per mode.
#[derive(Debug, Default)]
struct Slots {
    plain: Option<Arc<CompiledProgram>>,
    planned: [Option<Arc<PlannedProgram>>; 2],
}

fn mode_slot(mode: DemandMode) -> usize {
    match mode {
        DemandMode::Off => 0,
        DemandMode::Magic => 1,
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The process-wide cache.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(PlanCache::new)
    }

    /// Returns the cached compiled plan for `program` exactly as written (no
    /// demand transformation), compiling (and caching) it on first sight.
    pub fn get_or_compile(&self, program: &Program) -> Result<Arc<CompiledProgram>, EngineError> {
        if let Some(hit) = self
            .plans
            .lock()
            .expect("plan cache poisoned")
            .get(program)
            .and_then(|slots| slots.plain.as_ref())
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Compile outside the lock; a racing thread may compile the same
        // program, in which case the first insertion wins.
        let timer = cqa_obs::Stopwatch::start();
        let compiled = Arc::new(CompiledProgram::compile(program)?);
        cqa_obs::record_span(cqa_obs::Span::PlanCompile, timer.elapsed_ns());
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Ok(Arc::clone(
            plans
                .entry(program.clone())
                .or_default()
                .plain
                .get_or_insert(compiled),
        ))
    }

    /// Returns the cached [`PlannedProgram`] for `program` demand-transformed
    /// toward `goal` under `mode`, transforming and compiling on first sight.
    /// Warm lookups skip both. Transformation/compilation failures are
    /// returned and not cached.
    ///
    /// The key is `(program, mode)` — the goal is *not* part of it, because
    /// for the generated CQA programs the goal (`o/1`) is a function of the
    /// program text. Callers that direct one program text at two different
    /// goals must use separate caches (debug builds assert against it).
    pub fn get_or_plan(
        &self,
        program: &Program,
        goal: Predicate,
        mode: DemandMode,
    ) -> Result<Arc<PlannedProgram>, EngineError> {
        let slot = mode_slot(mode);
        if let Some(hit) = self
            .plans
            .lock()
            .expect("plan cache poisoned")
            .get(program)
            .and_then(|slots| slots.planned[slot].as_ref())
        {
            debug_assert_eq!(
                hit.goal, goal,
                "one program text demand-planned toward two goals in one cache"
            );
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Transform and compile outside the lock; a racing thread may do the
        // same work, in which case the first insertion wins.
        let timer = cqa_obs::Stopwatch::start();
        let (transformed, report) = demand::transform(program, goal, mode);
        let compiled = Arc::new(CompiledProgram::compile(&transformed)?);
        cqa_obs::record_span(cqa_obs::Span::PlanCompile, timer.elapsed_ns());
        let planned = Arc::new(PlannedProgram {
            program: Arc::new(transformed),
            goal,
            report,
            compiled,
        });
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Ok(Arc::clone(
            plans.entry(program.clone()).or_default().planned[slot].get_or_insert(planned),
        ))
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (transform-and-compile runs) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached entries (plain and per-mode planned entries count
    /// separately).
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .expect("plan cache poisoned")
            .values()
            .map(|slots| slots.plain.iter().count() + slots.planned.iter().flatten().count())
            .sum()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.plans.lock().expect("plan cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BodyLiteral, DlAtom, DlTerm, Predicate, Rule};

    fn tc_program(edge: &str) -> Program {
        let atom = |name: &str, vars: [&str; 2]| {
            DlAtom::new(
                Predicate::new(name, 2),
                vars.iter().map(|v| DlTerm::var(v)).collect(),
            )
        };
        let mut p = Program::new();
        p.declare_edb(Predicate::new(edge, 2));
        p.add_rule(Rule::new(
            atom("path", ["X", "Y"]),
            vec![BodyLiteral::Positive(atom(edge, ["X", "Y"]))],
        ));
        p.add_rule(Rule::new(
            atom("path", ["X", "Z"]),
            vec![
                BodyLiteral::Positive(atom("path", ["X", "Y"])),
                BodyLiteral::Positive(atom(edge, ["Y", "Z"])),
            ],
        ));
        p
    }

    fn goal() -> Predicate {
        Predicate::new("path", 2)
    }

    #[test]
    fn identical_programs_share_one_compilation() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&tc_program("E")).unwrap();
        let b = cache.get_or_compile(&tc_program("E")).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_programs_compile_separately() {
        let cache = PlanCache::new();
        let a = cache.get_or_compile(&tc_program("E")).unwrap();
        let b = cache.get_or_compile(&tc_program("F")).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_lookups_collapse_to_one_cached_plan() {
        // Worker threads hammering the cache with the same program must all
        // end up sharing a single Arc (one cached entry), and the cache must
        // stay usable from multiple threads (it is Sync by construction).
        let cache = PlanCache::new();
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| cache.get_or_compile(&tc_program("E")).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        for pair in plans.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }

    #[test]
    fn demand_modes_occupy_distinct_entries() {
        // The same program text under different demand settings must neither
        // share an entry nor cross-talk on hit/miss accounting: each mode
        // sees exactly one cold miss and then warm hits.
        let cache = PlanCache::new();
        for mode in [DemandMode::Off, DemandMode::Magic] {
            let cold = cache.get_or_plan(&tc_program("E"), goal(), mode).unwrap();
            let warm = cache.get_or_plan(&tc_program("E"), goal(), mode).unwrap();
            assert!(
                Arc::ptr_eq(&cold, &warm),
                "{mode}: warm lookup re-transformed"
            );
            assert_eq!(cold.goal, goal());
        }
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 2);
        // Entries are distinct plans, not aliases of one compilation.
        let off = cache
            .get_or_plan(&tc_program("E"), goal(), DemandMode::Off)
            .unwrap();
        let magic = cache
            .get_or_plan(&tc_program("E"), goal(), DemandMode::Magic)
            .unwrap();
        assert!(!Arc::ptr_eq(&off.compiled, &magic.compiled));
    }

    #[test]
    fn warm_planned_lookups_skip_the_transformation() {
        // The whole point of keying by the *untransformed* program: a warm
        // get_or_plan must hand back the same transformed-program Arc (no
        // re-transform, no re-compile), and its report must be the
        // transformation's report, not a recount.
        let cache = PlanCache::new();
        let cold = cache
            .get_or_plan(&tc_program("E"), goal(), DemandMode::Magic)
            .unwrap();
        let warm = cache
            .get_or_plan(&tc_program("E"), goal(), DemandMode::Magic)
            .unwrap();
        assert!(Arc::ptr_eq(&cold.program, &warm.program));
        assert!(Arc::ptr_eq(&cold.compiled, &warm.compiled));
        assert_eq!(cold.report, warm.report);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn plain_and_planned_off_entries_are_independent() {
        // get_or_compile (plain slot) and get_or_plan(Off) (mode slot 0) are
        // distinct entries on purpose: the APIs have different return shapes
        // and neither should perturb the other's accounting.
        let cache = PlanCache::new();
        let plain = cache.get_or_compile(&tc_program("E")).unwrap();
        let planned = cache
            .get_or_plan(&tc_program("E"), goal(), DemandMode::Off)
            .unwrap();
        assert!(!Arc::ptr_eq(&plain, &planned.compiled));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let mut bad = Program::new();
        bad.add_rule(Rule::new(
            DlAtom::new(Predicate::new("p", 1), vec![DlTerm::var("X")]),
            vec![],
        ));
        let cache = PlanCache::new();
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache
            .get_or_plan(&bad, Predicate::new("p", 1), DemandMode::Magic)
            .is_err());
        assert!(cache.is_empty());
    }
}
