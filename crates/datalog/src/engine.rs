//! A bottom-up, stratum-by-stratum Datalog engine with semi-naive evaluation
//! of recursive rules, stratified negation and built-in constraints.
//!
//! # Architecture
//!
//! The engine evaluates each stratum with **compiled join plans** over
//! **lazily indexed relations**; the design follows the standard semi-naive
//! playbook (compare cozo's `query/eval.rs`) specialized to this crate's
//! workload — the linear CQA programs of Lemma 14, whose hot loop dominates
//! every certain-answer call:
//!
//! * **Compile once, evaluate many times.** A [`Program`] is compiled into a
//!   reusable [`CompiledProgram`] — stratified join plans, a dense
//!   [`PredTable`] of interned [`PredId`]s, and index-slot assignments — that
//!   is immutable, `Sync`, and can be shared across threads and cached across
//!   calls (see [`crate::plan_cache`]). An [`Evaluator`] borrows a compiled
//!   program and carries only per-run state.
//!
//! * **Join planning** ([`crate::plan`]). Each rule is compiled into a
//!   sequence of ops over a flat binding array indexed by the rule's
//!   [`crate::ast::RuleVars`] numbering. Positive literals are ordered
//!   greedily by how many of their positions are bound at placement time
//!   (constants count), so every literal after the first is an index probe in
//!   the common case; negative literals and built-ins run as soon as their
//!   variables are bound, pruning early. A fully bound atom degenerates to a
//!   set-membership test.
//!
//! * **Layered copy-on-write stores** ([`crate::store`]). Relations live in
//!   a [`RelationStore`] that is either flat or an overlay over a frozen,
//!   `Arc`-shared [`BaseStore`] (a shared EDB prefix plus its committed
//!   `(pred, mask)` indexes, built once per base). Tuple ids index the
//!   base-then-overlay concatenation, so the semi-naive delta machinery and
//!   the probe indexes work unchanged across the seam; a flat store is the
//!   empty-base case and keeps the exact single-layer code paths.
//!
//! * **Interned predicates.** Plans refer to predicates by dense [`PredId`],
//!   and [`RelationStore`] keeps its relations in a flat `Vec` behind its own
//!   [`PredTable`]; a per-run translation array maps program ids to store
//!   ids, so the evaluator's inner loop never hashes a predicate — every
//!   relation lookup is a vector index, and every `(predicate, bound-mask)`
//!   index probe goes through a compile-time slot into a flat
//!   [`crate::plan::IndexSpace`].
//!
//! * **Delta indexes.** Relations are append-only during a run, so the
//!   semi-naive delta of a predicate is simply the id range of tuples
//!   appended in the previous round. A delta-restricted plan scans exactly
//!   that range for its delta literal and probes indexes for everything
//!   else; indexes are built on first probe and *extended* (never
//!   invalidated) by absorbing the tuples appended since their last use. On
//!   an overlay store a probe pairs the base's committed index with the
//!   run's overlay extension.
//!
//! * **Allocation-free inner loop.** Bindings live in a
//!   `Vec<Option<Symbol>>` with compile-time-known reset lists instead of
//!   cloned `BTreeMap` environments, tuples up to arity 4 are stored inline
//!   ([`crate::tuple::Tuple`]), and probe results are copied into per-depth
//!   scratch buffers that are reused across candidates.
//!
//! * **Shape-specialized kernels** ([`crate::kernel`]). Rules in the
//!   unary/binary fragment — which covers the entire generated CQA program
//!   family — are *additionally* compiled to a register machine over raw
//!   `u32` symbol ids: columnar scans, CSR-adjacency probes, bitset
//!   membership and a sort-merge fast path replace tuple matching and hash
//!   probing. Selection is per rule at compile time and recorded in the
//!   [`CompiledProgram`] (so `plan_cache` caches it like everything else);
//!   whether the kernels *execute* is a per-run knob
//!   ([`crate::parallel::Kernels`], environment override
//!   `PATH_CQA_KERNELS=off|on`). Ineligible rules — wide atoms, or probes
//!   into the stratum currently being grown — keep the generic path, rule by
//!   rule; [`crate::parallel::EvalStats`] reports the split.
//!
//! * **One sequential driver.** Every stratum runs on the semi-naive loop
//!   of this module, inserting each rule's derived tuples eagerly so later
//!   rules of the same round see them. Evaluation is deterministic: the
//!   insertion order depends only on the program and the instance. The only
//!   parallelism sits a layer up, in the solver's batch fan-out, which
//!   decides independent requests on scoped threads (see
//!   [`crate::parallel::Threads`]).
//!
//! The previous scan-based evaluator is retained verbatim-in-spirit under
//! [`crate::reference`] (re-exported here as [`reference`]); the property
//! suites (`tests/engine_agreement.rs`, `tests/family_cow.rs`) check that
//! both engines — and layered vs fresh-load stores — derive identical fact
//! sets on random programs, and the `datalog_engine` / `session_cow` benches
//! track the speedups.

use std::collections::BTreeSet;

use cqa_core::symbol::Symbol;
use cqa_db::instance::DatabaseInstance;

use crate::ast::{Predicate, Program, Rule, RuleVars};
use crate::kernel::{compile_kernel, CsrSlots, KernelExecutor, KernelRule, KernelSpace};
use crate::parallel::{EvalOptions, EvalStats};
use crate::plan::{compile_rule, CompiledRule, IndexSlots, IndexSpace, Op};
use crate::stratify::{stratify, StratifyError};

pub use crate::reference;
pub use crate::store::{
    edb_base_from_instance, edb_from_instance, edb_overlay_on, BaseStore, PredId, PredTable,
    RelationStore, Tuples, UnaryView,
};
pub use crate::tuple::Tuple;

/// Errors produced by compilation and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The program is not stratifiable.
    Stratification(StratifyError),
    /// A rule is unsafe (an unbound variable in the head, a negative literal
    /// or a builtin).
    UnsafeRule(String),
    /// A predicate was used at the wrong arity.
    ArityMismatch {
        /// The offending predicate.
        pred: Predicate,
        /// The arity the operation requires.
        expected: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Stratification(e) => write!(f, "stratification error: {e}"),
            EngineError::UnsafeRule(r) => write!(f, "unsafe rule: {r}"),
            EngineError::ArityMismatch { pred, expected } => write!(
                f,
                "arity mismatch: {pred} has arity {}, expected {expected}",
                pred.arity
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StratifyError> for EngineError {
    fn from(e: StratifyError) -> EngineError {
        EngineError::Stratification(e)
    }
}

/// One stratum's compiled plans.
#[derive(Debug)]
pub(crate) struct CompiledStratum {
    /// The stratum's predicates, as program-scoped ids; delta watermarks are
    /// tracked positionally against this list.
    pub(crate) preds: Vec<PredId>,
    /// One full (non-delta) plan per rule of the stratum.
    pub(crate) full_plans: Vec<CompiledRule>,
    /// Delta-restricted plans, keyed by the position of the delta predicate
    /// in `preds`.
    pub(crate) delta_plans: Vec<(usize, CompiledRule)>,
    /// Kernel translations of `full_plans`, aligned by index; `None` marks a
    /// rule that keeps the generic path (see [`crate::kernel`]).
    pub(crate) full_kernels: Vec<Option<KernelRule>>,
    /// Kernel translations of `delta_plans`, aligned by index.
    pub(crate) delta_kernels: Vec<Option<KernelRule>>,
    /// Whether this stratum can be *checkpointed*: every rule is negation-free
    /// and every positive body literal is EDB, same-stratum, or from an
    /// earlier checkpointable stratum — so its fixpoint over a base EDB is a
    /// valid semi-naive intermediate state for any EDB extension, and
    /// per-request evaluation can resume from it instead of re-deriving.
    pub(crate) checkpointable: bool,
    /// Resume plans of a checkpointable stratum: for every positive body
    /// literal position on a *non*-same-stratum predicate, the rule compiled
    /// with a forced leading scan at that position, keyed by the scanned
    /// predicate's program-scoped id. A resumed run fires each of these over
    /// the predicate's overlay segment only (the EDB delta, or tuples an
    /// earlier checkpointable stratum derived in the same run), replacing the
    /// initial full-plan round; the ordinary delta loop then closes
    /// same-stratum recursion. Empty for non-checkpointable strata.
    pub(crate) resume_plans: Vec<(PredId, CompiledRule)>,
}

/// A program compiled once and evaluated many times: stratified join plans,
/// the dense predicate table they refer to, and the index-slot layout.
///
/// A compiled program is immutable and `Sync`, so it can be shared across
/// threads and cached across calls — [`crate::plan_cache::PlanCache`] keys
/// compiled programs by program identity, and
/// [`crate::cqa_program::CqaProgram`] carries one per generated CQA program.
#[derive(Debug)]
pub struct CompiledProgram {
    preds: PredTable,
    pub(crate) strata: Vec<CompiledStratum>,
    pub(crate) num_index_slots: usize,
    /// Distinct CSR adjacencies the program's kernels probe (see
    /// [`crate::kernel::CsrSlots`]).
    pub(crate) num_csr_slots: usize,
    /// Compiled plans (full + delta, across strata) with a kernel
    /// translation; stamped into [`EvalStats`] when kernels execute.
    pub(crate) kernel_rules: u64,
    /// Compiled plans without one.
    pub(crate) generic_rules: u64,
    /// Per-stratum differential maintenance plans (see [`crate::maintain`]).
    pub(crate) maintain: crate::maintain::MaintainProgram,
}

impl CompiledProgram {
    /// Compiles a program: safety check, stratification, variable numbering,
    /// join planning (full + delta plans), predicate interning and index-slot
    /// assignment.
    pub fn compile(program: &Program) -> Result<CompiledProgram, EngineError> {
        for rule in &program.rules {
            if !rule.is_safe() {
                return Err(EngineError::UnsafeRule(rule.to_string()));
            }
        }
        let strat = stratify(program)?;
        let numberings: Vec<RuleVars> = program.rules.iter().map(RuleVars::of).collect();
        let mut preds = PredTable::default();
        // EDB predicates first, so extensional relations get the lowest ids
        // regardless of rule order.
        for &p in &program.edb {
            preds.intern(p);
        }
        let mut islots = IndexSlots::default();
        let mut kslots = CsrSlots::default();
        let mut strata = Vec::with_capacity(strat.strata.len());
        // Grows stratum by stratum: the predicates whose fixpoint a base
        // checkpoint may hold (EDB, then every checkpointable stratum in
        // order). A stratum depending on anything outside this set cannot be
        // pre-evaluated — those tuples don't exist at checkpoint-build time.
        let mut checkpointable_preds: BTreeSet<Predicate> = program.edb.iter().copied().collect();
        for stratum_preds in &strat.strata {
            let stratum: BTreeSet<Predicate> = stratum_preds.iter().copied().collect();
            let rules: Vec<(usize, &Rule)> = program
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| stratum.contains(&r.head.pred))
                .collect();
            let pred_ids: Vec<PredId> = stratum_preds.iter().map(|&p| preds.intern(p)).collect();
            let full_plans: Vec<CompiledRule> = rules
                .iter()
                .map(|&(i, rule)| compile_rule(rule, &numberings[i], None, &mut preds, &mut islots))
                .collect();
            let mut delta_plans: Vec<(usize, CompiledRule)> = Vec::new();
            for &(i, rule) in &rules {
                for (pos, literal) in rule.body.iter().enumerate() {
                    if let crate::ast::BodyLiteral::Positive(atom) = literal {
                        if let Some(delta_idx) = stratum_preds.iter().position(|&p| p == atom.pred)
                        {
                            delta_plans.push((
                                delta_idx,
                                compile_rule(
                                    rule,
                                    &numberings[i],
                                    Some(pos),
                                    &mut preds,
                                    &mut islots,
                                ),
                            ));
                        }
                    }
                }
            }
            // Checkpoint eligibility and resume plans. Negation disqualifies
            // (the stratum's output can shrink under EDB growth); builtins
            // are pure filters and keep monotonicity.
            let checkpointable = rules.iter().all(|&(_, rule)| {
                rule.body.iter().all(|literal| match literal {
                    crate::ast::BodyLiteral::Positive(atom) => {
                        stratum.contains(&atom.pred) || checkpointable_preds.contains(&atom.pred)
                    }
                    crate::ast::BodyLiteral::Negative(_) => false,
                    crate::ast::BodyLiteral::Builtin(_) => true,
                })
            });
            let mut resume_plans: Vec<(PredId, CompiledRule)> = Vec::new();
            if checkpointable {
                checkpointable_preds.extend(stratum_preds.iter().copied());
                for &(i, rule) in &rules {
                    for (pos, literal) in rule.body.iter().enumerate() {
                        if let crate::ast::BodyLiteral::Positive(atom) = literal {
                            if !stratum.contains(&atom.pred) {
                                resume_plans.push((
                                    preds.intern(atom.pred),
                                    compile_rule(
                                        rule,
                                        &numberings[i],
                                        Some(pos),
                                        &mut preds,
                                        &mut islots,
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            // Kernel selection: translate each plan to the specialized
            // register machine where the fragment allows (per-rule fallback
            // otherwise — see `crate::kernel`). The stratum's own predicates
            // are passed so probes into the growing stratum are declined.
            let full_kernels: Vec<Option<KernelRule>> = full_plans
                .iter()
                .map(|plan| compile_kernel(plan, &pred_ids, &mut kslots))
                .collect();
            let delta_kernels: Vec<Option<KernelRule>> = delta_plans
                .iter()
                .map(|(_, plan)| compile_kernel(plan, &pred_ids, &mut kslots))
                .collect();
            strata.push(CompiledStratum {
                preds: pred_ids,
                full_plans,
                delta_plans,
                full_kernels,
                delta_kernels,
                checkpointable,
                resume_plans,
            });
        }
        let kernel_rules: u64 = strata
            .iter()
            .flat_map(|s| s.full_kernels.iter().chain(&s.delta_kernels))
            .filter(|k| k.is_some())
            .count() as u64;
        let total_rules: u64 = strata
            .iter()
            .map(|s| (s.full_plans.len() + s.delta_plans.len()) as u64)
            .sum();
        let maintain = crate::maintain::MaintainProgram::build(
            program,
            &strat.strata,
            &numberings,
            &mut preds,
        );
        Ok(CompiledProgram {
            preds,
            strata,
            num_index_slots: islots.len(),
            num_csr_slots: kslots.len(),
            kernel_rules,
            generic_rules: total_rules - kernel_rules,
            maintain,
        })
    }

    /// The compiled program's predicate table (program-scoped ids).
    pub fn preds(&self) -> &PredTable {
        &self.preds
    }

    /// Runs the program on the EDB extracted from `db`, returning all derived
    /// relations (the EDB tuples are included in the result).
    pub fn run(&self, db: &DatabaseInstance) -> RelationStore {
        Evaluator::new(self).run(db)
    }

    /// Runs the program on an explicitly provided EDB store.
    pub fn run_on_store(&self, store: RelationStore) -> RelationStore {
        Evaluator::new(self).run_on_store(store)
    }

    /// Runs the program on the EDB extracted from `db` with explicit
    /// evaluation options.
    pub fn run_with(&self, db: &DatabaseInstance, options: &EvalOptions) -> RelationStore {
        Evaluator::with_options(self, *options).run(db)
    }

    /// Runs the program on an explicit EDB store with explicit options.
    pub fn run_on_store_with(&self, store: RelationStore, options: &EvalOptions) -> RelationStore {
        Evaluator::with_options(self, *options).run_on_store(store)
    }

    /// Like [`CompiledProgram::run_on_store_with`], additionally reporting
    /// evaluation statistics (rounds, index-extension passes, derived tuples).
    pub fn run_on_store_with_stats(
        &self,
        store: RelationStore,
        options: &EvalOptions,
    ) -> (RelationStore, EvalStats) {
        Evaluator::with_options(self, *options).run_on_store_with_stats(store)
    }

    /// True iff at least one stratum with rules is checkpointable — i.e.
    /// [`CompiledProgram::checkpoint_base`] would pre-derive something and a
    /// resumed run would skip work. When false, resuming degenerates to a
    /// plain run and callers should not bother building a checkpoint.
    pub fn has_checkpointable_strata(&self) -> bool {
        self.strata
            .iter()
            .any(|s| s.checkpointable && !s.full_plans.is_empty())
    }

    /// Builds this program's **checkpointed variant** of a frozen base: a new
    /// [`BaseStore`] holding the base's relations plus the fixpoint of every
    /// checkpointable stratum (evaluated sequentially, once). Evaluating an
    /// overlay on the returned base with
    /// [`CompiledProgram::resume_on_store_with_stats`] derives exactly what a
    /// from-scratch run on the raw base derives — the checkpoint only moves
    /// the prefix-determined part of that work out of the request path.
    ///
    /// Callers should cache the result per (base, program); see
    /// [`BaseStore::checkpoint`].
    pub fn checkpoint_base(&self, base: &BaseStore) -> std::sync::Arc<BaseStore> {
        let (store, _) = Evaluator::with_options(self, EvalOptions::sequential()).run_inner(
            base.thaw(),
            false,
            true,
        );
        BaseStore::freeze(store)
    }

    /// Runs the program on an overlay over a **checkpointed** base (built by
    /// [`CompiledProgram::checkpoint_base`] from the same program), resuming
    /// checkpointable strata semi-naive from the checkpoint: their initial
    /// full-plan round is replaced by delta-restricted resume plans over the
    /// overlay segments, and non-checkpointable strata re-run from scratch as
    /// usual. The resulting fact set is identical to
    /// [`CompiledProgram::run_on_store_with_stats`] on the raw base;
    /// [`EvalStats::checkpoint_hits`] counts the resumed strata.
    pub fn resume_on_store_with_stats(
        &self,
        store: RelationStore,
        options: &EvalOptions,
    ) -> (RelationStore, EvalStats) {
        Evaluator::with_options(self, *options).run_inner(store, true, false)
    }
}

/// Evaluates a [`CompiledProgram`] over a database instance; all per-run
/// state (indexes, binding scratch) lives inside a single `run*` call, so an
/// evaluator is free to be shared or rebuilt at will.
pub struct Evaluator<'a> {
    compiled: &'a CompiledProgram,
    options: EvalOptions,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator borrowing a compiled program, with default
    /// options (every knob `Auto`, so `PATH_CQA_KERNELS` decides whether
    /// kernels execute). Evaluation always runs on the calling thread.
    pub fn new(compiled: &'a CompiledProgram) -> Evaluator<'a> {
        Evaluator::with_options(compiled, EvalOptions::default())
    }

    /// Creates an evaluator with explicit evaluation options.
    pub fn with_options(compiled: &'a CompiledProgram, options: EvalOptions) -> Evaluator<'a> {
        Evaluator { compiled, options }
    }

    /// Runs the program on the EDB extracted from `db`, returning all derived
    /// relations (the EDB tuples are included in the result).
    pub fn run(&self, db: &DatabaseInstance) -> RelationStore {
        self.run_on_store(edb_from_instance(db))
    }

    /// Runs the program on an explicitly provided EDB store (flat, or an
    /// overlay forked from a shared base — see [`crate::store`]).
    pub fn run_on_store(&self, store: RelationStore) -> RelationStore {
        self.run_on_store_with_stats(store).0
    }

    /// Runs the program, additionally reporting evaluation statistics (the
    /// stats bookkeeping never changes what is derived, or in which order).
    pub fn run_on_store_with_stats(&self, store: RelationStore) -> (RelationStore, EvalStats) {
        self.run_inner(store, false, false)
    }

    /// The shared driver behind every `run*` entry point. `resume` makes
    /// checkpointable strata start from their base checkpoint (resume plans
    /// over overlay segments instead of the full-plan round);
    /// `only_checkpointable` restricts the run to checkpointable strata (the
    /// checkpoint *construction* pass — see
    /// [`CompiledProgram::checkpoint_base`]).
    fn run_inner(
        &self,
        mut store: RelationStore,
        resume: bool,
        only_checkpointable: bool,
    ) -> (RelationStore, EvalStats) {
        // Translate program-scoped ids to store-scoped ids once per run; the
        // inner loop then only does vector indexing.
        let pred_map: Vec<PredId> = self
            .compiled
            .preds
            .iter()
            .map(|(_, pred)| store.intern(pred))
            .collect();
        let use_kernels = self.options.kernels.resolve();
        let mut indexes = IndexSpace::new(self.compiled.num_index_slots);
        let mut kspace = KernelSpace::new(self.compiled.num_csr_slots);
        let mut stats = EvalStats::default();
        if use_kernels {
            stats.kernel_rules = self.compiled.kernel_rules;
            stats.generic_rules = self.compiled.generic_rules;
        } else {
            stats.generic_rules = self.compiled.kernel_rules + self.compiled.generic_rules;
        }
        // Generation counts successful inserts only (flat stores and
        // overlays alike), so the watermark delta is exactly the tuples this
        // run derived, independent of how the EDB was loaded.
        let start_generation = store.generation();
        let mut executor = Executor::default();
        let mut kexec = KernelExecutor::default();
        for stratum in &self.compiled.strata {
            if only_checkpointable && !stratum.checkpointable {
                continue;
            }
            let timer = cqa_obs::Stopwatch::start();
            evaluate_stratum(
                stratum,
                &pred_map,
                &mut store,
                &mut indexes,
                &mut kspace,
                use_kernels,
                resume,
                &mut executor,
                &mut kexec,
                &mut stats,
            );
            let ns = timer.elapsed_ns();
            stats.eval_ns += ns;
            cqa_obs::record_span(cqa_obs::Span::StratumEval, ns);
        }
        stats.index_extensions = indexes.extensions();
        stats.base_index_builds = indexes.base_builds() + kspace.base_builds();
        stats.index_build_ns = indexes.build_ns() + kspace.build_ns();
        if stats.index_build_ns > 0 {
            cqa_obs::record_span(cqa_obs::Span::IndexBuild, stats.index_build_ns);
        }
        stats.tuples_derived = store.generation() - start_generation;
        (store, stats)
    }
}

/// Semi-naive evaluation of one stratum with compiled plans. Each rule runs
/// through its kernel when one was compiled and kernels are enabled for the
/// run, the generic executor otherwise; the kernel's CSR adjacencies are
/// brought up to date just before each kernel execution (a no-op unless the
/// probed relation grew, which — kernels only probe outside the stratum —
/// happens at most once per stratum).
#[allow(clippy::too_many_arguments)]
fn evaluate_stratum(
    stratum: &CompiledStratum,
    pred_map: &[PredId],
    store: &mut RelationStore,
    indexes: &mut IndexSpace,
    kspace: &mut KernelSpace,
    use_kernels: bool,
    resume: bool,
    executor: &mut Executor,
    kexec: &mut KernelExecutor,
    stats: &mut EvalStats,
) {
    // The predicates whose growth drives the iteration.
    let watermark = |store: &RelationStore| -> Vec<usize> {
        stratum
            .preds
            .iter()
            .map(|&p| store.len_of(pred_map[p.index()]))
            .collect()
    };

    let mut low = watermark(store);
    let mut derived: Vec<Tuple> = Vec::new();

    stats.rounds += 1;
    if resume && stratum.checkpointable {
        // Resume round: the base already holds this stratum's checkpoint
        // fixpoint, so each resume plan fires only over the overlay segment
        // of its non-same-stratum scan predicate (the EDB delta, or tuples an
        // earlier checkpointable stratum derived in this run); `low` was
        // taken above, so the delta loop below closes same-stratum recursion
        // over everything inserted here.
        stats.checkpoint_hits += 1;
        for (pred, plan) in &stratum.resume_plans {
            let tuples = store.tuples_by_id(pred_map[pred.index()]);
            let (lo, hi) = (tuples.base_len(), tuples.len());
            if lo == hi {
                continue;
            }
            derived.clear();
            executor.derive(plan, pred_map, store, indexes, Some((lo, hi)), &mut derived);
            let head = pred_map[plan.head_pred.index()];
            for tuple in derived.drain(..) {
                store.insert_by_id(head, tuple);
            }
        }
    } else {
        // Initial round: every rule against the full store.
        for (plan, kernel) in stratum.full_plans.iter().zip(&stratum.full_kernels) {
            derived.clear();
            match kernel {
                Some(k) if use_kernels => {
                    for &spec in &k.csr_slots {
                        kspace.prepare(spec, pred_map, store);
                    }
                    stats.kernel_invocations += 1;
                    kexec.derive(k, pred_map, store, kspace, None, &mut derived);
                }
                _ => executor.derive(plan, pred_map, store, indexes, None, &mut derived),
            }
            let head = pred_map[plan.head_pred.index()];
            for tuple in derived.drain(..) {
                store.insert_by_id(head, tuple);
            }
        }
    }

    // Non-recursive stratum: nothing to iterate. (Entering the loop would
    // derive nothing either, but would count a phantom round.)
    if stratum.delta_plans.is_empty() {
        return;
    }

    // Iterate: each recursive plan consumes the delta range of its delta
    // predicate — the tuples appended during the previous round.
    loop {
        let high = watermark(store);
        if high == low {
            break;
        }
        stats.rounds += 1;
        for ((delta_idx, plan), kernel) in stratum.delta_plans.iter().zip(&stratum.delta_kernels) {
            let (lo, hi) = (low[*delta_idx], high[*delta_idx]);
            if lo == hi {
                continue;
            }
            derived.clear();
            match kernel {
                Some(k) if use_kernels => {
                    for &spec in &k.csr_slots {
                        kspace.prepare(spec, pred_map, store);
                    }
                    stats.kernel_invocations += 1;
                    kexec.derive(k, pred_map, store, kspace, Some((lo, hi)), &mut derived);
                }
                _ => executor.derive(plan, pred_map, store, indexes, Some((lo, hi)), &mut derived),
            }
            let head = pred_map[plan.head_pred.index()];
            for tuple in derived.drain(..) {
                store.insert_by_id(head, tuple);
            }
        }
        low = high;
    }
}

/// Reusable execution state: the flat binding array and per-depth candidate
/// buffers. Nothing here allocates per candidate tuple.
#[derive(Debug, Default)]
pub(crate) struct Executor {
    bindings: Vec<Option<Symbol>>,
    id_bufs: Vec<Vec<u32>>,
}

impl Executor {
    /// Derives all head tuples of a compiled rule into `out`. If `delta` is
    /// given, the first op (the delta literal's scan) enumerates only that id
    /// range of its predicate.
    pub(crate) fn derive(
        &mut self,
        plan: &CompiledRule,
        pred_map: &[PredId],
        store: &RelationStore,
        indexes: &mut IndexSpace,
        delta: Option<(usize, usize)>,
        out: &mut Vec<Tuple>,
    ) {
        self.bindings.clear();
        self.bindings.resize(plan.num_vars, None);
        if self.id_bufs.len() < plan.ops.len() {
            self.id_bufs.resize_with(plan.ops.len(), Vec::new);
        }
        self.step(plan, 0, pred_map, store, indexes, delta, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        plan: &CompiledRule,
        depth: usize,
        pred_map: &[PredId],
        store: &RelationStore,
        indexes: &mut IndexSpace,
        delta: Option<(usize, usize)>,
        out: &mut Vec<Tuple>,
    ) {
        let Some(op) = plan.ops.get(depth) else {
            out.push(
                plan.head
                    .iter()
                    .map(|slot| slot.resolve(&self.bindings))
                    .collect(),
            );
            return;
        };
        match op {
            Op::Scan(ap) => {
                let tuples = store.tuples_by_id(pred_map[ap.pred.index()]);
                let (lo, hi) = match delta {
                    Some(range) if depth == 0 => range,
                    _ => (0, tuples.len()),
                };
                // Two tight per-segment loops instead of one chained
                // iterator; a flat store's base segment is empty, so this is
                // the original single-slice scan there.
                let (base, overlay) = tuples.segments(lo, hi);
                for segment in [base, overlay] {
                    for tuple in segment {
                        if self.try_match(ap, tuple) {
                            self.step(plan, depth + 1, pred_map, store, indexes, delta, out);
                        }
                        self.reset(ap);
                    }
                }
            }
            Op::Probe(ap) => {
                let key: Tuple = ap
                    .key
                    .iter()
                    .map(|slot| slot.resolve(&self.bindings))
                    .collect();
                let mut ids = std::mem::take(&mut self.id_bufs[depth]);
                ids.clear();
                let pred = pred_map[ap.pred.index()];
                let tuples = store.tuples_by_id(pred);
                indexes.probe(ap.index_slot, store, pred, ap.mask, &key, &mut ids);
                for &id in &ids {
                    if self.try_match(ap, tuples.get(id as usize)) {
                        self.step(plan, depth + 1, pred_map, store, indexes, delta, out);
                    }
                    self.reset(ap);
                }
                self.id_bufs[depth] = ids;
            }
            Op::Exists(ap) => {
                let ground: Tuple = ap
                    .key
                    .iter()
                    .map(|slot| slot.resolve(&self.bindings))
                    .collect();
                if store.contains_by_id(pred_map[ap.pred.index()], &ground) {
                    self.step(plan, depth + 1, pred_map, store, indexes, delta, out);
                }
            }
            Op::Negative { pred, args } => {
                let ground: Tuple = args
                    .iter()
                    .map(|slot| slot.resolve(&self.bindings))
                    .collect();
                if !store.contains_by_id(pred_map[pred.index()], &ground) {
                    self.step(plan, depth + 1, pred_map, store, indexes, delta, out);
                }
            }
            Op::Filter(builtin) => {
                if builtin.holds(&self.bindings) {
                    self.step(plan, depth + 1, pred_map, store, indexes, delta, out);
                }
            }
        }
    }

    /// Applies an atom's non-key actions against a candidate tuple.
    #[inline]
    fn try_match(&mut self, ap: &crate::plan::AtomPlan, tuple: &Tuple) -> bool {
        use crate::plan::SlotAction;
        for &(pos, action) in &ap.rest {
            let value = tuple[pos];
            match action {
                SlotAction::Bind(v) => self.bindings[v as usize] = Some(value),
                SlotAction::CheckVar(v) => {
                    if self.bindings[v as usize] != Some(value) {
                        return false;
                    }
                }
                SlotAction::CheckConst(c) => {
                    if c != value {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Clears the bindings an atom wrote (its static `binds` list).
    #[inline]
    fn reset(&mut self, ap: &crate::plan::AtomPlan) {
        for &v in &ap.binds {
            self.bindings[v as usize] = None;
        }
    }
}

/// Convenience: compiles and evaluates a program over a database instance
/// with the indexed engine. Callers that evaluate the same program more than
/// once should compile once ([`CompiledProgram::compile`], or
/// [`crate::plan_cache::PlanCache`] for cross-call reuse) and call
/// [`CompiledProgram::run`] instead.
pub fn evaluate(program: &Program, db: &DatabaseInstance) -> Result<RelationStore, EngineError> {
    Ok(CompiledProgram::compile(program)?.run(db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BodyLiteral, Builtin, DlAtom, DlTerm, Rule};

    fn pred(name: &str, arity: usize) -> Predicate {
        Predicate::new(name, arity)
    }

    fn atom(name: &str, vars: &[&str]) -> DlAtom {
        DlAtom::new(
            pred(name, vars.len()),
            vars.iter().map(|v| DlTerm::var(v)).collect(),
        )
    }

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    fn chain_db(n: usize) -> DatabaseInstance {
        let mut db = DatabaseInstance::new();
        for i in 0..n {
            db.insert_parsed("E", &format!("n{i}"), &format!("n{}", i + 1));
        }
        db
    }

    fn reachability_program() -> Program {
        let mut p = Program::new();
        p.declare_edb(pred("E", 2));
        p.add_rule(Rule::new(
            atom("path", &["X", "Y"]),
            vec![BodyLiteral::Positive(atom("E", &["X", "Y"]))],
        ));
        p.add_rule(Rule::new(
            atom("path", &["X", "Z"]),
            vec![
                BodyLiteral::Positive(atom("path", &["X", "Y"])),
                BodyLiteral::Positive(atom("E", &["Y", "Z"])),
            ],
        ));
        p
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let db = chain_db(5);
        let store = evaluate(&reachability_program(), &db).unwrap();
        let path = pred("path", 2);
        // 6 nodes, closure of a chain has n(n+1)/2 = 15 pairs.
        assert_eq!(store.len(path), 15);
        assert!(store.contains(path, &[sym("n0"), sym("n5")]));
        assert!(!store.contains(path, &[sym("n5"), sym("n0")]));
    }

    #[test]
    fn compiled_programs_are_reusable_across_instances() {
        let compiled = CompiledProgram::compile(&reachability_program()).unwrap();
        let evaluator = Evaluator::new(&compiled);
        let path = pred("path", 2);
        assert_eq!(evaluator.run(&chain_db(5)).len(path), 15);
        assert_eq!(evaluator.run(&chain_db(3)).len(path), 6);
        // Again with the first instance: the shared plans are not consumed.
        assert_eq!(compiled.run(&chain_db(5)).len(path), 15);
    }

    #[test]
    fn closure_of_a_cycle_terminates() {
        let mut db = chain_db(3);
        db.insert_parsed("E", "n3", "n0");
        let store = evaluate(&reachability_program(), &db).unwrap();
        let path = pred("path", 2);
        // Four nodes on a cycle: every node reaches every node, 16 pairs.
        assert_eq!(store.len(path), 16);
    }

    #[test]
    fn stratified_negation_complement() {
        let mut program = reachability_program();
        program.declare_edb(pred("adom", 1));
        program.add_rule(Rule::new(
            atom("unreach", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("adom", &["X"])),
                BodyLiteral::Positive(atom("adom", &["Y"])),
                BodyLiteral::Negative(atom("path", &["X", "Y"])),
            ],
        ));
        let db = chain_db(2);
        let store = evaluate(&program, &db).unwrap();
        let unreach = pred("unreach", 2);
        assert!(store.contains(unreach, &[sym("n2"), sym("n0")]));
        assert!(!store.contains(unreach, &[sym("n0"), sym("n2")]));
        // Every node "unreaches" itself (no self-loops in a chain).
        assert!(store.contains(unreach, &[sym("n1"), sym("n1")]));
    }

    #[test]
    fn checkpointability_follows_negation_and_edb_dependence() {
        // Pure monotone EDB-closure: every stratum is checkpointable.
        let monotone = CompiledProgram::compile(&reachability_program()).unwrap();
        assert!(monotone.strata.iter().all(|s| s.checkpointable));
        assert!(monotone.has_checkpointable_strata());
        assert!(
            monotone.strata.iter().any(|s| !s.resume_plans.is_empty()),
            "monotone strata need resume plans"
        );

        // Adding a negation-dependent stratum: `path` stays checkpointable,
        // `unreach` (negating it) does not.
        let mut program = reachability_program();
        program.declare_edb(pred("adom", 1));
        program.add_rule(Rule::new(
            atom("unreach", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("adom", &["X"])),
                BodyLiteral::Positive(atom("adom", &["Y"])),
                BodyLiteral::Negative(atom("path", &["X", "Y"])),
            ],
        ));
        let mixed = CompiledProgram::compile(&program).unwrap();
        let flags: Vec<bool> = mixed.strata.iter().map(|s| s.checkpointable).collect();
        assert!(
            flags.contains(&true) && flags.contains(&false),
            "expected a mix of checkpointable and not, got {flags:?}"
        );
        // A stratum depending (positively) on a non-checkpointable one is
        // itself not checkpointable: derived-from-unreach can't resume.
        let mut tainted = program;
        tainted.add_rule(Rule::new(
            atom("tainted", &["X"]),
            vec![BodyLiteral::Positive(atom("unreach", &["X", "X"]))],
        ));
        let compiled = CompiledProgram::compile(&tainted).unwrap();
        let tainted_stratum = compiled
            .strata
            .iter()
            .find(|s| {
                s.full_plans
                    .iter()
                    .any(|p| compiled.preds.predicate(p.head_pred).name.as_str() == "tainted")
            })
            .expect("tainted stratum");
        assert!(!tainted_stratum.checkpointable);
    }

    #[test]
    fn resume_from_checkpoint_matches_scratch() {
        // Freeze a chain prefix, checkpoint it, then overlay edges that both
        // extend the chain and merge into it; the resumed store must equal a
        // from-scratch run on the raw base, for a monotone program and for
        // one with a negation-dependent stratum on top.
        let mut program = reachability_program();
        program.declare_edb(pred("adom", 1));
        program.add_rule(Rule::new(
            atom("unreach", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("adom", &["X"])),
                BodyLiteral::Positive(atom("adom", &["Y"])),
                BodyLiteral::Negative(atom("path", &["X", "Y"])),
            ],
        ));
        let compiled = CompiledProgram::compile(&program).unwrap();

        let base = crate::store::edb_base_from_instance(&chain_db(6));
        let checkpointed = compiled.checkpoint_base(&base);
        let mut delta = DatabaseInstance::new();
        delta.insert_parsed("E", "n6", "n7"); // extends the chain
        delta.insert_parsed("E", "m0", "n0"); // new source merging in
        let options = EvalOptions::sequential();
        let (scratch, scratch_stats) =
            compiled.run_on_store_with_stats(crate::store::edb_overlay_on(&base, &delta), &options);
        let (resumed, resumed_stats) = compiled.resume_on_store_with_stats(
            crate::store::edb_overlay_on(&checkpointed, &delta),
            &options,
        );
        let path = pred("path", 2);
        let unreach = pred("unreach", 2);
        for p in [path, unreach] {
            assert_eq!(resumed.len(p), scratch.len(p), "{p:?} cardinality drifted");
        }
        assert!(resumed.contains(path, &[sym("m0"), sym("n7")]));
        assert!(resumed_stats.checkpoint_hits > 0, "{resumed_stats:?}");
        assert_eq!(scratch_stats.checkpoint_hits, 0);
        assert!(
            resumed_stats.tuples_derived < scratch_stats.tuples_derived,
            "resume must skip the prefix-internal closure ({} vs {})",
            resumed_stats.tuples_derived,
            scratch_stats.tuples_derived
        );

        // An empty overlay resumes to exactly the checkpointed fixpoint.
        let empty = DatabaseInstance::new();
        let (idle, idle_stats) = compiled.resume_on_store_with_stats(
            crate::store::edb_overlay_on(&checkpointed, &empty),
            &options,
        );
        let (full, _) =
            compiled.run_on_store_with_stats(crate::store::edb_overlay_on(&base, &empty), &options);
        assert_eq!(idle.len(path), full.len(path));
        assert_eq!(idle.len(unreach), full.len(unreach));
        // Checkpointable strata derive nothing on an empty overlay; only the
        // negation-dependent stratum re-runs, so the resumed derivation
        // count is exactly the re-derived `unreach` tuples.
        assert_eq!(
            idle_stats.tuples_derived,
            idle.len(unreach) as u64,
            "an empty overlay must re-derive only the non-checkpointable strata"
        );
    }

    #[test]
    fn builtins_filter_bindings() {
        let mut program = Program::new();
        program.declare_edb(pred("E", 2));
        program.add_rule(Rule::new(
            atom("loopless", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("E", &["X", "Y"])),
                BodyLiteral::Builtin(Builtin::Neq(DlTerm::var("X"), DlTerm::var("Y"))),
            ],
        ));
        let mut db = DatabaseInstance::new();
        db.insert_parsed("E", "a", "a");
        db.insert_parsed("E", "a", "b");
        let store = evaluate(&program, &db).unwrap();
        assert_eq!(store.len(pred("loopless", 2)), 1);
        assert!(store.contains(pred("loopless", 2), &[sym("a"), sym("b")]));
    }

    #[test]
    fn key_consistent_builtin_semantics() {
        use crate::plan::{CompiledBuiltin, Slot};
        let bindings = [
            Some(sym("a")), // X1
            Some(sym("b")), // Y1
            Some(sym("a")), // X2
            Some(sym("c")), // Y2
        ];
        let v = |i: u32| Slot::Var(i);
        let conflicting = CompiledBuiltin::KeyConsistent(v(0), v(1), v(2), v(3));
        assert!(!conflicting.holds(&bindings));
        let same_value = CompiledBuiltin::KeyConsistent(v(0), v(1), v(2), v(1));
        assert!(same_value.holds(&bindings));
        let different_key = CompiledBuiltin::KeyConsistent(v(0), v(1), v(1), v(3));
        assert!(different_key.holds(&bindings));
    }

    #[test]
    fn unsafe_rules_are_rejected() {
        let mut program = Program::new();
        program.declare_edb(pred("E", 2));
        program.add_rule(Rule::new(
            atom("bad", &["X", "Z"]),
            vec![BodyLiteral::Positive(atom("E", &["X", "Y"]))],
        ));
        let db = chain_db(1);
        assert!(matches!(
            CompiledProgram::compile(&program),
            Err(EngineError::UnsafeRule(_))
        ));
        assert!(matches!(
            evaluate(&program, &db),
            Err(EngineError::UnsafeRule(_))
        ));
        assert!(matches!(
            reference::evaluate_scan(&program, &db),
            Err(EngineError::UnsafeRule(_))
        ));
    }

    #[test]
    fn constants_in_rules_are_matched() {
        let mut program = Program::new();
        program.declare_edb(pred("E", 2));
        program.add_rule(Rule::new(
            atom("from_a", &["Y"]),
            vec![BodyLiteral::Positive(DlAtom::new(
                pred("E", 2),
                vec![DlTerm::constant("a"), DlTerm::var("Y")],
            ))],
        ));
        let mut db = DatabaseInstance::new();
        db.insert_parsed("E", "a", "b");
        db.insert_parsed("E", "c", "d");
        let store = evaluate(&program, &db).unwrap();
        assert_eq!(store.len(pred("from_a", 1)), 1);
        assert!(store.contains(pred("from_a", 1), &[sym("b")]));
    }

    #[test]
    fn constants_in_recursive_rules_are_matched() {
        // Reaches-from-a through delta rounds: the recursive rule carries a
        // constant, exercising probe keys that mix constants and variables.
        let mut program = Program::new();
        program.declare_edb(pred("E", 2));
        program.add_rule(Rule::new(
            atom("r", &["Y"]),
            vec![BodyLiteral::Positive(DlAtom::new(
                pred("E", 2),
                vec![DlTerm::constant("n0"), DlTerm::var("Y")],
            ))],
        ));
        program.add_rule(Rule::new(
            atom("r", &["Z"]),
            vec![
                BodyLiteral::Positive(atom("r", &["Y"])),
                BodyLiteral::Positive(atom("E", &["Y", "Z"])),
            ],
        ));
        let db = chain_db(4);
        let store = evaluate(&program, &db).unwrap();
        assert_eq!(store.len(pred("r", 1)), 4);
        assert!(store.contains(pred("r", 1), &[sym("n4")]));
    }

    #[test]
    fn adom_predicate_is_populated() {
        let db = chain_db(2);
        let store = edb_from_instance(&db);
        assert_eq!(store.len(pred("adom", 1)), 3);
        assert_eq!(store.unary(pred("adom", 1)).unwrap().len(), 3);
    }

    #[test]
    fn unary_rejects_wrong_arities() {
        let db = chain_db(2);
        let store = edb_from_instance(&db);
        assert!(matches!(
            store.unary(pred("E", 2)),
            Err(EngineError::ArityMismatch { expected: 1, .. })
        ));
    }

    #[test]
    fn store_accessors_expose_relations_without_internals() {
        let db = chain_db(3);
        let store = evaluate(&reachability_program(), &db).unwrap();
        let path_id = store.pred_id(pred("path", 2)).expect("path was derived");
        assert_eq!(store.len_of(path_id), store.len(pred("path", 2)));
        // iter_relations covers E, adom and path, with consistent lengths.
        let mut seen = std::collections::BTreeMap::new();
        for (p, tuples) in store.iter_relations() {
            seen.insert(p, tuples.len());
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[&pred("E", 2)], 3);
        assert_eq!(seen[&pred("path", 2)], 6);
        assert!(store.pred_id(pred("nonexistent", 1)).is_none());
    }

    #[test]
    fn evaluation_over_an_overlay_matches_fresh_load() {
        // The layered entry: a base of the first half of the chain, an
        // overlay with the second half, evaluated without ever copying the
        // base — against a fresh load of the full instance. The base indexes
        // are built during the first run only.
        let full = chain_db(9);
        let mut prefix = DatabaseInstance::new();
        let mut delta = DatabaseInstance::new();
        for (i, &fact) in full.facts().iter().enumerate() {
            if i < 5 {
                prefix.insert(fact);
            } else {
                delta.insert(fact);
            }
        }
        let compiled = CompiledProgram::compile(&reachability_program()).unwrap();
        let fresh =
            compiled.run_on_store_with(edb_from_instance(&full), &EvalOptions::sequential());

        let base = edb_base_from_instance(&prefix);
        let (layered, stats) = compiled
            .run_on_store_with_stats(edb_overlay_on(&base, &delta), &EvalOptions::sequential());
        assert_eq!(layered, fresh);
        assert!(stats.base_index_builds > 0, "first run builds base indexes");

        let (again, stats2) = compiled
            .run_on_store_with_stats(edb_overlay_on(&base, &delta), &EvalOptions::sequential());
        assert_eq!(again, fresh);
        assert_eq!(stats2.base_index_builds, 0, "second run reuses them");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i/j index several matrices at once
    fn semi_naive_matches_naive_on_random_graphs() {
        // Cross-check the engine against a straightforward reachability
        // computation on pseudo-random graphs.
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 8;
            let mut db = DatabaseInstance::new();
            let mut edges = Vec::new();
            for _ in 0..14 {
                let a = (next() % n) as usize;
                let b = (next() % n) as usize;
                db.insert_parsed("E", &format!("v{a}"), &format!("v{b}"));
                edges.push((a, b));
            }
            let store = evaluate(&reachability_program(), &db).unwrap();
            // Floyd-Warshall style ground truth.
            let mut reach = vec![vec![false; n as usize]; n as usize];
            for &(a, b) in &edges {
                reach[a][b] = true;
            }
            for k in 0..n as usize {
                for i in 0..n as usize {
                    for j in 0..n as usize {
                        if reach[i][k] && reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
            for i in 0..n as usize {
                for j in 0..n as usize {
                    let expected = reach[i][j];
                    let got = store.contains(
                        pred("path", 2),
                        &[sym(&format!("v{i}")), sym(&format!("v{j}"))],
                    );
                    assert_eq!(expected, got, "reachability mismatch {i}->{j}");
                }
            }
        }
    }

    #[test]
    fn indexed_and_scan_engines_agree_on_negation_and_builtins() {
        let mut program = reachability_program();
        program.declare_edb(pred("adom", 1));
        program.add_rule(Rule::new(
            atom("unreach", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("adom", &["X"])),
                BodyLiteral::Positive(atom("adom", &["Y"])),
                BodyLiteral::Negative(atom("path", &["X", "Y"])),
                BodyLiteral::Builtin(Builtin::Neq(DlTerm::var("X"), DlTerm::var("Y"))),
            ],
        ));
        let mut db = chain_db(4);
        db.insert_parsed("E", "n4", "n1");
        let indexed = evaluate(&program, &db).unwrap();
        let scanned = reference::evaluate_scan(&program, &db).unwrap();
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn store_equality_is_order_insensitive() {
        let mut a = RelationStore::new();
        let mut b = RelationStore::new();
        let p = pred("p", 1);
        a.insert(p, [sym("x")]);
        a.insert(p, [sym("y")]);
        b.insert(p, [sym("y")]);
        b.insert(p, [sym("x")]);
        assert_eq!(a, b);
        b.insert(p, [sym("z")]);
        assert_ne!(a, b);
    }
}
