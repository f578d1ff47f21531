//! Differential maintenance of the materialized IDB across APPEND/RETRACT.
//!
//! PR 8's checkpointed derivation only helps monotone EDB-only strata (~30% of
//! derived tuples for generated CQA programs); everything behind `not key_R`
//! negation still re-derives from scratch on every mutation. This module closes
//! that gap with classic incremental view maintenance:
//!
//! - **Counting maintenance** for strata whose rules have *no positive
//!   same-stratum body factor* (non-recursive within the stratum): we keep an
//!   exact per-tuple derivation count and apply signed delta rules
//!   (telescoping `Σ_j new(F1..Fj-1) · Δ(Fj) · old(Fj+1..Fn)`), so each
//!   mutation costs O(change), with 0→positive transitions inserting and
//!   positive→0 transitions deleting.
//! - **DRed (delete-and-rederive)** for the remaining strata: overdelete
//!   everything reachable from removed/negated-added support, physically
//!   remove it, rederive the survivors from the *new* state, then run a
//!   standard semi-naive insertion pass for the added support.
//!
//! Both paths evaluate rules against a two-state view of the store (OLD =
//! pre-mutation, NEW = post-mutation) reconstructed from per-predicate
//! added/removed delta sets, so the maintained [`RelationStore`] is updated in
//! place without a second copy of the database.
//!
//! The maintained store is a *flat* (non-layered) [`RelationStore`]; it never
//! holds an `Arc` back to the shared base, so LRU eviction of a tenant base
//! drops the maintained state with it.
//!
//! Correctness bar: after [`maintain`] returns [`MaintainVerdict::Maintained`],
//! the store is set-equal to a from-scratch derivation over the mutated EDB.
//! Unit tests in this module and the differential suites in
//! `crates/solver`/`crates/server` enforce byte-identical agreement.

use std::collections::{BTreeMap, VecDeque};

use cqa_core::symbol::Symbol;
use cqa_db::fact::Fact;
use cqa_db::instance::DatabaseInstance;

use crate::ast::{BodyLiteral, Predicate, Program, RuleVars};
use crate::engine::CompiledProgram;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::parallel::EvalStats;
use crate::plan::{CompiledBuiltin, Slot};
use crate::store::{project_onto_mask, PredId, PredTable, RelationStore};
use crate::tuple::Tuple;

/// Fallback threshold: maintenance is considered unprofitable when
/// `change * PROFITABILITY_FACTOR > total_tuples` in the maintained store.
/// Measured crossover data lives in ROADMAP.md.
const PROFITABILITY_FACTOR: usize = 8;

const SKIP_NONE: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Compiled maintenance plan
// ---------------------------------------------------------------------------

/// One body factor of a maintenance rule: a positive or negative relational
/// atom. Builtins are kept separately (they are state-independent).
#[derive(Debug)]
pub(crate) struct MFactor {
    pred: PredId,
    args: Vec<Slot>,
    negated: bool,
    same_stratum: bool,
}

/// A rule compiled for maintenance evaluation: head template + relational
/// factors (positives first, then negatives — rule safety guarantees every
/// negative factor is fully bound by the preceding positives) + builtins.
#[derive(Debug)]
pub(crate) struct MRule {
    head_pred: PredId,
    head: Vec<Slot>,
    factors: Vec<MFactor>,
    builtins: Vec<CompiledBuiltin>,
    num_vars: usize,
}

/// A stratum's maintenance plan: the predicates it defines, its rules, and
/// whether exact counting applies (no rule has a positive same-stratum
/// factor, i.e. the stratum is non-recursive).
#[derive(Debug)]
pub(crate) struct MStratum {
    preds: Vec<PredId>,
    rules: Vec<MRule>,
    counting: bool,
}

/// Per-program maintenance plan, built once in [`CompiledProgram::compile`].
#[derive(Debug, Default)]
pub(crate) struct MaintainProgram {
    strata: Vec<MStratum>,
}

impl MaintainProgram {
    /// Compile per-stratum maintenance plans. `strata` and `numberings` come
    /// straight from stratification/compilation; predicates are interned into
    /// the same [`PredTable`] the engine uses (idempotent — every predicate
    /// here already appears in the engine's plans).
    pub(crate) fn build(
        program: &Program,
        strata: &[Vec<Predicate>],
        numberings: &[RuleVars],
        preds: &mut PredTable,
    ) -> MaintainProgram {
        let mut out = Vec::with_capacity(strata.len());
        for level in strata {
            let members: FxHashSet<Predicate> = level.iter().copied().collect();
            let pred_ids: Vec<PredId> = level.iter().map(|&p| preds.intern(p)).collect();
            let mut rules = Vec::new();
            for (rule, vars) in program.rules.iter().zip(numberings) {
                if !members.contains(&rule.head.pred) {
                    continue;
                }
                let head_pred = preds.intern(rule.head.pred);
                let head: Vec<Slot> = rule.head.args.iter().map(|t| Slot::of(t, vars)).collect();
                let mut factors = Vec::new();
                let mut builtins = Vec::new();
                // Positives in body order first, negatives after: safety
                // guarantees negatives are ground once positives bound.
                for lit in &rule.body {
                    if let BodyLiteral::Positive(atom) = lit {
                        factors.push(MFactor {
                            pred: preds.intern(atom.pred),
                            args: atom.args.iter().map(|t| Slot::of(t, vars)).collect(),
                            negated: false,
                            same_stratum: members.contains(&atom.pred),
                        });
                    }
                }
                for lit in &rule.body {
                    match lit {
                        BodyLiteral::Negative(atom) => {
                            factors.push(MFactor {
                                pred: preds.intern(atom.pred),
                                args: atom.args.iter().map(|t| Slot::of(t, vars)).collect(),
                                negated: true,
                                same_stratum: members.contains(&atom.pred),
                            });
                        }
                        BodyLiteral::Builtin(b) => builtins.push(CompiledBuiltin::of(b, vars)),
                        BodyLiteral::Positive(_) => {}
                    }
                }
                rules.push(MRule {
                    head_pred,
                    head,
                    factors,
                    builtins,
                    num_vars: vars.count(),
                });
            }
            let counting = rules
                .iter()
                .all(|r| r.factors.iter().all(|f| !f.same_stratum || f.negated));
            out.push(MStratum {
                preds: pred_ids,
                rules,
                counting,
            });
        }
        MaintainProgram { strata: out }
    }
}

// ---------------------------------------------------------------------------
// Maintained state
// ---------------------------------------------------------------------------

/// The maintained materialized IDB for one (base, program) resident: a flat
/// relation store holding EDB ∪ IDB after the last maintained mutation, the
/// delta instance it corresponds to, and per-tuple derivation counts for
/// counting-eligible strata.
#[derive(Debug)]
pub struct MaintainedIdb {
    store: RelationStore,
    delta: DatabaseInstance,
    counts: FxHashMap<PredId, FxHashMap<Tuple, u64>>,
}

impl MaintainedIdb {
    /// The maintained store (flat: EDB ∪ IDB, no base layering).
    pub fn store(&self) -> &RelationStore {
        &self.store
    }

    /// Total tuple count in the maintained store (for LRU accounting).
    pub fn total_tuples(&self) -> usize {
        self.store.total_tuples()
    }
}

/// Outcome of a [`maintain`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainVerdict {
    /// The delta is semantically identical to the maintained one — nothing to
    /// do, the maintained store is already current.
    PureHit,
    /// Maintenance ran; the store now reflects the new delta.
    Maintained,
    /// The change ratio made maintenance unprofitable (and fallback was
    /// allowed); the state was left untouched — rebuild from scratch.
    Unprofitable,
}

/// Build the initial maintained state from a freshly derived fixpoint store.
/// Flattens the (possibly layered) fixpoint and runs one counting sweep over
/// counting-eligible strata so later deletions can decrement exact counts.
pub fn bootstrap(
    compiled: &CompiledProgram,
    fixpoint: &RelationStore,
    delta: &DatabaseInstance,
) -> MaintainedIdb {
    let mut store = fixpoint.flatten();
    let mut counts: FxHashMap<PredId, FxHashMap<Tuple, u64>> = FxHashMap::default();
    let pred_map = intern_map(compiled, &mut store);
    let empty_added: Vec<FxHashSet<Tuple>> = vec![FxHashSet::default(); pred_map.len()];
    let empty_removed: Vec<FxHashSet<Tuple>> = vec![FxHashSet::default(); pred_map.len()];
    let mut matcher = Matcher::default();
    for stratum in &compiled.maintain.strata {
        if !stratum.counting || stratum.rules.is_empty() {
            continue;
        }
        let ctx = Ctx {
            store: &store,
            pred_map: &pred_map,
            added: &empty_added,
            removed: &empty_removed,
        };
        for rule in &stratum.rules {
            matcher.prepare(rule);
            let mut found: Vec<(PredId, Tuple)> = Vec::new();
            matcher.join(rule, &ctx, Mode::AllNew, SKIP_NONE, 0, &mut |env| {
                let head: Tuple = rule.head.iter().map(|s| s.resolve(env)).collect();
                found.push((rule.head_pred, head));
                false
            });
            for (pid, head) in found {
                *counts.entry(pid).or_default().entry(head).or_insert(0) += 1;
            }
        }
    }
    MaintainedIdb {
        store,
        delta: delta.clone(),
        counts,
    }
}

/// Differentially maintain `state` from its recorded delta to `delta`.
///
/// `prefix` is the shared base instance (facts in it mask the delta diff —
/// they are present regardless of the delta side). When `force` is false,
/// a change ratio above the profitability threshold returns
/// [`MaintainVerdict::Unprofitable`] with the state untouched.
pub fn maintain(
    compiled: &CompiledProgram,
    state: &mut MaintainedIdb,
    prefix: &DatabaseInstance,
    delta: &DatabaseInstance,
    force: bool,
    stats: &mut EvalStats,
) -> MaintainVerdict {
    let diff = edb_diff(prefix, &state.delta, delta);
    if diff.change == 0 {
        // Semantically identical delta (possibly a different object).
        state.delta = delta.clone();
        stats.maintained_hits += 1;
        return MaintainVerdict::PureHit;
    }
    if !force && diff.change * PROFITABILITY_FACTOR > state.store.total_tuples() {
        return MaintainVerdict::Unprofitable;
    }
    let timer = cqa_obs::Stopwatch::start();

    let pred_map = intern_map(compiled, &mut state.store);
    let npreds = compiled.preds().len();
    let mut added: Vec<FxHashSet<Tuple>> = vec![FxHashSet::default(); npreds];
    let mut removed: Vec<FxHashSet<Tuple>> = vec![FxHashSet::default(); npreds];

    // Apply the EDB diff to the store, tracking effective changes per
    // predicate known to the compiled program. Unknown predicates are still
    // applied so the store mirrors a from-scratch overlay byte for byte.
    for (pred, adds, rems) in &diff.entries {
        let pid = compiled.preds().lookup(*pred);
        for t in adds {
            if state.store.insert(*pred, t.clone()) {
                if let Some(pid) = pid {
                    added[pid.index()].insert(t.clone());
                }
            }
        }
        for t in rems {
            if state.store.remove(*pred, t) {
                if let Some(pid) = pid {
                    removed[pid.index()].insert(t.clone());
                }
            }
        }
    }

    let g0 = state.store.generation();
    let mut matcher = Matcher::default();
    for stratum in &compiled.maintain.strata {
        if stratum.rules.is_empty() {
            continue;
        }
        if stratum.counting {
            counting_pass(
                stratum,
                &mut state.store,
                &mut state.counts,
                compiled.preds(),
                &pred_map,
                &mut added,
                &mut removed,
                &mut matcher,
                stats,
            );
        } else {
            dred_pass(
                stratum,
                &mut state.store,
                compiled.preds(),
                &pred_map,
                &mut added,
                &mut removed,
                &mut matcher,
                stats,
            );
        }
    }

    state.delta = delta.clone();
    stats.maintained_hits += 1;
    stats.tuples_derived += state.store.generation().saturating_sub(g0);
    // For maintained answers the repair pass *is* the evaluation; surface
    // its duration through the same field a fixpoint run would use.
    let ns = timer.elapsed_ns();
    stats.eval_ns += ns;
    cqa_obs::record_span(cqa_obs::Span::MaintainRepair, ns);
    MaintainVerdict::Maintained
}

fn intern_map(compiled: &CompiledProgram, store: &mut RelationStore) -> Vec<PredId> {
    // Maps each compiled-program PredId index to the store's own PredId,
    // mirroring the engine's run-time interning step.
    compiled
        .preds()
        .iter()
        .map(|(_, pred)| store.intern(pred))
        .collect()
}

// ---------------------------------------------------------------------------
// EDB diff
// ---------------------------------------------------------------------------

struct EdbDiff {
    /// Per predicate: (pred, added tuples, removed tuples).
    entries: Vec<(Predicate, Vec<Tuple>, Vec<Tuple>)>,
    change: usize,
}

/// (key, value) constant pair of a binary EDB fact.
type FactPair = (cqa_db::fact::Constant, cqa_db::fact::Constant);

fn edb_diff(prefix: &DatabaseInstance, old: &DatabaseInstance, new: &DatabaseInstance) -> EdbDiff {
    let mut by_rel: BTreeMap<
        cqa_core::symbol::RelName,
        (FxHashSet<FactPair>, FxHashSet<FactPair>),
    > = BTreeMap::new();
    for f in old.facts() {
        by_rel.entry(f.rel).or_default().0.insert((f.key, f.value));
    }
    for f in new.facts() {
        by_rel.entry(f.rel).or_default().1.insert((f.key, f.value));
    }
    let mut entries = Vec::new();
    let mut change = 0usize;
    for (rel, (old_set, new_set)) in &by_rel {
        let mut adds = Vec::new();
        let mut rems = Vec::new();
        for &(k, v) in new_set.iter() {
            if !old_set.contains(&(k, v)) && !prefix.contains(&Fact::new(*rel, k, v)) {
                adds.push(Tuple::from([k.symbol(), v.symbol()]));
            }
        }
        for &(k, v) in old_set.iter() {
            if !new_set.contains(&(k, v)) && !prefix.contains(&Fact::new(*rel, k, v)) {
                rems.push(Tuple::from([k.symbol(), v.symbol()]));
            }
        }
        if adds.is_empty() && rems.is_empty() {
            continue;
        }
        change += adds.len() + rems.len();
        entries.push((
            Predicate {
                name: rel.symbol(),
                arity: 2,
            },
            adds,
            rems,
        ));
    }
    // Active-domain unary predicate: adom(c) for every constant in the
    // combined instance. Diff the delta-side adoms masked by the prefix adom.
    let mut adom_adds = Vec::new();
    let mut adom_rems = Vec::new();
    for c in new.adom().difference(old.adom()) {
        if !prefix.adom().contains(c) {
            adom_adds.push(Tuple::from([c.symbol()]));
        }
    }
    for c in old.adom().difference(new.adom()) {
        if !prefix.adom().contains(c) {
            adom_rems.push(Tuple::from([c.symbol()]));
        }
    }
    if !adom_adds.is_empty() || !adom_rems.is_empty() {
        change += adom_adds.len() + adom_rems.len();
        entries.push((Predicate::new("adom", 1), adom_adds, adom_rems));
    }
    EdbDiff { entries, change }
}

// ---------------------------------------------------------------------------
// Two-state evaluation context
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum StateSel {
    Old,
    New,
}

#[derive(Clone, Copy)]
enum Mode {
    AllOld,
    AllNew,
    /// Telescoping split at factor `j`: factors before `j` are NEW, after
    /// are OLD (the driving factor `j` itself is skipped).
    Split(usize),
}

impl Mode {
    fn state(self, k: usize) -> StateSel {
        match self {
            Mode::AllOld => StateSel::Old,
            Mode::AllNew => StateSel::New,
            Mode::Split(j) => {
                if k < j {
                    StateSel::New
                } else {
                    StateSel::Old
                }
            }
        }
    }
}

struct Ctx<'a> {
    store: &'a RelationStore,
    pred_map: &'a [PredId],
    added: &'a [FxHashSet<Tuple>],
    removed: &'a [FxHashSet<Tuple>],
}

impl Ctx<'_> {
    /// Membership of `tuple` in predicate `pid` under the selected state.
    /// The store always holds the NEW state (phase ordering guarantees this
    /// for same-stratum predicates too: DRed phase 1 runs before any store
    /// mutation of its own stratum, so same-stratum OLD == store there).
    fn member(&self, state: StateSel, pid: PredId, tuple: &[Symbol]) -> bool {
        let spid = self.pred_map[pid.index()];
        let in_store = self.store.contains_by_id(spid, tuple);
        match state {
            StateSel::New => in_store,
            StateSel::Old => {
                (in_store && !self.added[pid.index()].contains(tuple))
                    || self.removed[pid.index()].contains(tuple)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Two-state recursive-join matcher
// ---------------------------------------------------------------------------

/// A lazily extended `(store predicate, bound-mask)` index over cloned
/// tuples. Unlike the engine's append-only indexes, maintained relations
/// shrink (`swap_remove` shuffles positions), so buckets hold tuple *values*
/// and the whole index is invalidated after a removal batch on its predicate.
struct MIndex {
    upto: usize,
    entries: FxHashMap<Tuple, Vec<Tuple>>,
}

fn projection(t: &Tuple, mask: u32) -> Tuple {
    let mut proj = Tuple::default();
    project_onto_mask(t, mask, &mut proj);
    proj
}

#[derive(Default)]
struct MIndexes {
    map: FxHashMap<(usize, u32), MIndex>,
}

impl MIndexes {
    fn bucket(
        &mut self,
        store: &RelationStore,
        spid: PredId,
        mask: u32,
        key: &Tuple,
    ) -> Option<&Vec<Tuple>> {
        let idx = self
            .map
            .entry((spid.index(), mask))
            .or_insert_with(|| MIndex {
                upto: 0,
                entries: FxHashMap::default(),
            });
        let tuples = store.tuples_by_id(spid);
        if idx.upto < tuples.len() {
            for t in tuples.iter().skip(idx.upto) {
                let k = projection(t, mask);
                idx.entries.entry(k).or_default().push(t.clone());
            }
            idx.upto = tuples.len();
        }
        idx.entries.get(key)
    }

    /// Drops every index over `spid` — must be called after any batch of
    /// removals on that predicate and before its next probe.
    fn invalidate(&mut self, spid: PredId) {
        self.map.retain(|&(p, _), _| p != spid.index());
    }
}

/// Recursive-join evaluator over the two-state [`Ctx`] view. One instance is
/// reused across rules and strata within a maintenance run; its indexes are
/// invalidated per predicate when that predicate shrinks.
#[derive(Default)]
struct Matcher {
    env: Vec<Option<Symbol>>,
    indexes: MIndexes,
}

impl Matcher {
    fn prepare(&mut self, rule: &MRule) {
        self.env.clear();
        self.env.resize(rule.num_vars, None);
    }

    /// Binds `tuple` against `args` in sequence: constants and already-bound
    /// variables compare, unbound variables bind. On a comparison failure
    /// earlier bindings from this call may remain — callers reset via their
    /// own binds list or by re-`prepare`ing.
    fn try_bind(&mut self, args: &[Slot], tuple: &[Symbol]) -> bool {
        debug_assert_eq!(args.len(), tuple.len());
        for (slot, &sym) in args.iter().zip(tuple) {
            match slot {
                Slot::Const(c) => {
                    if *c != sym {
                        return false;
                    }
                }
                Slot::Var(v) => match self.env[*v as usize] {
                    Some(b) => {
                        if b != sym {
                            return false;
                        }
                    }
                    None => self.env[*v as usize] = Some(sym),
                },
            }
        }
        true
    }

    /// Joins the rule's factors from `depth` on, skipping the (already
    /// bound) driving factor `skip`, with each factor `k` evaluated in state
    /// `mode.state(k)`. Calls `on_match` at every full assignment satisfying
    /// the builtins; returns true iff the callback requested early exit.
    fn join(
        &mut self,
        rule: &MRule,
        ctx: &Ctx<'_>,
        mode: Mode,
        skip: usize,
        depth: usize,
        on_match: &mut dyn FnMut(&[Option<Symbol>]) -> bool,
    ) -> bool {
        if depth == rule.factors.len() {
            if rule.builtins.iter().all(|b| b.holds(&self.env)) {
                return on_match(&self.env);
            }
            return false;
        }
        if depth == skip {
            return self.join(rule, ctx, mode, skip, depth + 1, on_match);
        }
        let factor = &rule.factors[depth];
        let state = mode.state(depth);
        let arity = factor.args.len();

        if factor.negated {
            // Fully bound by rule safety (positives precede negatives; a
            // driving negative factor binds its own variables).
            let ground: Tuple = factor.args.iter().map(|s| s.resolve(&self.env)).collect();
            if !ctx.member(state, factor.pred, &ground) {
                return self.join(rule, ctx, mode, skip, depth + 1, on_match);
            }
            return false;
        }

        // Positive factor: classify positions.
        let mut mask = 0u32;
        let mut binds: Vec<u32> = Vec::new();
        for (i, slot) in factor.args.iter().enumerate() {
            match slot {
                Slot::Const(_) => mask |= 1 << i,
                Slot::Var(v) => {
                    if self.env[*v as usize].is_some() {
                        mask |= 1 << i;
                    } else if !binds.contains(v) {
                        binds.push(*v);
                    }
                }
            }
        }
        if mask == (1u32 << arity) - 1 {
            let ground: Tuple = factor.args.iter().map(|s| s.resolve(&self.env)).collect();
            if ctx.member(state, factor.pred, &ground) {
                return self.join(rule, ctx, mode, skip, depth + 1, on_match);
            }
            return false;
        }

        let spid = ctx.pred_map[factor.pred.index()];
        let mut candidates: Vec<Tuple> = Vec::new();
        if mask == 0 {
            for t in ctx.store.tuples_by_id(spid).iter() {
                if state == StateSel::New || !ctx.added[factor.pred.index()].contains(&t[..]) {
                    candidates.push(t.clone());
                }
            }
            if state == StateSel::Old {
                candidates.extend(ctx.removed[factor.pred.index()].iter().cloned());
            }
        } else {
            let key: Tuple = factor
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| s.resolve(&self.env))
                .collect();
            if let Some(bucket) = self.indexes.bucket(ctx.store, spid, mask, &key) {
                match state {
                    StateSel::New => candidates.extend(bucket.iter().cloned()),
                    StateSel::Old => candidates.extend(
                        bucket
                            .iter()
                            .filter(|t| !ctx.added[factor.pred.index()].contains(&t[..]))
                            .cloned(),
                    ),
                }
            }
            if state == StateSel::Old {
                candidates.extend(
                    ctx.removed[factor.pred.index()]
                        .iter()
                        .filter(|t| projection(t, mask) == key)
                        .cloned(),
                );
            }
        }

        for cand in &candidates {
            let ok = self.try_bind(&factor.args, cand);
            let stopped = ok && self.join(rule, ctx, mode, skip, depth + 1, on_match);
            for v in &binds {
                self.env[*v as usize] = None;
            }
            if stopped {
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Counting maintenance (non-recursive strata)
// ---------------------------------------------------------------------------

/// Exact-once signed delta evaluation over the telescoping decomposition
/// `Δ(F1 ∧ … ∧ Fn) = Σ_j new(F1..Fj-1) · Δ(Fj) · old(Fj+1..Fn)`, applied to
/// the persistent derivation counts, with 0→positive transitions inserting
/// and positive→0 transitions deleting from the store. Net store changes
/// feed `added`/`removed` for higher strata.
///
/// Assumes head predicates are IDB-only (no rule derives into an EDB
/// relation name) — true for all generated CQA programs.
#[allow(clippy::too_many_arguments)]
fn counting_pass(
    stratum: &MStratum,
    store: &mut RelationStore,
    counts: &mut FxHashMap<PredId, FxHashMap<Tuple, u64>>,
    preds: &PredTable,
    pred_map: &[PredId],
    added: &mut [FxHashSet<Tuple>],
    removed: &mut [FxHashSet<Tuple>],
    matcher: &mut Matcher,
    stats: &mut EvalStats,
) {
    let mut signed: FxHashMap<(PredId, Tuple), i64> = FxHashMap::default();
    for rule in &stratum.rules {
        for j in 0..rule.factors.len() {
            let f = &rule.factors[j];
            let (plus, minus) = if f.negated {
                (&removed[f.pred.index()], &added[f.pred.index()])
            } else {
                (&added[f.pred.index()], &removed[f.pred.index()])
            };
            for (delta_set, sign) in [(plus, 1i64), (minus, -1i64)] {
                if delta_set.is_empty() {
                    continue;
                }
                let driving: Vec<Tuple> = delta_set.iter().cloned().collect();
                for t in &driving {
                    matcher.prepare(rule);
                    if !matcher.try_bind(&rule.factors[j].args, t) {
                        continue;
                    }
                    let ctx = Ctx {
                        store,
                        pred_map,
                        added,
                        removed,
                    };
                    matcher.join(rule, &ctx, Mode::Split(j), j, 0, &mut |env| {
                        let head: Tuple = rule.head.iter().map(|s| s.resolve(env)).collect();
                        *signed.entry((rule.head_pred, head)).or_insert(0) += sign;
                        false
                    });
                }
            }
        }
    }

    let mut shrunk: FxHashSet<PredId> = FxHashSet::default();
    for ((pid, t), d) in signed {
        if d == 0 {
            continue;
        }
        let map = counts.entry(pid).or_default();
        let cur = map.get(&t).copied().unwrap_or(0) as i64;
        let next = cur + d;
        debug_assert!(next >= 0, "derivation count went negative");
        let next = next.max(0) as u64;
        if cur == 0 && next > 0 {
            if store.insert_by_id(pred_map[pid.index()], t.clone()) {
                added[pid.index()].insert(t.clone());
            }
        } else if cur > 0 && next == 0 && store.remove(preds.predicate(pid), &t) {
            removed[pid.index()].insert(t.clone());
            stats.tuples_overdeleted += 1;
            shrunk.insert(pid);
        }
        if next == 0 {
            map.remove(&t);
        } else {
            map.insert(t, next);
        }
    }
    for pid in shrunk {
        matcher.indexes.invalidate(pred_map[pid.index()]);
    }
}

// ---------------------------------------------------------------------------
// DRed (delete-and-rederive) for potentially recursive strata
// ---------------------------------------------------------------------------

/// Classic DRed: overdelete everything reachable from removed/violated
/// support (probing the OLD state), physically remove it, rederive the
/// marked tuples that still hold in the NEW state, then run a semi-naive
/// insertion pass for added support. Net store changes feed
/// `added`/`removed` for higher strata.
#[allow(clippy::too_many_arguments)]
fn dred_pass(
    stratum: &MStratum,
    store: &mut RelationStore,
    preds: &PredTable,
    pred_map: &[PredId],
    added: &mut [FxHashSet<Tuple>],
    removed: &mut [FxHashSet<Tuple>],
    matcher: &mut Matcher,
    stats: &mut EvalStats,
) {
    let mut marked: FxHashMap<PredId, FxHashSet<Tuple>> = FxHashMap::default();
    let mut queue: VecDeque<(PredId, Tuple)> = VecDeque::new();

    // Helper closure shape: drive one delta tuple through factor j of a
    // rule, collecting candidate heads. Written inline (twice for the seed
    // and frontier shapes) to keep borrows simple.

    // Phase 1a: overdelete seeds — lower-stratum removals at positive
    // factors and lower-stratum additions at negative factors, probed
    // against the OLD state (the store is untouched in phase 1, so
    // same-stratum predicates read as OLD too).
    for rule in &stratum.rules {
        for j in 0..rule.factors.len() {
            let f = &rule.factors[j];
            if f.same_stratum {
                continue;
            }
            let drive = if f.negated {
                &added[f.pred.index()]
            } else {
                &removed[f.pred.index()]
            };
            if drive.is_empty() {
                continue;
            }
            let driving: Vec<Tuple> = drive.iter().cloned().collect();
            for t in &driving {
                matcher.prepare(rule);
                if !matcher.try_bind(&rule.factors[j].args, t) {
                    continue;
                }
                let ctx = Ctx {
                    store,
                    pred_map,
                    added,
                    removed,
                };
                let mut heads: Vec<Tuple> = Vec::new();
                matcher.join(rule, &ctx, Mode::AllOld, j, 0, &mut |env| {
                    heads.push(rule.head.iter().map(|s| s.resolve(env)).collect());
                    false
                });
                let spid = pred_map[rule.head_pred.index()];
                for h in heads {
                    if store.contains_by_id(spid, &h)
                        && marked.entry(rule.head_pred).or_default().insert(h.clone())
                    {
                        queue.push_back((rule.head_pred, h));
                    }
                }
            }
        }
    }

    // Phase 1b: propagate over-deletion through positive same-stratum
    // factors of already-marked tuples.
    while let Some((pid, t)) = queue.pop_front() {
        for rule in &stratum.rules {
            for j in 0..rule.factors.len() {
                let f = &rule.factors[j];
                if f.negated || !f.same_stratum || f.pred != pid {
                    continue;
                }
                matcher.prepare(rule);
                if !matcher.try_bind(&f.args, &t) {
                    continue;
                }
                let ctx = Ctx {
                    store,
                    pred_map,
                    added,
                    removed,
                };
                let mut heads: Vec<Tuple> = Vec::new();
                matcher.join(rule, &ctx, Mode::AllOld, j, 0, &mut |env| {
                    heads.push(rule.head.iter().map(|s| s.resolve(env)).collect());
                    false
                });
                let spid = pred_map[rule.head_pred.index()];
                for h in heads {
                    if store.contains_by_id(spid, &h)
                        && marked.entry(rule.head_pred).or_default().insert(h.clone())
                    {
                        queue.push_back((rule.head_pred, h));
                    }
                }
            }
        }
    }

    // Phase 2: physically remove the overdeleted tuples, then drop their
    // (now position-shuffled) indexes.
    for (pid, set) in &marked {
        let pred = preds.predicate(*pid);
        for t in set {
            if store.remove(pred, t) {
                stats.tuples_overdeleted += 1;
            }
        }
    }
    for pid in &stratum.preds {
        matcher.indexes.invalidate(pred_map[pid.index()]);
    }

    let mut inserted: FxHashMap<PredId, FxHashSet<Tuple>> = FxHashMap::default();

    // Phase 3: rederive — sweep the still-absent marked tuples for a
    // NEW-state derivation (early exit at the first one), looping because a
    // rederived tuple can support another marked tuple.
    loop {
        let mut to_insert: Vec<(PredId, Tuple)> = Vec::new();
        for (pid, set) in &marked {
            let spid = pred_map[pid.index()];
            for t in set {
                if store.contains_by_id(spid, t) {
                    continue;
                }
                let mut found = false;
                for rule in &stratum.rules {
                    if rule.head_pred != *pid {
                        continue;
                    }
                    matcher.prepare(rule);
                    if !matcher.try_bind(&rule.head, t) {
                        continue;
                    }
                    let ctx = Ctx {
                        store,
                        pred_map,
                        added,
                        removed,
                    };
                    if matcher.join(rule, &ctx, Mode::AllNew, SKIP_NONE, 0, &mut |_| true) {
                        found = true;
                        break;
                    }
                }
                if found {
                    to_insert.push((*pid, t.clone()));
                }
            }
        }
        if to_insert.is_empty() {
            break;
        }
        for (pid, t) in to_insert {
            if store.insert_by_id(pred_map[pid.index()], t.clone()) {
                stats.tuples_rederived += 1;
                inserted.entry(pid).or_default().insert(t);
            }
        }
    }

    // Phase 4a: insertion seeds — lower-stratum additions at positive
    // factors and lower-stratum removals at negative factors, probed
    // against the NEW state.
    let mut ins_queue: VecDeque<(PredId, Tuple)> = VecDeque::new();
    for rule in &stratum.rules {
        for j in 0..rule.factors.len() {
            let f = &rule.factors[j];
            if f.same_stratum {
                continue;
            }
            let drive = if f.negated {
                &removed[f.pred.index()]
            } else {
                &added[f.pred.index()]
            };
            if drive.is_empty() {
                continue;
            }
            let driving: Vec<Tuple> = drive.iter().cloned().collect();
            for t in &driving {
                matcher.prepare(rule);
                if !matcher.try_bind(&rule.factors[j].args, t) {
                    continue;
                }
                let ctx = Ctx {
                    store,
                    pred_map,
                    added,
                    removed,
                };
                let mut heads: Vec<Tuple> = Vec::new();
                matcher.join(rule, &ctx, Mode::AllNew, j, 0, &mut |env| {
                    heads.push(rule.head.iter().map(|s| s.resolve(env)).collect());
                    false
                });
                let spid = pred_map[rule.head_pred.index()];
                for h in heads {
                    if store.insert_by_id(spid, h.clone()) {
                        inserted
                            .entry(rule.head_pred)
                            .or_default()
                            .insert(h.clone());
                        ins_queue.push_back((rule.head_pred, h));
                    }
                }
            }
        }
    }

    // Phase 4b: semi-naive frontier over positive same-stratum factors.
    while let Some((pid, t)) = ins_queue.pop_front() {
        for rule in &stratum.rules {
            for j in 0..rule.factors.len() {
                let f = &rule.factors[j];
                if f.negated || !f.same_stratum || f.pred != pid {
                    continue;
                }
                matcher.prepare(rule);
                if !matcher.try_bind(&f.args, &t) {
                    continue;
                }
                let ctx = Ctx {
                    store,
                    pred_map,
                    added,
                    removed,
                };
                let mut heads: Vec<Tuple> = Vec::new();
                matcher.join(rule, &ctx, Mode::AllNew, j, 0, &mut |env| {
                    heads.push(rule.head.iter().map(|s| s.resolve(env)).collect());
                    false
                });
                let spid = pred_map[rule.head_pred.index()];
                for h in heads {
                    if store.insert_by_id(spid, h.clone()) {
                        inserted
                            .entry(rule.head_pred)
                            .or_default()
                            .insert(h.clone());
                        ins_queue.push_back((rule.head_pred, h));
                    }
                }
            }
        }
    }

    // Net deltas for higher strata: tuples genuinely gone (marked, never
    // came back) and tuples genuinely new (inserted, not merely restored).
    for (pid, set) in &inserted {
        let was_marked = marked.get(pid);
        for t in set {
            if !was_marked.is_some_and(|m| m.contains(t)) {
                added[pid.index()].insert(t.clone());
            }
        }
    }
    for (pid, set) in &marked {
        let spid = pred_map[pid.index()];
        for t in set {
            if !store.contains_by_id(spid, t) {
                removed[pid.index()].insert(t.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Builtin, DlAtom, DlTerm, Rule};
    use crate::parallel::EvalOptions;
    use crate::store::{edb_base_from_instance, edb_overlay_on};

    fn pred(name: &str, arity: usize) -> Predicate {
        Predicate::new(name, arity)
    }

    fn atom(name: &str, vars: &[&str]) -> DlAtom {
        DlAtom::new(
            pred(name, vars.len()),
            vars.iter().map(|v| DlTerm::var(v)).collect(),
        )
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

    fn negation_program() -> Program {
        let mut p = reachability_program();
        p.declare_edb(pred("adom", 1));
        p.add_rule(Rule::new(
            atom("unreach", &["X", "Y"]),
            vec![
                BodyLiteral::Positive(atom("adom", &["X"])),
                BodyLiteral::Positive(atom("adom", &["Y"])),
                BodyLiteral::Negative(atom("path", &["X", "Y"])),
                BodyLiteral::Builtin(Builtin::Neq(DlTerm::var("X"), DlTerm::var("Y"))),
            ],
        ));
        p
    }

    /// Bootstraps on `deltas[0]` and maintains through the rest, asserting
    /// set-equality with a from-scratch overlay derivation at every step.
    /// Returns the accumulated stats.
    fn check_sequence(
        program: &Program,
        prefix: &DatabaseInstance,
        deltas: &[DatabaseInstance],
    ) -> EvalStats {
        let compiled = CompiledProgram::compile(program).unwrap();
        let base = edb_base_from_instance(prefix);
        let opts = EvalOptions::sequential();
        let mut stats = EvalStats::default();
        let fix = compiled.run_on_store_with(edb_overlay_on(&base, &deltas[0]), &opts);
        let mut state = bootstrap(&compiled, &fix, &deltas[0]);
        assert_eq!(state.store(), &fix, "bootstrap flatten changed contents");
        for (g, delta) in deltas.iter().enumerate().skip(1) {
            let verdict = maintain(&compiled, &mut state, prefix, delta, true, &mut stats);
            assert_ne!(
                verdict,
                MaintainVerdict::Unprofitable,
                "forced maintenance must not fall back"
            );
            let scratch = compiled.run_on_store_with(edb_overlay_on(&base, delta), &opts);
            assert_eq!(
                state.store(),
                &scratch,
                "maintained store diverged from from-scratch at generation {g}"
            );
        }
        stats
    }

    fn db(facts: &[(&str, &str, &str)]) -> DatabaseInstance {
        let mut d = DatabaseInstance::new();
        for &(r, k, v) in facts {
            d.insert_parsed(r, k, v);
        }
        d
    }

    #[test]
    fn append_only_on_recursive_stratum() {
        let deltas = [
            db(&[("E", "a", "b")]),
            db(&[("E", "a", "b"), ("E", "b", "c")]),
            db(&[("E", "a", "b"), ("E", "b", "c"), ("E", "c", "d")]),
        ];
        let stats = check_sequence(&reachability_program(), &DatabaseInstance::new(), &deltas);
        assert_eq!(stats.maintained_hits, 2);
        assert_eq!(stats.tuples_overdeleted, 0);
    }

    #[test]
    fn retract_on_recursive_stratum_overdeletes_and_rederives() {
        // Chain a->b->c->d plus shortcut a->c: retracting b->c kills
        // path(b,c), path(b,d), path(a,b)->... but a->c keeps path(a,c),
        // path(a,d) alive — the rederive phase must restore them.
        let full = db(&[
            ("E", "a", "b"),
            ("E", "b", "c"),
            ("E", "c", "d"),
            ("E", "a", "c"),
        ]);
        let retracted = db(&[("E", "a", "b"), ("E", "c", "d"), ("E", "a", "c")]);
        let stats = check_sequence(
            &reachability_program(),
            &DatabaseInstance::new(),
            &[full.clone(), retracted, full],
        );
        assert!(stats.tuples_overdeleted > 0, "retract must overdelete");
        assert!(stats.tuples_rederived > 0, "shortcut paths must rederive");
    }

    #[test]
    fn negation_stratum_tracks_lower_stratum_deltas() {
        // unreach = adom x adom \ path, X != Y: appending an edge shrinks
        // unreach (counting deletions driven by path additions); retracting
        // grows it back.
        let g0 = db(&[("E", "a", "b"), ("E", "b", "c")]);
        let g1 = db(&[("E", "a", "b"), ("E", "b", "c"), ("E", "c", "d")]);
        let stats = check_sequence(
            &negation_program(),
            &DatabaseInstance::new(),
            &[g0.clone(), g1, g0],
        );
        assert!(stats.tuples_overdeleted > 0);
    }

    #[test]
    fn retract_then_reappend_same_fact_round_trips() {
        let a = db(&[("E", "a", "b"), ("E", "b", "c"), ("E", "c", "a")]);
        let b = db(&[("E", "a", "b"), ("E", "c", "a")]);
        check_sequence(
            &negation_program(),
            &DatabaseInstance::new(),
            &[a.clone(), b.clone(), a.clone(), b, a],
        );
    }

    #[test]
    fn prefix_facts_mask_the_delta_diff() {
        // A fact present in the shared prefix never registers as a change,
        // whichever side of the delta it appears on.
        let prefix = db(&[("E", "a", "b")]);
        let deltas = [
            db(&[("E", "a", "b"), ("E", "b", "c")]),
            db(&[("E", "b", "c")]),
            db(&[("E", "a", "b"), ("E", "b", "c"), ("E", "c", "d")]),
        ];
        check_sequence(&negation_program(), &prefix, &deltas);
    }

    #[test]
    fn identical_delta_is_a_pure_hit() {
        let compiled = CompiledProgram::compile(&reachability_program()).unwrap();
        let prefix = DatabaseInstance::new();
        let base = edb_base_from_instance(&prefix);
        let delta = db(&[("E", "a", "b"), ("E", "b", "c")]);
        let fix =
            compiled.run_on_store_with(edb_overlay_on(&base, &delta), &EvalOptions::sequential());
        let mut state = bootstrap(&compiled, &fix, &delta);
        let mut stats = EvalStats::default();
        let verdict = maintain(
            &compiled,
            &mut state,
            &prefix,
            &delta.clone(),
            false,
            &mut stats,
        );
        assert_eq!(verdict, MaintainVerdict::PureHit);
        assert_eq!(stats.maintained_hits, 1);
        assert_eq!(stats.tuples_overdeleted + stats.tuples_rederived, 0);
    }

    #[test]
    fn large_change_ratio_is_unprofitable_unless_forced() {
        let compiled = CompiledProgram::compile(&reachability_program()).unwrap();
        let prefix = DatabaseInstance::new();
        let base = edb_base_from_instance(&prefix);
        let delta = db(&[("E", "a", "b")]);
        let fix =
            compiled.run_on_store_with(edb_overlay_on(&base, &delta), &EvalOptions::sequential());
        let mut state = bootstrap(&compiled, &fix, &delta);
        // Replace nearly everything: the change dwarfs the resident store.
        let replacement = db(&[("E", "x", "y"), ("E", "y", "z"), ("E", "z", "w")]);
        let mut stats = EvalStats::default();
        let before = state.store().total_tuples();
        let verdict = maintain(
            &compiled,
            &mut state,
            &prefix,
            &replacement,
            false,
            &mut stats,
        );
        assert_eq!(verdict, MaintainVerdict::Unprofitable);
        assert_eq!(
            state.store().total_tuples(),
            before,
            "unprofitable fallback must leave the state untouched"
        );
        assert_eq!(stats.maintained_hits, 0);
        // Forced, the same mutation maintains correctly.
        let verdict = maintain(
            &compiled,
            &mut state,
            &prefix,
            &replacement,
            true,
            &mut stats,
        );
        assert_eq!(verdict, MaintainVerdict::Maintained);
        let scratch = compiled.run_on_store_with(
            edb_overlay_on(&base, &replacement),
            &EvalOptions::sequential(),
        );
        assert_eq!(state.store(), &scratch);
    }

    #[test]
    fn random_interleaved_mutations_agree_with_scratch() {
        // Pseudo-random generation sequences over a small edge universe,
        // retract-heavy by construction, against the negation program (one
        // DRed stratum + one counting stratum).
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let universe: Vec<(String, String)> = (0..5)
            .flat_map(|i| (0..5).map(move |j| (format!("v{i}"), format!("v{j}"))))
            .collect();
        for _ in 0..5 {
            let mut present: Vec<bool> = universe.iter().map(|_| next() % 3 == 0).collect();
            let snapshot = |present: &[bool]| {
                let mut d = DatabaseInstance::new();
                for (on, (a, b)) in present.iter().zip(&universe) {
                    if *on {
                        d.insert_parsed("E", a, b);
                    }
                }
                d
            };
            let mut deltas = vec![snapshot(&present)];
            for _ in 0..6 {
                // Toggle a handful of edges, biased toward retraction.
                for _ in 0..3 {
                    let i = (next() % universe.len() as u64) as usize;
                    present[i] = if present[i] { false } else { next() % 2 == 0 };
                }
                deltas.push(snapshot(&present));
            }
            check_sequence(&negation_program(), &DatabaseInstance::new(), &deltas);
        }
    }
}
