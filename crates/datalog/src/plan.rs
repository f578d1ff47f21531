//! Rule compilation: join planning and index-backed execution.
//!
//! Each rule is compiled once per [`crate::engine::CompiledProgram`] into a
//! [`CompiledRule`]: a sequence of [`Op`]s over a flat binding array indexed
//! by the rule's [`RuleVars`] numbering. Positive literals are ordered
//! greedily by the number of positions already bound when they are placed
//! (constants count as bound), so joins degrade from index probes to scans
//! only when nothing is bound; negative literals and built-ins are emitted as
//! soon as all their variables are bound, pruning partial bindings as early
//! as possible.
//!
//! Predicates are interned into dense [`PredId`]s at compile time (see
//! [`crate::engine::PredTable`]), so execution never hashes a predicate:
//! relation lookups are vector indexes, and every `(predicate, bound-mask)`
//! index used by a `Probe` op is assigned a dense *slot* here, making
//! [`IndexSpace`] a flat `Vec` as well.
//!
//! Execution probes lazily built hash indexes (see [`IndexSpace`]): one index
//! per `(predicate, bound-position-set)`, mapping the projection of a tuple
//! onto the bound positions to the ids of matching tuples. Because relations
//! are append-only during evaluation, an index is refreshed by scanning only
//! the tuples appended since its last use — no invalidation is ever needed,
//! and the semi-naive delta (an id range per predicate) composes with every
//! index for free.
//!
//! On a layered store ([`crate::store`]) an index slot is a *pair*: the
//! frozen base layer's committed index — built at most once per
//! [`crate::store::BaseStore`] and shared by every run over it — plus this
//! run's private extension over the overlay tuples. A probe looks the key up
//! in both (base ids precede overlay ids, so the merged id list stays
//! ascending); a flat store never attaches a base side, leaving the original
//! single-index behavior untouched.

use std::collections::HashMap;
use std::sync::Arc;

use cqa_core::symbol::Symbol;

use crate::ast::{BodyLiteral, Builtin, DlAtom, DlTerm, Rule, RuleVars};
use crate::engine::{PredId, PredTable, RelationStore};
use crate::fxhash::FxHashMap;
use crate::store::{project_onto_mask, BaseIndex};
use crate::tuple::Tuple;

/// A term resolved against a rule's variable numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant.
    Const(Symbol),
    /// The variable with the given id.
    Var(u32),
}

impl Slot {
    pub(crate) fn of(term: &DlTerm, vars: &RuleVars) -> Slot {
        match term {
            DlTerm::Const(c) => Slot::Const(*c),
            DlTerm::Var(v) => Slot::Var(vars.id(*v).expect("variable occurs in rule")),
        }
    }

    /// Resolves the slot against a binding array (the slot must be bound).
    #[inline]
    pub(crate) fn resolve(self, bindings: &[Option<Symbol>]) -> Symbol {
        match self {
            Slot::Const(c) => c,
            Slot::Var(v) => bindings[v as usize].expect("slot bound by planning invariant"),
        }
    }
}

/// What to do with a tuple position that is *not* part of the probe key.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotAction {
    /// First occurrence of a free variable: write the binding.
    Bind(u32),
    /// Repeated occurrence of a variable bound earlier *within this atom*:
    /// compare against the binding.
    CheckVar(u32),
    /// A constant position on a scanned atom: compare directly.
    CheckConst(Symbol),
}

/// A compiled positive literal.
#[derive(Debug, Clone)]
pub(crate) struct AtomPlan {
    /// The interned predicate to match against.
    pub pred: PredId,
    /// Bitmask of positions bound at entry (probe-key positions).
    pub mask: u32,
    /// Dense index slot for `(pred, mask)`, assigned at compile time; only
    /// meaningful on `Probe` ops.
    pub index_slot: u32,
    /// Probe-key slots, in ascending position order (aligned with the
    /// index projection).
    pub key: Vec<Slot>,
    /// Actions for the remaining positions, as `(position, action)`.
    pub rest: Vec<(usize, SlotAction)>,
    /// Variable ids written by this atom (for resetting between candidates).
    pub binds: Vec<u32>,
}

/// A compiled built-in constraint.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompiledBuiltin {
    Neq(Slot, Slot),
    Eq(Slot, Slot),
    KeyConsistent(Slot, Slot, Slot, Slot),
}

impl CompiledBuiltin {
    pub(crate) fn of(builtin: &Builtin, vars: &RuleVars) -> CompiledBuiltin {
        let s = |t: &DlTerm| Slot::of(t, vars);
        match builtin {
            Builtin::Neq(a, b) => CompiledBuiltin::Neq(s(a), s(b)),
            Builtin::Eq(a, b) => CompiledBuiltin::Eq(s(a), s(b)),
            Builtin::KeyConsistent(a, b, c, d) => {
                CompiledBuiltin::KeyConsistent(s(a), s(b), s(c), s(d))
            }
        }
    }

    #[inline]
    pub(crate) fn holds(self, bindings: &[Option<Symbol>]) -> bool {
        match self {
            CompiledBuiltin::Neq(a, b) => a.resolve(bindings) != b.resolve(bindings),
            CompiledBuiltin::Eq(a, b) => a.resolve(bindings) == b.resolve(bindings),
            CompiledBuiltin::KeyConsistent(x1, y1, x2, y2) => {
                x1.resolve(bindings) != x2.resolve(bindings)
                    || y1.resolve(bindings) == y2.resolve(bindings)
            }
        }
    }
}

/// One step of a compiled rule body.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Enumerate tuples of a predicate (nothing bound, or the semi-naive
    /// delta literal, which enumerates an id range).
    Scan(AtomPlan),
    /// Probe the `(pred, mask)` index with the key slots.
    Probe(AtomPlan),
    /// All positions bound: a set-membership test.
    Exists(AtomPlan),
    /// A ground negative literal: succeed iff the tuple is absent.
    Negative { pred: PredId, args: Vec<Slot> },
    /// A built-in constraint over bound slots.
    Filter(CompiledBuiltin),
}

/// A rule compiled to a join plan.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    /// The head predicate.
    pub head_pred: PredId,
    /// Head template.
    pub head: Vec<Slot>,
    /// Body operations in execution order.
    pub ops: Vec<Op>,
    /// Number of distinct variables (size of the binding array).
    pub num_vars: usize,
}

/// Assigns dense slots to the `(pred, mask)` indexes a program's `Probe` ops
/// use, so [`IndexSpace`] can be a flat `Vec` instead of a hash map. Shared
/// across all rules of a program: two probes of the same `(pred, mask)`
/// share one index.
#[derive(Debug, Default)]
pub(crate) struct IndexSlots {
    slots: HashMap<(PredId, u32), u32>,
}

impl IndexSlots {
    fn slot(&mut self, pred: PredId, mask: u32) -> u32 {
        let next = self.slots.len() as u32;
        *self.slots.entry((pred, mask)).or_insert(next)
    }

    /// Number of distinct indexes.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Compiles an atom given the set of currently bound variables. Returns the
/// plan and the list of newly bound variable ids.
fn compile_atom(
    atom: &DlAtom,
    vars: &RuleVars,
    bound: &[bool],
    force_scan: bool,
    preds: &mut PredTable,
) -> AtomPlan {
    let mut mask = 0u32;
    let mut key = Vec::new();
    let mut rest = Vec::new();
    let mut binds = Vec::new();
    let mut bound_here: Vec<u32> = Vec::new();
    for (pos, term) in atom.args.iter().enumerate() {
        let slot = Slot::of(term, vars);
        let is_bound = match slot {
            Slot::Const(_) => true,
            Slot::Var(v) => bound[v as usize],
        };
        // The mask is a u32, so positions ≥ 32 (never seen in practice) fall
        // back to per-candidate checks rather than the probe key.
        if is_bound && !force_scan && pos < 32 {
            mask |= 1 << pos;
            key.push(slot);
        } else {
            match slot {
                Slot::Const(c) => rest.push((pos, SlotAction::CheckConst(c))),
                Slot::Var(v) => {
                    if bound[v as usize] || bound_here.contains(&v) {
                        rest.push((pos, SlotAction::CheckVar(v)));
                    } else {
                        bound_here.push(v);
                        binds.push(v);
                        rest.push((pos, SlotAction::Bind(v)));
                    }
                }
            }
        }
    }
    AtomPlan {
        pred: preds.intern(atom.pred),
        mask,
        index_slot: 0,
        key,
        rest,
        binds,
    }
}

/// Number of positions of `atom` bound under `bound` (constants included) —
/// the greedy selectivity score.
fn bound_score(atom: &DlAtom, vars: &RuleVars, bound: &[bool]) -> usize {
    atom.args
        .iter()
        .filter(|t| match t {
            DlTerm::Const(_) => true,
            DlTerm::Var(v) => bound[vars.id(*v).expect("var in rule") as usize],
        })
        .count()
}

/// Compiles a rule into a join plan, interning predicates into `preds` and
/// assigning index slots from `islots`.
///
/// If `delta_pos` is given, the positive literal at that body position is
/// placed first and compiled as a scan; the engine restricts its enumeration
/// to the current delta id range of its predicate.
pub(crate) fn compile_rule(
    rule: &Rule,
    vars: &RuleVars,
    delta_pos: Option<usize>,
    preds: &mut PredTable,
    islots: &mut IndexSlots,
) -> CompiledRule {
    let num_vars = vars.count();
    let mut bound = vec![false; num_vars];
    let mut ops: Vec<Op> = Vec::with_capacity(rule.body.len());

    // Remaining positive literals, by body position.
    let mut positives: Vec<(usize, &DlAtom)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            BodyLiteral::Positive(a) if Some(i) != delta_pos => Some((i, a)),
            _ => None,
        })
        .collect();
    // Negative and built-in literals not yet emitted.
    let mut pending: Vec<&BodyLiteral> = rule
        .body
        .iter()
        .filter(|l| !matches!(l, BodyLiteral::Positive(_)))
        .collect();

    let mut flush_pending = |bound: &[bool], ops: &mut Vec<Op>, preds: &mut PredTable| {
        pending.retain(|literal| {
            let ready = literal
                .vars()
                .iter()
                .all(|v| bound[vars.id(*v).expect("var in rule") as usize]);
            if !ready {
                return true;
            }
            match literal {
                BodyLiteral::Negative(atom) => ops.push(Op::Negative {
                    pred: preds.intern(atom.pred),
                    args: atom.args.iter().map(|t| Slot::of(t, vars)).collect(),
                }),
                BodyLiteral::Builtin(b) => ops.push(Op::Filter(CompiledBuiltin::of(b, vars))),
                BodyLiteral::Positive(_) => unreachable!("pending holds no positives"),
            }
            false
        });
    };

    if let Some(pos) = delta_pos {
        let BodyLiteral::Positive(atom) = &rule.body[pos] else {
            panic!("delta literal must be positive");
        };
        let plan = compile_atom(atom, vars, &bound, true, preds);
        for &v in &plan.binds {
            bound[v as usize] = true;
        }
        ops.push(Op::Scan(plan));
        flush_pending(&bound, &mut ops, preds);
    } else {
        // Constant-only built-ins (rare) can be checked before any scan.
        flush_pending(&bound, &mut ops, preds);
    }

    while !positives.is_empty() {
        // Greedy: the literal with the most bound positions joins next;
        // ties break towards the original body order.
        let best = positives
            .iter()
            .enumerate()
            .max_by_key(|(i, (_, atom))| (bound_score(atom, vars, &bound), usize::MAX - i))
            .map(|(i, _)| i)
            .expect("nonempty");
        let (_, atom) = positives.remove(best);
        let mut plan = compile_atom(atom, vars, &bound, false, preds);
        for &v in &plan.binds {
            bound[v as usize] = true;
        }
        let arity = atom.args.len();
        let fully_bound = arity > 0 && arity < 32 && plan.mask == (1u32 << arity).wrapping_sub(1);
        ops.push(if fully_bound {
            Op::Exists(plan)
        } else if plan.mask == 0 {
            Op::Scan(plan)
        } else {
            plan.index_slot = islots.slot(plan.pred, plan.mask);
            Op::Probe(plan)
        });
        flush_pending(&bound, &mut ops, preds);
    }
    debug_assert!(pending.is_empty(), "unsafe rule reached the planner");

    CompiledRule {
        head_pred: preds.intern(rule.head.pred),
        head: rule.head.args.iter().map(|t| Slot::of(t, vars)).collect(),
        ops,
        num_vars,
    }
}

/// Lazily built hash indexes over one run's relations, one per compile-time
/// index slot (a distinct `(pred, mask)` pair — see [`IndexSlots`]).
///
/// Slot `s` maps the projection of each tuple of its predicate onto the
/// positions in its mask to the ascending ids of matching tuples. Indexes are
/// extended on demand (`upto` tracks how much of the relation has been
/// absorbed); relations only ever grow during evaluation, so extension is
/// sound and cheap.
///
/// When the run's store is an overlay (see [`crate::store`]), the first
/// extension of a slot *attaches* the base layer's committed index instead
/// of absorbing the base tuples — building it through the base's cache if
/// this is the first run over the base to probe this `(pred, mask)` — and
/// the slot's private `entries` then only ever hold overlay ids. On a flat
/// store the base side stays `None` and nothing changes.
///
/// The engine probes through [`IndexSpace::probe`], which lazily absorbs
/// freshly appended tuples before every lookup.
#[derive(Debug, Default)]
pub(crate) struct IndexSpace {
    slots: Vec<PredIndex>,
    extensions: u64,
    base_builds: u64,
    build_ns: u64,
}

#[derive(Debug, Default)]
struct PredIndex {
    /// The base layer's committed index, attached on first extension over an
    /// overlay store; `None` on flat stores.
    base: Option<Arc<BaseIndex>>,
    /// Overlay-id entries (ids ≥ the base segment length).
    entries: FxHashMap<Tuple, Vec<u32>>,
    upto: usize,
}

impl IndexSpace {
    pub(crate) fn new(num_slots: usize) -> IndexSpace {
        let mut slots = Vec::with_capacity(num_slots);
        slots.resize_with(num_slots, PredIndex::default);
        IndexSpace {
            slots,
            extensions: 0,
            base_builds: 0,
            build_ns: 0,
        }
    }

    /// Absorbs the tuples appended to `pred`'s relation since slot `slot`
    /// last saw it; on the first pass over an overlay store this attaches
    /// the base's committed `(pred, mask)` index (building it if no run over
    /// this base probed the pair before). A pass that absorbs overlay
    /// tuples counts as one extension in the engine's evaluation stats.
    fn extend_slot(&mut self, slot: u32, store: &RelationStore, pred: PredId, mask: u32) {
        let view = store.tuples_by_id(pred);
        let base_len = view.base_len();
        // Both slow branches below are timed into `build_ns`; the per-probe
        // fast path (slot already up to date) must stay clock-free.
        if self.slots[slot as usize].upto < base_len {
            let timer = cqa_obs::Stopwatch::start();
            if let Some((base, built)) = store.base_index(pred, mask) {
                self.base_builds += built as u64;
                self.slots[slot as usize].base = Some(base);
            }
            self.slots[slot as usize].upto = base_len;
            self.build_ns += timer.elapsed_ns();
        }
        if self.slots[slot as usize].upto >= view.len() {
            return;
        }
        let timer = cqa_obs::Stopwatch::start();
        let index = &mut self.slots[slot as usize];
        let mut proj = Tuple::new();
        let skip = index.upto - base_len;
        for (off, tuple) in view.delta_slice().iter().enumerate().skip(skip) {
            project_onto_mask(tuple, mask, &mut proj);
            index
                .entries
                .entry(proj.clone())
                .or_default()
                .push((base_len + off) as u32);
        }
        index.upto = view.len();
        self.extensions += 1;
        self.build_ns += timer.elapsed_ns();
    }

    /// Appends the ids of `pred`'s tuples matching `key` on the positions of
    /// `mask` to `out`, absorbing freshly appended tuples into slot `slot`
    /// first. Base-layer ids all precede overlay ids, so the merged list is
    /// ascending.
    pub(crate) fn probe(
        &mut self,
        slot: u32,
        store: &RelationStore,
        pred: PredId,
        mask: u32,
        key: &[Symbol],
        out: &mut Vec<u32>,
    ) {
        self.extend_slot(slot, store, pred, mask);
        let index = &self.slots[slot as usize];
        if let Some(ids) = index.base.as_ref().and_then(|b| b.entries.get(key)) {
            out.extend_from_slice(ids);
        }
        if let Some(ids) = index.entries.get(key) {
            out.extend_from_slice(ids);
        }
    }

    /// Number of extension passes that actually absorbed tuples, across all
    /// slots. A pinned regression test keeps the driver honest about not
    /// re-extending after unproductive rounds.
    pub(crate) fn extensions(&self) -> u64 {
        self.extensions
    }

    /// Number of base-layer committed indexes this run *built* (as opposed
    /// to found cached on the base). For a family of runs over one shared
    /// base, only the first run reports nonzero — pinned by a regression
    /// test.
    pub(crate) fn base_builds(&self) -> u64 {
        self.base_builds
    }

    /// Wall-clock nanoseconds spent in the two slow branches above (base
    /// index attach/build, overlay absorption), surfaced through
    /// [`crate::parallel::EvalStats::index_build_ns`].
    pub(crate) fn build_ns(&self) -> u64 {
        self.build_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Predicate, Program};

    fn atom(name: &str, terms: &[DlTerm]) -> DlAtom {
        DlAtom::new(Predicate::new(name, terms.len()), terms.to_vec())
    }

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn compile(rule: &Rule, delta_pos: Option<usize>) -> (CompiledRule, PredTable) {
        let vars = rule.numbering();
        let mut preds = PredTable::default();
        let mut islots = IndexSlots::default();
        let plan = compile_rule(rule, &vars, delta_pos, &mut preds, &mut islots);
        (plan, preds)
    }

    #[test]
    fn planner_orders_by_boundness_and_pushes_filters() {
        // head(X, Z) :- E(X, Y), F(Y, Z), X != Z, not G(X, Z).
        let rule = Rule::new(
            atom("head", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("E", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("F", &[v("Y"), v("Z")])),
                BodyLiteral::Builtin(Builtin::Neq(v("X"), v("Z"))),
                BodyLiteral::Negative(atom("G", &[v("X"), v("Z")])),
            ],
        );
        let (plan, preds) = compile(&rule, None);
        assert_eq!(plan.num_vars, 3);
        let id = |name: &str, arity| preds.lookup(Predicate::new(name, arity)).unwrap();
        // First op scans E (nothing bound), second probes F on Y, and the
        // filter + negation follow immediately once X, Z are bound.
        assert!(matches!(&plan.ops[0], Op::Scan(p) if p.pred == id("E", 2)));
        assert!(matches!(&plan.ops[1], Op::Probe(p) if p.pred == id("F", 2) && p.mask == 0b01));
        assert!(matches!(&plan.ops[2], Op::Filter(_) | Op::Negative { .. }));
        assert!(matches!(&plan.ops[3], Op::Filter(_) | Op::Negative { .. }));
    }

    #[test]
    fn fully_bound_atoms_become_existence_checks() {
        // head(X) :- E(X, X), F(X, X).   second atom is fully bound.
        let rule = Rule::new(
            atom("head", &[v("X")]),
            vec![
                BodyLiteral::Positive(atom("E", &[v("X"), v("X")])),
                BodyLiteral::Positive(atom("F", &[v("X"), v("X")])),
            ],
        );
        let (plan, _) = compile(&rule, None);
        assert!(matches!(&plan.ops[0], Op::Scan(_)));
        assert!(matches!(&plan.ops[1], Op::Exists(_)));
    }

    #[test]
    fn delta_literal_is_scheduled_first() {
        // path(X, Z) :- path(X, Y), E(Y, Z): delta on body position 0.
        let rule = Rule::new(
            atom("path", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("path", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("E", &[v("Y"), v("Z")])),
            ],
        );
        let (plan, preds) = compile(&rule, Some(0));
        let path = preds.lookup(Predicate::new("path", 2)).unwrap();
        assert!(matches!(&plan.ops[0], Op::Scan(p) if p.pred == path));
        assert!(matches!(&plan.ops[1], Op::Probe(p) if p.mask == 0b01));
    }

    #[test]
    fn probes_of_the_same_pred_and_mask_share_an_index_slot() {
        let rule = Rule::new(
            atom("head", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("E", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("F", &[v("Y"), v("Z")])),
            ],
        );
        let vars = rule.numbering();
        let mut preds = PredTable::default();
        let mut islots = IndexSlots::default();
        let a = compile_rule(&rule, &vars, None, &mut preds, &mut islots);
        let b = compile_rule(&rule, &vars, None, &mut preds, &mut islots);
        let slot_of = |plan: &CompiledRule| match &plan.ops[1] {
            Op::Probe(p) => p.index_slot,
            other => panic!("expected probe, got {other:?}"),
        };
        assert_eq!(slot_of(&a), slot_of(&b));
        assert_eq!(islots.len(), 1);
    }

    #[test]
    fn repeated_variables_in_a_scanned_atom_check_equality() {
        let rule = Rule::new(
            atom("head", &[v("X")]),
            vec![BodyLiteral::Positive(atom("E", &[v("X"), v("X")]))],
        );
        let (plan, _) = compile(&rule, None);
        let Op::Scan(p) = &plan.ops[0] else {
            panic!("expected scan");
        };
        assert!(matches!(p.rest[0].1, SlotAction::Bind(0)));
        assert!(matches!(p.rest[1].1, SlotAction::CheckVar(0)));
        // Keep the compiler honest about Program imports used by siblings.
        let _ = Program::new();
    }
}
