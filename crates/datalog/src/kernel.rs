//! Shape-specialized execution kernels for the unary/binary fragment.
//!
//! Generated CQA programs (Lemma 14) are overwhelmingly unary and binary
//! predicates over dense interned ids, yet the generic engine evaluates them
//! through boxed [`Tuple`]s, `Option<Symbol>` binding arrays and hash-index
//! probes keyed by projected tuples. This module compiles eligible rules a
//! *second* time into a monomorphic register machine over raw `u32` symbol
//! ids:
//!
//! * **Columnar scans** ([`KOp::Scan1`]/[`KOp::Scan2`]) walk the store's
//!   `u32` column mirrors ([`crate::store`]) instead of tuple vectors;
//! * **CSR probes** ([`KOp::ProbeCsr`]) look a key id up in a CSR adjacency
//!   ([`CsrIndex`]) — an O(1) offset pair on the dense representation, no
//!   tuple projection and no hashing — with the committed base layer's CSR
//!   built once per [`crate::store::BaseStore`] and shared across runs,
//!   exactly like the generic path's committed hash indexes;
//! * **Bitset membership** ([`KOp::Exists1`]/[`KOp::Neg1`]) answers unary
//!   (possibly negated) existence checks in one word load;
//! * a **sort-merge fast path** handles the hot binary-binary join shape
//!   (`h(..) :- scan R(X, Y), probe S by Y`) on large scan ranges by
//!   sorting the scanned `(key, other)` pairs and fetching each CSR bucket
//!   once per distinct key.
//!
//! # Translation, not re-planning
//!
//! [`compile_kernel`] translates an existing generic [`CompiledRule`] op by
//! op — same greedy join order, same delta literal, same filter placement —
//! so a kernel enumerates candidate bindings in *exactly* the order the
//! generic executor would (CSR buckets list ascending tuple ids, matching
//! [`crate::plan::IndexSpace::probe`]), and the engine's store contents
//! stay identical with kernels on or off. Rules that do not
//! fit — an atom of arity > 2, or a probe into a predicate of the *current*
//! stratum, whose relation grows mid-fixpoint while CSR adjacency is a
//! rebuild-on-growth structure — simply keep their generic plan; selection
//! is per rule, recorded in the compiled program, and reported through
//! [`crate::parallel::EvalStats::kernel_rules`] /
//! [`crate::parallel::EvalStats::generic_rules`].
//!
//! The `PATH_CQA_KERNELS` environment override and the
//! [`crate::parallel::Kernels`] knob in [`crate::parallel::EvalOptions`]
//! pick the path at *execution* time (kernels are always compiled), so plan
//! caches are oblivious to the knob and a suspected kernel bug can be
//! bisected at runtime.
//!
//! # Kernels and differential maintenance
//!
//! Kernels are *insert-only*: every op appends candidate head tuples to a
//! growing store, and the CSR/columnar structures they probe are
//! build-on-growth. The delete passes of differential maintenance
//! ([`crate::maintain`]) — DRed overdeletion and support-count decrements —
//! physically *remove* tuples and must re-read mixed old/new states per
//! literal, which no kernel shape supports. Maintenance therefore always
//! runs through its own generic two-state matcher, regardless of the
//! `Kernels` knob; kernels still serve full (re)materializations — the
//! bootstrap and unprofitable-fallback paths — where evaluation is
//! insert-only again.

use std::collections::HashMap;
use std::sync::Arc;

use cqa_core::symbol::Symbol;

use crate::plan::{CompiledBuiltin, CompiledRule, Op, Slot, SlotAction};
use crate::store::{CsrIndex, PredId, RelationStore};
use crate::tuple::Tuple;

/// A value source: a register (variable id) or an inlined constant id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KSlot {
    /// The register holding the variable with this id.
    Reg(u32),
    /// A constant's raw interner id.
    Const(u32),
}

impl KSlot {
    fn of(slot: Slot) -> KSlot {
        match slot {
            Slot::Const(c) => KSlot::Const(c.id()),
            Slot::Var(v) => KSlot::Reg(v),
        }
    }

    #[inline]
    fn resolve(self, regs: &[u32]) -> u32 {
        match self {
            KSlot::Reg(r) => regs[r as usize],
            KSlot::Const(c) => c,
        }
    }
}

/// Per-column action against a scanned or probed value. Registers are plain
/// `u32`s overwritten in place — the planner's bound-before-use invariant
/// makes resets unnecessary (every read is dominated by a write on the same
/// path), which is precisely what lets the kernel drop `Option<Symbol>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KAction {
    /// First occurrence of a variable: write the register.
    Bind(u32),
    /// Repeated occurrence: compare against the register.
    CheckReg(u32),
    /// A constant position: compare directly.
    CheckConst(u32),
}

impl KAction {
    fn of(action: SlotAction) -> KAction {
        match action {
            SlotAction::Bind(v) => KAction::Bind(v),
            SlotAction::CheckVar(v) => KAction::CheckReg(v),
            SlotAction::CheckConst(c) => KAction::CheckConst(c.id()),
        }
    }

    #[inline]
    fn apply(self, value: u32, regs: &mut [u32]) -> bool {
        match self {
            KAction::Bind(r) => {
                regs[r as usize] = value;
                true
            }
            KAction::CheckReg(r) => regs[r as usize] == value,
            KAction::CheckConst(c) => c == value,
        }
    }
}

/// A built-in constraint over `u32` ids (symbol equality is id equality).
#[derive(Debug, Clone, Copy)]
pub(crate) enum KBuiltin {
    Neq(KSlot, KSlot),
    Eq(KSlot, KSlot),
    KeyConsistent(KSlot, KSlot, KSlot, KSlot),
}

impl KBuiltin {
    fn of(builtin: CompiledBuiltin) -> KBuiltin {
        let k = KSlot::of;
        match builtin {
            CompiledBuiltin::Neq(a, b) => KBuiltin::Neq(k(a), k(b)),
            CompiledBuiltin::Eq(a, b) => KBuiltin::Eq(k(a), k(b)),
            CompiledBuiltin::KeyConsistent(a, b, c, d) => {
                KBuiltin::KeyConsistent(k(a), k(b), k(c), k(d))
            }
        }
    }

    #[inline]
    fn holds(self, regs: &[u32]) -> bool {
        match self {
            KBuiltin::Neq(a, b) => a.resolve(regs) != b.resolve(regs),
            KBuiltin::Eq(a, b) => a.resolve(regs) == b.resolve(regs),
            KBuiltin::KeyConsistent(x1, y1, x2, y2) => {
                x1.resolve(regs) != x2.resolve(regs) || y1.resolve(regs) == y2.resolve(regs)
            }
        }
    }
}

/// One step of a kernel body, mirroring [`Op`] on the unary/binary fragment.
#[derive(Debug, Clone)]
pub(crate) enum KOp {
    /// Columnar scan of a unary relation (the depth-0 op honors the caller's
    /// delta id range, like the generic scan).
    Scan1 { pred: PredId, act: KAction },
    /// Columnar scan of a binary relation.
    Scan2 {
        pred: PredId,
        a0: KAction,
        a1: KAction,
    },
    /// CSR probe of a binary relation keyed on one column.
    ProbeCsr { slot: u32, key: KSlot, act: KAction },
    /// Bitset membership on a unary relation.
    Exists1 { pred: PredId, arg: KSlot },
    /// Hash-set membership on a binary relation.
    Exists2 { pred: PredId, args: [KSlot; 2] },
    /// Negated bitset membership on a unary relation.
    Neg1 { pred: PredId, arg: KSlot },
    /// Negated membership on a binary relation.
    Neg2 { pred: PredId, args: [KSlot; 2] },
    /// A built-in filter over registers.
    Filter(KBuiltin),
}

/// The sort-merge fast path for the two-op `[Scan2, ProbeCsr]` shape with
/// all-`Bind` actions: sort the scanned `(key, other)` pairs, then emit one
/// CSR bucket fetch per distinct key. Output *order* differs from the nested
/// loop (it is sorted by key), but the derived set is identical and the
/// choice depends only on the scan-range length — deterministic per input.
#[derive(Debug, Clone)]
struct MergePlan {
    /// The scanned predicate (same as the first op's).
    scan_pred: PredId,
    /// Which scanned column feeds the probe key (0 or 1).
    key_col: u8,
    /// The probe's CSR slot.
    slot: u32,
    /// Head template over the three joined values.
    head: Vec<MSlot>,
}

#[derive(Debug, Clone, Copy)]
enum MSlot {
    /// The scanned key-column value.
    Key,
    /// The scanned other-column value.
    Other,
    /// The probed bucket value.
    Probe,
    /// An inlined constant id.
    Const(u32),
}

/// Minimum scan-range length before the sort pays for itself.
const MERGE_MIN: usize = 4096;

/// Names one CSR adjacency a kernel probe reads: the dense [`KernelSpace`]
/// slot plus the program-scoped predicate and key column to build it from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CsrSlotSpec {
    pub(crate) slot: u32,
    pub(crate) pred: PredId,
    pub(crate) key_col: u8,
}

/// A rule compiled to the specialized register machine. Produced by
/// [`compile_kernel`] alongside (never instead of) the generic plan.
#[derive(Debug, Clone)]
pub(crate) struct KernelRule {
    /// Head template; emission reconstitutes [`Symbol`]s from register ids.
    head: Vec<KSlot>,
    /// Body steps in the generic plan's execution order.
    ops: Vec<KOp>,
    /// Register count (the generic plan's `num_vars`).
    num_regs: usize,
    /// The CSR slots this rule's probes read, deduped — the engine prepares
    /// exactly these before running the rule.
    pub(crate) csr_slots: Vec<CsrSlotSpec>,
    /// Sort-merge fast path, when the rule has the eligible shape.
    merge: Option<MergePlan>,
}

/// Assigns dense [`KernelSpace`] slots to the `(pred, key column)` CSR
/// adjacencies a program's kernel probes use; the kernel analogue of
/// [`crate::plan::IndexSlots`], shared across all rules of a program.
#[derive(Debug, Default)]
pub(crate) struct CsrSlots {
    slots: HashMap<(PredId, u8), u32>,
}

impl CsrSlots {
    fn slot(&mut self, pred: PredId, key_col: u8) -> u32 {
        let next = self.slots.len() as u32;
        *self.slots.entry((pred, key_col)).or_insert(next)
    }

    /// Number of distinct adjacencies.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Translates a generic plan into a kernel, or `None` if the rule does not
/// fit the fragment: every positive literal must have arity 1 or 2, probes
/// must key a binary predicate on one column, and — the one *semantic*
/// restriction — a probed predicate must not belong to `stratum_preds`
/// (the current stratum), because CSR adjacency is rebuilt on growth and a
/// same-stratum relation grows every round of the fixpoint. Such rules keep
/// their generic plan (per-rule fallback, e.g. nonlinear transitive
/// closure).
pub(crate) fn compile_kernel(
    plan: &CompiledRule,
    stratum_preds: &[PredId],
    kslots: &mut CsrSlots,
) -> Option<KernelRule> {
    let mut ops = Vec::with_capacity(plan.ops.len());
    let mut csr_slots: Vec<CsrSlotSpec> = Vec::new();
    for op in &plan.ops {
        let kop = match op {
            Op::Scan(ap) => {
                // A scan has an empty key, so its arity is its action count
                // (compile_atom emits one action per position, ascending).
                match ap.rest.as_slice() {
                    [(0, a)] => KOp::Scan1 {
                        pred: ap.pred,
                        act: KAction::of(*a),
                    },
                    [(0, a0), (1, a1)] => KOp::Scan2 {
                        pred: ap.pred,
                        a0: KAction::of(*a0),
                        a1: KAction::of(*a1),
                    },
                    _ => return None,
                }
            }
            Op::Probe(ap) => {
                // Binary relations only probe on a single bound column (two
                // bound columns would have compiled to Exists), and the
                // probed predicate must be fixed for the whole stratum.
                if stratum_preds.contains(&ap.pred) {
                    return None;
                }
                let (key_col, act) = match (ap.mask, ap.key.as_slice(), ap.rest.as_slice()) {
                    (0b01, [key], [(1, a)]) => (0u8, (*key, KAction::of(*a))),
                    (0b10, [key], [(0, a)]) => (1u8, (*key, KAction::of(*a))),
                    _ => return None,
                };
                let slot = kslots.slot(ap.pred, key_col);
                let spec = CsrSlotSpec {
                    slot,
                    pred: ap.pred,
                    key_col,
                };
                if !csr_slots.contains(&spec) {
                    csr_slots.push(spec);
                }
                KOp::ProbeCsr {
                    slot,
                    key: KSlot::of(act.0),
                    act: act.1,
                }
            }
            Op::Exists(ap) => match ap.key.as_slice() {
                [a] => KOp::Exists1 {
                    pred: ap.pred,
                    arg: KSlot::of(*a),
                },
                [a, b] => KOp::Exists2 {
                    pred: ap.pred,
                    args: [KSlot::of(*a), KSlot::of(*b)],
                },
                _ => return None,
            },
            Op::Negative { pred, args } => match args.as_slice() {
                [a] => KOp::Neg1 {
                    pred: *pred,
                    arg: KSlot::of(*a),
                },
                [a, b] => KOp::Neg2 {
                    pred: *pred,
                    args: [KSlot::of(*a), KSlot::of(*b)],
                },
                _ => return None,
            },
            Op::Filter(builtin) => KOp::Filter(KBuiltin::of(*builtin)),
        };
        ops.push(kop);
    }
    let head: Vec<KSlot> = plan.head.iter().map(|&s| KSlot::of(s)).collect();
    let merge = merge_plan(&ops, &head);
    Some(KernelRule {
        head,
        ops,
        num_regs: plan.num_vars,
        csr_slots,
        merge,
    })
}

/// Detects the sort-merge-eligible shape: exactly `[Scan2, ProbeCsr]`, all
/// three columns freshly bound, the probe keyed by a scanned register, and a
/// head drawn from those three values (or constants).
fn merge_plan(ops: &[KOp], head: &[KSlot]) -> Option<MergePlan> {
    let [KOp::Scan2 {
        pred,
        a0: KAction::Bind(r0),
        a1: KAction::Bind(r1),
    }, KOp::ProbeCsr {
        slot,
        key: KSlot::Reg(rk),
        act: KAction::Bind(rp),
    }] = ops
    else {
        return None;
    };
    let key_col = if rk == r0 {
        0u8
    } else if rk == r1 {
        1u8
    } else {
        return None;
    };
    let head: Option<Vec<MSlot>> = head
        .iter()
        .map(|&s| match s {
            KSlot::Const(c) => Some(MSlot::Const(c)),
            KSlot::Reg(r) if r == *rp => Some(MSlot::Probe),
            KSlot::Reg(r) if r == *rk => Some(MSlot::Key),
            KSlot::Reg(r) if (r == *r0 || r == *r1) && r != *rk => Some(MSlot::Other),
            KSlot::Reg(_) => None,
        })
        .collect();
    Some(MergePlan {
        scan_pred: *pred,
        key_col,
        slot: *slot,
        head: head?,
    })
}

/// Per-run CSR adjacencies, one per compile-time [`CsrSlots`] slot: the
/// committed base layer's CSR (attached through the
/// [`crate::store::BaseStore`] cache, built at most once per base) plus this
/// run's overlay side, rebuilt whenever the relation has grown since the
/// slot was last prepared. Kernel probes only target predicates outside the
/// stratum being evaluated, so a slot is rebuilt at most once per stratum —
/// and for flat EDB relations, once per run.
#[derive(Debug, Default)]
pub(crate) struct KernelSpace {
    slots: Vec<KernelSlot>,
    base_builds: u64,
    build_ns: u64,
}

#[derive(Debug, Default)]
struct KernelSlot {
    base: Option<Arc<CsrIndex>>,
    over: Option<CsrIndex>,
    upto: usize,
}

impl KernelSpace {
    pub(crate) fn new(num_slots: usize) -> KernelSpace {
        let mut slots = Vec::with_capacity(num_slots);
        slots.resize_with(num_slots, KernelSlot::default);
        KernelSpace {
            slots,
            base_builds: 0,
            build_ns: 0,
        }
    }

    /// Brings one slot up to date with the store: attaches the committed
    /// base CSR on first contact (building it through the base's cache if
    /// this run is the first over the base to probe the pair) and rebuilds
    /// the overlay side if the relation grew. A no-op when nothing changed.
    pub(crate) fn prepare(
        &mut self,
        spec: CsrSlotSpec,
        pred_map: &[PredId],
        store: &RelationStore,
    ) {
        let pred = pred_map[spec.pred.index()];
        let len = store.len_of(pred);
        let slot = &mut self.slots[spec.slot as usize];
        if slot.upto == len && slot.over.is_some() {
            return;
        }
        let timer = cqa_obs::Stopwatch::start();
        let cols = store.cols2_by_id(pred);
        if slot.base.is_none() && !cols.base0.is_empty() {
            if let Some((csr, built)) = store.base_csr(pred, spec.key_col) {
                self.base_builds += built as u64;
                slot.base = Some(csr);
            }
        }
        let (keys, vals) = match spec.key_col {
            0 => (cols.delta0, cols.delta1),
            _ => (cols.delta1, cols.delta0),
        };
        slot.over = Some(CsrIndex::build(keys, vals));
        slot.upto = len;
        self.build_ns += timer.elapsed_ns();
    }

    /// The base and overlay buckets for `key` — base ids precede overlay
    /// ids, so walking both in order enumerates candidates ascending, like
    /// the generic probe.
    #[inline]
    fn buckets(&self, slot: u32, key: u32) -> (&[u32], &[u32]) {
        let s = &self.slots[slot as usize];
        (
            s.base.as_deref().map_or(&[][..], |b| b.bucket(key)),
            s.over.as_ref().map_or(&[][..], |o| o.bucket(key)),
        )
    }

    /// Committed base CSRs this run built (vs found cached); folded into
    /// [`crate::parallel::EvalStats::base_index_builds`].
    pub(crate) fn base_builds(&self) -> u64 {
        self.base_builds
    }

    /// Wall-clock nanoseconds spent attaching/building CSRs (base and
    /// overlay sides); folded into
    /// [`crate::parallel::EvalStats::index_build_ns`].
    pub(crate) fn build_ns(&self) -> u64 {
        self.build_ns
    }
}

/// Reusable kernel execution state: the flat `u32` register file.
#[derive(Debug, Default)]
pub(crate) struct KernelExecutor {
    regs: Vec<u32>,
}

impl KernelExecutor {
    /// Derives all head tuples of a kernel rule into `out`; mirrors
    /// [`crate::engine::Executor::derive`], including the depth-0 range
    /// contract. The caller must have prepared the rule's `csr_slots`
    /// against `kernels`.
    pub(crate) fn derive(
        &mut self,
        k: &KernelRule,
        pred_map: &[PredId],
        store: &RelationStore,
        kernels: &KernelSpace,
        range: Option<(usize, usize)>,
        out: &mut Vec<Tuple>,
    ) {
        if let Some(m) = &k.merge {
            let len = match range {
                Some((lo, hi)) => hi - lo,
                None => store.len_of(pred_map[m.scan_pred.index()]),
            };
            if len >= MERGE_MIN {
                self.derive_merge(m, pred_map, store, kernels, range, out);
                return;
            }
        }
        self.regs.clear();
        self.regs.resize(k.num_regs, 0);
        self.step(k, 0, pred_map, store, kernels, range, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        k: &KernelRule,
        depth: usize,
        pred_map: &[PredId],
        store: &RelationStore,
        kernels: &KernelSpace,
        range: Option<(usize, usize)>,
        out: &mut Vec<Tuple>,
    ) {
        let Some(op) = k.ops.get(depth) else {
            out.push(
                k.head
                    .iter()
                    .map(|slot| Symbol::from_id(slot.resolve(&self.regs)))
                    .collect(),
            );
            return;
        };
        match *op {
            KOp::Scan1 { pred, act } => {
                let cols = store.cols1_by_id(pred_map[pred.index()]);
                let (lo, hi) = match range {
                    Some(r) if depth == 0 => r,
                    _ => (0, cols.base.len() + cols.delta.len()),
                };
                let (base, overlay) = cols.segments(lo, hi);
                for segment in [base, overlay] {
                    for &v in segment {
                        if act.apply(v, &mut self.regs) {
                            self.step(k, depth + 1, pred_map, store, kernels, range, out);
                        }
                    }
                }
            }
            KOp::Scan2 { pred, a0, a1 } => {
                let cols = store.cols2_by_id(pred_map[pred.index()]);
                let (lo, hi) = match range {
                    Some(r) if depth == 0 => r,
                    _ => (0, cols.base0.len() + cols.delta0.len()),
                };
                let ((b0, b1), (d0, d1)) = cols.segments(lo, hi);
                for (s0, s1) in [(b0, b1), (d0, d1)] {
                    for (&x, &y) in s0.iter().zip(s1) {
                        if a0.apply(x, &mut self.regs) && a1.apply(y, &mut self.regs) {
                            self.step(k, depth + 1, pred_map, store, kernels, range, out);
                        }
                    }
                }
            }
            KOp::ProbeCsr { slot, key, act } => {
                let (base, overlay) = kernels.buckets(slot, key.resolve(&self.regs));
                for segment in [base, overlay] {
                    for &v in segment {
                        if act.apply(v, &mut self.regs) {
                            self.step(k, depth + 1, pred_map, store, kernels, range, out);
                        }
                    }
                }
            }
            KOp::Exists1 { pred, arg } => {
                let cols = store.cols1_by_id(pred_map[pred.index()]);
                if cols.contains(arg.resolve(&self.regs)) {
                    self.step(k, depth + 1, pred_map, store, kernels, range, out);
                }
            }
            KOp::Exists2 { pred, args } => {
                if self.contains2(pred_map, store, pred, args) {
                    self.step(k, depth + 1, pred_map, store, kernels, range, out);
                }
            }
            KOp::Neg1 { pred, arg } => {
                let cols = store.cols1_by_id(pred_map[pred.index()]);
                if !cols.contains(arg.resolve(&self.regs)) {
                    self.step(k, depth + 1, pred_map, store, kernels, range, out);
                }
            }
            KOp::Neg2 { pred, args } => {
                if !self.contains2(pred_map, store, pred, args) {
                    self.step(k, depth + 1, pred_map, store, kernels, range, out);
                }
            }
            KOp::Filter(builtin) => {
                if builtin.holds(&self.regs) {
                    self.step(k, depth + 1, pred_map, store, kernels, range, out);
                }
            }
        }
    }

    #[inline]
    fn contains2(
        &self,
        pred_map: &[PredId],
        store: &RelationStore,
        pred: PredId,
        args: [KSlot; 2],
    ) -> bool {
        let ground = [
            Symbol::from_id(args[0].resolve(&self.regs)),
            Symbol::from_id(args[1].resolve(&self.regs)),
        ];
        store.contains_by_id(pred_map[pred.index()], &ground)
    }

    /// The sort-merge path: gather `(key, other)` pairs from the scan range,
    /// sort, and walk equal-key runs with one bucket fetch each.
    fn derive_merge(
        &mut self,
        m: &MergePlan,
        pred_map: &[PredId],
        store: &RelationStore,
        kernels: &KernelSpace,
        range: Option<(usize, usize)>,
        out: &mut Vec<Tuple>,
    ) {
        let cols = store.cols2_by_id(pred_map[m.scan_pred.index()]);
        let (lo, hi) = range.unwrap_or((0, cols.base0.len() + cols.delta0.len()));
        let ((b0, b1), (d0, d1)) = cols.segments(lo, hi);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(hi - lo);
        for (s0, s1) in [(b0, b1), (d0, d1)] {
            match m.key_col {
                0 => pairs.extend(s0.iter().copied().zip(s1.iter().copied())),
                _ => pairs.extend(s1.iter().copied().zip(s0.iter().copied())),
            }
        }
        pairs.sort_unstable();
        let emit = |key: u32, other: u32, probe: u32, out: &mut Vec<Tuple>| {
            out.push(
                m.head
                    .iter()
                    .map(|slot| {
                        Symbol::from_id(match slot {
                            MSlot::Key => key,
                            MSlot::Other => other,
                            MSlot::Probe => probe,
                            MSlot::Const(c) => *c,
                        })
                    })
                    .collect(),
            );
        };
        let mut i = 0;
        while i < pairs.len() {
            let key = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == key {
                j += 1;
            }
            let (base, overlay) = kernels.buckets(m.slot, key);
            if !(base.is_empty() && overlay.is_empty()) {
                for &(_, other) in &pairs[i..j] {
                    for segment in [base, overlay] {
                        for &probe in segment {
                            emit(key, other, probe, out);
                        }
                    }
                }
            }
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BodyLiteral, Builtin, DlAtom, DlTerm, Predicate, Rule};
    use crate::engine::{edb_from_instance, PredTable};
    use crate::plan::{compile_rule, IndexSlots, IndexSpace};
    use cqa_db::instance::DatabaseInstance;

    fn atom(name: &str, terms: &[DlTerm]) -> DlAtom {
        DlAtom::new(Predicate::new(name, terms.len()), terms.to_vec())
    }

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn compile_both(
        rule: &Rule,
        delta_pos: Option<usize>,
        stratum: &[&str],
    ) -> (CompiledRule, Option<KernelRule>, PredTable) {
        let vars = rule.numbering();
        let mut preds = PredTable::default();
        let mut islots = IndexSlots::default();
        let plan = compile_rule(rule, &vars, delta_pos, &mut preds, &mut islots);
        let stratum_ids: Vec<PredId> = stratum
            .iter()
            .filter_map(|name| {
                preds
                    .iter()
                    .find(|(_, p)| p.name.as_str() == *name)
                    .map(|(id, _)| id)
            })
            .collect();
        let mut kslots = CsrSlots::default();
        let kernel = compile_kernel(&plan, &stratum_ids, &mut kslots);
        (plan, kernel, preds)
    }

    #[test]
    fn linear_tc_delta_rule_is_kernel_eligible() {
        // path(X, Z) :- path(X, Y), E(Y, Z) with delta on path: the probe
        // targets E, which is outside the stratum.
        let rule = Rule::new(
            atom("path", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("path", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("E", &[v("Y"), v("Z")])),
            ],
        );
        let (_, kernel, _) = compile_both(&rule, Some(0), &["path"]);
        let kernel = kernel.expect("linear tc delta rule should take the kernel path");
        assert!(matches!(kernel.ops[0], KOp::Scan2 { .. }));
        assert!(matches!(kernel.ops[1], KOp::ProbeCsr { .. }));
        assert_eq!(kernel.csr_slots.len(), 1);
        assert!(kernel.merge.is_some(), "two-op all-bind shape merges");
    }

    #[test]
    fn same_stratum_probes_fall_back_to_generic() {
        // Nonlinear tc: the probe targets path itself, which grows every
        // round — kernel selection must decline.
        let rule = Rule::new(
            atom("path", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("path", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("path", &[v("Y"), v("Z")])),
            ],
        );
        let (_, kernel, _) = compile_both(&rule, Some(0), &["path"]);
        assert!(kernel.is_none());
    }

    #[test]
    fn wide_atoms_fall_back_to_generic() {
        let rule = Rule::new(
            atom("h", &[v("X")]),
            vec![BodyLiteral::Positive(atom("T", &[v("X"), v("Y"), v("Z")]))],
        );
        let (_, kernel, _) = compile_both(&rule, None, &["h"]);
        assert!(kernel.is_none());
    }

    #[test]
    fn negation_builtins_and_unary_checks_translate() {
        // h(X) :- adom(X), not key(X), E(X, Y), X != Y.
        let rule = Rule::new(
            atom("h", &[v("X")]),
            vec![
                BodyLiteral::Positive(atom("adom", &[v("X")])),
                BodyLiteral::Negative(atom("key", &[v("X")])),
                BodyLiteral::Positive(atom("E", &[v("X"), v("Y")])),
                BodyLiteral::Builtin(Builtin::Neq(v("X"), v("Y"))),
            ],
        );
        let (plan, kernel, _) = compile_both(&rule, None, &["h"]);
        let kernel = kernel.expect("unary/binary fragment translates");
        assert_eq!(kernel.ops.len(), plan.ops.len());
        assert!(kernel.ops.iter().any(|op| matches!(op, KOp::Neg1 { .. })));
        assert!(kernel.ops.iter().any(|op| matches!(op, KOp::Filter(_))));
    }

    #[test]
    fn kernel_derives_the_same_tuples_in_the_same_order_as_generic() {
        let mut db = DatabaseInstance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("b", "d"), ("c", "a"), ("d", "d")] {
            db.insert_parsed("E", a, b);
            db.insert_parsed("F", b, a);
        }
        let mut store = edb_from_instance(&db);
        // h(X, Z) :- E(X, Y), F(Y, Z): scan E, probe F on its first column.
        let rule = Rule::new(
            atom("h", &[v("X"), v("Z")]),
            vec![
                BodyLiteral::Positive(atom("E", &[v("X"), v("Y")])),
                BodyLiteral::Positive(atom("F", &[v("Y"), v("Z")])),
            ],
        );
        let vars = rule.numbering();
        let mut preds = PredTable::default();
        let mut islots = IndexSlots::default();
        let plan = compile_rule(&rule, &vars, None, &mut preds, &mut islots);
        let mut kslots = CsrSlots::default();
        let kernel = compile_kernel(&plan, &[], &mut kslots).expect("eligible");

        let pred_map: Vec<PredId> = preds.iter().map(|(_, p)| store.intern(p)).collect();
        let store = store;

        let mut generic_out = Vec::new();
        let mut executor = crate::engine::Executor::default();
        let mut indexes = IndexSpace::new(islots.len());
        executor.derive(
            &plan,
            &pred_map,
            &store,
            &mut indexes,
            None,
            &mut generic_out,
        );

        let mut kspace = KernelSpace::new(kslots.len());
        for &spec in &kernel.csr_slots {
            kspace.prepare(spec, &pred_map, &store);
        }
        let mut kernel_out = Vec::new();
        KernelExecutor::default().derive(
            &kernel,
            &pred_map,
            &store,
            &kspace,
            None,
            &mut kernel_out,
        );

        assert_eq!(generic_out, kernel_out, "same tuples in the same order");
        assert!(!kernel_out.is_empty());
    }
}
